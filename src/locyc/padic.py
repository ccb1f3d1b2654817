"""p-adic integers as plain residues, and the helpers the series and
the checks share.

A p-adic integer known to N digits is an int in [0, p^N): each function
here and in ``tate_series`` states its N in its signature or docstring,
and arithmetic on the residues is exact modulo that p^N.  Exact division
by p^k (``shift_down``) takes a residue mod p^N to one mod p^(N-k); it is
the one place where digits are genuinely consumed rather than merely
truncated.
"""

from __future__ import annotations

import math
from typing import Sequence


def int_valuation(n: int, p: int):
    """Exponent of p in the integer n; math.inf for n = 0.

    Divides by p, p^2, p^4, ... while they divide, then steps back down
    through the same powers, so a valuation v costs about 2 log2(v)
    divisions instead of v.  Valid certificates have small valuations
    and gain nothing; the point is forged input.  Python 3.10.0-3.10.6
    parse any number of decimal digits, and one division per digit makes
    verifying a file whose b0 - a0 is a huge power of p quadratic in its
    size: 26 s for an 87 KB file with v_p(delta) = 120000, and 2 s this
    way, on a 2-core Xeon VM.
    """
    if n == 0:
        return math.inf
    powers = []  # p^(2^i) for each i whose division succeeded
    pk = p
    while n % pk == 0:
        n //= pk
        powers.append(pk)
        pk *= pk
    v = (1 << len(powers)) - 1
    # what is left has valuation below 2^len(powers): take its binary digits
    for i in reversed(range(len(powers))):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def from_rational(num: int, den: int, p: int, n: int) -> int:
    """num/den mod p^n, which requires den to be a p-adic unit."""
    if den % p == 0:
        raise ValueError(f"denominator ({den.bit_length()}-bit) divisible by {p}")
    m = p**n
    return num * pow(den, -1, m) % m


def shift_down(x: int, p: int, k: int) -> int:
    """Exact division by p^k: a residue mod p^N becomes one mod p^(N-k)."""
    pk = p**k
    if x % pk != 0:
        raise ValueError(f"residue {x} not divisible by {p}^{k}")
    return x // pk


def _poly_eval_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    # term by term: a sparse f such as x^(2p) - q0 costs a few powers
    # mod m, where Horner would multiply through every zero coefficient
    return sum(c * pow(x, i, m) for i, c in enumerate(coeffs) if c) % m


def _poly_deriv(coeffs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs) if i >= 1]


def hensel_lift(
    coeffs: Sequence[int],
    alpha: int,
    p: int,
    j: int,
    tau: int,
    precision: int | None = None,
) -> int:
    """Lift an approximate root of an integer polynomial into Z_p.

    ``coeffs`` lists the coefficients from the constant term upward.
    Preconditions (checked, with the computed values reported on
    failure): p^j divides f(alpha), tau is exactly v_p(f'(alpha)), and
    j >= 2*tau + 1.  Under these the root beta is unique in the class
    alpha mod p^(j-tau), and each Newton step at least doubles the
    slack j - 2*tau, so refinement to any requested precision is cheap.
    Returns beta mod p^precision, by default mod p^(j - tau).
    """
    deriv = _poly_deriv(coeffs)
    # exact evaluations: alpha and the coefficients are plain integers
    fa = sum(c * alpha**i for i, c in enumerate(coeffs) if c)
    fpa = sum(c * alpha**i for i, c in enumerate(deriv) if c)
    v_fa = int_valuation(fa, p)
    v_fpa = int_valuation(fpa, p)
    if v_fa < j:
        raise ValueError(
            f"f(alpha) has valuation {v_fa}, below the required {j}"
        )
    if v_fpa != tau:
        raise ValueError(
            f"f'(alpha) has valuation {v_fpa}, stated tau is {tau}"
        )
    if j < 2 * tau + 1:
        raise ValueError(f"need j >= 2*tau + 1, got j={j}, tau={tau}")

    target = j - tau if precision is None else precision
    if target < 1:
        raise ValueError("requested precision must be positive")
    # Work a little above target + tau so each quotient f/f' keeps
    # enough certified digits.
    work = target + tau + 2
    big = p**work
    x = alpha % big
    known = j  # certified: v_p(f(x)) >= known
    for _ in range(64):
        if known - tau >= target:
            break
        fx = _poly_eval_mod(coeffs, x, big)
        if fx == 0:
            known = work
            break
        dx = _poly_eval_mod(deriv, x, big)
        v_dx = int_valuation(dx, p)
        if v_dx != tau:
            raise ArithmeticError(
                f"derivative valuation drifted to {v_dx} during lifting"
            )
        unit = dx // p**tau
        step_mod = p ** (work - tau)
        delta = (fx // p**tau) * pow(unit, -1, step_mod) % step_mod
        x = (x - delta) % big
        known = min(2 * (known - tau), work)
    else:
        raise ArithmeticError("Newton iteration did not reach the target")
    return x % p**target


def format_expansion(x: int, p: int, k: int) -> str:
    """Render the k lowest base-p digits of x as c0 + c1*p + c2*p^2 + ...
    with digits in [0, p); x must be known mod p^k at least."""
    parts = []
    for i in range(k):
        x, d = divmod(x, p)
        if i == 0:
            parts.append(str(d))
        elif i == 1:
            parts.append(f"{d}*{p}")
        else:
            parts.append(f"{d}*{p}^{i}")
    return " + ".join(parts) + f" + O({p}^{k})"
