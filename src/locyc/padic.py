"""Truncated p-adic integers with explicit precision tracking.

A value is a residue modulo p^N together with the exponent N.  All
arithmetic is exact modulo the stated power of p; nothing is ever
rounded silently.  Operations between two values require the same prime
and produce the minimum of the two precisions.  Exact division by p^k
(``shift_down``) reduces the precision by k, which is the one place
where digits are genuinely consumed rather than merely truncated.

Only nonnegative valuations are representable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence


class PrecisionError(ValueError):
    """Raised when an operation cannot deliver its promised precision."""


@dataclass(frozen=True)
class PadicInt:
    """Residue mod prime**precision, canonical least-nonnegative form."""

    prime: int
    precision: int
    residue: int

    def __post_init__(self):
        if self.prime < 2:
            raise ValueError(f"prime must be >= 2, got {self.prime}")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        if not 0 <= self.residue < self.prime**self.precision:
            raise ValueError(
                f"residue {self.residue} out of range for "
                f"{self.prime}^{self.precision}"
            )

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.prime != self.prime:
                raise ValueError(
                    f"prime mismatch: {self.prime} vs {other.prime}"
                )
            return other
        if isinstance(other, int):
            return PadicInt(self.prime, self.precision, other % self.modulus)
        return NotImplemented

    def _combine(self, other, op):
        """self op other at the lesser of the two precisions."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = min(self.precision, o.precision)
        return PadicInt(self.prime, n, op(self.residue, o.residue) % self.prime**n)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.prime, self.precision, (-self.residue) % self.modulus)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return PadicInt(
            self.prime, self.precision, pow(self.residue, k, self.modulus)
        )

    def valuation(self):
        """Largest k <= precision with p^k dividing the residue.

        A zero residue only certifies "at least the precision"; that case
        returns math.inf so comparisons like ``valuation >= r`` behave as
        intended whenever r <= precision.
        """
        return int_valuation(self.residue, self.prime)

    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def inv(self) -> "PadicInt":
        """Multiplicative inverse; requires a unit (valuation 0)."""
        if not self.is_unit():
            raise ValueError(
                f"not a unit: residue {self.residue} divisible by {self.prime}"
            )
        return PadicInt(
            self.prime, self.precision, pow(self.residue, -1, self.modulus)
        )

    def shift_down(self, k: int) -> "PadicInt":
        """Exact division by p^k.  Costs k digits of precision."""
        if k < 0:
            raise ValueError("shift_down needs k >= 0")
        if k == 0:
            return self
        if self.precision - k < 1:
            raise PrecisionError(
                f"cannot divide by {self.prime}^{k} at precision {self.precision}"
            )
        pk = self.prime**k
        if self.residue % pk != 0:
            raise ValueError(
                f"residue {self.residue} not divisible by {self.prime}^{k}"
            )
        return PadicInt(self.prime, self.precision - k, self.residue // pk)

    def truncate(self, n: int) -> "PadicInt":
        """Forget digits above p^n (n must not exceed the precision)."""
        if n > self.precision:
            raise PrecisionError(
                f"cannot extend precision {self.precision} to {n}"
            )
        if n == self.precision:
            return self
        return PadicInt(self.prime, n, self.residue % self.prime**n)

    def digits(self, k: int | None = None) -> list[int]:
        """Base-p digits, least significant first."""
        if k is None:
            k = self.precision
        if k > self.precision:
            raise PrecisionError(f"only {self.precision} digits are known")
        out = []
        r = self.residue
        for _ in range(k):
            r, d = divmod(r, self.prime)
            out.append(d)
        return out


def int_valuation(n: int, p: int):
    """Exponent of p in the integer n; math.inf for n = 0.

    Divides by p, p^2, p^4, ... while they divide, then steps back down
    through the same powers, so a valuation v costs about 2 log2(v)
    divisions instead of v.
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


def from_rational(num: int, den: int, p: int, n: int) -> PadicInt:
    """Embed num/den, which requires den to be a p-adic unit."""
    if den % p == 0:
        raise ValueError(f"denominator {den} divisible by {p}")
    m = p**n
    return PadicInt(p, n, num * pow(den, -1, m) % m)


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
) -> PadicInt:
    """Lift an approximate root of an integer polynomial into Z_p.

    ``coeffs`` lists the coefficients from the constant term upward.
    Preconditions (checked, with the computed values reported on
    failure): p^j divides f(alpha), tau is exactly v_p(f'(alpha)), and
    j >= 2*tau + 1.  Under these the root beta is unique in the class
    alpha mod p^(j-tau), and each Newton step at least doubles the
    slack j - 2*tau, so refinement to any requested precision is cheap.
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
    return PadicInt(p, target, x % p**target)


def format_expansion(a: PadicInt, k: int | None = None) -> str:
    """Render c0 + c1*p + c2*p^2 + ... with digits in [0, p)."""
    ds = a.digits(k)
    parts = []
    for i, d in enumerate(ds):
        if i == 0:
            parts.append(str(d))
        elif i == 1:
            parts.append(f"{d}*{a.prime}")
        else:
            parts.append(f"{d}*{a.prime}^{i}")
    return " + ".join(parts) + f" + O({a.prime}^{len(ds)})"
