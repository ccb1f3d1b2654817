"""Multiplicative-parameter series for the curve family at q = p^(2p).

Everything here evaluates the classical uniformization series at the
specific parameter q = p^(2p), whose square root p^p is an honest
element of Z_p.  Writing h(z) = z/(1-z)^2, the facts the truncations
rely on are:

* h(1/z) = h(z), so the two-sided sum over q^n u collapses to one-sided
  sums of h at powers of w = p^p.
* s_1(q) = sum_{n>=1} n q^n/(1-q^n) = sum_{n>=1} h(q^n)  (Lambert series
  rearrangement), which turns the coordinate series X(u, q) into
      X(u, q) = sum_{n in Z} h(u q^n) - 2 sum_{n>=1} h(q^n).
* For u = -1:        X = -1/4 - 2 sum_{n>=1} [ h(q^n) - h(-q^n) ],
  with the n-th summand of valuation >= 2pn.
* For u = w or -w:   X = 2 sum_{m>=1} (-1)^(m-1) h(u^m) where u = +-w,
  with the m-th summand of valuation >= pm.

So all three 2-torsion series are sums of h at +-p^k, and
``two_torsion_x`` evaluates each of them through the one helper ``_h``.

The truncation loops run until those lower bounds exceed the requested
precision, so every computed digit is certified.  Each term n^k
q^n/(1-q^n) of s_k likewise has valuation >= 2pn.

All divisions by 3, 4, 9, 12, 16 are unit divisions since p >= 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import PadicInt, from_rational, hensel_lift


def _h(z: int, modulus: int) -> int:
    """z/(1-z)^2 mod modulus; needs 1-z to be a unit, true for v(z) >= 1."""
    return z * pow((1 - z) % modulus, -2, modulus) % modulus


def s_k(p: int, k: int, precision: int) -> PadicInt:
    """sum_{n>=1} n^k q^n/(1-q^n) at q = p^(2p), truncated at p^precision."""
    if k not in (1, 3, 5):
        raise ValueError(f"k must be 1, 3 or 5, got {k}")
    if precision < 1:
        raise ValueError("precision must be positive")
    mod = p**precision
    total = 0
    n = 1
    while 2 * p * n <= precision:
        qn = pow(p, 2 * p * n, mod)
        total = (total + n**k * qn * pow((1 - qn) % mod, -1, mod)) % mod
        n += 1
    return PadicInt(p, precision, total)


def tate_a_invariants(p: int, precision: int) -> tuple[PadicInt, PadicInt]:
    """Coefficients of y^2 + xy = x^3 + a4 x + a6 for the parameter p^(2p).

    a4 = -5*s3 and a6 = -(5*s3 + 7*s5)/12.  The factor 5 matters: it is
    what makes the 2-torsion x-coordinate series the exact roots of the
    division cubic x^3 + x^2/4 + a4*x + a6 (checked by the tests via
    elementary symmetric functions).
    """
    if p < 5:
        raise ValueError("p must be at least 5")
    s3 = s_k(p, 3, precision)
    s5 = s_k(p, 5, precision)
    a4 = -(s3 * 5)
    a6 = -((s3 * 5 + s5 * 7) * from_rational(1, 12, p, precision))
    return a4, a6


def two_torsion_x(p: int, which: int, precision: int) -> PadicInt:
    """x-coordinate of a nontrivial 2-torsion point of the q = p^(2p) curve.

    which = 1 is the point attached to u = -1; 2 and 3 are the points at
    u = p^p and u = -p^p.
    """
    if p < 5:
        raise ValueError("p must be at least 5 so that 4 is a unit")
    mod = p**precision
    if which == 1:
        acc = from_rational(-1, 4, p, precision).residue
        n = 1
        while 2 * p * n <= precision:
            qn = pow(p, 2 * p * n, mod)
            acc = (acc - 2 * (_h(qn, mod) - _h(-qn, mod))) % mod
            n += 1
        return PadicInt(p, precision, acc)
    if which in (2, 3):
        sign = 1 if which == 2 else -1
        acc = 0
        m = 1
        while p * m <= precision:
            um = pow(p, p * m, mod) * sign**m % mod
            acc = (acc + 2 * (-1) ** (m - 1) * _h(um, mod)) % mod
            m += 1
        return PadicInt(p, precision, acc)
    raise ValueError(f"which must be 1, 2 or 3, got {which}")


@dataclass(frozen=True)
class TateBundle:
    """Series data for one prime, everything at one working precision."""

    prime: int
    precision: int
    a4: PadicInt
    a6: PadicInt
    xpp1: PadicInt  # normalized 2-torsion x-coords: (36*x + 3)/9
    xpp2: PadicInt
    xpp3: PadicInt
    alpha: PadicInt  # unit factors: xpp2-xpp1 = 1 + 8*alpha*p^p,
    beta: PadicInt   # xpp3-xpp1 = 1 - 8*beta*p^p,
    gamma: PadicInt  # xpp2-xpp3 = 16*gamma*p^p


def target_precision(p: int) -> int:
    """The precision r = 4p + 1 at which a construct builds its series
    and congruence targets."""
    return 4 * p + 1


def build_bundle(p: int, precision: int | None = None) -> TateBundle:
    """Evaluate everything at q = p^(2p).

    Default precision is ``target_precision(p)``, the level at which the
    congruence targets are built.  The unit factors alpha, beta, gamma
    come out p digits shorter because extracting them divides by p^p.
    """
    if p < 5:
        raise ValueError("p must be at least 5")
    r = target_precision(p) if precision is None else precision
    a4, a6 = tate_a_invariants(p, r)
    third = from_rational(1, 3, p, r)
    xpp1 = two_torsion_x(p, 1, r) * 4 + third
    xpp2 = two_torsion_x(p, 2, r) * 4 + third
    xpp3 = two_torsion_x(p, 3, r) * 4 + third
    inv8 = from_rational(1, 8, p, r)
    inv16 = from_rational(1, 16, p, r)
    alpha = ((xpp2 - xpp1) - 1).shift_down(p) * inv8
    beta = (1 - (xpp3 - xpp1)).shift_down(p) * inv8
    gamma = (xpp2 - xpp3).shift_down(p) * inv16
    return TateBundle(
        prime=p,
        precision=r,
        a4=a4,
        a6=a6,
        xpp1=xpp1,
        xpp2=xpp2,
        xpp3=xpp3,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
    )


def cubic_coefficients(p: int, precision: int) -> tuple[PadicInt, PadicInt]:
    """(A, B) of the depressed cubic x^3 + A x + B whose roots are the
    normalized 2-torsion x-coordinates: A = 16 a4 - 1/3 and
    B = 64 a6 - (16/3) a4 + 2/27."""
    a4, a6 = tate_a_invariants(p, precision)
    A = a4 * 16 - from_rational(1, 3, p, precision)
    B = a6 * 64 - a4 * 16 * from_rational(1, 3, p, precision) + from_rational(
        2, 27, p, precision
    )
    return A, B


def oracle_cubic_roots(
    p: int, precision: int
) -> tuple[PadicInt, PadicInt, PadicInt]:
    """Roots of the normalized 2-torsion cubic, found without the series.

    Three ``hensel_lift`` calls on x^3 + A x + B, with A and B taken p
    guard digits beyond ``precision``.  Mod p the cubic is
    (x + 2/3)(x - 1/3)^2.  The simple root lifts from -2/3 mod p with
    (j, tau) = (1, 0).  The congruent pair lifts from 1/3 + 8 p^p and
    from 1/3 - 8 p^p with (j, tau) = (2p + 1, p): each root lies within
    O(p^(2p)) of its seed, so f has valuation at least 3p there and f'
    exactly p, and the root is the only one in its seed's class mod
    p^(p+1).  With v(f') = p a root of the truncated cubic keeps p
    fewer digits than the coefficients, which the guard digits pay for.
    The domain is precision >= p + 1, where the coefficients certify
    v(f) >= 2p + 1 at the pair's seeds; below it ValueError is raised
    (at precision p the 2p-digit coefficients still pass the lift's
    check by chance for some p, 1747 and 1753 among them).  Ordering:
    the root near -2/3 first, then the +8 p^p root, then the -8 p^p root.
    """
    if precision <= p:
        raise ValueError(f"precision {precision} must be at least p + 1 = {p + 1}")
    work = precision + p
    A, B = cubic_coefficients(p, work)
    coeffs = [B.residue, A.residue, 0, 1]
    third = pow(3, -1, p**work)
    offset = 8 * p**p
    j, tau = 2 * p + 1, p
    return (
        hensel_lift(coeffs, -2 * third % p, p, j=1, tau=0, precision=precision),
        hensel_lift(coeffs, third + offset, p, j=j, tau=tau, precision=precision),
        hensel_lift(coeffs, third - offset, p, j=j, tau=tau, precision=precision),
    )
