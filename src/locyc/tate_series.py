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

All divisions by 3, 4, 9, 12, 16 are unit divisions since p >= 5.  Every
value is a plain int in [0, p^N) for the precision N each function
states (see ``padic``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import from_rational, shift_down


def _h(z: int, modulus: int) -> int:
    """z/(1-z)^2 mod modulus; needs 1-z to be a unit, true for v(z) >= 1."""
    return z * pow((1 - z) % modulus, -2, modulus) % modulus


def s_k(p: int, k: int, precision: int) -> int:
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
    return total


def tate_a_invariants(p: int, precision: int) -> tuple[int, int]:
    """Coefficients of y^2 + xy = x^3 + a4 x + a6 for the parameter p^(2p),
    mod p^precision.

    a4 = -5*s3 and a6 = -(5*s3 + 7*s5)/12.  The factor 5 matters: it is
    what makes the 2-torsion x-coordinate series the exact roots of the
    division cubic x^3 + x^2/4 + a4*x + a6 (checked by the tests via
    elementary symmetric functions).
    """
    if p < 5:
        raise ValueError("p must be at least 5")
    mod = p**precision
    s3 = s_k(p, 3, precision)
    s5 = s_k(p, 5, precision)
    a4 = -5 * s3 % mod
    a6 = -(5 * s3 + 7 * s5) * from_rational(1, 12, p, precision) % mod
    return a4, a6


def two_torsion_x(p: int, which: int, precision: int) -> int:
    """x-coordinate of a nontrivial 2-torsion point of the q = p^(2p) curve,
    mod p^precision.

    which = 1 is the point attached to u = -1; 2 and 3 are the points at
    u = p^p and u = -p^p.
    """
    if p < 5:
        raise ValueError("p must be at least 5 so that 4 is a unit")
    mod = p**precision
    if which == 1:
        acc = from_rational(-1, 4, p, precision)
        n = 1
        while 2 * p * n <= precision:
            qn = pow(p, 2 * p * n, mod)
            acc = (acc - 2 * (_h(qn, mod) - _h(-qn, mod))) % mod
            n += 1
        return acc
    if which in (2, 3):
        sign = 1 if which == 2 else -1
        acc = 0
        m = 1
        while p * m <= precision:
            um = pow(p, p * m, mod) * sign**m % mod
            acc = (acc + 2 * (-1) ** (m - 1) * _h(um, mod)) % mod
            m += 1
        return acc
    raise ValueError(f"which must be 1, 2 or 3, got {which}")


@dataclass(frozen=True)
class TateBundle:
    """Series data for one prime at one working precision N.

    a4, a6 and the xpp are residues mod p^N; alpha, beta and gamma are
    residues mod p^(N - p), since extracting them divides by p^p.
    """

    prime: int
    precision: int
    a4: int
    a6: int
    xpp1: int  # normalized 2-torsion x-coords: (36*x + 3)/9
    xpp2: int
    xpp3: int
    alpha: int  # unit factors: xpp2-xpp1 = 1 + 8*alpha*p^p,
    beta: int   # xpp3-xpp1 = 1 - 8*beta*p^p,
    gamma: int  # xpp2-xpp3 = 16*gamma*p^p


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
    if r <= p:
        raise ValueError(f"precision {r} must exceed p = {p}")
    mod, low = p**r, p ** (r - p)
    a4, a6 = tate_a_invariants(p, r)
    third = from_rational(1, 3, p, r)
    xpp1, xpp2, xpp3 = ((4 * two_torsion_x(p, which, r) + third) % mod
                        for which in (1, 2, 3))
    inv8 = from_rational(1, 8, p, r - p)
    inv16 = from_rational(1, 16, p, r - p)
    alpha = shift_down((xpp2 - xpp1 - 1) % mod, p, p) * inv8 % low
    beta = shift_down((1 - (xpp3 - xpp1)) % mod, p, p) * inv8 % low
    gamma = shift_down((xpp2 - xpp3) % mod, p, p) * inv16 % low
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


def cubic_coefficients(p: int, precision: int) -> tuple[int, int]:
    """(A, B) mod p^precision of the depressed cubic x^3 + A x + B whose
    roots are the normalized 2-torsion x-coordinates: A = 16 a4 - 1/3 and
    B = 64 a6 - (16/3) a4 + 2/27."""
    mod = p**precision
    a4, a6 = tate_a_invariants(p, precision)
    third = from_rational(1, 3, p, precision)
    A = (16 * a4 - third) % mod
    B = (64 * a6 - 16 * a4 * third + from_rational(2, 27, p, precision)) % mod
    return A, B

