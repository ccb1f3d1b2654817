"""Congruence targets and the affine linear forms driving the search.

The construction needs integers a0, b0, c0 matching the normalized
2-torsion x-coordinates mod p^r (r = 4p+1) while sitting in the residue
classes 0, 1, 17 mod 64, with b0-a0 and c0-a0 prime and b0-c0 equal to
16 p^p times a prime.  CRT folds the two congruence systems of each
difference into single residues s1, s2 mod 64 p^r; the three forms

    Q1(X, Y) = s1 + 64 p^r X
    Q2(X, Y) = s2 + 64 p^r Y
    Q3(X, Y) = (s1 - s2)/(16 p^p) + 4 p^(r-p) (X - Y)

satisfy Q1 - Q2 = 16 p^p Q3 identically, so one simultaneous-prime
point (x0, y0) hands over the whole triple, and ``build_certificate``
turns that point into the (unverified) certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .certificate import Certificate
from .tate_series import TateBundle, target_precision


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Least nonnegative solution of x = r1 mod m1, x = r2 mod m2
    for coprime moduli."""
    inv = pow(m1, -1, m2)
    return (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)


@dataclass(frozen=True)
class CongruenceTarget:
    p: int
    r: int
    s1: int          # = 1 mod 64,  = xpp2 - xpp1 mod p^r
    s2: int          # = 17 mod 64, = xpp3 - xpp1 mod p^r
    a0_residue: int  # = 0 mod 64,  = xpp1 mod p^r
    q3_constant: int  # (s1 - s2) / (16 p^p)


@dataclass(frozen=True)
class LinearFormTriple:
    """The three forms as (constant, coefficient) pairs.

    Q1 depends on X alone, Q2 on Y alone, Q3 on X - Y.
    """

    q1_constant: int
    q2_constant: int
    q3_constant: int
    q12_coefficient: int  # 64 p^r
    q3_coefficient: int   # 4 p^(r-p)

    def q1_at(self, x: int) -> int:
        return self.q1_constant + self.q12_coefficient * x

    def q2_at(self, y: int) -> int:
        return self.q2_constant + self.q12_coefficient * y

    def q3_at(self, d: int) -> int:
        """Q3 as a function of d = X - Y."""
        return self.q3_constant + self.q3_coefficient * d


def build_targets(bundle: TateBundle) -> CongruenceTarget:
    """CRT the series residues into search targets.

    Deterministic: least nonnegative representatives throughout.  The
    divisibility of s1 - s2 by 16 p^p is forced by the series structure
    (the difference of the two congruent roots is 16 * unit * p^p); its
    failure would mean the series digits are wrong, so it is checked.
    """
    p = bundle.prime
    r = target_precision(p)
    if bundle.precision < r:
        raise ValueError(
            f"bundle precision {bundle.precision} below required {r}"
        )
    pr = p**r
    d1 = (bundle.xpp2 - bundle.xpp1).truncate(r).residue
    d2 = (bundle.xpp3 - bundle.xpp1).truncate(r).residue
    x1_res = bundle.xpp1.truncate(r).residue
    s1 = crt_pair(1, 64, d1, pr)
    s2 = crt_pair(17, 64, d2, pr)
    a0_residue = crt_pair(0, 64, x1_res, pr)
    step = 16 * p**p
    if (s1 - s2) % step != 0:
        raise ArithmeticError(
            f"s1 - s2 = {s1 - s2} not divisible by 16*p^p = {step}"
        )
    q3_constant = (s1 - s2) // step
    if q3_constant % p != 1 % p:
        raise ArithmeticError(
            f"(s1-s2)/(16 p^p) = {q3_constant} is not 1 mod {p}"
        )
    return CongruenceTarget(
        p=p, r=r, s1=s1, s2=s2, a0_residue=a0_residue, q3_constant=q3_constant
    )


def linear_forms(target: CongruenceTarget) -> LinearFormTriple:
    p, r = target.p, target.r
    forms = LinearFormTriple(
        q1_constant=target.s1,
        q2_constant=target.s2,
        q3_constant=target.q3_constant,
        q12_coefficient=64 * p**r,
        q3_coefficient=4 * p ** (r - p),
    )
    # a form whose constant shares a factor with its coefficient can
    # essentially never be prime; guard against that for 2, 3, 5 and p
    for const, coeff in (
        (forms.q1_constant, forms.q12_coefficient),
        (forms.q2_constant, forms.q12_coefficient),
        (forms.q3_constant, forms.q3_coefficient),
    ):
        for ell in {2, 3, 5, p}:
            if coeff % ell == 0 and const % ell == 0:
                raise ArithmeticError(
                    f"form constant {const} shares factor {ell} with coefficient"
                )
    return forms


def build_certificate(
    target: CongruenceTarget,
    forms: LinearFormTriple,
    x0: int,
    y0: int,
    evidence,
    bundle: TateBundle,
    seed: int | None = None,
) -> Certificate:
    """The unverified certificate of a solution point (x0, y0) of the
    forms: the primes q1, q2, q3 are the forms' values there, and the
    curve's roots are a0, b0 = a0 + q1 and c0 = a0 + q2."""
    q1 = forms.q1_at(x0)
    q2 = forms.q2_at(y0)
    q3 = forms.q3_at(x0 - y0)
    if q1 <= 0 or q2 <= 0 or q3 <= 0:
        raise ValueError(f"form values must be positive, got {q1}, {q2}, {q3}")
    a0 = target.a0_residue
    b0 = a0 + q1
    c0 = a0 + q2
    assert b0 - c0 == 16 * target.p**target.p * q3
    r = target.r
    metadata = {"tool": f"locyc {__version__}"}
    if seed is not None:
        metadata["seed"] = str(seed)
    return Certificate(
        p=target.p,
        r=r,
        s1=target.s1,
        s2=target.s2,
        x0=x0,
        y0=y0,
        q1=q1,
        q2=q2,
        q3=q3,
        a0=a0,
        b0=b0,
        c0=c0,
        series_digest=(
            bundle.xpp1.truncate(r).residue,
            bundle.xpp2.truncate(r).residue,
            bundle.xpp3.truncate(r).residue,
        ),
        primality=tuple(evidence),
        metadata=metadata,
    )
