import dataclasses
import hashlib
from fractions import Fraction

import pytest

from locyc.tate_series import (
    build_bundle,
    cubic_coefficients,
    oracle_cubic_roots,
    s_k,
    tate_a_invariants,
    two_torsion_x,
)


def embed(frac: Fraction, p: int, n: int) -> int:
    """Exact-rational oracle embedding: numerator * denominator^-1 mod p^n."""
    m = p**n
    return frac.numerator * pow(frac.denominator, -1, m) % m


def sk_oracle(p: int, k: int, n: int) -> int:
    """Exact Fraction evaluation of the Lambert-type sum, truncated where
    the valuation bound 2pn exceeds the precision."""
    q = Fraction(p) ** (2 * p)
    total = Fraction(0)
    j = 1
    while 2 * p * j <= n:
        total += j**k * q**j / (1 - q**j)
        j += 1
    return embed(total, p, n)


def test_s1_p5():
    assert s_k(5, 1, 21) == sk_oracle(5, 1, 21)
    assert s_k(5, 1, 21) == (5**10 + 3 * 5**20) % 5**21


def test_s3_p5():
    assert s_k(5, 3, 21) == sk_oracle(5, 3, 21)
    assert s_k(5, 3, 21) == (5**10 + 9 * 5**20) % 5**21


def test_s5_and_p7():
    assert s_k(5, 5, 21) == sk_oracle(5, 5, 21)
    for k in (1, 3, 5):
        assert s_k(7, k, 29) == sk_oracle(7, k, 29)


def test_sk_below_first_term_is_zero():
    for p in (5, 7, 11):
        assert s_k(p, 3, 1) == 0  # every term has valuation 2p > 1


def test_a_invariants_p5():
    a4, a6 = tate_a_invariants(5, 21)
    s3 = Fraction(5**10 + 9 * 5**20)  # truncation-exact for this precision
    # classical normalization: a4 = -5*s3 (the 2-torsion tests below pin this)
    assert a4 == embed(-5 * s3, 5, 21)
    assert a6 == (-(5**10) - 23 * 5**20) % 5**21


def test_a_invariants_vanish_at_precision_1():
    for p in (5, 7):
        a4, a6 = tate_a_invariants(p, 1)
        assert a4 == 0 and a6 == 0


def h(z):
    return z / (1 - z) ** 2


def x_oracle(p: int, which: int, n: int) -> int:
    """Exact Fraction evaluation of the two-torsion coordinate series."""
    if which == 1:
        q = Fraction(p) ** (2 * p)
        total = Fraction(-1, 4)
        j = 1
        while 2 * p * j <= n:
            total -= 2 * (q**j / (1 + q**j) ** 2 + q**j / (1 - q**j) ** 2)
            j += 1
        return embed(total, p, n)
    u = Fraction(p) ** p if which == 2 else -(Fraction(p) ** p)
    total = Fraction(0)
    m = 1
    while p * m <= n:
        total += 2 * (-1) ** (m - 1) * h(u**m)
        m += 1
    return embed(total, p, n)


@pytest.mark.parametrize("p,n", [(5, 21), (7, 29)])
@pytest.mark.parametrize("which", [1, 2, 3])
def test_two_torsion_series_match_exact_oracle(p, n, which):
    assert two_torsion_x(p, which, n) == x_oracle(p, which, n)


def test_two_torsion_leading_terms():
    # leading expansions: -1/4 - 4q, 2w + 2q + 8w^3, -2w + 2q - 8w^3
    p, n = 5, 21
    q, w, mod = 5**10, 5**5, 5**21
    x1 = two_torsion_x(p, 1, n)
    assert (x1 - embed(Fraction(-1, 4), p, n) + 4 * q) % q**2 == 0
    x2 = two_torsion_x(p, 2, n)
    assert (x2 - (2 * w + 2 * q + 8 * w**3)) % 5**20 == 0
    x3 = two_torsion_x(p, 3, n)
    assert (x3 - (-2 * w + 2 * q - 8 * w**3)) % 5**20 == 0


def test_monotone_refinement():
    for n1, n2 in [(6, 21), (11, 31), (21, 41)]:
        low = s_k(5, 3, n1)
        assert s_k(5, 3, n2) % 5**n1 == low
        for which in (1, 2, 3):
            a = two_torsion_x(5, which, n1)
            assert two_torsion_x(5, which, n2) % 5**n1 == a


def test_division_cubic_vieta_pins_a_invariants():
    """The series coordinates are the roots of
    x^3 + x^2/4 + a4 x + a6 = 0; the elementary symmetric functions pin
    both coefficients exactly."""
    for p in (5, 7):
        n = 4 * p + 1
        mod = p**n
        a4, a6 = tate_a_invariants(p, n)
        x1, x2, x3 = (two_torsion_x(p, w, n) for w in (1, 2, 3))
        assert (x1 + x2 + x3) % mod == embed(Fraction(-1, 4), p, n)
        assert (x1 * x2 + x1 * x3 + x2 * x3) % mod == a4
        assert (x1 * x2 * x3) % mod == -a6 % mod


@pytest.mark.parametrize("p", [5, 7])
def test_bundle_invariants(p):
    b = build_bundle(p)
    r = 4 * p + 1
    mod = p**r
    # the two normalization routes agree: 4x + 1/3 == (36x + 3)/9
    inv9 = pow(9, -1, mod)
    for which, xpp in ((1, b.xpp1), (2, b.xpp2), (3, b.xpp3)):
        x = two_torsion_x(p, which, r)
        assert xpp == (36 * x + 3) * inv9 % mod
    # stated digit patterns
    third = embed(Fraction(1, 3), p, r)
    assert (b.xpp1 - embed(Fraction(-2, 3), p, r)) % p**p == 0
    assert (b.xpp2 - (third + 8 * p**p)) % p ** (p + 1) == 0
    assert (b.xpp3 - (third - 8 * p**p)) % p ** (p + 1) == 0
    # difference structure: the unit factors reproduce the differences
    mod_low = p ** (r - p)
    d21 = (b.xpp2 - b.xpp1) % mod
    d31 = (b.xpp3 - b.xpp1) % mod
    d23 = (b.xpp2 - b.xpp3) % mod
    assert ((d21 - 1) // p**p) % mod_low == 8 * b.alpha % mod_low
    assert ((1 - d31) % mod // p**p) % mod_low == 8 * b.beta % mod_low
    assert (d23 // p**p) % mod_low == 16 * b.gamma % mod_low


def _oracle_case(p, level):
    # the full precision 4p + 1 keeps the plain id p
    n = {"p+1": p + 1, "2p+1": 2 * p + 1, "4p+1": 4 * p + 1}[level]
    return pytest.param(p, n, id=str(p) if level == "4p+1" else f"{p}-{level}")


# Every ladder prime, 11, and 59 above the ladder.  At p + 1 and 2p + 1
# the pair's tau = p lift has the least slack.  p = 5 and 7 at 4p + 1
# are the acceptance suite's test_oracle_equivalence.
@pytest.mark.parametrize(
    "p,n",
    [
        _oracle_case(p, level)
        for p in (5, 7, 11, 13, 31, 41, 47, 53, 59)
        for level in ("p+1", "2p+1", "4p+1")
        if not (p in (5, 7) and level == "4p+1")
    ],
)
def test_oracle_equivalence_full_precision(p, n):
    b = build_bundle(p)
    r1, r2, r3 = oracle_cubic_roots(p, n)
    assert all(0 <= r < p**n for r in (r1, r2, r3))
    assert r1 == b.xpp1 % p**n
    assert r2 == b.xpp2 % p**n
    assert r3 == b.xpp3 % p**n


def test_oracle_rejects_precision_p():
    # at p = 1747 the lift's own valuation check would pass at precision
    # p on digits that the 2p-digit coefficients do not certify
    for p in (5, 53, 1747):
        with pytest.raises(ValueError, match=r"at least p \+ 1"):
            oracle_cubic_roots(p, p)


def test_oracle_vieta():
    p, n = 5, 21
    mod = p**n
    A, B = cubic_coefficients(p, n)
    r1, r2, r3 = oracle_cubic_roots(p, n)
    assert (r1 + r2 + r3) % mod == 0
    pair = r1 * r2 + r1 * r3 + r2 * r3
    assert pair % mod == A
    assert (r1 * r2 * r3) % mod == -B % mod


# sha256 over every digit the series produce for p: each build_bundle(p)
# field at the default precision, then A and B of cubic_coefficients at
# C9's guard precision 6p + 1, one "name=decimal" row each.  The `series`
# pins in test_cli see only the 40 digits they print.
SERIES_DIGITS_SHA256 = {
    5: "87e417536d86a80daece6699ca7910fbbace61fa57e5de8f364aa206445554ea",
    7: "b7c53e2f7d48ea279d37e36ea6c0db0126da4fb373ddca2d51fe8b2c08c70f31",
    13: "828afbdff04de1b1ab07cb822e988cf9347b3a93e84c5901e68732627d4449e4",
    31: "14de1536dc2a5af1cffe186addd30783bcf4bcf04296c5c30400fe0a40c72085",
    41: "196aff181361f0487ad6ffaa99fffd97cb92cdafcf9e7c0ba8f864a1aea9eec0",
    47: "1e786c5a1317066e2e76a2d1f0df6ab9c50516e6bbe9281a4b59a21da69d2949",
    53: "8afc36f36cecb99a893bf2bce7dabc2a2cc4c51844ec4ceafb2ef3e18ba6a853",
}


@pytest.mark.parametrize("p", sorted(SERIES_DIGITS_SHA256))
def test_every_series_digit_matches_its_pinned_digest(p):
    bundle = build_bundle(p)
    rows = [f"{f.name}={getattr(bundle, f.name)}"
            for f in dataclasses.fields(bundle)]
    a, b = cubic_coefficients(p, 6 * p + 1)
    rows += [f"A={a}", f"B={b}"]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == SERIES_DIGITS_SHA256[p]


def test_bundle_rejects_precision_at_most_p():
    # alpha, beta and gamma are known mod p^(N - p), which needs N > p
    for n in (5, 3):
        with pytest.raises(ValueError, match="must exceed p"):
            build_bundle(5, precision=n)
