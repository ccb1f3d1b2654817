import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from locyc.padic import (
    PadicInt,
    format_expansion,
    from_rational,
    hensel_lift,
    int_valuation,
)


def test_add_basic():
    a = PadicInt(5, 3, 7)
    b = PadicInt(5, 3, 120)
    assert (a + b).residue == 2  # 127 mod 125


def test_mul_absorbing_zero():
    a = PadicInt(5, 3, 7)
    assert (a * PadicInt(5, 3, 0)).residue == 0


def test_mul_mod_49():
    a = PadicInt(7, 2, 48)
    b = PadicInt(7, 2, 2)
    assert (a * b).residue == 96 % 49 == 47


def test_prime_mismatch_rejected():
    with pytest.raises(ValueError, match="prime mismatch"):
        PadicInt(5, 3, 1) + PadicInt(7, 3, 1)


def test_result_precision_is_minimum():
    a = PadicInt(5, 4, 7)
    b = PadicInt(5, 2, 3)
    assert (a + b).precision == 2
    assert (a * b).precision == 2


def test_valuation():
    assert PadicInt(5, 3, 50).valuation() == 2
    assert PadicInt(5, 3, 0).valuation() == math.inf  # only ">= 3" is known
    assert PadicInt(7, 4, 343).valuation() == 3


def test_inv_examples():
    assert PadicInt(5, 3, 3).inv().residue == 42  # 3*42 = 126 = 1 mod 125
    assert PadicInt(5, 3, 1).inv().residue == 1
    # brute-force oracle over the 49 residues
    expected = next(x for x in range(49) if 48 * x % 49 == 1)
    assert PadicInt(7, 2, 48).inv().residue == expected


def test_inv_exhaustive_5_cubed():
    mod = 125
    for u in range(1, mod):
        if u % 5 == 0:
            continue
        v = PadicInt(5, 3, u).inv()
        assert u * v.residue % mod == 1
        assert v.residue * u % mod == 1


def test_inv_rejects_non_unit():
    with pytest.raises(ValueError, match="not a unit"):
        PadicInt(5, 3, 10).inv()


def test_from_rational():
    assert from_rational(-1, 4, 5, 3).residue == 31  # 4*31 = 124 = -1 mod 125
    x = from_rational(-2, 3, 5, 2)
    assert 3 * x.residue % 25 == -2 % 25
    assert from_rational(7, 1, 5, 3) == PadicInt(5, 3, 7)
    assert from_rational(-1, 1, 5, 3).residue == 124


def test_from_rational_rejects_p_in_denominator():
    with pytest.raises(ValueError, match="divisible"):
        from_rational(1, 10, 5, 3)


def test_shift_down():
    a = PadicInt(5, 4, 75)
    b = a.shift_down(1)
    assert b.precision == 3 and b.residue == 15
    with pytest.raises(ValueError, match="not divisible"):
        a.shift_down(3)


def test_hensel_simple_root():
    beta = hensel_lift([-2, 0, 1], 3, 7, j=1, tau=0, precision=3)
    assert beta.residue == 108  # 108^2 = 11664 = 2 mod 343
    # exhaustive oracle: the root is unique in its class mod 7
    roots = [x for x in range(343) if (x * x - 2) % 343 == 0 and x % 7 == 3]
    assert roots == [108]


def test_hensel_linear_polynomial():
    beta = hensel_lift([-9, 1], 9, 5, j=10, tau=0)
    assert beta.residue == 9


def test_hensel_power_map_instance():
    # f = x^(2p) - q0 with q0 = p^(2p) mod p^(4p+1): lifted root is p
    p = 5
    q0 = p ** (2 * p) + p ** (4 * p + 1)
    coeffs = [-q0] + [0] * (2 * p - 1) + [1]
    beta = hensel_lift(coeffs, p, p, j=4 * p + 1, tau=2 * p)
    assert beta.precision == 2 * p + 1
    assert beta.residue % p ** (2 * p + 1) == p
    refined = hensel_lift(coeffs, p, p, j=4 * p + 1, tau=2 * p, precision=30)
    assert (pow(refined.residue, 2 * p, 5**30) - q0) % 5**30 == 0


def test_hensel_precondition_reporting():
    with pytest.raises(ValueError, match="valuation 0, below the required 2"):
        hensel_lift([-3, 0, 1], 1, 5, j=2, tau=0)
    with pytest.raises(ValueError, match="stated tau"):
        hensel_lift([-2, 0, 1], 3, 7, j=1, tau=1)
    with pytest.raises(ValueError, match="2\\*tau"):
        hensel_lift([-900, 0, 1], 30, 5, j=2, tau=1)


def test_format_expansion():
    a = from_rational(-1, 4, 5, 6)  # digits 1, 1, 1, ... (since -1/4 = sum 5^k/..)
    s = format_expansion(a, 4)
    assert s.startswith("1 + 1*5 + 1*5^2 + 1*5^3")
    assert "O(5^4)" in s


# property tests


prime = st.sampled_from([5, 7])
residues = st.integers(min_value=0, max_value=5**6 - 1)


@given(prime, st.integers(0, 7**4 - 1), st.integers(0, 7**4 - 1), st.integers(0, 7**4 - 1))
def test_ring_laws(p, x, y, z):
    n = 4
    m = p**n
    a, b, c = (PadicInt(p, n, v % m) for v in (x, y, z))
    assert ((a + b) + c) == (a + (b + c))
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(prime, st.integers(0, 7**6 - 1), st.integers(0, 7**6 - 1))
def test_valuation_additive_under_product(p, x, y):
    n = 6
    a = PadicInt(p, n, x % p**n)
    b = PadicInt(p, n, y % p**n)
    va, vb = a.valuation(), b.valuation()
    if va is math.inf or vb is math.inf:
        return
    if va + vb < n:
        assert (a * b).valuation() == va + vb


@given(prime, st.integers(1, 7**5 - 1))
def test_inv_is_two_sided(p, x):
    n = 5
    if x % p == 0:
        x += 1
    if x % p == 0:
        return
    a = PadicInt(p, n, x % p**n)
    assert (a * a.inv()).residue == 1
    assert (a.inv() * a).residue == 1


def reference_int_valuation(n, p):
    """The exponent of p in n by one division per digit, as int_valuation
    computed it before it divided by p, p^2, p^4, ..."""
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(
    st.sampled_from([2, 3, 5, 7, 53, 101]),
    st.integers(-(10**30), 10**30),
    st.integers(0, 300),
)
def test_int_valuation_matches_the_digit_loop(p, unit, k):
    # k covers every binary digit pattern of the valuation up to 300, and
    # a unit divisible by p moves it past k
    n = unit * p**k
    assert int_valuation(n, p) == reference_int_valuation(n, p)
    assert int_valuation(n, p) is math.inf or int_valuation(n, p) >= k
