import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from locyc import padic
from locyc.cli import format_expansion
from locyc.padic import (
    from_rational,
    hensel_lift,
    int_valuation,
    shift_down,
)


def test_valuation():
    assert int_valuation(50, 5) == 2
    assert int_valuation(0, 5) == math.inf  # a zero residue mod 5^3: only ">= 3"
    assert int_valuation(343, 7) == 3


def test_inv_examples():
    assert from_rational(1, 3, 5, 3) == 42  # 3*42 = 126 = 1 mod 125
    assert from_rational(1, 1, 5, 3) == 1
    # brute-force oracle over the 49 residues
    expected = next(x for x in range(49) if 48 * x % 49 == 1)
    assert from_rational(1, 48, 7, 2) == expected


def test_inv_exhaustive_5_cubed():
    mod = 125
    for u in range(1, mod):
        if u % 5 == 0:
            continue
        v = from_rational(1, u, 5, 3)
        assert 0 <= v < mod
        assert u * v % mod == 1


def test_from_rational():
    assert from_rational(-1, 4, 5, 3) == 31  # 4*31 = 124 = -1 mod 125
    x = from_rational(-2, 3, 5, 2)
    assert 3 * x % 25 == -2 % 25
    assert from_rational(7, 1, 5, 3) == 7
    assert from_rational(-1, 1, 5, 3) == 124


def test_from_rational_rejects_p_in_denominator():
    with pytest.raises(ValueError, match="divisible"):
        from_rational(1, 10, 5, 3)
    # a denominator is named by its bit size, not its digits
    with pytest.raises(ValueError, match=r"^denominator \(1661-bit\) divisible by 5$"):
        from_rational(1, 10**500, 5, 3)


def test_shift_down():
    # 75 mod 5^4 divided by 5 is 15 mod 5^3
    assert shift_down(75, 5, 1) == 15
    with pytest.raises(ValueError, match="not divisible"):
        shift_down(75, 5, 3)


def test_hensel_simple_root():
    beta = hensel_lift([-2, 0, 1], 3, 7, j=1, tau=0, precision=3)
    assert beta == 108  # 108^2 = 11664 = 2 mod 343
    # exhaustive oracle: the root is unique in its class mod 7
    roots = [x for x in range(343) if (x * x - 2) % 343 == 0 and x % 7 == 3]
    assert roots == [108]


def test_hensel_linear_polynomial():
    beta = hensel_lift([-9, 1], 9, 5, j=10, tau=0)
    assert beta == 9


def test_hensel_power_map_instance():
    # f = x^(2p) - q0 with q0 = p^(2p) mod p^(4p+1): lifted root is p
    p = 5
    q0 = p ** (2 * p) + p ** (4 * p + 1)
    coeffs = [-q0] + [0] * (2 * p - 1) + [1]
    beta = hensel_lift(coeffs, p, p, j=4 * p + 1, tau=2 * p)
    assert beta % p ** (2 * p + 1) == p
    refined = hensel_lift(coeffs, p, p, j=4 * p + 1, tau=2 * p, precision=30)
    assert (pow(refined, 2 * p, 5**30) - q0) % 5**30 == 0


# (coeffs, alpha, p, j, tau): v_p(f(alpha)) >= j, v_p(f'(alpha)) = tau >= 1,
# from two roots of f that agree mod p^tau
_REPEATED_ROOTS = [
    ([-63, 0, 1], 3, 3, 3, 1),  # x^2 - 3^2*7
    ([0, -3, 1], 18, 3, 3, 1),  # x(x - 3): the lift is the root 0
    ([0, -3, 1], 81, 3, 3, 1),  # the instance of the fx == 0 exit below
    ([-567, 0, 1], 9, 3, 5, 2),  # x^2 - 3^4*7
    ([-12, 20, -9, 1], 26, 5, 3, 1),  # (x - 1)(x - 6)(x - 2)
    ([-150, 0, 1], 5, 5, 3, 1),  # x^2 - 5^2*6
    ([-150, 0, 1], 80, 5, 4, 1),  # alpha = 5*16, 16^2 = 6 mod 5^2
    ([-3750, 0, 1], 25, 5, 5, 2),  # x^2 - 5^4*6
    ([-98, 0, 1], 21, 7, 3, 1),  # x^2 - 7^2*2
    ([-4802, 0, 1], 147, 7, 5, 2),  # x^2 - 7^4*2
]


@pytest.mark.parametrize("coeffs, alpha, p, j, tau", _REPEATED_ROOTS)
def test_hensel_repeated_root_matches_enumeration(coeffs, alpha, p, j, tau):
    # Near the root beta, v_p(f(x)) = tau + v_p(x - beta), so the roots
    # of f mod p^(n+tau) in alpha's class are exactly beta mod p^n.  Every
    # precision n whose modulus p^(n+tau) is at most 5^5 is enumerated.
    assert hensel_lift(coeffs, alpha, p, j, tau) == hensel_lift(
        coeffs, alpha, p, j, tau, precision=j - tau)
    n = 1
    while p ** (n + tau) <= 5**5:
        beta = hensel_lift(coeffs, alpha, p, j, tau, precision=n)
        if n <= j - tau:
            assert beta == alpha % p**n
        m, cls = p ** (n + tau), p ** min(j - tau, n + tau)
        roots = [x for x in range(m) if sum(c * x**i for i, c in enumerate(coeffs)) % m == 0
                 and (x - alpha) % cls == 0]
        assert {x % p**n for x in roots} == {beta}
        if n >= j - tau:
            assert len(roots) == p**tau
        n += 1


def test_hensel_stops_when_a_newton_step_is_exact(monkeypatch):
    # x(x - 3) from alpha = 81 = 3^4, stated j = 3 below v_3(f(81)) = 5:
    # one step makes x a root mod p^work, and the next evaluation of f,
    # which is 0, ends the lift before the bound known reaches the target
    values = []
    evaluate = padic._poly_eval_mod

    def recorded(coeffs, x, m):
        values.append(evaluate(coeffs, x, m))
        return values[-1]

    monkeypatch.setattr(padic, "_poly_eval_mod", recorded)
    assert hensel_lift([0, -3, 1], 81, 3, j=3, tau=1, precision=4) == 0
    assert len(values) == 3 and values[-1] == 0  # f, f', then f = 0


def test_hensel_precondition_reporting():
    with pytest.raises(ValueError, match="valuation 0, below the required 2"):
        hensel_lift([-3, 0, 1], 1, 5, j=2, tau=0)
    with pytest.raises(ValueError, match="stated tau"):
        hensel_lift([-2, 0, 1], 3, 7, j=1, tau=1)
    with pytest.raises(ValueError, match="2\\*tau"):
        hensel_lift([-900, 0, 1], 30, 5, j=2, tau=1)


def test_format_expansion():
    a = from_rational(-1, 4, 5, 6)  # digits 1, 1, 1, ... (since -1/4 = sum 5^k/..)
    s = format_expansion(a, 5, 4)
    assert s.startswith("1 + 1*5 + 1*5^2 + 1*5^3")
    assert "O(5^4)" in s


# property tests


prime = st.sampled_from([5, 7])


@given(prime, st.integers(0, 7**6 - 1), st.integers(0, 7**6 - 1))
def test_valuation_additive_under_product(p, x, y):
    n = 6
    m = p**n
    a, b = x % m, y % m
    va, vb = int_valuation(a, p), int_valuation(b, p)
    if va is math.inf or vb is math.inf:
        return
    if va + vb < n:
        assert int_valuation(a * b % m, p) == va + vb


@given(prime, st.integers(1, 7**5 - 1))
def test_inv_is_two_sided(p, x):
    n = 5
    m = p**n
    if x % p == 0:
        x += 1
    if x % p == 0:
        return
    a = x % m
    inv = from_rational(1, a, p, n)
    assert a * inv % m == 1
    assert from_rational(1, inv, p, n) == a


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
