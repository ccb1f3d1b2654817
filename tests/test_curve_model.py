import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locyc.curve_model import (
    CurveModel,
    count_points_mod_ell,
    reduction_type,
    split_model,
    two_model,
)


def j_invariant(m):
    c4, _ = m.c_invariants()
    return Fraction(c4**3, m.discriminant())


def test_known_curve_vector():
    # y^2 = x(x-1)(x-17): conductor-17 curve with full rational 2-torsion
    m = split_model(0, 1, 17)
    assert m.discriminant() == 1183744 == 16 * 1 * 256 * 289
    assert j_invariant(m) == Fraction(20346417, 289)
    # x = 4x' + 1, y = 8y' + 4x' gives y^2 + xy = x^3 - 4x^2 - x
    assert two_model(0, 1, 17) == CurveModel(1, -4, 0, -1, 0)


def test_constructor_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        CurveModel(0, 0, 0, 0, 0)  # y^2 = x^3


def test_split_examples():
    m = split_model(0, 1, 17)
    assert (m.discriminant(), m.c_invariants()[0]) == (1183744, 16 * 273)
    m = split_model(0, 1, 2)
    assert (m.discriminant(), m.c_invariants()[0]) == (64, 16 * 3)
    with pytest.raises(ValueError, match="singular"):
        split_model(1, 1, 2)


def test_reduced_c4_equals_prime_difference_expression(cert5):
    # on a constructed certificate, c4/16 = q1^2 - 16 p^p q2 q3
    c4, _ = split_model(cert5.a0, cert5.b0, cert5.c0).c_invariants()
    assert c4 == 16 * (cert5.q1**2 - 16 * 5**5 * cert5.q2 * cert5.q3)


def test_two_model_examples():
    assert two_model(0, 1, 17).discriminant() == 289
    m = two_model(64, 65, 81)  # t = (1, 1, 1)
    d = m.discriminant()
    assert d % 2 == 1
    with pytest.raises(ValueError, match="a0 must be 0 mod 64"):
        two_model(1, 1, 17)


def test_two_model_matches_expanded_coefficient_polynomials():
    # hand-expanded coefficients of the shifted model as polynomials in
    # t1, t2, t3; an independent route to the same curve
    for t1, t2, t3 in [(0, 0, 0), (1, 1, 1), (3, -2, 7), (-5, 11, 4)]:
        m = two_model(64 * t1, 1 + 64 * t2, 17 + 64 * t3)
        assert m.a1 == 1 and m.a3 == 0
        assert m.a2 == -(16 * t1 + 16 * t2 + 16 * t3 + 4)
        assert m.a4 == -(
            -256 * t1 * t2
            - 256 * t1 * t3
            - 256 * t2 * t3
            - 64 * t1
            - 60 * t2
            + 4 * t3
            + 1
        )
        assert m.a6 == (
            -4096 * t1 * t2 * t3 - 1024 * t1 * t2 + 64 * t2 * t3 + 16 * t2
        )


def assert_two_model_scaling(a0, b0, c0):
    # the shift x = 4x' + 1, y = 8y' + 4x' (u = 2) scales delta by 2^-12
    # and c4 by 2^-4 and keeps j, so every odd prime sees the same
    # reduction on both models
    split, shifted = split_model(a0, b0, c0), two_model(a0, b0, c0)
    assert shifted.discriminant() * 2**12 == split.discriminant()
    assert shifted.c_invariants()[0] * 2**4 == split.c_invariants()[0]
    assert j_invariant(shifted) == j_invariant(split)


def test_two_model_scales_delta_and_c4_and_keeps_j(cert5, cert7):
    for t1, t2, t3 in [(0, 0, 0), (1, 1, 1), (3, -2, 7), (-5, 11, 4)]:
        assert_two_model_scaling(64 * t1, 1 + 64 * t2, 17 + 64 * t3)
    for cert in (cert5, cert7):
        assert_two_model_scaling(cert.a0, cert.b0, cert.c0)


def test_reduction_types():
    assert reduction_type(two_model(0, 1, 17), 2).kind == "good"
    rt = reduction_type(split_model(0, 1, 17), 17)
    assert rt.kind == "multiplicative"
    assert rt.v_delta_min == 2 and rt.v_c4 == 0  # c4 = 4368 = 2^4*3*7*13
    m = CurveModel(0, 0, 0, -1, 0)  # delta = 64
    assert reduction_type(m, 5).kind == "good"


def test_reduction_type_undetermined_without_minimality():
    # y^2 = x^3 + p^4 x + p^6 at p = 5: v(c4) = 4, v(delta) = 12;
    # the shortcut cannot certify minimality and must not guess
    m = CurveModel(0, 0, 0, 5**4, 5**6)
    rt = reduction_type(m, 5)
    assert rt.kind == "additive-or-undetermined"
    assert rt.v_delta_min >= 12 and rt.v_c4 >= 4


def test_models_require_integer_coefficients():
    with pytest.raises(ValueError, match="a4 must be an int"):
        CurveModel(0, 0, 0, Fraction(1, 5), 1)


def test_count_points_mod_3_exhaustive_oracle():
    m = split_model(0, 1, 17)
    assert count_points_mod_ell(m, 3) == 4
    # brute-force oracle over all (x, y) pairs mod 5
    n5 = count_points_mod_ell(m, 5)
    brute = 1 + sum(
        1
        for x in range(5)
        for y in range(5)
        if (y * y - x * (x - 1) * (x - 17)) % 5 == 0
    )
    assert n5 == brute


def test_count_points_rejects_bad_prime():
    m = split_model(0, 1, 17)
    with pytest.raises(ValueError, match="bad reduction"):
        count_points_mod_ell(m, 17)
    with pytest.raises(ValueError, match="odd prime"):
        count_points_mod_ell(m, 2)


def test_full_two_torsion_counts_divisible_by_4():
    m = split_model(0, 1, 17)
    for ell in (3, 5, 7, 11, 13, 23, 101):
        assert count_points_mod_ell(m, ell) % 4 == 0


small = st.integers(min_value=-30, max_value=30)


@given(st.sampled_from([3, 5, 7, 11, 13, 19, 31, 97, 101]), small, small, small)
@settings(max_examples=120)
def test_hasse_bound(ell, a, b, c):
    if len({a % ell, b % ell, c % ell}) != 3:
        return
    m = split_model(a, b, c)
    try:
        n = count_points_mod_ell(m, ell)
    except ValueError:
        return
    assert abs(ell + 1 - n) <= 2 * math.sqrt(ell)
