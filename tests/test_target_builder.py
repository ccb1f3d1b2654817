from dataclasses import replace

import pytest

from locyc.target_builder import (
    build_certificate,
    build_targets,
    crt_pair,
    linear_forms,
)
from locyc.tate_series import build_bundle


def test_crt_pair():
    x = crt_pair(1, 64, 3, 125)
    assert x % 64 == 1 and x % 125 == 3 and 0 <= x < 64 * 125
    assert crt_pair(0, 64, 0, 125) == 0


def test_target_residues_p5(bundle5, target5):
    t = target5
    assert t.r == 21
    assert 0 <= t.s1 < 64 * 5**21 and 0 <= t.s2 < 64 * 5**21
    assert t.s1 % 64 == 1
    assert t.s2 % 64 == 17
    assert t.a0_residue % 64 == 0
    pr = 5**21
    d1 = (bundle5.xpp2 - bundle5.xpp1) % pr
    d2 = (bundle5.xpp3 - bundle5.xpp1) % pr
    assert t.s1 % pr == d1
    assert t.s2 % pr == d2
    assert t.a0_residue % pr == bundle5.xpp1
    assert (t.s1 - t.s2) % (16 * 5**5) == 0


@pytest.mark.parametrize("p", [5, 7, 11])
def test_divisibility_and_q3_residue(p):
    t = build_targets(build_bundle(p))
    assert (t.s1 - t.s2) % (16 * p**p) == 0
    assert t.q3_constant % p == 1


def test_determinism(bundle5):
    assert build_targets(bundle5) == build_targets(bundle5)


def test_rejects_short_bundle():
    b = build_bundle(5, precision=10)
    with pytest.raises(ValueError, match="precision"):
        build_targets(b)


def test_linear_form_coefficients(target5):
    forms = linear_forms(target5)
    assert forms.q12_coefficient == 64 * 5**21
    assert forms.q3_coefficient == 4 * 5**16
    f7 = linear_forms(build_targets(build_bundle(7)))
    assert f7.q12_coefficient == 64 * 7**29
    assert f7.q3_coefficient == 4 * 7**22


@pytest.mark.parametrize("field, scale", [("q3_constant", 2), ("s1", 5)])
def test_linear_forms_rejects_a_constant_sharing_a_factor(target5, field, scale):
    # 2 and p are the prime factors of the coefficients 64 p^r and
    # 4 p^(r-p): an even Q3 constant, or a Q1 constant divisible by p,
    # would make every value of that form composite
    bad = replace(target5, **{field: getattr(target5, field) * scale})
    with pytest.raises(ArithmeticError, match="is not prime to its coefficient"):
        linear_forms(bad)


def test_form_identity_q1_minus_q2(target5):
    # Q1(X, Y) - Q2(X, Y) = 16 p^p Q3(X, Y) identically
    forms = linear_forms(target5)
    step = 16 * 5**5
    for x, y in [(0, 0), (1, 0), (0, 1), (12, 5), (999, 123), (-3, 8)]:
        assert forms.q1_at(x) - forms.q2_at(y) == step * forms.q3_at(x - y)


def assemble(target, x0, y0, bundle):
    """The certificate build_certificate makes of the point (x0, y0)."""
    return build_certificate(target, linear_forms(target), x0, y0, (), bundle)


def test_assemble_at_solution(cert5, target5, bundle5):
    cert = assemble(target5, cert5.x0, cert5.y0, bundle5)
    a0, b0, c0, q1, q2, q3 = cert.a0, cert.b0, cert.c0, cert.q1, cert.q2, cert.q3
    assert (a0, b0, c0) == (cert5.a0, cert5.b0, cert5.c0)
    assert (q1, q2, q3) == (cert5.q1, cert5.q2, cert5.q3)
    assert b0 - c0 == 16 * 5**5 * q3
    assert q1 % 5 == q2 % 5 == q3 % 5 == 1
    assert b0 % 64 == 1 and c0 % 64 == 17 and a0 % 64 == 0
    pr = 5**21
    assert b0 % pr == cert5.series_digest[1] % pr
    assert c0 % pr == cert5.series_digest[2] % pr
    assert cert.series_digest == cert5.series_digest


def test_assemble_at_origin(target5, bundle5):
    # at the origin the forms take their constant values
    if target5.q3_constant > 0:
        cert = assemble(target5, 0, 0, bundle5)
        assert cert.q1 == target5.s1 and cert.q2 == target5.s2
        assert cert.q3 == target5.q3_constant
    else:
        with pytest.raises(ValueError, match="positive"):
            assemble(target5, 0, 0, bundle5)


def test_assemble_rejects_nonpositive(target5, bundle5):
    with pytest.raises(ValueError, match="positive"):
        assemble(target5, -10**9, 0, bundle5)
