"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

from locyc import cli
from locyc.certificate import parse, verify_certificate
from locyc.curve_model import (
    CurveModel,
    count_points_mod_ell,
    split_model,
)
from locyc.padic import hensel_lift
from locyc.primality import is_prime
from locyc.tate_series import build_bundle, oracle_cubic_roots


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")
            return result

        return wrapper

    return deco


def embed(frac, p, n):
    m = p**n
    return frac.numerator * pow(frac.denominator, -1, m) % m


@criterion("series regression, stated digit patterns at p = 5 and 7")
def test_series_regression():
    start = time.monotonic()
    for p in (5, 7):
        b = build_bundle(p)
        r = 4 * p + 1
        x1_expect = embed(Fraction(-2, 3) - 16 * Fraction(p) ** (2 * p), p, r)
        assert (b.xpp1 - x1_expect) % p ** (4 * p) == 0
        third = embed(Fraction(1, 3), p, r)
        assert (b.xpp2 - (third + 8 * p**p)) % p ** (2 * p) == 0
        assert (b.xpp3 - (third - 8 * p**p)) % p ** (2 * p) == 0
    assert time.monotonic() - start < 1.0


@criterion("oracle equivalence at full precision p^(4p+1) for p = 5 and 7")
def test_oracle_equivalence():
    start = time.monotonic()
    for p in (5, 7):
        b = build_bundle(p)
        roots = oracle_cubic_roots(p, 4 * p + 1)
        assert list(roots) == [b.xpp1, b.xpp2, b.xpp3]
    assert time.monotonic() - start < 5.0


@criterion("unit factors are 1 mod p for p = 5, 7, 11")
def test_unit_factors():
    for p in (5, 7, 11):
        b = build_bundle(p)
        assert b.alpha % p == 1
        assert b.beta % p == 1
        assert b.gamma % p == 1


def _end_to_end(p, tmp_path, time_limit):
    out = tmp_path / f"cert{p}.json"
    start = time.monotonic()
    code = cli.main(
        ["construct", "--prime", str(p), "--seed", "1", "--out", str(out)]
    )
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < time_limit, f"took {elapsed:.1f}s"
    cert = parse(out.read_text())
    report = verify_certificate(cert)
    assert report.all_passed, report.lines()
    # the two exact integer identities, restated independently
    a, b, c = cert.a0, cert.b0, cert.c0
    delta = 16 * ((a - b) * (b - c) * (c - a)) ** 2
    c4r = a * a + b * b + c * c - a * b - b * c - c * a
    assert delta == 2**12 * p ** (2 * p) * (cert.q1 * cert.q2 * cert.q3) ** 2
    assert c4r % p**p == 1
    return cert


@criterion("end-to-end construction at p = 5 (all checks, < 5 min)")
def test_end_to_end_p5(tmp_path):
    _end_to_end(5, tmp_path, 300.0)


@criterion("end-to-end construction at p = 7 (all checks, < 30 min)")
def test_end_to_end_p7(tmp_path):
    _end_to_end(7, tmp_path, 1800.0)


@criterion("property suite: c4^3 - c6^2 = 1728 delta on 1000 random models")
def test_property_c_identity():
    rng = random.Random(12345)
    done = 0
    while done < 1000:
        coeffs = [rng.randint(-50, 50) for _ in range(5)]
        try:
            m = CurveModel(*coeffs)
        except ValueError:
            continue
        c4, c6 = m.c_invariants()
        assert c4**3 - c6**2 == 1728 * m.discriminant()
        done += 1


@criterion("property suite: split-model delta and c4 on 1000 random triples")
def test_property_split_identities():
    rng = random.Random(6789)
    done = 0
    while done < 1000:
        a, b, c = (rng.randint(-10**6, 10**6) for _ in range(3))
        if a == b or b == c or a == c:
            continue
        m = split_model(a, b, c)
        assert m.discriminant() == 16 * ((a - b) * (b - c) * (c - a)) ** 2
        assert m.c_invariants()[0] == 16 * (a * a + b * b + c * c - a * b - b * c - c * a)
        done += 1


@criterion("property suite: Hasse bound on every point count")
def test_property_hasse():
    rng = random.Random(424242)
    ells = [3, 5, 7, 11, 13, 17, 19, 23, 101, 499, 997]
    checked = 0
    for _ in range(200):
        a, b, c = (rng.randint(-40, 40) for _ in range(3))
        if a == b or b == c or a == c:
            continue
        m = split_model(a, b, c)
        for ell in ells:
            try:
                n = count_points_mod_ell(m, ell)
            except ValueError:
                continue  # bad reduction at this ell
            assert abs(ell + 1 - n) <= 2 * math.sqrt(ell)
            checked += 1
    assert checked > 500


@criterion("property suite: root lifting unique vs exhaustive enumeration")
def test_property_hensel_uniqueness():
    # simple roots, p <= 7, enumeration modulus <= 5^5
    instances = [
        ([-2, 0, 1], 3, 7, 4),       # sqrt(2) in Z_7, modulus 7^4
        ([-2, 0, 1], 4, 7, 4),       # the other branch
        ([-1, -1, 0, 1], 2, 5, 5),   # x^3 - x - 1, modulus 5^5
        ([1, 1, 1], 2, 7, 4),        # x^2 + x + 1
        ([-16, 0, 0, 0, 1], 2, 5, 5),  # x^4 - 16: four roots, one per class
    ]
    for coeffs, alpha, p, precision in instances:
        beta = hensel_lift(coeffs, alpha, p, j=1, tau=0, precision=precision)
        mod = p**precision

        def f(x, cs=coeffs):
            return sum(c * x**i for i, c in enumerate(cs))

        roots = [
            x for x in range(mod) if f(x) % mod == 0 and x % p == alpha % p
        ]
        assert roots == [beta], (coeffs, alpha, p)
    # a doubled-derivative instance at the 5^5 enumeration bound
    c = 900 + 5**7
    beta = hensel_lift([-c, 0, 1], 30, 5, j=7, tau=1, precision=5)
    roots = [
        x
        for x in range(5**5)
        if (x * x - c) % 5**6 == 0 and x % 25 == 30 % 25
    ]
    assert roots == [beta]


@criterion("property suite: is_prime agrees with trial division up to 10^6")
def test_property_is_prime_exhaustive():
    primes_to_1000 = [
        n
        for n in range(2, 1000)
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1))
    ]

    def trial_division(n):
        if n < 2:
            return False
        for q in primes_to_1000:
            if q * q > n:
                return True
            if n % q == 0:
                return n == q
        return True  # unreachable for n <= 10^6

    for n in range(10**6 + 1):
        assert (is_prime(n).verdict != "composite") == trial_division(n), n


@criterion("mutation soundness: 90 single-field flips, all caught by name")
def test_mutation_soundness(cert5):
    deltas = (1, -1, 2, -2, 16, -16, 64, -64, 5)
    fields = ("a0", "b0", "c0", "q1", "q2", "q3", "s1", "s2", "x0", "y0")
    corpus = [(f, d) for f in fields for d in deltas]
    assert len(corpus) == 90
    for field, delta in corpus:
        mutated = replace(cert5, **{field: getattr(cert5, field) + delta})
        report = verify_certificate(mutated)
        assert not report.all_passed, f"{field} += {delta} passed verification"
        assert report.failing(), f"{field} += {delta} reported no check id"


@criterion("determinism: byte-identical certificates across worker counts")
def test_determinism(tmp_path, monkeypatch):
    # four workers even on a machine with fewer CPUs than that
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    a = tmp_path / "w1.json"
    b = tmp_path / "w4.json"
    base = ["construct", "--prime", "5", "--seed", "1"]
    assert cli.main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert cli.main(base + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["metadata"]["seed"] == "1"
