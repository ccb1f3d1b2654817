import concurrent.futures
import ctypes
import logging
import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

from locyc import libcrypto, modexp, primality, prime_search
from locyc.padic import int_valuation
from locyc.primality import (
    PrimalityEvidence,
    _small_primes,
    is_prime,
    strong_probable_prime,
)
from locyc.prime_search import (
    BudgetExhaustedError,
    SearchConfig,
    SearchStats,
    SieveTables,
    _d_order,
    _sieve_form,
    default_sieve_bound,
    search,
)
from locyc.target_builder import LinearFormTriple, build_targets, linear_forms
from locyc.tate_series import build_bundle


def test_is_prime_small():
    assert is_prime(97).verdict == "prime-deterministic"
    ev = is_prime(561)  # Carmichael number
    assert ev.verdict == "composite" and ev.witnesses == (3,)
    assert is_prime(0).verdict == "composite"
    assert is_prime(1).method == "trivial"
    assert is_prime(2).verdict == "prime-deterministic"


def test_is_prime_64bit_range():
    assert is_prime(2**61 - 1).verdict == "prime-deterministic"
    assert is_prime((2**31 - 1) * (2**61 - 1)).verdict == "composite"


def test_is_prime_large():
    m89 = 2**89 - 1
    ev = is_prime(m89)
    assert ev.verdict == "probable-prime"
    assert ev.method.startswith("bpsw")
    assert 2 in ev.witnesses
    assert is_prime(m89 + 2).verdict == "composite"
    assert is_prime(m89 * (2**107 - 1)).verdict == "composite"
    # perfect square above the deterministic range
    assert is_prime(m89 * m89).verdict == "composite"


@pytest.fixture(params=["native", "builtin"])
def modexp_path(request, monkeypatch):
    """Run a test once through OpenSSL's arithmetic and once through
    builtin ints."""
    if request.param == "native":
        if modexp.kernel() is None:
            pytest.skip("libcrypto is not available here")
    else:
        monkeypatch.setattr(modexp, "_kernel", None)
    return request.param


@pytest.mark.parametrize(
    "bits", [4, 8, 64, modexp.CROSSOVER_BITS - 1, modexp.CROSSOVER_BITS, 128,
             300, 683, 1243, 2000]
)
def test_powmod_equals_pow(modexp_path, bits):
    rng = random.Random(bits)
    for n in (
        rng.getrandbits(bits) | 1 << (bits - 1) | 1,  # odd
        (rng.getrandbits(bits) | 1 << (bits - 1)) & ~1,  # even
    ):
        exponents = (0, 1, 2, n - 1, (n - 1) >> 1, rng.getrandbits(bits + 7))
        for b in (0, 1, 2, 3, n - 1, rng.randrange(n)):
            for e in exponents:
                assert modexp.powmod(b, e, n) == pow(b, e, n), (b, e, n)
                if modexp_path == "native":
                    # the kernel itself, also below the crossover
                    assert modexp.kernel().powmod(b, e, n) == pow(b, e, n), (b, e, n)


@pytest.mark.parametrize("exponent, lucas_d", [(523, 5), (1277, -7)])
def test_mersenne_base_2_pseudoprimes_are_composite(modexp_path, exponent, lucas_d):
    # 2^k - 1 with k prime passes the base-2 test whether or not it is
    # prime; these two are composite, so the strong Lucas test rejects them
    n = 2**exponent - 1
    assert strong_probable_prime(n, 2)
    assert not strong_probable_prime(n, 3)
    evidence = is_prime(n)
    assert evidence.verdict == "composite"
    assert (evidence.method, evidence.witnesses) == ("strong-lucas", (lucas_d,))


def reference_lucas(D, d, n):
    """(U_d, V_d, Q^d) mod n for P = 1 and Q = (1 - D)/4, d >= 1: the U/V
    loop the strong Lucas test ran before the V ladder, halving mod n by
    a shift."""
    Q = (1 - D) // 4
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            if u & 1:
                u += n
            if v & 1:
                v += n
            u >>= 1
            v >>= 1
            qk = qk * Q % n
    return u, v, qk


def selfridge_d(n):
    """(j, D): Selfridge's D for a non-square n, with j = -1 when
    (D|n) = -1 and j = 0 when D shares a factor with n first."""
    D = 5
    while True:
        j = primality._jacobi(D, n)
        if j == -1 or (j == 0 and abs(D) != n):
            return j, D
        D = -D - 2 if D > 0 else -D + 2


def reference_strong_lucas(n):
    s = math.isqrt(n)
    if s * s == n:
        return False, 0
    j, D = selfridge_d(n)
    if j == 0:
        return False, D
    s2 = int_valuation(n + 1, 2)
    u, v, qk = reference_lucas(D, (n + 1) >> s2, n)
    if u == 0 or v == 0:
        return True, D
    for _ in range(s2 - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True, D
        qk = qk * qk % n
    return False, D


def lucas_corpus(part):
    if part == "odd-below-20001":
        return range(1, 20001, 2)
    if part == "random":
        # odd n at 5-1250 bits, on both sides of the native crossover
        rng = random.Random(20001)
        bits = [*range(5, 1251, 50), modexp.LUCAS_CROSSOVER_BITS - 1,
                modexp.LUCAS_CROSSOVER_BITS]
        return [rng.getrandbits(b) | 1 << (b - 1) | 1 for b in bits for _ in range(3)]
    if part == "special":
        pseudoprimes = [5459, 5777, 10877, 16109, 18971]  # strong Lucas
        squares = [m * m for m in (3, 101, 2**89 - 1, 2**400 + 1)]
        # 2^k - 1 has d = 1 and runs the whole s2 - 1 tail: every k
        # below 128, then the prime k up to 1277
        mersenne = [2**k - 1 for k in range(2, 1278)
                    if k < 128 or is_prime(k).is_prime_enough()]
        # d = 3 and d = 5, so j = 1 and 2, with a tail of k - 1 squarings
        # (k = 0 gives an even n)
        long_tails = [c * 2**k - 1 for c in (3, 5) for k in range(1, 300)]
        return pseudoprimes + squares + mersenne + long_tails
    raise ValueError(part)


@pytest.mark.parametrize("part", ["odd-below-20001", "random", "special"])
def test_strong_lucas_matches_the_reference(modexp_path, part):
    native = modexp.kernel()
    for n in lucas_corpus(part):
        passed, D = primality._strong_lucas(n)
        assert (passed, D) == reference_strong_lucas(n), n
        if D == 0 or selfridge_d(n)[0] == 0:
            continue  # a square, or a D that shares a factor with n
        # each criterion on its own against the U/V loop, so that two
        # errors cannot cancel in the verdict: U_d = 0 iff W_j = W_(j+1),
        # V_d = 0 iff W_j + W_(j+1) = 0, and V_2d = 0 iff W_d = 0
        d = (n + 1) >> int_valuation(n + 1, 2)
        u, v, qk = reference_lucas(D, d, n)
        P = (pow((1 - D) // 4, -1, n) - 2) % n
        w, w1 = modexp.lucas_v(P, d >> 1, n)
        assert (u == 0) == (w == w1), n
        assert (v == 0) == ((w + w1) % n == 0), n
        assert ((v * v - 2 * qk) % n == 0) == ((w * w1 - P) % n == 0), n
        if modexp_path == "native":
            # the native W ladder itself, also below the crossover
            assert native.lucas_v(P, d >> 1, n) == modexp._lucas_v(P, d >> 1, n), n


def test_selfridge_q_is_prime_to_n():
    # P' = 1/Q - 2 needs Q prime to n; the D search never picks a Q that
    # shares a factor with n, as the _strong_lucas docstring proves
    for n in range(3, 10**5, 2):
        if math.isqrt(n) ** 2 == n:
            continue
        j, D = selfridge_d(n)
        if j == -1:
            assert math.gcd((1 - D) // 4, n) == 1, n


def test_both_w_ladders_follow_the_recurrence_on_small_n(modexp_path, monkeypatch):
    # with the crossover at 2 bits, lucas_v takes the native ladder for
    # every odd n > 1 on the native path, and the builtin one for n = 1
    # and every even n; above the real crossover, a prime and an even n
    monkeypatch.setattr(modexp, "LUCAS_CROSSOVER_BITS", 2)
    ran = []
    builtin, native = modexp._lucas_v, libcrypto.Libcrypto.lucas_v
    monkeypatch.setattr(modexp, "_lucas_v",
                        lambda *args: ran.append("builtin") or builtin(*args))
    monkeypatch.setattr(libcrypto.Libcrypto, "lucas_v",
                        lambda *args: ran.append("native") or native(*args))
    for n in [*range(1, 60), 2**1279 - 1, 2**1280 + 6]:
        if n < 60:
            Ps, ks = range(n), range(20)
        else:
            # P' = 1/Q - 2 for Selfridge Qs and a large Q prime to n
            Qs = (-1, 2, -3, -(10**30) - 1)
            Ps = [(pow(Q, -1, n) - 2) % n for Q in Qs if math.gcd(Q, n) == 1]
            ks = range(11)
        ran.clear()
        for P in Ps:
            w = [2 % n, P]
            for _ in ks:
                w.append((P * w[-1] - w[-2]) % n)
            for k in ks:
                assert modexp.lucas_v(P, k, n) == (w[k], w[k + 1]), (P, k, n)
            if n >= 60:
                for k in (0, 1, 2, 3, 10, 2**64 + 7):
                    # the ladder on k + 1 starts where this one ends
                    assert modexp.lucas_v(P, k + 1, n)[0] == modexp.lucas_v(P, k, n)[1]
        odd = n % 2 == 1 and n > 1
        assert set(ran) == {"native" if modexp_path == "native" and odd else "builtin"}, n


def test_kernel_is_unavailable_when_libcrypto_does_not_open(monkeypatch):
    tried = []

    def no_library(name):
        tried.append(name)
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert libcrypto.open_kernel() is None
    # versioned sonames only: no search for an unversioned library
    assert tried == ["libcrypto.so.3", "libcrypto.so.1.1"]


def test_kernel_is_unavailable_when_a_symbol_is_missing(monkeypatch):
    for symbol in ("BN_CTX_start", "BN_CTX_get", "BN_CTX_end", "BN_bn2binpad",
                   "BN_mod_exp", "BN_MONT_CTX_new", "BN_MONT_CTX_set",
                   "BN_MONT_CTX_free", "BN_to_montgomery", "BN_from_montgomery",
                   "BN_mod_mul_montgomery", "BN_mod_sub_quick"):

        class Missing:
            """A library that has every BN function but one."""

            def __getattr__(self, name):
                if name == symbol:
                    raise AttributeError(name)
                return ctypes.CFUNCTYPE(None)()

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Missing())
        assert libcrypto.open_kernel() is None, symbol


NOTHING_LIVE = {"BN_CTX": 0, "frame": 0, "BN_MONT_CTX": 0}


def faulty_kernel(failing=None, on_call=0):
    """A fresh native kernel whose bound function ``failing`` returns 0
    (NULL, or failure) on its on_call-th call, that function's call
    count, and the live BN_CTXs, BN_CTX frames and BN_MONT_CTXs."""
    native = libcrypto.open_kernel()
    if native is None:
        pytest.skip("libcrypto is not available here")
    live = dict(NOTHING_LIVE)
    calls = [0]

    def counted(name, kind, step):
        fn = getattr(native, name)

        def call(*args):
            result = fn(*args)
            # a NULL from a _new allocated nothing, and freeing NULL frees nothing
            live[kind] += step * bool(args[0] if args else result)
            return result

        setattr(native, name, call)

    for kind in ("BN_CTX", "BN_MONT_CTX"):
        counted(kind + "_new", kind, 1)
        counted(kind + "_free", kind, -1)
    counted("BN_CTX_start", "frame", 1)
    counted("BN_CTX_end", "frame", -1)
    if failing is not None:
        fn = getattr(native, failing)

        def fail_once(*args):
            calls[0] += 1
            return 0 if calls[0] == on_call else fn(*args)

        setattr(native, failing, fail_once)
    return native, calls, live


def fail_each_call(run, expected, failing, error):
    """run(native) gives expected and releases everything; with failing
    failing on any one of its calls, it raises error, naming failing, and
    releases everything."""
    native, calls, live = faulty_kernel(failing)
    assert run(native) == expected and live == NOTHING_LIVE
    assert (calls[0] > 0) == (failing is not None)
    for on_call in range(1, calls[0] + 1):
        native, _, live = faulty_kernel(failing, on_call)
        with pytest.raises(error, match=failing):
            run(native)
        assert live == NOTHING_LIVE, on_call


@pytest.mark.parametrize(
    "failing, error",
    [(None, None), ("BN_CTX_new", MemoryError), ("BN_CTX_get", MemoryError),
     ("BN_bin2bn", MemoryError), ("BN_mod_exp", ArithmeticError)],
)
def test_kernel_raises_on_a_failed_call_and_frees_everything(failing, error):
    n = 2**127 - 1
    fail_each_call(lambda native: native.powmod(3, n - 2, n), pow(3, n - 2, n),
                   failing, error)


@pytest.mark.parametrize(
    "failing, error",
    [(None, None), ("BN_CTX_new", MemoryError), ("BN_MONT_CTX_new", MemoryError),
     ("BN_CTX_get", MemoryError), ("BN_bin2bn", MemoryError),
     ("BN_MONT_CTX_set", ArithmeticError), ("BN_mod_mul_montgomery", ArithmeticError)],
)
def test_lucas_v_raises_on_a_failed_call_and_frees_everything(failing, error):
    n, P, k = 10007, 5001, 2501
    fail_each_call(lambda native: native.lucas_v(P, k, n), modexp._lucas_v(P, k, n),
                   failing, error)


def test_importing_the_package_does_not_import_ctypes():
    src = Path(prime_search.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, locyc.cli; assert 'ctypes' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_a_one_worker_construct_imports_no_pool_module(tmp_path):
    # only a search with several workers imports the thread pool
    src = Path(prime_search.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["construct", "--prime", "5", "--out", str(tmp_path / "c.json")]
    code = (
        "import sys\n"
        "from locyc import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_small_primes():
    assert _small_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def sieve_marks(constant, coefficient, start, length, primes):
    """_sieve_form on one form, with its own roots: the primes not
    dividing the coefficient, each with -constant / coefficient mod ell."""
    ells = array("I", (ell for ell in primes if coefficient % ell))
    roots = array("I", (-constant * pow(coefficient, -1, ell) % ell for ell in ells))
    marks = bytearray(length)
    _sieve_form(marks, start, constant, coefficient, ells, roots)
    return marks


def sieved_out(v, coefficient, primes):
    """Brute force: a sieve prime not dividing the coefficient divides
    v without being equal to it."""
    return any(v % ell == 0 and v != ell for ell in primes if coefficient % ell)


def test_sieve_window_marks_correctly():
    primes = _small_primes(50)
    const, coeff, start, length = 15, 4, 0, 200
    marks = sieve_marks(const, coeff, start, length, primes)
    for i in range(length):
        v = const + coeff * (start + i)
        assert bool(marks[i]) == sieved_out(v, coeff, primes), (i, v)
    # values 19, 23, 31, 43 and 47 are sieve primes themselves
    for v in (19, 23, 31, 43, 47):
        assert not marks[(v - const) // coeff], v


def test_sieve_parity_self_check(target5):
    # real forms: odd constant, even coefficient, so an even value can
    # never occur and the parity pass has nothing to mark
    forms = linear_forms(target5)
    assert forms.q1_constant % 2 == 1 and forms.q12_coefficient % 2 == 0
    assert all((forms.q1_at(x)) % 2 == 1 for x in range(50))
    # a doctored odd-coefficient form: every X giving an even value is
    # rejected by the sieve before any primality test would run
    marks = sieve_marks(15, 3, 0, 120, _small_primes(10))
    for i in range(120):
        if (15 + 3 * i) % 2 == 0:
            assert marks[i]


# doctored forms with small constants, so that some form values are
# themselves sieve primes: 23 and 151 (Q1), 7, 71 and 199 (Q2), and 5,
# 13, 17 and 29 (Q3).  Q1 - Q2 = 16 Q3, as the sieve tables require.
DOCTORED = LinearFormTriple(
    q1_constant=23, q2_constant=7, q3_constant=1,
    q12_coefficient=64, q3_coefficient=4,
)


@pytest.mark.parametrize("forms_of", ["doctored", "p5", "p7"])
def test_sieve_tables_mark_exactly_the_divisible_values(forms_of):
    if forms_of == "doctored":
        forms = DOCTORED
    else:
        forms = linear_forms(build_targets(build_bundle(int(forms_of[1:]))))
    bound = 200
    primes = _small_primes(bound)
    coeff = forms.q12_coefficient
    for d_lo in (0, 1, 150):
        tables = SieveTables(forms, bound, 300, d_lo, 400)
        assert len(tables.q3_marks) == 400
        for i, mark in enumerate(tables.q3_marks):
            v = forms.q3_at(d_lo + i)
            assert bool(mark) == sieved_out(v, forms.q3_coefficient, primes), v
        # the last d of the range reads the end of Q1's marks
        for d in (d_lo, d_lo + 3, d_lo + 40, d_lo + 333, d_lo + 399):
            marks = tables.window_marks(d)
            assert len(marks) == 300
            for i, mark in enumerate(marks):
                x = d + i
                expected = sieved_out(forms.q1_at(x), coeff, primes) or sieved_out(
                    forms.q2_at(x - d), coeff, primes
                )
                assert bool(mark) == expected, (d, x)
    if forms is DOCTORED:
        tables = SieveTables(forms, bound, 300, 0, 50)
        # at d = 0, X = 0..5: Q1 = 23, 87, 151, 215, 279, 343 and
        # Q2 = 7, 71, 135, 199, 263, 327; only X = 0 has neither form
        # sieved out, because 23 and 7 are sieve primes themselves
        assert tables.window_marks(0)[:6] == b"\x00\x01\x01\x01\x01\x01"
        # Q3(d) = 1 + 4d is the sieve prime 5, 13, 17, 29 at d = 1, 3, 4, 7
        for d in (1, 3, 4, 7):
            assert not tables.q3_marks[d], forms.q3_at(d)


def test_each_form_is_sieved_exactly_once_per_search(target5, monkeypatch):
    calls = []
    sieve_form = prime_search._sieve_form

    def counting(marks, lo, constant, *rest):
        calls.append(constant)
        sieve_form(marks, lo, constant, *rest)

    monkeypatch.setattr(prime_search, "_sieve_form", counting)
    forms = linear_forms(target5)
    with pytest.raises(BudgetExhaustedError) as info:
        search(forms, target5, SearchConfig(seed=1, d_range=64, x_window=16,
                                            sieve_bound=30))
    windows = info.value.stats.q3_primes
    assert windows > 1
    # once per search, however many windows were sieved
    assert sorted(calls) == sorted(
        [forms.q1_constant, forms.q2_constant, forms.q3_constant]
    )


@pytest.mark.parametrize("d_lo", [0, 1])
def test_d_order_is_the_permutation_random_shuffle_makes(d_lo):
    for length in (0, 1, 2, 3, 4, 5, 63, 64, 65, 512, 4097, 100000):
        for seed in (0, 1, 2, 2**70 + 1):
            ds = array("q", range(d_lo, d_lo + length))
            random.Random(seed).shuffle(ds)
            assert _d_order(d_lo, length, seed) == ds, (length, seed)


def reference_search(forms, config):
    """Plain search: the seeded d order, is_prime on Q3, then is_prime on
    every X of the window in ascending order.  It looks is_prime up in
    ``prime_search``, so a test that wraps it there wraps it here too."""
    is_prime = prime_search.is_prime
    d_lo = 0 if forms.q3_constant > 0 else 1
    ds = list(range(d_lo, d_lo + config.d_range))
    random.Random(config.seed).shuffle(ds)
    for d in ds:
        q3 = forms.q3_at(d)
        if q3 <= 0:
            continue
        q3_evidence = is_prime(q3)
        if not q3_evidence.is_prime_enough():
            continue
        x_start = max(0, d)
        for x in range(x_start, x_start + config.x_window):
            q1_evidence = is_prime(forms.q1_at(x))
            if not q1_evidence.is_prime_enough():
                continue
            q2_evidence = is_prime(forms.q2_at(x - d))
            if q2_evidence.is_prime_enough():
                return x, x - d, (q1_evidence, q2_evidence, q3_evidence)
    return None


# p = 5, seed 1: 64 d values and 16-wide windows hold no hit, so every
# window is scanned to its end; x_window 64 finds one in the second window
NO_HIT = SearchConfig(seed=1, d_range=64, x_window=16, sieve_bound=30)
SECOND_WINDOW_HIT = SearchConfig(seed=1, x_window=64, sieve_bound=30)


def window_survivors(forms, config):
    """Brute force for a search without a hit: (d, Y) of every survivor
    of every window whose Q3 passes the sieve and the base-2 screen."""
    d_lo = 0 if forms.q3_constant > 0 else 1
    tables = SieveTables(forms, config.sieve_bound, config.x_window,
                         d_lo, config.d_range)
    return [
        (d, y)
        for d in range(d_lo, d_lo + config.d_range)
        if not tables.q3_marks[d - d_lo] and strong_probable_prime(forms.q3_at(d), 2)
        for y, mark in enumerate(tables.window_marks(d))
        if not mark
    ]


def q2_screen_passes(forms, survivors):
    return sum(strong_probable_prime(forms.q2_at(y), 2) for _, y in survivors)


def test_tests_used_counts_each_d_survivor_and_q2_screen_pass(target5):
    forms = linear_forms(target5)
    with pytest.raises(BudgetExhaustedError) as info:
        search(forms, target5, NO_HIT)
    stats = info.value.stats
    survivors = window_survivors(forms, NO_HIT)
    passes = q2_screen_passes(forms, survivors)
    assert stats.d_examined == NO_HIT.d_range
    assert stats.survivors_tested == len(survivors)
    assert 0 < passes < len(survivors)
    assert stats.tests_used == stats.d_examined + stats.survivors_tested + passes


def test_each_q2_value_is_screened_at_most_once_per_search(target5, monkeypatch):
    forms = linear_forms(target5)
    q2_values = {forms.q2_at(y) for y in range(NO_HIT.x_window)}
    screened = []
    passes_screen = prime_search._passes_screen

    def recording(n):
        if n in q2_values:
            screened.append(n)
        return passes_screen(n)

    monkeypatch.setattr(prime_search, "_passes_screen", recording)
    with pytest.raises(BudgetExhaustedError) as info:
        search(forms, target5, NO_HIT)
    assert len(screened) == len(set(screened)) > 0
    # every survivor looks its Q2 up, so the memo answered the rest
    assert info.value.stats.survivors_tested > len(screened)


def test_a_q2_that_is_prime_rejects_counts_the_same_for_every_worker_count(
    target5, monkeypatch
):
    # is_prime calls every Q2 composite, as if each were a base-2 strong
    # pseudoprime, so the search has no hit
    forms = linear_forms(target5)
    config = replace(NO_HIT, d_range=512)
    q2_values = {forms.q2_at(y) for y in range(config.x_window)}
    rejected = []

    def rejecting(n):
        if n in q2_values:
            rejected.append(n)
            return PrimalityEvidence(n, "composite", "rejected by the test")
        return is_prime(n)

    monkeypatch.setattr(prime_search, "is_prime", rejecting)
    stats = []
    for workers in (1, 2, 3):
        with pytest.raises(BudgetExhaustedError) as info:
            search(forms, target5, replace(config, worker_count=workers))
        s = info.value.stats
        stats.append((s.d_examined, s.q3_primes, s.survivors_tested, s.tests_used))
        if workers == 1:
            one_worker_rejected = rejected[:]
    # a rejected Q2 still counts its screen pass in every window, and
    # the memo keeps the counters equal for every worker count
    survivors = window_survivors(forms, config)
    passes = q2_screen_passes(forms, survivors)
    assert stats[0] == stats[1] == stats[2]
    assert stats[0][2:] == (len(survivors), config.d_range + len(survivors) + passes)
    # the memo keeps only the screen's verdict, so is_prime sees a Q2
    # once per survivor whose Q2 passes the screen and whose Q1 is prime
    q1_prime = sum(
        1
        for d, y in survivors
        if strong_probable_prime(forms.q2_at(y), 2)
        and is_prime(forms.q1_at(d + y)).is_prime_enough()
    )
    assert len(one_worker_rejected) == q1_prime > len(set(one_worker_rejected)) > 0


def test_is_prime_sees_only_the_hit_windows_q3(target5, monkeypatch, caplog):
    forms = linear_forms(target5)
    q3_values = {forms.q3_at(d) for d in range(SECOND_WINDOW_HIT.d_range + 1)}
    tested = []

    def recording(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(prime_search, "is_prime", recording)
    caplog.set_level(logging.INFO, logger=prime_search.__name__)
    x0, y0, evidence = search(forms, target5, SECOND_WINDOW_HIT)
    (record,) = [r for r in caplog.records if r.msg.startswith("event=search_stats")]
    assert record.args[1] > 1  # q3_primes: a window without a hit came first
    assert [n for n in tested if n in q3_values] == [forms.q3_at(x0 - y0)]
    # the hit's own tests come last: Q1, Q2, then Q3
    assert tested[-3:] == [e.n for e in evidence]


def test_a_hit_whose_q3_is_prime_rejects_counts_as_a_composite_q3(
    target5, monkeypatch
):
    forms = linear_forms(target5)
    x0, y0, _ = search(forms, target5, SECOND_WINDOW_HIT)
    d_hit, q3 = x0 - y0, forms.q3_at(x0 - y0)

    def rejecting(n):
        if n == q3:
            return PrimalityEvidence(n, "composite", "rejected by the test")
        return is_prime(n)

    probed = {}
    probe_d = prime_search._probe_d

    def recording(tables, d):
        probed[d] = probe_d(tables, d)
        return probed[d]

    monkeypatch.setattr(prime_search, "is_prime", rejecting)
    monkeypatch.setattr(prime_search, "_probe_d", recording)
    expected = reference_search(forms, SECOND_WINDOW_HIT)
    assert expected is not None and expected[0] - expected[1] != d_hit
    assert search(forms, target5, SECOND_WINDOW_HIT) == expected
    assert probed[d_hit] == prime_search._Q3_NOT_PRIME


def old_rule_bound(forms):
    """The sieve bound of the earlier rule, max(30000, b^2/4)."""
    bits = forms.q12_coefficient.bit_length()
    return max(30000, bits * bits // 4)


@pytest.mark.parametrize("p", [5, 7])
def test_search_finds_the_reference_hit(p):
    target = build_targets(build_bundle(p))
    forms = linear_forms(target)
    for seed in range(1, 6):
        expected = reference_search(forms, SearchConfig(seed=seed))
        for bound in (30, 1000, old_rule_bound(forms), None):
            for workers in (1, 2):
                config = SearchConfig(
                    seed=seed, sieve_bound=bound, worker_count=workers
                )
                if expected is None:
                    with pytest.raises(BudgetExhaustedError):
                        search(forms, target, config)
                else:
                    assert search(forms, target, config) == expected, (seed, bound)


def test_search_hit_at_p13_does_not_depend_on_the_sieve_bound():
    target = build_targets(build_bundle(13))
    forms = linear_forms(target)
    for seed in (1, 2, 3):
        config = SearchConfig(seed=seed)
        old = replace(config, sieve_bound=old_rule_bound(forms))
        assert search(forms, target, old) == search(forms, target, config), seed


@pytest.mark.parametrize(
    "config, stop",
    [
        (SearchConfig(seed=1), None),
        (SearchConfig(seed=1, budget=10, x_window=64, sieve_bound=30),
         "budget exhausted"),
        (SearchConfig(seed=1, d_range=64, x_window=16, sieve_bound=30),
         "d range exhausted"),
    ],
    ids=["hit", "budget", "d-range-end"],
)
def test_no_pool_worker_outlives_the_search(target5, config, stop, monkeypatch):
    kernel_opened = []
    executor_init = concurrent.futures.ThreadPoolExecutor.__init__

    def recording_init(self, *args, **kwargs):
        kernel_opened.append(modexp._kernel is not modexp._UNOPENED)
        executor_init(self, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__",
                        recording_init)
    monkeypatch.setattr(modexp, "_kernel", modexp._UNOPENED)
    forms = linear_forms(target5)
    config = replace(config, worker_count=2)
    threads = threading.enumerate()
    if stop is None:
        search(forms, target5, config)
    else:
        with pytest.raises(BudgetExhaustedError, match=stop):
            search(forms, target5, config)
    assert threading.enumerate() == threads
    assert multiprocessing.active_children() == []
    # one pool per search, started after the kernel was opened
    assert kernel_opened == [True]


def test_no_pool_starts_when_no_d_is_dispatched(target5, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    with pytest.raises(BudgetExhaustedError):
        search(linear_forms(target5), target5, SearchConfig(budget=0, worker_count=2))


def test_threads_share_the_q2_memo_without_a_wrong_verdict(target5, monkeypatch):
    # more worker threads than CPUs, switching as often as the interpreter
    # allows: every verdict in the shared memo must be the screen's, and
    # the hit must be one worker's
    tables = []
    tables_init = SieveTables.__init__

    def recording_init(self, *args):
        tables_init(self, *args)
        tables.append(self)

    monkeypatch.setattr(SieveTables, "__init__", recording_init)
    forms = linear_forms(target5)
    hits = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, (os.cpu_count() or 1) + 1):
            hits.append(search(forms, target5, SearchConfig(seed=1, worker_count=workers)))
    finally:
        sys.setswitchinterval(interval)
    assert hits[1] == hits[0]
    one, many = (t.q2_screen for t in tables)
    for y, state in enumerate(many):
        passed = prime_search._passes_screen(forms.q2_at(y))
        screened = prime_search._Q2_PASSED if passed else prime_search._Q2_FAILED
        assert state in (prime_search._Q2_UNKNOWN, screened), y
        # the threads probed every d one worker probed
        assert one[y] in (prime_search._Q2_UNKNOWN, state), y
    assert any(one)


def test_tiny_budgets_stop_alike_for_every_worker_count(target5):
    # the hit costs 21 tests, so the sweep stops both before it, often
    # while later d values are still being probed, and at it
    forms = linear_forms(target5)
    outcomes = set()
    for budget in range(1, 41):
        results = []
        for workers in (1, 2, 3):
            config = SearchConfig(seed=1, x_window=64, sieve_bound=30,
                                  budget=budget, worker_count=workers)
            try:
                results.append(search(forms, target5, config))
            except BudgetExhaustedError as exc:
                results.append(replace(exc.stats, elapsed_s=0.0))
        assert results[1] == results[0] and results[2] == results[0], budget
        outcomes.add(type(results[0]))
    assert outcomes == {tuple, SearchStats}


def test_default_sieve_bound_grows_with_bit_size(target5):
    wide = LinearFormTriple(
        q1_constant=1, q2_constant=1, q3_constant=1,
        q12_coefficient=2**999, q3_coefficient=4,
    )
    # b^2/16 at the default window, b^2/4 at the ladder's
    assert default_sieve_bound(wide, 4096) == 1000 * 1000 // 16
    assert default_sieve_bound(wide, 16384) == 1000 * 1000 // 4
    # no window grows the table past b^2/4
    assert default_sieve_bound(wide, 10**9) == default_sieve_bound(wide, 16384)
    # p = 5's 55-bit coefficient gives 189 at 4096: the trial bound holds
    forms5 = linear_forms(target5)
    assert default_sieve_bound(forms5, 4096) == primality.TRIAL_BOUND


def test_zero_budget_exhausts(target5):
    forms = linear_forms(target5)
    for budget in (0, 1):
        with pytest.raises(BudgetExhaustedError, match="budget exhausted") as info:
            search(forms, target5, SearchConfig(seed=1, budget=budget, d_range=3))
        stats = info.value.stats
        assert stats.tests_used >= budget
        if budget == 0:
            assert stats.tests_used == stats.survivors_tested == 0


def test_end_of_d_range_is_not_reported_as_budget_exhaustion(target5):
    forms = linear_forms(target5)
    with pytest.raises(BudgetExhaustedError) as info:
        search(forms, target5, SearchConfig(seed=1, d_range=1))
    assert info.value.stats.tests_used == 1
    assert "d range exhausted" in str(info.value)
    assert "budget exhausted" not in str(info.value)
