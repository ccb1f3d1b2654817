import pytest

from locyc.prime_search import (
    BudgetExhaustedError,
    SearchConfig,
    _sieve_window,
    _small_primes,
    is_prime,
    search,
)
from locyc.target_builder import linear_forms


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


def test_is_prime_vs_sieve_sample():
    limit = 50000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit + 1):
        assert (is_prime(n).verdict != "composite") == bool(sieve[n]), n


def test_small_primes():
    assert _small_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_window_marks_correctly():
    primes = _small_primes(50)
    const, coeff, start, length = 15, 4, 0, 200
    marks = _sieve_window(const, coeff, start, length, primes)
    for i in range(length):
        v = const + coeff * (start + i)
        divisible = any(v % ell == 0 for ell in primes if coeff % ell != 0)
        assert bool(marks[i]) == divisible, (i, v)


def test_sieve_parity_self_check(target5):
    # real forms: odd constant, even coefficient, so an even value can
    # never occur and the parity pass has nothing to mark
    forms = linear_forms(target5)
    assert forms.q1_constant % 2 == 1 and forms.q12_coefficient % 2 == 0
    assert all((forms.q1_at(x)) % 2 == 1 for x in range(50))
    # a doctored odd-coefficient form: every X giving an even value is
    # rejected by the sieve before any primality test would run
    marks = _sieve_window(15, 3, 0, 120, _small_primes(10))
    for i in range(120):
        if (15 + 3 * i) % 2 == 0:
            assert marks[i]


def test_search_reproducible_and_valid(target5):
    forms = linear_forms(target5)
    cfg = SearchConfig(seed=1)
    x0, y0, ev = search(forms, target5, cfg)
    x1, y1, _ = search(forms, target5, cfg)
    assert (x0, y0) == (x1, y1)
    assert all(e.is_prime_enough() for e in ev)
    # exact divisibility chain at the found point
    assert forms.q1_at(x0) - forms.q2_at(y0) == 16 * 5**5 * forms.q3_at(x0 - y0)


def test_search_worker_count_does_not_change_answer(target5):
    forms = linear_forms(target5)
    seq = search(forms, target5, SearchConfig(seed=7, worker_count=1))
    par = search(forms, target5, SearchConfig(seed=7, worker_count=3))
    assert seq[:2] == par[:2]
    assert seq[2] == par[2]


def test_search_seed_changes_exploration(target5):
    forms = linear_forms(target5)
    a = search(forms, target5, SearchConfig(seed=1))
    b = search(forms, target5, SearchConfig(seed=2))
    # both valid; not required to differ, but both must check out
    for x0, y0, ev in (a, b):
        assert all(e.is_prime_enough() for e in ev)


def test_zero_budget_exhausts(target5):
    forms = linear_forms(target5)
    with pytest.raises(BudgetExhaustedError) as info:
        search(forms, target5, SearchConfig(seed=1, budget=0))
    stats = info.value.stats
    assert stats.tests_used == 0
    assert stats.survivors_tested == 0
    assert "budget exhausted" in str(info.value)


def test_tiny_budget_reports_statistics(target5):
    forms = linear_forms(target5)
    with pytest.raises(BudgetExhaustedError) as info:
        search(forms, target5, SearchConfig(seed=1, budget=1, d_range=3))
    assert info.value.stats.tests_used >= 1


def test_end_of_d_range_is_not_reported_as_budget_exhaustion(target5):
    forms = linear_forms(target5)
    with pytest.raises(BudgetExhaustedError) as info:
        search(forms, target5, SearchConfig(seed=1, d_range=1))
    assert info.value.stats.tests_used == 1
    assert "d range exhausted" in str(info.value)
    assert "budget exhausted" not in str(info.value)
