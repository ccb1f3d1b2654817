"""Simultaneous prime values of the three linear forms.

Existence of such points is a deep theorem with no effective bound, so
this module runs a bounded, reproducible search instead of a proof.
Strategy: the identity Q1 - Q2 = 16 p^p Q3 means fixing d = X - Y fixes
Q3, reducing the triple condition to a twin-like one.  The d values are
visited in a seed-shuffled order; for each d whose Q3 value is prime,
one window of X values is sieved against small primes for Q1(X) and
Q2(X - d) simultaneously and the survivors are tested in ascending
order.  The winner is the hit with the smallest (d-index, X) position
in that stream, which makes the result independent of how many workers
ran the probes.
"""

from __future__ import annotations

import logging
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .padic import int_valuation
from .target_builder import CongruenceTarget, LinearFormTriple

log = logging.getLogger(__name__)

# Deterministic Miller-Rabin bases, valid for every n < 3.3*10^24
# (covers all n below 2^64 with a wide margin).
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 318665857834031151167461
_TRIAL_BOUND = 1000
_EXTRA_SPRP_ROUNDS = 8


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, f in enumerate(sieve) if f]


_TRIAL_PRIMES = _small_primes(_TRIAL_BOUND)


@dataclass(frozen=True)
class PrimalityEvidence:
    n: int
    verdict: str  # prime-deterministic | probable-prime | composite
    method: str
    witnesses: tuple = ()

    def is_prime_enough(self) -> bool:
        return self.verdict in ("prime-deterministic", "probable-prime")


def _strong_probable_prime(n: int, base: int) -> bool:
    s = int_valuation(n - 1, 2)
    d = (n - 1) >> s
    x = pow(base % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        t = int_valuation(a, 2)
        a >>= t
        if t % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int):
    """Strong Lucas probable-prime test with Selfridge parameters.

    Returns (passed, D) so the chosen discriminant can be recorded.
    Perfect squares are rejected before the D search.
    """
    s = math.isqrt(n)
    if s * s == n:
        return False, 0
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False, D
        D = -D - 2 if D > 0 else -D + 2
    # P = 1, Q = (1 - D)/4; strong test on n + 1 = d * 2^s2
    Q = (1 - D) // 4
    s2 = int_valuation(n + 1, 2)
    d = (n + 1) >> s2
    inv2 = (n + 1) // 2
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) * inv2 % n, (D * u + v) * inv2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True, D
    for _ in range(s2 - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True, D
        qk = qk * qk % n
    return False, D


def is_prime(n: int) -> PrimalityEvidence:
    """Primality verdict with recorded method and witnesses.

    Deterministic below 2^64 (trial division, then fixed Miller-Rabin
    bases).  Above, a strong base-2 + strong Lucas combination plus a
    fixed set of extra strong-probable-prime rounds; those verdicts are
    labelled probable-prime.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in (0, 1):
        return PrimalityEvidence(n, "composite", "trivial")
    for q in _TRIAL_PRIMES:
        if q * q > n:
            return PrimalityEvidence(n, "prime-deterministic", "trial-division")
        if n % q == 0:
            if n == q:
                return PrimalityEvidence(n, "prime-deterministic", "trial-division")
            return PrimalityEvidence(n, "composite", "trial-division", (q,))
    if n < _MR_DETERMINISTIC_LIMIT:
        for a in _MR_BASES_64:
            if not _strong_probable_prime(n, a):
                return PrimalityEvidence(n, "composite", "miller-rabin", (a,))
        return PrimalityEvidence(
            n, "prime-deterministic", "miller-rabin-fixed-bases", _MR_BASES_64
        )
    if not _strong_probable_prime(n, 2):
        return PrimalityEvidence(n, "composite", "miller-rabin", (2,))
    lucas_ok, D = _strong_lucas(n)
    if not lucas_ok:
        return PrimalityEvidence(n, "composite", "strong-lucas", (D,))
    extra = _MR_BASES_64[1 : 1 + _EXTRA_SPRP_ROUNDS]
    for a in extra:
        if not _strong_probable_prime(n, a):
            return PrimalityEvidence(n, "composite", "miller-rabin", (a,))
    return PrimalityEvidence(
        n,
        "probable-prime",
        f"bpsw(lucas D={D})+extra-sprp",
        (2,) + extra,
    )


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 1
    d_range: int = 512
    x_window: int = 4096
    sieve_bound: int = 30000
    budget: int = 200000
    worker_count: int = 1


@dataclass
class SearchStats:
    d_examined: int = 0
    q3_primes: int = 0
    windows_sieved: int = 0
    survivors_tested: int = 0
    tests_used: int = 0
    elapsed_s: float = 0.0


class BudgetExhaustedError(RuntimeError):
    """The search stopped without a hit, because the primality-test
    budget ran out or because every d of the range was examined first."""

    def __init__(self, stats: SearchStats, budget: int):
        if stats.tests_used >= budget:
            cause = f"primality-test budget exhausted after {stats.tests_used} tests"
        else:
            cause = (
                f"d range exhausted after {stats.tests_used} of {budget} "
                "budgeted tests"
            )
        super().__init__(
            f"{cause} ({stats.d_examined} d values, {stats.survivors_tested} "
            "survivors); this bounds the search, it does not disprove existence"
        )
        self.stats = stats


def _sieve_window(
    constant: int, coefficient: int, start: int, length: int, primes: list[int]
) -> bytearray:
    """Mark X in [start, start+length) where constant + coefficient*X is
    divisible by a sieve prime not dividing the coefficient."""
    marks = bytearray(length)
    for ell in primes:
        if coefficient % ell == 0:
            continue  # form is never 0 mod ell (constants are checked coprime)
        root = -constant * pow(coefficient, -1, ell) % ell
        first = (root - start) % ell
        marks[first::ell] = b"\x01" * len(marks[first::ell])
    return marks


def _probe_d(args):
    """Examine one d: test Q3, then sieve and test one X window.

    Returns (d, q3_was_prime, hit_x or None, tests_at_hit, total_tests,
    survivors_tested, sieved_flag).  Pure function of its arguments.
    """
    (d, q1c, q2c, q3c, coeff, q3coeff, x_window, sieve_primes) = args
    q3 = q3c + q3coeff * d
    tests = 1
    if q3 <= 0 or not is_prime(q3).is_prime_enough():
        return d, False, None, 0, tests, 0, False
    x_start = max(0, d)
    m1 = _sieve_window(q1c, coeff, x_start, x_window, sieve_primes)
    m2 = _sieve_window(q2c - coeff * d, coeff, x_start, x_window, sieve_primes)
    survivors = 0
    for i in range(x_window):
        if m1[i] or m2[i]:
            continue
        x = x_start + i
        survivors += 1
        tests += 1
        if not is_prime(q1c + coeff * x).is_prime_enough():
            continue
        tests += 1
        if is_prime(q2c + coeff * (x - d)).is_prime_enough():
            return d, True, x, tests, tests, survivors, True
    return d, True, None, 0, tests, survivors, True


def search(
    forms: LinearFormTriple, target: CongruenceTarget, config: SearchConfig
) -> tuple[int, int, tuple[PrimalityEvidence, PrimalityEvidence, PrimalityEvidence]]:
    """Find (x0, y0) with Q1, Q2, Q3 simultaneously (probable) prime.

    Deterministic given (target, config): the d stream order comes from
    the seed alone and the reported hit is the lexicographically first
    (d-index, X) among all hits, independent of worker count.  Raises
    BudgetExhaustedError once the primality-test budget is consumed or
    the d range runs out, whichever comes first.
    """
    t0 = time.monotonic()
    sieve_primes = _small_primes(config.sieve_bound)
    d_lo = 0 if forms.q3_constant > 0 else 1
    ds = list(range(d_lo, d_lo + config.d_range))
    random.Random(config.seed).shuffle(ds)

    stats = SearchStats()
    hit = None

    def handle(result) -> bool:
        nonlocal hit
        d, q3p, hx, tests_at_hit, total_tests, survivors, sieved = result
        if stats.tests_used >= config.budget:
            return True
        stats.d_examined += 1
        stats.q3_primes += int(q3p)
        stats.windows_sieved += int(sieved)
        stats.survivors_tested += survivors
        if hx is not None and stats.tests_used + tests_at_hit <= config.budget:
            stats.tests_used += tests_at_hit
            hit = (hx, hx - d)
            return True
        stats.tests_used += total_tests
        return stats.tests_used >= config.budget

    arg_of = lambda d: (
        d,
        forms.q1_constant,
        forms.q2_constant,
        forms.q3_constant,
        forms.q12_coefficient,
        forms.q3_coefficient,
        config.x_window,
        sieve_primes,
    )

    if config.worker_count <= 1:
        for d in ds:
            if handle(_probe_d(arg_of(d))):
                break
    else:
        chunk = max(1, config.worker_count)
        with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
            done = False
            for i in range(0, len(ds), chunk):
                block = ds[i : i + chunk]
                # results consumed in stream order, so scheduling is moot
                for result in pool.map(_probe_d, [arg_of(d) for d in block]):
                    if handle(result):
                        done = True
                        break
                if done:
                    break

    stats.elapsed_s = time.monotonic() - t0
    log.info(
        "event=search_stats d_examined=%d q3_primes=%d windows=%d "
        "survivors=%d tests=%d elapsed=%.2fs",
        stats.d_examined,
        stats.q3_primes,
        stats.windows_sieved,
        stats.survivors_tested,
        stats.tests_used,
        stats.elapsed_s,
    )
    if hit is None:
        raise BudgetExhaustedError(stats, config.budget)
    x0, y0 = hit
    evidence = (
        is_prime(forms.q1_at(x0)),
        is_prime(forms.q2_at(y0)),
        is_prime(forms.q3_at(x0 - y0)),
    )
    assert all(e.is_prime_enough() for e in evidence)
    return x0, y0, evidence
