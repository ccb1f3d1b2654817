"""Simultaneous prime values of the three linear forms.

Existence of such points is a deep theorem with no effective bound, so
this module runs a bounded, reproducible search instead of a proof.
Strategy: the identity Q1 - Q2 = 16 p^p Q3 means fixing d = X - Y fixes
Q3, reducing the triple condition to a twin-like one.  The d values are
visited in a seed-shuffled order; for each d whose Q3 value passes the
sieve and the screen, one window of X values is sieved for Q1(X) and
Q2(X - d) simultaneously and the survivors are tested in ascending
order.  The order is the permutation ``random.Random(seed).shuffle``
makes of the d range, computed by ``_d_order`` with the same loop
written out, so it rests on the generator's ``getrandbits`` alone.  The
winner is the hit with the smallest (d-index, X) position in that
stream, which makes the result independent of how many workers ran the
probes.

Only where a hit can be does the search run Miller-Rabin:

- Sieve tables.  Each search computes, once, one table of sieve
  primes ell and the root of every form mod each ell, so a form is
  sieved with slice assignments alone; Q3's root is Q1's minus Q2's, as
  Q1 - Q2 = 16 p^p Q3.  Each form is then sieved once per search, over
  every value the search can reach: Q3 over the d range, Q1 over X in
  [d_lo, d_lo + d_range + x_window - 1), and Q2 over Y in [0, x_window),
  since the window of d is X in [d, d + x_window) and Y = X - d.  A
  window's marks are the OR of Q1's from X = d and Q2's.  A form value
  that equals a sieve prime is never sieved out.
- Q3 sieve.  Before any test, the Q3 values of the whole d range are
  sieved with the same primes.  A marked d is examined without a
  primality test.
- Screen.  A base-2 strong-probable-prime test.  Q3 gets the screen
  alone before its window is sieved.  A window survivor is screened on
  Q2(Y) first, through a per-search memo indexed by Y: as Y runs over
  the same range for every d, each Q2 value is screened once per search
  (or once by each worker thread that reaches it before its verdict is
  stored).  Only a survivor whose Q2 passed is screened on Q1.  When
  both pass, ``is_prime`` runs on Q1 and then Q2.  The
  memo holds the screen's verdict alone: a Q2 that passes the screen
  and then fails ``is_prime`` (a base-2 strong pseudoprime) is tested
  again in any later window whose Q1 passes.  Once a window has its hit,
  ``is_prime`` runs on Q3, and if it rejects Q3 the d counts as one
  whose Q3 is not prime.  A prime passes the screen, and the hit is the
  first X at which the conjunction holds, so the hit is the one that
  testing every Q3 and every survivor with ``is_prime`` would find.
  The memo only skips repeated work: what a probe returns depends on d
  alone.
- Evidence.  The search returns the ``is_prime`` evidence it computed
  for the hit's Q1, Q2 and Q3; the certificate check C2 re-tests all
  three.

Probes and workers:

- One stream.  ``search`` holds the only loop over the d order, for
  every worker count.  A d whose Q3 survived the sieve takes the next
  result of one probe stream; for one worker that stream probes in the
  search's own thread.
- Threads.  With more workers the stream starts a thread pool of that
  size in the search's own process at its first result, one task per
  d, and takes the results in stream order, so the hit and the counters
  are those of one worker.  Nearly all of a probe's time is in
  ``BN_mod_exp``, which ``ctypes`` calls with the interpreter lock
  released, so the threads' exponentiations overlap.  The modexp kernel
  is opened before the threads start, so that no two open it at once.
- Bounded read-ahead.  Tasks are submitted at most
  ``_READ_AHEAD_PER_WORKER`` per worker ahead of the result the search
  waits for: enough that a probe with many survivors does not leave
  the other threads idle, and few enough that the queue does not hold
  every survivor of the d range.
- Stop.  At the stop (hit, budget, end of the d range, or an error) the
  stream sets the tables' ``stopped`` flag, which ends a probe that ran
  ahead before its next survivor, cancels the tasks not yet started and
  joins the threads, so no worker outlives ``search``.
- Shared memo.  Every thread probes with the search's one
  ``SieveTables``, and so with one Q2 memo.  Two threads that reach the
  same unscreened Y both screen it and store the same verdict, so the
  race repeats a screen and never changes one.  A probe's result,
  counters included, depends on d alone: the memo only decides which
  screens are computed rather than looked up.

Budget accounting: every d examined costs one test, whether the sieve,
the screen or ``is_prime`` rejected its Q3; a window survivor costs one
test, plus one more when its Q2 passes the screen.  A test that the
memo answers still counts, so the counters do not depend on the memo's
state or on the worker count.  No d is examined once the budget is
spent.  The default sieve bound grows with the bit size of the window
forms and with the window, up to 16384 (``default_sieve_bound``).
"""

from __future__ import annotations

import logging
import random
import time
from array import array
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import compress, islice

from . import modexp
from .primality import (
    TRIAL_BOUND, PrimalityEvidence, is_prime, prime_flags, strong_probable_prime,
)
from .target_builder import CongruenceTarget, LinearFormTriple

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class SearchConfig:
    seed: int = 1
    d_range: int = 512
    x_window: int = 4096
    sieve_bound: int | None = None  # None: default_sieve_bound(forms, x_window)
    budget: int = 200000
    worker_count: int = 1


@dataclass
class SearchStats:
    d_examined: int = 0
    # windows sieved: the d whose Q3 passed the sieve and the base-2
    # screen, less a hit window whose Q3 ``is_prime`` then rejected
    q3_primes: int = 0
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


_LADDER_WINDOW = 16384


def default_sieve_bound(forms: LinearFormTriple, x_window: int) -> int:
    """Sieve bound for the forms and window: b^2 / 4 for b-bit window
    coefficients at a window of 16384, scaled down with narrower windows,
    and at least the trial-division bound.

    The classical rule: sieve on while crossing off one more candidate
    costs less than the modular exponentiation it saves.  A b-bit
    strong-probable-prime test costs about b squarings of b-bit numbers,
    about b^3 bit operations; finding a candidate that ell divides takes
    about ell divisions of a b-bit number, about ell * b bit operations.
    So the break-even prime grows like b^2.  Each prime also costs one
    step per window and crosses off about W / ell of its W candidates,
    so the bound scales with the window W: b^2 / 4 was measured best at
    W = 16384 (p = 41..53) and b^2 / 16 at the default 4096.  Wider
    windows keep b^2 / 4, since b^2 was slower at 65536; so no window
    grows the table past it.
    """
    bits = forms.q12_coefficient.bit_length()
    window = min(x_window, _LADDER_WINDOW)
    return max(TRIAL_BOUND, bits * bits * window // (4 * _LADDER_WINDOW))


def with_sieve_bound(config: SearchConfig, forms: LinearFormTriple) -> SearchConfig:
    """The config with its sieve bound set: the given one, or else the
    default for the forms and the config's window."""
    if config.sieve_bound is not None:
        return config
    return replace(config, sieve_bound=default_sieve_bound(forms, config.x_window))


def _root_tables(forms: LinearFormTriple, bound: int) -> tuple[array, ...]:
    """(ells, q1_roots, q2_roots, q3_roots): the primes ell <= bound
    not dividing 64 p^r, and each form's root mod each ell.

    Q3's root is r1 - r2 for Q1's root r1 and Q2's root r2, because
    Q1(X) - Q2(X - d) = k Q3(d) and ell divides neither k nor Q3's
    coefficient (k times it is 64 p^r).  Precondition: Q1 - Q2 = k Q3,
    and every prime factor of k divides Q3's coefficient, so that Q3
    loses no sieve prime; ``linear_forms`` has k = 16 p^p, 4 p^(r-p).
    """
    ells, q1_roots, q2_roots, q3_roots = (array("I") for _ in range(4))
    coefficient = forms.q12_coefficient
    for ell in compress(range(bound + 1), prime_flags(bound)):
        c = coefficient % ell
        if c:  # otherwise no form is ever 0 mod ell (constants are coprime)
            minus_inverse = ell - pow(c, -1, ell)
            r1 = forms.q1_constant % ell * minus_inverse % ell
            r2 = forms.q2_constant % ell * minus_inverse % ell
            ells.append(ell)
            q1_roots.append(r1)
            q2_roots.append(r2)
            q3_roots.append((r1 - r2) % ell)
    return ells, q1_roots, q2_roots, q3_roots


def _sieve_form(
    marks: bytearray,
    lo: int,
    constant: int,
    coefficient: int,
    ells: array,
    roots: array,
) -> None:
    """Set marks[i] where a prime of ``ells`` divides the form value
    constant + coefficient * (lo + i) and is not equal to it.

    Marks already set stay set.  The coefficient and every form value
    are positive, so a value equal to ell is ell's first multiple, which
    ell skips.
    """
    n = len(marks)
    ones = memoryview(b"\x01" * n)
    # no value beyond this index is as small as the largest sieve prime
    last = (ells[-1] - constant) // coefficient - lo if ells else -1
    for ell, root in zip(ells, roots):
        first = (root - lo) % ell
        if first <= last and constant + coefficient * (lo + first) == ell:
            first += ell
        if first < n:
            marks[first::ell] = ones[: (n - 1 - first) // ell + 1]


class SieveTables:
    """One search's sieve data, built once: all a probe needs but d.

    Each form is sieved once, over all the values a search can reach:
    q3_marks over d in [d_lo, d_lo + d_range), q1_marks over X in
    [d_lo, d_lo + d_range + x_window - 1) and q2_marks over Y in
    [0, x_window), the Y = X - d of every window.  A mark is set where
    a sieve prime divides the form value without being equal to it.
    q2_screen[Y] is the base-2 screen's verdict on Q2(Y) in this
    search so far: ``_Q2_UNKNOWN`` until a survivor first screens it,
    then ``_Q2_FAILED`` or ``_Q2_PASSED`` for good (only ``_probe_d``
    writes it).  ``stopped`` is set once the search has stopped; a probe
    still running then ends before its next survivor.
    """

    def __init__(self, forms: LinearFormTriple, bound: int, x_window: int,
                 d_lo: int, d_range: int):
        self.forms = forms
        self.d_lo = d_lo
        ells, q1_roots, q2_roots, q3_roots = _root_tables(forms, bound)
        coefficient = forms.q12_coefficient
        self.q1_marks = bytearray(d_range + x_window - 1)
        _sieve_form(self.q1_marks, d_lo, forms.q1_constant, coefficient,
                    ells, q1_roots)
        self.q2_marks = bytearray(x_window)
        _sieve_form(self.q2_marks, 0, forms.q2_constant, coefficient,
                    ells, q2_roots)
        self.q3_marks = bytearray(d_range)
        _sieve_form(self.q3_marks, d_lo, forms.q3_constant, forms.q3_coefficient,
                    ells, q3_roots)
        self.q2_screen = bytearray(x_window)  # all _Q2_UNKNOWN
        self.stopped = False

    def window_marks(self, d: int) -> bytes:
        """Marks of X in [d, d + x_window): set where a sieve prime
        divides Q1(X) or Q2(X - d) without being equal to it.  The marks
        are 0 and 1 bytes, so the OR of the integers they spell is the
        bytewise OR of q1_marks from X = d and q2_marks."""
        lo = d - self.d_lo
        width = len(self.q2_marks)
        q1 = int.from_bytes(self.q1_marks[lo : lo + width], "little")
        q2 = int.from_bytes(self.q2_marks, "little")
        return (q1 | q2).to_bytes(width, "little")


def _passes_screen(n: int) -> bool:
    """Base-2 strong-probable-prime test; every prime passes it."""
    return n < 3 or strong_probable_prime(n, 2)


# states of SieveTables.q2_screen[y]: Q2(y) not screened yet, failed the
# screen, or passed it
_Q2_UNKNOWN, _Q2_FAILED, _Q2_PASSED = range(3)

# (q3_was_prime, hit, tests, survivors) of a d whose Q3 is not prime; the
# one test is the sieve's, the screen's or is_prime's
_Q3_NOT_PRIME = (False, None, 1, 0)


def _probe_d(tables: SieveTables, d: int):
    """Examine one d that survived the Q3 sieve: screen Q3, then sieve
    and screen one X window, and test Q3 once the window has a hit.

    Returns (q3_was_prime, hit, tests, survivors) with hit either None or
    (x, (Q1 evidence, Q2 evidence, Q3 evidence)).  The result is a
    function of d and the search's forms alone; the Q2 memo in
    ``tables`` only skips repeated work.  A probe that finds
    ``tables.stopped`` set ends before its next survivor, with a result
    that is not d's: the search reads no result after its stop.
    """
    forms = tables.forms
    # Q3(d) > 0: |q3_constant| < q3_coefficient, since s1 and s2 are
    # least residues mod 64 p^r, and d >= 1 unless q3_constant > 0
    q3 = forms.q3_at(d)
    if not _passes_screen(q3):
        return _Q3_NOT_PRIME
    marks = tables.window_marks(d)
    q2_screen = tables.q2_screen
    tests = 1
    survivors = 0
    i = marks.find(0)
    while i >= 0 and not tables.stopped:
        y = i  # the window index is Y = X - d
        i = marks.find(0, i + 1)
        survivors += 1
        tests += 1
        state = q2_screen[y]
        if state == _Q2_UNKNOWN:
            state = _Q2_PASSED if _passes_screen(forms.q2_at(y)) else _Q2_FAILED
            q2_screen[y] = state
        if state == _Q2_FAILED:
            continue
        tests += 1
        x = d + y
        q1 = forms.q1_at(x)
        if not _passes_screen(q1):
            continue
        # module-global lookups, so a wrapped is_prime sees these calls
        q1_evidence = is_prime(q1)
        if not q1_evidence.is_prime_enough():
            continue
        q2_evidence = is_prime(forms.q2_at(y))
        if not q2_evidence.is_prime_enough():
            continue
        q3_evidence = is_prime(q3)
        if not q3_evidence.is_prime_enough():
            return _Q3_NOT_PRIME
        return True, (x, (q1_evidence, q2_evidence, q3_evidence)), tests, survivors
    return True, None, tests, survivors


# tasks submitted ahead of the result the search waits for, per worker.
# Search time of p = 41 plus p = 47 at the ladder flags with two workers
# (2-core Xeon VM, Python 3.11, OpenSSL 3; medians of 20 alternating
# in-process rounds): 0.76 s at 16, 0.70 s at 32 and 0.71 s at 64.  In
# one 10-round session 2 and 8 were 35% and 25% slower than 32; in
# another, 1024 was as slow as one worker
_READ_AHEAD_PER_WORKER = 32


def _probes(todo, tables: SieveTables, config: SearchConfig):
    """Probe result of every d of ``todo``, in that order.

    One worker probes in the calling thread.  Several share one thread
    pool, started at the first ``next``: one task per d, submitted at
    most ``_READ_AHEAD_PER_WORKER`` per worker ahead of the result being
    read.  Closing the generator stops the stream: it sets
    ``tables.stopped``, which ends a probe that ran ahead at its next
    survivor, cancels the tasks not yet started and joins the threads.
    """
    if config.worker_count <= 1:
        yield from (_probe_d(tables, d) for d in todo)
        return
    from concurrent.futures import ThreadPoolExecutor

    modexp.kernel()  # opened here, so that no two threads open it at once
    pool = ThreadPoolExecutor(config.worker_count)
    tasks = (pool.submit(_probe_d, tables, d) for d in todo)
    try:
        pending = list(islice(tasks, _READ_AHEAD_PER_WORKER * config.worker_count))
        while pending:
            yield pending.pop(0).result()
            pending.extend(islice(tasks, 1))
    finally:
        tables.stopped = True
        pool.shutdown(cancel_futures=True)


def _d_order(d_lo: int, length: int, seed: int) -> array:
    """The d values d_lo, ..., d_lo + length - 1 in the seed's order:
    the permutation that ``random.Random(seed).shuffle`` makes of them.

    The same Durstenfeld loop, written out: from the top index i down to
    1, swap i with j drawn uniformly from [0, i] by ``getrandbits(k)``
    with rejection, where k is the bit length of i + 1.  k is set once
    per run of i + 1 of one bit length.  An array holds the order in a
    quarter of a list's memory.
    """
    ds = array("q", range(d_lo, d_lo + length))
    getrandbits = random.Random(seed).getrandbits
    top = length - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1  # i + 1 has k bits for i in [bottom, top]
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            ds[i], ds[j] = ds[j], ds[i]
        top = bottom - 1
    return ds


def search(
    forms: LinearFormTriple, target: CongruenceTarget, config: SearchConfig
) -> tuple[int, int, tuple[PrimalityEvidence, PrimalityEvidence, PrimalityEvidence]]:
    """Find (x0, y0) with Q1, Q2, Q3 simultaneously (probable) prime.

    Deterministic given (target, config): the d stream order comes from
    the seed alone and the reported hit is the lexicographically first
    (d-index, X) among all hits, independent of worker count and sieve
    bound.  Returns the hit's is_prime evidence for (Q1, Q2, Q3).
    Raises BudgetExhaustedError once the primality-test budget is
    consumed or the d range runs out, whichever comes first.
    """
    t0 = time.monotonic()
    config = with_sieve_bound(config, forms)
    d_lo = 0 if forms.q3_constant > 0 else 1
    tables = SieveTables(forms, config.sieve_bound, config.x_window,
                         d_lo, config.d_range)
    ds = _d_order(d_lo, config.d_range, config.seed)
    sieved = tables.q3_marks

    stats = SearchStats()
    hit = None
    todo = (d for d in ds if not sieved[d - d_lo])
    with closing(_probes(todo, tables, config)) as probes:
        for d in ds:
            if stats.tests_used >= config.budget:
                break
            q3_prime, d_hit, tests, survivors = (
                _Q3_NOT_PRIME if sieved[d - d_lo] else next(probes)
            )
            stats.d_examined += 1
            stats.q3_primes += int(q3_prime)
            stats.survivors_tested += survivors
            stats.tests_used += tests
            if d_hit is not None and stats.tests_used <= config.budget:
                x0, evidence = d_hit
                hit = (x0, x0 - d, evidence)
                break

    stats.elapsed_s = time.monotonic() - t0
    log.info(
        "event=search_stats d_examined=%d q3_primes=%d windows=%d "
        "survivors=%d tests=%d elapsed=%.2fs",
        stats.d_examined,
        stats.q3_primes,
        stats.q3_primes,  # windows: a prime Q3 sieves exactly one window
        stats.survivors_tested,
        stats.tests_used,
        stats.elapsed_s,
    )
    if hit is None:
        raise BudgetExhaustedError(stats, config.budget)
    return hit

