"""Primality decisions, with the evidence a certificate records.

``is_prime`` is deterministic below 2^64: trial division by the primes
up to ``TRIAL_BOUND``, then fixed Miller-Rabin bases.  Above, it runs
BPSW (a base-2 strong-probable-prime test and a strong Lucas test with
Selfridge's parameters) plus fixed extra strong-probable-prime rounds,
and labels its verdict probable-prime.  The search screens with
``strong_probable_prime`` and tests with ``is_prime``; the certificate
checks re-test with ``is_prime``.  This module holds no search code, so
the verifier imports it without the search.

Modular exponentiation.  Every strong-probable-prime test, in the
screen, in ``is_prime`` and in C2, exponentiates through
``modexp.powmod``: OpenSSL's ``BN_mod_exp`` from ``libcrypto.so.3`` or
``libcrypto.so.1.1`` for moduli of at least ``modexp.CROSSOVER_BITS``
bits (8x faster than builtin ``pow`` at 1243 bits), builtin ``pow``
below that and wherever the library does not open.  The strong Lucas
test is one ``modexp.lucas_v``, a Lucas V ladder with Q = 1 whatever
Selfridge's Q, whose two values give the verdict with no power of Q.
The ladder runs on OpenSSL Montgomery numbers for moduli of at least
``modexp.LUCAS_CROSSOVER_BITS`` bits and on builtin ints elsewhere.
Both backends give the same values, so verdicts, witnesses and
certificates do not depend on the platform.  The library is opened at
the first large call, not at import, so a small construct and
``import locyc`` do not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from . import modexp
from .padic import int_valuation

# Deterministic Miller-Rabin bases, valid for every n < 3.3*10^24
# (covers all n below 2^64 with a wide margin).
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 318665857834031151167461
TRIAL_BOUND = 1000
_EXTRA_SPRP_ROUNDS = 8


def prime_flags(limit: int) -> bytearray:
    """flags[n] is 1 exactly when n <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def _small_primes(limit: int) -> list[int]:
    return list(compress(range(limit + 1), prime_flags(limit)))


TRIAL_PRIMES = _small_primes(TRIAL_BOUND)


# every verdict a PrimalityEvidence may carry
VERDICTS = ("prime-deterministic", "probable-prime", "composite")


@dataclass(frozen=True)
class PrimalityEvidence:
    n: int
    verdict: str  # one of VERDICTS
    method: str
    witnesses: tuple = ()

    def is_prime_enough(self) -> bool:
        return self.verdict in ("prime-deterministic", "probable-prime")


def strong_probable_prime(n: int, base: int) -> bool:
    s = int_valuation(n - 1, 2)
    d = (n - 1) >> s
    x = modexp.powmod(base % n, d, n)
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
    Perfect squares are rejected before the D search.  With P = 1,
    Q = (1 - D)/4 and n + 1 = d 2^s2, n passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some 0 <= r < s2.

    The test runs ``modexp.lucas_v`` on the sequence with Q = 1 whose
    roots are a^2/Q and b^2/Q (a and b the roots of x^2 - x + Q), that
    is W_k = V_k(P', 1) with P' = 1/Q - 2 mod n, and V_2k = Q^k W_k.
    D and Q are units mod n (below), and d = 2j + 1 is odd, so with
    W_j and W_(j+1):

    - V_d = Q^(j+1) (W_j + W_(j+1)), so V_d = 0 exactly when
      W_j + W_(j+1) = 0;
    - D U_d = 2 V_(d+1) - V_d = Q^(j+1) (W_(j+1) - W_j), so U_d = 0
      exactly when W_j = W_(j+1);
    - for 1 <= r < s2, V_(d 2^r) = Q^(d 2^(r-1)) W_(d 2^(r-1)), so the
      tail starts at W_d = W_j W_(j+1) - P' and squares w -> w^2 - 2.

    D is a unit once (D|n) = -1.  Q is prime to n for an odd n, by the
    D search.  Let a prime f divide Q and n; then f <= |Q| < |D|.  For
    f = 3 the search met D' = 9 before D, and (9|n) = 0 ends it unless
    n = 9, a square.  For f >= 5 it met D' = +-f, and (D'|n) = 0 ends it
    unless n = f; but then D = 1 - 4Q = 1 mod n and (D|n) = 1, not -1.
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
    P = (pow((1 - D) // 4, -1, n) - 2) % n  # P' = 1/Q - 2
    s2 = int_valuation(n + 1, 2)
    d = (n + 1) >> s2
    w, w1 = modexp.lucas_v(P, d >> 1, n)
    if w == w1 or (w + w1) % n == 0:
        return True, D
    w = (w * w1 - P) % n
    for _ in range(s2 - 1):
        if w == 0:
            return True, D
        w = (w * w - 2) % n
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
    for q in TRIAL_PRIMES:
        if q * q > n:
            return PrimalityEvidence(n, "prime-deterministic", "trial-division")
        if n % q == 0:
            if n == q:
                return PrimalityEvidence(n, "prime-deterministic", "trial-division")
            return PrimalityEvidence(n, "composite", "trial-division", (q,))
    if n < _MR_DETERMINISTIC_LIMIT:
        for a in _MR_BASES_64:
            if not strong_probable_prime(n, a):
                return PrimalityEvidence(n, "composite", "miller-rabin", (a,))
        return PrimalityEvidence(
            n, "prime-deterministic", "miller-rabin-fixed-bases", _MR_BASES_64
        )
    if not strong_probable_prime(n, 2):
        return PrimalityEvidence(n, "composite", "miller-rabin", (2,))
    lucas_ok, D = _strong_lucas(n)
    if not lucas_ok:
        return PrimalityEvidence(n, "composite", "strong-lucas", (D,))
    extra = _MR_BASES_64[1 : 1 + _EXTRA_SPRP_ROUNDS]
    for a in extra:
        if not strong_probable_prime(n, a):
            return PrimalityEvidence(n, "composite", "miller-rabin", (a,))
    return PrimalityEvidence(
        n,
        "probable-prime",
        f"bpsw(lucas D={D})+extra-sprp",
        (2,) + extra,
    )
