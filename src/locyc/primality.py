"""Primality decisions, with the evidence a certificate records.

``is_prime`` is deterministic below psi_12 = 318665857834031151167461
(about 3.19*10^23, a 79-bit number): trial division by the primes up to
``TRIAL_BOUND``, then fixed Miller-Rabin bases.  Above, it runs
BPSW (a base-2 strong-probable-prime test and a strong Lucas test with
Selfridge's parameters) plus fixed extra strong-probable-prime rounds,
and labels its verdict probable-prime.  The search screens with
``strong_probable_prime`` and tests with ``is_prime``; the certificate
checks re-test with ``is_prime``.  This module holds no search code, so
the verifier imports it without the search.

Modular exponentiation.  Every strong-probable-prime test, in the
screen, in ``is_prime`` and in C2, exponentiates through ``powmod``:
OpenSSL's ``BN_mod_exp`` (Montgomery multiplication with sliding
windows) for moduli of at least ``CROSSOVER_BITS`` bits, builtin
``pow`` below that, where moving the numbers into OpenSSL costs more
than it saves.  At 1243 bits ``pow`` takes about 7.7 ms and
``BN_mod_exp`` about 0.9 ms.  The strong Lucas test is one ``lucas_v``,
which gives (W_k, W_(k+1)) mod n for the Lucas sequence with this P and
Q = 1, W_k = V_k(P, 1), by the ladder

    W_0 = 2,  W_1 = P,  W_2k = W_k^2 - 2,  W_(2k+1) = W_k W_(k+1) - P,

two products and two subtractions per bit of k.  ``_strong_lucas`` runs
it with P = 1/Q - 2 mod n for Selfridge's Q and reads its verdict from
W alone, with no power of Q.  For an odd n of at least
``LUCAS_CROSSOVER_BITS`` bits the ladder runs on OpenSSL Montgomery
numbers (``BN_mod_mul_montgomery`` and ``BN_mod_sub_quick``), four
``ctypes`` calls per bit; elsewhere on builtin ints.  The native kernel
is ``libcrypto.Libcrypto``, from ``libcrypto.so.3`` or
``libcrypto.so.1.1``.  Where the library does not open, or a symbol is
missing, every call runs on builtin ints.  Both backends give the
same values, so verdicts, witnesses and certificates do not depend on
the platform.  The binding and ``ctypes`` are imported and the library
opened at the first large call, not at import, so a small construct and
``import locyc`` do not pay for them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress

from .padic import int_valuation

# the bit size of n from which BN_mod_exp beats builtin pow.  Measured on
# a 2-core Xeon VM (Python 3.11, OpenSSL 3), BN_mod_exp against pow: 0.6x
# at 64 bits, 0.9x at 80, 1.1x at 96, 1.3x at 104, 1.6x at 128, 3x at
# 300 and 8x at 1243
CROSSOVER_BITS = 100

# the bit size of n from which the W ladder on OpenSSL Montgomery
# numbers beats the one on builtin ints.  A step costs four ctypes calls
# of about 1 us each, nearly whatever the size, against two builtin
# products that grow with it.  Measured on the same VM, lucas_v as the
# strong Lucas test runs it (k = floor(d/2) for d the odd part of n + 1,
# P = 1/Q - 2 for Q = -1, 2, 3, -3) on four random odd n per size, the
# builtin ladder's time over the native one's (median, each time the
# best of 7 x 4 calls): 0.6x at 400-450 bits, 0.8-0.9x at 500-525, 1.0x
# at 550-600, 1.2x at 700 and 2.4x at 1243
LUCAS_CROSSOVER_BITS = 550


@functools.cache
def kernel():
    """The native kernel (a ``libcrypto.Libcrypto``), opened on the first
    call; None where it is unavailable.

    Threads that call it first at the same time may each open one; each
    gets a working kernel, as a ``Libcrypto`` keeps no state between
    calls.
    """
    from . import libcrypto

    return libcrypto.open_kernel()


def powmod(b: int, e: int, n: int) -> int:
    """``pow(b, e, n)`` for 0 <= b < n and e >= 0."""
    if n.bit_length() >= CROSSOVER_BITS:
        native = kernel()
        if native is not None:
            return native.powmod(b, e, n)
    return pow(b, e, n)


def _lucas_v(P: int, k: int, n: int) -> tuple[int, int]:
    """(V_k, V_(k+1)) mod n for the Lucas sequence with this P and Q = 1,
    on builtin ints, for 0 <= P < n, k >= 0 and n >= 1."""
    v, v1 = 2 % n, P
    for bit in bin(k)[2:]:
        if bit == "1":  # k -> 2k + 1
            v, v1 = (v * v1 - P) % n, (v1 * v1 - 2) % n
        else:  # k -> 2k
            v, v1 = (v * v - 2) % n, (v * v1 - P) % n
    return v, v1


def lucas_v(P: int, k: int, n: int) -> tuple[int, int]:
    """(V_k, V_(k+1)) mod n for the Lucas sequence with this P and Q = 1,
    for 0 <= P < n, k >= 0 and n >= 1."""
    if n & 1 and n.bit_length() >= LUCAS_CROSSOVER_BITS:
        native = kernel()
        if native is not None:
            return native.lucas_v(P, k, n)
    return _lucas_v(P, k, n)


# Deterministic Miller-Rabin bases.  The first 12 primes decide every n
# below psi_12 = _MR_DETERMINISTIC_LIMIT (about 3.19*10^23, 79 bits),
# where is_prime stops calling a verdict deterministic; all 13 would also
# decide every n below psi_13 = 3317044064679887385961981 (about
# 3.3*10^24; Sorenson and Webster, 2015).
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
    x = powmod(base % n, d, n)
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

    The test runs ``lucas_v`` on the sequence with Q = 1 whose
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
    w, w1 = lucas_v(P, d >> 1, n)
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

    Deterministic below psi_12 = 318665857834031151167461, about
    3.19*10^23 or 79 bits (trial division, then fixed Miller-Rabin
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
