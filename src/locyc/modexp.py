"""Modular arithmetic for the primality tests, in OpenSSL where it pays.

``powmod(b, e, n)`` equals ``pow(b, e, n)``.  For an n of at least
``CROSSOVER_BITS`` bits it runs OpenSSL's ``BN_mod_exp`` (Montgomery
multiplication with sliding windows), which CPython's builtin ``pow``
does not match at the search's sizes: at 1243 bits ``pow`` takes about
7.7 ms and ``BN_mod_exp`` about 0.9 ms.  Below the crossover the cost of
moving the numbers into OpenSSL outweighs the gain, and ``pow`` runs.

``lucas_v(P, k, n)`` gives (W_k, W_(k+1)) mod n for the Lucas sequence
with this P and Q = 1, W_k = V_k(P, 1), by the ladder

    W_0 = 2,  W_1 = P,  W_2k = W_k^2 - 2,  W_(2k+1) = W_k W_(k+1) - P,

two products and two subtractions per bit of k.  The strong Lucas test
runs it with P = 1/Q - 2 mod n for every Selfridge Q, and reads its
verdict from W alone (``primality._strong_lucas``).

For an odd n of at least ``LUCAS_CROSSOVER_BITS`` bits the W ladder runs
on OpenSSL Montgomery numbers (``BN_mod_mul_montgomery`` and
``BN_mod_sub_quick``), four ``ctypes`` calls per bit; elsewhere on
builtin ints.  Both give the same values.

The native kernel is ``libcrypto.Libcrypto``.  Where the library does
not open, or a symbol is missing, every call runs on builtin ints: the
same values, slower.  The binding and ``ctypes`` are imported and the
library opened at the first large call, not at import, so that
importing the package pays for none of them.
"""

from __future__ import annotations

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

_UNOPENED = object()
_kernel = _UNOPENED


def kernel():
    """The native kernel (a ``libcrypto.Libcrypto``), opened on the first
    call; None where it is unavailable."""
    global _kernel
    if _kernel is _UNOPENED:
        from . import libcrypto

        _kernel = libcrypto.open_kernel()
    return _kernel


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
