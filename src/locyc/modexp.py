"""Modular arithmetic for the primality tests, in OpenSSL where it pays.

``powmod(b, e, n)`` equals ``pow(b, e, n)``.  For an n of at least
``CROSSOVER_BITS`` bits it runs OpenSSL's ``BN_mod_exp`` (Montgomery
multiplication with sliding windows), which CPython's builtin ``pow``
does not match at the search's sizes: at 1243 bits ``pow`` takes about
7.7 ms and ``BN_mod_exp`` about 0.9 ms.  Below the crossover the cost of
moving the numbers into OpenSSL outweighs the gain, and ``pow`` runs.

``lucas_chain(Q, d, n)`` gives (V_d, V_(d+1), Q^d) mod n for the Lucas
sequence with P = 1: V_0 = 2, V_1 = 1, V_(k+1) = V_k - Q V_(k-1).  It
is a Montgomery ladder on (V_k, V_(k+1), Q^k), one step per bit of d,
three products per step (and a multiplication by Q on a 1 bit):

    V_2k = V_k^2 - 2 Q^k,  V_(2k+1) = V_k V_(k+1) - Q^k,
    V_(2k+2) = V_(k+1)^2 - 2 Q^(k+1).

For an odd n of at least ``LUCAS_CROSSOVER_BITS`` bits the ladder runs
on OpenSSL Montgomery numbers (``BN_mod_mul_montgomery``), one ``ctypes``
call per product, subtraction and doubling; elsewhere on builtin ints.
Both give the same values.

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

# the bit size of n from which the Lucas ladder on OpenSSL Montgomery
# numbers beats the one on builtin ints.  A step costs six or seven
# ctypes calls of 0.5-1.3 us each, nearly whatever the size, against
# three builtin products that grow with it.  Measured on the same VM with
# Selfridge's Q, builtin time over native time: 0.5-0.7x at 400-480 bits,
# 0.7-0.9x at 560, 0.8-1.0x at 620-683, 0.9-1.2x at 700, 1.1x at
# 740-807, 1.2-1.8x at 935, 1.5-2.1x at 1070 and 2.1-2.4x at 1243
LUCAS_CROSSOVER_BITS = 700

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


def _lucas_chain(Q: int, d: int, n: int) -> tuple[int, int, int]:
    """``lucas_chain`` on builtin ints."""
    half = n >> 1
    v, v1, qk = 2 % n, 1 % n, 1
    for bit in bin(d)[2:]:
        if bit == "1":  # k -> 2k + 1
            v = (v * v1 - qk) % n
            qk1 = qk * Q  # Q^(k+1); Q as given, so a small product
            v1 = (v1 * v1 - 2 * qk1) % n
            qk = qk * qk1 % n
        else:  # k -> 2k
            v1 = (v * v1 - qk) % n
            v = (v * v - 2 * qk) % n
            qk = qk * qk % n
        if qk > half:
            # the least absolute residue: for Selfridge's first choice,
            # Q = -1, every Q^k product is then one of small numbers
            qk -= n
    return v, v1, qk % n


def lucas_chain(Q: int, d: int, n: int) -> tuple[int, int, int]:
    """(V_d, V_(d+1), Q^d) mod n for the Lucas sequence with P = 1 and
    this Q, for any integer Q, d >= 0 and n >= 1."""
    if n & 1 and n.bit_length() >= LUCAS_CROSSOVER_BITS:
        native = kernel()
        if native is not None:
            return native.lucas_chain(Q, d, n)
    return _lucas_chain(Q, d, n)
