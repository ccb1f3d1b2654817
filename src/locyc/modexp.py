"""Modular arithmetic for the primality tests, in OpenSSL where it pays.

``powmod(b, e, n)`` equals ``pow(b, e, n)``.  For an n of at least
``CROSSOVER_BITS`` bits it runs OpenSSL's ``BN_mod_exp`` (Montgomery
multiplication with sliding windows), which CPython's builtin ``pow``
does not match at the search's sizes: at 1243 bits ``pow`` takes about
7.7 ms and ``BN_mod_exp`` about 0.9 ms.  Below the crossover the cost of
moving the numbers into OpenSSL outweighs the gain, and ``pow`` runs.

``lucas_chain(Q, d, n)`` gives (V_d, V_(d+1), Q^d) mod n for the Lucas
sequence with P = 1: V_0 = 2, V_1 = 1, V_(k+1) = V_k - Q V_(k-1), for Q
prime to n.  It runs one ladder, the same for every Q, on the sequence
with Q = 1 whose roots are a^2/Q and b^2/Q (a and b the roots of
x^2 - x + Q), that is W_k = V_k(P', 1) with P' = 1/Q - 2 mod n:

    W_0 = 2,  W_1 = P',  W_2k = W_k^2 - 2,  W_(2k+1) = W_k W_(k+1) - P',

two products and two subtractions per bit of j = floor(d/2), with no
power of Q to carry.  As W_k = V_2k / Q^k and W_k + W_(k+1) =
V_(2k+1) / Q^(k+1), both identities over Z[1/Q], the chain is then

    d = 2j:      V_d = Q^j W_j,              V_(d+1) = Q^(j+1) (W_j + W_(j+1)),
    d = 2j + 1:  V_d = Q^(j+1) (W_j + W_(j+1)),  V_(d+1) = Q^(j+1) W_(j+1),

with Q^j one ``powmod`` of |Q| (and 1 when |Q| = 1).  Dividing by Q
needs gcd(Q, n) = 1, so ``lucas_chain`` raises ``ValueError`` otherwise.

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
# products that grow with it.  Measured on the same VM, lucas_chain with
# Q = -1, 2, 3, -3 on random odd n, builtin time over native time
# (median of 6-16 chains): 0.6-0.7x at 400-450 bits, 0.8-1.0x at
# 485-525, 1.0x at 550-600, 1.1-1.2x at 640-700 and 2.0-3.0x at 1243
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


def lucas_chain(Q: int, d: int, n: int) -> tuple[int, int, int]:
    """(V_d, V_(d+1), Q^d) mod n for the Lucas sequence with P = 1 and
    this Q, for d >= 0, n >= 1 and an integer Q prime to n."""
    P = (pow(Q, -1, n) - 2) % n  # ValueError unless Q is prime to n
    j = d >> 1
    ladder = _lucas_v
    if n & 1 and n.bit_length() >= LUCAS_CROSSOVER_BITS:
        native = kernel()
        if native is not None:
            ladder = native.lucas_v
    w, w1 = ladder(P, j, n)
    qj = 1 if abs(Q) == 1 else powmod(abs(Q) % n, j, n)
    if Q < 0 and j & 1:
        qj = -qj
    qj1 = qj * Q % n  # Q^(j+1)
    if d & 1:
        return qj1 * (w + w1) % n, qj1 * w1 % n, qj * qj1 % n
    return qj * w % n, qj1 * (w + w1) % n, qj * qj % n
