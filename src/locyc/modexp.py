"""Modular exponentiation for the primality tests.

``powmod(b, e, n)`` equals ``pow(b, e, n)``.  For an n of at least
``CROSSOVER_BITS`` bits it runs OpenSSL's ``BN_mod_exp`` (Montgomery
multiplication with sliding windows), which CPython's builtin ``pow``
does not match at the search's sizes: at 1243 bits ``pow`` takes about
7.7 ms and ``BN_mod_exp`` about 0.9 ms.  Below the crossover the cost of
moving the numbers into OpenSSL outweighs the gain, and ``pow`` runs.

The library is the versioned ``libcrypto.so.3`` or ``libcrypto.so.1.1``,
the one CPython's own ``ssl`` and ``hashlib`` load on Linux.  No
unversioned name is searched for: on macOS that finds a system stub
whose loading aborts the process.  Where neither soname opens, or a
symbol is missing, every call runs ``pow``: the same values, slower.

``ctypes`` is imported and the library opened at the first large call,
not at import, so that importing the package pays for neither.
"""

from __future__ import annotations

# the bit size of n from which BN_mod_exp beats builtin pow.  Measured on
# a 2-core Xeon VM (Python 3.11, OpenSSL 3), BN_mod_exp against pow: 0.6x
# at 64 bits, 0.9x at 80, 1.1x at 96, 1.3x at 104, 1.6x at 128, 3x at
# 300 and 8x at 1243
CROSSOVER_BITS = 100

_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")


class _BnModExp:
    """OpenSSL's ``BN_mod_exp`` on Python integers, through ``ctypes``."""

    def __init__(self, lib):
        import ctypes

        vp, i = ctypes.c_void_p, ctypes.c_int
        signatures = {
            "BN_CTX_new": (vp, []),
            "BN_CTX_free": (None, [vp]),
            "BN_new": (vp, []),
            "BN_bin2bn": (vp, [ctypes.c_char_p, i, vp]),
            "BN_mod_exp": (i, [vp, vp, vp, vp, vp]),
            "BN_num_bits": (i, [vp]),
            "BN_bn2bin": (i, [vp, ctypes.c_char_p]),
            "BN_free": (None, [vp]),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)  # AttributeError: the symbol is missing
            fn.restype, fn.argtypes = restype, argtypes
            setattr(self, name, fn)
        self._buffer = ctypes.create_string_buffer

    def _bn(self, value: int) -> int:
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        bn = self.BN_bin2bn(data, len(data), None)
        if not bn:
            raise MemoryError("BN_bin2bn could not allocate a BIGNUM")
        return bn

    def __call__(self, b: int, e: int, n: int) -> int:
        ctx = self.BN_CTX_new()
        bns = []
        try:
            if not ctx:
                raise MemoryError("BN_CTX_new could not allocate a BN_CTX")
            for value in (b, e, n):
                bns.append(self._bn(value))
            r = self.BN_new()
            if not r:
                raise MemoryError("BN_new could not allocate a BIGNUM")
            bns.append(r)
            if not self.BN_mod_exp(r, bns[0], bns[1], bns[2], ctx):
                raise ArithmeticError("BN_mod_exp failed")
            out = self._buffer((self.BN_num_bits(r) + 7) // 8)
            size = self.BN_bn2bin(r, out)
            return int.from_bytes(out.raw[:size], "big")
        finally:
            for bn in bns:
                self.BN_free(bn)
            self.BN_CTX_free(ctx)


def open_kernel():
    """``BN_mod_exp`` from the first soname that opens and has every
    symbol, or None when none does."""
    import ctypes

    for soname in _SONAMES:
        try:
            return _BnModExp(ctypes.CDLL(soname))
        except (OSError, AttributeError):
            continue
    return None


_UNOPENED = object()
_kernel = _UNOPENED


def kernel():
    """The native kernel, opened on the first call; None where it is
    unavailable."""
    global _kernel
    if _kernel is _UNOPENED:
        _kernel = open_kernel()
    return _kernel


def powmod(b: int, e: int, n: int) -> int:
    """``pow(b, e, n)`` for 0 <= b < n and e >= 0."""
    if n.bit_length() >= CROSSOVER_BITS:
        native = kernel()
        if native is not None:
            return native(b, e, n)
    return pow(b, e, n)
