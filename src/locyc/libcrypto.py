"""OpenSSL's BIGNUM arithmetic on Python integers, through ``ctypes``.

The native kernel behind ``primality``: ``BN_mod_exp`` for ``powmod``,
and the Q = 1 Lucas V ladder of ``lucas_v`` on Montgomery numbers
(``BN_mod_mul_montgomery`` and ``BN_mod_sub_quick``).  Each call has
one owner for what it allocates: its own BN_CTX, opened with
``BN_CTX_start`` and closed in a ``finally`` by ``BN_CTX_end`` and
``BN_CTX_free``.  Every BIGNUM a call uses is a ``BN_CTX_get`` of that
frame, so the close releases them all; the ladder also frees its
BN_MONT_CTX there.  A NULL allocation raises ``MemoryError`` and a
failed operation ``ArithmeticError``, so a call never returns a
doubtful value.

The library is the versioned ``libcrypto.so.3`` or ``libcrypto.so.1.1``,
the one CPython's own ``ssl`` and ``hashlib`` load on Linux.  No
unversioned name is searched for: on macOS that finds a system stub
whose loading aborts the process.  ``primality`` imports this module
at its first large call, not at import.
"""

from __future__ import annotations

import ctypes

_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")


def _alloc(ptr: int | None, name: str) -> int:
    """What the allocating function name returned, unless NULL."""
    if not ptr:
        raise MemoryError(f"{name} could not allocate")
    return ptr


class Libcrypto:
    """OpenSSL's BIGNUM arithmetic on Python integers, through ``ctypes``."""

    def __init__(self, lib):
        vp, i = ctypes.c_void_p, ctypes.c_int
        signatures = {
            "BN_CTX_new": (vp, []),
            "BN_CTX_start": (None, [vp]),
            "BN_CTX_get": (vp, [vp]),
            "BN_CTX_end": (None, [vp]),
            "BN_CTX_free": (None, [vp]),
            "BN_bin2bn": (vp, [ctypes.c_char_p, i, vp]),
            "BN_bn2binpad": (i, [vp, ctypes.c_char_p, i]),
            "BN_mod_exp": (i, [vp, vp, vp, vp, vp]),
            "BN_MONT_CTX_new": (vp, []),
            "BN_MONT_CTX_set": (i, [vp, vp, vp]),
            "BN_MONT_CTX_free": (None, [vp]),
            "BN_to_montgomery": (i, [vp, vp, vp, vp]),
            "BN_from_montgomery": (i, [vp, vp, vp, vp]),
            "BN_mod_mul_montgomery": (i, [vp, vp, vp, vp, vp]),
            "BN_mod_sub_quick": (i, [vp, vp, vp, vp]),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)  # AttributeError: the symbol is missing
            fn.restype, fn.argtypes = restype, argtypes
            setattr(self, name, fn)

    def _open(self) -> int:
        """A new BN_CTX with a frame started: every BIGNUM of the call
        comes from it, and BN_CTX_end then BN_CTX_free release them all."""
        ctx = _alloc(self.BN_CTX_new(), "BN_CTX_new")
        self.BN_CTX_start(ctx)
        return ctx

    def _bn(self, ctx: int, value: int) -> int:
        """A BIGNUM of ctx's frame holding value."""
        bn = _alloc(self.BN_CTX_get(ctx), "BN_CTX_get")
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return _alloc(self.BN_bin2bn(data, len(data), bn), "BN_bin2bn")

    def _int(self, bn: int, n: int) -> int:
        """The value of a BIGNUM in [0, n), which always fits n's byte
        length."""
        size = (n.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(size)
        self.BN_bn2binpad(bn, out, size)
        return int.from_bytes(out.raw, "big")

    def powmod(self, b: int, e: int, n: int) -> int:
        """``pow(b, e, n)`` for 0 <= b < n and e >= 0."""
        ctx = self._open()
        try:
            base, exponent, m = self._bn(ctx, b), self._bn(ctx, e), self._bn(ctx, n)
            r = _alloc(self.BN_CTX_get(ctx), "BN_CTX_get")
            if not self.BN_mod_exp(r, base, exponent, m, ctx):
                raise ArithmeticError("BN_mod_exp failed")
            return self._int(r, n)
        finally:
            # BN_CTX_start(3): the frame ends before its BN_CTX is freed
            self.BN_CTX_end(ctx)
            self.BN_CTX_free(ctx)

    def lucas_v(self, P: int, k: int, n: int) -> tuple[int, int]:
        """(V_k, V_(k+1)) mod n for the Lucas sequence with this P and
        Q = 1, for 0 <= P < n, k >= 0 and an odd n > 1."""
        ctx = self._open()
        mont = self.BN_MONT_CTX_new()
        try:
            _alloc(mont, "BN_MONT_CTX_new")
            m, v, v1, two, p = (self._bn(ctx, value) for value in (n, 2, P, 2, P))
            if not self.BN_MONT_CTX_set(mont, m, ctx):
                raise ArithmeticError("BN_MONT_CTX_set failed")
            # V_0, V_1 and the constants 2 and P, in Montgomery form
            for x in (v, v1, two, p):
                if not self.BN_to_montgomery(x, x, mont, ctx):
                    raise ArithmeticError("BN_to_montgomery failed")
            mul, sub = self.BN_mod_mul_montgomery, self.BN_mod_sub_quick
            for bit in bin(k)[2:]:
                if bit == "1":  # k -> 2k + 1
                    ok = (
                        mul(v, v, v1, mont, ctx) and sub(v, v, p, m)
                        and mul(v1, v1, v1, mont, ctx) and sub(v1, v1, two, m)
                    )
                else:  # k -> 2k
                    ok = (
                        mul(v1, v, v1, mont, ctx) and sub(v1, v1, p, m)
                        and mul(v, v, v, mont, ctx) and sub(v, v, two, m)
                    )
                if not ok:
                    raise ArithmeticError("BN_mod_mul_montgomery or BN_mod_sub_quick failed")
            for x in (v, v1):
                if not self.BN_from_montgomery(x, x, mont, ctx):
                    raise ArithmeticError("BN_from_montgomery failed")
            return self._int(v, n), self._int(v1, n)
        finally:
            self.BN_MONT_CTX_free(mont)
            self.BN_CTX_end(ctx)
            self.BN_CTX_free(ctx)


def open_kernel():
    """OpenSSL's arithmetic from the first soname that opens and has
    every symbol, or None when none does."""
    for soname in _SONAMES:
        try:
            return Libcrypto(ctypes.CDLL(soname))
        except (OSError, AttributeError):
            continue
    return None
