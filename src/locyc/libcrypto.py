"""OpenSSL's BIGNUM arithmetic on Python integers, through ``ctypes``.

The native kernel behind ``modexp``: ``BN_mod_exp`` for ``powmod``, and
the Q = 1 Lucas V ladder of ``lucas_v`` on Montgomery numbers
(``BN_mod_mul_montgomery`` and ``BN_mod_sub_quick``).  Every BIGNUM,
BN_CTX and BN_MONT_CTX a call allocates is freed in a ``finally``; a
NULL allocation raises ``MemoryError`` and a failed operation
``ArithmeticError``, so a call never returns a doubtful value.

The library is the versioned ``libcrypto.so.3`` or ``libcrypto.so.1.1``,
the one CPython's own ``ssl`` and ``hashlib`` load on Linux.  No
unversioned name is searched for: on macOS that finds a system stub
whose loading aborts the process.  ``modexp`` imports this module at
its first large call, not at import.
"""

from __future__ import annotations

import ctypes

_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")


class Libcrypto:
    """OpenSSL's BIGNUM arithmetic on Python integers, through ``ctypes``."""

    def __init__(self, lib):
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
            "BN_MONT_CTX_new": (vp, []),
            "BN_MONT_CTX_set": (i, [vp, vp, vp]),
            "BN_MONT_CTX_free": (None, [vp]),
            "BN_to_montgomery": (i, [vp, vp, vp, vp]),
            "BN_mod_mul_montgomery": (i, [vp, vp, vp, vp, vp]),
            "BN_mod_sub_quick": (i, [vp, vp, vp, vp]),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)  # AttributeError: the symbol is missing
            fn.restype, fn.argtypes = restype, argtypes
            setattr(self, name, fn)

    def _bn(self, value: int) -> int:
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        bn = self.BN_bin2bn(data, len(data), None)
        if not bn:
            raise MemoryError("BN_bin2bn could not allocate a BIGNUM")
        return bn

    def _int(self, bn: int) -> int:
        out = ctypes.create_string_buffer((self.BN_num_bits(bn) + 7) // 8)
        size = self.BN_bn2bin(bn, out)
        return int.from_bytes(out.raw[:size], "big")

    def powmod(self, b: int, e: int, n: int) -> int:
        """``pow(b, e, n)`` for 0 <= b < n and e >= 0."""
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
            return self._int(r)
        finally:
            for bn in bns:
                self.BN_free(bn)
            self.BN_CTX_free(ctx)

    def lucas_v(self, P: int, k: int, n: int) -> tuple[int, int]:
        """(V_k, V_(k+1)) mod n for the Lucas sequence with this P and
        Q = 1, for 0 <= P < n, k >= 0 and an odd n > 1."""
        ctx = self.BN_CTX_new()
        mont = self.BN_MONT_CTX_new()
        bns = []
        try:
            if not ctx:
                raise MemoryError("BN_CTX_new could not allocate a BN_CTX")
            if not mont:
                raise MemoryError("BN_MONT_CTX_new could not allocate a BN_MONT_CTX")
            m = self._bn(n)
            bns.append(m)
            if not self.BN_MONT_CTX_set(mont, m, ctx):
                raise ArithmeticError("BN_MONT_CTX_set failed")
            # V_0, V_1 and the constants 2 and P in Montgomery form, and a
            # plain 1, which a Montgomery product turns back into plain
            # numbers
            for value in (2, P, 2, P):
                bns.append(self._bn(value))
                if not self.BN_to_montgomery(bns[-1], bns[-1], mont, ctx):
                    raise ArithmeticError("BN_to_montgomery failed")
            bns.append(self._bn(1))
            v, v1, two, p, one = bns[1:]
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
                    raise ArithmeticError("a Montgomery ladder step failed")
            out = []
            for x in (v, v1):
                if not mul(x, x, one, mont, ctx):
                    raise ArithmeticError("BN_mod_mul_montgomery failed")
                out.append(self._int(x))
            return tuple(out)
        finally:
            for bn in bns:
                self.BN_free(bn)
            self.BN_MONT_CTX_free(mont)
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
