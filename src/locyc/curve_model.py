"""Integral Weierstrass models with exact integer arithmetic.

Long form y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6 with integer
coefficients.  Standard b/c-invariants and discriminant, the split model
and its shift to an odd discriminant at 2, the minimality-shortcut
reduction-type classifier, and naive point counting over small prime
fields.  Coefficients and invariants are integers; no floating point
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import int_valuation

POINT_COUNT_BOUND = 10**6


@dataclass(frozen=True)
class CurveModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.discriminant() == 0:
            raise ValueError("singular model: discriminant is zero")

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = (
            a1 * a1 * a6
            + 4 * a2 * a6
            - a1 * a3 * a4
            + a2 * a3 * a3
            - a4 * a4
        )
        return b2, b4, b6, b8

    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        return c4, c6

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -(b2 * b2 * b8) - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def split_model(a: int, b: int, c: int) -> CurveModel:
    """y^2 = (x - a)(x - b)(x - c)."""
    return CurveModel(0, -(a + b + c), 0, a * b + b * c + c * a, -(a * b * c))


def two_model(a0: int, b0: int, c0: int) -> CurveModel:
    """Integral model with odd discriminant for roots in the residue
    classes 0, 1, 17 mod 64.

    Applies x = 4x' + 1, y = 8y' + 4x' to y^2 = (x-a0)(x-b0)(x-c0), which
    scales delta by 2^-12 and c4 by 2^-4 and leaves j alone.  With
    s1 = a0 + b0 + c0 and s2 = a0 b0 + b0 c0 + c0 a0 the result is
    y^2 + xy = x^3 + a2 x^2 + a4 x + a6 with a2 = (2 - s1)/4,
    a4 = (s2 - 2 s1 + 3)/16 and a6 = (1 - a0)(1 - b0)(1 - c0)/64; the
    residue classes make those divisions exact and the discriminant odd,
    so reduction at 2 is good.
    """
    if a0 % 64 != 0:
        raise ValueError(f"a0 must be 0 mod 64, got {a0 % 64}")
    if b0 % 64 != 1:
        raise ValueError(f"b0 must be 1 mod 64, got {b0 % 64}")
    if c0 % 64 != 17:
        raise ValueError(f"c0 must be 17 mod 64, got {c0 % 64}")
    s1 = a0 + b0 + c0
    s2 = a0 * b0 + b0 * c0 + c0 * a0
    a2, r2 = divmod(2 - s1, 4)
    a4, r4 = divmod(s2 - 2 * s1 + 3, 16)
    a6, r6 = divmod((1 - a0) * (1 - b0) * (1 - c0), 64)
    if r2 or r4 or r6:
        raise ArithmeticError("shifted model came out non-integral")
    m = CurveModel(1, a2, 0, a4, a6)
    if m.discriminant() % 2 == 0:
        raise ArithmeticError("discriminant unexpectedly even")
    return m


@dataclass(frozen=True)
class ReductionType:
    kind: str  # good | multiplicative | additive-or-undetermined
    v_delta_min: int
    v_c4: object  # int or math.inf when c4 = 0


def reduction_type(model: CurveModel, prime: int) -> ReductionType:
    """Classify reduction using the minimality shortcut only.

    A model with v(c4) < 4 or v(delta) < 12 is minimal at the prime.
    Minimal and v(delta) = 0 means good reduction; minimal, v(delta) > 0
    and v(c4) = 0 means multiplicative.  Anything the shortcut cannot
    settle is reported as additive-or-undetermined rather than guessed.
    """
    v_delta = int_valuation(model.discriminant(), prime)
    c4, _ = model.c_invariants()
    v_c4 = int_valuation(c4, prime)
    minimal = v_c4 < 4 or v_delta < 12
    if not minimal:
        return ReductionType("additive-or-undetermined", v_delta, v_c4)
    if v_delta == 0:
        kind = "good"
    elif v_c4 == 0:
        kind = "multiplicative"
    else:
        kind = "additive-or-undetermined"
    return ReductionType(kind, v_delta, v_c4)


def count_points_mod_ell(model: CurveModel, ell: int) -> int:
    """#E(F_ell) by exhaustive x-enumeration, point at infinity included.

    Requires an odd prime ell of good reduction for the given model
    (v_ell(delta) = 0) below POINT_COUNT_BOUND.
    """
    if ell == 2 or ell < 3:
        raise ValueError("ell must be an odd prime")
    if ell > POINT_COUNT_BOUND:
        raise ValueError(f"ell exceeds the naive-count bound {POINT_COUNT_BOUND}")
    if model.discriminant() % ell == 0:
        raise ValueError(f"bad reduction at {ell}")
    # (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2b4 x + b6
    b2, b4, b6, _ = model.b_invariants()
    c2, c1, c0 = b2 % ell, 2 * b4 % ell, b6 % ell
    # quadratic-residue table: squares[v] = 1 iff v is a nonzero square
    squares = bytearray(ell)
    for t in range(1, (ell - 1) // 2 + 1):
        squares[t * t % ell] = 1
    count = 1
    for x in range(ell):
        rhs = (((4 * x + c2) * x + c1) * x + c0) % ell
        if rhs == 0:
            count += 1
        elif squares[rhs]:
            count += 2
    return count
