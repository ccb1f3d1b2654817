"""Construction certificates: emit, parse, and verify.

A certificate records one completed construction for a prime p: the CRT
residues, the simultaneous-prime point, the resulting curve roots
(a0, b0, c0) and prime differences (q1, q2, q3), plus primality
evidence and the outcome of the named checks C1..C12.  Verification is
a pure function of the numeric fields; every check recomputes its own
inputs from those fields so a corrupted intermediate cannot hide behind
another.  Integers travel as decimal strings so no reader can truncate
them.

The checks, in fixed order:

C1   the six residue conditions on a0, b0, c0 (mod 64 and mod p^r
     against freshly recomputed 2-torsion coordinates), which the
     recorded series digest must equal
C2   difference/prime structure of q1, q2, q3, their values at the
     recorded search point, and the recorded primality evidence
C3   p is prime, and q1 = q2 = q3 = 1 mod p
C4   discriminant identity  delta = 2^12 p^(2p) (q1 q2 q3)^2
C5   reduced c4 identity, coprimality, and c4 = 1 mod p^p
C6   good reduction at 2 on the shifted integral model
C7   multiplicative reduction at p on the split model
C8   multiplicative reduction at q1, q2, q3 on the split model
C9   inverse-j congruence between the integer curve and the series
     curve to precision p^(4p+1)
C10  root-lifting condition for the 2p-th power map at p
C11  torsion structure: full 2-torsion, and a good prime whose point
     count rules out rational p-torsion
C12  the per-prime cyclicity ledger tying C3/C8 (at the q_i), C9/C10
     (at p) and good reduction (elsewhere) together
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace

from . import curve_model, tate_series
from .padic import from_rational, hensel_lift, int_valuation
from .primality import TRIAL_BOUND, TRIAL_PRIMES, VERDICTS, PrimalityEvidence, is_prime

FORMAT_VERSION = 1


class CertificateFormatError(ValueError):
    """Schema-level problem with a certificate file."""


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class CheckReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failing(self) -> list[str]:
        return [r.check_id for r in self.results if not r.passed]

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            out.append(f"{r.check_id:<4} {status}  {r.name}: {r.details}")
        return out


@dataclass(frozen=True)
class Certificate:
    p: int
    r: int
    s1: int
    s2: int
    x0: int
    y0: int
    q1: int
    q2: int
    q3: int
    a0: int
    b0: int
    c0: int
    series_digest: tuple  # (xpp1, xpp2, xpp3) residues mod p^r
    primality: tuple = ()  # PrimalityEvidence for q1, q2, q3
    checks: tuple = ()  # CheckResult rows from the last verification
    metadata: dict = field(default_factory=dict)


def _run(check_id, name, fn) -> CheckResult:
    """Evaluate one check, turning exceptions into failures."""
    try:
        ok, details = fn()
    except Exception as exc:  # precondition violations count as failures
        return CheckResult(check_id, name, False, f"error: {exc}")
    return CheckResult(check_id, name, bool(ok), details)


def _c1(cert: Certificate):
    pr = cert.p**cert.r
    bundle = tate_series.build_bundle(cert.p, precision=cert.r)
    x1, x2, x3 = bundle.xpp1, bundle.xpp2, bundle.xpp3
    if cert.series_digest != (x1, x2, x3):
        return False, "series_digest differs from the recomputed coordinates"
    conds = [
        ("a0 mod 64 = 0", cert.a0 % 64 == 0),
        ("a0 matches the first coordinate mod p^r", cert.a0 % pr == x1),
        ("b0 mod 64 = 1", cert.b0 % 64 == 1),
        ("b0 matches the second coordinate mod p^r", cert.b0 % pr == x2),
        ("c0 mod 64 = 17", cert.c0 % 64 == 17),
        ("c0 matches the third coordinate mod p^r", cert.c0 % pr == x3),
    ]
    bad = [name for name, ok in conds if not ok]
    return not bad, ("all six congruences hold" if not bad else f"failed: {bad}")


def _bits(n: int) -> str:
    """n's size for a detail: str() of a forged integer may raise."""
    return f"{n.bit_length()}-bit"


def _c2(cert: Certificate):
    p = cert.p
    step = 16 * p**p
    if cert.b0 - cert.a0 != cert.q1:
        return False, f"b0 - a0 ({_bits(cert.b0 - cert.a0)}) differs from q1"
    if cert.c0 - cert.a0 != cert.q2:
        return False, f"c0 - a0 ({_bits(cert.c0 - cert.a0)}) differs from q2"
    if cert.b0 - cert.c0 != step * cert.q3:
        return False, "b0 - c0 is not 16 p^p q3"
    # q1 and q2 are the forms' values at the recorded search point
    q12_coefficient = 64 * p**cert.r
    if cert.s1 + q12_coefficient * cert.x0 != cert.q1:
        return False, "s1 + 64 p^r x0 differs from q1"
    if cert.s2 + q12_coefficient * cert.y0 != cert.q2:
        return False, "s2 + 64 p^r y0 differs from q2"
    evidence = []
    for label, q in (("q1", cert.q1), ("q2", cert.q2), ("q3", cert.q3)):
        ev = is_prime(q)
        if not ev.is_prime_enough():
            return False, f"{label} ({_bits(q)}) is {ev.verdict}"
        if q in (2, p):
            return False, f"{label} equals {q}, which is excluded"
        evidence.append(ev)
    if len({cert.q1, cert.q2, cert.q3}) != 3:
        return False, "q1, q2, q3 are not pairwise distinct"
    if cert.primality != tuple(evidence):
        return False, "recorded primality evidence differs from the recomputed evidence"
    return True, f"differences match, primality: {[ev.verdict for ev in evidence]}"


def _c3(cert: Certificate):
    if not is_prime(cert.p).is_prime_enough():
        return False, f"p = {cert.p} is not prime"
    rs = [q % cert.p for q in (cert.q1, cert.q2, cert.q3)]
    return rs == [1, 1, 1], f"residues mod p: {rs}"


def _c4(cert: Certificate):
    delta = curve_model.split_model(cert.a0, cert.b0, cert.c0).discriminant()
    expected = 2**12 * cert.p ** (2 * cert.p) * (cert.q1 * cert.q2 * cert.q3) ** 2
    return delta == expected, (
        "delta = 2^12 p^(2p) (q1 q2 q3)^2 exactly"
        if delta == expected
        else f"delta mismatch: {_bits(delta)} delta vs {_bits(expected)} "
        "2^12 p^(2p) (q1 q2 q3)^2"
    )


def _c5(cert: Certificate):
    p = cert.p
    c4, _ = curve_model.split_model(cert.a0, cert.b0, cert.c0).c_invariants()
    c4r = c4 // 16  # the split model's c4 is 16 (a^2 + b^2 + c^2 - ab - bc - ca)
    expected = cert.q1**2 - 16 * p**p * cert.q2 * cert.q3
    if c4r != expected:
        return False, f"reduced c4 ({_bits(c4r)}) differs from q1^2 - 16 p^p q2 q3"
    g = math.gcd(c4r, cert.q1 * cert.q2 * cert.q3)
    if g != 1:
        return False, f"gcd(c4, q1 q2 q3) is {_bits(g)}, not 1"
    if c4r % p**p != 1:
        return False, f"c4 mod p^p ({_bits(c4r % p**p)}) is not 1"
    return True, "identity, coprimality and c4 = 1 mod p^p all hold"


def _c6(cert: Certificate):
    model = curve_model.two_model(cert.a0, cert.b0, cert.c0)
    rt = curve_model.reduction_type(model, 2)
    return rt.kind == "good", (
        f"shifted model has odd discriminant, reduction at 2 is {rt.kind}"
    )


def _c7(cert: Certificate):
    p = cert.p
    split = curve_model.split_model(cert.a0, cert.b0, cert.c0)
    rt = curve_model.reduction_type(split, p)
    if rt.v_delta_min < p:
        return False, f"v_p(delta) = {rt.v_delta_min} < p"
    if rt.v_c4 != 0:
        return False, f"v_p(c4) = {rt.v_c4}, expected 0"
    return rt.kind == "multiplicative", (
        f"v_p(delta) = {rt.v_delta_min}, v_p(c4) = 0: minimal, {rt.kind}"
    )


def _c8(cert: Certificate):
    split = curve_model.split_model(cert.a0, cert.b0, cert.c0)
    details = []
    for label, q in (("q1", cert.q1), ("q2", cert.q2), ("q3", cert.q3)):
        rt = curve_model.reduction_type(split, q)
        if rt.kind != "multiplicative" or rt.v_delta_min != 2:
            return False, (
                f"at {label}: kind {rt.kind}, v(delta) = {rt.v_delta_min}, "
                f"v(c4) = {rt.v_c4}"
            )
        details.append(f"{label}: v(delta)=2, v(c4)=0")
    return True, "; ".join(details)


def _c9(cert: Certificate):
    p, r = cert.p, cert.r
    guard = r + 2 * p  # the discriminant's valuation 2p is absorbed here
    m = p**guard
    split = curve_model.split_model(cert.a0, cert.b0, cert.c0)
    c4, _ = split.c_invariants()
    v_c4 = int_valuation(c4, p)
    if v_c4 != 0:
        return False, f"v_p(c4) = {v_c4}, expected 0"
    inv_j_int = from_rational(split.discriminant(), c4**3, p, guard)
    a, b = tate_series.cubic_coefficients(p, guard)
    delta_q = -16 * (4 * a**3 + 27 * b * b)
    c4_q = -48 * a
    inv_j_series = delta_q * pow(c4_q, -3, m)
    v = int_valuation((inv_j_int - inv_j_series) % m, p)
    ok = v >= r
    return ok, f"v_p(1/j difference) = {v}, needs >= {r}"


def _c10(cert: Certificate):
    p, r = cert.p, cert.r
    # any representative of the certified class mod p^(4p+1) works; take a
    # perturbed one so the lifting below is a genuine Newton run
    q0 = p ** (2 * p) + p**r
    f = [-q0] + [0] * (2 * p - 1) + [1]  # x^(2p) - q0
    # hensel_lift checks v_p(f(p)) >= r, v_p(f'(p)) = 2p and r >= 4p + 1,
    # and raises with the values otherwise.  Refine past the guaranteed
    # level so genuine Newton steps run, then compare on the guaranteed
    # congruence class
    beta = hensel_lift(f, p, p, j=r, tau=2 * p, precision=r + 1)
    if (pow(beta, 2 * p, p ** (r + 1)) - q0) % p ** (r + 1) != 0:
        return False, "refined root does not satisfy the polynomial"
    ok = beta % p ** (2 * p + 1) == p
    return ok, f"tau = 2p, j = 4p+1, lifted root = p mod p^(2p+1): {ok}"


def _c11(cert: Certificate):
    if len({cert.a0, cert.b0, cert.c0}) != 3:
        return False, "roots are not distinct"
    split = curve_model.split_model(cert.a0, cert.b0, cert.c0)
    delta = split.discriminant()
    for ell in TRIAL_PRIMES:
        if ell == 2 or ell == cert.p or delta % ell == 0:
            continue
        n = curve_model.count_points_mod_ell(split, ell)
        if abs(ell + 1 - n) > 2 * math.isqrt(ell) + 2:
            return False, f"count {n} at {ell} violates the Hasse bound"
        if n % cert.p != 0:
            return True, (
                f"full rational 2-torsion; #E(F_{ell}) = {n} is not 0 mod p, "
                "so no rational p-torsion"
            )
    return False, f"no good prime below {TRIAL_BOUND} ruled out p-torsion"


def _c12(cert: Certificate, earlier: dict):
    entries = []
    ok = True
    for label in ("q1", "q2", "q3"):
        hyp = earlier["C8"].passed and earlier["C3"].passed
        ok &= hyp
        entries.append(
            f"{label}: decomposition image trivial or cyclic of order p "
            f"(needs multiplicative reduction [C8] and q = 1 mod p [C3]: "
            f"{'ok' if hyp else 'MISSING'})"
        )
    hyp_p = earlier["C9"].passed and earlier["C10"].passed
    ok &= hyp_p
    entries.append(
        "p: decomposition image cyclic of order p-1 (needs the inverse-j "
        f"congruence [C9] and the lifted 2p-th root [C10]: "
        f"{'ok' if hyp_p else 'MISSING'})"
    )
    entries.append("good primes: unramified, hence cyclic (recorded)")
    entries.append(
        "full image GL2: semistability [C7+C8] + full 2-torsion and no "
        "rational p-torsion [C11] + the torsion-bound theorem (cited, not "
        "verified)"
    )
    ok &= earlier["C7"].passed and earlier["C11"].passed
    return ok, " | ".join(entries)


def verify_certificate(cert: Certificate) -> CheckReport:
    """Run C1..C12; each check recomputes from the base numeric fields."""
    results = [
        _run("C1", "residue congruences", lambda: _c1(cert)),
        _run("C2", "prime structure", lambda: _c2(cert)),
        _run("C3", "residues of the primes mod p", lambda: _c3(cert)),
        _run("C4", "discriminant identity", lambda: _c4(cert)),
        _run("C5", "reduced c4", lambda: _c5(cert)),
        _run("C6", "good reduction at 2", lambda: _c6(cert)),
        _run("C7", "multiplicative reduction at p", lambda: _c7(cert)),
        _run("C8", "multiplicative reduction at q1, q2, q3", lambda: _c8(cert)),
        _run("C9", "inverse-j congruence", lambda: _c9(cert)),
        _run("C10", "root-lifting condition at p", lambda: _c10(cert)),
        _run("C11", "torsion structure", lambda: _c11(cert)),
    ]
    earlier = {r.check_id: r for r in results}
    results.append(
        _run("C12", "local-cyclicity ledger", lambda: _c12(cert, earlier))
    )
    return CheckReport(tuple(results))


def with_report(cert: Certificate, report: CheckReport) -> Certificate:
    return replace(cert, checks=report.results)


# ---------------------------------------------------------------------------
# serialization: a versioned JSON document, integers as decimal strings


_INT_FIELDS = ("p", "r", "s1", "s2", "x0", "y0", "q1", "q2", "q3", "a0", "b0", "c0")


def to_document(cert: Certificate) -> dict:
    doc = {"format_version": FORMAT_VERSION}
    for name in _INT_FIELDS:
        doc[name] = str(getattr(cert, name))
    doc["series_digest"] = [str(v) for v in cert.series_digest]
    doc["primality"] = [
        {
            "n": str(ev.n),
            "verdict": ev.verdict,
            "method": ev.method,
            "witnesses": [str(w) for w in ev.witnesses],
        }
        for ev in cert.primality
    ]
    doc["checks"] = [
        {
            "id": c.check_id,
            "name": c.name,
            "passed": c.passed,
            "details": c.details,
        }
        for c in cert.checks
    ]
    doc["metadata"] = dict(cert.metadata)
    return doc


def emit(cert: Certificate) -> str:
    return json.dumps(to_document(cert), indent=2, sort_keys=True) + "\n"


_DECIMAL = re.compile(r"-?[0-9]+")  # ASCII digits only, as emit writes them


def _decimal(raw, where: str) -> int:
    """The integer written as a decimal string at ``where``."""
    try:
        if isinstance(raw, str) and _DECIMAL.fullmatch(raw):
            return int(raw)
    except ValueError:  # more digits than int() converts
        pass
    raise CertificateFormatError(f"{where} must be a decimal string, got {raw!r}")


def _rows(doc: dict, name: str, fields: dict):
    """(where, row) for each row of the list ``name``: an object whose
    value at each key of ``fields`` has exactly the type given there."""
    rows = doc.get(name, [])
    if not isinstance(rows, list):
        raise CertificateFormatError(f"{name} must be a list")
    for i, row in enumerate(rows):
        where = f"{name}[{i}]"
        if not isinstance(row, dict):
            raise CertificateFormatError(f"{where} must be an object")
        for key, kind in fields.items():
            if type(row.get(key)) is not kind:
                raise CertificateFormatError(
                    f"{where}.{key} must be a {kind.__name__}, got {row.get(key)!r}"
                )
        yield where, row


def parse(text: str) -> Certificate:
    """Inverse of emit.  The check list is optional: checks are derived
    data and are recomputed on verification anyway.  Any other shape
    raises CertificateFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CertificateFormatError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise CertificateFormatError("top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CertificateFormatError(f"unknown format_version: {version!r}")
    ints = {}
    for name in _INT_FIELDS:
        if name not in doc:
            raise CertificateFormatError(f"missing field: {name}")
        ints[name] = _decimal(doc[name], f"field {name}")
    # the construction needs p >= 5, and C10's p-adic valuations never
    # end for p = 1 or -1
    if ints["p"] < 5:
        raise CertificateFormatError(f"field p must be at least 5, got {ints['p']}")
    # every certificate is built to precision p^(4p+1), and C1, C9 and
    # C10 raise p to the power r before any check can fail
    if ints["r"] != 4 * ints["p"] + 1:
        raise CertificateFormatError(f"field r must be 4p + 1, got {ints['r']}")
    # b0 - c0 is 16 p^p q3 with q3 >= 1, so p^p, and with it every p^r the
    # checks compute, is bounded by the file's size.  Bit lengths only:
    # p^p itself is not computed
    span = ints["b0"] - ints["c0"]
    if span <= 0 or ints["p"] * (ints["p"].bit_length() - 1) >= span.bit_length():
        raise CertificateFormatError(
            f"b0 - c0 ({span.bit_length()}-bit) cannot be 16 p^p q3 for p = {ints['p']}"
        )
    digest = doc.get("series_digest")
    if not isinstance(digest, list) or len(digest) != 3:
        raise CertificateFormatError("series_digest must be a list of 3 strings")
    primality = []
    for where, row in _rows(doc, "primality", {"method": str, "witnesses": list}):
        if row.get("verdict") not in VERDICTS:
            raise CertificateFormatError(
                f"{where} has unknown verdict: {row.get('verdict')!r}"
            )
        primality.append(
            PrimalityEvidence(
                n=_decimal(row.get("n"), f"{where}.n"),
                verdict=row["verdict"],
                method=row["method"],
                witnesses=tuple(
                    _decimal(w, f"{where}.witnesses") for w in row["witnesses"]
                ),
            )
        )
    checks = [
        CheckResult(row["id"], row["name"], row["passed"], row["details"])
        for _, row in _rows(
            doc, "checks", {"id": str, "name": str, "passed": bool, "details": str}
        )
    ]
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CertificateFormatError("metadata must be an object")
    return Certificate(
        series_digest=tuple(
            _decimal(v, f"series_digest[{i}]") for i, v in enumerate(digest)
        ),
        primality=tuple(primality),
        checks=tuple(checks),
        metadata=metadata,
        **ints,
    )
