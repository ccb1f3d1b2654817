import ast
import functools
import gzip
import io
import json
import os
import re
import subprocess
import sys
import time
import tokenize
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locyc import cli
from locyc.certificate import (
    CertificateFormatError,
    emit,
    parse,
    verify_certificate,
    with_report,
)
from locyc.curve_model import split_model
from locyc.prime_search import SearchConfig, search
from locyc.target_builder import build_certificate, build_targets, linear_forms
from locyc.tate_series import build_bundle

def test_good_certificate_passes(cert5):
    report = verify_certificate(cert5)
    assert report.all_passed
    assert [r.check_id for r in report.results] == [f"C{i}" for i in range(1, 13)]


def test_p7_certificate_passes(cert7):
    # in particular the two inverse-j routes (exact rational vs series)
    # agree at p = 7 as well
    report = verify_certificate(cert7)
    assert report.all_passed, report.lines()
    by_id = {r.check_id: r for r in report.results}
    assert by_id["C9"].passed and "needs >= 29" in by_id["C9"].details


def test_roundtrip_field_exact(cert5):
    cert = with_report(cert5, verify_certificate(cert5))
    assert parse(emit(cert)) == cert


def test_metadata_never_affects_verdicts(cert5):
    noisy = replace(cert5, metadata={"tool": "something-else", "note": "scribble"})
    assert verify_certificate(noisy).all_passed


def test_parse_rejects_bad_integer_field(cert5):
    q = str(cert5.q1)
    # int() takes all of these but the first two; a decimal string here
    # is ASCII -?[0-9]+
    bad = ["abc", "", q[:3] + "_" + q[3:], f" {q}", f"{q}\n", f"+{q}",
           q.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
           q.translate(str.maketrans("0123456789", "０１２３４５６７８９"))]
    for value in bad:
        for where in ("q1", "series_digest", "n", "witnesses"):
            doc = json.loads(emit(cert5))
            if where == "q1":
                doc["q1"] = value
            elif where == "series_digest":
                doc["series_digest"][0] = value
            else:
                doc["primality"][0][where] = value if where == "n" else [value]
            with pytest.raises(CertificateFormatError, match=where):
                parse(json.dumps(doc))


def test_parse_rejects_non_string_integer(cert5):
    doc = json.loads(emit(cert5))
    doc["q2"] = 12345  # decimal strings only: a bare number may have been
    with pytest.raises(CertificateFormatError, match="q2"):  # float-truncated
        parse(json.dumps(doc))


def test_parse_rejects_unknown_version(cert5):
    doc = json.loads(emit(cert5))
    for version in (99, True, 1.0, "1"):  # True == 1.0 == 1 in Python
        doc["format_version"] = version
        with pytest.raises(CertificateFormatError, match="format_version"):
            parse(json.dumps(doc))


def test_parse_rejects_missing_field(cert5):
    doc = json.loads(emit(cert5))
    del doc["b0"]
    with pytest.raises(CertificateFormatError, match="missing field: b0"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("verdict", ["proven", 7])
def test_parse_rejects_unknown_primality_verdict(cert5, tmp_path, verdict):
    doc = json.loads(emit(cert5))
    doc["primality"][2]["verdict"] = verdict
    text = json.dumps(doc)
    with pytest.raises(CertificateFormatError, match="unknown verdict"):
        parse(text)
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == cli.EX_DATAERR


@pytest.mark.parametrize("block", ["primality", "checks"])
@pytest.mark.parametrize("value", [5, "C1", {}], ids=["int", "string", "object"])
def test_verify_rejects_malformed_blocks(cert5, tmp_path, block, value):
    doc = json.loads(emit(cert5))
    doc[block] = value
    text = json.dumps(doc)
    with pytest.raises(CertificateFormatError, match=block):
        parse(text)
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == cli.EX_DATAERR


@pytest.mark.parametrize("r", ["100000", "20", "22", "0"])
def test_parse_rejects_r_other_than_4p_plus_1(cert5, tmp_path, r):
    # C1, C9 and C10 raise p to the power r before any check can fail,
    # so a large r would keep verify busy instead of failing it
    doc = json.loads(emit(cert5))
    assert doc["r"] == "21"
    doc["r"] = r
    text = json.dumps(doc)
    with pytest.raises(CertificateFormatError, match="field r"):
        parse(text)
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == cli.EX_DATAERR


@pytest.mark.parametrize("p", [1, -1, 0, 3, 4])
def test_verify_rejects_p_below_5_at_once(cert5, tmp_path, p):
    # C10's p-adic valuations never end for p = 1 or -1, so verify runs
    # in a child process that a hang would fail, not stall
    doc = json.loads(emit(cert5))
    doc["p"], doc["r"] = str(p), str(4 * p + 1)
    text = json.dumps(doc)
    with pytest.raises(CertificateFormatError, match="field p"):
        parse(text)
    path = tmp_path / "cert.json"
    path.write_text(text)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "locyc", "verify", str(path)],
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == cli.EX_DATAERR, done.stderr


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("primality", None, 5),
        ("primality", "witnesses", "12"),
        ("primality", "witnesses", {"3": "x"}),
        ("primality", "witnesses", [3]),
        ("primality", "method", 5),
        ("primality", "n", None),
        ("checks", None, "C1"),
        ("checks", "passed", "false"),
        ("checks", "passed", 1),
        ("checks", "details", [1]),
        ("checks", "id", None),
        ("checks", "name", 12),
    ],
)
def test_verify_rejects_mistyped_rows(cert5, tmp_path, block, key, value):
    doc = json.loads(emit(cert5))
    if key is None:
        doc[block][0] = value
    elif value is None:
        del doc[block][0][key]
    else:
        doc[block][0][key] = value
    text = json.dumps(doc)
    with pytest.raises(CertificateFormatError, match=rf"{block}\[0\]"):
        parse(text)
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == cli.EX_DATAERR


def test_verify_fails_fast_on_a_certificate_edited_to_a_large_p(tmp_path):
    # C1, C9 and C10 work mod p^r and C10 Hensel-lifts x^(2p) - q0, so a
    # forged p must not cost minutes: b0 - c0 = 16 p^p q3 bounds p by the
    # file's size, and a larger p is a parse error
    cert, _ = cli.construct(13, SearchConfig(seed=1))
    path = tmp_path / "cert.json"
    for p in (1009, 10007):
        doc = json.loads(emit(cert))
        doc["p"], doc["r"] = str(p), str(4 * p + 1)
        text = json.dumps(doc)
        with pytest.raises(CertificateFormatError, match="b0 - c0"):
            parse(text)
        path.write_text(text)
        t0 = time.monotonic()
        assert cli.main(["verify", str(path)]) == cli.EX_DATAERR
        assert time.monotonic() - t0 < 10
    # a forged q3 still parses; a detail names the size of an integer
    # that str() cannot convert
    doc = json.loads(emit(cert))
    doc["q3"] = "9" * 4000
    t0 = time.monotonic()
    report = verify_certificate(parse(json.dumps(doc)))
    assert time.monotonic() - t0 < 10
    by_id = {r.check_id: r for r in report.results}
    assert by_id["C4"].details.startswith("delta mismatch"), by_id["C4"].details
    assert not any("Exceeds the limit" in r.details for r in report.results)


def test_verify_fails_fast_on_a_certificate_with_a_huge_valuation():
    # q1 = b0 - a0 = 5^60000 gives v_5(delta) = 120000 in an 87 KB file,
    # which Python 3.10.0-3.10.6 parse, having no cap on decimal digits.
    # With one division per digit int_valuation took 26 s on it (2-core
    # Xeon VM), a time quadratic in the file's size.  Where the cap
    # exists (3.10.7 on) the test lifts it and restores it afterwards
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(stored_texts()["p5-s1"])
        q1 = 5**60000
        doc["b0"], doc["q1"] = str(int(doc["a0"]) + q1), str(q1)
        t0 = time.monotonic()
        report = verify_certificate(parse(json.dumps(doc)))
        assert time.monotonic() - t0 < 10
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert not report.all_passed
    by_id = {r.check_id: r for r in report.results}
    assert by_id["C7"].details.startswith("v_p(delta) = 120000,"), by_id["C7"].details


@pytest.mark.parametrize("p", [25, 35])
def test_a_composite_p_fails_c3_and_c12(tmp_path, p):
    # cli.construct rejects a composite p, but the series, the targets
    # and the search all go through for one, and every check but C3 (and
    # C12, which rests on it) passes the resulting certificate
    config = SearchConfig(seed=1, d_range=100000, x_window=16384)
    bundle = build_bundle(p)
    target = build_targets(bundle)
    forms = linear_forms(target)
    x0, y0, evidence = search(forms, target, config)
    cert = build_certificate(target, forms, x0, y0, evidence, bundle, seed=config.seed)
    report = verify_certificate(cert)
    assert report.failing() == ["C3", "C12"], report.lines()
    assert report.results[2].details == f"p = {p} is not prime"
    path = tmp_path / "cert.json"
    path.write_text(emit(with_report(cert, report)))
    assert cli.main(["verify", str(path)]) == 1


def test_verifying_loads_no_construct_code(cert5, tmp_path):
    # parse and C1..C12 run on the verifier's own modules: no search,
    # sieve, thread or target-building code is imported
    path = tmp_path / "cert.json"
    path.write_text(emit(cert5))
    code = (
        "import json, sys\n"
        "from locyc.certificate import parse, verify_certificate\n"
        f"text = open({str(path)!r}).read()\n"
        "assert verify_certificate(parse(text)).all_passed\n"
        "print(json.dumps([sorted(n for n in sys.modules if n.startswith('locyc')),\n"
        "                  'concurrent.futures' in sys.modules]))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    loaded, threads = json.loads(done.stdout)
    verifier = {"locyc", "locyc.certificate", "locyc.curve_model", "locyc.padic",
                "locyc.primality", "locyc.tate_series"}
    assert set(loaded) - {"locyc.libcrypto"} == verifier, loaded
    assert not threads


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines holding a code token, leaving out docstrings, comments and
    blank lines."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_readme_states_the_trusted_base_in_code_lines():
    # the modules `import locyc.certificate` loads, counted line by line,
    # against the README's "Trusted base" paragraph: each module's figure
    # and the total
    code = (
        "import json, sys\n"
        "import locyc.certificate\n"
        "print(json.dumps({n: m.__file__ for n, m in sys.modules.items()\n"
        "                  if n.split('.')[0] == 'locyc'}))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    counted = {
        "__init__" if name == "locyc" else name.split(".")[1]:
            code_lines(Path(file).read_text())
        for name, file in json.loads(done.stdout).items()
    }
    readme = (src.parent / "README.md").read_text()
    paragraph = re.search(r"^Trusted base\.(.*?)\n\n", readme, re.S | re.M).group(1)
    paragraph = " ".join(paragraph.split())
    stated = {name: int(n) for name, n in
              re.findall(r"`(\w+)` \((\d+)(?: code lines)?\)", paragraph)}
    total = int(re.search(r": (\d+) lines", paragraph).group(1))
    assert stated == counted
    assert total == sum(counted.values())


@pytest.mark.parametrize("b0_minus_c0", [0, -1])
def test_parse_rejects_b0_not_above_c0(cert5, b0_minus_c0):
    doc = json.loads(emit(cert5))
    doc["b0"] = str(cert5.c0 + b0_minus_c0)
    with pytest.raises(CertificateFormatError, match="b0 - c0"):
        parse(json.dumps(doc))


@pytest.mark.parametrize(
    "data",
    [b'{"p": "\xff\xfe"}', b"[" * 100000],
    ids=["not-utf-8", "nested-too-deeply"],
)
def test_verify_exits_65_on_an_unreadable_file(tmp_path, data):
    path = tmp_path / "cert.json"
    path.write_bytes(data)
    assert cli.main(["verify", str(path)]) == cli.EX_DATAERR


def _edit_primality(row, key):
    if key == "n":
        row["n"] = str(int(row["n"]) + 2)
    elif key == "verdict":
        row["verdict"] = (
            "probable-prime" if row["verdict"] == "prime-deterministic"
            else "prime-deterministic"
        )
    elif key == "method":
        row["method"] += "-edited"
    else:
        row["witnesses"] = row["witnesses"][:-1]


RECORDED_FIELD_EDITS = (
    [f"series_digest[{i}]" for i in range(3)]
    + [f"primality[{i}].{key}" for i in range(3)
       for key in ("n", "verdict", "method", "witnesses")]
    + ["primality"]
)


@pytest.mark.parametrize("edit", RECORDED_FIELD_EDITS)
def test_verify_fails_on_an_edited_recorded_field(cert5, tmp_path, edit):
    # C1 recomputes the series digest and C2 the primality evidence, so
    # an edit to either fails verification instead of passing unseen
    doc = json.loads(emit(cert5))
    if edit.startswith("series_digest"):
        i = int(edit[len("series_digest[")])
        doc["series_digest"][i] = str(int(doc["series_digest"][i]) + 1)
        expected = ["C1"]
    elif edit == "primality":
        doc["primality"] = []
        expected = ["C2"]
    else:
        i, key = int(edit[len("primality[")]), edit.split(".")[1]
        _edit_primality(doc["primality"][i], key)
        expected = ["C2"]
    text = json.dumps(doc)
    assert verify_certificate(parse(text)).failing() == expected
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == 1


def test_parse_without_check_list(cert5):
    doc = json.loads(emit(cert5))
    del doc["checks"]
    cert = parse(json.dumps(doc))
    assert cert.checks == ()
    assert verify_certificate(cert).all_passed  # checks are derived data


def test_parse_garbage():
    with pytest.raises(CertificateFormatError):
        parse("not json at all")
    with pytest.raises(CertificateFormatError, match="top level"):
        parse("[1, 2, 3]")


def test_big_integers_survive_roundtrip(cert5):
    # integers near 2^100 must come back exactly, not float-rounded
    text = emit(cert5)
    assert f'"{cert5.q1}"' in text
    assert parse(text).q1 == cert5.q1


def test_mutation_lattice_shift_caught_by_structure(cert5):
    # shifting b0 by the full modulus keeps every congruence intact, so C1
    # passes and the difference identity in C2 is what catches it
    shift = 64 * 5**21
    mutated = replace(cert5, b0=cert5.b0 + shift)
    report = verify_certificate(mutated)
    by_id = {r.check_id: r for r in report.results}
    assert by_id["C1"].passed
    assert not by_id["C2"].passed


def test_mutation_q3_residue(cert5):
    mutated = replace(cert5, q3=cert5.q3 + 5)
    report = verify_certificate(mutated)
    assert "C3" in report.failing() or "C2" in report.failing()


STORED_CERTIFICATES = (
    Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify_certs.json.gz"
)


@functools.cache
def stored_texts():
    """The verify benchmark's stored certificates by key: "p53-s1" is
    p = 53 at the ladder flags with seed 1."""
    with gzip.open(STORED_CERTIFICATES, "rt") as fh:
        return json.load(fh)


def test_c9_reports_the_valuation_of_c4_on_a_forged_a0():
    # a0 moved by 64 k with p | b0 - a0 = q1 makes p divide c4, so 1/j is
    # not p-integral; C9 reports v_p(c4) instead of dividing by c4^3, and
    # no detail writes an integer of the file out in full
    cert = parse(stored_texts()["p53-s1"])
    p = cert.p
    k = (cert.b0 - cert.a0) * pow(64, -1, p) % p
    forged = replace(cert, a0=cert.a0 + 64 * k)
    assert (forged.b0 - forged.a0) % p == 0
    report = verify_certificate(forged)
    by_id = {r.check_id: r for r in report.results}
    assert not by_id["C9"].passed
    assert by_id["C9"].details == "v_p(c4) = 2, expected 0"
    assert not any(re.search(r"\d{21}", r.details) for r in report.results), report.lines()


@pytest.mark.parametrize("p", [5, 7, 13, 31, 41, 47, 53])
def test_a_translated_curve_fails_c1_alone(p):
    # adding 64 t to every root keeps the differences, the discriminant,
    # c4, the point counts and the classes mod 64, so only C1 ties the
    # curve to the series
    cert = parse(stored_texts()[f"p{p}-s1"])
    for t in (1, 7, -1):
        moved = replace(cert, a0=cert.a0 + 64 * t, b0=cert.b0 + 64 * t,
                        c0=cert.c0 + 64 * t)
        report = verify_certificate(moved)
        assert report.failing() == ["C1"], (t, report.lines())


def test_report_lines_format(cert5):
    lines = verify_certificate(cert5).lines()
    assert len(lines) == 12
    assert lines[0].startswith("C1 ")
    assert all(" PASS " in line or " FAIL " in line for line in lines)


@given(
    st.sampled_from([5, 7, 11]),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.integers(min_value=1, max_value=10**20),
    st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=200)
def test_discriminant_and_c4_are_identities_in_the_relations(p, a0, q1, q3):
    """The C4/C5 equalities hold for ANY integers satisfying the defining
    relations b0 = a0 + q1, c0 = a0 + q2, q1 - q2 = 16 p^p q3; primality
    plays no role in them."""
    q2 = q1 - 16 * p**p * q3
    b0, c0 = a0 + q1, a0 + q2
    if q2 == 0 or q1 == q2:
        return
    m = split_model(a0, b0, c0)
    assert m.discriminant() == 2**12 * p ** (2 * p) * (q1 * q2 * q3) ** 2
    assert m.c_invariants()[0] == 16 * (q1**2 - 16 * p**p * q2 * q3)
