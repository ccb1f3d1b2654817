import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from locyc import cli, primality
from locyc.certificate import emit, parse
from locyc.prime_search import SearchConfig
from dataclasses import replace


def run(argv):
    return cli.main(argv)


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run(["construct", "--prime", "5", "--seed", "1", "--out", str(out)]) == 0
    assert out.exists()
    assert run(["verify", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "C12" in stdout and "all checks passed" in stdout


def test_construct_rejects_composite_prime(capsys):
    for value in ("4", "-7", "0", "1"):
        assert run(["construct", "--prime", value]) == 64
        assert "not prime" in capsys.readouterr().err


def test_construct_rejects_a_composite_p_before_the_series(monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("the series was built")

    monkeypatch.setattr(cli, "build_bundle", no_series)
    config = SearchConfig(seed=1, d_range=100000, x_window=16384)
    with pytest.raises(cli.UsageError, match="49 is not prime"):
        cli.construct(49, config)


def test_construct_rejects_small_primes(capsys):
    assert run(["construct", "--prime", "3"]) == 64
    assert "p >= 5" in capsys.readouterr().err


def test_construct_zero_budget(tmp_path):
    out = tmp_path / "never.json"
    code = run(
        ["construct", "--prime", "5", "--budget", "0", "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()


def test_interrupted_write_leaves_no_file(tmp_path, monkeypatch):
    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(["construct", "--prime", "5", "--out", str(tmp_path / "cert.json")])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
def test_an_unwritable_out_exits_73_and_leaves_no_temporary_file(tmp_path, target):
    if target == "missing-directory":
        out = tmp_path / "no" / "such" / "c.json"
    else:
        out = tmp_path / "c.json"
        out.mkdir()
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "locyc", "construct", "--prime", "5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == cli.EX_CANTCREAT == 73, done.stderr
    assert done.stderr.startswith(f"error: cannot write {out}: "), done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("target", ["missing-directory", "file-as-directory",
                                    "a-directory", "read-only-directory"])
def test_an_unwritable_out_is_rejected_before_the_search(
    tmp_path, monkeypatch, capsys, target
):
    def no_construct(*args):
        raise AssertionError("the construction ran")

    monkeypatch.setattr(cli, "construct", no_construct)
    if target == "missing-directory":
        out = tmp_path / "no" / "such" / "c.json"
    elif target == "file-as-directory":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "c.json"
    elif target == "a-directory":
        out = tmp_path / "c.json"
        out.mkdir()
    else:
        read_only = tmp_path / "ro"
        read_only.mkdir(mode=0o500)
        if os.geteuid() == 0:
            # root ignores mode bits, so access() is told what they say
            access = os.access
            monkeypatch.setattr(cli.os, "access", lambda path, *args, **kw:
                                path != str(read_only) and access(path, *args, **kw))
        out = read_only / "c.json"
    assert run(["construct", "--prime", "53", "--out", str(out)]) == 73
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not out.is_file()


def test_a_write_that_fails_after_the_search_exits_73_without_a_temporary_file(
    tmp_path, monkeypatch, capsys
):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)
    out = tmp_path / "c.json"
    assert run(["construct", "--prime", "5", "--out", str(out)]) == 73
    assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_garbage_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("garbage{{{")
    assert run(["verify", str(bad)]) == 65
    assert "parse error" in capsys.readouterr().err


def test_verify_missing_file():
    assert run(["verify", "/nonexistent/path.json"]) == 65


def test_verify_reads_utf8_whatever_the_locale(tmp_path, cert5):
    # a non-ASCII metadata note, read under the C locale with Python's
    # UTF-8 mode off: the locale would decode the file as ASCII
    doc = json.loads(emit(cert5))
    doc["metadata"]["note"] = "vérifié"
    text = json.dumps(doc, ensure_ascii=False)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0")
    for encoding, code in (("utf-8", 0), ("latin-1", cli.EX_DATAERR)):
        path = tmp_path / f"{encoding}.json"
        path.write_bytes(text.encode(encoding))
        done = subprocess.run([sys.executable, "-m", "locyc", "verify", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, (encoding, done.stdout, done.stderr)
    # the Latin-1 file is not UTF-8, which is a parse error in any locale
    assert done.stderr.startswith("parse error: 'utf-8' codec can't decode"), done.stderr


def test_verify_mutated_certificate(tmp_path, cert5, capsys):
    mutated = replace(cert5, q1=cert5.q1 + 2)
    path = tmp_path / "mut.json"
    path.write_text(emit(mutated))
    assert run(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "C2" in out


def test_series_output_shows_digit_pattern(capsys):
    assert run(["series", "--prime", "5", "--digits", "12"]) == 0
    out = capsys.readouterr().out
    # x''_2 = 1/3 + 8*5^5 + ...: base-5 digits of 1/3 are 2, 3, 1, 3, 1, ...
    # and adding 8*5^5 turns digits 5..6 from (3, 1) into (1, 3)
    line = next(l for l in out.splitlines() if l.strip().startswith("x''_2"))
    assert "2 + 3*5 + 1*5^2 + 3*5^3 + 1*5^4 + 1*5^5 + 3*5^6" in line
    line1 = next(l for l in out.splitlines() if l.strip().startswith("x''_1"))
    # leading digit of -2/3 mod 5 is 1
    assert line1.split("=")[1].strip().startswith("1 +")


def test_series_p7_leading_digit(capsys):
    assert run(["series", "--prime", "7", "--digits", "8"]) == 0
    out = capsys.readouterr().out
    line1 = next(l for l in out.splitlines() if l.strip().startswith("x''_1"))
    # -2/3 mod 7 = (-2)*5 mod 7 = 4
    assert line1.split("=")[1].strip().startswith("4 +")


# sha256 of `locyc series --prime P --digits 40` stdout, so a change to
# the series or p-adic code that moves any printed digit of a4, a6, the
# 2-torsion coordinates or alpha, beta, gamma fails here
SERIES_SHA256 = {
    5: "cf92251c3467ef4e41e1330473f8b3c45957fb08ec0f0cd97db2c92f6f8d67a9",
    7: "6209f80f96976736ffb7ce6c3a04b6008eb86f1b3cda9f7ba913f55ae85ed309",
    13: "fb16c5891eac10216b59f11c19dad355629d9e0a7b8c5e49312d3a96fdc6b231",
    53: "a830d924184761a956e467364e4608e24e7466fd27a4d898b696ba95043a5caf",
}


@pytest.mark.parametrize("p", sorted(SERIES_SHA256))
def test_series_output_matches_its_pinned_digest(p, capsys):
    assert run(["series", "--prime", str(p), "--digits", "40"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_SHA256[p]


def test_series_rejects_non_prime(capsys):
    assert run(["series", "--prime", "6"]) == 64


def test_usage_error_on_unknown_subcommand():
    assert run(["frobnicate"]) == 64


def test_construct_larger_prime_smoke(tmp_path):
    out = tmp_path / "cert11.json"
    assert run(["construct", "--prime", "11", "--seed", "1", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def test_certificate_file_is_versioned_json(tmp_path):
    out = tmp_path / "c.json"
    assert run(["construct", "--prime", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format_version"] == 1
    assert isinstance(doc["q1"], str)
    parsed = parse(out.read_text())
    assert parsed.p == 5


def test_construct_defaults_are_the_search_config_defaults(tmp_path, monkeypatch):
    class Stop(Exception):
        pass

    configs = []

    def recording(p, config):
        configs.append(config)
        raise Stop

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "construct", recording)
    with pytest.raises(Stop):
        run(["construct", "--prime", "5"])
    assert configs == [SearchConfig()]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--x-window", "0"),
        ("--d-range", "-5"),
        ("--workers", "-3"),
        ("--seed", "-1"),
        ("--budget", "-1"),
        # no longer a flag: the bound is always
        # default_sieve_bound(forms, x_window)
        ("--sieve-bound", "30000"),
    ],
)
def test_search_flags_below_their_least_value_are_usage_errors(
    tmp_path, capsys, flag, value
):
    out = tmp_path / "never.json"
    code = run(["construct", "--prime", "5", flag, value, "--out", str(out)])
    assert code == 64
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert not out.exists()


def test_out_of_memory_exits_71_with_one_line(tmp_path, monkeypatch, capsys):
    def exhausted(p, config):
        raise MemoryError

    monkeypatch.setattr(cli, "construct", exhausted)
    out = tmp_path / "never.json"
    code = run(["construct", "--prime", "5", "--x-window", "4000000000",
                "--out", str(out)])
    assert code == 71
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"
    assert not out.exists()


def test_workers_above_the_cpu_count_are_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "never.json"
    workers = str((os.cpu_count() or 1) + 1)
    code = run(["construct", "--prime", "5", "--workers", workers, "--out", str(out)])
    assert code == 64
    err = capsys.readouterr().err
    assert "usage error" in err and "--workers" in err and workers in err
    assert not out.exists()


def test_workers_without_libcrypto_warn_and_write_the_one_worker_bytes(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(primality, "kernel", lambda: None)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one, two = tmp_path / "w1.json", tmp_path / "w2.json"
    assert run(["construct", "--prime", "13", "--out", str(one)]) == 0
    assert capsys.readouterr().err == ""
    assert run(["construct", "--prime", "13", "--workers", "2", "--out", str(two)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: --workers"), err
    assert two.read_bytes() == one.read_bytes()


REFERENCE_DIGESTS = (
    Path(__file__).resolve().parents[1] / "perfbench" / "data" / "inputs.json"
)
LADDER_FLAGS = ["--seed", "1", "--d-range", "100000", "--x-window", "16384"]


@pytest.mark.parametrize(
    "argv, native",
    [
        (["construct", "--prime", "5", *LADDER_FLAGS], True),
        (["construct", "--prime", "7", *LADDER_FLAGS], True),
        (["construct", "--prime", "13", *LADDER_FLAGS], True),
        (["construct", "--prime", "11", "--seed", "1"], True),
        (["construct", "--prime", "31", *LADDER_FLAGS], True),
        # the same bytes where OpenSSL's modular exponentiation is absent
        (["construct", "--prime", "13", *LADDER_FLAGS], False),
    ],
    ids=["p5-ladder", "p7-ladder", "p13-ladder", "p11-default", "p31-ladder",
         "p13-ladder-builtin-pow"],
)
def test_certificate_bytes_match_the_stored_reference(
    tmp_path, monkeypatch, argv, native
):
    if not native:
        monkeypatch.setattr(primality, "kernel", lambda: None)
    reference = json.loads(REFERENCE_DIGESTS.read_text())["reference_sha256"]
    out = tmp_path / "cert.json"
    assert run([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference[" ".join(argv)]
