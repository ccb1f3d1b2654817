#!/usr/bin/env python3
"""Regenerate ``perfbench/data`` from measured constructs.

    python3 perfbench/make_data.py survey PRIMES FIRST-LAST [FLAG ...] > rows.jsonl
    python3 perfbench/make_data.py build LADDER_ROWS SMALL_P_ROWS

``survey`` runs ``locyc construct --prime P --seed S [FLAG ...]`` in this
process for every prime in the comma-separated PRIMES and every seed in
FIRST..LAST, and prints one JSON row per construct: exit code, wall
seconds, search statistics, certificate sha256 and certificate text.
Run it on an otherwise idle machine, one survey at a time.

``build`` reads the rows of surveys made with the ladder flags
(``--d-range 100000 --x-window 16384 --workers 1``, primes 5..53,
concatenated into one file) and of one made at default flags (primes
5..23), and writes

- ``data/inputs.json``: the search-seed pools of the ``ladder`` and
  ``small-p`` workloads, the groups of the ``verify`` workload and the
  reference sha256 of every certificate a workload can construct;
- ``data/verify_certs.json.gz``: the certificates the ``verify``
  workload verifies.

Pool rule.  Search cost at one prime varies several-fold with the
search seed, so the ``small-p`` pool of a prime holds every seed whose search sieved
the prime's median number of windows and used within SMALL_P_BAND of
the median number of primality tests among those.  Workload seed 1 runs
search seeds 1..8 instead, which must succeed at default flags.  The rule reads only the search
counters, which do not depend on the machine.  The workload seed then
varies the certificates and search paths but little the amount of
work.  Every seed in a pool succeeded at default flags.  The ladder workloads use
search seed 1 only; the verify groups use the first VERIFY_GROUPS seeds
for which every ladder prime was constructed.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SMALL_P_BAND = 0.2
VERIFY_GROUPS = 24


def survey(primes: list[int], seeds: range, flags: list[str]) -> None:
    import run

    cli = run.import_locyc()["locyc.cli"]
    capture = run.capture_search_stats()
    out = run.OUT / "survey-cert.json"
    out.parent.mkdir(exist_ok=True)
    for seed in seeds:
        for p in primes:
            argv = ["construct", "--prime", str(p), "--seed", str(seed), *flags]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = cli.main(argv + ["--out", str(out)])
                elapsed = time.perf_counter() - t0
            row = {"p": p, "seed": seed, "argv": argv, "rc": rc, "t": elapsed,
                   "stats": capture.records[-1]}
            if rc == 0:
                text = out.read_text()
                row["sha256"] = hashlib.sha256(text.encode()).hexdigest()
                row["cert"] = text
            print(json.dumps(row), flush=True)
    out.unlink(missing_ok=True)


def _rows(path: str) -> dict:
    with open(path) as fh:
        return {(r["p"], r["seed"]): r for r in map(json.loads, fh)}


def _key(row: dict) -> str:
    return workloads.Op("construct", tuple(row["argv"]), row["p"], row["seed"]).key


def build(ladder_path: str, small_path: str) -> None:
    ladder, small = _rows(ladder_path), _rows(small_path)
    inputs = {"small_p_pools": {}, "verify_groups": [], "reference_sha256": {}}

    for p in workloads.LADDER:
        row = ladder[(p, workloads.LADDER_SEARCH_SEED)]
        inputs["reference_sha256"][_key(row)] = row["sha256"]

    for p in workloads.SMALL_P:
        rows = {s: r for (q, s), r in small.items() if q == p}
        first = list(range(1, workloads.SMALL_P_SEEDS_PER_PRIME + 1))
        if any(rows[s]["rc"] != 0 for s in first):
            raise SystemExit(f"a baseline seed fails at p = {p}")
        stats = {s: r["stats"] for s, r in rows.items() if r["rc"] == 0}
        windows = int(statistics.median(st["windows_sieved"] for st in stats.values()))
        tests = statistics.median(
            st["tests_used"] for st in stats.values() if st["windows_sieved"] == windows)
        pool = sorted(
            s for s, st in stats.items()
            if st["windows_sieved"] == windows and abs(st["tests_used"] - tests) <= SMALL_P_BAND * tests)
        inputs["small_p_pools"][str(p)] = pool
        for s in sorted(set(first + pool)):
            inputs["reference_sha256"][_key(rows[s])] = rows[s]["sha256"]

    certs = {}
    seeds = sorted({s for (_, s) in ladder})
    for s in seeds:
        if len(inputs["verify_groups"]) == VERIFY_GROUPS:
            break
        if all(ladder.get((p, s), {}).get("rc") == 0 for p in workloads.LADDER):
            inputs["verify_groups"].append([s] * len(workloads.LADDER))
            for p in workloads.LADDER:
                certs[f"p{p}-s{s}"] = ladder[(p, s)]["cert"]

    data = HERE / "data"
    data.mkdir(exist_ok=True)
    (data / "inputs.json").write_text(json.dumps(inputs, indent=1, sort_keys=True) + "\n")
    with gzip.GzipFile(data / "verify_certs.json.gz", "wb", mtime=0) as fh:
        fh.write(json.dumps(certs, sort_keys=True).encode())


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "survey":
        first, last = map(int, argv[2].split("-"))
        survey([int(p) for p in argv[1].split(",")], range(first, last + 1), argv[3:])
        return 0
    if len(argv) == 3 and argv[0] == "build":
        build(argv[1], argv[2])
        return 0
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
