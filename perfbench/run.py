#!/usr/bin/env python3
"""Benchmark of the locyc certificate factory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives ``locyc.cli.main`` in this process with the ``construct`` and
``verify`` argv a user would type, as a closed loop with one client.
A run starts another pass of its workload until ``--seconds`` have
passed, so it measures at least that long unless the verify workload
runs out of certificates; it checks every output and prints as
its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer
ones, taken from traced passes that alternate with untraced ones.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.  The full
report of a run (environment, every operation's argv, exit code, search
statistics and certificate digest) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MODULES = (
    "locyc.cli",
    "locyc.prime_search",
    "locyc.certificate",
    "locyc.curve_model",
    "locyc.tate_series",
)

sys.path.insert(0, str(HERE))
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

STAT_FIELDS = (
    "d_examined", "q3_primes", "windows_sieved", "survivors_tested", "tests_used",
)


class SetupError(RuntimeError):
    """The program to benchmark is not where the benchmark expects it."""


# ---------------------------------------------------------------------------
# statistics


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it.  With ten samples or fewer no percentile
    qualifies; the maximum is returned and labelled percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


# ---------------------------------------------------------------------------
# set-up


def import_locyc() -> dict:
    """Import the locyc modules afresh from ``src/``."""
    if not (SRC / "locyc" / "__init__.py").is_file():
        raise SetupError(f"no locyc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "locyc" or n.startswith("locyc.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in MODULES}
    origin = Path(sys.modules["locyc"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"locyc was imported from {origin}, not from {SRC}")
    return modules


def prepare_inputs(name: str, seed: int) -> dict:
    """Load the workload's inputs into memory."""
    inputs = workloads.load_inputs()
    if name != "verify":
        return {"ops": workloads.construct_ops(name, inputs, seed), "inputs": inputs}
    return {"groups": workloads.verify_groups(inputs, seed), "inputs": inputs,
            "texts": workloads.load_stored_certificates()}


def stage_verify_files(prepared: dict, workdir: Path) -> list[list]:
    """Write the verify workload's certificates as the files its argv name."""
    groups = []
    for group in prepared["groups"]:
        ops = []
        for p, s in group:
            path = workdir / f"p{p}-s{s}.json"
            path.write_text(prepared["texts"][f"p{p}-s{s}"])
            ops.append(workloads.Op("verify", ("verify", str(path)), p, s))
        groups.append(ops)
    return groups


class SearchStatsCapture(logging.Handler):
    """Keeps the arguments of each ``event=search_stats`` log record.

    The search logs that record on success and before it raises
    BudgetExhaustedError, so every construct that reaches the search
    leaves one.
    """

    def __init__(self):
        super().__init__(logging.INFO)
        self.records = []

    def emit(self, record):
        if isinstance(record.msg, str) and record.msg.startswith("event=search_stats"):
            self.records.append(dict(zip(STAT_FIELDS, record.args)))


def capture_search_stats() -> SearchStatsCapture:
    """Route the search's INFO records to a new capture, and only there."""
    capture = SearchStatsCapture()
    logger = logging.getLogger("locyc.prime_search")
    logger.setLevel(logging.INFO)
    logger.addHandler(capture)
    logger.propagate = False
    return capture


# ---------------------------------------------------------------------------
# operations


def stop_reason(cli, argv, rc: int, stats) -> str:
    """How a construct's search stopped: "hit"; "budget", the test budget
    ran out; "d_list_end", exit 2 with budget left, so the d list ended;
    or "error" for any other exit."""
    if rc == 0:
        return "hit"
    if rc != 2 or stats is None:
        return "error"
    budget = cli.build_parser().parse_args(list(argv)).budget
    return "budget" if stats["tests_used"] >= budget else "d_list_end"


class Runner:
    """Runs passes of one workload and keeps one report row per argv."""

    def __init__(self, modules: dict, prepared: dict, workdir: Path):
        self.modules = modules
        self.workdir = workdir
        self.inputs = prepared["inputs"]
        self.reference = self.inputs["reference_sha256"]
        self.groups = stage_verify_files(prepared, workdir) if "groups" in prepared else None
        self.ops = prepared.get("ops")
        self.capture = capture_search_stats()
        self.records: dict = {}  # op label -> report row
        self.attempted = 0
        self.failed = 0
        self.pass_index = 0

    @property
    def cli(self):
        return self.modules["locyc.cli"]

    def _call(self, argv) -> tuple[int, str, float]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = self.cli.main(list(argv))
            elapsed = time.perf_counter() - t0
        return rc, buf.getvalue(), elapsed

    def _verify_file(self, path: Path) -> bool:
        rc, out, _ = self._call(["verify", str(path)])
        return rc == 0 and "verdict: all checks passed" in out

    def _row(self, op) -> dict:
        return self.records.setdefault(
            " ".join(op.argv),
            {"argv": list(op.argv), "p": op.p, "seed": op.seed, "workers": op.workers,
             "seconds": [], "traced_seconds": []},
        )

    def _fail(self, row: dict, why: str) -> None:
        row.setdefault("failures", []).append(why)
        self.failed += 1

    def construct(self, index: int, op, checked: bool) -> dict:
        """Run one construct.  When ``checked``, a certificate not seen
        before in this run is re-parsed and re-verified through
        ``locyc verify`` and compared with the stored reference."""
        out = self.workdir / f"cert-{index}.json"
        before = len(self.capture.records)
        rc, _, elapsed = self._call([*op.argv, "--out", str(out)])
        self.attempted += 1
        stats = self.capture.records[-1] if len(self.capture.records) > before else None
        row = self._row(op)
        row["rc"] = rc
        row["stats"] = stats
        row["stop"] = stop_reason(self.cli, op.argv, rc, stats)
        result = {"op": op, "seconds": elapsed, "stats": stats, "rc": rc, "stop": row["stop"]}
        if rc != 0:
            self._fail(row, f"construct exited {rc}")
            return result
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if "sha256" in row:
            if digest != row["sha256"]:
                self._fail(row, "certificate bytes differ between passes")
        elif checked:
            row["sha256"] = digest
            if not self._verify_file(out):
                self._fail(row, "emitted certificate does not re-verify")
            self._compare_reference(op, row, digest)
        out.unlink()
        return result

    def _compare_reference(self, op, row: dict, digest: str) -> None:
        ref = self.reference.get(op.key)
        if ref == digest:
            row["reference"] = "match"
            return
        row["reference"] = "no stored reference" if ref is None else "search order changed"
        if op.workers > 1:
            # the certificate must not depend on the worker count
            argv = list(op.argv)
            argv[argv.index("--workers") + 1] = "1"
            out = self.workdir / "cert-one-worker.json"
            rc, _, _ = self._call([*argv, "--out", str(out)])
            if rc != 0 or hashlib.sha256(out.read_bytes()).hexdigest() != digest:
                self._fail(row, "certificate differs from the one-worker construct")
            out.unlink(missing_ok=True)

    def verify(self, op) -> dict:
        rc, out, elapsed = self._call(op.argv)
        self.attempted += 1
        row = self._row(op)
        row["rc"] = rc
        if rc != 0 or "verdict: all checks passed" not in out:
            self._fail(row, f"verify of a valid certificate returned {rc}")
        return {"op": op, "seconds": elapsed, "rc": rc}

    def run_pass(self, tracer=None) -> list[dict]:
        """One pass; returns one result per operation, in order."""
        checked = tracer is None
        if self.groups is not None:
            ops = self.groups[self.pass_index]
        else:
            ops = self.ops
        self.pass_index += 1
        results = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = (self.pass_index, " ".join(op.argv))
            if op.kind == "construct":
                # traced passes run each construct once, so the layer
                # totals are those of one ladder
                repeats = op.repeats if tracer is None else 1
                timed = [self.construct(i, op, checked) for _ in range(repeats)]
                result = dict(timed[-1], seconds=statistics.median(r["seconds"] for r in timed))
            else:
                result = self.verify(op)
            self._row(op)["traced_seconds" if tracer else "seconds"].append(result["seconds"])
            results.append(result)
        return results

    def passes_left(self) -> float:
        """Verify passes use each certificate group once; construct passes repeat."""
        return len(self.groups) - self.pass_index if self.groups is not None else math.inf


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list[list[dict]], setup: list[float]) -> dict:
    per_op: dict = {}
    for results in passes:
        for r in results:
            per_op.setdefault(" ".join(r["op"].argv), []).append(r["seconds"])
    samples = [statistics.median(v) for v in per_op.values()]
    tail_value, tail_pct, n = tail(samples)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "values": {
            "ops_s": statistics.median(sum(r["seconds"] for r in res) for res in passes),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail_value,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": (self_rss + child_rss) / 1024.0,
        },
        "notes": {
            "passes": len(passes),
            "op_samples": n,
            "op_tail_percentile": round(tail_pct, 2),
            "op_tail_rule": "highest percentile with at least ten samples beyond it"
            if n > 10 else "maximum: ten samples or fewer",
        },
    }


def _sieve_primes(limit: int) -> list[int]:
    """Primes up to ``limit``; the search's own sieve is private to it."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


def task_bytes(forms, config) -> int:
    """Computed, not measured: pickled size of one pool task's arguments,
    the form constants, the window width and the sieve-prime list."""
    task = (0, forms.q1_constant, forms.q2_constant, forms.q3_constant,
            forms.q12_coefficient, forms.q3_coefficient, config.x_window,
            _sieve_primes(config.sieve_bound))
    return len(pickle.dumps(task))


def per_layer(spans, traced_passes: list[list[dict]], child_cpu_s: float,
              untraced_s: list[float], traced_s: list[float]) -> dict:
    """Per-layer metrics of one traced pass: totals over the traced
    passes divided by their number; ratios of those totals."""
    by_name: dict = {}
    for span, self_s in zip(spans, tracing.self_times(spans)):
        agg = by_name.setdefault(span.name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += span.duration
        agg[2] += self_s
    m: dict = {}

    def layer(name, *fields):
        calls, secs, self_s = by_name.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "s": secs, "self_s": self_s}
        for field in fields:
            m[f"{name}.{field}"] = values[field]

    layer("prime_search.search", "calls", "s", "self_s")
    results = [r for res in traced_passes for r in res if r["op"].kind == "construct"]
    searched = [r for r in results if r["stats"] is not None]
    for field in STAT_FIELDS:
        m[f"prime_search.search.{field}"] = sum(r["stats"][field] for r in searched)
    for reason in ("hit", "budget", "d_list_end"):
        m[f"prime_search.search.stopped_{reason}"] = sum(
            1 for r in results if r["stop"] == reason)

    roles = tracing.is_prime_roles(spans)
    for role in ("q3", "window", "evidence"):
        m[f"prime_search.is_prime.{role}.calls"] = 0
        m[f"prime_search.is_prime.{role}.s"] = 0.0
    for verdict in ("composite", "prime"):
        for label in tracing.SIZE_LABELS:
            m[f"prime_search.is_prime.{verdict}.{label}.calls"] = 0
            m[f"prime_search.is_prime.{verdict}.{label}.s"] = 0.0
    for span, role in zip(spans, roles):
        if role in ("q3", "window", "evidence"):
            m[f"prime_search.is_prime.{role}.calls"] += 1
            m[f"prime_search.is_prime.{role}.s"] += span.duration
        if span.name in ("prime_search.is_prime", "certificate.is_prime") and span.result:
            verdict = "prime" if span.result.is_prime_enough() else "composite"
            bucket = tracing.size_bucket(span.args[0].bit_length())
            m[f"prime_search.is_prime.{verdict}.{bucket}.calls"] += 1
            m[f"prime_search.is_prime.{verdict}.{bucket}.s"] += span.duration

    pool = [s for s in spans
            if s.name == "prime_search.search" and s.args[2].worker_count > 1]
    m["prime_search.pool.tasks"] = sum(
        r["stats"]["d_examined"] for r in searched if r["op"].workers > 1)
    m["prime_search.pool.child_cpu_s"] = child_cpu_s if pool else 0.0
    m["prime_search.pool.parent_wait_s"] = sum(
        s.duration - (s.cpu_end - s.cpu_start) for s in pool)

    layer("certificate.verify_certificate", "calls", "s", "self_s")
    for name in ("certificate.is_prime", "certificate.build_certificate",
                 "certificate.emit", "certificate.parse",
                 "tate_series.build_bundle", "tate_series.cubic_coefficients",
                 "target_builder.build_targets", "target_builder.linear_forms"):
        layer(name, "s")
    for name in ("curve_model.reduction_type", "curve_model.count_points_mod_ell",
                 "padic.hensel_lift"):
        layer(name, "calls", "s")
    layer("cli.main", "self_s")

    n_passes = len(traced_passes)
    m = {k: v / n_passes for k, v in m.items()}
    d_examined = m["prime_search.search.d_examined"]
    survivors = m["prime_search.search.survivors_tested"]
    m["prime_search.search.q3_prime_ratio"] = (
        m["prime_search.search.q3_primes"] / d_examined if d_examined else 0.0)
    m["prime_search.search.window_yield"] = (
        m["prime_search.search.stopped_hit"] / survivors if survivors else 0.0)
    m["prime_search.pool.bytes_per_task_computed"] = (
        statistics.mean(task_bytes(s.args[0], s.args[2]) for s in pool) if pool else 0)
    m["bench.untraced_pass_s"] = statistics.median(untraced_s)
    m["bench.traced_pass_s"] = statistics.median(traced_s)
    m["bench.trace_overhead_s"] = m["bench.traced_pass_s"] - m["bench.untraced_pass_s"]
    return m


def per_operation(spans, n_passes: int) -> dict:
    """Search time and the search's ``is_prime`` split by role for each
    operation, per traced pass."""
    out: dict = {}
    for span, role, self_s in zip(spans, tracing.is_prime_roles(spans),
                                  tracing.self_times(spans)):
        row = out.setdefault(span.op[1], {})
        if span.name == "prime_search.search":
            fields = (("search.s", span.duration), ("search.self_s", self_s))
        elif role is not None:
            fields = ((f"is_prime.{role}.calls", 1), (f"is_prime.{role}.s", span.duration))
        else:
            continue
        for key, value in fields:
            row[key] = row.get(key, 0) + value / n_passes
    return {label: row for label, row in out.items() if row}


# ---------------------------------------------------------------------------
# environment


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: the checkout is not a git repository"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown: {exc}"
    return done.stdout.strip() or "unknown"


def environment(args, runner: Runner, removed_env: dict) -> dict:
    if runner.groups is not None:
        argvs = [list(op.argv) for group in runner.groups for op in group]
    else:
        argvs = [list(op.argv) + ["--out", "<file>"] for op in runner.ops]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "removed_from_environment": removed_env,
        "argv": argvs,
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(args, workdir: Path, removed_env: dict) -> tuple[dict, dict, list]:
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        modules = import_locyc()
        prepared = prepare_inputs(args.workload, args.seed)
        setup.append(time.perf_counter() - t0)
    runner = Runner(modules, prepared, workdir)

    start = time.perf_counter()
    untraced, traced, untraced_s, traced_s = [], [], [], []
    tracer = tracing.Tracer()
    child_cpu = 0.0
    while True:
        results = runner.run_pass()
        untraced.append(results)
        untraced_s.append(sum(r["seconds"] for r in results))
        if args.trace and runner.passes_left() > 0:
            tracer.wrap_all(modules)
            ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            try:
                results = runner.run_pass(tracer)
            finally:
                tracer.unwrap()
            ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            child_cpu += (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
            traced.append(results)
            traced_s.append(sum(r["seconds"] for r in results))
        if runner.passes_left() <= 0 or time.perf_counter() - start >= args.seconds:
            break

    report = {
        "environment": environment(args, runner, removed_env),
        "operations": list(runner.records.values()),
        "setup_s": setup,
    }
    if args.trace:
        if not traced:
            raise SetupError("the workload has too few passes for a traced pass")
        values = per_layer(tracer.spans, traced, child_cpu, untraced_s, traced_s)
        report["per_layer"] = values
        report["per_operation"] = per_operation(tracer.spans, len(traced))
    else:
        e2e = end_to_end(untraced, setup)
        values = e2e["values"]
        report["end_to_end"] = e2e
    report["attempted"] = runner.attempted
    report["failed"] = runner.failed
    return values, report, tracer.spans


def write_spans(path: Path, spans: list) -> None:
    """All spans of the traced passes, times relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    rows = [[s.name, s.start - t0, s.end - t0, s.parent, s.op] for s in spans]
    path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op"],
                                "spans": rows}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    # the worker count comes from each argv alone, never from the caller's
    # environment
    removed_env = {}
    if "LOCYC_WORKERS" in os.environ:
        removed_env["LOCYC_WORKERS"] = os.environ.pop("LOCYC_WORKERS")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        values, report, spans = measure(args, workdir, removed_env)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for spec in declared_metrics(args.trace):
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    if args.trace:
        write_spans(report_path.with_suffix(".spans.json"), spans)

    print(json.dumps({"environment": report["environment"]}))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for label, row in report.get("per_operation", {}).items():
        print(f"{label}: " + ", ".join(f"{k} {v:.6g}" for k, v in row.items()))
    if not args.trace:
        notes = report["end_to_end"]["notes"]
        print(f"passes {notes['passes']}; op_tail_s is p{notes['op_tail_percentile']} "
              f"of {notes['op_samples']} operation samples ({notes['op_tail_rule']})")
    print(f"report: {report_path.relative_to(ROOT)}")
    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
