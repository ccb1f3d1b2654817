"""In-memory spans around the public layer functions of locyc.

A traced pass replaces each function at the module attribute the
program looks it up through (``locyc.prime_search.is_prime``,
``locyc.cli.search`` and so on) by a wrapper that records a span: name,
start, end, parent span and the id of the benchmark operation that
caused it.  Spans stay in memory until the run ends, when ``run.py``
writes them out.  ``Tracer.unwrap`` puts the original functions back
after each traced pass, so untraced passes run unwrapped code.

Calls made in worker processes of the search's process pool are not
recorded: a forked worker inherits the wrappers, but they pass straight
through when they find themselves in another process.
"""

from __future__ import annotations

import functools
import os
import time

# (module, attribute, span name).  A function imported by name into
# another module is looked up there, so it is wrapped at every site the
# construct and verify paths use, under one span name.
WRAP_SITES = (
    ("locyc.cli", "main", "cli.main"),
    ("locyc.cli", "build_bundle", "tate_series.build_bundle"),
    ("locyc.cli", "build_targets", "target_builder.build_targets"),
    ("locyc.cli", "linear_forms", "target_builder.linear_forms"),
    ("locyc.cli", "search", "prime_search.search"),
    ("locyc.cli", "build_certificate", "certificate.build_certificate"),
    ("locyc.cli", "verify_certificate", "certificate.verify_certificate"),
    ("locyc.cli", "emit", "certificate.emit"),
    ("locyc.cli", "parse", "certificate.parse"),
    ("locyc.prime_search", "is_prime", "prime_search.is_prime"),
    ("locyc.certificate", "is_prime", "certificate.is_prime"),
    ("locyc.certificate", "hensel_lift", "padic.hensel_lift"),
    ("locyc.tate_series", "build_bundle", "tate_series.build_bundle"),
    ("locyc.tate_series", "cubic_coefficients", "tate_series.cubic_coefficients"),
    ("locyc.curve_model", "reduction_type", "curve_model.reduction_type"),
    ("locyc.curve_model", "count_points_mod_ell", "curve_model.count_points_mod_ell"),
)

# spans whose arguments and result the per-layer metrics inspect
_KEEP_ARGS = {"prime_search.search", "prime_search.is_prime", "certificate.is_prime"}
# spans that also record the parent process's CPU time
_CPU_SPANS = {"prime_search.search"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "args", "result",
                 "cpu_start", "cpu_end")

    def __init__(self, name, start, end=0.0, parent=None, op=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, or None
        self.op = op
        self.args = None
        self.result = None
        self.cpu_start = self.cpu_end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches = []

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        keep = name in _KEEP_ARGS
        cpu = name in _CPU_SPANS
        spans, stack, pid = self.spans, self._stack, self._pid
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return original(*args, **kwargs)
            span = Span(name, 0.0, parent=stack[-1] if stack else None, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            if keep:
                span.args = args
            if cpu:
                span.cpu_start = time.process_time()
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                if cpu:
                    span.cpu_end = time.process_time()
                stack.pop()
            if keep:
                span.result = result
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def wrap_all(self, modules: dict) -> None:
        for module_name, attr, name in WRAP_SITES:
            self.wrap(modules[module_name], attr, name)

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Overlapping children are merged first, so no instant is subtracted
    twice, and child time outside the parent's interval is ignored.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


def form_role(forms, n: int) -> str:
    """Which linear form n is a value of: "q3", "window" (Q1 or Q2) or
    "other".  Q3 membership is tested first."""
    if (n - forms.q3_constant) % forms.q3_coefficient == 0:
        return "q3"
    coeff = forms.q12_coefficient
    if (n - forms.q1_constant) % coeff == 0 or (n - forms.q2_constant) % coeff == 0:
        return "window"
    return "other"


SIZE_LIMITS = ((64, "le64"), (256, "le256"), (512, "le512"), (1024, "le1024"))
SIZE_LABELS = tuple(label for _, label in SIZE_LIMITS) + ("gt1024",)


def size_bucket(bits: int) -> str:
    for limit, label in SIZE_LIMITS:
        if bits <= limit:
            return label
    return "gt1024"


def is_prime_roles(spans: list[Span]) -> list[str | None]:
    """Role of every ``prime_search.is_prime`` span (None for other spans).

    The role comes from form membership of the tested value under the
    enclosing search's forms, except that the last three tests of a
    search that returned a hit are its evidence re-tests.
    """
    roles: list[str | None] = [None] * len(spans)
    by_search: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.name != "prime_search.is_prime" or span.parent is None:
            continue
        parent = spans[span.parent]
        if parent.name != "prime_search.search":
            continue
        roles[i] = form_role(parent.args[0], span.args[0])
        by_search.setdefault(span.parent, []).append(i)
    for s, tests in by_search.items():
        if spans[s].result is not None:
            for i in tests[-3:]:
                roles[i] = "evidence"
    return roles
