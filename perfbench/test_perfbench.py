"""Self-tests of the benchmark's arithmetic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Span, form_role, is_prime_roles, self_times  # noqa: E402


def test_tracer_keeps_parents_across_traced_passes():
    from types import SimpleNamespace

    from spans import Tracer

    mod = SimpleNamespace()
    mod.inner = lambda: None
    mod.outer = lambda: mod.inner()
    tracer = Tracer()
    for op in ("1:0", "2:0"):
        tracer.wrap(mod, "outer", "outer")
        tracer.wrap(mod, "inner", "inner")
        tracer.op = op
        mod.outer()
        tracer.unwrap()
    mod.outer()  # unwrapped: records nothing
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("outer", None, "1:0"), ("inner", 0, "1:0"),
                     ("outer", None, "2:0"), ("inner", 2, "2:0")]


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent=parent, op=0)


def test_self_time_of_a_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: [1, 6] is covered once
        _span("c", 8.0, 12.0, parent=0),  # only [8, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


@pytest.fixture(scope="module")
def forms5():
    from locyc.target_builder import build_targets, linear_forms
    from locyc.tate_series import build_bundle

    return linear_forms(build_targets(build_bundle(5)))


def test_form_role_on_the_p5_forms(forms5):
    for d in (0, 1, 17, 4095):
        assert form_role(forms5, forms5.q3_at(d)) == "q3"
    for x in (0, 1, 2, 9999):
        assert form_role(forms5, forms5.q1_at(x)) == "window"
        assert form_role(forms5, forms5.q2_at(x)) == "window"
    assert form_role(forms5, forms5.q3_at(5) + 1) == "other"
    assert form_role(forms5, forms5.q1_at(3) + 2) == "other"


def _search_tree(forms, hit: bool):
    from locyc.prime_search import SearchConfig

    search = _span("prime_search.search", 0.0, 1.0)
    search.args = (forms, None, SearchConfig())
    search.result = (12, 3, ()) if hit else None
    tested = [forms.q3_at(9), forms.q1_at(12), forms.q2_at(3),
              forms.q1_at(12), forms.q2_at(3), forms.q3_at(9)]
    spans = [search]
    for i, n in enumerate(tested):
        span = _span("prime_search.is_prime", 0.1 * i, 0.1 * i + 0.05, parent=0)
        span.args = (n,)
        spans.append(span)
    return spans


def test_roles_mark_the_last_three_tests_of_a_hit_as_evidence(forms5):
    roles = is_prime_roles(_search_tree(forms5, hit=True))
    assert roles == [None, "q3", "window", "window", "evidence", "evidence", "evidence"]


def test_roles_without_a_hit_have_no_evidence(forms5):
    roles = is_prime_roles(_search_tree(forms5, hit=False))
    assert roles == [None, "q3", "window", "window", "window", "window", "q3"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(100, 0, -1)) == (90, 90.0, 100)
    value, pct, n = run.tail(range(1, 57))
    assert (value, n) == (46, 56)
    assert pct == pytest.approx(100 * 46 / 56)
    assert sum(1 for v in range(1, 57) if v > value) == 10


def test_tail_of_ten_samples_or_fewer_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail(range(10)) == (9, 100.0, 10)


def test_per_layer_reports_every_declared_metric(forms5):
    spans = _search_tree(forms5, hit=True)
    from locyc.prime_search import is_prime

    for span in spans[1:]:
        span.result = is_prime(span.args[0])
    op = type("Op", (), {"kind": "construct", "workers": 1})()
    stats = dict.fromkeys(run.STAT_FIELDS, 1)
    passes = [[{"op": op, "seconds": 1.0, "stats": stats, "rc": 0, "stop": "hit"}]]
    values = run.per_layer(spans, passes, 0.0, [1.0], [1.1])
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(values) == sorted(declared)
    assert values["prime_search.is_prime.evidence.calls"] == 3
    assert values["prime_search.search.stopped_hit"] == 1


def test_default_flags_at_p41_stop_at_the_end_of_the_d_list(tmp_path):
    from locyc import cli

    capture = run.capture_search_stats()
    argv = ["construct", "--prime", "41", "--seed", "1"]
    rc = cli.main(argv + ["--out", str(tmp_path / "c.json")])
    stats = capture.records[-1]
    assert rc == 2
    assert stats["tests_used"] < 200000
    assert run.stop_reason(cli, argv, rc, stats) == "d_list_end"


def test_per_operation_splits_each_construct_by_role(forms5):
    spans = _search_tree(forms5, hit=True)
    for span in spans:
        span.op = (1, "construct --prime 5")
    row = run.per_operation(spans, 1)["construct --prime 5"]
    assert row["is_prime.q3.calls"] == 1
    assert row["is_prime.window.calls"] == 2
    assert row["is_prime.evidence.calls"] == 3
    assert row["search.s"] == pytest.approx(1.0)
    assert row["search.self_s"] == pytest.approx(1.0 - 6 * 0.05)
