"""Unit tests for the offline analysis layer: critical-path blame on
handcrafted span trees, run diffing, tolerance specs and the perf-gate
comparison logic (ISSUE 4)."""

import importlib.util
import itertools
import json
import os

import pytest

from repro.obs import Telemetry, to_chrome_trace
from repro.obs.analysis import (
    OVERHEAD,
    analyze,
    check_tolerances,
    diff_runs,
    parse_tolerance_spec,
    profile_dict,
    profile_requests,
    render_analysis,
    render_diff,
    top_slowest,
)


def _request(tel, start, end, rid=1, app="MC", tenant="t0", gid=0):
    root = tel.start_span(
        f"request:{app}", cat="request", track=f"app:{app}",
        args={"app": app, "rid": rid, "tenant": tenant, "gid": gid},
        start=start,
    )
    root.finish(end)
    return root


def _child(tel, parent, cat, start, end=None):
    sp = tel.start_span(f"{cat}:x", cat=cat, parent=parent, start=start)
    if end is not None:
        sp.finish(end)
    return sp


# -- blame sweep on handcrafted trees ---------------------------------------


def test_blame_simple_partition_sums_to_total():
    tel = Telemetry()
    root = _request(tel, 0.0, 10.0)
    _child(tel, root, "queue", 0.0, 2.0)
    _child(tel, root, "kernel", 2.0, 6.0)

    p = profile_requests(tel)
    assert len(p.requests) == 1
    b = p.requests[0]
    assert b.phases == {"queue": pytest.approx(2.0), "kernel": pytest.approx(4.0)}
    assert b.unattributed_s == pytest.approx(4.0)
    assert sum(b.phases.values()) + b.unattributed_s == pytest.approx(b.total_s)
    assert b.dominant in ("kernel", OVERHEAD)  # 4.0 tie resolved by priority
    assert b.dominant == OVERHEAD  # ties keep the overhead default


def test_blame_nested_children_higher_priority_wins():
    tel = Telemetry()
    root = _request(tel, 0.0, 10.0)
    copy = _child(tel, root, "copy", 1.0, 9.0)
    # A kernel nested *inside* the copy span: grandchildren are walked
    # transitively, and kernel outranks copy wherever both are active.
    _child(tel, copy, "kernel", 3.0, 5.0)

    b = profile_requests(tel).requests[0]
    assert b.phases["kernel"] == pytest.approx(2.0)
    assert b.phases["copy"] == pytest.approx(6.0)
    assert b.unattributed_s == pytest.approx(2.0)


def test_blame_overlapping_siblings_masked_wait():
    tel = Telemetry()
    root = _request(tel, 0.0, 10.0)
    _child(tel, root, "queue", 0.0, 8.0)
    _child(tel, root, "kernel", 4.0, 10.0)

    b = profile_requests(tel).requests[0]
    # The queue wait masked by the running kernel is blamed on the kernel.
    assert b.phases["kernel"] == pytest.approx(6.0)
    assert b.phases["queue"] == pytest.approx(4.0)
    assert b.unattributed_s == pytest.approx(0.0)


def test_blame_zero_duration_children_contribute_nothing():
    tel = Telemetry()
    root = _request(tel, 0.0, 4.0)
    _child(tel, root, "kernel", 2.0, 2.0)
    _child(tel, root, "queue", 1.0, 1.0)

    b = profile_requests(tel).requests[0]
    assert b.phases == {}
    assert b.unattributed_s == pytest.approx(4.0)


def test_blame_children_clipped_to_request_window():
    tel = Telemetry()
    root = _request(tel, 2.0, 8.0)
    _child(tel, root, "kernel", 0.0, 10.0)  # overhangs both ends

    b = profile_requests(tel).requests[0]
    assert b.phases["kernel"] == pytest.approx(6.0)
    assert b.unattributed_s == pytest.approx(0.0)


def test_blame_ignores_unfinished_children():
    tel = Telemetry()
    root = _request(tel, 0.0, 6.0)
    _child(tel, root, "kernel", 1.0, end=None)  # never finished

    b = profile_requests(tel).requests[0]
    assert b.phases == {}
    assert b.unattributed_s == pytest.approx(6.0)


def test_orphaned_children_counted_not_blamed():
    tel = Telemetry()
    _request(tel, 0.0, 5.0)
    orphan = tel.start_span("kernel:x", cat="kernel", start=1.0)
    orphan.parent_id = 987654  # parent id matching no recorded span
    orphan.finish(2.0)

    p = profile_requests(tel)
    assert p.orphan_spans == 1
    assert p.requests[0].phases == {}
    assert p.requests[0].unattributed_s == pytest.approx(5.0)


def test_profile_aggregates_per_gpu_tenant_app():
    tel = Telemetry()
    r1 = _request(tel, 0.0, 4.0, rid=1, app="MC", tenant="t0", gid=0)
    _child(tel, r1, "kernel", 0.0, 3.0)
    r2 = _request(tel, 0.0, 6.0, rid=2, app="HI", tenant="t1", gid=1)
    _child(tel, r2, "copy", 1.0, 3.0)

    p = profile_requests(tel)
    assert p.total_s == pytest.approx(10.0)
    assert p.by_phase == {
        "kernel": pytest.approx(3.0), "copy": pytest.approx(2.0)
    }
    assert p.by_gpu[0]["kernel"] == pytest.approx(3.0)
    assert p.by_gpu[1][OVERHEAD] == pytest.approx(4.0)
    assert p.by_tenant["t1"]["copy"] == pytest.approx(2.0)
    assert p.by_app["MC"][OVERHEAD] == pytest.approx(1.0)
    # The serialised document preserves the partition invariant.
    doc = profile_dict(p)
    assert (
        sum(doc["per_phase"].values()) + doc["unattributed_s"]
        == pytest.approx(doc["total_s"])
    )


def test_top_slowest_orders_and_validates():
    tel = Telemetry()
    for rid, dur in ((1, 3.0), (2, 9.0), (3, 6.0)):
        _request(tel, 0.0, dur, rid=rid)
    p = profile_requests(tel)
    assert [b.rid for b in top_slowest(p, 2)] == [2, 3]
    with pytest.raises(ValueError, match="top-k must be > 0"):
        top_slowest(p, 0)


def test_render_analysis_mentions_overhead_and_phases():
    tel = Telemetry()
    root = _request(tel, 0.0, 10.0)
    _child(tel, root, "kernel", 0.0, 7.0)
    out = render_analysis(analyze(tel))
    assert "scheduler overhead (unattributed): 3.0000s" in out
    assert "per-phase blame" in out
    assert "top-1 slowest" in out


# -- run diffing ------------------------------------------------------------


def _doc(kernel, queue, total, p50, p99, placements):
    return {
        "analysis": {
            "requests": 4,
            "total_s": total,
            "unattributed_s": total - kernel - queue,
            "per_phase": {"kernel": kernel, "queue": queue},
        },
        "histograms": {
            "request.completion_s{app=MC}": {
                "p50": p50, "p99": p99, "mean": p50, "count": 4,
            },
        },
        "decisions": {
            "placements": placements,
            "switches": 1,
            "policy_mix": {"GMin": placements},
        },
        "slo": [{"target": "MC<2.5s", "violations": 1, "compliance": 0.75}],
    }


def test_diff_runs_is_antisymmetric():
    a = _doc(kernel=5.0, queue=2.0, total=10.0, p50=1.0, p99=4.0, placements=4)
    b = _doc(kernel=7.0, queue=1.0, total=11.0, p50=1.5, p99=3.0, placements=6)
    ab, ba = diff_runs(a, b), diff_runs(b, a)
    for cat in ("kernel", "queue", OVERHEAD):
        assert ab["phases"][cat]["delta"] == pytest.approx(
            -ba["phases"][cat]["delta"]
        )
    assert ab["total_latency_s"]["delta"] == pytest.approx(
        -ba["total_latency_s"]["delta"]
    )
    series = "request.completion_s{app=MC}"
    assert ab["latency"][series]["p99"]["delta"] == pytest.approx(
        -ba["latency"][series]["p99"]["delta"]
    )
    assert ab["decision_mix"]["GMin"]["delta"] == 2
    assert ab["slo"]["MC<2.5s"]["violations"]["delta"] == 0


def test_diff_identical_runs_is_all_zero_and_renders():
    a = _doc(kernel=5.0, queue=2.0, total=10.0, p50=1.0, p99=4.0, placements=4)
    delta = diff_runs(a, a, base_label="base", other_label="same")
    assert delta["total_latency_s"]["delta"] == 0.0
    assert all(d["delta"] == 0.0 for d in delta["phases"].values())
    out = render_diff(delta)
    assert "base -> same" in out
    assert "per-phase blame shift" in out
    assert check_tolerances(delta, {"default": 0.0}) == []


# -- tolerance specs --------------------------------------------------------


def test_parse_tolerance_spec_happy_path():
    assert parse_tolerance_spec("kernel=0.05,p99=0.1, default=0") == {
        "kernel": 0.05, "p99": 0.1, "default": 0.0,
    }


@pytest.mark.parametrize(
    "spec,msg",
    [
        ("", "empty tolerance spec"),
        ("  ,  ", "empty tolerance spec"),
        ("kernel", "expected KEY=FRACTION"),
        ("=0.5", "empty key"),
        ("kernel=fast", "expected a number"),
        ("kernel=1.5", "must be in \\[0, 1\\]"),
    ],
)
def test_parse_tolerance_spec_rejects(spec, msg):
    with pytest.raises(ValueError, match=msg):
        parse_tolerance_spec(spec)


def test_check_tolerances_flags_excess_drift():
    a = _doc(kernel=5.0, queue=2.0, total=10.0, p50=1.0, p99=4.0, placements=4)
    b = _doc(kernel=6.0, queue=2.0, total=11.0, p50=1.0, p99=4.0, placements=4)
    delta = diff_runs(a, b)
    failures = check_tolerances(delta, {"kernel": 0.05})
    assert len(failures) == 1
    assert "phase kernel" in failures[0] and "tolerance 5.0%" in failures[0]
    # A named tolerance wide enough — or no tolerance at all — passes.
    assert check_tolerances(delta, {"kernel": 0.5}) == []
    assert check_tolerances(delta, {"p99": 0.0}) == []


# -- Chrome-trace byte determinism ------------------------------------------


def _seeded_run(tel):
    import repro.apps.models as models
    from repro.apps import app_by_short
    from repro.cluster import build_small_server
    from repro.harness.runner import run_stream_experiment, system_factories
    from repro.sim.rng import RandomStream
    from repro.workloads import exponential_stream

    # Request ids are process-global; pin them so the two runs are
    # *identical*, not merely equivalent.
    models._req_ids = itertools.count(1)
    streams = [
        exponential_stream(app_by_short("MC"), RandomStream(7, "det"), 4, 1.2),
        exponential_stream(app_by_short("BS"), RandomStream(8, "det"), 3, 1.2),
    ]
    run_stream_experiment(
        system_factories()["GMin-Strings"], streams, build_small_server,
        label="det", telemetry=tel,
    )


def test_chrome_trace_export_is_byte_deterministic():
    docs = []
    for _ in range(2):
        tel = Telemetry()
        _seeded_run(tel)
        docs.append(json.dumps(to_chrome_trace(tel), sort_keys=True).encode())
    assert docs[0] == docs[1]
    assert b'"traceEvents"' in docs[0]


def test_analysis_blame_sums_on_real_run():
    tel = Telemetry()
    _seeded_run(tel)
    doc = analyze(tel)
    assert doc["requests"] == 7
    covered = sum(doc["per_phase"].values()) + doc["unattributed_s"]
    # Acceptance bar: blame partitions the measured latency within 1%.
    assert covered == pytest.approx(doc["total_s"], rel=0.01)
    assert doc["per_phase"].get("kernel", 0.0) > 0.0
    assert doc["per_phase"].get("cpu", 0.0) > 0.0


# -- perf-gate comparison logic ---------------------------------------------


def _perf_gate():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "perf_gate.py",
    )
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_perf_gate_compare_exact_pass_and_drift_fail():
    pg = _perf_gate()
    base = {"scenarios": {"s": {"sim": {"phase_kernel_s": 10.0, "requests": 6.0},
                                "wall_s_advisory": 1.0}}}
    same = {"s": {"sim": {"phase_kernel_s": 10.0, "requests": 6.0},
                  "wall_s_advisory": 9.0}}  # wall drift is advisory only
    diff = pg.compare(base, same, {})
    assert diff["failures"] == []

    drift = {"s": {"sim": {"phase_kernel_s": 11.0, "requests": 6.0}}}
    diff = pg.compare(base, drift, {})
    assert len(diff["failures"]) == 1
    assert "s.phase_kernel_s" in diff["failures"][0]
    assert "FAIL" in pg.render_check(diff)
    # Wide-enough tolerance clears it.
    assert pg.compare(base, drift, {"phase_kernel_s": 0.2})["failures"] == []
    assert pg.compare(base, drift, {"default": 0.15})["failures"] == []


def test_perf_gate_compare_flags_metric_and_scenario_churn():
    pg = _perf_gate()
    base = {"scenarios": {"s": {"sim": {"a": 1.0}}, "gone": {"sim": {}}}}
    fresh = {"s": {"sim": {"a": 1.0, "b": 2.0}}}
    failures = pg.compare(base, fresh, {})["failures"]
    assert any("s.b" in f and "re-record" in f for f in failures)
    assert any("gone" in f and "missing from fresh run" in f for f in failures)


def test_perf_gate_gates_cost_counters_exactly():
    pg = _perf_gate()
    base = {"scenarios": {"s": {"sim": {"requests": 6.0}, "cost": {"events": 100.0}}}}
    assert pg.compare(base, {"s": base["scenarios"]["s"]}, {})["failures"] == []
    fewer = {"s": {"sim": {"requests": 6.0}, "cost": {"events": 99.0}}}
    failures = pg.compare(base, fewer, {})["failures"]
    assert len(failures) == 1 and "s.events" in failures[0]
    # A baseline without the counter asks for a re-record.
    old = {"scenarios": {"s": {"sim": {"requests": 6.0}}}}
    assert any("s.events" in f and "re-record" in f
               for f in pg.compare(old, fewer, {})["failures"])


def test_perf_gate_quantiles_are_nearest_rank():
    pg = _perf_gate()
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pg._quantile(xs, 0.50) == 2.0
    assert pg._quantile(xs, 0.99) == 4.0
    assert pg._quantile([], 0.5) == 0.0
