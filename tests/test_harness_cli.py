"""Smoke tests for the harness CLI and the cheap figure runners."""

import pytest

from repro.harness.__main__ import EXPERIMENTS, EXTENSIONS, main
from repro.harness import fig1, fig2, table1
from repro.harness.runner import SCALE_QUICK


def test_cli_lists_every_paper_experiment():
    assert EXPERIMENTS == [
        "table1", "fig1", "fig2", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14", "fig15",
    ]
    assert "scaleout" in EXTENSIONS


def test_cli_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        main(["figXX"])


def test_cli_runs_fig1(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1" in out
    assert "DXTC" in out


def test_table1_main_prints_all_apps(capsys):
    table1.main()
    out = capsys.readouterr().out
    for short in ("DC", "SC", "BO", "MM", "HI", "EV", "BS", "MC", "GA", "SN"):
        assert f"({short})" in out


def test_fig2_quick_runs_and_prints(capsys):
    fig2.main(SCALE_QUICK)
    out = capsys.readouterr().out
    assert "sequential" in out
    assert "concurrent" in out
    assert "ctx switches" in out


def test_cli_lists_chaos_extension():
    assert "chaos" in EXTENSIONS


def test_cli_rejects_bad_fault_spec(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--faults", "gpu_melt@5:gid=0"])
    assert "--faults" in capsys.readouterr().err


def test_cli_rejects_bad_link_flags(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--link-gbps", "0"])
    with pytest.raises(SystemExit):
        main(["fig1", "--link-latency-us", "-1"])


def test_cli_link_flags_apply_and_reset(capsys):
    from repro.cluster import Network

    assert main(["fig1", "--link-gbps", "20", "--link-latency-us", "50"]) == 0
    # Defaults are restored once the run finishes.
    net = Network()
    assert net.bandwidth_gbps == 10.0
    assert net.latency_s == pytest.approx(120e-6)


def test_cli_runs_chaos_with_fault_spec(capsys):
    import repro.faults as faults

    assert (
        main(
            ["chaos", "--scale", "quick",
             "--faults", "gpu_fail@20:gid=1:down=10,retries=8,warmup=1"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "[chaos] requests lost: 0" in out
    assert faults.current_plan() is None  # plan slot reset after the run


# -- ISSUE 4: analysis & diff tools -----------------------------------------


def test_cli_rejects_bad_top_k(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--analyze", "--top-k", "0"])
    assert "--top-k must be > 0" in capsys.readouterr().err


def test_cli_rejects_bad_tolerance_spec(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--tolerance", "kernel=fast"])
    assert "--tolerance" in capsys.readouterr().err


def test_cli_rejects_missing_diff_baseline(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["fig1", "--diff-against", str(tmp_path / "nope.json")])
    assert "--diff-against" in capsys.readouterr().err


def test_cli_analyze_requires_run(capsys):
    with pytest.raises(SystemExit):
        main(["analyze"])
    assert "--run" in capsys.readouterr().err


def test_cli_diff_requires_both_runs(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["diff", "--run", str(tmp_path / "a.json")])
    assert "--baseline" in capsys.readouterr().err


def test_cli_analyze_rejects_doc_without_analysis(capsys, tmp_path):
    import json

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"counters": {}}))
    with pytest.raises(SystemExit):
        main(["analyze", "--run", str(stale)])
    assert "no 'analysis' section" in capsys.readouterr().err


def test_cli_run_analyze_diff_round_trip(capsys, tmp_path):
    """fig1 --metrics-out, then offline analyze + self-diff + tolerance."""
    import json

    metrics = tmp_path / "run.json"
    assert main(["fig1", "--metrics-out", str(metrics), "--analyze"]) == 0
    out = capsys.readouterr().out
    assert "critical-path blame" in out
    assert "scheduler overhead (unattributed)" in out

    assert main(["analyze", "--run", str(metrics), "--top-k", "3"]) == 0
    assert "per-phase blame" in capsys.readouterr().out

    diff_json = tmp_path / "delta.json"
    assert main([
        "diff", "--run", str(metrics), "--baseline", str(metrics),
        "--diff-out", str(diff_json), "--tolerance", "default=0",
    ]) == 0
    out = capsys.readouterr().out
    assert "run comparison" in out
    assert "tolerance check passed" in out
    delta = json.loads(diff_json.read_text())
    assert delta["total_latency_s"]["delta"] == 0.0


def test_cli_diff_against_flags_regression(capsys, tmp_path):
    """--diff-against with an impossible tolerance exits 1 on real drift."""
    import json

    metrics = tmp_path / "base.json"
    # fig2 (unlike the analytic fig1) drives real requests, so the
    # exported analysis has a non-zero latency total to doctor.
    assert main(["fig2", "--scale", "quick", "--metrics-out", str(metrics)]) == 0
    capsys.readouterr()
    doc = json.loads(metrics.read_text())
    assert doc["analysis"]["total_s"] > 0
    # Doctor the baseline so the fresh (identical) run looks 50% faster.
    doc["analysis"]["total_s"] = doc["analysis"]["total_s"] * 2
    metrics.write_text(json.dumps(doc))
    assert main([
        "fig2", "--scale", "quick",
        "--diff-against", str(metrics), "--tolerance", "total_s=0.01",
    ]) == 1
    assert "tolerance check FAILED" in capsys.readouterr().out


def test_cli_streaming_run_and_offline_analyze(capsys, tmp_path):
    """fig2 --stream-dir: spans shard to disk, exporters read the union,
    and the analyze tool profiles the shard dir offline (ISSUE 6)."""
    stream = tmp_path / "shards"
    hb = tmp_path / "hb.jsonl"
    metrics = tmp_path / "run.json"
    assert main([
        "fig2", "--scale", "quick",
        "--stream-dir", str(stream), "--span-buffer", "64",
        "--live", "0.01", "--heartbeat", str(hb),
        "--metrics-out", str(metrics), "--analyze",
    ]) == 0
    out = capsys.readouterr().out
    assert "span stream:" in out
    assert "critical-path blame" in out
    shards = list(stream.glob("spans-*.jsonl"))
    assert shards, "no shard files written"

    import json

    records = [json.loads(line) for line in hb.read_text().splitlines()]
    assert records and all("completed" in r for r in records)
    doc = json.loads(metrics.read_text())
    assert doc["analysis"]["requests"] > 0
    assert doc["spans"] > 0

    assert main(["analyze", "--stream-dir", str(stream)]) == 0
    assert "per-phase blame" in capsys.readouterr().out


def test_cli_streaming_flag_validation(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["fig1", "--span-buffer", "0", "--stream-dir", str(tmp_path / "s")])
    assert "--span-buffer" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--live", "0"])
    assert "--live" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["analyze", "--stream-dir", str(tmp_path / "missing")])
    assert "--stream-dir" in capsys.readouterr().err


# -- scale extension (ISSUE 8) ------------------------------------------------


def test_cli_lists_scale_extension():
    assert "scale" in EXTENSIONS


def test_cli_rejects_bad_traffic_spec(capsys):
    with pytest.raises(SystemExit):
        main(["scale", "--traffic", "weibull:rate=5"])
    err = capsys.readouterr().err
    assert "--traffic" in err and "unknown arrival process" in err
    with pytest.raises(SystemExit):
        main(["scale", "--traffic", "poisson:rate=0"])
    assert "must be > 0" in capsys.readouterr().err


def test_cli_rejects_bad_loads(capsys):
    with pytest.raises(SystemExit):
        main(["scale", "--loads", "0.5,fast"])
    assert "--loads" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["scale", "--loads", "0"])
    assert "must be > 0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["scale", "--loads", ","])
    assert "at least one" in capsys.readouterr().err


def test_cli_scale_flags_require_scale_experiment(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--traffic", "poisson:rate=5"])
    assert "only applies to the 'scale' extension" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--loads", "1,2"])
    assert "only applies" in capsys.readouterr().err


def test_cli_scale_sweep_runs_and_writes_artifacts(capsys, tmp_path):
    import json as _json

    out_json = tmp_path / "sweep.json"
    out_html = tmp_path / "sweep.html"
    rc = main([
        "scale",
        "--traffic", "poisson:rate=3,tenants=20,churn=exp:10,duration=15,apps=GA",
        "--loads", "0.5,1",
        "--scale-out", str(out_json),
        "--scale-report", str(out_html),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Scale sweep" in out and "Goodput rps" in out
    doc = _json.loads(out_json.read_text())
    assert doc["tool"] == "scale"
    assert [p["multiplier"] for p in doc["points"]] == [0.5, 1.0]
    for p in doc["points"]:
        assert p["offered"] == p["completed"] + p["aborted"] + p["failed"]
        assert "marginal_efficiency" in p
    assert "knee_multiplier" in doc
    html = out_html.read_text()
    assert "<svg" in html and "goodput" in html


# -- wall-clock self-profiling (ISSUE 9) ------------------------------------


def test_cli_profile_flag_validation(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "--profile", "-5"])
    assert "--profile" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--flame-out", "x.txt"])
    assert "requires --profile" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig1", "--profile", "0", "--speedscope-out", "x.json"])
    assert "requires --profile" in capsys.readouterr().err


def test_cli_profile_round_trip_writes_artifacts(capsys, tmp_path):
    import json as _json

    flame = tmp_path / "flame.txt"
    speedscope = tmp_path / "profile.json"
    rc = main([
        "fig2", "--scale", "quick", "--profile", "200",
        "--flame-out", str(flame),
        "--speedscope-out", str(speedscope),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CPU ledger (wall-clock zones)" in out
    assert "sim.kernel" in out
    # Collapsed stacks: "zone;frame;... count" lines.
    for line in flame.read_text().splitlines():
        head, count = line.rsplit(" ", 1)
        assert int(count) >= 1 and ";" in head
    doc = _json.loads(speedscope.read_text())
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    prof = doc["profiles"][0]
    assert prof["type"] == "sampled"
    assert prof["endValue"] == sum(prof["weights"])
    n_frames = len(doc["shared"]["frames"])
    assert all(0 <= i < n_frames for s in prof["samples"] for i in s)


def test_cli_profile_zones_only_skips_sampler(capsys):
    # hz=0: the zone ledger runs but no sampler thread is started.
    assert main(["fig2", "--scale", "quick", "--profile", "0"]) == 0
    out = capsys.readouterr().out
    assert "CPU ledger (wall-clock zones)" in out
    assert "sim.kernel" in out
    assert "[profiler:" not in out


def test_cli_profile_rejected_for_scale_flame_outputs(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main([
            "scale", "--profile", "--flame-out", str(tmp_path / "f.txt"),
        ])
    assert "do not apply to the 'scale'" in capsys.readouterr().err


def test_cli_scale_profile_records_per_point_ledgers(capsys, tmp_path):
    import json as _json

    out_json = tmp_path / "sweep.json"
    rc = main([
        "scale",
        "--traffic", "poisson:rate=3,tenants=20,churn=exp:10,duration=15,apps=GA",
        "--loads", "1",
        "--profile", "0",
        "--scale-out", str(out_json),
    ])
    assert rc == 0
    doc = _json.loads(out_json.read_text())
    for p in doc["points"]:
        ledger = p["cpu_ledger"]
        assert ledger["total_self_s"] > 0
        zones = {z["zone"] for z in ledger["zones"]}
        assert "sim.kernel" in zones


# -- experiment registry (ISSUE 10) ------------------------------------------


def test_cli_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "registered experiments" in out
    for name in EXPERIMENTS + EXTENSIONS:
        assert name in out
    # Phase and grid columns are populated.
    assert "run/analyze" in out
    fig10_line = next(l for l in out.splitlines() if l.startswith("fig10 "))
    assert "pair[24]x" in fig10_line


def test_cli_list_takes_no_target(capsys):
    with pytest.raises(SystemExit):
        main(["list", "fig1"])
    assert "takes no experiment name" in capsys.readouterr().err


def test_cli_run_requires_target(capsys):
    with pytest.raises(SystemExit):
        main(["run"])
    assert "needs an experiment name" in capsys.readouterr().err


def test_cli_run_unknown_name_suggests_near_misses(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig99"])
    err = capsys.readouterr().err
    assert "did you mean" in err and "fig9" in err


def test_cli_stray_target_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "fig2"])
    assert "only 'run' takes an experiment name" in capsys.readouterr().err


def test_cli_run_spelling_matches_legacy(capsys):
    assert main(["fig1"]) == 0
    legacy = capsys.readouterr().out
    assert main(["run", "fig1"]) == 0
    new = capsys.readouterr().out
    # Identical modulo the wall-clock footer.
    strip = lambda s: [l for l in s.splitlines() if "done in" not in l]
    assert strip(new) == strip(legacy)


def test_cli_run_alias_resolves(capsys):
    # 'run ablate' resolves to the canonical 'ablations' banner without
    # executing anything extra (the experiment itself is too slow here,
    # so just check resolution fails cleanly for a wrong alias).
    with pytest.raises(SystemExit):
        main(["run", "ablat"])
    assert "did you mean" in capsys.readouterr().err


def test_cli_opt_restricts_experiment(capsys):
    assert main([
        "run", "fig9", "--scale", "quick",
        "-O", 'apps=["GA"]', "-O", 'policies=["GRR-Strings"]',
    ]) == 0
    out = capsys.readouterr().out
    assert "GRR-Strings" in out
    assert "GMin-Rain" not in out  # the restriction really applied


@pytest.mark.parametrize(
    "argv, named",
    [
        # A real policy from another figure: rejected, not silently dropped.
        (["run", "fig13", "-O", 'policies=["GMin-Strings"]', "-O", 'pairs=["A"]'],
         "LAS-Rain, LAS-Strings, PS-Strings"),
        # Typos in either axis.
        (["run", "fig13", "-O", 'policies=["LAS-Strngs"]'],
         "LAS-Rain, LAS-Strings, PS-Strings"),
        (["fig12", "-O", 'pairs=["Z"]'], "A, B, C"),
    ],
)
def test_cli_rejects_bad_pair_figure_options_before_simulating(
    capsys, monkeypatch, argv, named
):
    from repro.sim.core import Environment

    def no_sim(*args, **kwargs):
        raise AssertionError("a bad -O value must fail before simulating")

    monkeypatch.setattr(Environment, "__init__", no_sim)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scale", "quick"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: -O: " in err and named in err
    assert "Traceback" not in err


def test_cli_opt_requires_key_value(capsys):
    with pytest.raises(SystemExit):
        main(["fig1", "-O", "nokey"])
    assert "--opt expects KEY=VALUE" in capsys.readouterr().err


def test_cli_out_dir_then_analyze_from_round_trip(capsys, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["run", "fig2", "--scale", "quick",
                 "--out-dir", str(run_dir)]) == 0
    live = capsys.readouterr().out
    assert f"[run artifacts written to {run_dir}]" in live
    assert (run_dir / "experiment.json").exists()
    assert (run_dir / "results.json").exists()

    assert main(["analyze", "--from", str(run_dir)]) == 0
    cached = capsys.readouterr().out
    # The cached re-render reproduces the report body byte-for-byte.
    body = [
        l for l in live.splitlines()
        if not (l.startswith("====") or l.startswith("[")) and l
    ]
    assert [l for l in cached.splitlines() if l] == body


def test_cli_analyze_from_rejects_non_run_dir(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["analyze", "--from", str(tmp_path)])
    assert "not a harness run directory" in capsys.readouterr().err


def test_cli_from_only_applies_to_analyze(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["fig1", "--from", str(tmp_path)])
    assert "--from only applies" in capsys.readouterr().err


def test_cli_out_dir_rejected_for_tools_and_all(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["analyze", "--out-dir", str(tmp_path / "d")])
    assert "--out-dir needs a single experiment run" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["all", "--out-dir", str(tmp_path / "d")])
    assert "--out-dir" in capsys.readouterr().err
