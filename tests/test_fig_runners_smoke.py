"""Smoke tests: every figure runner produces sane output at tiny scale.

These complement the benchmark suite (which runs the figures at CI scale
with shape assertions) by checking the runner *APIs* quickly: subset
parameters, result dictionary structure, positive values.
"""

import pytest

from repro.harness.runner import SCALE_QUICK

TINY = SCALE_QUICK.scaled(
    requests_per_stream=3, load_factor=1.2, pair_load_factor=2.0,
    fairness_window_s=20.0,
)


def test_fig9_runner_subset():
    from repro.harness.fig9 import run

    data = run(TINY, apps=["GA"], policies=["GRR-Strings", "GRR-Rain"])
    assert set(data) == {"GRR-Strings", "GRR-Rain"}
    for row in data.values():
        assert set(row) == {"GA", "avg"}
        assert row["avg"] > 0


def _pair_figure(name, **options):
    from repro.harness import registry

    return registry.execute(name, registry.ExperimentContext(scale=TINY, options=options))


def test_fig10_runner_subset():
    exp, results = _pair_figure("fig10", pairs=["G"], policies=["GRR-Strings"])
    data = exp.speedups(results)
    assert data["GRR-Strings"]["G"] > 0
    assert data["GRR-Strings"]["avg"] > 0


def test_fig11_runner_subset():
    from repro.harness.fig11 import run

    data = run(TINY, pair_labels=("G",), systems=("TFS-Strings",))
    assert 0 < data["TFS-Strings"]["G"] <= 1.0
    assert 0 < data["TFS-Strings"]["avg"] <= 1.0
    assert data["TFS-Strings"]["max"] >= data["TFS-Strings"]["avg"]


def test_fig12_runner_subset():
    from repro.harness.pairsweep import point_means

    exp, results = _pair_figure("fig12", pairs=["G"], policies=["GWtMin+PS-Strings"])
    assert exp.speedups(results)["GWtMin+PS-Strings"]["G"] > 0
    assert point_means(results)["GWtMin+PS-Strings"]["G"] > 0


def test_fig13_runner_subset():
    exp, results = _pair_figure("fig13", pairs=["G"], policies=["PS-Strings"])
    assert exp.speedups(results)["PS-Strings"]["G"] > 0


def test_fig14_runner_subset():
    exp, results = _pair_figure("fig14", pairs=["G"], policies=["RTF-Strings"])
    assert exp.speedups(results)["RTF-Strings"]["G"] > 0


def test_fig15_runner_subset():
    exp, results = _pair_figure("fig15", pairs=["G"], policies=["MBF-Strings"])
    assert exp.speedups(results)["MBF-Strings"]["G"] > 0
    assert exp.headline_ratio(results) > 0


def test_fig15_without_mbf_runs_no_cuda_and_prints_no_headline():
    from repro.harness import registry

    exp, results = _pair_figure("fig15", pairs=["G"], policies=["DTF-Strings"])
    assert results["grid"]["run"] == ["GRR-Strings-baseline", "DTF-Strings"]
    assert exp.headline_ratio(results) is None
    text = exp.analyze(results, registry.ExperimentContext())
    assert "DTF-Strings" in text and "headline" not in text


@pytest.mark.parametrize(
    "name, calls",
    [
        # 2 family baselines (GRR-Rain, GRR-Strings) + 6 policies.
        ("fig10", {"GRR-Rain-baseline": 1, "GRR-Strings-baseline": 1,
                   "GRR-Rain": 1, "GMin-Rain": 1, "GWtMin-Rain": 1,
                   "GRR-Strings": 1, "GMin-Strings": 1, "GWtMin-Strings": 1}),
        # 1 baseline + DTF + MBF + the CUDA headline reference.
        ("fig15", {"GRR-Strings-baseline": 1, "DTF-Strings": 1,
                   "MBF-Strings": 1, "CUDA": 1}),
    ],
)
def test_pair_figure_simulates_each_baseline_once(monkeypatch, name, calls):
    from collections import Counter

    from repro.harness import pairsweep

    labels = Counter()
    real = pairsweep.run_stream_experiment

    def counting(*args, label="", **kwargs):
        labels[label] += 1
        return real(*args, label=label, **kwargs)

    monkeypatch.setattr(pairsweep, "run_stream_experiment", counting)
    _pair_figure(name, pairs=["G"])
    assert dict(labels) == calls


def test_ablations_runner_structure():
    from repro.harness.ablations import ablate_arbiter_cold_start

    cold = ablate_arbiter_cold_start()
    assert cold["switched"] is True
    assert cold["transitions"][0][1] == "GMin"
    assert cold["transitions"][-1][1] == "MBF"
