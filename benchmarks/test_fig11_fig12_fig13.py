"""Benchmarks regenerating Fig. 11 (fairness) and Figs. 12-13 (scheduling)."""

import numpy as np
import pytest

from repro.harness import SCALE_QUICK
from repro.harness import fig11
from repro.harness.pairsweep import point_means
from conftest import PAIR_SUBSET, run_pair_figure


def test_fig11_benchmark(once):
    """Fig. 11: Jain's fairness of TFS vs the CUDA runtime, pair subset."""
    data = once(fig11.run, SCALE_QUICK, PAIR_SUBSET)

    cuda = data["CUDA"]["avg"]
    rain = data["TFS-Rain"]["avg"]
    strings = data["TFS-Strings"]["avg"]

    # The paper's ordering: TFS-Strings > TFS-Rain > CUDA runtime.
    assert strings > rain > cuda
    # TFS-Strings is near-ideal on its best pair (paper: 99.99%).
    assert data["TFS-Strings"]["max"] > 0.99
    # And strong on average (paper: 91%).
    assert strings > 0.9


def test_fig12_benchmark(once):
    """Fig. 12: throughput scheduling + sharing, pair subset."""
    fig12, results = run_pair_figure(once, "fig12")
    data = fig12.speedups(results)

    # Scheduling + 4-GPU sharing beats the single-node deployment.
    for policy in fig12.policies:
        assert data[policy]["avg"] > 1.0, policy

    # PS tracks LAS under Strings (paper: within ~4%) - both throughput
    # policies land in the same band.
    las = data["GWtMin+LAS-Strings"]["avg"]
    ps = data["GWtMin+PS-Strings"]["avg"]
    assert ps > 0.75 * las

    # Absolute completion times: Strings schedulers beat the Rain one.
    means = point_means(results)
    las_rain = np.mean(list(means["GWtMin+LAS-Rain"].values()))
    las_strings = np.mean(list(means["GWtMin+LAS-Strings"].values()))
    assert las_strings < las_rain


def test_fig13_benchmark(once):
    """Fig. 13: device scheduling benefit vs 4-GPU-shared GRR, pair subset."""
    _, results = run_pair_figure(once, "fig13")

    # Absolute ordering: LAS-Strings completes requests faster than
    # LAS-Rain on the same workloads (paper: 1.95x vs 1.40x).
    means = point_means(results)
    las_rain = np.mean(list(means["LAS-Rain"].values()))
    las_strings = np.mean(list(means["LAS-Strings"].values()))
    ps_strings = np.mean(list(means["PS-Strings"].values()))
    assert las_strings < las_rain
    # PS lands in LAS-Strings' neighbourhood (paper: within ~4%).
    assert ps_strings < 1.35 * las_strings
