"""Benchmarks regenerating Fig. 14 (RTF/GUF) and Fig. 15 (DTF/MBF)."""

import numpy as np
import pytest

from repro.harness.pairsweep import point_means
from conftest import run_pair_figure


def test_fig14_benchmark(once):
    """Fig. 14: feedback-based balancing, pair subset."""
    fig14, results = run_pair_figure(once, "fig14")
    data = fig14.speedups(results)

    # Feedback balancing beats the single-node baseline everywhere.
    for policy in fig14.policies:
        assert data[policy]["avg"] > 1.0, policy

    # Absolute ordering: the Strings feedback systems complete requests
    # faster than their Rain counterparts (paper: 3.23/3.96 vs 2.22/2.51).
    means = point_means(results)
    for fb in ("RTF", "GUF"):
        rain = np.mean(list(means[f"{fb}-Rain"].values()))
        strings = np.mean(list(means[f"{fb}-Strings"].values()))
        assert strings < rain, fb


def test_fig15_benchmark(once):
    """Fig. 15: Strings-specific DTF and MBF, pair subset + CUDA headline."""
    fig15, results = run_pair_figure(once, "fig15")
    data = fig15.speedups(results)

    # Both Strings-only feedback policies beat the single-node baseline.
    assert data["DTF-Strings"]["avg"] > 1.0
    assert data["MBF-Strings"]["avg"] > 1.0

    # MBF subsumes DTF's information (paper: best policy overall).
    assert data["MBF-Strings"]["avg"] > 0.9 * data["DTF-Strings"]["avg"]

    # Headline: MBF is far ahead of the bare CUDA runtime (paper: 8.70x).
    assert fig15.headline_ratio(results) > 2.0
