"""The paired-workload supernode figures (10, 12, 13, 14, 15) as one grid.

Each figure measures a set of balancing/device policies on the paper's
24 workload pairs against a per-family GRR baseline.  :class:`PairFigure`
is the single sweep behind all five: its grid is ``pair x run``, where a
run is a family baseline, a policy, or an extra reference system, and
every point returns only that simulation's mean completion time.  The
speedups, the ``AVG`` column and Fig. 15's headline are derived in
``analyze`` from those JSON-round-tripped means.  The figures themselves
are declarations.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.sim.rng import RandomStream
from repro.cluster import build_paper_supernode, build_small_server
from repro.metrics import mean_completion_s
from repro.workloads import PAIRS, exponential_stream, pair_apps
from repro.harness import registry
from repro.harness.format import format_table
from repro.harness.runner import (
    ExperimentScale,
    run_stream_experiment,
    system_factories,
)

#: Suffix of a baseline run's name on the ``run`` axis.
BASELINE = "-baseline"


def pair_streams(label: str, scale: ExperimentScale, split_nodes: bool, tag: str):
    """The two request streams of one workload pair.

    ``split_nodes=True`` sends the long stream to node 0 and the short
    stream to node 1 (supernode experiment); ``False`` sends both to
    node 0 (single-node baseline).
    """
    app_a, app_b = pair_apps(label)
    rng = RandomStream(scale.seed, tag, label)
    stream_a = exponential_stream(
        app_a, rng.spawn("A"), scale.requests_per_stream, scale.pair_load_factor,
        node_index=0, tenant_id="tenantA",
    )
    stream_b = exponential_stream(
        app_b, rng.spawn("B"), scale.requests_per_stream, scale.pair_load_factor,
        node_index=1 if split_nodes else 0, tenant_id="tenantB",
    )
    return [stream_a, stream_b]


def family_of(policy: str) -> str:
    """'Rain' or 'Strings'."""
    return "Rain" if policy.endswith("Rain") else "Strings"


def baseline_of(policy: str) -> str:
    """The run-axis name of a policy's baseline: GRR of its family."""
    return f"GRR-{family_of(policy)}{BASELINE}"


def point_means(results) -> Dict[str, Dict[str, float]]:
    """``mean[run][pair]``: the mean completion time of every grid point."""
    means: Dict[str, Dict[str, float]] = {}
    for point in results["points"]:
        params = point["params"]
        means.setdefault(params["run"], {})[params["pair"]] = point["result"]
    return means


class PairFigure(registry.GridExperiment):
    """Supernode speedup of a policy set over per-family GRR baselines.

    Subclasses declare the figure; the grid, the simulations and the
    table are shared.  Select a subset from the CLI with
    ``-O policies='[...]'`` / ``-O pairs='[...]'``.
    """

    #: The paper's AVG speedup per policy; its keys are the rows, in order.
    paper_averages: Dict[str, float] = {}
    #: ``tuple(paper_averages)``, set for each subclass.
    policies: Tuple[str, ...] = ()
    title = ""
    #: RandomStream tag of the pair streams (each figure draws its own).
    tag = ""
    #: Where the baseline runs: False on the single-node server (Figs. 10,
    #: 12, 14, 15), True on the 4-GPU-shared supernode (Fig. 13).
    shared_baseline = False
    #: Seed the policy systems' SFT with solo profiles (feedback figures).
    prewarm = False
    #: ``(text, policy, reference system, paper ratio)``: when ``policy``
    #: runs, also run ``reference`` on every pair and report the mean
    #: reference/policy completion-time ratio under the table.
    headline: Optional[Tuple[str, str, str, float]] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.policies = tuple(cls.paper_averages)
        cls.grid = registry.ParamGrid.of(pair=tuple(PAIRS), run=cls.runs(cls.policies))

    @classmethod
    def runs(cls, policies: Tuple[str, ...]) -> Tuple[str, ...]:
        """The ``run`` axis: family baselines, policies, headline reference."""
        baselines = dict.fromkeys(baseline_of(p) for p in policies)
        extra = ()
        if cls.headline is not None and cls.headline[1] in policies:
            extra = (cls.headline[2],)
        return (*baselines, *policies, *extra)

    def _selection(self, ctx, key: str, valid: Tuple[str, ...]) -> Tuple[str, ...]:
        chosen = ctx.option(key, valid)
        if (
            not isinstance(chosen, (list, tuple)) or not chosen
            or any(c not in valid for c in chosen)
        ):
            raise ValueError(
                f"{self.name}: {key} must be a non-empty list drawn from "
                f"{', '.join(valid)}; got {chosen!r}"
            )
        return tuple(chosen)

    def grid_for(self, ctx: registry.ExperimentContext) -> registry.ParamGrid:
        return registry.ParamGrid.of(
            pair=self._selection(ctx, "pairs", tuple(PAIRS)),
            run=self.runs(self._selection(ctx, "policies", self.policies)),
        )

    def prepare(self, ctx: registry.ExperimentContext) -> None:
        self.grid_for(ctx)  # reject unknown policies/pairs before simulating
        self._factories = system_factories()

    def run_point(self, params, ctx: registry.ExperimentContext) -> float:
        pair, run = params["pair"], params["run"]
        system = run[: -len(BASELINE)] if run.endswith(BASELINE) else run
        on_supernode = self.shared_baseline or system == run
        res = run_stream_experiment(
            self._factories[system],
            pair_streams(pair, ctx.scale, split_nodes=on_supernode, tag=self.tag),
            build_paper_supernode if on_supernode else build_small_server,
            label=run,
            prewarm=self.prewarm and run in self.policies,
        )
        return mean_completion_s(res.results)

    def speedups(self, results) -> Dict[str, Dict[str, float]]:
        """``speedup[policy][pair]`` over the policy's baseline, plus ``avg``."""
        means = point_means(results)
        pairs = results["grid"]["pair"]
        out: Dict[str, Dict[str, float]] = {}
        for policy in self.policies:
            if policy in means:
                base = means[baseline_of(policy)]
                row = {l: base[l] / means[policy][l] for l in pairs}
                row["avg"] = float(np.mean([row[l] for l in pairs]))
                out[policy] = row
        return out

    def headline_ratio(self, results) -> Optional[float]:
        """Mean reference/policy completion-time ratio, if the run has one."""
        means = point_means(results)
        if self.headline is None or self.headline[2] not in means:
            return None
        _, policy, reference, _ = self.headline
        return float(np.mean([
            means[reference][l] / means[policy][l] for l in results["grid"]["pair"]
        ]))

    def analyze(self, results, ctx: registry.ExperimentContext) -> str:
        labels = [l for l in PAIRS if l in results["grid"]["pair"]]
        rows = [
            [p] + [s[l] for l in labels] + [s["avg"], self.paper_averages[p]]
            for p, s in self.speedups(results).items()
        ]
        text = format_table(
            ["Policy"] + labels + ["AVG", "AVG(paper)"], rows, title=self.title
        )
        ratio = self.headline_ratio(results)
        if ratio is not None:
            text += (
                f"\nheadline: {self.headline[0]} = {ratio:.2f}x "
                f"(paper: {self.headline[3]:.2f}x)"
            )
        return text


@registry.register("fig10")
class Fig10(PairFigure):
    """Fig. 10 — supernode-sharing speedup per workload pair and policy.

    One node receives a stream of long-running requests (the pair's
    Group A application), the other a stream of short requests (Group
    B); the workload balancer may place requests on any of the
    supernode's four GPUs.  The baseline is the *single-node GRR*
    configuration of the previous experiment — per system family
    (GRR-Rain single node for the Rain rows, GRR-Strings single node for
    the Strings rows), so each bar isolates the benefit of sharing all
    four GPUs.

    Paper averages over the 24 pairs: GRR-Rain 1.60x, GMin-Rain 1.80x,
    GWtMin-Rain 1.82x, GRR-Strings 2.64x, GMin-Strings 2.69x,
    GWtMin-Strings 2.88x; the largest speedups occur for pairs
    containing BlackScholes or Gaussian (I, K, W).
    """

    paper_averages = {
        "GRR-Rain": 1.60,
        "GMin-Rain": 1.80,
        "GWtMin-Rain": 1.82,
        "GRR-Strings": 2.64,
        "GMin-Strings": 2.69,
        "GWtMin-Strings": 2.88,
    }
    title = (
        "Fig. 10 — speedup from sharing the 4-GPU supernode "
        "(vs single-node GRR of the same system family)"
    )
    tag = "fig10"


@registry.register("fig12")
class Fig12(PairFigure):
    """Fig. 12 — GPU scheduling + sharing speedup (GWtMin with LAS/PS).

    The 24 workload pairs on the supernode under the best balancing
    policy (GWtMin) combined with device-level scheduling: LAS for Rain
    and Strings, PS for Strings.  Baseline: single-node GRR of the same
    family.

    Paper averages: GWtMin+LAS-Rain 2.18x, GWtMin+LAS-Strings 3.10x,
    GWtMin+PS-Strings 2.97x — PS within ~4% of LAS-Strings but ~27%
    above LAS-Rain.
    """

    paper_averages = {
        "GWtMin+LAS-Rain": 2.18,
        "GWtMin+LAS-Strings": 3.10,
        "GWtMin+PS-Strings": 2.97,
    }
    title = (
        "Fig. 12 — weighted speedup of GPU scheduling + sharing "
        "(vs single-node GRR of the same family)"
    )
    tag = "fig12"


@registry.register("fig13")
class Fig13(PairFigure):
    """Fig. 13 — device-scheduling benefit isolated from the sharing benefit.

    Same paired workloads as Fig. 12, but the baseline is GRR with all
    four supernode GPUs shared (same family), so the bars isolate the
    device-level scheduling policy's contribution from the sharing
    benefit.

    Paper averages: LAS-Rain 1.40x, LAS-Strings 1.95x, PS-Strings 1.90x.
    """

    paper_averages = {"LAS-Rain": 1.40, "LAS-Strings": 1.95, "PS-Strings": 1.90}
    title = (
        "Fig. 13 — GPU scheduling benefit alone "
        "(vs 4-GPU-shared GRR of the same family)"
    )
    tag = "fig13"
    shared_baseline = True


@registry.register("fig14")
class Fig14(PairFigure):
    """Fig. 14 — feedback balancing (RTF/GUF) with pre-warmed profiles.

    The 24 pairs on the supernode under the runtime-feedback and
    GPU-utilization-feedback policies for both Rain and Strings.  The
    systems are pre-warmed (the SFT already holds each application's
    profile — the steady state after the Policy Arbiter's dynamic
    switching).  Baseline: single-node GRR of the same family.

    Paper averages: RTF-Rain 2.22x, GUF-Rain 2.51x, RTF-Strings 3.23x,
    GUF-Strings 3.96x; GUF shines on pairs with contrasting GPU
    utilization.
    """

    paper_averages = {
        "RTF-Rain": 2.22,
        "GUF-Rain": 2.51,
        "RTF-Strings": 3.23,
        "GUF-Strings": 3.96,
    }
    title = (
        "Fig. 14 — feedback-based load balancing "
        "(vs single-node GRR of the same family; SFT pre-warmed)"
    )
    tag = "fig14"
    prewarm = True


@registry.register("fig15")
class Fig15(PairFigure):
    """Fig. 15 — Strings-only feedback (DTF/MBF) plus the CUDA headline.

    DTF (data-transfer feedback) and MBF (memory-bandwidth feedback)
    exploit CUDA streams and context packing, so they exist only for
    Strings.  Baseline: single-node GRR-Strings; the paper also quotes
    the headline "8.70x vs the bare CUDA runtime" for MBF, which we
    report from a direct CUDA measurement on the same paired workloads.

    Paper averages: DTF 3.73x, MBF 4.02x (best overall); DTF shines when
    one app is compute-heavy and the other transfer-heavy; MBF subsumes
    RTF+DTF information and wins nearly everywhere.
    """

    paper_averages = {"DTF-Strings": 3.73, "MBF-Strings": 4.02}
    title = (
        "Fig. 15 — Strings-specific feedback policies "
        "(vs single-node GRR-Strings; SFT pre-warmed)"
    )
    tag = "fig15"
    prewarm = True
    headline = ("MBF vs bare CUDA runtime", "MBF-Strings", "CUDA", 8.70)


__all__ = [
    "Fig10", "Fig12", "Fig13", "Fig14", "Fig15", "PairFigure",
    "baseline_of", "family_of", "pair_streams", "point_means",
]
