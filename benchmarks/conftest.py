"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures at CI scale
(a reduced request count and, for the 24-pair figures, a representative
pair subset — the full sweep is ``python -m repro.harness <fig>``) and
asserts the paper's qualitative *shape* on the result.  pytest-benchmark
measures a single round: these are simulation experiments, not
microbenchmarks, and their interesting output is the figure data itself.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once and return its result."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


#: Representative pair subset for the 24-pair figures: covers
#: compute-heavy (A: DC-BS), transfer-heavy (J: BO-MC), CPU-bound
#: (G: SC-GA), bandwidth-bound (Q: HI-BS, R: HI-MC) and mixed (U: EV-BS).
PAIR_SUBSET = ("A", "G", "J", "Q", "R", "U")


def run_pair_figure(once, name, pairs=PAIR_SUBSET):
    """Run a registered pair figure on ``pairs`` at CI scale.

    Returns ``(figure, results)``: ``figure.speedups(results)`` gives the
    speedup table and ``point_means(results)`` the per-point means.
    """
    from repro.harness import SCALE_QUICK, registry

    ctx = registry.ExperimentContext(scale=SCALE_QUICK, options={"pairs": list(pairs)})
    return once(registry.execute, name, ctx)
