"""Experiment harness: one registered experiment per paper table/figure.

Each table and figure is a ``prepare``/``run``/``analyze`` class in
:mod:`repro.harness.registry`; Figs. 10 and 12-15 share one grid in
:mod:`repro.harness.pairsweep`.  Run from the command line::

    python -m repro.harness table1
    python -m repro.harness fig9
    python -m repro.harness all --scale quick

Scales: ``quick`` (CI-sized), ``paper`` (full request counts).
"""

from repro.harness.runner import (
    ExperimentScale,
    SCALE_PAPER,
    SCALE_QUICK,
    SystemFactory,
    closed_loop_shared_run,
    prewarm_sft,
    run_stream_experiment,
    solo_completion_time,
    system_factories,
)

__all__ = [
    "ExperimentScale",
    "SCALE_PAPER",
    "SCALE_QUICK",
    "SystemFactory",
    "closed_loop_shared_run",
    "prewarm_sft",
    "run_stream_experiment",
    "solo_completion_time",
    "system_factories",
]
