"""Discrete-event simulation kernel used by every simulated substrate.

This package provides a small, deterministic, generator-based DES engine in
the style of SimPy, purpose-built for the Strings reproduction:

* :class:`~repro.sim.core.Environment` — the event loop and simulated clock.
* :class:`~repro.sim.events.Event` family — one-shot events, timeouts and
  ``AllOf``/``AnyOf`` condition events, plus :func:`any_of_event` /
  :func:`all_of_event`, plain events that fire when those conditions would.
* :class:`~repro.sim.process.Process` — coroutine processes written as
  generators that ``yield`` events.
* :mod:`~repro.sim.resources` — counted resources, priority resources and
  FIFO stores for modelling engines, queues and channels.
* :class:`~repro.sim.rng.RandomStream` — seeded random streams (exponential
  inter-arrival times per the paper's eq. 4).

Determinism: the event queue is keyed by ``(time, priority, sequence)`` so
two runs with the same seeds produce identical traces.
"""

from repro.sim.core import Environment, SimulationError
from repro.sim.events import (
    AllOf,
    AnyOf,
    ConditionValue,
    Event,
    EventPriority,
    Interrupt,
    Timeout,
    all_of_event,
    any_of_event,
)
from repro.sim.process import Process, ProcessExit
from repro.sim.resources import (
    PreemptionError,
    PriorityResource,
    Request,
    Resource,
    Store,
)
from repro.sim.rng import RandomStream

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Environment",
    "Event",
    "EventPriority",
    "Interrupt",
    "PreemptionError",
    "PriorityResource",
    "Process",
    "ProcessExit",
    "RandomStream",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "all_of_event",
    "any_of_event",
]
