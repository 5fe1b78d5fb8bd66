"""Core observability instruments: counters, gauges, histograms, spans.

Everything hangs off a per-run :class:`Telemetry` registry.  The registry
is *simulation-time aware*: spans record ``env.now`` timestamps (the
:class:`~repro.sim.core.Environment` attaches its clock on construction),
while :class:`Stopwatch` measures host wall-clock time — the two axes the
harness needs to compare (simulated seconds vs seconds-to-simulate).

Design constraints (ISSUE 1):

* cheap enough to leave on — instruments are plain attribute updates, and
  every hot-path hook guards on ``telemetry.enabled``;
* a no-op :data:`NULL_TELEMETRY` singleton is the default everywhere, so
  an un-instrumented run pays only an attribute read and a branch;
* instruments are keyed by ``(name, labels)`` so the same code path can
  account per-app / per-GPU / per-policy without pre-declaring series.

This module is dependency-free (stdlib only) so the simulation kernel can
import it without cycles.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.attribution import NULL_ATTRIBUTION, AttributionTable
from repro.telemetry.decisions import NULL_DECISION_LOG, DecisionLog
from repro.telemetry.sketch import QuantileSketch

_span_ids = itertools.count(1)

#: Canonical instrument-key type: name + sorted label items.
InstrumentKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _labels_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """``name{k=v,...}`` — the flat key used in metric dumps."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count.

    Counters are usable standalone (e.g. the dispatch gate always counts
    wakes/sleeps, telemetry or not) and can be adopted into a registry
    with :meth:`Telemetry.register` so they appear in metric exports.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, **labels: Any) -> None:
        self.name = name
        self.labels = _labels_key(labels)
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n

    @property
    def series(self) -> str:
        return format_series_name(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.series}={self.value}>"


class Gauge:
    """A point-in-time value; remembers its extremes."""

    __slots__ = ("name", "labels", "value", "max_value", "min_value")

    def __init__(self, name: str, **labels: Any) -> None:
        self.name = name
        self.labels = _labels_key(labels)
        self.value: float = 0.0
        self.max_value: float = -math.inf
        self.min_value: float = math.inf

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v
        if v < self.min_value:
            self.min_value = v

    def add(self, dv: float) -> None:
        self.set(self.value + dv)

    @property
    def series(self) -> str:
        return format_series_name(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.series}={self.value}>"


class Histogram(QuantileSketch):
    """A named, labelled :class:`~repro.telemetry.sketch.QuantileSketch`.

    Latencies and sizes span microsecond RPCs to second-long queue waits;
    the sketch's geometric buckets keep every quantile within 1 % of the
    exact value in O(occupied buckets) memory, and per-label histograms
    merge losslessly (:func:`~repro.telemetry.sketch.merged_quantile`).
    """

    __slots__ = ("name", "labels")

    def __init__(self, name: str, **labels: Any) -> None:
        super().__init__()
        self.name = name
        self.labels = _labels_key(labels)

    @property
    def series(self) -> str:
        return format_series_name(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.series} n={self.count} mean={self.mean:.6g}>"


class Span:
    """A named interval of simulated time, with parent links.

    ``track`` names the timeline row the span belongs to in trace views
    (``app:MC``, ``GPU0/SM``, ...); ``run_id``/``run_label`` scope it to
    one experiment run so several runs can share a registry.
    """

    __slots__ = (
        "span_id", "name", "cat", "track", "start", "end",
        "parent_id", "args", "run_id", "run_label",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        parent_id: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
        run_id: int = 0,
        run_label: str = "",
    ) -> None:
        self.span_id = next(_span_ids)
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.parent_id = parent_id
        self.args = args
        self.run_id = run_id
        self.run_label = run_label

    def finish(self, t: float) -> "Span":
        self.end = t
        return self

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Span {self.cat}:{self.name} [{self.start:.6g}, {self.end}]>"


class Stopwatch:
    """Wall-clock context manager; optionally records into a histogram."""

    __slots__ = ("_hist", "_t0", "elapsed")

    def __init__(self, hist: Optional[Histogram] = None) -> None:
        self._hist = hist
        self._t0 = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        if self._hist is not None:
            self._hist.observe(self.elapsed)


class _DetachedClock:
    """Stand-in environment before any run attaches: the clock reads 0."""

    __slots__ = ()
    now = 0.0


_DETACHED_CLOCK = _DetachedClock()


class Telemetry:
    """The per-run observability registry.

    Holds every instrument, span and scheduler decision of a run (or of a
    sequence of runs — each :class:`~repro.sim.core.Environment` bumps
    ``run_id`` when it attaches, so exporters can keep runs apart).

    ``enabled`` gates the per-op hot paths (spans, counters, attribution);
    ``sampling`` gates the continuous :class:`~repro.telemetry.timeseries.Sampler`.
    A full registry carries both; :class:`SamplingTelemetry` keeps only the
    sampler; the null registry neither.
    """

    enabled = True
    sampling = True

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[type, InstrumentKey], Any] = {}
        #: Hot-path lookup cache keyed by the *un-sorted* label items, so
        #: repeat calls from the same callsite skip the sort+str
        #: canonicalisation in :func:`_labels_key`.  Different kwarg
        #: orders for one series hit different fast keys but resolve to
        #: the same canonical instrument.
        self._fast: Dict[Tuple, Any] = {}
        #: Instruments created outside the registry but adopted into it
        #: (e.g. the dispatch gate's always-on wake/sleep counters).
        self._adopted: List[Any] = []
        self.spans: List[Span] = []
        self._append_span = self.spans.append
        self.decisions = DecisionLog(self)
        #: Ring-buffered time series, keyed like instruments (ISSUE 2).
        self.series: Dict[InstrumentKey, Any] = {}
        #: Per-tenant usage/interference accounting (ISSUE 2).
        self.attribution = AttributionTable()
        #: Optional sim-time sampler, attached by the harness (ISSUE 2).
        self.sampler = None
        #: Optional SLO monitor, attached by the harness (ISSUE 2).
        self.slo = None
        #: Optional wall-clock :class:`~repro.telemetry.perf.ZoneProfiler`
        #: (ISSUE 9).  ``None`` means self-profiling is off; hot paths
        #: hoist this attribute and guard with ``is not None`` so the
        #: un-profiled cost is one pointer compare per zone site.
        self.perf = None
        #: Latest SFT snapshot per run label, refreshed by the sampler.
        self.sft_state: Dict[str, Any] = {}
        self.run_id = 0
        self.run_label = ""
        self._env = _DETACHED_CLOCK

    # -- run scoping -------------------------------------------------------

    def attach(self, env) -> None:
        """Bind the simulated clock of a new run (one per Environment).

        The environment itself is kept (not a closure over it): reading
        ``env.now`` directly saves a lambda frame on the span hot path.
        """
        self.run_id += 1
        self._env = env

    @property
    def now(self) -> float:
        """Current simulated time of the attached run."""
        return self._env.now

    # -- instrument factories ----------------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        # The label-key tuple is built once, up front, and reused for both
        # the fast-path probe and (via its tail) the canonical key, so the
        # hot path does a single tuple allocation + one dict probe.
        fast = (cls, name, *labels.items())
        try:
            inst = self._fast.get(fast)
        except TypeError:  # unhashable label value: canonical path only
            fast = None
            inst = None
        if inst is not None:
            return inst
        key = (cls, (name, _labels_key(labels)))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, **labels)
            self._instruments[key] = inst
        if fast is not None:
            self._fast[fast] = inst
        return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def register(self, instrument) -> None:
        """Adopt an externally created instrument into metric exports."""
        self._adopted.append(instrument)

    def timeseries(self, name: str, capacity: int = 1024, **labels: Any):
        """The ring-buffered :class:`~repro.telemetry.timeseries.Series` for
        ``(name, labels)``, created on first use (``capacity`` applies
        only at creation)."""
        # Local import: timeseries depends on this module's label helpers.
        from repro.telemetry.timeseries import Series

        key = (name, _labels_key(labels))
        s = self.series.get(key)
        if s is None:
            s = Series(name, capacity=capacity, **labels)
            self.series[key] = s
        return s

    def stopwatch(self, name: Optional[str] = None, **labels: Any) -> Stopwatch:
        """A wall-clock timer; records into ``name`` when given."""
        hist = self.histogram(name, **labels) if name is not None else None
        return Stopwatch(hist)

    # -- spans -------------------------------------------------------------

    def start_span(
        self,
        name: str,
        cat: str = "",
        track: str = "",
        parent: Optional[Span] = None,
        args: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
    ) -> Span:
        # Builds the Span inline rather than via Span.__init__: this is
        # the hottest allocation in a fully-instrumented run (one per op
        # per layer), and skipping the constructor call is worth ~1/3 of
        # its cost.  Keep the field set in lockstep with Span.__slots__.
        sp = Span.__new__(Span)
        sp.span_id = next(_span_ids)
        sp.name = name
        sp.cat = cat
        sp.track = track
        sp.start = self._env.now if start is None else start
        sp.end = None
        sp.parent_id = parent.span_id if parent is not None else None
        sp.args = args
        sp.run_id = self.run_id
        sp.run_label = self.run_label
        self._append_span(sp)
        return sp

    # -- views -------------------------------------------------------------

    def instruments(self) -> List[Any]:
        """Every registered instrument (created + adopted)."""
        return list(self._instruments.values()) + list(self._adopted)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Telemetry runs={self.run_id} spans={len(self.spans)} "
            f"instruments={len(self._instruments) + len(self._adopted)}>"
        )


# ---------------------------------------------------------------------------
# Null registry: the always-installed default.  Every method is a no-op and
# returns a shared singleton, so instrumented code needs no None checks.
# ---------------------------------------------------------------------------


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, v: float) -> None:
        pass

    def add(self, dv: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, v: float) -> None:
        pass


class _NullSpan(Span):
    __slots__ = ()

    def finish(self, t: float) -> "Span":
        return self


class SamplingTelemetry(Telemetry):
    """Sampling-only registry: the interval sampler (and the series,
    gauges and SLO ticks it feeds) stays live, but the per-op hot paths
    — spans, op counters, tenant attribution — see ``enabled = False``
    and skip their work entirely.  This is the cheap way to watch
    utilization and queue depths on long runs: the per-op layer costs
    tens of percent of wall clock, the sampler low single digits (see
    ``BENCH_obs_overhead.json``).
    """

    enabled = False


class NullTelemetry(Telemetry):
    """Disabled registry: drops everything, allocates nothing per call."""

    enabled = False
    sampling = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")
        self._span = _NullSpan("null", "", "", 0.0)
        self.decisions = NULL_DECISION_LOG
        self.attribution = NULL_ATTRIBUTION

    def attach(self, env) -> None:
        pass

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._gauge

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._histogram

    def register(self, instrument) -> None:
        pass

    def timeseries(self, name: str, capacity: int = 1024, **labels: Any):
        from repro.telemetry.timeseries import NULL_SERIES

        return NULL_SERIES

    def stopwatch(self, name: Optional[str] = None, **labels: Any) -> Stopwatch:
        # Still measures (callers read .elapsed) but records nowhere.
        return Stopwatch(None)

    def start_span(self, name, cat="", track="", parent=None, args=None, start=None) -> Span:
        return self._span

    def instruments(self) -> List[Any]:
        return []


#: Shared default: observability off.
NULL_TELEMETRY = NullTelemetry()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SamplingTelemetry",
    "Span",
    "Stopwatch",
    "Telemetry",
    "format_series_name",
]
