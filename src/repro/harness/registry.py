"""Declarative experiment registry: prepare/run/analyze across the harness.

Every harness experiment is a subclass of :class:`Experiment` registered
under a CLI-stable name with :func:`register`.  The protocol splits each
experiment into three phases (the artiq ``prepare``/``run``/``analyze``
shape, DESIGN.md §16):

``prepare(ctx)``
    Pre-compute configuration (parse specs, resolve grids, build request
    streams).  Must not simulate.  Raises ``ValueError`` for bad options,
    which the CLI reports before any experiment simulates.
``run(ctx)``
    Execute the simulation(s) and return a **JSON-serializable** results
    document.  The executor round-trips whatever ``run`` returns through
    JSON before anything else sees it, so live and cached analysis are
    guaranteed to read byte-identical data.
``analyze(results, ctx)``
    Render the results document into the experiment's report text.  Must
    depend only on ``results`` (and cheap ``ctx.options``), never on
    simulation state — that is what makes ``python -m repro.harness
    analyze --from <run-dir>`` re-renderable offline.

Sweeps are declared, not hand-rolled: :class:`GridExperiment` takes a
:class:`ParamGrid` over named axes and executes it point-by-point
through one ``run_point`` hook, optionally giving each point its own
fresh telemetry registry and span-shard subdirectory (the pattern the
``scale`` knee-sweep established).

Run artifacts (``save_run``/:func:`analyze_from`) live in a run
directory::

    <run-dir>/experiment.json   # name, scale knobs, options (format 2)
    <run-dir>/results.json      # the round-tripped ``run`` document

``analyze_from`` re-instantiates the registered class and re-renders
without constructing a single :class:`~repro.sim.Environment` — the DES
kernel's ``events_processed`` count stays at zero, which the round-trip
test asserts.
"""

from __future__ import annotations

import difflib
import importlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.harness.format import format_table
from repro.harness.runner import SCALE_PAPER, ExperimentScale

#: Version stamp of the run-directory layout.  Bump when the artifact
#: schema changes incompatibly; ``analyze_from`` refuses newer/older
#: formats with an actionable error instead of mis-rendering them.
RUN_FORMAT = 2

#: Harness modules scanned by :func:`discover`.  Imported by dotted name
#: (not an ``import`` statement) so the intra-harness layering lint can
#: keep the registry ranked *below* the experiment modules it serves.
DISCOVER_MODULES = (
    "table1", "fig1", "fig2", "fig9", "fig11", "pairsweep", "ablations",
    "chaos", "scale", "scaleout",
)


class UnknownExperiment(KeyError):
    """Raised by :func:`get` for names missing from the registry.

    The message names near-miss registry entries, so CLI callers can
    surface it verbatim as an actionable error.
    """

    def __init__(self, name: str, known: Sequence[str]):
        self.name = name
        self.suggestions = difflib.get_close_matches(name, list(known), n=3, cutoff=0.4)
        hint = (
            f"did you mean: {', '.join(self.suggestions)}? "
            if self.suggestions
            else ""
        )
        super().__init__(
            f"unknown experiment {name!r}; {hint}"
            f"'python -m repro.harness list' prints the registry"
        )

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


# --------------------------------------------------------------------------
# Context & parameter grids
# --------------------------------------------------------------------------


@dataclass
class ExperimentContext:
    """Everything a phase may read: size knobs, options, injected registries.

    ``options`` carries CLI/caller knobs (``system``, ``traffic``,
    ``policies``, ...); experiments read them with :meth:`option` and
    ignore keys they do not know.  ``telemetry`` overrides the installed
    process-wide registry (perf-gate style injection); ``None`` keeps the
    :func:`repro.obs.current` default.
    """

    scale: ExperimentScale = SCALE_PAPER
    options: Dict[str, object] = field(default_factory=dict)
    telemetry: object = None
    out_dir: Optional[str] = None

    def option(self, key: str, default=None):
        value = self.options.get(key)
        return default if value is None else value


@dataclass(frozen=True)
class ParamGrid:
    """A declarative parameter grid: named axes, cartesian points.

    Axes keep their declaration order; :meth:`points` walks the product
    with the last axis fastest (``itertools.product`` order), so sweeps
    are reproducible row-by-row.
    """

    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]

    @classmethod
    def of(cls, **axes: Sequence[object]) -> "ParamGrid":
        return cls(tuple((name, tuple(values)) for name, values in axes.items()))

    @property
    def axis_names(self) -> List[str]:
        return [name for name, _ in self.axes]

    def __len__(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def points(self) -> Iterator[Dict[str, object]]:
        names = self.axis_names
        for combo in itertools.product(*(values for _, values in self.axes)):
            yield dict(zip(names, combo))

    def describe(self) -> str:
        """``policy[3]xpair[24]`` — the axes at a glance."""
        return "x".join(f"{name}[{len(values)}]" for name, values in self.axes)


# --------------------------------------------------------------------------
# The Experiment protocol
# --------------------------------------------------------------------------


class Experiment:
    """Base class for registered experiments (see the module docstring).

    Subclass, override ``run`` (and optionally ``prepare``/``analyze``),
    and decorate with :func:`register`.  ``analyze`` returns the report
    text; the executor prints it, so phases never print the final report
    themselves (progress lines during ``run`` are fine).
    """

    #: CLI-stable registry name, set by :func:`register`.
    name: str = ""
    #: Declared sweep axes (display + GridExperiment default), or None.
    grid: Optional[ParamGrid] = None

    def prepare(self, ctx: ExperimentContext) -> None:
        """Pre-compute configuration.  Must not simulate.

        Raises ``ValueError`` when ``ctx.options`` is invalid.
        """

    def run(self, ctx: ExperimentContext):
        """Simulate and return a JSON-serializable results document."""
        raise NotImplementedError

    def analyze(self, results, ctx: ExperimentContext) -> str:
        """Render ``results`` (always JSON-round-tripped) into report text."""
        raise NotImplementedError

    # -- introspection (harness list) --------------------------------------

    @classmethod
    def phases(cls) -> str:
        """Which protocol phases the class implements, e.g. ``run/analyze``."""
        out = []
        for phase in ("prepare", "run", "analyze"):
            if getattr(cls, phase) is not getattr(Experiment, phase):
                out.append(phase)
        return "/".join(out)

    @classmethod
    def describe(cls) -> str:
        """One-line description pulled from the class docstring."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""


class GridExperiment(Experiment):
    """An experiment whose ``run`` phase is a declared parameter sweep.

    Subclasses declare ``grid`` (or override :meth:`grid_for` to derive
    it from ``ctx.options``) and implement :meth:`run_point`; the shared
    ``run`` executes the grid point-by-point and returns::

        {"grid": {axis: [values...]}, "points": [{"params": {...}, "result": ...}]}

    The default ``analyze`` renders one table row per point (axis
    columns plus every scalar key of the point results).
    """

    def grid_for(self, ctx: ExperimentContext) -> ParamGrid:
        if self.grid is None:
            raise NotImplementedError(
                f"{type(self).__name__} declares no grid; set ``grid`` or "
                "override grid_for()"
            )
        return self.grid

    def point_label(self, params: Dict[str, object]) -> str:
        """Stable label of one grid point (shard subdirs, progress lines)."""
        return ",".join(f"{k}={v}" for k, v in params.items())

    def run_point(self, params: Dict[str, object], ctx: ExperimentContext):
        raise NotImplementedError

    def run(self, ctx: ExperimentContext):
        grid = self.grid_for(ctx)
        points = []
        for params in grid.points():
            points.append({"params": dict(params), "result": self.run_point(params, ctx)})
        return {
            "grid": {name: list(values) for name, values in grid.axes},
            "points": points,
        }

    def analyze(self, results, ctx: ExperimentContext) -> str:
        axis_names = list(results["grid"])
        value_keys: List[str] = []
        for point in results["points"]:
            result = point["result"]
            if isinstance(result, dict):
                for key in result:
                    if key not in value_keys:
                        value_keys.append(key)
        headers = axis_names + (value_keys or ["result"])
        rows = []
        for point in results["points"]:
            row = [point["params"][a] for a in axis_names]
            result = point["result"]
            if isinstance(result, dict):
                row += [result.get(k, "") for k in value_keys]
            else:
                row.append(result)
            rows.append(row)
        return format_table(
            headers, rows, title=f"{self.name} — declared grid sweep"
        )


def point_telemetry(
    ctx: ExperimentContext,
    label: str,
    sample_interval_s: float = 1.0,
):
    """A fresh per-point telemetry registry (the ``scale`` sweep pattern).

    Grid points must not contaminate each other, so each gets its own
    :class:`~repro.obs.Telemetry` with a sampler attached; when
    ``ctx.options['stream_dir']`` is set, the point's spans shard into a
    ``point-<label>/`` subdirectory (bounded memory however long the
    sweep).  Returns
    ``(telemetry, store)``; the caller closes a non-``None`` store.
    """
    from repro.obs import Sampler, Telemetry
    from repro.obs.stream import attach_store

    tel = Telemetry()
    tel.sampler = Sampler(interval_s=sample_interval_s)
    store = None
    stream_dir = ctx.option("stream_dir")
    if stream_dir is not None:
        store = attach_store(
            tel,
            os.path.join(stream_dir, f"point-{label}"),
            buffer_limit=int(ctx.option("span_buffer", 10_000)),
        )
    return tel, store


# --------------------------------------------------------------------------
# Registry & discovery
# --------------------------------------------------------------------------

_REGISTRY: Dict[str, type] = {}
_ALIASES: Dict[str, str] = {}
_discovered = False


def register(name: str, aliases: Sequence[str] = ()):
    """Class decorator: register an :class:`Experiment` under ``name``."""

    def deco(cls: type) -> type:
        if not (isinstance(cls, type) and issubclass(cls, Experiment)):
            raise TypeError(f"@register({name!r}) needs an Experiment subclass")
        cls.name = name
        _REGISTRY[name] = cls
        for alias in aliases:
            _ALIASES[alias] = name
        return cls

    return deco


def discover() -> Dict[str, type]:
    """Import every harness experiment module once; return the registry."""
    global _discovered
    if not _discovered:
        for module in DISCOVER_MODULES:
            importlib.import_module(f"repro.harness.{module}")
        _discovered = True
    return dict(sorted(_REGISTRY.items()))


def names() -> List[str]:
    return sorted(discover())


def get(name: str) -> type:
    """Resolve ``name`` (or alias) to its Experiment class.

    Raises :class:`UnknownExperiment` (with near-miss suggestions) for
    anything not registered.
    """
    registry = discover()
    resolved = _ALIASES.get(name, name)
    try:
        return registry[resolved]
    except KeyError:
        raise UnknownExperiment(name, [*registry, *_ALIASES]) from None


def format_listing() -> str:
    """The ``harness list`` table: name, phases, grid axes, description."""
    registry = discover()
    rows = []
    for name, cls in registry.items():
        grid = cls.grid.describe() if cls.grid is not None else "-"
        rows.append([name, cls.phases(), grid, cls.describe()])
    return format_table(
        ["Experiment", "Phases", "Grid", "Description"],
        rows,
        title=f"registered experiments ({len(registry)})",
    )


# --------------------------------------------------------------------------
# JSON round-tripping
# --------------------------------------------------------------------------


def to_jsonable(obj):
    """Recursively coerce a results document into plain JSON types.

    Dict keys become strings, tuples become lists, numpy scalars/arrays
    collapse via ``tolist()``; anything else falls back to ``str``.
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    tolist = getattr(obj, "tolist", None)  # numpy arrays and scalars
    if callable(tolist):
        return to_jsonable(tolist())
    return str(obj)


def roundtrip(results):
    """What ``analyze`` always receives: results as-if loaded from disk.

    Both the live executor and :func:`analyze_from` feed ``analyze``
    through this same JSON round-trip, which is what makes cached
    re-analysis byte-identical to the live run's report.
    """
    return json.loads(json.dumps(to_jsonable(results)))


# --------------------------------------------------------------------------
# Executor & run artifacts
# --------------------------------------------------------------------------


def execute(name: str, ctx: Optional[ExperimentContext] = None):
    """Run one registered experiment's prepare+run; return (exp, results).

    ``results`` is already round-tripped; pass it straight to
    ``exp.analyze(results, ctx)``.
    """
    exp = get(name)()
    if ctx is None:
        ctx = ExperimentContext()
    exp.prepare(ctx)
    results = roundtrip(exp.run(ctx))
    if ctx.out_dir is not None:
        save_run(ctx.out_dir, exp.name, ctx, results)
    return exp, results


def run_main(
    name: str,
    scale: Optional[ExperimentScale] = None,
    out_dir: Optional[str] = None,
    **options,
) -> str:
    """The shared CLI driver every legacy ``main()`` delegates to.

    Prepares, runs, optionally persists the run directory, renders the
    analysis and prints it.  Returns the report text (the historical
    ``main()`` contract).
    """
    ctx = ExperimentContext(
        scale=scale if scale is not None else SCALE_PAPER,
        options={k: v for k, v in options.items() if v is not None},
        out_dir=out_dir,
    )
    exp, results = execute(name, ctx)
    text = exp.analyze(results, ctx)
    print(text)
    if out_dir is not None:
        print(f"[run artifacts written to {out_dir}]")
    return text


def save_run(out_dir: str, name: str, ctx: ExperimentContext, results) -> None:
    """Persist one run's artifacts (``experiment.json`` + ``results.json``)."""
    os.makedirs(out_dir, exist_ok=True)
    meta = {
        "format": RUN_FORMAT,
        "experiment": name,
        "scale": asdict(ctx.scale),
        "options": to_jsonable(
            {k: v for k, v in ctx.options.items() if not callable(v)}
        ),
    }
    with open(os.path.join(out_dir, "experiment.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")


def load_run(run_dir: str) -> Tuple[Dict[str, object], object]:
    """Load (meta, results) from a run directory, validating the format."""
    meta_path = os.path.join(run_dir, "experiment.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"{run_dir} is not a harness run directory (no experiment.json; "
            "produce one with 'python -m repro.harness run <name> --out-dir DIR')"
        ) from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{meta_path} is not valid JSON: {e}") from None
    if meta.get("format") != RUN_FORMAT:
        raise ValueError(
            f"{run_dir}: run format {meta.get('format')!r} does not match "
            f"this harness ({RUN_FORMAT}); re-run the experiment to refresh "
            "the cached artifacts"
        )
    results_path = os.path.join(run_dir, "results.json")
    try:
        with open(results_path) as fh:
            results = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"{run_dir}: results.json missing (incomplete run?)"
        ) from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{results_path} is not valid JSON: {e}") from None
    return meta, results


def analyze_from(run_dir: str, options: Optional[Dict[str, object]] = None) -> str:
    """Re-render a saved run's report from cached artifacts, no simulation.

    The registered class's ``analyze`` runs against the results document
    exactly as the live executor fed it (same JSON round-trip), so the
    output is byte-identical to the live run's report.
    """
    meta, results = load_run(run_dir)
    exp = get(str(meta["experiment"]))()
    scale_doc = meta.get("scale") or {}
    known = {f.name for f in fields(ExperimentScale)}
    scale = replace(
        SCALE_PAPER, **{k: v for k, v in scale_doc.items() if k in known}
    )
    merged = dict(meta.get("options") or {})
    merged.update(options or {})
    ctx = ExperimentContext(scale=scale, options=merged)
    return exp.analyze(results, ctx)


__all__ = [
    "DISCOVER_MODULES",
    "Experiment",
    "ExperimentContext",
    "GridExperiment",
    "ParamGrid",
    "RUN_FORMAT",
    "UnknownExperiment",
    "analyze_from",
    "discover",
    "execute",
    "format_listing",
    "get",
    "load_run",
    "names",
    "point_telemetry",
    "register",
    "roundtrip",
    "run_main",
    "save_run",
    "to_jsonable",
]
