"""Out-of-program tracing: wrap each layer's public functions, record spans.

`Tracer.install()` replaces every public function and method of the layer
modules at every binding it is reachable through, including the names other
modules imported with ``from .sets import ...`` and methods such as
``CantorIterate.runs_in`` on their classes, so internal calls are caught.
Each call records a span (name, start, end, parent span, job id, item count)
in flat arrays kept in memory; self time is derived from the spans when the
run ends.  `Tracer.uninstall()` puts every original back.

Generator functions (`iter_components`, `component_lengths`) are drained
inside their span and handed back as an iterator over the drained list.
Every caller in the program consumes them fully, so outputs do not change.
"""

from __future__ import annotations

import inspect
import sys
import types
from array import array
from time import perf_counter
from typing import Callable, Optional

import numpy as np

LAYERS = ("sets", "porosity", "weights", "muckenhoupt", "scaling", "suites", "reporting")
PACKAGE = "poroweights"
MARK = "__perfbench_wrapped__"

# Suites some workload runs, by function; `pore-transport` is run by none.
SUITE_FUNCS = {
    "suite_distance_envelope": "distance-envelope",
    "suite_hole_control": "hole-control",
    "suite_left_propagation": "left-propagation",
    "suite_decay": "decay",
    "suite_dimension": "dimension",
    "suite_sided_transport": "sided-transport",
    "suite_equivalence_matrix": "equivalence",
}


def _file_size(args, _result) -> int:
    return args[0].stat().st_size


def _length(_args, result) -> int:
    return len(result)


def _checks(_args, result) -> int:
    return getattr(result, "checks", 0)


# Item counts recorded on spans, by function name.
ITEMS: dict[str, Callable] = {
    "runs_in": _length,
    "points_in": _length,
    "intervals": _length,
    "write_json": _file_size,
    "write_csv": _file_size,
    **{f: _checks for f in SUITE_FUNCS},
}


def package_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Tracer:
    """Span recorder and wrapper installer; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span-name table; spans store indices into it
        # one entry per span, in compact arrays (27 bytes a span)
        self.name_id: array = array("h")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.job: array = array("b")
        self.items: array = array("i")
        self.stack: list[int] = [-1]
        self.current_job = -1
        self.intervals_created = 0
        self._job_name = self._name("cli.job")
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.current_job)
        self.items.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_job(self, job: int) -> None:
        self.current_job = job
        self._job_span = self._open(self._job_name)

    def end_job(self) -> None:
        self._close(self._job_span)
        self.current_job = -1

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, items: Optional[Callable]) -> Callable:
        nid = self._name(name)
        open_, close, counts = self._open, self._close, self.items
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return iter(list(fn(*args, **kwargs)))
                finally:
                    close(idx)
        elif items is None:
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                    counts[idx] = items(args, result)
                    return result
                finally:
                    close(idx)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        setattr(wrapper, MARK, fn)
        return wrapper

    def _count_intervals(self, fn: Callable) -> Callable:
        tracer = self

        def post_init(obj):
            tracer.intervals_created += 1
            return fn(obj)

        setattr(post_init, MARK, fn)
        return post_init

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public functions of every layer at all their bindings."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrappers: dict[int, Callable] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", ITEMS.get(attr))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        # rebind every module-level name that points at a wrapped function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._replace(mod, attr, wrappers[id(obj)])
        from poroweights.intervals import Interval
        self._replace(Interval, "__post_init__", self._count_intervals(Interval.__dict__["__post_init__"]))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._replace(cls, attr, type(raw)(self._wrap(raw.__func__, name, ITEMS.get(attr))))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, self._wrap(raw, name, ITEMS.get(attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int8),
            "items": np.frombuffer(self.items, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a wrapper; empty after uninstall."""
    found = []
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, raw in vars(obj).items():
                    if hasattr(getattr(raw, "__func__", raw), MARK):
                        found.append(f"{mod.__name__}.{obj.__name__}.{cattr}")
    return found


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

COMPONENT_WALK = ("iter_components", "component_lengths", "max_component_length",
                  "min_component_length", "largest_component")


class SpanTable:
    """Per-span durations, self times and group queries over recorded spans."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        self.name_id = spans["name_id"]
        self.parent = spans["parent"]
        self.items = spans["items"]
        self.dur = spans["end"] - spans["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child

    def mask(self, pred: Callable[[str], bool]) -> np.ndarray:
        ids = np.array([pred(n) for n in self.names] or [False], dtype=bool)
        return ids[self.name_id] if len(self.name_id) else np.zeros(0, dtype=bool)

    def group(self, pred: Callable[[str], bool]) -> dict[str, float]:
        """calls/s/items over outermost spans of the group; self_s over all of them."""
        g = self.mask(pred)
        parent_in_g = np.zeros_like(g)
        has_parent = self.parent >= 0
        parent_in_g[has_parent] = g[self.parent[has_parent]]
        outer = g & ~parent_in_g
        return {
            "calls": int(outer.sum()),
            "s": float(self.dur[outer].sum()),
            "self_s": float(self.self_time[g].sum()),
            "items": int(self.items[outer].sum()),
        }


def _fn(layer: str, *funcs: str) -> Callable[[str], bool]:
    """Spans of the named functions or methods (on any class) of one layer."""
    def pred(name: str) -> bool:
        parts = name.split(".")
        return parts[0] == layer and parts[-1] in funcs
    return pred


def _layer(layer: str) -> Callable[[str], bool]:
    return lambda name: name.split(".")[0] == layer


def layer_metrics(t: SpanTable, intervals_created: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced run, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    runs = t.group(_fn("sets", "runs_in"))
    put("sets.runs_in.calls", runs["calls"], "count")
    put("sets.runs_in.self_s", runs["self_s"], "s")
    put("sets.runs_in.runs_returned", runs["items"], "count")
    walk = t.group(_fn("sets", *COMPONENT_WALK))
    put("sets.component_walk.calls", walk["calls"], "count")
    put("sets.component_walk.self_s", walk["self_s"], "s")
    put("sets.nearest.calls", t.group(_fn("sets", "nearest_leq", "nearest_geq"))["calls"], "count")
    put("sets.points_in.points", t.group(_fn("sets", "points_in"))["items"], "count")
    put("sets.neighborhood_measure.self_s", t.group(_fn("sets", "neighborhood_measure"))["self_s"], "s")

    rho = t.group(_fn("porosity", "rho"))
    probes = t.group(_fn("porosity", "intervals"))["items"]
    put("porosity.rho.calls", rho["calls"], "count")
    put("porosity.rho.self_s", rho["self_s"], "s")
    sig = t.group(_fn("porosity", "sigma_at"))
    put("porosity.sigma_at.calls", sig["calls"], "count")
    put("porosity.sigma_at.self_s", sig["self_s"], "s")
    put("porosity.probes", probes, "count")
    put("porosity.rho_per_probe", rho["calls"] / probes if probes else 0.0, "ratio")
    for f in ("certify", "sweep_parameters", "doubling_witness"):
        put(f"porosity.{f}.s", t.group(_fn("porosity", f))["s"], "s")

    for f in ("integrate", "ess_inf", "max_distance_on"):
        g = t.group(_fn("weights", f))
        put(f"weights.{f}.calls", g["calls"], "count")
        put(f"weights.{f}.self_s", g["self_s"], "s")

    tri = t.group(_fn("muckenhoupt", "triple_value"))
    put("muckenhoupt.triple_value.calls", tri["calls"], "count")
    put("muckenhoupt.triple_value.self_s", tri["self_s"], "s")
    a1 = t.group(_fn("muckenhoupt", "a1_constant"))
    put("muckenhoupt.a1_constant.calls", a1["calls"], "count")
    put("muckenhoupt.a1_constant.s", a1["s"], "s")
    put("muckenhoupt.critical_alpha.s", t.group(_fn("muckenhoupt", "critical_alpha"))["s"], "s")

    for func, sid in SUITE_FUNCS.items():
        put(f"suites.{sid}.s", t.group(_fn("suites", func))["s"], "s")
    put("suites.checks", t.group(_fn("suites", *SUITE_FUNCS))["items"], "count")

    writes = t.group(_layer("reporting"))
    put("reporting.write.s", writes["s"], "s")
    put("reporting.bytes", t.group(_fn("reporting", "write_json", "write_csv"))["items"], "B")
    put("intervals.Interval.created", intervals_created, "count")

    for layer in LAYERS:
        put(f"{layer}.self_s", t.group(_layer(layer))["self_s"], "s")
    put("cli.self_s", t.group(lambda n: n == "cli.job")["self_s"], "s")
    return m
