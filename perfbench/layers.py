"""Per-layer tracing for the benchmark, done from outside the package.

`Tracer.install` replaces each function listed in `LAYERS`, in every
`quditmagic` module namespace that binds it, by a wrapper that counts calls
and accumulates self time: the function's time minus the time of wrapped
functions it called.  Weyl and Clifford calls also record how far they
raise the process's resident-set high-water mark above the resident size at
entry, and a few calls feed layer counters (table bytes, dictionary sizes,
search hits, ADMM iterations).  Nothing inside the package changes, and
`uninstall` restores the original bindings.  A listed function that the
package no longer has is skipped; its metrics read 0.

tracemalloc is not used for the allocation peaks: it slows the Kronecker
table builds about 7x and the Clifford enumeration about 6x, which would
swamp the self times it is meant to sit beside.

A traced process returns `Tracer.raw()`; `merge` sums the raw records of
several processes and `finalize` turns them into the per-layer metrics
named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

# layer (the quditmagic module) -> public functions wrapped in that layer
LAYERS = {
    "phasespace": ["enumerate_maximal_isotropic"],
    "weyl": ["displacement_table", "phase_point_table"],
    "measures": ["pauli_distribution", "wigner_function", "mixed_sre2",
                 "stabilizer_fidelity", "wh_kernel_all"],
    "stabilizers": ["enumerate_stabilizer_states", "max_overlap"],
    "clifford": ["enumerate_reduced_clifford", "affine_from_clifford",
                 "nondegenerate_eigenstates", "word_unitary",
                 "clifford_equivalence_search"],
    "extremality": ["xi2_expansion", "mana_expansion", "fidelity_expansion"],
    "extent": ["solve_extent"],
    "distill": ["distill_step"],
    "catalog": ["verify_catalog", "verify_equivalences"],
    "cli": ["main"],
}

# layer metrics beyond calls and self time: (name, unit, better)
EXTRA_METRICS = {
    "weyl": [("weyl.table_bytes_computed", "B", "lower"),
             ("weyl.peak_alloc_mb", "MB", "lower")],
    "stabilizers": [("stabilizers.dictionary_states", "count", "lower")],
    "clifford": [("clifford.search_found_ratio", "ratio", "higher"),
                 ("clifford.peak_alloc_mb", "MB", "lower")],
    "extent": [("extent.iterations", "count", "lower"),
               ("extent.converged_ratio", "ratio", "higher")],
    "cli": [("cli.import_s", "s", "lower")],
}

# the end-to-end metrics (and workloads) each layer is expected to move;
# a layer should leave every other pairing unchanged
MOVES = {
    "phasespace": [("setup_s", "measure-scan")],
    "weyl": [("sre_2x6_s", "large-d-cold"), ("wall_s", "large-d-cold"),
             ("peak_rss_mb", "large-d-cold"), ("setup_s", "measure-scan")],
    "measures": [("op_p50_ms", "measure-scan"), ("op_p90_ms", "measure-scan"),
                 ("xi2_2x4_s", "large-d-cold")],
    "stabilizers": [("setup_s", "measure-scan"), ("search_s", "clifford-cli"),
                    ("catalog_verify_s", "clifford-cli")],
    "clifford": [("eigenstates_2x2_s", "clifford-cli"),
                 ("search_s", "clifford-cli")],
    "extremality": [("xi2_2x4_s", "large-d-cold"), ("wall_s", "large-d-cold")],
    "extent": [("extent_solve_s", "clifford-cli")],
    "distill": [("distill_sweep_s", "clifford-cli")],
    "catalog": [("catalog_verify_s", "clifford-cli")],
    "cli": [("setup_s", "clifford-cli")],
}

ALLOC_LAYERS = ("weyl", "clifford")


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
        out.extend(EXTRA_METRICS.get(layer, []))
    return out


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quditmagic" or name.startswith("quditmagic."))]


class Tracer:
    """Call counts, self times, allocation peaks and layer counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.import_s: list[float] = []
        self._paused = False
        self._child_s: list[float] = []      # per open frame: time in wrapped children
        self._alloc: list[tuple[int, int]] = []   # per open frame: (rss, high-water mark)
        self._seen: set = set()
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every quditmagic namespace binding it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"quditmagic.{layer}")
        modules = _package_modules()
        for layer, fns in LAYERS.items():
            home = sys.modules[f"quditmagic.{layer}"]
            for fn in fns:
                orig = getattr(home, fn, None)
                if orig is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fn}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        old, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = old

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        track_alloc = layer in ALLOC_LAYERS
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if track_alloc:
                self._alloc_enter()
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._child_s.pop()
                if track_alloc:
                    self._alloc_exit(layer)
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                if self._child_s:
                    self._child_s[-1] += elapsed
            if hook is not None:
                hook(self, name, result, fn, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _alloc_enter(self) -> None:
        self._alloc.append((_rss_bytes(), _high_water_bytes()))

    def _alloc_exit(self, layer: str) -> None:
        rss, high_water = self._alloc.pop()
        after = _high_water_bytes()
        if after > high_water:    # the call set a new peak: it rose this far
            self.peak_mb[layer] = max(self.peak_mb[layer], (after - rss) / 2 ** 20)

    def first_time(self, key) -> bool:
        """True once per key and process: the first call builds a cache entry."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def raw(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "peak_mb": dict(self.peak_mb),
                "import_s": list(self.import_s)}


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _high_water_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# -- counters fed from call results -------------------------------------

def _table_hook(tracer, name, result, *call):
    if tracer.first_time((name, result.shape)):
        tracer.counts["weyl.table_bytes_computed"] += result.nbytes


def _dictionary_hook(tracer, name, result, *call):
    if tracer.first_time((name, result.dims)):
        tracer.counts["stabilizers.dictionary_states"] += len(result)


def _search_hook(tracer, name, result, *call):
    tracer.counts["clifford.search_found"] += result is not None


def _extent_hook(tracer, name, result, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts["extent.iterations"] += result.iterations
    gap, tol = result.duality_gap, bound.arguments.get("tol")
    tracer.counts["extent.converged"] += gap is not None and tol is not None and gap <= tol


_HOOKS = {
    "weyl.displacement_table": _table_hook,
    "weyl.phase_point_table": _table_hook,
    "stabilizers.enumerate_stabilizer_states": _dictionary_hook,
    "clifford.clifford_equivalence_search": _search_hook,
    "extent.solve_extent": _extent_hook,
}


# -- combining processes ----------------------------------------------------

def merge(raws: list[dict]) -> dict:
    """Sum counts and times over processes; keep the largest peaks."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counts": defaultdict(float), "peak_mb": defaultdict(float),
           "import_s": []}
    for raw in raws:
        for key in ("calls", "self_s", "counts"):
            for name, value in raw[key].items():
                out[key][name] += value
        for name, value in raw["peak_mb"].items():
            out["peak_mb"][name] = max(out["peak_mb"][name], value)
        out["import_s"].extend(raw["import_s"])
    return out


def finalize(raw: dict) -> dict[str, float]:
    """Per-layer metric values; metrics of layers not reached read 0."""
    calls, counts = raw["calls"], raw["counts"]
    searches = calls.get("clifford.clifford_equivalence_search", 0)
    solves = calls.get("extent.solve_extent", 0)
    derived = {
        "weyl.table_bytes_computed": counts.get("weyl.table_bytes_computed", 0),
        "weyl.peak_alloc_mb": raw["peak_mb"].get("weyl", 0.0),
        "stabilizers.dictionary_states": counts.get("stabilizers.dictionary_states", 0),
        "clifford.search_found_ratio":
            counts.get("clifford.search_found", 0) / searches if searches else 0.0,
        "clifford.peak_alloc_mb": raw["peak_mb"].get("clifford", 0.0),
        "extent.iterations": counts.get("extent.iterations", 0),
        "extent.converged_ratio":
            counts.get("extent.converged", 0) / solves if solves else 0.0,
        "cli.import_s": statistics.median(raw["import_s"]) if raw["import_s"] else 0.0,
    }
    out = {}
    for name, _, _ in metric_specs():
        if name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = raw["self_s"].get(name[:-len(".self_s")], 0.0)
        else:
            out[name] = derived[name]
    return out
