"""Per-layer spans and counts, recorded by wrapping kopt12's public functions.

The package is left untouched: Tracer.install replaces every module-level
binding of each public function (its defining module, every module that
imported it by name, and the package namespace) with a wrapper that records
one span per call, and Tracer.remove puts the originals back.  Spans keep a
name, a start, an end and the span that was open when the call began; they
stay in memory in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("core", "moves", "certify", "exact", "analysis", "constructions", "cli")

# Called once per tour edge or cost lookup: a span would cost more than the
# call it measures and would swamp every other layer's timing.
_LEAVES = frozenset({"canonical_edge", "cost_edge"})


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder plus the counts that need a function's arguments or result."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.pp_accepted = 0
        self.iterations = 0
        self.moves_examined = 0
        self.largest_scan: tuple | None = None

    # -- installation -----------------------------------------------------

    def _targets(self) -> dict[str, object]:
        """Qualified name -> original function, for every wrapped function."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, fn in vars(mod).items():
                if (
                    name.startswith("_")
                    or name in _LEAVES
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                out[f"{layer}.{name}"] = fn
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks = {
            "moves.find_improving": self._on_find_improving,
            "moves.local_search": self._on_local_search,
            "certify.certify_k_optimal": self._on_certify,
            "certify.certify_kpp_optimal": self._on_certify,
        }
        wrappers = {id(fn): self._wrap(qual, fn, hooks.get(qual)) for qual, fn in self._targets().items()}
        prefix = self.package.__name__
        modules = [m for k, m in sys.modules.items() if k == prefix or k.startswith(prefix + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, qual: str, fn, hook):
        nid = len(self.names)
        self.names.append(qual)
        names, parents, starts, ends = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
        )
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(open_spans[-1])
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                open_spans.pop()
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        return traced

    # -- counts taken from arguments and results ---------------------------

    def _on_find_improving(self, fn, args, kwargs, result) -> None:
        if result is not None and result.gain == 0:
            self.pp_accepted += 1
        n = _arg(args, kwargs, 0, "instance").n
        k = _arg(args, kwargs, 2, "k")
        size = n**3 if k == 3 else n**2
        if self.largest_scan is None or size > self.largest_scan[0]:
            self.largest_scan = (size, fn, args, kwargs)

    def _on_local_search(self, fn, args, kwargs, result) -> None:
        self.iterations += result[1].iterations

    def _on_certify(self, fn, args, kwargs, result) -> None:
        self.moves_examined += result.moves_examined

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def scan_peak_mb(self) -> float:
        """tracemalloc peak of re-running the largest find_improving call seen."""
        if self.largest_scan is None:
            return 0.0
        _, fn, args, kwargs = self.largest_scan
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def summary(self) -> dict[str, float]:
        """Calls and self time per wrapped function, plus the derived counts."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        ids = {qual: i for i, qual in enumerate(self.names)}
        for qual, i in ids.items():
            out[f"{qual}.calls"] = int(calls[i])
            out[f"{qual}.self_s"] = float(self_s[i])

        # ++ find_improving calls count_zero_paths once for the tour itself,
        # then once per zero-gain candidate it rebuilds; plain never calls it.
        cz = (name == ids["moves.count_zero_paths"]) & has_parent
        cz_parents = parent[cz]
        in_scan = cz_parents[name[cz_parents] == ids["moves.find_improving"]]
        candidates = int(in_scan.size - np.unique(in_scan).size)
        out["moves.pp_candidates"] = candidates
        out["moves.pp_accepted"] = self.pp_accepted
        out["moves.pp_useful_ratio"] = self.pp_accepted / candidates if candidates else 0.0
        out["moves.local_search.iterations"] = self.iterations
        out["certify.moves_examined"] = self.moves_examined

        sweeps = np.flatnonzero(name == ids["cli.run_sweep"])
        certs = np.isin(name, [ids["certify.certify_k_optimal"], ids["certify.certify_kpp_optimal"]])
        recertify = 0.0
        for s in sweeps:
            inside = certs & (a["start"] >= a["start"][s]) & (a["end"] <= a["end"][s])
            recertify += float(dur[inside].sum())
        out["cli.sweep_recertify_s"] = recertify
        return out

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
