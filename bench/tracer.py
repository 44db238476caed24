"""Spans around the public functions of pupilcover, recorded from outside
the package, and the per-layer metrics derived from them.

``Tracer.install`` replaces each traced name in every pupilcover module
that binds it (``coverage``, ``optimize`` and ``svg`` import ``build_acs``,
``vertex_sets`` and ``decide`` themselves), so calls between modules are
seen too.  ``uninstall`` restores the originals.  Spans (name, start, end,
parent) stay in memory in flat arrays and are written out once at the end.
"""

from __future__ import annotations

import gzip
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

#: Traced names by the module that defines them.
TRACED = {
    "geom": ("build_acs", "delta_min"),
    "apollonius": ("tri_disk_vertices", "is_global_vertex", "vertex_sets"),
    "coverage": ("decide", "analyze", "per_disk_alpha", "max_objective"),
    "solver": ("solve_lp", "solve_qp"),
    "optimize": ("relocation_targets", "minimize_sum_radii", "minimize_area", "move_pupils"),
}


def _count_acs(counts, args, acs):
    counts["geom.acs_disks"] += acs.size
    counts["geom.acs_pairs_merged"] += args[0].n ** 2 - acs.size


def _count_vertices(counts, args, sols):
    counts["apollonius.vertex_candidates"] += len(sols)


def _count_kept(counts, args, kept):
    counts["apollonius.vertices_kept"] += bool(kept)


def _count_witnesses(counts, args, vsets):
    m = args[0].size
    counts["apollonius.triples_possible"] += m * (m - 1) * (m - 2) // 6
    counts["apollonius.witness_points"] += sum(len(vs.points) for vs in vsets)


def _count_rows(counts, args, rows):
    counts["optimize.relocation_rows"] += len(rows)


def _count_passes(counts, args, trace):
    counts["optimize.passes"] += len(trace.iterations) - 1


#: Counters read from a traced call's arguments and result.
_ON_RETURN = {
    "build_acs": _count_acs,
    "tri_disk_vertices": _count_vertices,
    "is_global_vertex": _count_kept,
    "vertex_sets": _count_witnesses,
    "relocation_targets": _count_rows,
    "minimize_sum_radii": _count_passes,
    "minimize_area": _count_passes,
    "move_pupils": _count_passes,
}


class Tracer:
    """In-memory span recorder.  Span i has name ``names[name_ids[i]]``,
    times ``starts[i]``..``ends[i]`` and parent span ``parents[i]`` (-1 for
    a root); every root is one benchmark op, so an op's spans are the tree
    below it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, on_return=None, on_error=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()
        if on_return is not None:
            on_return(self.counts, args, out)
        return out

    def _wrapper(self, span_name: str, fn, on_return, on_error):
        def traced(*args, **kwargs):
            return self.call(span_name, fn, *args, on_return=on_return,
                             on_error=on_error, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced name in every loaded pupilcover module that
        binds the original function.  Without pupilcover in this process
        (the CLI workload runs it in subprocesses) there is nothing to wrap."""
        if "pupilcover" not in sys.modules:
            return
        from pupilcover.apollonius import DegenerateTriple

        def count_degenerate(exc):
            if isinstance(exc, DegenerateTriple):
                self.counts["apollonius.triples_degenerate"] += 1

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "pupilcover" or k.startswith("pupilcover.")]
        for home, names in TRACED.items():
            home_mod = sys.modules[f"pupilcover.{home}"]
            for name in names:
                orig = getattr(home_mod, name)
                on_error = count_degenerate if name == "tri_disk_vertices" else None
                traced = self._wrapper(f"{home}.{name}", orig, _ON_RETURN.get(name), on_error)
                for mod in modules:
                    if mod.__dict__.get(name) is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, traced)

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time (duration
        minus the time covered by its direct children)."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name_ids):
            rec = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.ends[i] - self.starts[i]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """Gzipped text, one span per line: index, parent, name, start and
        end in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i, nid in enumerate(self.name_ids):
                fh.write(f"{i}\t{self.parents[i]}\t{self.names[nid]}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


#: Per-layer metric names with their units, in report order.  Counts and
#: times are per benchmark op (totals divided by the traced op count), so
#: runs of different length compare.
LAYER_METRICS = {
    "geom.build_acs.calls": "count/op",
    "geom.build_acs.s": "s/op",
    "geom.acs_disks": "count/op",
    "geom.acs_pairs_merged": "count/op",
    "geom.delta_min.calls": "count/op",
    "geom.delta_min.s": "s/op",
    "apollonius.triples_possible": "count/op",
    "apollonius.tri_disk_vertices.calls": "count/op",
    "apollonius.tri_disk_vertices.s": "s/op",
    "apollonius.triples_degenerate": "count/op",
    "apollonius.vertex_candidates": "count/op",
    "apollonius.is_global_vertex.calls": "count/op",
    "apollonius.is_global_vertex.s": "s/op",
    "apollonius.vertices_kept": "count/op",
    "apollonius.vertex_yield": "ratio",
    "apollonius.witness_points": "count/op",
    "apollonius.vertex_sets.calls": "count/op",
    "apollonius.vertex_sets.s": "s/op",
    "apollonius.vertex_sets.self_s": "s/op",
    "coverage.decide.calls": "count/op",
    "coverage.decide.s": "s/op",
    "coverage.analyze.calls": "count/op",
    "coverage.analyze.s": "s/op",
    "coverage.per_disk_alpha.calls": "count/op",
    "coverage.per_disk_alpha.s": "s/op",
    "coverage.max_objective.calls": "count/op",
    "coverage.max_objective.s": "s/op",
    "coverage.witness_builds_per_op": "count/op",
    "solver.solve_lp.calls": "count/op",
    "solver.solve_lp.s": "s/op",
    "solver.solve_qp.calls": "count/op",
    "solver.solve_qp.s": "s/op",
    "optimize.relocation_targets.calls": "count/op",
    "optimize.relocation_targets.s": "s/op",
    "optimize.relocation_rows": "count/op",
    "optimize.passes": "count/op",
    "cli.runtime_s": "s/op",
    "cli.overhead_s": "s/op",
    "cli.report_bytes": "B/op",
    "trace.spans": "count/op",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Every name of LAYER_METRICS, from the tracer's spans and counters
    over ``ops`` traced ops; ``extra`` supplies the values measured outside
    the tracer (the cli.* figures and trace.overhead_s) as totals, except
    trace.overhead_s which is taken as given."""
    totals = tracer.layer_totals()
    raw: dict[str, float] = dict(tracer.counts)
    for name, rec in totals.items():
        raw[f"{name}.calls"] = rec["calls"]
        raw[f"{name}.s"] = rec["s"]
        raw[f"{name}.self_s"] = rec["self_s"]
    raw["coverage.witness_builds_per_op"] = raw.get("apollonius.vertex_sets.calls", 0)
    raw["trace.spans"] = len(tracer.starts)
    raw.update(extra)
    solved = raw.get("apollonius.tri_disk_vertices.calls", 0)
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name == "apollonius.vertex_yield":
            out[name] = raw.get("apollonius.vertices_kept", 0) / solved if solved else 0.0
        elif name == "trace.overhead_s":
            out[name] = raw.get(name, 0.0)
        else:
            out[name] = raw.get(name, 0) / ops
    return out
