"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` replaces the public functions of each layer with timing
wrappers.  A function is replaced under every module attribute of the
`redhyp` package that refers to it, so calls through `from .x import f`
aliases are caught too; methods are replaced on their class.  `uninstall`
restores the originals.

A span covers the wrapped call only.  The wrapper's own bookkeeping (taking
the clock, appending the span, computing counters) lies outside the span and
is not charged to the parent either, so the layers' self times add up to the
traced wall time minus the tracer's overhead.  Counters are computed from
the call's arguments and public return values only.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

from redhyp import cli, core, embed, fileio, glue, pipeline, plain, qsystem


def _arg(args, kwargs, name: str, pos: int, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _table_entries(host) -> int:
    """Completion plus projection table entries of every constituent, from
    class sizes alone: s0*s1 + s0*s2 + s1*s2 + 2*(s0 + s1 + s2) per triple."""
    total = 0
    for i, j, k in host.triples():
        s0, s1, s2 = host.class_size(i, j), host.class_size(i, k), host.class_size(j, k)
        total += s0 * s1 + s0 * s2 + s1 * s2 + 2 * (s0 + s1 + s2)
    return total


def _count_host_build(count, args, kwargs, result):
    host = args[0]
    count("core.host_builds", 1)
    count("core.constituents_built", math.comb(host.index_count, 3))
    count("core.table_entries", _table_entries(host))


def _count_search(count, args, kwargs, result):
    kind = "count" if _arg(args, kwargs, "count_all", 3, False) else "find"
    count(f"embed.nodes_{kind}", result.nodes)


def _count_q_graphs(count, args, kwargs, result):
    count("qsystem.build_q_graphs_calls", 1)
    count("qsystem.q_edges", sum(g.edge_count() for family in (result.q_low, result.q_high)
                                 for g in family.values()))


def _count_clean(count, args, kwargs, result):
    count("qsystem.clean_calls", 1)
    count("qsystem.clean_ok", int(result.ok))


def _count_fstar(count, args, kwargs, result):
    count("pipeline.rows", len(result.rows))
    count("pipeline.ok", int(result.ok))


def _search_span(args, kwargs) -> str:
    return "embed.count" if _arg(args, kwargs, "count_all", 3, False) else "embed.find"


def _audit_span(args, kwargs) -> str:
    return f"plain.audit_{_arg(args, kwargs, 'mode', 3, 'exhaustive')}"


# (span name or namer, owner, attribute, counter or None).  A span's self
# time is reported as "<span name>_s"; the CLI dispatch span as cli.self_s.
TARGETS = (
    ("cli.self", cli, "dispatch",
     lambda count, a, k, r: count("cli.ops", 1)),
    ("cli.build_parser", cli, "build_parser", None),
    ("fileio.parse_host", fileio, "parse_host",
     lambda count, a, k, r: count("fileio.bytes_parsed", len(a[0]))),
    ("fileio.parse_plain3", fileio, "parse_plain3",
     lambda count, a, k, r: count("fileio.bytes_parsed", len(a[0]))),
    ("fileio.host_digest", fileio, "host_digest", None),
    ("core.host_build", core.ReducedHypergraph, "__init__", _count_host_build),
    ("core.induced", core.ReducedHypergraph, "induced", None),
    (_search_span, embed, "find_reduced_image", _count_search),
    ("embed.validate", embed, "validate_reduced_map", None),
    ("qsystem.clean", qsystem, "clean", _count_clean),
    ("qsystem.build_q_graphs", qsystem, "build_q_graphs", _count_q_graphs),
    ("qsystem.color_triples", qsystem, "color_triples", None),
    ("qsystem.ramsey_extract", qsystem, "ramsey_extract", None),
    ("qsystem.compute_s_sets", qsystem, "compute_s_sets", None),
    ("qsystem.level_coloring", qsystem, "level_coloring", None),
    ("qsystem.verify_star", qsystem, "verify_star", None),
    ("pipeline.find_fstar", pipeline, "find_fstar", _count_fstar),
    ("pipeline.prepare_row", pipeline, "prepare_row", None),
    ("glue.find_glued", glue, "find_glued",
     lambda count, a, k, r: count("glue.ok", int(r.ok))),
    ("glue.prepare_row_glue", glue, "prepare_row_glue", None),
    ("glue.validate_glued", glue, "validate_glued", None),
    (_audit_span, plain, "uniform_density_audit",
     lambda count, a, k, r: count("plain.subsets_checked", r.subsets_checked)),
)

SPAN_NAMES = tuple(name for name, *_ in TARGETS if isinstance(name, str)) + (
    "embed.count", "embed.find", "plain.audit_exhaustive", "plain.audit_sampled")

COUNTERS = (
    "cli.ops", "fileio.bytes_parsed", "core.host_builds",
    "core.constituents_built", "core.table_entries", "embed.nodes_count",
    "embed.nodes_find", "qsystem.build_q_graphs_calls", "qsystem.clean_calls",
    "qsystem.clean_ok", "qsystem.q_edges", "pipeline.rows", "pipeline.ok",
    "glue.ok", "plain.subsets_checked",
)


class Tracer:
    """Records spans (name, start, end, parent, op) and counters in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.op = 0                      # index of the op being run
        self._stack: list[int] = []      # open span ids
        self._child_cost: list[float] = []
        self._replaced: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n

    def _wrap(self, span, func, counter):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            name = span if isinstance(span, str) else span(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            self._child_cost.append(0.0)
            returned = False
            start = clock()
            try:
                result = func(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                self._stack.pop()
                children = self._child_cost.pop()
                self.spans[sid] = (name, start, end, parent, self.op)
                self.self_s[name] += (end - start) - children
                if returned and counter is not None:
                    counter(self.count, args, kwargs, result)
                if self._child_cost:
                    self._child_cost[-1] += clock() - entered
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "redhyp" or name.startswith("redhyp.")]
        for span, owner, attr, counter in TARGETS:
            func = getattr(owner, attr)
            wrapper = self._wrap(span, func, counter)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._replaced.append((owner, attr, func))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)
                        self._replaced.append((module, key, func))

    def uninstall(self) -> None:
        for owner, attr, func in reversed(self._replaced):
            setattr(owner, attr, func)
        self._replaced.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds per layer ("<span>_s") and every counter, zero when unused."""
        out = {f"{name}_s": self.self_s.get(name, 0.0) for name in SPAN_NAMES}
        out.update({name: self.counters.get(name, 0) for name in COUNTERS})
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start": start,
                                      "end": end, "parent": parent, "op": op}) + "\n")
