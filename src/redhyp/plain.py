"""Plain 3-graph support: uniform density auditing and pattern-copy counts.

A plain 3-graph is an ordinary 3-uniform hypergraph on vertices 1..n.
The audit checks, for vertex subsets U, the exact-rational inequality

    #(edges inside U)  >=  d * C(|U|, 3) - eta * n^3

either over every subset (exhaustive) or over random samples.  A sampled
run can never report a full "pass", only "sampled-pass".
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .core import Pattern
from .errors import CapExceeded, DomainError

EXHAUSTIVE_VERTEX_CAP = 20


@dataclass(frozen=True)
class Plain3Graph:
    vertex_count: int
    edges: frozenset[tuple[int, int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]]):
        if vertex_count < 1:
            raise DomainError(f"vertex_count must be >= 1, got {vertex_count}")
        canon = set()
        for e in edges:
            if len(set(e)) != 3:
                raise DomainError(f"edge {e} must have three distinct vertices")
            u, v, w = sorted(e)
            if not (1 <= u and w <= vertex_count):
                raise DomainError(f"edge {e} out of range 1..{vertex_count}")
            canon.add((u, v, w))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(canon))

    def density(self) -> Fraction:
        n = self.vertex_count
        if n < 3:
            return Fraction(0)
        return Fraction(len(self.edges), comb(n, 3))


@dataclass(frozen=True)
class AuditResult:
    """status is 'pass', 'sampled-pass', or 'fail'.

    On failure, witness is the worst violating subset (largest deficiency
    d*C(|U|,3) - eta*n^3 - count; ties broken by smaller size, then
    lexicographically) and deficiency is that exact margin.
    """

    status: str
    witness: tuple[int, ...] | None = None
    deficiency: Fraction | None = None
    subsets_checked: int = 0


def _deficiency(count: int, size: int, n: int, d: Fraction, eta: Fraction) -> Fraction:
    return d * comb(size, 3) - eta * n ** 3 - count


def _edge_counts_by_subset(graph: Plain3Graph) -> list[int]:
    """counts[mask] = number of edges contained in the subset encoded by mask."""
    n = graph.vertex_count
    counts = [0] * (1 << n)
    for u, v, w in graph.edges:
        counts[(1 << (u - 1)) | (1 << (v - 1)) | (1 << (w - 1))] += 1
    for bit in range(n):
        step = 1 << bit
        for mask in range(1 << n):
            if mask & step:
                counts[mask] += counts[mask ^ step]
    return counts


def _scan_masks(graph: Plain3Graph, counts, d: Fraction, eta: Fraction):
    """Worst violation among all non-empty subset masks; None when all hold."""
    n = graph.vertex_count
    worst: tuple[Fraction, int, tuple[int, ...]] | None = None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        margin = _deficiency(counts[mask], size, n, d, eta)
        if margin > 0:
            subset = tuple(v + 1 for v in range(n) if mask >> v & 1)
            if worst is None or (-margin, size, subset) < (-worst[0], worst[1], worst[2]):
                worst = (margin, size, subset)
    return worst


def uniform_density_audit(graph: Plain3Graph, d, eta,
                          mode: str = "exhaustive",
                          samples: int = 0, seed: int = 0,
                          sizes: Sequence[int] | None = None,
                          vertex_cap: int = EXHAUSTIVE_VERTEX_CAP) -> AuditResult:
    """Audit the uniform density condition with exact rational arithmetic.

    mode 'exhaustive' checks every subset (requires n <= vertex_cap);
    mode 'sampled' draws `samples` subsets uniformly for each size in
    `sizes` (default 3..n) and can only return 'sampled-pass' or 'fail'.
    """
    d = Fraction(d)
    eta = Fraction(eta)
    if not (0 <= d <= 1):
        raise DomainError(f"d must lie in [0, 1], got {d}")
    if eta < 0:
        raise DomainError(f"eta must be >= 0, got {eta}")
    n = graph.vertex_count

    if mode == "exhaustive":
        if n > vertex_cap:
            raise CapExceeded(
                f"exhaustive audit capped at {vertex_cap} vertices (graph has {n}); "
                "use sampled mode")
        worst = _scan_masks(graph, _edge_counts_by_subset(graph), d, eta)
        checked = (1 << n) - 1
        if worst is None:
            return AuditResult("pass", subsets_checked=checked)
        return AuditResult("fail", witness=worst[2], deficiency=worst[0],
                           subsets_checked=checked)

    if mode == "sampled":
        if samples < 1:
            raise DomainError(f"sampled mode needs samples >= 1, got {samples}")
        rng = random.Random(seed)
        size_list = list(sizes) if sizes is not None else list(range(3, n + 1))
        for s in size_list:
            if not (1 <= s <= n):
                raise DomainError(f"sample size {s} out of range 1..{n}")
        checked = 0
        for s in size_list:
            for _ in range(samples):
                subset = tuple(sorted(rng.sample(range(1, n + 1), s)))
                inside = set(subset)
                count = sum(1 for e in graph.edges if inside.issuperset(e))
                checked += 1
                margin = _deficiency(count, s, n, d, eta)
                if margin > 0:
                    return AuditResult("fail", witness=subset, deficiency=margin,
                                       subsets_checked=checked)
        return AuditResult("sampled-pass", subsets_checked=checked)

    raise DomainError(f"unknown audit mode {mode!r}")


def count_copies(graph: Plain3Graph, pattern: Pattern, labeled: bool = True) -> int:
    """Number of injective vertex maps of the pattern into the graph that
    carry every pattern edge to a graph edge.

    labeled=True returns the raw injective count; labeled=False divides by
    the pattern's automorphism count (computed by brute force).
    """
    if pattern.vertex_count > graph.vertex_count:
        raise DomainError(
            f"pattern has {pattern.vertex_count} vertices but graph only "
            f"{graph.vertex_count}")
    edges = graph.edges
    pv = pattern.vertex_count
    # Pattern edges checked as soon as their last vertex is mapped.
    sched: list[list[tuple[int, int, int]]] = [[] for _ in range(pv + 1)]
    for e in pattern.edges:
        sched[max(e)].append(e)

    assignment = [0] * (pv + 1)
    used = [False] * (graph.vertex_count + 1)
    total = 0

    def rec(u: int) -> None:
        nonlocal total
        if u > pv:
            total += 1
            return
        for x in range(1, graph.vertex_count + 1):
            if used[x]:
                continue
            assignment[u] = x
            ok = True
            for a, b, c in sched[u]:
                img = tuple(sorted((assignment[a], assignment[b], assignment[c])))
                if img not in edges:
                    ok = False
                    break
            if ok:
                used[x] = True
                rec(u + 1)
                used[x] = False
        assignment[u] = 0

    rec(1)
    if labeled:
        return total
    return total // automorphism_count(pattern)


def automorphism_count(pattern: Pattern) -> int:
    """Number of vertex permutations preserving the pattern's edge set."""
    n = pattern.vertex_count
    edges = pattern.edges
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        mapped = frozenset(tuple(sorted((perm[u - 1], perm[v - 1], perm[w - 1])))
                           for u, v, w in edges)
        if mapped == edges:
            count += 1
    return count
