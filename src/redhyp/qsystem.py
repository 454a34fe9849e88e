"""Cleaning machinery: auxiliary bipartite Q-graphs, degree colorings,
monochromatic extraction, and S-sets.

For a triple i<j<k two bipartite graphs are kept.  The low graph joins
w in P^{ij} to v in P^{ik} when at least eps^2 * |P^{jk}| vertices of
P^{jk} complete wv to a constituent edge; the high graph joins v in
P^{ik} to w in P^{jk} with completions counted in P^{ij}, and is built
only for a triple that reads it (see high_graph).  Counts are integers,
so every threshold is exact: a rational bound q is rounded up to the
integer ceil(q) once, and count >= q is tested as count >= ceil(q); a
bound q * X on an integer sum is tested as sum * den(q) >= num(q) * X.

`clean` runs the whole process: color every triple blue or red by a
degree-square inequality, extract a monochromatic index subset (an exact
branch-and-bound search; red subsets are turned blue by an order-reversing
relabeling recorded in the system), re-color by the deepest S-set level
that stays delta-large, extract again, and re-verify the surviving
triples from scratch.  Every stage failure is a structured result.

Every per-triple stage does its work once per distinct value and a dict
step per triple.  Q-graphs are kept per Constituent object, one per
distinct (sizes, comp01) in a host, in one dict that clean's three
systems share (build_q_graphs' shared_with).  color_triples and
verify_star sum a low graph's squared degrees once per graph object, and
compute_s_sets builds the frozensets once per (|P^{ij}|, degree profile),
handing equal triples the same row of them.  These memos live for
one call only, so blue verification and verify_star recompute from their
own inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .core import Constituent, ReducedHypergraph, Triple, sorted_triple
from .errors import DomainError, SelfCheckError

DEFAULT_RAMSEY_EXACT_CAP = 32


@dataclass
class BipartiteGraph:
    """Bitset adjacency between a left and a right vertex class."""

    left_size: int
    right_size: int
    left_adj: list[int]   # per left vertex: bitset over right vertices
    right_adj: list[int]  # per right vertex: bitset over left vertices

    @classmethod
    def from_counts(cls, comp: Sequence[int], left_size: int, right_size: int,
                    need: int) -> "BipartiteGraph":
        """Join left a to right b when the bitset comp[a*right_size+b] has
        at least `need` members."""
        left_adj = [0] * left_size
        right_adj = [0] * right_size
        for a in range(left_size):
            base = a * right_size
            bits = 0
            for b, members in enumerate(comp[base:base + right_size]):
                if members.bit_count() >= need:
                    bits |= 1 << b
                    right_adj[b] |= 1 << a
            left_adj[a] = bits
        return cls(left_size, right_size, left_adj, right_adj)

    def has(self, left: int, right: int) -> bool:
        return bool(self.left_adj[left] >> right & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.left_adj)


@dataclass
class QGraphSystem:
    """Q-graphs for one host, plus the cleaning results once `clean` ran.

    q_low[(i,j,k)] joins P^{ij} (left) to P^{ik} (right) and is built
    whole.  q_high[(i,j,k)] joins P^{ik} (left) to P^{jk} (right) and holds
    only the triples that high_graph has read: it is empty when
    build_q_graphs returns.  After cleaning, the host here is the relabeled
    survivor and to_original maps its indices back to the input host's
    labels, and s_sets holds its S-sets (see compute_s_sets).
    """

    host: ReducedHypergraph
    eps: Fraction
    q_low: dict[Triple, BipartiteGraph]
    q_high: dict[Triple, BipartiteGraph] = field(default_factory=dict)
    delta: Fraction | None = None
    s_sets: dict[Triple, tuple[frozenset[int], ...]] | None = None
    r_star: int | None = None
    to_original: tuple[int, ...] | None = None
    # (constituent object, "low" or "high") -> its graph; one dict serves
    # every system built with shared_with from this one
    _by_con: dict[tuple[Constituent, str], BipartiteGraph] = field(
        default_factory=dict, compare=False, repr=False)


def _ceil_per_size(host: ReducedHypergraph, q: Fraction) -> dict[int, int]:
    """ceil(q * s) for every class size s of the host: the least integer
    count that reaches q * s."""
    return {s: math.ceil(q * s) for s in set(host.class_sizes.values())}


def build_q_graphs(host: ReducedHypergraph, eps,
                   shared_with: QGraphSystem | None = None) -> QGraphSystem:
    """The low Q-graph of every index triple of the host (see high_graph
    for the high ones).

    The graphs of a triple depend only on its Constituent object and eps,
    so triples holding one object share its graph objects; a host holds
    one object per distinct constituent (see ReducedHypergraph._from_cells).
    Graphs are kept per object in the system's _by_con, and a system built
    with shared_with uses that system's _by_con, so the systems of one
    clean build each object's graphs once.  shared_with must have the same
    eps.  Graphs are never mutated.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if shared_with is not None and shared_with.eps != eps:
        raise DomainError(f"shared Q-graphs were built for eps={shared_with.eps}, not {eps}")
    by_con = {} if shared_with is None else shared_with._by_con
    need = _ceil_per_size(host, eps * eps)
    q_low: dict[Triple, BipartiteGraph] = {}
    for t, con in host.constituents.items():
        graph = by_con.get((con, "low"))
        if graph is None:
            s0, s1, s2 = con.sizes
            graph = by_con[con, "low"] = BipartiteGraph.from_counts(con.comp01, s0, s1, need[s2])
        q_low[t] = graph
    return QGraphSystem(host=host, eps=eps, q_low=q_low, _by_con=by_con)


def high_graph(system: QGraphSystem, t: Triple) -> BipartiteGraph:
    """The high Q-graph of triple t, built from its constituent's comp12
    on first read and recorded in system.q_high.  Only a triple failing the
    blue bound reads it, so an all-blue host builds no high graph and no
    comp12.  A triple the host does not hold raises KeyError."""
    graph = system.q_high.get(t)
    if graph is None:
        con = system.host.constituents[t]
        graph = system._by_con.get((con, "high"))
        if graph is None:
            s0, s1, s2 = con.sizes
            graph = system._by_con[con, "high"] = BipartiteGraph.from_counts(
                con.comp12, s1, s2, math.ceil(system.eps ** 2 * s0))
        system.q_high[t] = graph
    return graph


def check_sum_of_squares(system: QGraphSystem, triple: Triple) -> tuple[Fraction, bool]:
    """Exact left-hand side of the degree-product bound for one triple,
    and whether it reaches (1/4 + eps/2) * |P^{ij}| * |P^{jk}| * |P^{ik}|."""
    t = sorted_triple(*triple)
    low = system.q_low[t]    # P^{ij} x P^{ik}
    high = high_graph(system, t)  # P^{ik} x P^{jk}
    lhs = sum(low.right_adj[v].bit_count() * high.left_adj[v].bit_count()
              for v in range(low.right_size))
    quarter = Fraction(1, 4) + system.eps / 2
    volume = low.left_size * low.right_size * high.right_size
    return Fraction(lhs), lhs * quarter.denominator >= quarter.numerator * volume


def color_triples(system: QGraphSystem) -> dict[Triple, str]:
    """Color each triple blue or red by the degree-square dichotomy.

    Blue means the low-graph degree squares over P^{ik} reach
    (1/4 + eps/2) * |P^{ij}|^2 * |P^{ik}|; otherwise the triple is red.
    Whenever the degree-product bound holds, a non-blue triple must
    satisfy the mirrored high-graph inequality; that dichotomy is
    enforced here as an internal invariant.
    """
    colors: dict[Triple, str] = {}
    quarter = Fraction(1, 4) + system.eps / 2
    num, den = quarter.numerator, quarter.denominator
    # id(low graph) -> its squared right degrees summed; q_low holds every
    # graph while this runs, so no id is reused
    sums: dict[int, int] = {}
    for t, con in system.host.constituents.items():
        s_ij, s_ik, s_jk = con.sizes
        low = system.q_low[t]
        blue_lhs = sums.get(id(low))
        if blue_lhs is None:
            blue_lhs = sums[id(low)] = sum(x.bit_count() ** 2 for x in low.right_adj)
        if blue_lhs * den >= num * s_ij ** 2 * s_ik:
            colors[t] = "blue"
            continue
        colors[t] = "red"
        sos_lhs, sos_holds = check_sum_of_squares(system, t)
        if sos_holds:
            red_lhs = sum(x.bit_count() ** 2 for x in high_graph(system, t).left_adj)
            if red_lhs * den < num * s_jk ** 2 * s_ik:
                raise SelfCheckError(
                    f"degree-square dichotomy violated at triple {t}: "
                    f"product bound holds ({sos_lhs}) but neither square bound does")
    return colors


def level_cap(delta: Fraction) -> int:
    """Highest S-set level: ceil(1 / (2 delta))."""
    return math.ceil(Fraction(1, 2) / delta)


def compute_s_sets(system: QGraphSystem, delta) -> dict[Triple, tuple[frozenset[int], ...]]:
    """S-sets for every triple and level 1..level_cap(delta)+1, one row of
    sets per triple: row[r - 1] is S^i_{jk}(r).

    S^i_{jk}(r) collects x in P^{ik} whose low-graph degree toward P^{ij}
    is at least (1/2 + r*delta) * |P^{ij}|.  Levels are nested decreasing.
    The sets depend only on the low graph, through |P^{ij}| (its left side)
    and its degree profile, so each distinct pair of them is computed once
    and its row shared.
    """
    delta = Fraction(delta)
    host = system.host
    needs = [_ceil_per_size(host, Fraction(1, 2) + r * delta)
             for r in range(1, level_cap(delta) + 2)]
    by_profile: dict[tuple[int, tuple[int, ...]], tuple[frozenset[int], ...]] = {}
    by_graph: dict[int, tuple[frozenset[int], ...]] = {}  # id(low graph); as in color_triples
    rows: dict[Triple, tuple[frozenset[int], ...]] = {}
    for t in host.constituents:
        low = system.q_low[t]
        sets = by_graph.get(id(low))
        if sets is None:
            size_ij, degrees = low.left_size, tuple(map(int.bit_count, low.right_adj))
            key = (size_ij, degrees)
            sets = by_profile.get(key)
            if sets is None:
                sets = by_profile[key] = tuple(
                    frozenset(x for x, deg in enumerate(degrees) if deg >= need[size_ij])
                    for need in needs)
            by_graph[id(low)] = sets
        rows[t] = sets
    return rows


def level_coloring(system: QGraphSystem, delta,
                   s_sets: dict[Triple, tuple[frozenset[int], ...]]) -> dict[Triple, int]:
    """Color each triple by the deepest level whose S-set is delta-large.

    Level 0 marks triples where even level 1 falls below delta * |P^{ik}|;
    such triples cannot survive cleaning.
    """
    delta = Fraction(delta)
    cap = level_cap(delta)
    colors: dict[Triple, int] = {}
    need = _ceil_per_size(system.host, delta)
    deepest_first = range(cap, 0, -1)
    for t, con in system.host.constituents.items():
        least = need[con.sizes[1]]
        row = s_sets[t]
        level = 0
        for r in deepest_first:
            if len(row[r - 1]) >= least:
                level = r
                break
        colors[t] = level
    return colors


@dataclass(frozen=True)
class RamseyResult:
    subset: tuple[int, ...]
    color: Hashable
    exhaustive: bool


def ramsey_extract(items: Sequence[int], coloring: Mapping[Triple, Hashable],
                   target: int,
                   exact_cap: int = DEFAULT_RAMSEY_EXACT_CAP) -> RamseyResult | None:
    """Find a subset of `target` items whose internal triples share a color.

    Exact branch-and-bound search when len(items) <= exact_cap, returning
    the lexicographically least monochromatic subset; above the cap a
    greedy pass runs instead and its result is flagged non-exhaustive.
    Returns None when no such subset exists (exact) or is found (greedy).
    """
    if target < 3:
        raise DomainError(f"target must be >= 3, got {target}")
    items = sorted(items)
    if len(items) < target:
        raise DomainError(
            f"need at least target={target} items, got {len(items)}")
    for t in itertools.combinations(items, 3):
        if t not in coloring:
            raise DomainError(f"coloring is missing triple {t}")
    colors = sorted({coloring[t] for t in itertools.combinations(items, 3)},
                    key=repr)

    if len(items) > exact_cap:
        for color in colors:
            subset = _greedy_mono(items, coloring, color, target)
            if subset is not None:
                return RamseyResult(subset, color, exhaustive=False)
        return None

    best: tuple[tuple[int, ...], Hashable] | None = None
    for color in colors:
        subset = _exact_mono(items, coloring, color, target)
        if subset is not None and (best is None or subset < best[0]):
            best = (subset, color)
    if best is None:
        return None
    return RamseyResult(best[0], best[1], exhaustive=True)


def _compatible(chosen: Sequence[int], x: int,
                coloring: Mapping[Triple, Hashable], color: Hashable) -> bool:
    """Whether x keeps `chosen` monochromatic; both searches take items in
    ascending order, so chosen is ascending and below x, and (a, b, x) is
    already a sorted triple."""
    for a, b in itertools.combinations(chosen, 2):
        if coloring[(a, b, x)] != color:
            return False
    return True


def _greedy_mono(items, coloring, color, target):
    chosen: list[int] = []
    for x in items:
        if _compatible(chosen, x, coloring, color):
            chosen.append(x)
            if len(chosen) == target:
                return tuple(chosen)
    return None


def _exact_mono(items, coloring, color, target):
    """Lexicographically least monochromatic subset of exactly `target`
    items, by include-first depth-first search with a size-pruned frontier.

    A call never starts with too few items left to reach target: the root
    call has n >= target, since ramsey_extract refuses fewer items, and a
    recursive call at idx + 1 is made only after the loop's own check
    passed for the same idx, so len(chosen) + (n - start) >= target."""
    n = len(items)

    def rec(chosen: list[int], start: int):
        if len(chosen) == target:
            return tuple(chosen)
        for idx in range(start, n):
            x = items[idx]
            if len(chosen) + (n - idx) < target:
                return None
            if _compatible(chosen, x, coloring, color):
                chosen.append(x)
                hit = rec(chosen, idx + 1)
                if hit is not None:
                    return hit
                chosen.pop()
        return None

    return rec([], 0)


@dataclass(frozen=True)
class StageFailure:
    stage: str
    reason: str


@dataclass
class CleanResult:
    ok: bool
    system: QGraphSystem | None
    failure: StageFailure | None
    log: list[str] = field(default_factory=list)


def clean(host: ReducedHypergraph, config) -> CleanResult:
    """Run the full cleaning process under a pipeline or glue configuration.

    config supplies eps, delta, ramsey_target_1 and ramsey_target_2; both
    extractions are exact up to DEFAULT_RAMSEY_EXACT_CAP indices.  On
    success the returned system's host is the surviving relabeled
    hypergraph, all of whose triples are blue and share the level r_star,
    with both survival clauses re-verified from scratch.

    Two checks guard the program, not the host, and raise SelfCheckError:
    - After the first extraction host2 has exactly target1 indices, since
      ramsey_extract returns subsets of exactly its target.  (A config
      with target1 < target2, which validate_clean_fields refuses, is
      refused by the second ramsey_extract as a DomainError.)
    - verify_star must pass.  map2 rises, so host3's triples keep their
      order and host3 holds host2's constituents, hence host2's low graphs
      and S-sets.  Every triple of host2 is blue, and every triple of the
      second subset has level r_star >= 1, so |S(r_star)| reaches
      ceil(delta * |P^{ik}|) >= 1.  Below the cap, level r_star means
      S(r_star + 1) falls short.  At the cap, S(cap + 1) is empty: its
      bound (1/2 + (cap + 1) delta) |P^{ij}| exceeds |P^{ij}|, because
      cap * delta >= 1/2.
    """
    log: list[str] = []
    eps, delta = config.eps, config.delta
    target1, target2 = config.ramsey_target_1, config.ramsey_target_2
    if host.index_count < target1:
        return CleanResult(False, None, StageFailure(
            "ramsey-color", f"host has {host.index_count} indices, "
            f"need at least {target1}"), log)

    system = build_q_graphs(host, eps)
    colors = color_triples(system)
    blue = sum(1 for c in colors.values() if c == "blue")
    log.append(f"color1 blue={blue} red={len(colors) - blue}")

    extraction = ramsey_extract(list(host.indices()), colors, target1)
    if extraction is None:
        return CleanResult(False, None, StageFailure(
            "ramsey-color", f"no monochromatic index subset of size {target1}"), log)
    log.append(f"ramsey1 color={extraction.color} subset={list(extraction.subset)} "
               f"exhaustive={extraction.exhaustive}")

    if extraction.color == "blue":
        map1 = list(extraction.subset)
    else:
        map1 = list(reversed(extraction.subset))  # order reversal turns red into blue
        log.append("relabel reversed order for red subset")
    host2 = host.induced(map1)
    system2 = build_q_graphs(host2, eps, shared_with=system)
    colors2 = color_triples(system2)
    offenders = sorted(t for t, c in colors2.items() if c != "blue")
    if offenders:
        t = offenders[0]
        lhs, _ = check_sum_of_squares(system2, t)
        return CleanResult(False, None, StageFailure(
            "blue-verification",
            f"triple {t} (original {tuple(map1[x - 1] for x in t)}) is not blue "
            f"after relabeling; degree-product lhs={lhs}"), log)

    s_sets2 = compute_s_sets(system2, delta)
    levels = level_coloring(system2, delta, s_sets2)
    log.append(f"levels min={min(levels.values())} max={max(levels.values())}")
    if host2.index_count != target1:
        raise SelfCheckError(f"the first extraction kept {host2.index_count} indices, "
                             f"not ramsey_target_1={target1}")
    extraction2 = ramsey_extract(list(host2.indices()), levels, target2)
    if extraction2 is None:
        return CleanResult(False, None, StageFailure(
            "ramsey-level", f"no level-monochromatic index subset of size {target2}"), log)
    r_star = extraction2.color
    log.append(f"ramsey2 r_star={r_star} subset={list(extraction2.subset)} "
               f"exhaustive={extraction2.exhaustive}")
    if r_star == 0:
        return CleanResult(False, None, StageFailure(
            "ramsey-level", "surviving triples have no delta-large S-set level"), log)

    map2 = list(extraction2.subset)
    host3 = host2.induced(map2)
    system3 = build_q_graphs(host3, eps, shared_with=system2)
    s_sets3 = compute_s_sets(system3, delta)
    to_original = tuple(map1[map2[x - 1] - 1] for x in range(1, host3.index_count + 1))

    verify = verify_star(system3, delta, s_sets3, r_star)
    if verify is not None:
        raise SelfCheckError(f"star verification failed after cleaning: {verify}")
    log.append(f"surviving={list(to_original)}")

    system3.delta = Fraction(delta)
    system3.s_sets = s_sets3
    system3.r_star = r_star
    system3.to_original = to_original
    return CleanResult(True, system3, None, log)


def verify_star(system: QGraphSystem, delta,
                s_sets: dict[Triple, tuple[frozenset[int], ...]], r_star: int) -> str | None:
    """Re-verify both survival clauses for every triple from scratch.

    Returns None when everything holds, else a message naming the first
    failing triple and clause.  r_star must lie in 1..level_cap(delta).
    """
    delta = Fraction(delta)
    cap = level_cap(delta)
    if not 1 <= r_star <= cap:
        raise DomainError(f"r_star must lie in 1..{cap}, got {r_star}")
    quarter = Fraction(1, 4) + system.eps / 2
    num, den = quarter.numerator, quarter.denominator
    need = _ceil_per_size(system.host, delta)
    sums: dict[int, int] = {}  # as in color_triples
    for t, con in system.host.constituents.items():
        i, j, k = t
        s_ij, s_ik, _ = con.sizes
        low = system.q_low[t]
        blue_lhs = sums.get(id(low))
        if blue_lhs is None:
            blue_lhs = sums[id(low)] = sum(x.bit_count() ** 2 for x in low.right_adj)
        if blue_lhs * den < num * s_ij ** 2 * s_ik:
            return f"triple {t} fails the blue degree-square bound"
        least = need[s_ik]
        row = s_sets[t]
        if len(row[r_star - 1]) < least:
            return f"triple {t} has |S(r_star)| below delta * |P^{{{i},{k}}}|"
        if not len(row[r_star]) < least:
            return f"triple {t} has |S(r_star + 1)| not below delta * |P^{{{i},{k}}}|"
    return None
