"""Reduced-image search: certificate validation, a backtracking engine,
and an independent exhaustive oracle.

The engine assigns the index map (pattern vertices in ascending order,
host indices tried ascending), then the class-vertex map over shadow
pairs, most-constrained pair first with lexicographic tie-breaks, pruning
domains through the host's link bitsets.  "not-found" is only reported
after complete refutation; running out of node budget is a distinct
outcome.

Counting (count_all) caches subtree results within one index map.  The
state of a subtree is the set of assigned pairs plus the values of the
frontier: the assigned pairs that share a pattern edge with an unassigned
pair.  Pruning narrows a pair's domain only through the values of the
pairs it shares an edge with, so the domains of the unassigned pairs, and
with them the subtree's count and node total, depend on nothing else.  A
state reached again returns its cached count and spends its cached nodes
in one step, so node counts, and where a budget runs out, are exactly
those of the plain branching search.

The oracle enumerates candidate maps naively in fixed lexicographic
order with direct edge-set membership checks and no propagation; it is
the ground truth the engine is tested against.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from ._bits import iter_bits
from .core import (Constituent, Pair, Pattern, ReducedHypergraph, ReducedMap,
                   sorted_pair, sorted_triple)
from .errors import (CapExceeded, DanglingReferenceError, DomainError,
                     SelfCheckError)

DEFAULT_ORACLE_CAP = 10 ** 9


@dataclass(frozen=True)
class Violation:
    """First failed condition of a candidate map."""

    kind: str  # 'distinctness' | 'class' | 'edge'
    detail: str


@dataclass(frozen=True)
class EmbedCertificate:
    rmap: ReducedMap
    pattern: Pattern
    nodes: int = 0
    elapsed_ms: float | None = None


@dataclass(frozen=True)
class SearchResult:
    status: str  # 'found' | 'not-found' | 'budget-exhausted'
    certificate: EmbedCertificate | None
    count: int | None
    nodes: int


@dataclass(frozen=True)
class OracleResult:
    found: bool
    count: int
    leaves: int


def validate_reduced_map(host: ReducedHypergraph, pattern: Pattern,
                         rmap: ReducedMap) -> tuple[bool, Violation | None]:
    """Check the three reduced-map conditions.

    Dangling references (unknown vertices, indices, classes) raise
    DanglingReferenceError; a resolvable but invalid map returns False
    with the first violated condition in the fixed order: distinctness,
    class membership, constituent edge membership.
    """
    m = host.index_count
    for u in range(1, pattern.vertex_count + 1):
        if u not in rmap.lam:
            raise DanglingReferenceError(f"lambda is missing pattern vertex {u}")
        if not (1 <= rmap.lam[u] <= m):
            raise DanglingReferenceError(
                f"lambda({u}) = {rmap.lam[u]} is not an index in 1..{m}")
    shadow_sorted = sorted(pattern.shadow)
    for uv in shadow_sorted:
        if uv not in rmap.phi:
            raise DanglingReferenceError(f"phi is missing shadow pair {uv}")
        cls, vert = rmap.phi[uv]
        i, j = cls
        if not (1 <= i < j <= m):
            raise DanglingReferenceError(f"phi{uv} names invalid class pair {cls}")
        if not (0 <= vert < host.class_size(i, j)):
            raise DanglingReferenceError(
                f"phi{uv} names vertex {vert} outside class P^{{{i},{j}}}")

    for u, v in shadow_sorted:
        if rmap.lam[u] == rmap.lam[v]:
            return False, Violation(
                "distinctness", f"lambda({u}) = lambda({v}) = {rmap.lam[u]}")
    for u, v in shadow_sorted:
        cls, _ = rmap.phi[(u, v)]
        want = sorted_pair(rmap.lam[u], rmap.lam[v])
        if cls != want:
            return False, Violation(
                "class", f"phi({u},{v}) lies in P^{cls} but lambda puts the pair in P^{want}")
    for u, v, w in sorted(pattern.edges):
        t = sorted_triple(rmap.lam[u], rmap.lam[v], rmap.lam[w])
        con = host.constituent(t)
        slot_pairs = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        by_class = {}
        for a, b in ((u, v), (u, w), (v, w)):
            cls, vert = rmap.phi[(a, b)]
            by_class[cls] = vert
        edge = tuple(by_class[sp] for sp in slot_pairs)
        if not con.has(*edge):
            return False, Violation(
                "edge", f"edge ({u},{v},{w}) needs {edge} in constituent A^{t}")
    return True, None


class _BudgetExhausted(Exception):
    pass


class _BudgetTracker:
    """Node counter with optional limit."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.nodes = 0

    def spend(self, n: int = 1) -> None:
        self.nodes += n
        if self.limit is not None and self.nodes > self.limit:
            # A bulk spend stops where spending node by node would have stopped.
            self.nodes = max(self.limit + 1, self.nodes - n + 1)
            raise _BudgetExhausted


def _comp_bits(con: Constituent, sx: int, sy: int, vx: int, vy: int) -> int:
    # sx < sy; returns bitset over the remaining slot
    if sx == 0:
        if sy == 1:
            return con.comp01[vx * con.sizes[1] + vy]
        return con.comp02[vx * con.sizes[2] + vy]
    return con.comp12[vx * con.sizes[2] + vy]


def _proj_bits(con: Constituent, sf: int, st: int, v: int) -> int:
    if sf == 0:
        return (con.proj01 if st == 1 else con.proj02)[v]
    if sf == 1:
        return (con.proj10 if st == 0 else con.proj12)[v]
    return (con.proj20 if st == 0 else con.proj21)[v]


@dataclass(frozen=True, slots=True)
class _CountPlan:
    """What the counting search does once a given set of pairs is assigned.

    freed: unassigned pairs with no unassigned neighbour, multiplied out;
    after: the assigned-pair mask with the freed pairs added;
    todo: the pairs still to branch on, ascending;
    frontier: assigned pairs sharing an edge with a pair in todo;
    memo: whether some assigned pair is interior (not on the frontier).
    Without an interior pair the subtree state determines its path from
    the root, so no other path can reach it and caching cannot pay.
    """

    freed: tuple[int, ...]
    after: int
    todo: tuple[int, ...]
    frontier: tuple[int, ...]
    memo: bool


class _Engine:
    def __init__(self, host: ReducedHypergraph, pattern: Pattern):
        self.host = host
        self.pattern = pattern
        self.n = pattern.vertex_count
        self.pairs: list[Pair] = sorted(pattern.shadow)
        pair_idx = {p: i for i, p in enumerate(self.pairs)}
        self.edges: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = []
        for e in sorted(pattern.edges):
            u, v, w = e
            pidx = (pair_idx[(u, v)], pair_idx[(u, w)], pair_idx[(v, w)])
            self.edges.append((e, pidx))
        self.pair_edges: list[list[int]] = [[] for _ in self.pairs]
        # neighbours[p]: bitmask of the pairs sharing an edge with pair p
        self.neighbours: list[int] = [0] * len(self.pairs)
        for ei, (_, pidx) in enumerate(self.edges):
            for p in pidx:
                self.pair_edges[p].append(ei)
                for q in pidx:
                    if q != p:
                        self.neighbours[p] |= 1 << q
        self._plans: dict[int, _CountPlan] = {}
        # shadow neighbours among earlier vertices, for distinctness pruning
        self.distinct_before: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.pairs:
            self.distinct_before[v].append(u)
        # edges become index-complete once their largest vertex is assigned
        self.lam_sched: list[list[int]] = [[] for _ in range(self.n + 1)]
        for ei, (e, _) in enumerate(self.edges):
            self.lam_sched[max(e)].append(ei)

    def run(self, budget: _BudgetTracker, count_all: bool) -> SearchResult:
        lam = [0] * (self.n + 1)
        found_cert: list[ReducedMap] = []
        total = 0

        host = self.host
        M = host.index_count

        def lam_rec(u: int) -> bool:
            nonlocal total
            if u > self.n:
                if count_all:
                    total += self._phi_count(lam, budget)
                    return False
                rmap = self._phi_find(lam, budget)
                if rmap is not None:
                    found_cert.append(rmap)
                    return True
                return False
            for i in range(1, M + 1):
                budget.spend()
                if any(lam[v] == i for v in self.distinct_before[u]):
                    continue
                lam[u] = i
                ok = True
                for ei in self.lam_sched[u]:
                    e, _ = self.edges[ei]
                    t = sorted_triple(lam[e[0]], lam[e[1]], lam[e[2]])
                    if not host.constituent(t).edges:
                        ok = False
                        break
                if ok and lam_rec(u + 1):
                    return True
                lam[u] = 0
            return False

        try:
            hit = lam_rec(1)
        except _BudgetExhausted:
            return SearchResult("budget-exhausted", None, None, budget.nodes)
        if count_all:
            status = "found" if total > 0 else "not-found"
            return SearchResult(status, None, total, budget.nodes)
        if hit:
            rmap = found_cert[0]
            ok, violation = validate_reduced_map(host, self.pattern, rmap)
            if not ok:
                raise SelfCheckError(f"engine produced an invalid map: {violation}")
            cert = EmbedCertificate(rmap, self.pattern, nodes=budget.nodes)
            return SearchResult("found", cert, None, budget.nodes)
        return SearchResult("not-found", None, None, budget.nodes)

    # -- class-vertex stage ------------------------------------------------

    def _phi_setup(self, lam):
        """Domains and per-edge contexts for a complete index assignment.

        Returns None when some initial domain is empty.
        """
        host = self.host
        doms = []
        classes = []
        for u, v in self.pairs:
            cls = sorted_pair(lam[u], lam[v])
            classes.append(cls)
            doms.append((1 << host.class_size(*cls)) - 1)
        edge_ctx = []
        for e, pidx in self.edges:
            t = sorted_triple(lam[e[0]], lam[e[1]], lam[e[2]])
            con = host.constituent(t)
            con.ensure_search_tables()
            slot_pairs = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
            slots = tuple(slot_pairs.index(classes[p]) for p in pidx)
            edge_ctx.append((con, pidx, slots))
            for p, s in zip(pidx, slots):
                doms[p] &= con.occupied[s]
        if any(d == 0 for d in doms):
            return None
        return doms, edge_ctx

    def _propagate(self, p, val, doms, assigned, edge_ctx, trail):
        """Forward-check all edges containing pair p; False on a wipeout."""
        for ei in self.pair_edges[p]:
            con, pidx, slots = edge_ctx[ei]
            k = pidx.index(p)
            sp = slots[k]
            q, r = (pidx[1], pidx[2]) if k == 0 else (pidx[0], pidx[2]) if k == 1 else (pidx[0], pidx[1])
            sq, sr = (slots[1], slots[2]) if k == 0 else (slots[0], slots[2]) if k == 1 else (slots[0], slots[1])
            aq, ar = assigned[q], assigned[r]
            if aq is not None and ar is not None:
                continue  # was already completion-pruned when the second one landed
            if aq is not None:
                if sp < sq:
                    bits = _comp_bits(con, sp, sq, val, aq)
                else:
                    bits = _comp_bits(con, sq, sp, aq, val)
                new = doms[r] & bits
                if new != doms[r]:
                    trail.append((r, doms[r]))
                    doms[r] = new
                    if new == 0:
                        return False
            elif ar is not None:
                if sp < sr:
                    bits = _comp_bits(con, sp, sr, val, ar)
                else:
                    bits = _comp_bits(con, sr, sp, ar, val)
                new = doms[q] & bits
                if new != doms[q]:
                    trail.append((q, doms[q]))
                    doms[q] = new
                    if new == 0:
                        return False
            else:
                for other, so in ((q, sq), (r, sr)):
                    new = doms[other] & _proj_bits(con, sp, so, val)
                    if new != doms[other]:
                        trail.append((other, doms[other]))
                        doms[other] = new
                        if new == 0:
                            return False
        return True

    def _phi_find(self, lam, budget: _BudgetTracker) -> ReducedMap | None:
        setup = self._phi_setup(lam)
        if setup is None:
            return None
        doms, edge_ctx = setup
        np_ = len(self.pairs)
        assigned: list[int | None] = [None] * np_

        def rec() -> bool:
            best = -1
            best_size = 1 << 62
            for p in range(np_):
                if assigned[p] is None:
                    size = doms[p].bit_count()
                    if size < best_size:
                        best, best_size = p, size
            if best == -1:
                return True
            p = best
            saved = doms[p]
            for val in iter_bits(saved):
                budget.spend()
                trail: list[tuple[int, int]] = []
                assigned[p] = val
                doms[p] = 1 << val
                if self._propagate(p, val, doms, assigned, edge_ctx, trail) and rec():
                    return True
                assigned[p] = None
                doms[p] = saved
                for q, old in reversed(trail):
                    doms[q] = old
            return False

        if not rec():
            return None
        phi = {}
        for p, (u, v) in enumerate(self.pairs):
            cls = sorted_pair(lam[u], lam[v])
            phi[(u, v)] = (cls, assigned[p])
        return ReducedMap(lam={u: lam[u] for u in range(1, self.n + 1)}, phi=phi)

    def _count_plan(self, mask: int) -> _CountPlan:
        """Compile the plan of the counting search for one assigned-pair mask."""
        nbrs = self.neighbours
        np_ = len(self.pairs)
        freed = tuple(p for p in range(np_)
                      if not mask >> p & 1 and not nbrs[p] & ~mask)
        after = mask
        for p in freed:
            after |= 1 << p
        todo = tuple(p for p in range(np_) if not after >> p & 1)
        frontier = tuple(p for p in range(np_)
                         if after >> p & 1 and nbrs[p] & ~after)
        memo = bool(todo) and len(frontier) < after.bit_count()
        plan = self._plans[mask] = _CountPlan(freed, after, todo, frontier, memo)
        return plan

    def _phi_count(self, lam, budget: _BudgetTracker) -> int:
        setup = self._phi_setup(lam)
        if setup is None:
            return 0
        doms, edge_ctx = setup
        assigned: list[int | None] = [None] * len(self.pairs)
        plans = self._plans
        # subtree state -> (count, nodes); valid for this index map only
        cache: dict[tuple, tuple[int, int]] = {}
        spent = 0  # nodes spent by this call, for the cached subtree sizes

        def rec(mask: int) -> int:
            nonlocal spent
            plan = plans.get(mask) or self._count_plan(mask)
            # Freed pairs have every incident edge's other two pairs
            # concretely assigned, so they are fully pruned already: multiply
            # their domain sizes out instead of branching.  Two freed pairs
            # never share an edge, so the factors are independent.
            mult = 1
            for p in plan.freed:
                mult *= doms[p].bit_count()
            if mult == 0:
                return 0
            todo = plan.todo
            if not todo:
                return mult
            if plan.memo:
                key = (plan.after, tuple([assigned[p] for p in plan.frontier]))
                hit = cache.get(key)
                if hit is not None:
                    spent += hit[1]
                    budget.spend(hit[1])
                    return mult * hit[0]
                spent_before = spent
            p = todo[0]
            best_size = doms[p].bit_count()
            for q in todo:
                size = doms[q].bit_count()
                if size < best_size:
                    p, best_size = q, size
            saved = doms[p]
            child = plan.after | 1 << p
            subtotal = 0
            for val in iter_bits(saved):
                spent += 1
                budget.spend()
                trail: list[tuple[int, int]] = []
                assigned[p] = val
                doms[p] = 1 << val
                if self._propagate(p, val, doms, assigned, edge_ctx, trail):
                    subtotal += rec(child)
                assigned[p] = None
                doms[p] = saved
                for q, old in reversed(trail):
                    doms[q] = old
            if plan.memo:
                cache[key] = (subtotal, spent - spent_before)
            return mult * subtotal

        try:
            return rec(0)
        finally:
            cache.clear()  # rec refers to itself, so the closure dies only in a gc pass


def find_reduced_image(host: ReducedHypergraph, pattern: Pattern,
                       budget: int | None = None,
                       count_all: bool = False) -> SearchResult:
    """Search for a reduced image of the pattern in the host.

    budget is a node limit (None = unbounded); exceeding it yields status
    'budget-exhausted', never a silent 'not-found'.  count_all counts all
    valid maps instead of stopping at the first.
    """
    if budget is not None and budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    started = time.perf_counter()
    result = _Engine(host, pattern).run(_BudgetTracker(budget), count_all)
    return _stamp(result, started)


def _stamp(result: SearchResult, started: float) -> SearchResult:
    if result.certificate is None:
        return result
    elapsed = (time.perf_counter() - started) * 1000.0
    cert = EmbedCertificate(result.certificate.rmap, result.certificate.pattern,
                            nodes=result.nodes, elapsed_ms=elapsed)
    return SearchResult(result.status, cert, result.count, result.nodes)


def exhaustive_oracle(host: ReducedHypergraph, pattern: Pattern,
                      cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    """Count all valid maps by naive enumeration in lexicographic order.

    Refuses (CapExceeded) when the candidate space -- index assignments
    times the product of class sizes over shadow pairs -- exceeds cap.
    """
    n = pattern.vertex_count
    M = host.index_count
    pairs = sorted(pattern.shadow)
    if M ** n > cap:
        raise CapExceeded(
            f"index assignment space {M}^{n} exceeds oracle cap {cap}")
    pos_pairs = [(u - 1, v - 1) for u, v in pairs]
    lam_space: list[tuple[int, ...]] = []
    leaves = 0
    for lam0 in itertools.product(range(1, M + 1), repeat=n):
        if any(lam0[a] == lam0[b] for a, b in pos_pairs):
            continue
        width = 1
        for a, b in pos_pairs:
            width *= host.class_size(lam0[a], lam0[b])
        leaves += width
        if leaves > cap:
            raise CapExceeded(
                f"candidate space exceeds oracle cap {cap} "
                f"(reached {leaves} leaves)")
        lam_space.append(lam0)

    total = 0
    for lam0 in lam_space:
        total += _oracle_count_for_lam(host, pattern, pairs, lam0)
    return OracleResult(found=total > 0, count=total, leaves=leaves)


def _oracle_count_for_lam(host: ReducedHypergraph, pattern: Pattern,
                          pairs: list[Pair], lam0: tuple[int, ...]) -> int:
    np_ = len(pairs)
    pos = {p: i for i, p in enumerate(pairs)}
    sizes = [host.class_size(lam0[u - 1], lam0[v - 1]) for u, v in pairs]
    sched: list[list[tuple[frozenset, int, int, int]]] = [[] for _ in range(np_)]
    for e in sorted(pattern.edges):
        u, v, w = e
        ps = (sorted_pair(u, v), sorted_pair(u, w), sorted_pair(v, w))
        t = sorted_triple(lam0[u - 1], lam0[v - 1], lam0[w - 1])
        con = host.constituent(t)
        slot_pairs = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        order = []
        for sp in slot_pairs:
            for pp in ps:
                if sorted_pair(lam0[pp[0] - 1], lam0[pp[1] - 1]) == sp:
                    order.append(pos[pp])
                    break
        last = max(pos[pp] for pp in ps)
        sched[last].append((con.edges, order[0], order[1], order[2]))
    if np_ == 0:
        return 1

    assignment = [0] * np_
    count = 0

    def rec(d: int) -> None:
        nonlocal count
        if d == np_:
            count += 1
            return
        checks = sched[d]
        for val in range(sizes[d]):
            assignment[d] = val
            ok = True
            for edges, p0, p1, p2 in checks:
                if (assignment[p0], assignment[p1], assignment[p2]) not in edges:
                    ok = False
                    break
            if ok:
                rec(d + 1)

    rec(0)
    return count
