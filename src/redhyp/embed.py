"""Reduced-image search: certificate validation, a backtracking engine,
and an independent exhaustive oracle.

The engine assigns the index map (pattern vertices in ascending order,
host indices tried ascending), then the class-vertex map over shadow
pairs, most-constrained pair first with lexicographic tie-breaks, pruning
domains through the host's link bitsets.  "not-found" is only reported
after complete refutation; running out of node budget is a distinct
outcome.  A node is a host index or a class-vertex value tried; each stage
counts its nodes inline in a local.  Where a step spends many nodes at once
(a replayed leaf, a cached subtree, a last level counted in closed form)
it adds them and then checks the limit, so an exhausted search reports
exactly limit + 1 nodes, as counting node by node would.

Each class-vertex problem is searched once per run.  With the index map
complete, the class-vertex stage depends only on each pattern edge's
relation: its constituent's edges with the slots put in the order of the
edge's pairs uv, uw, vw.  Which slot a pair takes depends only on the
order of the edge's three index values (one of six layouts), so the
relation is the constituent's value (sizes and edges) read through a
layout.  It is keyed by the sizes and the completion table in the
layout's slot order, read from the constituent's stored tables without
building its edge set.  A run numbers the relations in order of first
use; the index stage finds an edge's number with one lookup of its
ordered index triple, and a complete index map's leaf key is the tuple
of its edges' numbers.
The first leaf with a key resolves the pruning entries and initial
domains, searches, and stores its count and node total; a later leaf with
that key adds both in one step.  The first-hit search stores a failed
leaf with count 0; a successful leaf ends the search, so the first hit
and its certificate are unchanged.  The table of searched leaves stops
taking entries at LEAF_TABLE_CAP, so its memory does not grow with the
length of a run; the other tables hold at most one entry per ordered
index triple.

Counting (count_all) caches subtree results within one index map, keyed
by what the subtree reads rather than by the path that reached it.  Below
a node, the search reads only the domains of the pairs still to branch on
(todo) and the values of the frontier: the assigned pairs that lie in a
pattern edge whose other two pairs are both todo.  Every other assigned
value has already been applied to those domains, since an edge with one
todo pair completion-pruned it when the edge's second other pair was
assigned, and pairs multiplied out (freed) share no edge with a todo
pair.  So the key is the mask of settled (assigned or freed) pairs, the
frontier values and the todo domains; equal keys have equal counts and
node totals.  Only nodes where some settled pair lies off the frontier
are cached: elsewhere the key holds every assigned value, so no other
path can reach it.  The parent does the bookkeeping of each child: after
a value's forward check it multiplies out the child's freed pairs,
gathers the child's key through the plan's two itemgetters, and looks it
up.  A hit adds the cached count times the freed product and spends the
cached nodes in one step, with no call; only a miss descends.  Each
branching node, in both searches, takes one snapshot of the domains and
restores it after every value, so the forward check keeps no trail.  The
last branching level, whose pair frees every other todo pair, is counted
in closed form: each freed pair shares exactly one edge with the
branching pair, and that edge's third pair is assigned, so each value of
the branching pair contributes the product of the freed domains narrowed
by one completion table each, and the level's nodes are spent at once.
Node counts, and where a budget runs out, are exactly those of the plain
branching search.

The oracle enumerates candidate maps naively in fixed lexicographic
order with direct edge-set membership checks and no propagation; it is
the ground truth the engine is tested against.  It stores no index map.
The checker and the oracle read the slot order from core.slot_pairs, and
the engine's _SLOTS table is built from it at import.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable

from ._bits import iter_bits
from .core import (DEFAULT_ORACLE_CAP, MAX_SEARCH_DEPTH, Constituent, Pair,
                   Pattern, ReducedHypergraph, ReducedMap, Triple, refuse_above_cap,
                   refuse_negative_cap, slot_pairs, sorted_pair, sorted_triple)
from .errors import (CapExceeded, DanglingReferenceError, DomainError,
                     SelfCheckError)

# A run's table of searched leaves stops taking entries at this size.
LEAF_TABLE_CAP = 2 ** 16


@dataclass(frozen=True)
class Violation:
    """First failed condition of a candidate map."""

    kind: str  # 'distinctness' | 'class' | 'edge'
    detail: str


@dataclass(frozen=True)
class EmbedCertificate:
    rmap: ReducedMap
    pattern: Pattern


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
        by_class = dict(rmap.phi[p] for p in itertools.combinations((u, v, w), 2))
        edge = tuple(map(by_class.__getitem__, slot_pairs(t)))
        if not host.constituent(t).has(*edge):
            return False, Violation(
                "edge", f"edge ({u},{v},{w}) needs {edge} in constituent A^{t}")
    return True, None


class _BudgetExhausted(Exception):
    pass


def _edge_layout(a: int, b: int, c: int) -> tuple[Triple, int]:
    """The sorted triple of distinct indices a, b, c, and the index into
    _SLOTS of the order they come in."""
    if a < b:
        if b < c:
            return (a, b, c), 0
        if a < c:
            return (a, c, b), 1
        return (c, a, b), 2
    if a < c:
        return (b, a, c), 3
    if b < c:
        return (b, c, a), 4
    return (c, b, a), 5


# _SLOTS[L]: the constituent slots, in core.slot_pairs order, of the pairs
# uv, uw, vw of an edge u < v < w whose indices come in order L (see
# _edge_layout); built here from the six orders of the ranks 0, 1, 2.
_SLOTS = tuple(slots for _, slots in sorted(
    (_edge_layout(a, b, c)[1],
     tuple(slot_pairs((0, 1, 2)).index(sorted_pair(x, y)) for x, y in ((a, b), (a, c), (b, c))))
    for a, b, c in itertools.permutations(range(3))))
# For the pairs uv, uw, vw of an edge: the pair's place and the places of the
# edge's other two pairs.
_OTHERS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _completions(con: Constituent, x: int, y: int) -> tuple[int, ...]:
    """The constituent's completion table read in slot order x, y: entry
    vx*s_y + vy is the bitset of third-slot vertices completing an edge
    with slot-x vertex vx and slot-y vertex vy.  With the sizes in slot
    order, it determines the edges read through that order, and so keys a
    relation.  It is comp01, comp02 or comp12 for x < y, and a transpose
    for y < x."""
    pair = (min(x, y), max(x, y))
    table = (con.comp01 if pair == (0, 1) else con.comp12 if pair == (1, 2)
             else con.comp02)
    if x < y:
        return tuple(table)
    sx = con.sizes[x]  # entry vy*s_x + vx of the table in order y, x
    return tuple(itertools.chain.from_iterable(table[vx::sx] for vx in range(sx)))


def _propagate(entries, val: int, doms: list[int],
               assigned: list[int | None]) -> bool:
    """Forward-check the edges of a pair that has just taken value val.

    entries holds one tuple per edge of the pair, ascending by edge:
    (q, r, comp_q, mp_q, m_q, proj_q, comp_r, mp_r, m_r, proj_r) with q, r
    the edge's other two pairs.  comp_q[val*mp_q + vq*m_q] is the bitset of
    r's values completing the edge with q's value vq, and proj_q[val] the
    bitset of q's values sharing an edge with val; likewise with q and r
    swapped.  doms is narrowed in place and nothing is saved: the caller
    restores it from one snapshot taken before its first value.  False on
    a wipeout.
    """
    for q, r, comp_q, mp_q, m_q, proj_q, comp_r, mp_r, m_r, proj_r in entries:
        aq = assigned[q]
        ar = assigned[r]
        if aq is not None:
            if ar is not None:
                continue  # was already completion-pruned when the second one landed
            new = doms[r] = doms[r] & comp_q[val * mp_q + aq * m_q]
        elif ar is not None:
            new = doms[q] = doms[q] & comp_r[val * mp_r + ar * m_r]
        else:
            new = doms[q] = doms[q] & proj_q[val]
            if not new:
                return False
            new = doms[r] = doms[r] & proj_r[val]
        if not new:
            return False
    return True


def _count_last_level(dom: int, entries, doms: list[int],
                      assigned: list[int | None]) -> int:
    """The class-vertex maps below a pair p, of domain dom and pruning
    entries entries (see _propagate), whose assignment frees every other
    unassigned pair: the sum over p's values of the product of the domain
    sizes that value leaves to the freed pairs.

    Each freed pair was left to branch on, so it had an unassigned
    neighbour, and only p can have been that neighbour: it shares exactly
    one edge with p, whose third pair is assigned.  So p's value narrows
    it through one completion table, and the freed pairs narrow nothing
    further.
    """
    narrowed = []
    for q, r, comp_q, mp_q, m_q, _, comp_r, mp_r, m_r, _ in entries:
        aq = assigned[q]
        ar = assigned[r]
        if aq is None:  # then r is assigned
            narrowed.append((doms[q], comp_r, mp_r, ar * m_r))
        elif ar is None:
            narrowed.append((doms[r], comp_q, mp_q, aq * m_q))
    total = 0
    while dom:
        low = dom & -dom
        dom ^= low
        val = low.bit_length() - 1
        ways = 1
        for d, comp, mp, offset in narrowed:
            ways *= (d & comp[val * mp + offset]).bit_count()
            if not ways:
                break
        total += ways
    return total


@dataclass(frozen=True, slots=True)
class _CountPlan:
    """What the counting search does once a given set of pairs is assigned.

    freed: unassigned pairs with no unassigned neighbour, multiplied out;
    after: the assigned-pair mask with the freed pairs added;
    todo: the pairs still to branch on, ascending;
    frontier: assigned pairs in an edge whose other two pairs are both in
    todo, the only assigned values the subtree still reads;
    memo: whether some pair of after lies outside the frontier.  Without
    one, the subtree's key holds every assigned value, so it determines
    the path from the root, no other path can reach it and caching cannot
    pay;
    fget, tget: itemgetters of the frontier values from the assigned list
    and of the todo domains from the domain list, so the parent gathers a
    node's cache key (after, fget(assigned), tget(doms)) in C.  todo holds
    at least two pairs, since a todo pair's unassigned neighbour is todo
    too, so tget gives a tuple; fget gives the value bare for a frontier
    of one pair and None for an empty one.  after fixes the plan, so the
    key stays exact.  Both are None unless memo.
    """

    freed: tuple[int, ...]
    after: int
    todo: tuple[int, ...]
    frontier: tuple[int, ...]
    memo: bool
    fget: Callable | None
    tget: Callable | None


def _nothing(_) -> None:
    """The frontier getter of a plan with an empty frontier."""
    return None


def _per_vertex(n: int, entries: Iterable[tuple[int, object]]) -> list[tuple]:
    """Entries (v, item) as one tuple of items per vertex 0..n, in order of
    arrival; every vertex without entries shares the empty tuple, so a
    vertex outside every edge costs one list slot."""
    grouped: dict[int, list] = {}
    for v, item in entries:
        grouped.setdefault(v, []).append(item)
    table: list[tuple] = [()] * (n + 1)
    for v, items in grouped.items():
        table[v] = tuple(items)
    return table


class _Engine:
    def __init__(self, host: ReducedHypergraph, pattern: Pattern):
        self.host = host
        self.pattern = pattern
        self.n = pattern.vertex_count
        self.pairs: list[Pair] = sorted(pattern.shadow)
        pair_idx = {p: i for i, p in enumerate(self.pairs)}
        edges = sorted(pattern.edges)
        pidxs = [(pair_idx[(u, v)], pair_idx[(u, w)], pair_idx[(v, w)])
                 for u, v, w in edges]
        self.pair_edges: list[list[int]] = [[] for _ in self.pairs]
        # places[ei][s]: edge ei's place among the edges of its s-th pair
        places = []
        for ei, pidx in enumerate(pidxs):
            places.append(tuple(len(self.pair_edges[p]) for p in pidx))
            for p in pidx:
                self.pair_edges[p].append(ei)
        # neighbours[p]: the pairs sharing an edge with pair p; two edges
        # share at most one pair, so none is listed twice
        self.neighbours: list[tuple[int, ...]] = [
            tuple(q for ei in es for q in pidxs[ei] if q != p)
            for p, es in enumerate(self.pair_edges)]
        self._plans: dict[int, _CountPlan] = {}
        # distinct_before[v]: shadow neighbours u < v, for distinctness pruning
        self.distinct_before: list[tuple[int, ...]] = _per_vertex(
            self.n, ((v, u) for u, v in self.pairs))
        # lam_sched[w]: the edges (u, v, ei) with u < v < w, ei the edge's
        # place in sorted order, which become index-complete once w is assigned
        self.lam_sched: list[tuple[tuple[int, int, int], ...]] = _per_vertex(
            self.n, ((e[2], (e[0], e[1], ei)) for ei, e in enumerate(edges)))
        # edge_pairs[ei]: for the pairs uv, uw, vw of edge ei, (p, (q, r), k):
        # q and r the edge's other pairs and k the edge's place among p's edges
        self.edge_pairs: list[tuple[tuple[int, tuple[int, int], int], ...]] = []
        for pidx, place in zip(pidxs, places):
            self.edge_pairs.append(tuple(
                (pidx[p], (pidx[q], pidx[r]), place[p]) for p, q, r in _OTHERS))

    def run(self, limit: int | None, count_all: bool) -> SearchResult:
        n = self.n
        lam = [0] * (n + 1)
        found_cert: list[ReducedMap] = []
        total = 0
        cap = math.inf if limit is None else limit
        nodes = 0

        host = self.host
        M = host.index_count
        S = M + 1
        cons = host.constituents
        distinct_before = self.distinct_before
        lam_sched = self.lam_sched
        # code[ei]: the relation class of edge ei, written when the edge
        # becomes index-complete; the tuple of codes is the leaf's key
        code = [0] * len(self.edge_pairs)
        # (a*S + b)*S + c for the indices a, b, c of an edge's vertices in
        # order -> the edge's relation class, or -1 when its constituent is empty
        codes: dict[int, int] = {}
        # relation -> its class, numbered in order of first use
        classes: dict[tuple, int] = {}
        # parts[class]: per pair uv, uw, vw of an edge with that relation,
        # (the tail of its pruning entry, its occupied vertices)
        parts: list[tuple[tuple[tuple, int], ...]] = []
        # leaf key -> (count, nodes) of its class-vertex search; in find, only
        # failed searches are stored, with count 0
        leaves: dict[tuple[int, ...], tuple[int, int]] = {}

        def edge_code(key: int) -> int:
            rest, k = divmod(key, S)
            i, j = divmod(rest, S)
            t, order = _edge_layout(i, j, k)
            con = cons[t]
            if not any(con.comp01):
                ec = -1
            else:
                x, y, z = slots = _SLOTS[order]
                sizes = con.sizes
                relation = (sizes[x], sizes[y], sizes[z], _completions(con, x, y))
                ec = classes.get(relation)
                if ec is None:
                    ec = classes[relation] = len(parts)
                    con.ensure_search_tables()
                    fwd, occupied = con.fwd, con.occupied
                    parts.append(tuple(
                        (fwd[slots[p]][slots[q]] + fwd[slots[p]][slots[r]], occupied[slots[p]])
                        for p, q, r in _OTHERS))
            codes[key] = ec
            return ec

        def lam_rec(u: int) -> bool:
            nonlocal total, nodes
            if u > n:
                key = tuple(code)
                seen = leaves.get(key)
                if seen is not None:
                    nodes += seen[1]
                    if nodes > cap:
                        raise _BudgetExhausted
                    total += seen[0]
                    return False
                props, doms = self._resolve(code, parts)
                if 0 in doms:
                    count = spent = 0
                elif count_all:
                    count, spent = self._phi_count(props, doms, cap - nodes)
                else:
                    phi, spent = self._phi_find(props, doms, cap - nodes)
                    if phi is not None:
                        nodes += spent
                        found_cert.append(self._reduced_map(lam, phi))
                        return True
                    count = 0
                nodes += spent
                if len(leaves) < LEAF_TABLE_CAP:
                    leaves[key] = (count, spent)
                total += count
                return False
            banned = 0
            for v in distinct_before[u]:
                banned |= 1 << lam[v]
            # each edge completed at u, with its key less the last index
            heads = [((lam[x] * S + lam[y]) * S, ei) for x, y, ei in lam_sched[u]]
            for i in range(1, M + 1):
                nodes += 1
                if nodes > cap:
                    raise _BudgetExhausted
                if banned >> i & 1:
                    continue
                lam[u] = i
                for head, ei in heads:
                    ec = codes.get(head + i)
                    if ec is None:
                        ec = edge_code(head + i)
                    if ec < 0:
                        break
                    code[ei] = ec
                else:  # no edge's constituent is empty
                    if lam_rec(u + 1):
                        return True
            return False

        try:
            hit = lam_rec(1)
        except _BudgetExhausted:  # every stage stops where node-by-node spending would
            return SearchResult("budget-exhausted", None, None, limit + 1)
        finally:
            del lam_rec  # it refers to itself; unbound, the closure dies at once
        if count_all:
            status = "found" if total > 0 else "not-found"
            return SearchResult(status, None, total, nodes)
        if hit:
            rmap = found_cert[0]
            ok, violation = validate_reduced_map(host, self.pattern, rmap)
            if not ok:
                raise SelfCheckError(f"engine produced an invalid map: {violation}")
            return SearchResult("found", EmbedCertificate(rmap, self.pattern), None, nodes)
        return SearchResult("not-found", None, None, nodes)

    def _resolve(self, code: list[int], parts: list) -> tuple[list, list[int]]:
        """The pruning entries (see _propagate) and initial domains of the
        class-vertex problem whose edges have the relation classes code."""
        props: list[list[tuple]] = [[None] * len(es) for es in self.pair_edges]
        doms = [-1] * len(self.pairs)
        for pairs, ec in zip(self.edge_pairs, code):
            for (p, qr, k), (tail, occupied) in zip(pairs, parts[ec]):
                props[p][k] = qr + tail
                doms[p] &= occupied
        return props, doms

    def _reduced_map(self, lam: list[int], phi: list[int]) -> ReducedMap:
        return ReducedMap(
            lam={u: lam[u] for u in range(1, self.n + 1)},
            phi={(u, v): (sorted_pair(lam[u], lam[v]), phi[p])
                 for p, (u, v) in enumerate(self.pairs)})

    # -- class-vertex stage ------------------------------------------------
    #
    # Both searches take the pruning entries and the initial domains of one
    # complete index map, none of them empty; doms is theirs to narrow.  Each
    # returns its result and the nodes it spent, and stops once they pass room.

    def _phi_find(self, props, doms: list[int], room: float) -> tuple[list[int] | None, int]:
        """The first class-vertex map, as the value of each pair, or None."""
        np_ = len(doms)
        assigned: list[int | None] = [None] * np_
        spent = 0

        def rec() -> bool:
            nonlocal spent
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
            entries = props[p]
            snapshot = doms[:]
            for val in iter_bits(doms[p]):
                spent += 1
                if spent > room:
                    raise _BudgetExhausted
                assigned[p] = val
                doms[p] = 1 << val
                if _propagate(entries, val, doms, assigned) and rec():
                    return True
                doms[:] = snapshot
            assigned[p] = None
            return False

        try:
            return (assigned if rec() else None), spent
        finally:
            del rec  # it refers to itself; unbound, the closure dies at once

    def _count_plan(self, mask: int) -> _CountPlan:
        """Compile the plan of the counting search for one assigned-pair mask."""
        nbrs = self.neighbours
        pairs = range(len(self.pairs))
        unset = {p for p in pairs if not mask >> p & 1}
        freed = tuple(p for p in pairs if p in unset and unset.isdisjoint(nbrs[p]))
        after = mask
        for p in freed:
            after |= 1 << p
        unset.difference_update(freed)
        todo = tuple(sorted(unset))
        # the assigned pair of each edge whose other two pairs are in todo
        front = set()
        for (a, (b, c), _), _, _ in self.edge_pairs:
            if (a in unset) + (b in unset) + (c in unset) == 2:
                front.update((a, b, c))
        frontier = tuple(sorted(front - unset))
        memo = bool(todo) and len(frontier) < after.bit_count()
        fget = tget = None
        if memo:
            fget = itemgetter(*frontier) if frontier else _nothing
            tget = itemgetter(*todo)
        plan = self._plans[mask] = _CountPlan(freed, after, todo, frontier, memo,
                                              fget, tget)
        return plan

    def _phi_count(self, props, doms: list[int], room: float) -> tuple[int, int]:
        """The number of class-vertex maps, with subtree results cached and
        the last branching level counted in closed form (see the module
        docstring)."""
        assigned: list[int | None] = [None] * len(doms)
        plans = self._plans
        # subtree key -> (count, nodes); valid for this index map only
        cache: dict[tuple, tuple[int, int]] = {}
        spent = 0  # also gives the cached subtree sizes

        def branch(plan: _CountPlan) -> int:
            """The maps below a node of plan, which has pairs to branch on;
            its freed pairs are multiplied out, and its cache entry looked
            up, by the caller."""
            nonlocal spent
            todo = plan.todo
            p = todo[0]
            best_size = doms[p].bit_count()
            for q in todo:
                size = doms[q].bit_count()
                if size < best_size:
                    p, best_size = q, size
            rest = doms[p]
            child_mask = plan.after | 1 << p
            child = plans.get(child_mask) or self._count_plan(child_mask)
            if not child.todo:
                # p's values are the level's nodes: spend them at once, as
                # the branching would one by one
                spent += best_size
                if spent > room:
                    raise _BudgetExhausted
                return _count_last_level(rest, props[p], doms, assigned)
            entries = props[p]
            # Freed pairs have every incident edge's other two pairs
            # concretely assigned, so they are fully pruned already: multiply
            # their domain sizes out instead of branching.  Two freed pairs
            # never share an edge, so the factors are independent.
            freed = child.freed
            memo, after, fget, tget = child.memo, child.after, child.fget, child.tget
            snapshot = doms[:]
            subtotal = 0
            while rest:
                low = rest & -rest
                rest ^= low
                spent += 1
                if spent > room:
                    raise _BudgetExhausted
                val = low.bit_length() - 1
                assigned[p] = val
                doms[p] = low
                if _propagate(entries, val, doms, assigned):
                    mult = 1
                    for q in freed:
                        mult *= doms[q].bit_count()
                    if mult and memo:
                        key = (after, fget(assigned), tget(doms))
                        hit = cache.get(key)
                        if hit is None:
                            spent_before = spent
                            sub = branch(child)
                            cache[key] = (sub, spent - spent_before)
                        else:
                            spent += hit[1]
                            if spent > room:
                                raise _BudgetExhausted
                            sub = hit[0]
                        subtotal += mult * sub
                    elif mult:
                        subtotal += mult * branch(child)
                doms[:] = snapshot
            assigned[p] = None
            return subtotal

        try:
            # At the root no pair is freed, since each lies in an edge with
            # two others, and the cache is empty.
            plan = plans.get(0) or self._count_plan(0)
            return (branch(plan) if plan.todo else 1), spent
        finally:
            del branch  # it refers to itself; unbound, the closure and cache die at once


def find_reduced_image(host: ReducedHypergraph, pattern: Pattern,
                       budget: int | None = None,
                       count_all: bool = False) -> SearchResult:
    """Search for a reduced image of the pattern in the host.

    budget is a node limit (None = unbounded); exceeding it yields status
    'budget-exhausted', never a silent 'not-found'.  count_all counts all
    valid maps instead of stopping at the first.  A pattern whose three
    per-vertex lists would hold more than TABLE_ENTRY_CAP entries is
    refused (CapExceeded) before any of them is built, and so is a search
    that could recurse deeper than MAX_SEARCH_DEPTH: one level per pattern
    vertex and shadow pair, each entered after spending a node.
    """
    if budget is not None and budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    n = pattern.vertex_count
    refuse_above_cap(3 * (n + 1), f"a search for a pattern on {n} vertices")
    depth = min(n + len(pattern.shadow), budget or math.inf)
    if depth > MAX_SEARCH_DEPTH:
        raise CapExceeded(f"a search for a pattern on {n} vertices may recurse {depth} "
                          f"levels deep, above the cap {MAX_SEARCH_DEPTH}")
    return _Engine(host, pattern).run(budget, count_all)


def exhaustive_oracle(host: ReducedHypergraph, pattern: Pattern,
                      cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    """Count all valid maps by naive enumeration in lexicographic order.

    Refuses (CapExceeded) when the candidate space -- index assignments
    times the product of class sizes over shadow pairs -- exceeds cap, or
    when the count would recurse deeper than MAX_SEARCH_DEPTH (one level
    per shadow pair), both before the first index map is walked; and a
    negative cap (DomainError).
    """
    refuse_negative_cap(cap)
    n = pattern.vertex_count
    M = host.index_count
    pairs = sorted(pattern.shadow)
    # M >= 2, so M^n >= 2^n > cap once n reaches cap's bit length: refuse
    # before computing a power that could be astronomically large.
    if n >= cap.bit_length() or M ** n > cap:
        raise CapExceeded(
            f"index assignment space {M}^{n} exceeds oracle cap {cap}")
    if len(pairs) > MAX_SEARCH_DEPTH:
        raise CapExceeded(f"an oracle count for a pattern on {n} vertices would recurse "
                          f"{len(pairs)} levels deep, above the cap {MAX_SEARCH_DEPTH}")
    pos_pairs = [(u - 1, v - 1) for u, v in pairs]

    def admitted():  # the index maps, in order, that split every shadow pair
        return (lam0 for lam0 in itertools.product(range(1, M + 1), repeat=n)
                if not any(lam0[a] == lam0[b] for a, b in pos_pairs))

    leaves = 0
    for lam0 in admitted():
        width = 1
        for a, b in pos_pairs:
            width *= host.class_size(lam0[a], lam0[b])
        leaves += width
        if leaves > cap:
            raise CapExceeded(
                f"candidate space exceeds oracle cap {cap} "
                f"(reached {leaves} leaves)")

    total = sum(_oracle_count_for_lam(host, pattern, pairs, lam0) for lam0 in admitted())
    return OracleResult(found=total > 0, count=total, leaves=leaves)


def _oracle_count_for_lam(host: ReducedHypergraph, pattern: Pattern,
                          pairs: list[Pair], lam0: tuple[int, ...]) -> int:
    np_ = len(pairs)
    pos = {p: i for i, p in enumerate(pairs)}
    sizes = [host.class_size(lam0[u - 1], lam0[v - 1]) for u, v in pairs]
    sched: list[list[tuple[frozenset, int, int, int]]] = [[] for _ in range(np_)]
    for u, v, w in sorted(pattern.edges):
        # the place of each of the edge's pattern pairs, keyed by its class pair
        place = {sorted_pair(lam0[a - 1], lam0[b - 1]): pos[(a, b)]
                 for a, b in itertools.combinations((u, v, w), 2)}
        t = sorted_triple(lam0[u - 1], lam0[v - 1], lam0[w - 1])
        sched[max(place.values())].append(
            (host.constituent(t).edges, *map(place.__getitem__, slot_pairs(t))))
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

    try:
        rec(0)
    finally:
        del rec  # it refers to itself; unbound, the closure dies at once
    return count
