"""Host generators and lower-bound witnesses.

Randomness comes from Python's Mersenne Twister seeded explicitly, with
sampling done by an explicit partial Fisher-Yates shuffle so fixtures are
reproducible across builds (identifier: mt19937-partial-fisher-yates).
Each draw below a bound m takes getrandbits(m.bit_length()) and draws
again while the result is >= m (see _sample_indices), so the stream is
defined by getrandbits alone.  That is the rule of CPython's
random.randrange, which drew these hosts before, so their bytes are
unchanged.

The orientation constructions encode a tournament: each pair class holds
the two possible orientations of that pair, and a constituent keeps
exactly the orientation triples whose induced 3-vertex tournament is
cyclic, which is 2 of the 8 patterns, so every constituent has density
exactly 1/4.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from typing import Callable, Mapping

from .core import (Pair, ReducedHypergraph, Triple, cell_code, check_table_size,
                   refuse_above_cap, sorted_pair)
from .errors import DomainError
from .plain import Plain3Graph

RNG_ALGORITHM = "mt19937-partial-fisher-yates"

# Orientation triples (bit per pair, 0 = lower index beats higher) whose
# induced 3-vertex tournament is a directed cycle.  The other six of the
# eight patterns are transitive.
_CYCLIC_PATTERNS = frozenset({(0, 1, 0), (1, 0, 1)})


def _check_host_request(index_count: int, class_size: Callable[[Pair], int],
                        edges: Callable[[], int]) -> None:
    """Refuse, from the sizes alone and before any allocation, a host over
    TABLE_ENTRY_CAP: first its constituents, so an absurd index count never
    builds a size dict, then its tables, then its edge list."""
    refuse_above_cap(4 * comb(index_count, 3), f"a host on {index_count} indices")
    check_table_size(index_count, {p: class_size(p) for p in
                                   itertools.combinations(range(1, index_count + 1), 2)})
    refuse_above_cap(edges(), "the host's edge list")


def check_3graph_request(vertex_count: int) -> None:
    """Refuse, before any allocation, a 3-graph on more vertices than
    TABLE_ENTRY_CAP leaves room for: it may hold every triple."""
    refuse_above_cap(comb(max(vertex_count, 0), 3), f"a 3-graph on {vertex_count} vertices")


def _sample_indices(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct integers from range(n) by partial Fisher-Yates.

    Step i swaps pool[i] with pool[i + r], r uniform below m = n - i: r is
    getrandbits(m.bit_length()), drawn again while r >= m.
    """
    getrandbits = rng.getrandbits
    pool = list(range(n))
    for i in range(k):
        m = n - i
        width = m.bit_length()
        r = getrandbits(width)
        while r >= m:
            r = getrandbits(width)
        j = i + r
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


@dataclass(frozen=True)
class Tournament:
    """Orientation of every pair on vertices 1..n; bit 1 = low beats high."""

    n: int
    orient: Mapping[Pair, int]

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"tournament needs >= 2 vertices, got {self.n}")
        expected = {p for p in itertools.combinations(range(1, self.n + 1), 2)}
        if set(self.orient) != expected:
            raise DomainError("tournament must orient exactly the sorted pairs")
        if any(bit not in (0, 1) for bit in self.orient.values()):
            raise DomainError("orientation bits must be 0 or 1")

    def beats(self, a: int, b: int) -> bool:
        """Whether a beats b, read from the orientation bit.  No command
        calls it; the tests check is_cyclic_triple's table against it."""
        if a == b:
            raise DomainError("a vertex does not play itself")
        i, j = sorted_pair(a, b)
        bit = self.orient[(i, j)]
        return (a == i) == (bit == 1)


def random_tournament(n: int, seed: int) -> Tournament:
    rng = random.Random(seed)
    orient = {p: rng.getrandbits(1)
              for p in itertools.combinations(range(1, n + 1), 2)}
    return Tournament(n, orient)


def is_cyclic_triple(t: Tournament, a: int, b: int, c: int) -> bool:
    """Whether {a,b,c} induces a directed 3-cycle, via the pattern table."""
    a, b, c = sorted((a, b, c))
    pattern = (t.orient[(a, b)], t.orient[(a, c)], t.orient[(b, c)])
    return pattern in _CYCLIC_PATTERNS


def cyclic_triple_3graph(t: Tournament) -> Plain3Graph:
    """Plain 3-graph whose edges are the cyclically oriented triples."""
    if t.n < 3:
        raise DomainError(f"need >= 3 vertices, got {t.n}")
    edges = [triple for triple in itertools.combinations(range(1, t.n + 1), 3)
             if is_cyclic_triple(t, *triple)]
    return Plain3Graph(t.n, edges)


def random_box_dense(index_count: int, class_size: int, d, seed: int) -> ReducedHypergraph:
    """Seeded host where every constituent gets exactly ceil(d * p^3)
    distinct edges chosen uniformly, hence density >= d everywhere."""
    d = Fraction(d)
    if not (0 <= d <= 1):
        raise DomainError(f"density must lie in [0, 1], got {d}")
    if index_count < 2:
        raise DomainError(f"index_count must be >= 2, got {index_count}")
    if class_size < 1:
        raise DomainError(f"class_size must be >= 1, got {class_size}")
    p = class_size
    space = p ** 3
    k = ceil(d * space) if d > 0 else 0
    _check_host_request(index_count, lambda pair: p, lambda: comb(index_count, 3) * k)
    if index_count >= 3:
        refuse_above_cap(space, "the sampling pool")
    rng = random.Random(seed)
    sizes = dict.fromkeys(itertools.combinations(range(1, index_count + 1), 2), p)

    def cells(slot_sizes):
        # each triple's k picks, in turn; pick x is the cell of the edge
        # (x // p^2, x // p % p, x % p) in classes of p
        code = cell_code((p, p, p), k)
        for t in itertools.combinations(range(1, index_count + 1), 3):
            yield t, slot_sizes(t), list(map(code, sorted(_sample_indices(rng, space, k))))

    return ReducedHypergraph._from_cells(index_count, sizes, cells)


def orientation_reduced(index_count: int) -> ReducedHypergraph:
    """Reduced analog of the cyclic-triple construction.

    Every class is {0, 1} read as the orientation of its pair (0 = lower
    index beats higher); every constituent holds exactly the 2 cyclic
    orientation triples, so each density is exactly 1/4.
    """
    if index_count < 3:
        raise DomainError(f"need >= 3 indices, got {index_count}")
    _check_host_request(index_count, lambda pair: 2, lambda: 2 * comb(index_count, 3))
    # Vertex value v corresponds to orientation bit 1 - v.
    edges = sorted((1 - a, 1 - b, 1 - c) for a, b, c in _CYCLIC_PATTERNS)
    cons = {t: list(edges)
            for t in itertools.combinations(range(1, index_count + 1), 3)}
    return ReducedHypergraph.with_uniform_classes(index_count, 2, cons)


def reduced_blow_up(host: ReducedHypergraph, t: int) -> ReducedHypergraph:
    """Replace every class vertex by t copies; edges lift to all t^3
    copy combinations, so constituent densities are preserved exactly."""
    if t < 1:
        raise DomainError(f"blow-up factor must be >= 1, got {t}")
    _check_host_request(host.index_count, lambda pair: host.class_size(*pair) * t,
                        lambda: host.total_edge_count() * t ** 3)
    sizes = {p: host.class_size(*p) * t for p in host.pairs()}
    cons: dict[Triple, list[tuple[int, int, int]]] = {}
    for triple in host.triples():
        edges = host.edges(triple)
        if not edges:
            continue
        lifted = []
        for a, b, c in edges:
            for da, db, dc in itertools.product(range(t), repeat=3):
                lifted.append((a * t + da, b * t + db, c * t + dc))
        cons[triple] = lifted
    return ReducedHypergraph(host.index_count, sizes, cons)
