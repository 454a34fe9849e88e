"""Plain 3-graph support: uniform density auditing and pattern-copy counts.

A plain 3-graph is an ordinary 3-uniform hypergraph on vertices 1..n.
The constructor sorts, de-duplicates and checks arbitrary edges by
core.canonical_edges, the rule patterns share, and words the first bad
one; Plain3Graph._from_rows builds a graph from rows that fileio's bulk
loader has already sorted.  The audit checks, for vertex subsets U, the
exact-rational inequality

    #(edges inside U)  >=  d * C(|U|, 3) - eta * n^3

either over every subset (exhaustive) or over random samples.  A sampled
run can never report a full "pass", only "sampled-pass".  d and eta are
exact: a float is refused.  The inequality stays exact: both sides are
multiplied by den(d) * den(eta), so each subset is judged by comparing
integers, with one threshold per subset size, and only a reported
deficiency becomes a Fraction again.

An exhaustive run counts the edges inside all 2^n subsets at once: a table
of one- or two-byte fields packed into one Python int, summed over subsets
with one big-integer addition per vertex, then read back as a flat array.
The scan then judges 2^14 masks at a time: one big-integer subtraction of
a block's counts from its per-mask bars flags the masks that may be the
worst violation, every block alike, and only those are read one by one
(see _scan_masks).  A sampled run packs the graph into one bit row per
vertex, so the edges inside a sample are counted with one AND and one
popcount per sampled vertex.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import itemgetter, lt
from typing import Iterable, Sequence

from .core import (MAX_SEARCH_DEPTH, TABLE_ENTRY_CAP, Pattern, canonical_edges,
                   exact_rational, refuse_above_cap, refuse_negative_cap)
from .errors import CapExceeded, DomainError

EXHAUSTIVE_VERTEX_CAP = 20


@dataclass(frozen=True)
class Plain3Graph:
    """canonical_sha256 is the sha256 of the text this graph was loaded
    from when that text is fileio.write_plain3 of the graph, else None."""

    vertex_count: int
    edges: frozenset[tuple[int, int, int]]
    canonical_sha256: str | None = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]]):
        object.__setattr__(self, "edges", canonical_edges(vertex_count, edges, "edge"))
        object.__setattr__(self, "vertex_count", vertex_count)

    @classmethod
    def _from_rows(cls, vertex_count: int, rows: Iterable[tuple[int, int, int]],
                   canonical_sha256: str | None = None) -> "Plain3Graph":
        """The graph on 1..vertex_count with the given rows, already sorted
        within each row, as its edges; a repeated row counts once.

        This is the bulk loader's builder.  It checks the constructor's
        rules a column at a time, through views that copy nothing, and
        raises a DomainError that names no edge: a caller with text to
        word an error from goes back to the constructor.
        """
        if vertex_count < 1:
            raise DomainError(f"vertex_count must be >= 1, got {vertex_count}")
        edges = frozenset(rows)
        u, v, w = itemgetter(0), itemgetter(1), itemgetter(2)
        if edges and not (set(map(len, edges)) == {3}
                          and 1 <= min(map(u, edges)) and max(map(w, edges)) <= vertex_count
                          and all(map(lt, map(u, edges), map(v, edges)))
                          and all(map(lt, map(v, edges), map(w, edges)))):
            raise DomainError(f"rows must be triples 1 <= u < v < w <= {vertex_count}")
        graph = cls.__new__(cls)
        vars(graph).update(vertex_count=vertex_count, edges=edges,
                           canonical_sha256=canonical_sha256)
        return graph

    def density(self) -> Fraction:
        """Edges over C(n, 3).  No command prints it; the acceptance check
        that cyclic-triple 3-graphs have density near 1/4 reads it."""
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


def _edge_counts_by_subset(graph: Plain3Graph) -> Sequence[int]:
    """table[mask] = number of edges contained in the subset encoded by mask.

    The table is 2^n fixed-width fields of one Python int, field `mask` at
    bit mask * 8 * width.  No count exceeds |E|, so a field is one byte when
    |E| < 256 and two bytes otherwise (|E| <= C(23, 3) = 1771 under the
    table cap).  Each edge sets its own mask's field to 1; then, for each
    bit from the top down, one big-integer addition adds every field without
    the bit into the field with it, and no field carries into the next.  The
    selector of the fields with the bit comes from the previous bit's (all
    fields, before the top bit) by one shift and xor.  The result is a flat
    memoryview of unsigned bytes or shorts.
    """
    n = graph.vertex_count
    size = 1 << n
    width = 1 if len(graph.edges) < 256 else 2
    fields = bytearray(size * width)
    for u, v, w in graph.edges:
        fields[((1 << (u - 1)) | (1 << (v - 1)) | (1 << (w - 1))) * width] = 1
    table = int.from_bytes(fields, "little")
    high = (1 << (8 * width * size)) - 1
    for bit in reversed(range(n)):
        shift = 8 * width << bit  # bits in a run of 2^bit fields
        high ^= high >> shift  # the fields of the masks with this bit
        table += (table << shift) & high
    data = table.to_bytes(size * width, "little")
    if width == 2 and sys.byteorder == "big":  # "H" reads native-order shorts
        data = bytearray(data)
        data[::2], data[1::2] = data[1::2], data[::2]
    return memoryview(data).cast("B" if width == 1 else "H")


def _thresholds(n: int, d: Fraction, eta: Fraction) -> tuple[int, list[int]]:
    """The scale D = den(d) * den(eta) and, for each size s in 0..n, the
    integer T_s = D * (d * C(s, 3) - eta * n^3): a subset of size s with
    `count` edges violates iff count * D < T_s, and its deficiency is
    (T_s - count * D) / D."""
    scale = d.denominator * eta.denominator
    slack = eta.numerator * d.denominator * n ** 3
    weight = d.numerator * eta.denominator
    return scale, [weight * comb(s, 3) - slack for s in range(n + 1)]


def _least_count(scale: int, threshold: int) -> int:
    """The smallest count that does not violate: ceil(threshold / scale)."""
    return -(-threshold // scale)


_BLOCK_BITS = 14
# _SIZES[o] = popcount(o) for every offset o within a block.
_SIZES = b"\x00"
for _ in range(_BLOCK_BITS):
    _SIZES += _SIZES.translate(bytes(range(1, 256)) + b"\x00")
# A bar is kept within 0.._BAR_CAP, the least power of two above every
# count of a table the cap admits (C(23, 3) = 1771 edges, so 2^11); each
# 16-bit field holds 2^15 - 1 + bar, so subtracting a count borrows nothing
# from the next field and leaves bit 15 set iff count < bar.
_BAR_CAP = 1 << comb(TABLE_ENTRY_CAP.bit_length() - 1, 3).bit_length()
_GUARD = 1 << 15


def _scan_masks(counts: Sequence[int], n: int, d: Fraction, eta: Fraction):
    """Worst violation among all subset masks as (deficiency, subset); None
    when all hold.

    bars[s] is the smallest count of a size-s mask that is not a candidate:
    at first the least count that does not violate, and once a worst
    violation is known, the least count that could neither beat nor tie it.
    The masks are judged in blocks of 2^14 (2^n when smaller).  A block's
    bars, one 16-bit field per mask, come from bytes.translate of the
    offsets' popcounts, shifted by the popcount of the block's start, and
    are kept until the bars change.  One subtraction of every block's counts
    from its bars shows its candidates, and only they are read one by one.
    The table's bytes are read in the byte order of its memoryview, the
    host's.
    """
    scale, thresholds = _thresholds(n, d, eta)
    bars = [_least_count(scale, t) for t in thresholds]
    width = counts.itemsize
    raw = counts.cast("B")
    bits = min(n, _BLOCK_BITS)
    block = 1 << bits
    sizes = _SIZES[:block]
    # one-byte counts are widened into 16-bit little-endian fields
    order = "little" if width == 1 else sys.byteorder
    low, high = (0, 1) if order == "little" else (1, 0)
    guards = int.from_bytes(_GUARD.to_bytes(2, order) * block, order)
    wide = bytearray(2 * block)
    block_bars: dict[int, int] = {}
    worst = None
    for start in range(0, 1 << n, block):
        base = start.bit_count()
        bar = block_bars.get(base)
        if bar is None:
            fields = [_GUARD - 1 + min(max(b, 0), _BAR_CAP) for b in bars[base:base + bits + 1]]
            buf = bytearray(2 * block)
            buf[low::2] = sizes.translate(bytes(f & 0xff for f in fields).ljust(256, b"\0"))
            buf[high::2] = sizes.translate(bytes(f >> 8 for f in fields).ljust(256, b"\0"))
            bar = block_bars[base] = int.from_bytes(buf, order)
        if width == 1:
            wide[::2] = raw[start:start + block]
            have = int.from_bytes(wide, order)
        else:
            have = int.from_bytes(raw[2 * start:2 * (start + block)], order)
        below = (bar - have) & guards
        if not below:
            continue
        flags = below.to_bytes(2 * block, order)[high::2]
        for mask in itertools.compress(range(start, start + block), flags):
            size = mask.bit_count()
            count = raw[mask] if width == 1 else int.from_bytes(raw[2 * mask:2 * mask + 2], order)
            margin = thresholds[size] - count * scale
            if worst is not None and (margin < worst[0] or margin == worst[0] and size > worst[1]):
                continue
            subset = tuple(v + 1 for v in range(n) if mask >> v & 1)
            if worst is None or (-margin, size, subset) < (-worst[0], worst[1], worst[2]):
                worst = (margin, size, subset)
                # a tie needs no larger size: its subset then decides
                bars = [_least_count(scale, t - margin + (s <= size))
                        for s, t in enumerate(thresholds)]
                block_bars = {}
    return None if worst is None else (Fraction(worst[0], scale), worst[2])


def _packed_rows(graph: Plain3Graph, draws: int) -> list[int]:
    """rows[u] has bit v * (n + 1) + w for each edge (u, v, w), u < v < w.
    The n + 1 rows, and (n + 1)^2 / 64 words for each vertex leading an edge
    and for each of the three grid-sized ints a sample holds at once, are
    refused (CapExceeded) above TABLE_ENTRY_CAP before any is built; so are
    the ceil((n + 1)^2 / 64) words of a grid that each of the `draws`
    sampled vertices' rows is ANDed with."""
    r = graph.vertex_count + 1
    leaders = len(set(map(itemgetter(0), graph.edges)))
    refuse_above_cap(r + (leaders + 3) * r * r // 64,
                     f"a sampled audit of {leaders} edge-leading vertices on {r - 1}")
    words = -(-r * r // 64)
    refuse_above_cap(draws * words, f"a sampled audit reading {draws} sampled vertices "
                                    f"against grids of {words} words on {r - 1}")
    rows = [0] * r
    for u, v, w in graph.edges:
        rows[u] |= 1 << (v * r + w)
    return rows


def uniform_density_audit(graph: Plain3Graph, d, eta,
                          mode: str = "exhaustive",
                          samples: int = 0, seed: int = 0,
                          sizes: Sequence[int] | None = None,
                          vertex_cap: int = EXHAUSTIVE_VERTEX_CAP) -> AuditResult:
    """Audit the uniform density condition exactly.

    mode 'exhaustive' checks every subset (requires n <= vertex_cap and a
    table of 2^n counts within core.TABLE_ENTRY_CAP); mode 'sampled' draws
    `samples` subsets uniformly for each size in `sizes` (default 3..n), with
    samples * sum(sizes) sampled vertices, the packed rows, and the grid
    words those vertices are read against (see _packed_rows) each within
    the cap, and can only return 'sampled-pass' or 'fail'.  A negative
    vertex_cap, and a float d or eta, are refused (DomainError) in every
    mode.

    A sample U is counted through the packed rows (see _packed_rows): with
    grid = sum over v in U of (the bits of U) << v * (n + 1), the edges
    inside U number the sum over u in U of popcount(rows[u] & grid).  grid
    is built from U's own vertices, with no table over all n of them.
    """
    refuse_negative_cap(vertex_cap)
    d = exact_rational(d, "d")
    eta = exact_rational(eta, "eta")
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
        if n >= TABLE_ENTRY_CAP.bit_length():  # 2^n > TABLE_ENTRY_CAP
            raise CapExceeded(
                f"exhaustive audit of {n} vertices needs 2^{n} subset counts, "
                f"above the cap {TABLE_ENTRY_CAP}; use sampled mode")
        worst = _scan_masks(_edge_counts_by_subset(graph), n, d, eta)
        checked = (1 << n) - 1
        if worst is None:
            return AuditResult("pass", subsets_checked=checked)
        return AuditResult("fail", witness=worst[1], deficiency=worst[0],
                           subsets_checked=checked)

    if mode == "sampled":
        if samples < 1:
            raise DomainError(f"sampled mode needs samples >= 1, got {samples}")
        rng = random.Random(seed)
        if sizes is None:  # 3..n, summed without walking them
            size_list, total = range(3, n + 1), (n + 3) * max(n - 2, 0) // 2
        else:
            size_list = list(sizes)
            for s in size_list:
                if not (1 <= s <= n):
                    raise DomainError(f"sample size {s} out of range 1..{n}")
            total = sum(size_list)
        refuse_above_cap(samples * total, f"a sampled audit of {samples} samples per size, "
                                          f"sizes summing to {total},")
        rows = _packed_rows(graph, samples * total)
        scale, thresholds = _thresholds(n, d, eta)
        shift = (1).__lshift__
        lane = (n + 1).__mul__  # v -> where v's lane of the grid starts
        checked = 0
        for s in size_list:
            least = _least_count(scale, thresholds[s])
            for _ in range(samples):
                subset = tuple(sorted(rng.sample(range(1, n + 1), s)))
                grid = sum(map(shift, subset)) * sum(map(shift, map(lane, subset)))
                count = sum(map(int.bit_count, map(grid.__and__, map(rows.__getitem__, subset))))
                checked += 1
                if count < least:
                    return AuditResult("fail", witness=subset,
                                       deficiency=Fraction(thresholds[s] - count * scale, scale),
                                       subsets_checked=checked)
        return AuditResult("sampled-pass", subsets_checked=checked)

    raise DomainError(f"unknown audit mode {mode!r}")


def count_copies(graph: Plain3Graph, pattern: Pattern, labeled: bool = True) -> int:
    """Number of injective vertex maps of the pattern into the graph that
    carry every pattern edge to a graph edge.

    labeled=True returns the raw injective count; labeled=False divides by
    the pattern's automorphism count (computed by brute force).  The search
    takes a stack frame per pattern vertex: above core.MAX_SEARCH_DEPTH
    vertices, the pattern is refused (CapExceeded).  No command runs it;
    the acceptance check that cyclic-triple 3-graphs are K4minus-free does.
    """
    pv = pattern.vertex_count
    if pv > graph.vertex_count:
        raise DomainError(f"pattern has {pv} vertices but graph only {graph.vertex_count}")
    if pv > MAX_SEARCH_DEPTH:
        raise CapExceeded(f"counting copies of a pattern on {pv} vertices recurses {pv} "
                          f"levels deep, above the cap {MAX_SEARCH_DEPTH}")
    edges = graph.edges
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
