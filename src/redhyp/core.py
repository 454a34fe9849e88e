"""Core data model: reduced hypergraphs, patterns, reduced maps, exact densities.

A reduced hypergraph has an index set 1..M, one vertex class per index
pair, and one 3-partite constituent per index triple.  Vertices within a
class are dense integers 0..size-1; pairs and triples are always handled
sorted ascending.  All densities are exact rationals; no floats appear on
any decision path.

The slot order is stated once, by slot_pairs: an edge (a, b, c) of A^{ijk},
i < j < k, takes a from P^{ij}, b from P^{ik} and c from P^{jk}.  The edge
rule of patterns and plain 3-graphs is stated once, by canonical_edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._bits import iter_bits
from .errors import CapExceeded, DomainError, SelfCheckError

Pair = tuple[int, int]
Triple = tuple[int, int, int]
Edge = tuple[int, int, int]

# Refuse hosts whose constituents plus all their table entries exceed this.
TABLE_ENTRY_CAP = 10 ** 7
# The default cap on the candidate space of the two brute-force oracles,
# embed.exhaustive_oracle and glue.brute_force_glued.
DEFAULT_ORACLE_CAP = 10 ** 9
# The deepest search find_reduced_image starts: it takes one stack frame per
# level, and CPython's default recursion limit is 1000 frames.
MAX_SEARCH_DEPTH = 500


def sorted_pair(i: int, j: int) -> Pair:
    return (i, j) if i < j else (j, i)


def sorted_triple(i: int, j: int, k: int) -> Triple:
    return tuple(sorted((i, j, k)))  # type: ignore[return-value]


def slot_pairs(t: Triple) -> tuple[Pair, Pair, Pair]:
    """The class pairs of the slots 0, 1, 2 of constituent t = (i, j, k), i < j < k."""
    i, j, k = t
    return (i, j), (i, k), (j, k)


def canonical_edges(n: int, edges: Iterable[Edge], what: str) -> frozenset[Edge]:
    """The edges, each three distinct vertices of 1..n (n >= 1), sorted and
    kept once; the first fault raises DomainError, `what` naming an edge."""
    if n < 1:
        raise DomainError(f"vertex_count must be >= 1, got {n}")
    canon: set[Edge] = set()
    for e in edges:
        if len(e) != 3 or len(set(e)) != 3:
            raise DomainError(f"{what} {e} must have three distinct vertices")
        u, v, w = sorted(e)
        if not (1 <= u and w <= n):
            raise DomainError(f"{what} {e} out of range 1..{n}")
        canon.add((u, v, w))
    return frozenset(canon)


# A constituent of at most this many cells, at least half of them edges, is
# handed over, pooled and built as one int, the sum of the bits 1 << cell of
# its edges: comp01 is sliced from it, one step per entry.  Any other is
# handed over as its ascending cells, each set in its entry, one step per
# edge: it is the faster on sparse constituents, and it builds no int wider
# than an entry, whatever the class sizes.  Every process holds _BITS,
# whether or not it loads a host, so the limit is kept small.
_FLAT_CELLS = 1 << 10
_BITS = [1 << x for x in range(_FLAT_CELLS)]


def edge_cell(sizes: tuple[int, int, int], a: int, b: int, c: int) -> int:
    """The cell (a*s1 + b)*s2 + c of edge (a, b, c) in a constituent of slot
    sizes (s0, s1, s2): bit c of comp01[a*s1 + b].  An edge outside the
    classes raises ValueError."""
    s0, s1, s2 = sizes
    if not (0 <= a < s0 and 0 <= b < s1 and 0 <= c < s2):
        raise ValueError(f"edge {(a, b, c)} outside class sizes {sizes}")
    return (a * s1 + b) * s2 + c


def least_masked(sizes: tuple[int, int, int]) -> float:
    """The fewest edges with which a constituent of slot sizes (s0, s1, s2)
    is handed over as one int (see _FLAT_CELLS): half its s0*s1*s2 cells,
    rounded up, when they are at most _FLAT_CELLS, else never (inf)."""
    s0, s1, s2 = sizes
    volume = s0 * s1 * s2
    return (volume + 1) // 2 if volume <= _FLAT_CELLS else math.inf


def cell_code(sizes: tuple[int, int, int], n: int) -> Callable[[int], int]:
    """How a constituent of slot sizes (s0, s1, s2) with n edges is handed to
    ReducedHypergraph._from_cells, cell by cell: each cell as its bit
    1 << cell from least_masked(sizes) edges on, else as the cell itself."""
    return _BITS.__getitem__ if n >= least_masked(sizes) else int


class Constituent:
    """Bitset adjacency, and edges on demand, for one 3-partite constituent.

    Slots 0, 1, 2 are the classes of the triple's slot_pairs.  An edge
    (a, b, c) selects vertex a from slot 0, b from slot 1, c from slot 2;
    its cell is (a*s1 + b)*s2 + c (see edge_cell).

    Tables:
      comp01[a*s1+b] -> bitset over slot-2 completions, and likewise
        comp02 (fix slots 0,2) and comp12 (fix slots 1,2);
      proj_xy[v] -> bitset of slot-y vertices co-occurring with v in
        slot x, for all six ordered slot pairs;
      occupied[s] -> bitset of slot-s vertices used by at least one edge;
      fwd[x][y] (x != y) -> (comp, mx, my, proj_xy), where comp[vx*mx + vy*my]
        is the bitset of third-slot completions of slot-x vertex vx and
        slot-y vertex vy: comp is comp01, comp02 or comp12 with its
        operands in the order x, y.
    sizes, comp01 and the edge count are the stored form, and the
    constructor builds only them, from the edges' cells: cleaning's
    blue test, rows, projections, has() and edge_count() read nothing else.
    edges, the frozenset of (a, b, c), is built from comp01 on its first
    read and then kept; sorted_edges() reads them from comp01 in order
    without building it.  comp02 and comp12 are likewise built from the
    comp01 bits on their first read and kept: the embedding search reads
    them to key a relation and through fwd, and cleaning reads comp12 only
    for the high Q-graph of a triple that fails the blue bound.  The other
    search-only tables, the proj_xy, are reached through fwd; fwd and
    occupied are None until ensure_search_tables() builds them from comp01,
    comp02 and comp12, on the embedding search's first use of the
    constituent.  The search itself never reads edges.

    A constituent does not know its triple, and every table above depends
    only on the sizes and the edges.  So one object may stand for several
    triples: a host gives the triples of equal sizes and cells one
    constituent (see ReducedHypergraph._from_cells), and a host relabeled
    by `induced` shares the old one wherever a triple keeps its index order.
    """

    __slots__ = ("sizes", "_count", "_edges", "comp01", "_comp02", "_comp12", "occupied", "fwd")

    def __init__(self, sizes: tuple[int, int, int], row: int | Sequence[int]):
        """The constituent of the given slot sizes whose edges `row` holds:
        the int sum of their bits 1 << cell, or the sequence of their cells,
        each below s0*s1*s2 (edge_cell checks that; see _FLAT_CELLS for
        which).  A repeated cell adds no edge, so edge_count() falls short
        of the number of cells handed over: ReducedHypergraph._from_cells
        checks it."""
        self.sizes = sizes
        s0, s1, s2 = sizes
        keys = s0 * s1
        if isinstance(row, int):
            full = (1 << s2) - 1
            self.comp01 = list(map(full.__and__, map(row.__rshift__, range(0, keys * s2, s2))))
            self._count = row.bit_count()
        else:
            comp01 = self.comp01 = [0] * keys
            for x in row:
                key, c = divmod(x, s2)
                comp01[key] |= 1 << c
            self._count = sum(map(int.bit_count, comp01))
        self._edges = self._comp02 = self._comp12 = self.occupied = self.fwd = None

    @property
    def edges(self) -> frozenset[Edge]:
        edges = self._edges
        if edges is None:
            edges = self._edges = frozenset(self.sorted_edges())
        return edges

    def sorted_edges(self) -> list[Edge]:
        """The edges in ascending order, read from comp01; no set is built."""
        s1 = self.sizes[1]
        return [(key // s1, key % s1, c)
                for key, bits in enumerate(self.comp01) if bits for c in iter_bits(bits)]

    def edge_count(self) -> int:
        return self._count

    @property
    def comp02(self) -> list[int]:
        """comp02 (see above), built from the comp01 bits on first read."""
        if self._comp02 is None:
            self._comp02 = self._pivot(0)
        return self._comp02

    @property
    def comp12(self) -> list[int]:
        """comp12 (see above), built from the comp01 bits on first read."""
        if self._comp12 is None:
            self._comp12 = self._pivot(1)
        return self._comp12

    def _pivot(self, slot: int) -> list[int]:
        """The table keyed by slot-`slot` vertex times s2 plus slot-2 vertex,
        each entry the bitset of the other of slots 0 and 1: comp02 for
        slot 0, comp12 for slot 1."""
        _, s1, s2 = self.sizes
        table = [0] * (self.sizes[slot] * s2)
        for key, cs in enumerate(self.comp01):
            if cs:
                a, b = divmod(key, s1)
                row, bit = (a * s2, 1 << b) if slot == 0 else (b * s2, 1 << a)
                while cs:
                    low = cs & -cs
                    table[row + low.bit_length() - 1] |= bit
                    cs ^= low
        return table

    def ensure_search_tables(self) -> None:
        """Build occupied and fwd from comp01, comp02 and comp12, unless
        already built; the edge set is not read."""
        if self.fwd is not None:
            return
        s0, s1, s2 = self.sizes
        proj01 = [0] * s0
        proj02 = [0] * s0
        proj10 = [0] * s1
        proj12 = [0] * s1
        proj20 = [0] * s2
        proj21 = [0] * s2
        for key, cs in enumerate(self.comp01):
            if cs:
                a, b = divmod(key, s1)
                proj01[a] |= 1 << b
                proj02[a] |= cs
                proj10[b] |= 1 << a
                proj12[b] |= cs
        for key, as_ in enumerate(self.comp12):
            if as_:
                b, c = divmod(key, s2)
                proj20[c] |= as_
                proj21[c] |= 1 << b
        # A slot-0 vertex is used by an edge exactly when it has a partner in slot 1.
        self.occupied = (
            sum(1 << a for a, bits in enumerate(proj01) if bits),
            sum(1 << b for b, bits in enumerate(proj10) if bits),
            sum(1 << c for c, bits in enumerate(proj20) if bits))
        fwd = [[None] * 3 for _ in range(3)]
        # comp_xy (x < y) is keyed by the slot-x vertex times slot y's size.
        for x, y, comp, stride, proj_xy, proj_yx in (
                (0, 1, self.comp01, s1, proj01, proj10),
                (0, 2, self.comp02, s2, proj02, proj20),
                (1, 2, self.comp12, s2, proj12, proj21)):
            fwd[x][y] = (comp, stride, 1, proj_xy)
            fwd[y][x] = (comp, 1, stride, proj_yx)
        # Assigned last, so a set `fwd` means every table is complete.
        self.fwd = fwd

    def has(self, a: int, b: int, c: int) -> bool:
        s0, s1, s2 = self.sizes
        return (0 <= a < s0 and 0 <= b < s1 and 0 <= c < s2
                and self.comp01[a * s1 + b] >> c & 1 == 1)


def _table_size(index_count: int, sizes: Mapping[Pair, int]) -> int:
    """Constituents plus every table entry they can build, over all triples.

    With s0, s1, s2 the class sizes of (i,j), (i,k), (j,k), triple i<j<k
    builds comp01 (s0*s1 entries) and, on demand, comp12 (s1*s2, for the
    search or a red triple's high Q-graph) and, for the search, comp02
    (s0*s2), the six proj_xy (2*(s0+s1+s2)) and occupied (3).  Every table
    that can be built counts, whether or not it ever is.
    Summing each product over the pairs that share its fixed index (i for
    comp01, k for comp12, the middle j for comp02), and each class over its
    M-2 triples, turns the triple sum into O(M^2) work.
    """
    total = 4 * math.comb(index_count, 3) + 2 * (index_count - 2) * sum(sizes.values())
    for x in range(1, index_count + 1):
        above = [sizes[(x, y)] for y in range(x + 1, index_count + 1)]
        below = [sizes[(y, x)] for y in range(1, x)]
        for row in (above, below):
            s = sum(row)
            total += (s * s - sum(v * v for v in row)) // 2
        total += sum(below) * sum(above)
    return total


def check_table_size(index_count: int, sizes: Mapping[Pair, int]) -> None:
    """Refuse, with CapExceeded, a host whose constituents and tables would
    exceed TABLE_ENTRY_CAP entries; sizes must cover every pair."""
    entries = _table_size(index_count, sizes)
    if entries > TABLE_ENTRY_CAP:
        raise CapExceeded(
            f"host needs {entries} constituent table entries, "
            f"above the cap {TABLE_ENTRY_CAP}")


def exact_rational(value, what: str) -> Fraction:
    """value as a Fraction; a float is refused (DomainError), since the
    binary fraction it holds is rarely the number that was meant."""
    if isinstance(value, float):
        raise DomainError(f"{what} must be an exact rational, got float {value!r}")
    return Fraction(value)


def refuse_negative_cap(cap: int) -> None:
    """Refuse, with DomainError, a negative enumeration cap: a cap of 0
    refuses every enumeration, and below that a cap means nothing."""
    if cap < 0:
        raise DomainError(f"cap must be >= 0, got {cap}")


def refuse_above_cap(entries: int, what: str) -> None:
    """Refuse, with CapExceeded, anything of more than TABLE_ENTRY_CAP
    entries before it is allocated; `what` names it."""
    if entries > TABLE_ENTRY_CAP:
        raise CapExceeded(f"{what} needs {entries} entries, above the cap {TABLE_ENTRY_CAP}")


class _RowFault(DomainError):
    """Args (t, sizes): _from_cells found a repeated cell in constituent t."""


SlotSizes = Callable[[Triple], tuple[int, int, int]]
# (triple, its slot sizes, the cells of its edges coded by cell_code)
Block = tuple[Triple, tuple[int, int, int], list[int]]


def _pooled(pool: dict[tuple, Constituent], slots: tuple[int, int, int],
            codes: Sequence[int]) -> Constituent:
    """The constituent of the given slot sizes whose edges have the
    ascending cells that codes hands over (see cell_code): the one pool
    already holds for them, else a new one, added.  It is pooled, and
    built, by the sum of the codes when they are bits, else by the cells.
    A host builds all its constituents through one pool, so equal ones are
    one object."""
    row = sum(codes) if len(codes) >= least_masked(slots) else tuple(codes)
    con = pool.get((slots, row))
    if con is None:
        con = pool[(slots, row)] = Constituent(slots, row)
    return con


class ReducedHypergraph:
    """Immutable reduced hypergraph on indices 1..M.

    class_sizes must cover every pair {i,j}; constituents maps sorted
    triples to edge collections and may omit empty constituents.  The
    constructor reads each constituent's edges once, in input order, turns
    each into its cell (edge_cell) and words the first edge outside the
    class ranges or repeated as a DomainError; it hands the sorted cells,
    coded by cell_code, to _from_cells, the one statement of the other host
    rules.  The canonical-text parser (fileio) and random_box_dense hand
    their coded cells to it too.  It builds one Constituent (see there) per
    distinct (sizes, cells), whose edge set is built only when read.

    canonical_sha256 is the sha256 of this host's canonical text
    (fileio.write_host) when the parser already hashed it, else None.
    """

    def __init__(self, index_count: int,
                 class_sizes: Mapping[Pair, int],
                 constituents: Mapping[Triple, Iterable[Edge]]):
        def cells(slot_sizes: SlotSizes) -> Iterator[Block]:
            for t, edges in constituents.items():
                slots = slot_sizes(t)
                seen: set[int] = set()
                for e in edges:
                    if len(e) != 3:
                        raise DomainError(f"edge {e} of constituent {t} must have three vertices")
                    try:
                        x = edge_cell(slots, *e)
                    except ValueError:
                        raise DomainError(
                            f"edge {e} of constituent {t} out of class ranges {slots}") from None
                    if x in seen:
                        raise DomainError(f"duplicate edge {e} in constituent {t}")
                    seen.add(x)
                yield t, slots, list(map(cell_code(slots, len(seen)), sorted(seen)))

        try:
            host = self._from_cells(index_count, class_sizes, cells)
        except _RowFault as fault:  # the cells above are distinct
            t, slots = fault.args
            raise SelfCheckError(
                f"constituent {t} was refused by the host rules, but none of its edges "
                f"lies outside the class ranges {slots} or repeats") from None
        vars(self).update(vars(host))

    @classmethod
    def _from_cells(cls, m: int, class_sizes: Mapping[Pair, int],
                    blocks: Callable[[SlotSizes], Iterable[Block]]
                    ) -> "ReducedHypergraph":
        """The host on indices 1..m whose non-empty constituents come from
        blocks(slot_sizes): each as (triple, slots, codes), once, where
        slots = slot_sizes(t) and codes are the cells of its edges in
        ascending order, coded by cell_code(slots, len(codes)).  edge_cell,
        the cell rule, refuses an edge outside its classes before its cell
        is handed over.  slot_sizes(t) gives the class sizes of key t's
        three slots, refusing a bad key as below; blocks looks up each
        key's sizes through it, once, and is called only once the cap is
        checked.

        This states every other host rule, checked in this order: m >= 2;
        class_sizes names exactly the sorted pairs within 1..m, each of
        size >= 1; the tables fit under TABLE_ENTRY_CAP (CapExceeded, before
        any is allocated); then, block by block, the key is a sorted triple
        within 1..m (slot_sizes) and the cells are distinct, so no row
        repeats.  Faults raise DomainError; a repeated cell raises
        _RowFault.  The constructor hands over cells it has proven
        distinct, so there _RowFault means a defect of the program
        (SelfCheckError).  Triples with equal (sizes, cells) get one
        Constituent object.
        """
        if m < 2:
            raise DomainError(f"index_count must be >= 2, got {m}")
        sizes: dict[Pair, int] = {}
        for (i, j), s in class_sizes.items():
            if not (1 <= i < j <= m):
                raise DomainError(f"class pair ({i}, {j}) is not sorted within 1..{m}")
            if s < 1:
                raise DomainError(f"class P^{{{i},{j}}} must have size >= 1, got {s}")
            sizes[(i, j)] = int(s)
        for i, j in itertools.combinations(range(1, m + 1), 2):
            if (i, j) not in sizes:
                raise DomainError(f"missing class size for pair ({i}, {j})")
        check_table_size(m, sizes)

        cons: dict[Triple, Constituent | None] = dict.fromkeys(
            itertools.combinations(range(1, m + 1), 3))

        def slot_sizes(t: Triple) -> tuple[int, int, int]:
            if t not in cons:
                if len(t) != 3 or tuple(sorted(t)) != tuple(t):
                    raise DomainError(f"constituent key {t} must be a sorted triple")
                raise DomainError(f"constituent key {t} out of range 1..{m}")
            x, y, z = slot_pairs(t)
            return sizes[x], sizes[y], sizes[z]

        pool: dict[tuple, Constituent] = {}
        for t, slots, codes in blocks(slot_sizes):
            con = cons[t] = _pooled(pool, slots, codes)
            # a repeated cell sets no new bit: a repeated bit carries
            if con.edge_count() != len(codes):
                raise _RowFault(t, slots)
        for t, con in cons.items():
            if con is None:
                cons[t] = _pooled(pool, slot_sizes(t), ())
        return cls._assemble(m, sizes, cons)

    @classmethod
    def _assemble(cls, index_count: int, sizes: dict[Pair, int],
                  constituents: dict[Triple, Constituent]) -> "ReducedHypergraph":
        """A host from parts of a validated host; nothing is checked again."""
        host = cls.__new__(cls)
        host._m = index_count
        host._sizes = sizes
        host._constituents = constituents
        host.canonical_sha256 = None
        return host

    @property
    def index_count(self) -> int:
        return self._m

    def indices(self) -> range:
        return range(1, self._m + 1)

    def pairs(self) -> Iterator[Pair]:
        return itertools.combinations(range(1, self._m + 1), 2)

    def triples(self) -> Iterator[Triple]:
        return itertools.combinations(range(1, self._m + 1), 3)

    @property
    def constituents(self) -> Mapping[Triple, Constituent]:
        """Every constituent, keyed by its sorted index triple, in the
        order of triples()."""
        return self._constituents

    @property
    def class_sizes(self) -> Mapping[Pair, int]:
        """Every class size, keyed by its sorted index pair; read-only."""
        return MappingProxyType(self._sizes)

    def class_size(self, i: int, j: int) -> int:
        key = sorted_pair(i, j)
        if key not in self._sizes:
            raise DomainError(f"unknown class pair ({i}, {j})")
        return self._sizes[key]

    def constituent(self, t: Triple) -> Constituent:
        key = sorted_triple(*t)
        con = self._constituents.get(key)
        if con is None:
            raise DomainError(f"unknown index triple {t}")
        return con

    def edges(self, t: Triple) -> frozenset[Edge]:
        return self.constituent(t).edges

    def edge_count(self, t: Triple) -> int:
        return self.constituent(t).edge_count()

    def total_edge_count(self) -> int:
        return sum(c.edge_count() for c in self._constituents.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReducedHypergraph):
            return NotImplemented
        # equal class sizes give equal table layouts, and comp01 holds every edge
        return (self._m == other._m and self._sizes == other._sizes
                and {t: c.comp01 for t, c in self._constituents.items()}
                == {t: c.comp01 for t, c in other._constituents.items()})

    def __repr__(self) -> str:
        return (f"ReducedHypergraph(M={self._m}, "
                f"edges={self.total_edge_count()})")

    @classmethod
    def with_uniform_classes(cls, index_count: int, class_size: int,
                             constituents: Mapping[Triple, Iterable[Edge]]) -> "ReducedHypergraph":
        sizes = {p: class_size
                 for p in itertools.combinations(range(1, index_count + 1), 2)}
        return cls(index_count, sizes, constituents)

    def induced(self, index_map: Sequence[int]) -> "ReducedHypergraph":
        """Relabeled sub-hypergraph: new index p corresponds to index_map[p-1].

        index_map must be injective; it need not be monotone, so this also
        implements order-reversing relabelings.  Class vertices keep their
        numbering.  A triple whose image keeps its index order shares the
        old Constituent object.  Every other triple gets its edges permuted
        into the new slot order, as cells of the new slot sizes, and these
        new constituents share objects by (sizes, cells) as _from_cells
        does.  A new one is not matched against the kept ones, so when the
        map keeps the order of some triples and not others, a kept and a
        new object may be equal.
        """
        if len(set(index_map)) != len(index_map):
            raise DomainError("index_map must be injective")
        for o in index_map:
            if not (1 <= o <= self._m):
                raise DomainError(f"index {o} out of range 1..{self._m}")
        t_new = len(index_map)
        new_sizes = {}
        for x in range(1, t_new + 1):
            for y in range(x + 1, t_new + 1):
                new_sizes[(x, y)] = self._sizes[sorted_pair(index_map[x - 1], index_map[y - 1])]
        new_cons: dict[Triple, Constituent] = {}
        permuted: dict[tuple[Constituent, tuple[int, ...]], Constituent] = {}
        pool: dict[tuple, Constituent] = {}
        for x, y, z in itertools.combinations(range(1, t_new + 1), 3):
            ox, oy, oz = index_map[x - 1], index_map[y - 1], index_map[z - 1]
            if ox < oy < oz:
                new_cons[(x, y, z)] = self._constituents[(ox, oy, oz)]
                continue
            o = sorted_triple(ox, oy, oz)
            old = self._constituents[o]
            sel = tuple(slot_pairs(o).index(sorted_pair(index_map[p - 1], index_map[q - 1]))
                        for p, q in slot_pairs((x, y, z)))
            con = permuted.get((old, sel))
            if con is None:
                p0, p1, p2 = sel
                slots = (old.sizes[p0], old.sizes[p1], old.sizes[p2])
                cells = sorted(edge_cell(slots, e[p0], e[p1], e[p2]) for e in old.sorted_edges())
                con = permuted[(old, sel)] = _pooled(pool, slots,
                                                     list(map(cell_code(slots, len(cells)), cells)))
            new_cons[(x, y, z)] = con
        return ReducedHypergraph._assemble(t_new, new_sizes, new_cons)


def constituent_density(host: ReducedHypergraph, triple: Triple) -> Fraction:
    """Edge count of the constituent over the product of its class sizes."""
    con = host.constituent(triple)
    s0, s1, s2 = con.sizes
    return Fraction(con.edge_count(), s0 * s1 * s2)


def is_box_dense(host: ReducedHypergraph, d) -> tuple[bool, Triple | None]:
    """Whether every constituent has density >= d.

    Returns (True, None), or (False, t) with t the lexicographically least
    violating triple.  A float d is refused (DomainError).
    """
    d = exact_rational(d, "density threshold")
    if not (0 <= d <= 1):
        raise DomainError(f"density threshold must lie in [0, 1], got {d}")
    for t in host.triples():
        if constituent_density(host, t) < d:
            return False, t
    return True, None


class Pattern:
    """A small 3-graph used as an embedding target.

    Vertices are 1..vertex_count; edges are sorted triples; the shadow is
    the derived set of pairs obtained by deleting one vertex from an edge.
    """

    def __init__(self, vertex_count: int, edges: Iterable[Edge],
                 name: str | None = None):
        self.edges: frozenset[Edge] = canonical_edges(vertex_count, edges, "pattern edge")
        self.vertex_count = vertex_count
        self.shadow: frozenset[Pair] = frozenset(  # pairs of sorted edges are sorted
            pair for e in self.edges for pair in itertools.combinations(e, 2))
        self.name = name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Pattern{tag}(v={self.vertex_count}, e={len(self.edges)})"


def blow_up(pattern: Pattern, t: int) -> Pattern:
    """Replace every vertex by t copies.

    Copy s of original u becomes vertex (u-1)*t + s + 1.  A triple of
    copies is an edge exactly when its originals are three distinct
    vertices forming an edge.  No command runs it; the tests build
    blown-up patterns with it (test_core's edge counts and shadows,
    test_embed's containment check).
    """
    if t < 1:
        raise DomainError(f"blow-up factor must be >= 1, got {t}")
    edges = []
    for u, v, w in pattern.edges:
        for su, sv, sw in itertools.product(range(t), repeat=3):
            edges.append(((u - 1) * t + su + 1,
                          (v - 1) * t + sv + 1,
                          (w - 1) * t + sw + 1))
    name = f"{pattern.name}({t})" if pattern.name else None
    return Pattern(pattern.vertex_count * t, edges, name=name)


_CATALOG: dict[str, tuple[int, tuple[Edge, ...]]] = {
    # Four-vertex cliques and near-cliques, apex of K4minus at vertex 1,
    # plus the five-vertex target whose fifth vertex has a matching link.
    "Fstar": (5, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 5), (3, 4, 5))),
    "K4minus": (4, ((1, 2, 3), (1, 2, 4), (1, 3, 4))),
    "K4": (4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))),
    "single_edge": (3, ((1, 2, 3),)),
}


def pattern_catalog(name: str) -> Pattern:
    """Return a named fixed pattern: Fstar, K4minus, K4, or single_edge."""
    entry = _CATALOG.get(name)
    if entry is None:
        raise DomainError(
            f"unknown pattern name {name!r}; known: {', '.join(sorted(_CATALOG))}")
    n, edges = entry
    return Pattern(n, edges, name=name)


@dataclass(frozen=True)
class ReducedMap:
    """A candidate reduced map: lam sends pattern vertices to indices;
    phi sends shadow pairs to (class pair, vertex) references."""

    lam: Mapping[int, int]
    phi: Mapping[Pair, tuple[Pair, int]]
