"""Glued-configuration search: an all-pairs row preparation and a finder
for a four-index structure made of a near-complete reduced image plus a
fourth constituent edge sharing one vertex.

The configuration lives on indices i1, i2, i3, i4 with vertices
alpha_{jk} in P^{i_j i_k} plus two extra vertices alpha'_{23}, alpha'_{24},
and requires the four constituent edges, each read in core.slot_pairs
order by _claim:

    a13 a14 a34,   a12 a13 a23,   a12 a14 a24,   a'23 a'24 a34.

Row preparation here is stronger than the pipeline's: the spine z_k must
admit, for EVERY pair j < k of surviving non-top columns, some y in P^{rj}
making x z_k y a triangle.  Spines are chosen from the largest remaining
column downward; a spine linked to none of the columns that remain is
flagged degenerate.

The finder runs on the pipeline's row driver, `pipeline.run_rows`, with
this module's row preparation and a pigeonhole over two projections;
every stage failure is the driver's.  The row record and the result
extend the pipeline's `Row` and `RowRun`, and each spine step counts
triangle links with the pipeline's `linked`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ._bits import iter_bits, least_bit
from .core import (DEFAULT_ORACLE_CAP, ReducedHypergraph, refuse_above_cap,
                   refuse_negative_cap, slot_pairs, sorted_pair, sorted_triple)
from .errors import CapExceeded, DomainError, RowPreparationError, SelfCheckError
from .pipeline import (Row, RowRun, completion_vertex, linked, max_count_least_arg,
                       row_working_set, run_rows, select_apex, validate_clean_fields)
from .qsystem import QGraphSystem

ROLE_PAIRS = frozenset(itertools.combinations(range(1, 5), 2))
# The role triples of the four claimed edges; the last takes the primed vertices.
_CLAIMED_ROLES = ((1, 3, 4), (1, 2, 3), (1, 2, 4), (2, 3, 4))


@dataclass(frozen=True)
class GlueConfig:
    """Thresholds for the glued-configuration pipeline.

    ladder lists, per row, how many spine columns to secure; it must be
    strictly decreasing.  The asymptotic relation between consecutive
    ladder entries is not enforced; each row records its entry and the
    spine columns it secured in GlueRowRecord.target and .achieved, which
    no command prints.
    """

    eps: Fraction
    delta: Fraction
    ladder: tuple[int, ...]
    ramsey_target_1: int
    ramsey_target_2: int
    min_final_indices: int = 3

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "ladder", tuple(int(x) for x in self.ladder))
        if not self.ladder:
            raise DomainError("ladder must have at least one entry")
        if any(x < 1 for x in self.ladder):
            raise DomainError(f"ladder entries must be >= 1, got {self.ladder}")
        if any(a <= b for a, b in zip(self.ladder, self.ladder[1:])):
            raise DomainError(f"ladder must be strictly decreasing, got {self.ladder}")
        validate_clean_fields(self)


@dataclass(frozen=True)
class GlueRowRecord(Row):
    """One all-pairs row: spine[k] = z_k; witnesses[(j, k)] = y making
    x z_k y a triangle, present for every pair j < k of surviving
    non-top columns; degenerate lists spines picked arbitrarily."""

    witnesses: dict[tuple[int, int], int]
    degenerate: tuple[int, ...]
    target: int
    achieved: int


@dataclass(frozen=True)
class GluedConfiguration:
    """indices = (i1, i2, i3, i4) role labels, not necessarily sorted;
    alpha maps role pairs to class vertices; the primed vertices give a
    second, partly independent edge through alpha[(3, 4)]."""

    indices: tuple[int, int, int, int]
    alpha: dict[tuple[int, int], int]
    alpha23_prime: int
    alpha24_prime: int

    def class_of(self, j: int, k: int) -> tuple[int, int]:
        return sorted_pair(self.indices[j - 1], self.indices[k - 1])


@dataclass
class GlueResult(RowRun):
    configuration: GluedConfiguration | None = None


def _claim(indices: Sequence[int], roles: tuple[int, int, int], alpha: dict[tuple[int, int], int]
           ) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The (triple, edge) constituent membership claimed on a role triple:
    alpha maps each of its role pairs to a vertex of that pair's class."""
    t = sorted_triple(*(indices[r - 1] for r in roles))
    by_class = {sorted_pair(indices[j - 1], indices[k - 1]): alpha[(j, k)]
                for j, k in itertools.combinations(roles, 2)}
    return t, tuple(map(by_class.__getitem__, slot_pairs(t)))


def _config_edges(host: ReducedHypergraph, cfg: GluedConfiguration):
    """The four (triple, edge) constituent memberships the configuration claims."""
    primed = {**cfg.alpha, (2, 3): cfg.alpha23_prime, (2, 4): cfg.alpha24_prime}
    return [_claim(cfg.indices, roles, primed if roles == (2, 3, 4) else cfg.alpha)
            for roles in _CLAIMED_ROLES]


def validate_glued(host: ReducedHypergraph,
                   cfg: GluedConfiguration) -> tuple[bool, str | None]:
    """Check the four constituent-edge memberships by direct lookup."""
    if set(cfg.alpha) != ROLE_PAIRS:
        raise DomainError(f"alpha must name exactly the role pairs {sorted(ROLE_PAIRS)}, "
                          f"got {sorted(cfg.alpha)}")
    if len(cfg.indices) != 4:
        raise DomainError(f"indices must name four roles, got {cfg.indices}")
    i1, i2, i3, i4 = cfg.indices
    if len({i1, i2, i3, i4}) != 4:
        return False, f"indices {cfg.indices} are not distinct"
    for idx in cfg.indices:
        if not (1 <= idx <= host.index_count):
            raise DomainError(f"index {idx} outside host range")
    for (j, k), vert in sorted(cfg.alpha.items()):
        cls = cfg.class_of(j, k)
        if not (0 <= vert < host.class_size(*cls)):
            raise DomainError(f"alpha({j},{k}) = {vert} outside class P^{cls}")
    for vert, cls in ((cfg.alpha23_prime, cfg.class_of(2, 3)),
                      (cfg.alpha24_prime, cfg.class_of(2, 4))):
        if not (0 <= vert < host.class_size(*cls)):
            raise DomainError(f"primed vertex {vert} outside class P^{cls}")
    for t, edge in _config_edges(host, cfg):
        if not host.constituent(t).has(*edge):
            return False, f"missing edge {edge} in constituent A^{t}"
    return True, None


def prepare_row_glue(system: QGraphSystem, working: Sequence[int],
                     m2_target: int, round_index: int = 1) -> GlueRowRecord:
    """Prepare one all-pairs row on the working index set, top its largest
    index, securing m2_target spine columns.

    Columns are taken largest-first; each spine choice pigeonholes the
    remaining candidates.  Structured failures name the step that broke;
    a spine linked to none of the columns that remain, or taken as vertex
    0 because the apex has no neighbour in its column, keeps no column and
    is flagged degenerate.  On success the all-pairs triangle property is
    re-verified pairwise by direct lookups.  Each pair j < k of kept
    columns has a witness: k's step keeps only columns j with one.
    """
    working = row_working_set(system, working, "prepare_row_glue")
    if m2_target < 1:
        raise DomainError(f"m2_target must be >= 1, got {m2_target}")
    r, top = working[0], working[-1]
    apex, a_sets = select_apex(system, working)
    i_prime = list(a_sets)

    chosen: list[int] = []
    spine: dict[int, int] = {}
    degenerate: list[int] = []
    candidates = list(i_prime)
    for step in range(1, m2_target + 1):
        if not candidates:
            raise RowPreparationError(
                f"spine-step-{step}",
                f"no candidate columns remain (secured {len(chosen)} of {m2_target})")
        k = max(candidates)
        candidates.remove(k)
        a_k = a_sets[k]
        others = list(candidates)  # all smaller than k, which was the maximum
        d_bits = [linked(system.q_low[(r, j, k)].right_adj, a_k, a_sets[j])
                  for j in others]  # left P^{rj}, right P^{rk}
        # z_k: the apex's neighbour in P^{rk} with triangle links into the
        # most other columns, least among ties.  A step that links none while
        # other columns remain, or finds a_k empty (z_k = 0), is degenerate.
        count, z_k = max_count_least_arg(list(iter_bits(a_k)), d_bits) if a_k else (0, 0)
        if count == 0 and (others or not a_k):
            degenerate.append(k)
        chosen.append(k)
        spine[k] = z_k
        candidates = [j for j, bits in zip(others, d_bits) if bits >> z_k & 1]

    surviving = sorted(chosen + [top])
    witnesses: dict[tuple[int, int], int] = {}
    non_top = [j for j in surviving if j != top]
    for j, k in itertools.combinations(non_top, 2):
        link_jk = system.q_low[(r, j, k)]       # left P^{rj}, right P^{rk}
        witnesses[(j, k)] = least_bit(link_jk.right_adj[spine[k]] & a_sets[j])
    record = GlueRowRecord(
        index=round_index, row_index=r, source=tuple(working),
        surviving=tuple(surviving), r_next=min(surviving), apex=apex,
        spine=spine, witnesses=witnesses, degenerate=tuple(degenerate),
        apex_hits=len(i_prime), target=m2_target, achieved=len(chosen))
    _verify_row_glue(system, record)
    return record


def _verify_row_glue(system: QGraphSystem, row: GlueRowRecord) -> None:
    """The witnessed triangles must exist by direct adjacency lookups."""
    r, top, x = row.row_index, row.source[-1], row.apex
    for (j, k), y in row.witnesses.items():
        if not system.q_low[(r, j, top)].has(y, x):
            raise SelfCheckError(f"row {row.index}: apex edge missing at column {j}")
        if not system.q_low[(r, k, top)].has(row.spine[k], x):
            raise SelfCheckError(f"row {row.index}: apex edge missing at column {k}")
        if not system.q_low[(r, j, k)].has(y, row.spine[k]):
            raise SelfCheckError(f"row {row.index}: witness edge missing for ({j}, {k})")


def find_glued(host: ReducedHypergraph, config: GlueConfig) -> GlueResult:
    """Clean, run the ladder of all-pairs rows, pigeonhole two projections,
    and return a validated glued configuration or a structured failure."""
    result = GlueResult()
    ladder = config.ladder
    ran = run_rows(
        host, config, result, len(ladder),
        lambda system, working, t: prepare_row_glue(
            system, working, ladder[t - 1], round_index=t),
        lambda row: (f"row {row.index} r={row.row_index} x={row.apex} "
                     f"J={list(row.surviving)} degenerate={list(row.degenerate)}"),
        2)
    if ran is None:
        return result
    system, m_prime, v, covering = ran
    cfg_work = _assemble_glued(system, result.rows[covering[0]],
                               result.rows[covering[1]], m_prime, v)
    ok, why = validate_glued(system.host, cfg_work)
    if not ok:
        raise SelfCheckError(f"assembled configuration invalid on working host: {why}")
    back = system.to_original
    cfg = GluedConfiguration(
        indices=tuple(back[i - 1] for i in cfg_work.indices),
        alpha=dict(cfg_work.alpha),
        alpha23_prime=cfg_work.alpha23_prime,
        alpha24_prime=cfg_work.alpha24_prime)
    ok, why = validate_glued(host, cfg)
    if not ok:
        raise SelfCheckError(f"assembled configuration invalid on original host: {why}")
    result.ok = True
    result.configuration = cfg
    result.trace.append("configuration validated")
    return result


def _assemble_glued(system: QGraphSystem, row_i: GlueRowRecord,
                    row_j: GlueRowRecord, m_prime: int, v: int) -> GluedConfiguration:
    """The working-host configuration on rows i < j and the shared vertex v.
    Row i kept r_j and m' below top, and m' > r_j = min of row j's source,
    so row i witnesses (r_j, m')."""
    top = system.host.index_count
    r_i, r_j = row_i.row_index, row_j.row_index
    x_i, z_im = row_i.apex, row_i.spine[m_prime]
    pair = (r_j, m_prime)
    if pair not in row_i.witnesses:
        raise SelfCheckError(f"row {row_i.index} has no triangle witness for pair {pair}")
    y = row_i.witnesses[pair]
    u1 = completion_vertex(system, (r_i, r_j, top), y, x_i, "apex-witness")
    u2 = completion_vertex(system, (r_i, r_j, m_prime), y, z_im, "spine-witness")
    return GluedConfiguration(
        indices=(r_i, r_j, top, m_prime),
        alpha={(1, 2): y, (1, 3): x_i, (1, 4): z_im,
               (2, 3): u1, (2, 4): u2, (3, 4): v},
        alpha23_prime=row_j.apex, alpha24_prime=row_j.spine[m_prime])


def _role_class_sizes(host: ReducedHypergraph,
                      roles: tuple[int, int, int, int]) -> dict[tuple[int, int], int]:
    """The size of each role pair's class."""
    return {(j, k): host.class_size(roles[j - 1], roles[k - 1]) for j, k in ROLE_PAIRS}


def _role_assignments(subset: tuple[int, int, int, int]):
    """All role assignments up to the 3<->4 symmetry: ordered (i1, i2),
    remaining pair ascending as (i3, i4)."""
    for i1, i2 in itertools.permutations(subset, 2):
        rest = sorted(x for x in subset if x not in (i1, i2))
        yield (i1, i2, rest[0], rest[1])


def brute_force_glued(host: ReducedHypergraph,
                      cap: int = DEFAULT_ORACLE_CAP,
                      count_all: bool = True) -> tuple[bool, int]:
    """Enumerate glued configurations naively.

    Counts distinct certificates, a certificate being the set of four
    (triple, edge) memberships; the 3<->4 role symmetry therefore counts
    once, and on a complete host with singleton classes each index
    4-subset contributes exactly one certificate.  Refuses above cap
    (CapExceeded), and a negative cap (DomainError).  Counting keeps up to
    one certificate per configuration, so it also refuses a space above
    core.TABLE_ENTRY_CAP (CapExceeded), before the first configuration.
    """
    refuse_negative_cap(cap)
    total_space = 0
    subsets = list(itertools.combinations(host.indices(), 4))
    for subset in subsets:
        size = {pair: host.class_size(*pair) for pair in itertools.combinations(subset, 2)}
        volume = math.prod(size.values())
        # The primed 23 and 24 count i2's classes toward i3 and i4 twice.  Each
        # index is i2 for three role assignments, one per choice of i1 among
        # the other three, which leaves i3 and i4 as the remaining two.
        for i2 in subset:
            x, y, z = (size[sorted_pair(i2, i)] for i in subset if i != i2)
            total_space += volume * (x * y + x * z + y * z)
        if total_space > cap:
            raise CapExceeded(f"glued enumeration space exceeds cap {cap}")
    if count_all:
        refuse_above_cap(total_space, "counting glued certificates")

    found = False
    certificates: set[frozenset] = set()
    for subset in subsets:
        for roles in _role_assignments(subset):
            for cfg in _enumerate_configs(host, roles):
                found = True
                if not count_all:
                    return True, 1
                certificates.add(frozenset(_config_edges(host, cfg)))
    return found, len(certificates)


def _enumerate_configs(host: ReducedHypergraph,
                       roles: tuple[int, int, int, int]) -> Iterable[GluedConfiguration]:
    size = _role_class_sizes(host, roles)

    def member(role_triple, alpha) -> bool:
        t, edge = _claim(roles, role_triple, alpha)
        return host.constituent(t).has(*edge)

    for a12 in range(size[(1, 2)]):
        for a13 in range(size[(1, 3)]):
            for a23 in range(size[(2, 3)]):
                if not member((1, 2, 3), {(1, 2): a12, (1, 3): a13, (2, 3): a23}):
                    continue
                for a14 in range(size[(1, 4)]):
                    for a24 in range(size[(2, 4)]):
                        if not member((1, 2, 4), {(1, 2): a12, (1, 4): a14, (2, 4): a24}):
                            continue
                        for a34 in range(size[(3, 4)]):
                            if not member((1, 3, 4), {(1, 3): a13, (1, 4): a14, (3, 4): a34}):
                                continue
                            for p23 in range(size[(2, 3)]):
                                for p24 in range(size[(2, 4)]):
                                    if member((2, 3, 4), {(2, 3): p23, (2, 4): p24, (3, 4): a34}):
                                        yield GluedConfiguration(
                                            indices=roles,
                                            alpha={(1, 2): a12, (1, 3): a13,
                                                   (1, 4): a14, (2, 3): a23,
                                                   (2, 4): a24, (3, 4): a34},
                                            alpha23_prime=p23,
                                            alpha24_prime=p24)
