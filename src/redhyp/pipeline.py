"""Row-preparation pipeline: clean the host, iterate rows, pigeonhole the
projections, and assemble a verified reduced image of the five-vertex
target pattern.

One row picks, inside the working index set I with smallest element r and
top element m, an apex x in P^{rm} lying in many S-sets, a connector y in
P^{rr'} covered by many triangle projections, and spine vertices z_j so
that every x z_j y is a triangle in the union of r's low Q-graphs.  Each
row shrinks I; after all rounds, each row contributes an edge whose
completion set projects into P^{m'm}, and a vertex covered by three of
those sets stitches the rows into the final map.

`run_rows` is the row driver this finder and glue's share: clean, one row
per round through a caller's preparation, the final index set, m', the
projections into P^{m'm} and the pigeonhole.  Both row preparations
start with `row_working_set`, the input guard, and `select_apex`, and
count triangle links with `linked`.  Their records extend `Row`, what
the driver reads, and their results `RowRun`, what it fills in.

Every tie is broken lexicographic-least among maximizers, so runs are
deterministic.  Stage failures are structured results from `clean` and
`run_rows` only; a failure past the row stages is a SelfCheckError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from ._bits import iter_bits, least_bit
from .core import ReducedHypergraph, ReducedMap, Triple, pattern_catalog, sorted_pair
from .embed import EmbedCertificate, validate_reduced_map
from .errors import DomainError, RowPreparationError, SelfCheckError
from .qsystem import CleanResult, QGraphSystem, StageFailure, clean


def validate_clean_fields(config, rounds: int | None = None) -> None:
    """Check the fields that `clean` and `run_rows` read: eps and delta
    (already Fractions), min_final_indices, the two Ramsey targets, and
    rounds when one is given.  PipelineConfig and GlueConfig both call it."""
    if not (0 < config.eps < 1):
        raise DomainError(f"eps must lie in (0, 1), got {config.eps}")
    if not (0 < config.delta < config.eps):
        raise DomainError(
            f"delta must lie in (0, eps), got delta={config.delta}, eps={config.eps}")
    if config.min_final_indices < 3:
        raise DomainError(
            f"min_final_indices must be >= 3, got {config.min_final_indices}")
    if rounds is not None and rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if config.ramsey_target_2 < config.min_final_indices:
        raise DomainError(
            f"ramsey_target_2 must be >= min_final_indices "
            f"({config.min_final_indices}), got {config.ramsey_target_2}")
    if config.ramsey_target_1 < config.ramsey_target_2:
        raise DomainError(
            f"ramsey_target_1 ({config.ramsey_target_1}) must be >= "
            f"ramsey_target_2 ({config.ramsey_target_2})")


@dataclass(frozen=True)
class PipelineConfig:
    """Explicit desk-scale thresholds; every quantity is a named parameter.

    rounds defaults to ceil(2 / eps^2) + 1; the two Ramsey targets default
    to the host's full index count when the caller leaves them at 0 (the
    CLI fills them in from the host).  The paper's size bounds are not
    enforced: RowRecord.meets_delta_bound and
    ProjectionRecord.meets_eps_bound record whether each row and
    projection met them, and no command prints them.
    """

    eps: Fraction
    delta: Fraction
    ramsey_target_1: int
    ramsey_target_2: int
    rounds: int | None = None
    min_final_indices: int = 3

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "delta", Fraction(self.delta))
        validate_clean_fields(self, self.rounds)

    @property
    def effective_rounds(self) -> int:
        if self.rounds is not None:
            return self.rounds
        return math.ceil(2 / (self.eps * self.eps)) + 1


@dataclass(frozen=True)
class Row:
    """What every prepared row carries: round index, row_index r = min of
    the source set, r_next = min of the surviving set, the apex x in
    P^{r top} lying in apex_hits S-sets, and spine, mapping surviving
    columns j to vertices z_j in P^{rj}."""

    index: int
    row_index: int
    source: tuple[int, ...]
    surviving: tuple[int, ...]
    r_next: int
    apex: int
    spine: dict[int, int]
    apex_hits: int


@dataclass(frozen=True)
class RowRecord(Row):
    """One prepared pipeline row: the spine covers each surviving j other
    than r_next and the top index, with x z_j y a triangle through the
    connector y in P^{r r_next}."""

    connector: int
    connector_hits: int
    meets_delta_bound: bool


@dataclass(frozen=True)
class ProjectionRecord:
    row: int
    edge: tuple[int, int]          # (apex, spine vertex at m')
    m_prime: int
    members: tuple[int, ...]
    meets_eps_bound: bool


@dataclass
class RowRun:
    """The fields `run_rows` fills in as it goes; each finder's result
    extends it with what the finder assembles."""

    ok: bool = False
    failure: StageFailure | None = None
    clean: CleanResult | None = None
    rows: list[Row] = field(default_factory=list)
    projections: list[ProjectionRecord] = field(default_factory=list)
    pigeonhole: dict | None = None
    trace: list[str] = field(default_factory=list)


@dataclass
class PipelineResult(RowRun):
    certificate: EmbedCertificate | None = None


def max_count_least_arg(universe: Sequence[int], bitsets: Sequence[int]) -> tuple[int, int]:
    """(best count, least element achieving it) of membership counts.

    universe holds candidate bit positions; bitsets are the sets counted.
    """
    best_v = -1
    best_count = -1
    for v in universe:
        c = sum(bits >> v & 1 for bits in bitsets)
        if c > best_count:
            best_count = c
            best_v = v
    return best_count, best_v


def linked(adj: Sequence[int], candidates: int, target: int) -> int:
    """The candidates v, as a bitset, whose adj[v] meets target: with adj
    a link Q-graph's adjacency, those triangle-linked into target."""
    return sum(1 << v for v in iter_bits(candidates) if adj[v] & target)


def select_apex(system: QGraphSystem, working: Sequence[int],
                top: int) -> tuple[int, dict[int, int]]:
    """The row's apex and its neighbourhoods in the columns that keep it.

    working is sorted with r = working[0]; the apex is the P^{r top} vertex
    lying in the most S^r_{j,top}(r_star) over the middle columns j.  The
    returned dict maps each column whose S-set holds the apex, ascending,
    to the apex's neighbourhood in the low Q-graph of (r, j, top).
    """
    r = working[0]
    middle = [j for j in working if j not in (r, top)]
    member_bits = []
    for j in middle:
        bits = 0
        for x in system.s_set((r, j, top), system.r_star):
            bits |= 1 << x
        member_bits.append(bits)
    hit_count, apex = max_count_least_arg(range(system.host.class_size(r, top)),
                                          member_bits)
    if hit_count <= 0:
        raise RowPreparationError(
            "apex-pigeonhole", "no apex vertex lies in any S-set of the row")
    return apex, {j: system.q_low[(r, j, top)].right_adj[apex]
                  for j, bits in zip(middle, member_bits) if bits >> apex & 1}


def row_working_set(system: QGraphSystem, working: Sequence[int], top: int,
                    caller: str) -> list[int]:
    """Sorted distinct working indices; DomainError unless the system is
    cleaned (caller names the preparation), >= 3 indices, top the maximum."""
    if system.r_star is None or system.delta is None or system.s_sets is None:
        raise DomainError(f"{caller} needs a cleaned QGraphSystem")
    working = sorted(set(working))
    if len(working) < 3:
        raise DomainError(f"index set must have >= 3 elements, got {working}")
    if top != working[-1]:
        raise DomainError(f"top index {top} must be the maximum of {working}")
    return working


def prepare_row(system: QGraphSystem, working: Sequence[int], top: int,
                round_index: int = 1) -> RowRecord:
    """Prepare one row inside the cleaned system.

    The paper's |I| > 2 / delta^2 is not required; whether the row keeps
    delta^2 |I| columns is recorded in RowRecord.meets_delta_bound.
    Failures of the two pigeonhole steps raise RowPreparationError naming
    the step; a cleaned system never fails the connector step, as the apex
    lies in S^r_{r_next,top}.  Each column the connector keeps has a spine
    vertex.
    """
    working = row_working_set(system, working, top, "prepare_row")
    delta = system.delta
    r = working[0]
    apex, a_sets = select_apex(system, working, top)
    i_prime = list(a_sets)

    r_next = i_prime[0]
    a_rnext = a_sets[r_next]
    if a_rnext == 0:
        raise RowPreparationError(
            "connector-pigeonhole", "apex has no neighbours in the connector class")

    # Connector: the P^{r r_next} vertex triangle-linked to the most columns.
    d_bits = [linked(system.q_low[(r, r_next, j)].left_adj, a_rnext, a_sets[j])
              for j in i_prime[1:]]  # left P^{r r_next}, right P^{rj}
    conn_hits, connector = max_count_least_arg(list(iter_bits(a_rnext)), d_bits)
    i_dprime = [j for j, bits in zip(i_prime[1:], d_bits) if bits >> connector & 1]

    surviving = sorted(i_dprime + [r_next, top])
    spine = {j: least_bit(system.q_low[(r, r_next, j)].left_adj[connector] & a_sets[j])
             for j in i_dprime}

    record = RowRecord(
        index=round_index, row_index=r, source=tuple(working),
        surviving=tuple(surviving), r_next=r_next, apex=apex,
        connector=connector, spine=spine, apex_hits=len(i_prime),
        connector_hits=len(i_dprime),
        meets_delta_bound=Fraction(len(surviving)) >= delta * delta * len(working))
    _verify_row(system, record, top)
    return record


def _verify_row(system: QGraphSystem, row: RowRecord, top: int) -> None:
    """Every reported triangle must exist by direct adjacency lookups."""
    r, x, y = row.row_index, row.apex, row.connector
    rn = row.r_next
    if not system.q_low[(r, rn, top)].has(y, x):
        raise SelfCheckError(f"row {row.index}: apex-connector edge missing")
    for j, z in row.spine.items():
        if not system.q_low[(r, j, top)].has(z, x):
            raise SelfCheckError(f"row {row.index}: apex-spine edge missing at {j}")
        if not system.q_low[(r, rn, j)].has(y, z):
            raise SelfCheckError(f"row {row.index}: connector-spine edge missing at {j}")


def projection_set(system: QGraphSystem, row: Row, m_prime: int,
                   top: int) -> ProjectionRecord:
    """Completions in P^{m' top} of the row's (apex, spine at m') edge."""
    if m_prime not in row.spine:
        raise DomainError(f"row {row.index} has no spine vertex at {m_prime}")
    r = row.row_index
    z = row.spine[m_prime]
    con = system.host.constituent((r, m_prime, top))
    bits = con.comp01[z * con.sizes[1] + row.apex]
    members = tuple(iter_bits(bits))
    size = system.host.class_size(m_prime, top)
    meets = Fraction(len(members)) >= system.eps * system.eps * size
    return ProjectionRecord(row=row.index, edge=(row.apex, z), m_prime=m_prime,
                            members=members, meets_eps_bound=meets)


def covered_vertex(universe_size: int, member_lists: Sequence[Sequence[int]],
                   multiplicity: int) -> tuple[int, list[int]] | None:
    """Least vertex covered by the most member lists, requiring at least
    `multiplicity` of them; returns (vertex, covering list indices)."""
    counts = [0] * universe_size
    for members in member_lists:
        for v in members:
            counts[v] += 1
    best = max(counts, default=0)
    if best < multiplicity:
        return None
    v = counts.index(best)
    rows = [i for i, members in enumerate(member_lists) if v in members]
    return v, rows


_IN_WORDS = {2: "two", 3: "three"}


def run_rows(host: ReducedHypergraph, config, result: RowRun, rounds: int,
             prepare: Callable[..., Row], describe: Callable[[Row], str],
             multiplicity: int) -> tuple[QGraphSystem, int, int, list[int]] | None:
    """The row driver shared by find_fstar and find_glued.

    Cleans the host, prepares rows 1..rounds with prepare(system, working,
    top, t), each on the row before's surviving indices and traced by
    describe(row), checks the final index set, takes m' as its largest
    index below top, projects each row's (apex, spine at m') edge into
    P^{m' top}, and pigeonholes a vertex v covered by `multiplicity`
    projections.  result takes the clean result, rows, projections (all or
    none), pigeonhole and trace lines as they are made.  Returns (system,
    m', v, 0-based covering row positions), or None once `clean`, `row-t`, `final-index-set` or
    `pigeonhole` failed, with result.failure and a `fail <stage>` line.

    A row's spine covers its surviving set, and so the final set, except
    top and its r_next: the next row's index or the final set's least of
    3 or more.  So a row without a spine vertex at m' is a SelfCheckError.
    """
    trace = result.trace

    def failed(failure: StageFailure) -> None:
        result.failure = failure
        trace.append(f"fail {failure.stage}")

    cleaned = result.clean = clean(host, config)
    trace.extend(f"clean {line}" for line in cleaned.log)
    if not cleaned.ok:
        return failed(cleaned.failure)
    system = cleaned.system
    top = system.host.index_count

    current = list(range(1, top + 1))
    for t in range(1, rounds + 1):
        if len(current) < 3:
            return failed(StageFailure(f"row-{t}", f"index set exhausted: {current}"))
        try:
            row = prepare(system, current, top, t)
        except RowPreparationError as exc:
            return failed(StageFailure(f"row-{t}", f"{exc.step}: {exc.reason}"))
        result.rows.append(row)
        trace.append(describe(row))
        current = list(row.surviving)

    if len(current) < config.min_final_indices:
        return failed(StageFailure(
            "final-index-set",
            f"final set {current} smaller than {config.min_final_indices}"))
    m_prime = max(j for j in current if j != top)
    trace.append(f"m-prime {m_prime}")

    projections = []
    for row in result.rows:
        if m_prime not in row.spine:
            raise SelfCheckError(f"row {row.index} lacks a spine vertex at m'={m_prime}")
        proj = projection_set(system, row, m_prime, top)
        projections.append(proj)
        trace.append(f"projection {row.index} size={len(proj.members)}")
    result.projections = projections

    hit = covered_vertex(system.host.class_size(m_prime, top),
                         [p.members for p in projections], multiplicity)
    if hit is None:
        return failed(StageFailure(
            "pigeonhole",
            f"no completion vertex shared by {_IN_WORDS[multiplicity]} projections"))
    v, covering = hit
    rows_hit = [i + 1 for i in covering[:multiplicity]]
    trace.append(f"pigeonhole v={v} rows={rows_hit}")
    result.pigeonhole = {"vertex": v, "rows": tuple(rows_hit)}
    return system, m_prime, v, covering


def find_fstar(host: ReducedHypergraph, config: PipelineConfig) -> PipelineResult:
    """Clean, iterate rows, pigeonhole, and return a validated certificate
    embedding the five-vertex target Fstar, or a structured stage failure."""
    pattern = pattern_catalog("Fstar")
    result = PipelineResult()
    ran = run_rows(
        host, config, result, config.effective_rounds,
        prepare_row,
        lambda row: (f"row {row.index} r={row.row_index} x={row.apex} "
                     f"y={row.connector} next={row.r_next} "
                     f"J={list(row.surviving)}"),
        3)
    if ran is None:
        return result
    system, m_prime, v, covering = ran
    rmap_work = _assemble_map(system, result.rows, covering[0], covering[2], m_prime, v)
    ok, violation = validate_reduced_map(system.host, pattern, rmap_work)
    if not ok:
        raise SelfCheckError(f"assembled map fails validation on working host: {violation}")
    rmap = _unrelabel_map(system, rmap_work)
    ok, violation = validate_reduced_map(host, pattern, rmap)
    if not ok:
        raise SelfCheckError(f"assembled map fails validation on original host: {violation}")
    result.ok = True
    result.certificate = EmbedCertificate(rmap, pattern)
    result.trace.append("certificate validated")
    return result


def completion_vertex(system: QGraphSystem, t: Triple, va: int, vb: int,
                      what: str) -> int:
    """Least slot-2 completion of the slot-0/slot-1 pair (va, vb) in the
    constituent of t.  The assemblies ask only for verified low Q-graph
    edges, with ceil(eps^2 |P^{jk}|) >= 1 completions: none is a defect."""
    con = system.host.constituent(t)
    bits = con.comp01[va * con.sizes[1] + vb]
    if bits == 0:
        raise SelfCheckError(f"the {what} edge ({va}, {vb}) has no completion in A^{t}")
    return least_bit(bits)


def _assemble_map(system: QGraphSystem, rows: Sequence[RowRecord],
                  ri: int, rk: int, m_prime: int, v: int) -> ReducedMap:
    """Build the ten-vertex map from rows ri and rk (0-based positions).
    As rk >= ri + 2, row ri kept r_k, and r_k is neither top nor row ri's
    r_next (row ri + 1's index): row ri's spine has a vertex at r_k."""
    top = system.host.index_count
    row_i, row_k = rows[ri], rows[rk]
    r_i, r_ip1 = row_i.row_index, row_i.r_next
    r_k = row_k.row_index
    x_i, y_i = row_i.apex, row_i.connector
    z_im = row_i.spine[m_prime]
    if r_k not in row_i.spine:
        raise SelfCheckError(f"row {row_i.index} lacks a spine vertex at r_k={r_k}")
    z_irk = row_i.spine[r_k]
    x_k = row_k.apex
    z_km = row_k.spine[m_prime]

    u1 = completion_vertex(system, (r_i, r_ip1, top), y_i, x_i, "apex-connector")
    u2 = completion_vertex(system, (r_i, r_ip1, m_prime), y_i, z_im, "m'-spine-connector")
    u3 = completion_vertex(system, (r_i, r_ip1, r_k), y_i, z_irk, "r_k-spine-connector")

    lam = {1: r_i, 2: r_ip1, 3: top, 4: m_prime, 5: r_k}
    phi = {
        (1, 2): (sorted_pair(r_i, r_ip1), y_i),
        (1, 3): (sorted_pair(r_i, top), x_i),
        (1, 4): (sorted_pair(r_i, m_prime), z_im),
        (1, 5): (sorted_pair(r_i, r_k), z_irk),
        (2, 3): (sorted_pair(r_ip1, top), u1),
        (2, 4): (sorted_pair(r_ip1, m_prime), u2),
        (2, 5): (sorted_pair(r_ip1, r_k), u3),
        (3, 4): (sorted_pair(m_prime, top), v),
        (3, 5): (sorted_pair(r_k, top), x_k),
        (4, 5): (sorted_pair(r_k, m_prime), z_km),
    }
    return ReducedMap(lam=lam, phi=phi)


def _unrelabel_map(system: QGraphSystem, rmap: ReducedMap) -> ReducedMap:
    """Translate a working-host map back to original index labels.

    Class vertices keep their numbering; only index labels change.
    """
    back = system.to_original
    lam = {u: back[i - 1] for u, i in rmap.lam.items()}
    phi = {pair: (sorted_pair(back[i - 1], back[j - 1]), vert)
           for pair, ((i, j), vert) in rmap.phi.items()}
    return ReducedMap(lam=lam, phi=phi)
