"""Pipeline tests: row preparation, pigeonholes, and end-to-end soundness
of the five-vertex target search."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from redhyp import (DomainError, GlueConfig, PipelineConfig, ReducedHypergraph,
                    RowPreparationError, build_q_graphs, clean, embed, find_fstar,
                    glue, pattern_catalog, pipeline, prepare_row, prepare_row_glue,
                    qsystem, random_box_dense, validate_reduced_map)
from redhyp.cli import dispatch
from redhyp.constructions import orientation_reduced
from redhyp.embed import Violation
from redhyp.fileio import write_host
from redhyp.pipeline import covered_vertex, linked, projection_set
from redhyp.qsystem import BipartiteGraph


def cleaned_complete(m, p, eps=Fraction(1, 2), delta=Fraction(1, 4)):
    host = random_box_dense(m, p, 1, seed=0)
    config = PipelineConfig(eps=eps, delta=delta, ramsey_target_1=m,
                            ramsey_target_2=m)
    result = clean(host, config)
    assert result.ok
    return result.system, config


def cleaned_random(seed, m=12, p=6, d=Fraction(9, 10),
                   eps=Fraction(7, 10), delta=Fraction(1, 4),
                   target1=10, target2=8):
    host = random_box_dense(m, p, d, seed=seed)
    config = PipelineConfig(eps=eps, delta=delta, ramsey_target_1=target1,
                            ramsey_target_2=target2)
    return host, clean(host, config), config


def _triangles_through(system, i, j1, j2, k, x):
    """(y, z) in P^{ij2} x P^{ij1} forming a triangle with x in P^{ik}
    through the low Q-graphs, by direct adjacency lookups."""
    return [(y, z) for y in range(system.host.class_size(i, j2))
            for z in range(system.host.class_size(i, j1))
            if system.q_low[(i, j2, k)].has(y, x) and system.q_low[(i, j1, k)].has(z, x)
            and system.q_low[(i, j1, j2)].has(z, y)]


@pytest.mark.parametrize("make,complete", [
    (lambda: cleaned_complete(5, 3)[0], True),
    (lambda: cleaned_random(seed=2)[1].system, False),
], ids=["complete", "random"])
def test_shared_s_set_vertex_lies_in_delta_many_triangles(make, complete):
    # x in S^i_{j1 k}(r_star) and S^i_{j2 k}(r_star) of a cleaned system
    # lies in at least delta |P^{ij1}| |P^{ij2}| triangles, for every
    # i < j1 < j2 < k; in the complete host, in all of them.
    system = make()
    host, delta, r_star = system.host, system.delta, system.r_star
    shared = 0
    for i, j1, j2, k in itertools.combinations(range(1, host.index_count + 1), 4):
        for x in system.s_set((i, j1, k), r_star) & system.s_set((i, j2, k), r_star):
            shared += 1
            pairs = host.class_size(i, j1) * host.class_size(i, j2)
            count = len(_triangles_through(system, i, j1, j2, k, x))
            assert count == pairs if complete else count >= delta * pairs
    assert shared > 0


def test_prepare_row_complete_takes_everything():
    system, config = cleaned_complete(8, 2)
    working = list(range(1, 9))
    row = prepare_row(system, working, 8)
    assert row.surviving == tuple(range(2, 9))  # everything but the row index
    assert row.row_index == 1 and row.r_next == 2
    assert row.apex == 0 and row.connector == 0
    assert set(row.spine) == {3, 4, 5, 6, 7}


def test_prepare_row_runs_below_the_size_hypothesis():
    # |I| = 8 <= 2/(1/4)^2 = 32: the row runs and records its delta bound.
    system, config = cleaned_complete(8, 2)
    row = prepare_row(system, list(range(1, 9)), 8)
    assert isinstance(row.meets_delta_bound, bool)


def test_prepare_row_takes_the_round_index_fourth():
    # run_rows calls prepare(system, working, top, t) positionally.
    system, config = cleaned_complete(8, 2)
    assert prepare_row(system, list(range(1, 9)), 8).index == 1
    assert prepare_row(system, list(range(1, 9)), 8, 3).index == 3


def test_find_fstar_prepares_its_rows_through_the_module_name(monkeypatch):
    # find_fstar looks prepare_row up when it runs, so a wrapper installed
    # on the module (as perfbench's tracer installs one) sees every row.
    calls = []
    prepare = pipeline.prepare_row

    def recording(system, working, top, round_index):
        calls.append((tuple(working), top, round_index))
        return prepare(system, working, top, round_index)
    monkeypatch.setattr(pipeline, "prepare_row", recording)
    config = PipelineConfig(eps=Fraction(1, 2), delta=Fraction(1, 4),
                            ramsey_target_1=7, ramsey_target_2=7, rounds=4)
    result = find_fstar(random_box_dense(7, 2, 1, seed=0), config)
    assert result.ok
    assert calls == [(row.source, 7, row.index) for row in result.rows]
    assert [row.index for row in result.rows] == [1, 2, 3, 4]


def test_prepare_row_soundness_on_random_instance():
    host, result, _ = cleaned_random(seed=3)
    assert result.ok
    system = result.system
    m = system.host.index_count
    row = prepare_row(system, list(range(1, m + 1)), m)
    r = row.row_index
    for j, z in row.spine.items():
        assert system.q_low[(r, j, m)].has(z, row.apex)
        assert system.q_low[(r, row.r_next, j)].has(row.connector, z)
    assert system.q_low[(r, row.r_next, m)].has(row.connector, row.apex)


def test_prepare_row_fails_structured_on_empty_q():
    host = random_box_dense(6, 2, 0, seed=0)
    from redhyp import build_q_graphs, compute_s_sets
    system = build_q_graphs(host, Fraction(1, 2))
    system.delta = Fraction(1, 4)
    system.r_star = 1
    system.s_sets = compute_s_sets(host, system, Fraction(1, 4))
    with pytest.raises(RowPreparationError) as err:
        prepare_row(system, list(range(1, 7)), 6)
    assert err.value.step == "apex-pigeonhole"


def test_projection_set_members_are_completions():
    host, result, _ = cleaned_random(seed=4)
    assert result.ok
    system = result.system
    m = system.host.index_count
    row = prepare_row(system, list(range(1, m + 1)), m)
    m_prime = max(j for j in row.spine)
    proj = projection_set(system, row, m_prime, m)
    con = system.host.constituent((row.row_index, m_prime, m))
    for v in proj.members:
        assert con.has(row.spine[m_prime], row.apex, v)
    assert proj.meets_eps_bound


def test_projection_set_refuses_an_index_off_the_spine():
    host, result, _ = cleaned_random(seed=4)
    system = result.system
    m = system.host.index_count
    row = prepare_row(system, list(range(1, m + 1)), m)
    with pytest.raises(DomainError) as err:
        projection_set(system, row, row.r_next, m)  # r_next is never a spine index
    assert str(err.value) == f"row {row.index} has no spine vertex at {row.r_next}"


def test_covered_vertex_pigeonhole():
    # 5 subsets of size 5 in a ground set of size 10 force a triple cover.
    subsets = [tuple((i + j) % 10 for j in range(5)) for i in range(0, 10, 2)]
    hit = covered_vertex(10, subsets, 3)
    assert hit is not None
    v, rows = hit
    assert len(rows) >= 3
    assert all(v in subsets[r] for r in rows)
    assert covered_vertex(4, [(0,), (1,)], 2) is None


def test_find_fstar_complete_host():
    host = random_box_dense(30, 2, 1, seed=0)
    config = PipelineConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                            rounds=5, ramsey_target_1=30, ramsey_target_2=30)
    result = find_fstar(host, config)
    assert result.ok
    ok, violation = validate_reduced_map(host, pattern_catalog("Fstar"),
                                         result.certificate.rmap)
    assert ok, violation
    lams = result.certificate.rmap.lam
    assert len(set(lams.values())) == 5
    # pigeonhole member check: the chosen vertex lies in all three
    # covering projections
    v = result.pigeonhole["vertex"]
    chosen = set(result.pigeonhole["rows"])
    for proj in result.projections:
        if proj.row in chosen:
            assert v in proj.members


def test_find_fstar_orientation_fails_structured():
    host = orientation_reduced(6)
    config = PipelineConfig(eps=Fraction(1, 10), delta=Fraction(1, 20),
                            ramsey_target_1=5, ramsey_target_2=4)
    result = find_fstar(host, config)
    assert not result.ok
    assert result.failure.stage == "blue-verification"


def test_find_fstar_random_dense_hosts():
    for seed in range(4):
        host, cleaned, config = cleaned_random(seed=seed)
        full = PipelineConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                              rounds=5, ramsey_target_1=10, ramsey_target_2=8)
        result = find_fstar(host, full)
        if result.ok:
            ok, violation = validate_reduced_map(
                host, pattern_catalog("Fstar"), result.certificate.rmap)
            assert ok, violation
        else:
            assert result.failure.stage


def test_config_validation():
    with pytest.raises(DomainError):
        PipelineConfig(eps=Fraction(3, 2), delta=Fraction(1, 4),
                       ramsey_target_1=5, ramsey_target_2=4)
    with pytest.raises(DomainError):
        PipelineConfig(eps=Fraction(1, 2), delta=Fraction(1, 2),
                       ramsey_target_1=5, ramsey_target_2=4)
    with pytest.raises(DomainError):
        PipelineConfig(eps=Fraction(1, 2), delta=Fraction(1, 4),
                       ramsey_target_1=3, ramsey_target_2=4)
    with pytest.raises(DomainError):
        PipelineConfig(eps=Fraction(1, 2), delta=Fraction(1, 4),
                       ramsey_target_1=5, ramsey_target_2=4,
                       min_final_indices=2)
    with pytest.raises(DomainError) as err:
        PipelineConfig(eps=Fraction(1, 2), delta=Fraction(1, 4),
                       ramsey_target_1=5, ramsey_target_2=4, rounds=0)
    assert str(err.value) == "rounds must be >= 1, got 0"
    cfg = PipelineConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                         ramsey_target_1=5, ramsey_target_2=4)
    assert cfg.effective_rounds == 6  # ceil(2 / 0.49) + 1


def test_verify_star_fails_on_a_broken_link():
    # Empty the (1,2,3) constituent in an otherwise complete host: the
    # survival clauses for (1, 2, 3) necessarily fail.
    from redhyp import build_q_graphs, compute_s_sets
    from redhyp.qsystem import verify_star
    full = random_box_dense(4, 2, 1, seed=0)
    cons = {t: set(full.edges(t)) for t in full.triples()}
    del cons[(1, 2, 3)]
    host = ReducedHypergraph.with_uniform_classes(4, 2, cons)
    system = build_q_graphs(host, Fraction(1, 2))
    delta = Fraction(1, 4)
    s_sets = compute_s_sets(host, system, delta)
    assert verify_star(host, system, delta, s_sets, 1) is not None


# -- every stage a seeded host reaches, pinned ------------------------------
#
# Each case is a random_box_dense host and config, (M, class size, d, seed,
# eps, delta, ramsey_target_1, ramsey_target_2, rounds), then ok, the
# failure's (stage, reason), the trace, len(rows), len(projections) and the
# pigeonhole.  A failure past the row stages is a SelfCheckError instead
# (test_retired_row_sites_exit_4).

FSTAR_PINS = [
    ((5, 2, "1/2", 0, "1/10", "1/20", 5, 5, 2),
     False, ("ramsey-color", "no monochromatic index subset of size 5"),
     ["clean color1 blue=9 red=1",
      "fail ramsey-color"],
     0, 0, None),
    ((5, 2, "1/2", 0, "9/10", "1/2", 5, 5, 2),
     False, ("blue-verification", "triple (1, 2, 3) (original (5, 4, 3)) is not blue "
                                   "after relabeling; degree-product lhs=0"),
     ["clean color1 blue=0 red=10",
      "clean ramsey1 color=red subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean relabel reversed order for red subset",
      "fail blue-verification"],
     0, 0, None),
    ((8, 4, "3/4", 3, "3/5", "1/3", 8, 8, 2),
     False, ("ramsey-level", "no level-monochromatic index subset of size 8"),
     ["clean color1 blue=56 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5, 6, 7, 8] exhaustive=True",
      "clean levels min=0 max=1",
      "fail ramsey-level"],
     0, 0, None),
    ((5, 2, "1/2", 0, "1/10", "1/20", 4, 4, 2),
     False, ("row-2", "index set exhausted: [2, 4]"),
     ["clean color1 blue=9 red=1",
      "clean ramsey1 color=blue subset=[1, 2, 3, 5] exhaustive=True",
      "clean levels min=10 max=10",
      "clean ramsey2 r_star=10 subset=[1, 2, 3, 4] exhaustive=True",
      "clean surviving=[1, 2, 3, 5]",
      "row 1 r=1 x=0 y=0 next=2 J=[2, 4]",
      "fail row-2"],
     1, 0, None),
    ((5, 2, "1/2", 3, "1/2", "1/4", 5, 5, 4),
     False, ("row-4", "index set exhausted: [4, 5]"),
     ["clean color1 blue=10 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean levels min=2 max=2",
      "clean ramsey2 r_star=2 subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean surviving=[1, 2, 3, 4, 5]",
      "row 1 r=1 x=1 y=0 next=2 J=[2, 3, 4, 5]",
      "row 2 r=2 x=0 y=0 next=3 J=[3, 4, 5]",
      "row 3 r=3 x=0 y=0 next=4 J=[4, 5]",
      "fail row-4"],
     3, 0, None),
    ((5, 2, "1/2", 1, "1/2", "1/4", 5, 5, 2),
     False, ("final-index-set", "final set [4, 5] smaller than 3"),
     ["clean color1 blue=10 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean levels min=2 max=2",
      "clean ramsey2 r_star=2 subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean surviving=[1, 2, 3, 4, 5]",
      "row 1 r=1 x=0 y=0 next=3 J=[3, 4, 5]",
      "row 2 r=3 x=1 y=0 next=4 J=[4, 5]",
      "fail final-index-set"],
     2, 0, None),
    ((5, 2, "1/2", 3, "7/10", "1/4", 5, 5, 2),
     False, ("pigeonhole", "no completion vertex shared by three projections"),
     ["clean color1 blue=10 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean levels min=2 max=2",
      "clean ramsey2 r_star=2 subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean surviving=[1, 2, 3, 4, 5]",
      "row 1 r=1 x=1 y=0 next=2 J=[2, 3, 4, 5]",
      "row 2 r=2 x=0 y=0 next=3 J=[3, 4, 5]",
      "m-prime 4",
      "projection 1 size=1",
      "projection 2 size=1",
      "fail pigeonhole"],
     2, 2, None),
    ((7, 2, "3/4", 0, "1/2", "1/4", 7, 7, 4),
     True, None,
     ["clean color1 blue=35 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5, 6, 7] exhaustive=True",
      "clean levels min=2 max=2",
      "clean ramsey2 r_star=2 subset=[1, 2, 3, 4, 5, 6, 7] exhaustive=True",
      "clean surviving=[1, 2, 3, 4, 5, 6, 7]",
      "row 1 r=1 x=0 y=0 next=2 J=[2, 3, 4, 5, 6, 7]",
      "row 2 r=2 x=0 y=0 next=3 J=[3, 4, 5, 6, 7]",
      "row 3 r=3 x=1 y=0 next=4 J=[4, 5, 6, 7]",
      "row 4 r=4 x=0 y=0 next=5 J=[5, 6, 7]",
      "m-prime 6",
      "projection 1 size=2",
      "projection 2 size=2",
      "projection 3 size=2",
      "projection 4 size=1",
      "pigeonhole v=1 rows=[1, 2, 3]",
      "certificate validated"],
     4, 4, {'vertex': 1, 'rows': (1, 2, 3)}),
]


@pytest.mark.parametrize("case,ok,failure,trace,rows,projections,pigeonhole",
                         FSTAR_PINS)
def test_find_fstar_stages_pinned(case, ok, failure, trace, rows, projections,
                                  pigeonhole):
    m, p, d, seed, eps, delta, t1, t2, rounds = case
    host = random_box_dense(m, p, Fraction(d), seed=seed)
    config = PipelineConfig(eps=Fraction(eps), delta=Fraction(delta),
                            ramsey_target_1=t1, ramsey_target_2=t2, rounds=rounds)
    result = find_fstar(host, config)
    got_failure = (result.failure.stage, result.failure.reason) if result.failure else None
    assert (result.ok, got_failure, result.trace, len(result.rows),
            len(result.projections), result.pigeonhole) == \
        (ok, failure, trace, rows, projections, pigeonhole)
    assert (result.certificate is not None) == ok


# -- the row layer's argument checks and retired sites ----------------------

def test_connector_pigeonhole_pinned_on_a_doctored_system():
    # The apex lies in S^1_{2,6}, so a cleaned system gives it neighbours in
    # the low graph of (1, 2, 6); this copy empties that graph and keeps the
    # S-sets.
    system, _ = cleaned_complete(6, 2)
    g = system.q_low[(1, 2, 6)]
    empty = BipartiteGraph(g.left_size, g.right_size, [0] * g.left_size, [0] * g.right_size)
    doctored = dataclasses.replace(system, q_low={**system.q_low, (1, 2, 6): empty})
    with pytest.raises(RowPreparationError) as err:
        prepare_row(doctored, range(1, 7), 6)
    assert (err.value.step, err.value.reason) == \
        ("connector-pigeonhole", "apex has no neighbours in the connector class")


def test_linked_keeps_the_candidates_whose_adjacency_meets_the_target():
    adj = [0b110, 0b001, 0b100, 0b000]
    assert linked(adj, 0b1111, 0b100) == 0b0101
    assert linked(adj, 0b1110, 0b011) == 0b0010
    assert linked(adj, 0b1111, 0) == linked(adj, 0, 0b111) == 0


def test_connector_and_spine_pinned_on_a_doctored_system():
    # The complete M=6 host (row index 1, top 6, apex 0, classes of 2) with
    # three low graphs cut down to the listed (left, right) edges.  The apex
    # keeps only connector candidate 1 (graph (1, 2, 6)); 1 is linked into
    # column 3 through z = 0 and into column 5, not into column 4.
    system, _ = cleaned_complete(6, 2)
    q_low = dict(system.q_low)
    for t, edges in {(1, 2, 6): [(1, 0)], (1, 2, 3): [(1, 0)], (1, 2, 4): []}.items():
        g = q_low[t]
        left_adj, right_adj = [0] * g.left_size, [0] * g.right_size
        for a, b in edges:
            left_adj[a] |= 1 << b
            right_adj[b] |= 1 << a
        q_low[t] = BipartiteGraph(g.left_size, g.right_size, left_adj, right_adj)
    row = prepare_row(dataclasses.replace(system, q_low=q_low), _ALL, 6)
    assert (row.apex, row.r_next, row.connector, row.connector_hits, row.spine,
            row.surviving) == (0, 2, 1, 2, {3: 0, 5: 0}, (2, 3, 5, 6))


_ALL = [1, 2, 3, 4, 5, 6]

# (call on the cleaned complete M=6 system and on the same host's uncleaned
# Q-graphs, the DomainError's text), one fault per call.
ARGUMENT_REFUSALS = {
    "prepare_row-uncleaned": (
        lambda system, raw: prepare_row(raw, _ALL, 6),
        "prepare_row needs a cleaned QGraphSystem"),
    "prepare_row-two-indices": (
        lambda system, raw: prepare_row(system, [1, 6], 6),
        "index set must have >= 3 elements, got [1, 6]"),
    "prepare_row-top-below-max": (
        lambda system, raw: prepare_row(system, _ALL, 5),
        "top index 5 must be the maximum of [1, 2, 3, 4, 5, 6]"),
    "prepare_row-top-missing": (
        lambda system, raw: prepare_row(system, [1, 2, 3, 5], 4),
        "top index 4 must be the maximum of [1, 2, 3, 5]"),
    "prepare_row_glue-uncleaned": (
        lambda system, raw: prepare_row_glue(raw, _ALL, 6, m2_target=2),
        "prepare_row_glue needs a cleaned QGraphSystem"),
    "prepare_row_glue-m2_target": (
        lambda system, raw: prepare_row_glue(system, _ALL, 6, m2_target=0),
        "m2_target must be >= 1, got 0"),
    "prepare_row_glue-two-indices": (
        lambda system, raw: prepare_row_glue(system, [1, 1, 6], 6, m2_target=1),
        "index set must have >= 3 elements, got [1, 6]"),
    "prepare_row_glue-top-below-max": (
        lambda system, raw: prepare_row_glue(system, _ALL, 5, m2_target=2),
        "top index 5 must be the maximum of [1, 2, 3, 4, 5, 6]"),
    "prepare_row_glue-top-missing": (
        lambda system, raw: prepare_row_glue(system, [1, 2, 3, 5], 4, m2_target=2),
        "top index 4 must be the maximum of [1, 2, 3, 5]"),
}


@pytest.mark.parametrize("name", ARGUMENT_REFUSALS)
def test_row_layer_argument_refusals_pinned(name):
    call, text = ARGUMENT_REFUSALS[name]
    system, _ = cleaned_complete(6, 2)
    raw = build_q_graphs(random_box_dense(6, 2, 1, seed=0), Fraction(1, 2))
    with pytest.raises(DomainError) as err:
        call(system, raw)
    assert (type(err.value), str(err.value)) == (DomainError, text)


@pytest.mark.parametrize("make", [PipelineConfig,
                                  lambda **fields: GlueConfig(ladder=(3,), **fields)],
                         ids=["pipeline", "glue"])
def test_second_ramsey_target_must_reach_the_final_set_size(make):
    with pytest.raises(DomainError) as err:
        make(eps=Fraction(1, 2), delta=Fraction(1, 4), ramsey_target_1=5,
             ramsey_target_2=4, min_final_indices=5)
    assert str(err.value) == "ramsey_target_2 must be >= min_final_indices (5), got 4"


def _rows_without(module, name, field):
    """A force: module.name's rows come back with field emptied."""
    def force(monkeypatch):
        prepare = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: dataclasses.replace(
            prepare(*args, **kwargs), **{field: {}}))
    return force


def _covering_with_adjacent_rows(monkeypatch):
    # rows 1, 2 and 2: the third covering row follows the first directly
    monkeypatch.setattr(pipeline, "covered_vertex", lambda *args: (0, [0, 1, 1]))


def _hollow(t):
    """A force: the cleaned system's host loses constituent t's edges after
    its Q-graphs were built from them."""
    def force(monkeypatch):
        def hollowed(host, config):
            cleaned = qsystem.clean(host, config)
            work = cleaned.system.host
            edges = {u: work.edges(u) for u in work.triples() if u != t}
            cleaned.system = dataclasses.replace(
                cleaned.system, host=ReducedHypergraph.with_uniform_classes(
                    work.index_count, 2, edges))
            return cleaned
        monkeypatch.setattr(pipeline, "clean", hollowed)
    return force


# Each site past the row stages, forced on the complete M=7 host, where both
# commands otherwise find their target (rows r = 1, 2, 3, 4 for pipeline;
# r = 1, 3 and m' = 6 for glue).
@pytest.mark.parametrize("command,force,message", [
    (["pipeline", "--rounds", "4"], _rows_without(pipeline, "prepare_row", "spine"),
     "row 1 lacks a spine vertex at m'=6"),
    (["glue", "--ladder", "4,2"], _rows_without(glue, "prepare_row_glue", "spine"),
     "row 1 lacks a spine vertex at m'=6"),
    (["pipeline", "--rounds", "4"], _covering_with_adjacent_rows,
     "row 1 lacks a spine vertex at r_k=2"),
    (["pipeline", "--rounds", "4"], _hollow((1, 2, 7)),
     "the apex-connector edge (0, 0) has no completion in A^(1, 2, 7)"),
    (["glue", "--ladder", "4,2"], _hollow((1, 3, 7)),
     "the apex-witness edge (0, 0) has no completion in A^(1, 3, 7)"),
    (["glue", "--ladder", "4,2"], _rows_without(glue, "prepare_row_glue", "witnesses"),
     "row 1 has no triangle witness for pair (3, 6)"),
], ids=["projection-pipeline", "projection-glue", "r_k-spine", "completion-pipeline",
        "completion-glue", "glue-witness"])
def test_retired_row_sites_exit_4(monkeypatch, tmp_path, command, force, message):
    path = tmp_path / "complete7.rh"
    path.write_text(write_host(random_box_dense(7, 2, 1, seed=0)))
    force(monkeypatch)
    assert dispatch([*command, "--host", str(path), "--eps", "1/2", "--delta", "1/4",
                     "--deterministic"]) == (4, f"error internal: {message}\n")


class _Edgeless:
    """A low Q-graph that lists its neighbours truly but denies every edge,
    which only the rows' direct adjacency checks ask about."""

    def __init__(self, graph):
        self.graph = graph

    def __getattr__(self, name):
        return getattr(self.graph, name)

    def has(self, left, right):
        return False


def _deny(t):
    """A force: the cleaned system's low Q-graph of triple t (and of t alone,
    though its graph object is shared) denies its edges to the row checks."""
    def force(monkeypatch):
        def denying(host, config):
            cleaned = qsystem.clean(host, config)
            q_low = {**cleaned.system.q_low, t: _Edgeless(cleaned.system.q_low[t])}
            cleaned.system = dataclasses.replace(cleaned.system, q_low=q_low)
            return cleaned
        monkeypatch.setattr(pipeline, "clean", denying)
    return force


# Each row's own adjacency checks, forced on the complete M=7 host: pipeline's
# row 1 has r = 1, r_next = 2, top = 7 and spine {3, 4, 5, 6}; glue's row 1
# has r = 1 and checks its witnessed pair (3, 4) first.
@pytest.mark.parametrize("command,t,message", [
    (["pipeline", "--rounds", "4"], (1, 2, 7), "row 1: apex-connector edge missing"),
    (["pipeline", "--rounds", "4"], (1, 3, 7), "row 1: apex-spine edge missing at 3"),
    (["pipeline", "--rounds", "4"], (1, 2, 3), "row 1: connector-spine edge missing at 3"),
    (["glue", "--ladder", "4,2"], (1, 3, 7), "row 1: apex edge missing at column 3"),
    (["glue", "--ladder", "4,2"], (1, 4, 7), "row 1: apex edge missing at column 4"),
    (["glue", "--ladder", "4,2"], (1, 3, 4), "row 1: witness edge missing for (3, 4)"),
], ids=["apex-connector", "apex-spine", "connector-spine", "glue-apex-j", "glue-apex-k",
        "glue-witness"])
def test_row_adjacency_checks_exit_4(monkeypatch, tmp_path, command, t, message):
    path = tmp_path / "complete7.rh"
    path.write_text(write_host(random_box_dense(7, 2, 1, seed=0)))
    argv = [*command, "--host", str(path), "--eps", "1/2", "--delta", "1/4",
            "--deterministic"]
    assert dispatch(argv)[0] == 0
    _deny(t)(monkeypatch)
    assert dispatch(argv) == (4, f"error internal: {message}\n")


def _fail_validation(module, name, call, why):
    """A force: module.name, a validator, answers truly until its call-th
    call, which fails with why."""
    def force(monkeypatch):
        validate, calls = getattr(module, name), []

        def failing(*args):
            calls.append(args)
            return (False, why) if len(calls) == call else validate(*args)
        monkeypatch.setattr(module, name, failing)
    return force


_FORCED = Violation("edge", "forced")


# Each validation of an assembled answer, forced to fail on the complete M=7
# host, where every command otherwise finds its target (the pipeline's check
# on the working host is test_cli's test_failed_self_check_exits_4).
@pytest.mark.parametrize("command,force,message", [
    (["find", "--pattern", "K4"], _fail_validation(embed, "validate_reduced_map", 1, _FORCED),
     f"engine produced an invalid map: {_FORCED}"),
    (["pipeline", "--eps", "1/2", "--delta", "1/4", "--rounds", "4"],
     _fail_validation(pipeline, "validate_reduced_map", 2, _FORCED),
     f"assembled map fails validation on original host: {_FORCED}"),
    (["glue", "--eps", "1/2", "--delta", "1/4", "--ladder", "4,2"],
     _fail_validation(glue, "validate_glued", 1, "forced"),
     "assembled configuration invalid on working host: forced"),
    (["glue", "--eps", "1/2", "--delta", "1/4", "--ladder", "4,2"],
     _fail_validation(glue, "validate_glued", 2, "forced"),
     "assembled configuration invalid on original host: forced"),
], ids=["engine", "pipeline-original", "glue-working", "glue-original"])
def test_failed_answer_validation_exits_4(monkeypatch, tmp_path, command, force, message):
    path = tmp_path / "complete7.rh"
    path.write_text(write_host(random_box_dense(7, 2, 1, seed=0)))
    argv = [*command, "--host", str(path), "--deterministic"]
    assert dispatch(argv)[0] == 0
    force(monkeypatch)
    assert dispatch(argv) == (4, f"error internal: {message}\n")
