"""Glue tests: all-pairs row preparation, configuration validation,
the finder, and the brute-force enumerator."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redhyp import (CapExceeded, DomainError, GlueConfig, GluedConfiguration,
                    ReducedHypergraph, RowPreparationError, brute_force_glued, build_q_graphs,
                    clean, compute_s_sets, find_glued, prepare_row_glue,
                    random_box_dense, validate_glued)
from redhyp.constructions import orientation_reduced
from redhyp import core
from redhyp.core import sorted_pair, sorted_triple
from redhyp.glue import _config_edges, _enumerate_configs
from redhyp.pipeline import PipelineConfig
from redhyp.qsystem import BipartiteGraph


def cleaned_complete(m, p=2):
    host = random_box_dense(m, p, 1, seed=0)
    config = PipelineConfig(eps=Fraction(1, 2), delta=Fraction(1, 4),
                            ramsey_target_1=m, ramsey_target_2=m)
    result = clean(host, config)
    assert result.ok
    return result.system


def glue_config(m, ladder):
    return GlueConfig(eps=Fraction(7, 10), delta=Fraction(1, 4), ladder=ladder,
                      ramsey_target_1=m, ramsey_target_2=m)


def test_prepare_row_glue_complete_takes_everything():
    system = cleaned_complete(8)
    row = prepare_row_glue(system, list(range(1, 9)), m2_target=6)
    assert row.surviving == tuple(range(2, 9))  # I minus the row index
    assert row.achieved == 6 and not row.degenerate
    # all-pairs witnesses present for every pair of non-top columns
    non_top = [j for j in row.surviving if j != 8]
    for pair in itertools.combinations(non_top, 2):
        assert pair in row.witnesses


def test_prepare_row_glue_target_too_large():
    system = cleaned_complete(6)
    with pytest.raises(RowPreparationError) as err:
        prepare_row_glue(system, list(range(1, 7)), m2_target=5)
    assert err.value.step.startswith("spine-step")


def test_prepare_row_glue_empty_q_fails_at_apex():
    host = random_box_dense(6, 2, 0, seed=0)
    system = build_q_graphs(host, Fraction(1, 2))
    system.delta = Fraction(1, 4)
    system.r_star = 1
    system.s_sets = compute_s_sets(system, Fraction(1, 4))
    with pytest.raises(RowPreparationError) as err:
        prepare_row_glue(system, list(range(1, 7)), m2_target=2)
    assert err.value.step == "apex-pigeonhole"


def test_prepare_row_glue_dense_instance_verified_pairwise():
    host = random_box_dense(12, 6, Fraction(9, 10), seed=1)
    config = PipelineConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                            ramsey_target_1=10, ramsey_target_2=8)
    result = clean(host, config)
    assert result.ok
    system = result.system
    m = system.host.index_count
    row = prepare_row_glue(system, list(range(1, m + 1)), m2_target=4)
    assert row.achieved == 4
    r = row.row_index
    non_top = [j for j in row.surviving if j != m]
    for j, k in itertools.combinations(non_top, 2):
        y = row.witnesses[(j, k)]
        assert system.q_low[(r, j, m)].has(y, row.apex)
        assert system.q_low[(r, k, m)].has(row.spine[k], row.apex)
        assert system.q_low[(r, j, k)].has(y, row.spine[k])


def _doctored(system, graphs):
    """A copy of the cleaned system whose low Q-graph at each triple of
    graphs keeps only the listed (left, right) edges.  The S-sets are
    kept, so the apex and the columns that keep it are chosen as before."""
    q_low = dict(system.q_low)
    for t, edges in graphs.items():
        g = q_low[t]
        left_adj, right_adj = [0] * g.left_size, [0] * g.right_size
        for a, b in edges:
            left_adj[a] |= 1 << b
            right_adj[b] |= 1 << a
        q_low[t] = BipartiteGraph(g.left_size, g.right_size, left_adj, right_adj)
    return dataclasses.replace(system, q_low=q_low)


# Spine steps no seeded host reaches, on the complete M=6 host (row index 1,
# top 6, apex 0) with doctored low Q-graphs: (graphs, working, m2_target),
# then (spine, degenerate, surviving, achieved) or the failing step.
GLUE_SPINE_PINS = {
    # the largest column has no neighbour of the apex: vertex 0, degenerate
    "empty-a_k": ({(1, 5, 6): []}, [1, 2, 3, 4, 5, 6], 1,
                  ({5: 0}, (5,), (5, 6), 1)),
    "empty-a_k-alone": ({(1, 5, 6): []}, [1, 5, 6], 1,
                        ({5: 0}, (5,), (5, 6), 1)),
    # no other column remains: the least neighbour, not degenerate
    "no-other-column": ({(1, 5, 6): [(1, 0)]}, [1, 5, 6], 1,
                        ({5: 1}, (), (5, 6), 1)),
    "last-of-four": ({(1, 2, 6): [(1, 0)]}, [1, 2, 3, 4, 5, 6], 4,
                     ({5: 0, 4: 0, 3: 0, 2: 1}, (), (2, 3, 4, 5, 6), 4)),
    # other columns remain but none has a triangle link: the least
    # neighbour, degenerate, and nothing is kept
    "no-triangle-link": ({(1, 5, 6): [(1, 0)], (1, 2, 5): [], (1, 3, 5): [],
                          (1, 4, 5): []}, [1, 2, 3, 4, 5, 6], 1,
                         ({5: 1}, (5,), (5, 6), 1)),
    "no-triangle-link-then-step-2": (
        {(1, 5, 6): [(1, 0)], (1, 2, 5): [], (1, 3, 5): [], (1, 4, 5): []},
        [1, 2, 3, 4, 5, 6], 2,
        ("spine-step-2", "no candidate columns remain (secured 1 of 2)")),
}


@pytest.mark.parametrize("name", GLUE_SPINE_PINS)
def test_prepare_row_glue_degenerate_spine_steps_pinned(name):
    graphs, working, m2_target, want = GLUE_SPINE_PINS[name]
    system = _doctored(cleaned_complete(6), graphs)
    if isinstance(want[0], str):
        with pytest.raises(RowPreparationError) as err:
            prepare_row_glue(system, working, m2_target=m2_target)
        assert (err.value.step, err.value.reason) == want
        return
    row = prepare_row_glue(system, working, m2_target=m2_target)
    assert (row.row_index, row.apex) == (1, 0)
    assert (row.spine, row.degenerate, row.surviving, row.achieved) == want


def test_find_glued_complete_host():
    host = random_box_dense(30, 2, 1, seed=0)
    config = GlueConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                        ladder=(8, 5, 3), ramsey_target_1=30, ramsey_target_2=30)
    result = find_glued(host, config)
    assert result.ok
    ok, why = validate_glued(host, result.configuration)
    assert ok, why


def test_find_glued_orientation_cannot_succeed():
    host = orientation_reduced(6)
    config = GlueConfig(eps=Fraction(1, 10), delta=Fraction(1, 20), ladder=(3, 2),
                        ramsey_target_1=5, ramsey_target_2=4)
    result = find_glued(host, config)
    # any claimed success would contradict the exhaustive enumerator below
    if result.ok:
        ok, why = validate_glued(host, result.configuration)
        assert ok, why
    found, count = brute_force_glued(host)
    assert not found and count == 0
    assert not result.ok


def test_two_set_pigeonhole():
    from redhyp.pipeline import covered_vertex
    subsets = [tuple(range(0, 4)), tuple(range(3, 7)), tuple(range(6, 10))]
    hit = covered_vertex(10, subsets, 2)
    assert hit is not None and len(hit[1]) >= 2


def test_brute_force_glued_complete_counts_one_per_subset():
    host = random_box_dense(4, 1, 1, seed=0)
    found, count = brute_force_glued(host)
    assert found and count == 1
    host5 = random_box_dense(5, 1, 1, seed=0)
    found, count = brute_force_glued(host5)
    assert found and count == 5  # one certificate per index 4-subset


def test_brute_force_glued_refuses_a_negative_cap_in_every_mode():
    host = orientation_reduced(4)
    for count_all in (True, False):
        for cap in (-5, -1):
            with pytest.raises(DomainError) as exc:
                brute_force_glued(host, cap=cap, count_all=count_all)
            assert str(exc.value) == f"cap must be >= 0, got {cap}", count_all
        with pytest.raises(CapExceeded):
            brute_force_glued(host, cap=0, count_all=count_all)


def test_brute_force_glued_counts_up_to_the_table_cap(monkeypatch):
    # complete M = 5 with classes of 2: 5 subsets x 12 role assignments x
    # 2^8 configurations.  Counting is refused only above the cap; finding
    # one does not store certificates and is never refused by it.
    host = random_box_dense(5, 2, 1, seed=0)
    counted = brute_force_glued(host)
    monkeypatch.setattr(core, "TABLE_ENTRY_CAP", 5 * 12 * 2 ** 8)
    assert brute_force_glued(host) == counted
    monkeypatch.setattr(core, "TABLE_ENTRY_CAP", 5 * 12 * 2 ** 8 - 1)
    with pytest.raises(CapExceeded) as exc:
        brute_force_glued(host)
    assert str(exc.value) == \
        "counting glued certificates needs 15360 entries, above the cap 15359"
    monkeypatch.setattr(core, "TABLE_ENTRY_CAP", 0)
    assert brute_force_glued(host, count_all=False) == (True, 1)


def test_brute_force_glued_admits_its_space_on_unequal_classes():
    # Classes of 1 to 3 vertices, so each role assignment's primed classes
    # P^{i2 i3} and P^{i2 i4} weigh differently: counting P^{i3 i4} twice
    # instead gives another total.  The space is summed here one role
    # assignment at a time, as _enumerate_configs walks them.
    m = 5
    sizes = {(i, j): 1 + (i * j) % 3 for i, j in itertools.combinations(range(1, m + 1), 2)}
    host = ReducedHypergraph(m, sizes, {
        (i, j, k): [e for e in itertools.product(range(sizes[(i, j)]), range(sizes[(i, k)]),
                                                 range(sizes[(j, k)])) if sum(e) % 2 == 0]
        for i, j, k in itertools.combinations(range(1, m + 1), 3)})
    space = wrong = 0
    for subset in itertools.combinations(range(1, m + 1), 4):
        for i1, i2 in itertools.permutations(subset, 2):
            roles = (i1, i2, *sorted(set(subset) - {i1, i2}))

            def size(j, k):
                return host.class_size(*sorted_pair(roles[j - 1], roles[k - 1]))
            volume = math.prod(size(j, k) for j, k in itertools.combinations(range(1, 5), 2))
            space += volume * size(2, 3) * size(2, 4)
            wrong += volume * size(3, 4) ** 2
    assert (space, wrong) == (30096, 32112)
    assert brute_force_glued(host, cap=space) == brute_force_glued(host) == (True, 1065)
    with pytest.raises(CapExceeded) as exc:
        brute_force_glued(host, cap=space - 1)
    assert str(exc.value) == f"glued enumeration space exceeds cap {space - 1}"


def test_brute_force_glued_empty():
    host = random_box_dense(5, 2, 0, seed=0)
    found, count = brute_force_glued(host)
    assert not found and count == 0


def test_brute_force_glued_count_matches_permuted_loop_recount():
    # Independent recount: reversed subset/role order, reversed vertex
    # loops, certificates deduped the same way.
    host = random_box_dense(5, 3, Fraction(1, 2), seed=8)
    found, count = brute_force_glued(host)

    def member(t_raw, by_class):
        t = sorted_triple(*t_raw)
        slots = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        return t, tuple(by_class[sp] for sp in slots)

    certificates = set()
    hit = False
    for subset in reversed(list(itertools.combinations(host.indices(), 4))):
        for i1, i2 in reversed(list(itertools.permutations(subset, 2))):
            i3, i4 = sorted(x for x in subset if x not in (i1, i2))
            sizes = {p: host.class_size(*p) for p in
                     (sorted_pair(a, b) for a, b in
                      itertools.combinations((i1, i2, i3, i4), 2))}
            rng = {pair: range(sizes[pair] - 1, -1, -1) for pair in sizes}
            for a12 in rng[sorted_pair(i1, i2)]:
                for a13 in rng[sorted_pair(i1, i3)]:
                    for a14 in rng[sorted_pair(i1, i4)]:
                        for a23 in rng[sorted_pair(i2, i3)]:
                            for a24 in rng[sorted_pair(i2, i4)]:
                                for a34 in rng[sorted_pair(i3, i4)]:
                                    t1, e1 = member((i1, i2, i3),
                                                    {sorted_pair(i1, i2): a12,
                                                     sorted_pair(i1, i3): a13,
                                                     sorted_pair(i2, i3): a23})
                                    if not host.constituent(t1).has(*e1):
                                        continue
                                    t2, e2 = member((i1, i2, i4),
                                                    {sorted_pair(i1, i2): a12,
                                                     sorted_pair(i1, i4): a14,
                                                     sorted_pair(i2, i4): a24})
                                    if not host.constituent(t2).has(*e2):
                                        continue
                                    t3, e3 = member((i1, i3, i4),
                                                    {sorted_pair(i1, i3): a13,
                                                     sorted_pair(i1, i4): a14,
                                                     sorted_pair(i3, i4): a34})
                                    if not host.constituent(t3).has(*e3):
                                        continue
                                    for p23 in rng[sorted_pair(i2, i3)]:
                                        for p24 in rng[sorted_pair(i2, i4)]:
                                            t4, e4 = member(
                                                (i2, i3, i4),
                                                {sorted_pair(i2, i3): p23,
                                                 sorted_pair(i2, i4): p24,
                                                 sorted_pair(i3, i4): a34})
                                            if host.constituent(t4).has(*e4):
                                                hit = True
                                                certificates.add(frozenset(
                                                    [(t1, e1), (t2, e2),
                                                     (t3, e3), (t4, e4)]))
    assert hit == found
    assert len(certificates) == count


def test_validate_glued_detects_missing_edge():
    host = random_box_dense(4, 1, 1, seed=0)
    cfg = GluedConfiguration(indices=(1, 2, 3, 4),
                             alpha={(1, 2): 0, (1, 3): 0, (1, 4): 0,
                                    (2, 3): 0, (2, 4): 0, (3, 4): 0},
                             alpha23_prime=0, alpha24_prime=0)
    ok, why = validate_glued(host, cfg)
    assert ok
    cons = {t: set(host.edges(t)) for t in host.triples()}
    del cons[(2, 3, 4)]
    from redhyp import ReducedHypergraph
    broken = ReducedHypergraph.with_uniform_classes(4, 1, cons)
    ok, why = validate_glued(broken, cfg)
    assert not ok and "A^(2, 3, 4)" in why


@pytest.mark.parametrize("change", [{(1, 5): 0}, {(3, 4): None}],
                         ids=["extra-pair", "missing-pair"])
def test_validate_glued_needs_exactly_the_role_pairs(change):
    host = random_box_dense(5, 1, 1, seed=0)
    alpha = {pair: 0 for pair in itertools.combinations(range(1, 5), 2)}
    alpha.update(change)
    alpha = {pair: v for pair, v in alpha.items() if v is not None}
    cfg = GluedConfiguration(indices=(1, 2, 3, 4), alpha=alpha,
                             alpha23_prime=0, alpha24_prime=0)
    with pytest.raises(DomainError, match="alpha must name exactly the role pairs"):
        validate_glued(host, cfg)


@pytest.mark.parametrize("indices", [(1, 2, 3), (1, 2, 3, 4, 5)], ids=["three", "five"])
def test_validate_glued_needs_four_indices(indices):
    host = random_box_dense(5, 1, 1, seed=0)
    alpha = {pair: 0 for pair in itertools.combinations(range(1, 5), 2)}
    cfg = GluedConfiguration(indices=indices, alpha=alpha,
                             alpha23_prime=0, alpha24_prime=0)
    with pytest.raises(DomainError, match="indices must name four roles"):
        validate_glued(host, cfg)


@pytest.mark.parametrize("primes,text", [
    ((2, 0), "primed vertex 2 outside class P^(2, 3)"),
    ((0, -1), "primed vertex -1 outside class P^(2, 4)"),
], ids=["alpha23", "alpha24"])
def test_validate_glued_refuses_a_primed_vertex_outside_its_class(primes, text):
    host = random_box_dense(5, 2, 1, seed=0)
    alpha = {pair: 0 for pair in itertools.combinations(range(1, 5), 2)}
    cfg = GluedConfiguration(indices=(1, 2, 3, 4), alpha=alpha,
                             alpha23_prime=primes[0], alpha24_prime=primes[1])
    with pytest.raises(DomainError) as err:
        validate_glued(host, cfg)
    assert str(err.value) == text


@pytest.mark.parametrize("indices,change,text", [
    ((1, 2, 3, 6), {}, "index 6 outside host range"),
    ((0, 2, 3, 4), {}, "index 0 outside host range"),
    ((1, 2, 3, 4), {(1, 3): 2}, "alpha(1,3) = 2 outside class P^(1, 3)"),
    ((1, 2, 3, 4), {(3, 4): -1}, "alpha(3,4) = -1 outside class P^(3, 4)"),
])
def test_validate_glued_refusals_are_pinned(indices, change, text):
    host = random_box_dense(5, 2, 1, seed=0)
    alpha = {pair: 0 for pair in itertools.combinations(range(1, 5), 2)}
    cfg = GluedConfiguration(indices=indices, alpha={**alpha, **change},
                             alpha23_prime=0, alpha24_prime=0)
    with pytest.raises(DomainError) as err:
        validate_glued(host, cfg)
    assert str(err.value) == text
    # repeated indices are not a refusal but a configuration that fails
    repeated = dataclasses.replace(cfg, indices=(1, 2, 2, 4), alpha=alpha)
    assert validate_glued(host, repeated) == (False, "indices (1, 2, 2, 4) are not distinct")


@pytest.mark.parametrize("ladder", [(3, 0), (0,), (2, -1)])
def test_glue_config_refuses_a_ladder_entry_below_one(ladder):
    with pytest.raises(DomainError) as err:
        GlueConfig(eps=Fraction(7, 10), delta=Fraction(1, 4), ladder=ladder,
                   ramsey_target_1=6, ramsey_target_2=5)
    assert str(err.value) == f"ladder entries must be >= 1, got {ladder}"


def test_find_glued_matches_oracle_on_dense_hosts():
    for seed in range(5):
        host = random_box_dense(6, 3, Fraction(9, 10), seed=seed)
        config = GlueConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                            ladder=(3, 2), ramsey_target_1=6, ramsey_target_2=5)
        result = find_glued(host, config)
        if result.ok:
            found, _ = brute_force_glued(host, count_all=False)
            assert found


def test_find_glued_soundness_under_relabeling():
    rng = random.Random(4)
    host = random_box_dense(8, 3, Fraction(9, 10), seed=2)
    perm = list(range(1, 9))
    rng.shuffle(perm)
    permuted = host.induced(perm)
    config = GlueConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                        ladder=(3, 2), ramsey_target_1=7, ramsey_target_2=5)
    result = find_glued(permuted, config)
    assert result.ok
    cfg = result.configuration
    # Vertices keep their numbering under induced(), but edge slots follow
    # sorted class pairs, so map each certificate edge back pairwise and
    # check membership in the original host.
    for t, edge in _config_edges(permuted, cfg):
        orig_t = sorted_triple(*(perm[i - 1] for i in t))
        slot_pairs = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        by_class = {}
        for sp, v in zip(slot_pairs, edge):
            orig_sp = sorted_pair(perm[sp[0] - 1], perm[sp[1] - 1])
            by_class[orig_sp] = v
        orig_slots = ((orig_t[0], orig_t[1]), (orig_t[0], orig_t[2]),
                      (orig_t[1], orig_t[2]))
        orig_edge = tuple(by_class[sp] for sp in orig_slots)
        assert host.constituent(orig_t).has(*orig_edge)


@st.composite
def glue_instances(draw):
    """A small uniform host, sometimes relabeled, and a glue configuration."""
    m = draw(st.integers(5, 8))
    host = random_box_dense(m, draw(st.integers(1, 2)),
                            draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4),
                                                  Fraction(9, 10), Fraction(1)])),
                            seed=draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        host = host.induced(draw(st.permutations(range(1, m + 1))))
    config = GlueConfig(eps=draw(st.sampled_from([Fraction(1, 2), Fraction(7, 10)])),
                        delta=Fraction(1, 4),
                        ladder=draw(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 2)])),
                        ramsey_target_1=m, ramsey_target_2=m - 1)
    return host, config


@settings(max_examples=60, deadline=None, database=None)
@given(glue_instances())
def test_find_glued_successes_are_brute_force_configurations(instance):
    host, config = instance
    result = find_glued(host, config)
    if not result.ok:
        assert result.failure is not None and result.configuration is None
        return
    cfg = result.configuration
    assert any(c == cfg for c in _enumerate_configs(host, cfg.indices))
    found, count = brute_force_glued(host, count_all=False)
    assert found and count == 1


def test_glue_config_validation():
    with pytest.raises(DomainError):
        GlueConfig(eps=Fraction(1, 2), delta=Fraction(1, 4), ladder=(),
                   ramsey_target_1=5, ramsey_target_2=4)
    with pytest.raises(DomainError):
        GlueConfig(eps=Fraction(1, 2), delta=Fraction(1, 4), ladder=(3, 3),
                   ramsey_target_1=5, ramsey_target_2=4)
    with pytest.raises(DomainError):
        GlueConfig(eps=Fraction(1, 4), delta=Fraction(1, 2), ladder=(3, 2),
                   ramsey_target_1=5, ramsey_target_2=4)


# -- every stage a seeded host reaches, pinned ------------------------------
#
# As in test_pipeline: (M, class size, d, seed, eps, delta, ramsey_target_1,
# ramsey_target_2, ladder), then ok, (stage, reason), trace, len(rows),
# len(projections) and the pigeonhole.  A failure past the row stages is a
# SelfCheckError instead (test_pipeline.test_retired_row_sites_exit_4).

GLUE_PINS = [
    ((5, 2, "1/2", 0, "1/10", "1/20", 5, 5, (3, 2)),
     False, ("ramsey-color", "no monochromatic index subset of size 5"),
     ["clean color1 blue=9 red=1",
      "fail ramsey-color"],
     0, 0, None),
    ((5, 2, "1/2", 0, "9/10", "1/2", 5, 5, (3, 2)),
     False, ("blue-verification", "triple (1, 2, 3) (original (5, 4, 3)) is not blue "
                                   "after relabeling; degree-product lhs=0"),
     ["clean color1 blue=0 red=10",
      "clean ramsey1 color=red subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean relabel reversed order for red subset",
      "fail blue-verification"],
     0, 0, None),
    ((8, 4, "3/4", 3, "3/5", "1/3", 8, 8, (3, 2)),
     False, ("ramsey-level", "no level-monochromatic index subset of size 8"),
     ["clean color1 blue=56 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5, 6, 7, 8] exhaustive=True",
      "clean levels min=0 max=1",
      "fail ramsey-level"],
     0, 0, None),
    ((5, 2, "1/2", 0, "1/10", "1/20", 4, 4, (3, 2)),
     False, ("row-1", "spine-step-2: no candidate columns remain (secured 1 of 3)"),
     ["clean color1 blue=9 red=1",
      "clean ramsey1 color=blue subset=[1, 2, 3, 5] exhaustive=True",
      "clean levels min=10 max=10",
      "clean ramsey2 r_star=10 subset=[1, 2, 3, 4] exhaustive=True",
      "clean surviving=[1, 2, 3, 5]",
      "fail row-1"],
     0, 0, None),
    ((7, 3, "3/4", 2, "7/10", "1/4", 7, 7, (3, 2)),
     False, ("row-2", "spine-step-2: no candidate columns remain (secured 1 of 2)"),
     ["clean color1 blue=35 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5, 6, 7] exhaustive=True",
      "clean levels min=2 max=2",
      "clean ramsey2 r_star=2 subset=[1, 2, 3, 4, 5, 6, 7] exhaustive=True",
      "clean surviving=[1, 2, 3, 4, 5, 6, 7]",
      "row 1 r=1 x=0 J=[3, 4, 6, 7] degenerate=[]",
      "fail row-2"],
     1, 0, None),
    ((5, 2, "3/4", 0, "1/2", "1/4", 5, 5, (2, 1)),
     False, ("final-index-set", "final set [4, 5] smaller than 3"),
     ["clean color1 blue=10 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean levels min=2 max=2",
      "clean ramsey2 r_star=2 subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean surviving=[1, 2, 3, 4, 5]",
      "row 1 r=1 x=0 J=[3, 4, 5] degenerate=[]",
      "row 2 r=3 x=0 J=[4, 5] degenerate=[]",
      "fail final-index-set"],
     2, 0, None),
    ((5, 2, "1/2", 1, "1/2", "1/4", 5, 5, (2,)),
     False, ("pigeonhole", "no completion vertex shared by two projections"),
     ["clean color1 blue=10 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean levels min=2 max=2",
      "clean ramsey2 r_star=2 subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean surviving=[1, 2, 3, 4, 5]",
      "row 1 r=1 x=0 J=[3, 4, 5] degenerate=[]",
      "m-prime 4",
      "projection 1 size=1",
      "fail pigeonhole"],
     1, 1, None),
    ((5, 2, "3/4", 0, "1/2", "1/4", 5, 5, (3, 2)),
     True, None,
     ["clean color1 blue=10 red=0",
      "clean ramsey1 color=blue subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean levels min=2 max=2",
      "clean ramsey2 r_star=2 subset=[1, 2, 3, 4, 5] exhaustive=True",
      "clean surviving=[1, 2, 3, 4, 5]",
      "row 1 r=1 x=0 J=[2, 3, 4, 5] degenerate=[]",
      "row 2 r=2 x=0 J=[3, 4, 5] degenerate=[]",
      "m-prime 4",
      "projection 1 size=2",
      "projection 2 size=2",
      "pigeonhole v=0 rows=[1, 2]",
      "configuration validated"],
     2, 2, {'vertex': 0, 'rows': (1, 2)}),
]


@pytest.mark.parametrize("case,ok,failure,trace,rows,projections,pigeonhole",
                         GLUE_PINS)
def test_find_glued_stages_pinned(case, ok, failure, trace, rows, projections,
                                  pigeonhole):
    m, p, d, seed, eps, delta, t1, t2, ladder = case
    host = random_box_dense(m, p, Fraction(d), seed=seed)
    config = GlueConfig(eps=Fraction(eps), delta=Fraction(delta), ladder=ladder,
                        ramsey_target_1=t1, ramsey_target_2=t2)
    result = find_glued(host, config)
    got_failure = (result.failure.stage, result.failure.reason) if result.failure else None
    assert (result.ok, got_failure, result.trace, len(result.rows),
            len(result.projections), result.pigeonhole) == \
        (ok, failure, trace, rows, projections, pigeonhole)
    assert (result.configuration is not None) == ok
