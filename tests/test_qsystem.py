"""Cleaning tests: Q-graph thresholds, degree bounds, colorings,
monochromatic extraction, S-sets, and full-clean soundness."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redhyp import (DomainError, PipelineConfig, ReducedHypergraph,
                    build_q_graphs, check_sum_of_squares, clean, color_triples,
                    compute_s_sets, level_coloring, ramsey_extract,
                    random_box_dense)
from redhyp.cli import dispatch
from redhyp.constructions import orientation_reduced, reduced_blow_up
from redhyp.core import Constituent
from redhyp.fileio import parse_host, write_host
from redhyp import qsystem
from redhyp.qsystem import BipartiteGraph, high_graph, level_cap, verify_star


def complete_host(m, p):
    return random_box_dense(m, p, 1, seed=0)


def every_high_graph(system):
    """The high graph of every triple, each read through high_graph."""
    return {t: high_graph(system, t) for t in system.host.triples()}


def naive_q_edges(host, eps, t):
    """Recompute both Q-graph edge sets for a triple from raw edges."""
    i, j, k = t
    s0, s1, s2 = host.constituent(t).sizes
    edges = host.edges(t)
    low = set()
    for w in range(s0):
        for v in range(s1):
            completions = sum(1 for a, b, c in edges if a == w and b == v)
            if completions >= eps * eps * s2:
                low.add((w, v))
    high = set()
    for v in range(s1):
        for u in range(s2):
            completions = sum(1 for a, b, c in edges if b == v and c == u)
            if completions >= eps * eps * s0:
                high.add((v, u))
    return low, high


def test_q_graphs_complete_and_empty():
    host = complete_host(4, 3)
    system = build_q_graphs(host, Fraction(1, 2))
    for t in host.triples():
        assert system.q_low[t].edge_count() == 9
        assert high_graph(system, t).edge_count() == 9
    empty = random_box_dense(4, 3, 0, seed=0)
    system = build_q_graphs(empty, Fraction(1, 2))
    for t in empty.triples():
        assert system.q_low[t].edge_count() == 0


def test_q_graph_threshold_boundary():
    # eps = 1/2 and third class of size 8 puts the threshold at exactly 2
    # completions; one completion must not make a Q-edge, two must.
    sizes = {(1, 2): 2, (1, 3): 2, (2, 3): 8}
    cons = {(1, 2, 3): [(0, 0, 0), (0, 1, 0), (0, 1, 1)]}
    host = ReducedHypergraph(3, sizes, cons)
    system = build_q_graphs(host, Fraction(1, 2))
    low = system.q_low[(1, 2, 3)]
    assert not low.has(0, 0)  # one completion < 2
    assert low.has(0, 1)      # two completions


def test_q_graphs_match_naive_recount():
    rng = random.Random(31)
    eps = Fraction(1, 3)
    for _ in range(8):
        host = random_box_dense(rng.randint(3, 5), rng.randint(2, 4),
                                Fraction(rng.randint(1, 9), 10),
                                seed=rng.randint(0, 999))
        system = build_q_graphs(host, eps)
        for t in host.triples():
            low, high = naive_q_edges(host, eps, t)
            got_low = {(w, v) for w in range(system.q_low[t].left_size)
                       for v in range(system.q_low[t].right_size)
                       if system.q_low[t].has(w, v)}
            high_t = high_graph(system, t)
            got_high = {(v, u) for v in range(high_t.left_size)
                        for u in range(high_t.right_size) if high_t.has(v, u)}
            assert got_low == low and got_high == high


def test_sum_of_squares_complete_and_empty():
    host = complete_host(3, 3)
    system = build_q_graphs(host, Fraction(1, 2))
    lhs, holds = check_sum_of_squares(system, (1, 2, 3))
    assert lhs == 27 and holds  # p^3 with p = 3
    empty = random_box_dense(3, 3, 0, seed=0)
    system = build_q_graphs(empty, Fraction(1, 2))
    lhs, holds = check_sum_of_squares(system, (1, 2, 3))
    assert lhs == 0 and not holds


def test_sum_of_squares_holds_at_exact_equality():
    # lhs = 2 * 2 (vertex 0 of P^{1,3}) + 0 * 0, and (1/4 + eps/2) * 2^3 = 4
    host = ReducedHypergraph(3, {(1, 2): 2, (1, 3): 2, (2, 3): 2},
                             {(1, 2, 3): [(0, 0, 0), (1, 0, 1)]})
    system = build_q_graphs(host, Fraction(1, 2))
    assert check_sum_of_squares(system, (1, 2, 3)) == (Fraction(4), True)


def test_sum_of_squares_holds_above_quarter_plus_eps():
    eps = Fraction(1, 10)
    for seed in range(6):
        host = random_box_dense(6, 5, Fraction(1, 4) + eps, seed=seed)
        system = build_q_graphs(host, eps)
        for t in host.triples():
            lhs, holds = check_sum_of_squares(system, t)
            assert holds
            naive = sum(
                sum(1 for w, v in itertools.product(
                    range(5), range(5)) if system.q_low[t].has(w, v) and v == x)
                * sum(1 for v, u in itertools.product(
                    range(5), range(5)) if high_graph(system, t).has(v, u) and v == x)
                for x in range(5))
            assert lhs == naive


def test_color_triples_complete_blue_and_matches_recomputation():
    host = complete_host(4, 2)
    system = build_q_graphs(host, Fraction(1, 2))
    colors = color_triples(system)
    assert set(colors.values()) == {"blue"}
    rng = random.Random(9)
    for _ in range(5):
        host = random_box_dense(5, 3, Fraction(2, 5), seed=rng.randint(0, 99))
        system = build_q_graphs(host, Fraction(1, 5))
        colors = color_triples(system)
        quarter = Fraction(1, 4) + Fraction(1, 5) / 2
        for t, color in colors.items():
            i, j, k = t
            low = system.q_low[t]
            lhs = sum(low.right_adj[v].bit_count() ** 2 for v in range(low.right_size))
            blue = lhs >= quarter * host.class_size(i, j) ** 2 * host.class_size(i, k)
            assert (color == "blue") == blue


def test_s_sets_nested_and_levels():
    host = complete_host(4, 2)
    delta = Fraction(1, 4)
    system = build_q_graphs(host, Fraction(1, 2))
    s_sets = compute_s_sets(system, delta)
    cap = level_cap(delta)
    assert cap == 2
    for t in host.triples():
        for r in range(1, cap + 1):
            assert s_sets[t][r] <= s_sets[t][r - 1]
        # complete host: degree is full, so every level keeps the whole class
        assert s_sets[t][cap - 1] == frozenset(range(2))
        assert s_sets[t][cap] == frozenset()
    levels = level_coloring(system, delta, s_sets)
    assert set(levels.values()) == {cap}


def test_ramsey_all_blue_takes_prefix():
    items = list(range(1, 8))
    coloring = {t: "blue" for t in itertools.combinations(items, 3)}
    result = ramsey_extract(items, coloring, 5)
    assert result.subset == (1, 2, 3, 4, 5)
    assert result.color == "blue" and result.exhaustive


def test_ramsey_no_monochromatic_subset():
    # Color triples of 1..6 by parity of their sum; verify by brute force
    # that no 5-subset is monochromatic, then the search must agree.
    items = list(range(1, 7))
    coloring = {t: ("blue" if sum(t) % 2 == 0 else "red")
                for t in itertools.combinations(items, 3)}
    for sub in itertools.combinations(items, 5):
        colors = {coloring[t] for t in itertools.combinations(sub, 3)}
        assert len(colors) > 1
    assert ramsey_extract(items, coloring, 5) is None
    assert ramsey_extract(items, coloring, 3) is not None


def test_ramsey_levels_behave_like_colors():
    items = list(range(1, 7))
    coloring = {t: max(t) % 3 for t in itertools.combinations(items, 3)}
    result = ramsey_extract(items, coloring, 4)
    if result is not None:
        colors = {coloring[t] for t in itertools.combinations(result.subset, 3)}
        assert colors == {result.color}


def test_ramsey_validation():
    items = [1, 2, 3, 4]
    coloring = {t: "blue" for t in itertools.combinations(items, 3)}
    with pytest.raises(DomainError):
        ramsey_extract(items, coloring, 2)
    with pytest.raises(DomainError):
        ramsey_extract(items, coloring, 5)
    del coloring[(2, 3, 4)]
    with pytest.raises(DomainError) as err:
        ramsey_extract(items, coloring, 3)
    assert str(err.value) == "coloring is missing triple (2, 3, 4)"


def test_ramsey_greedy_fallback_flagged():
    items = list(range(1, 9))
    coloring = {t: "blue" for t in itertools.combinations(items, 3)}
    result = ramsey_extract(items, coloring, 4, exact_cap=4)
    assert result is not None and not result.exhaustive


def test_ramsey_greedy_pass_that_finds_nothing_returns_none():
    # Above the exact cap every colour's greedy pass stops short of 5: blue
    # takes 1, 2, 3 and no more, red takes 1, 2, 4, 5.  No 5-subset is
    # monochromatic, as the exact search confirms.
    items = [1, 2, 3, 4, 5]
    coloring = {t: "red" for t in itertools.combinations(items, 3)}
    coloring[(1, 2, 3)] = "blue"
    assert ramsey_extract(items, coloring, 5, exact_cap=3) is None
    assert ramsey_extract(items, coloring, 5) is None
    assert ramsey_extract(items, coloring, 4, exact_cap=3) == \
        qsystem.RamseyResult((1, 2, 4, 5), "red", exhaustive=False)


def test_clean_complete_host():
    host = complete_host(5, 2)
    config = PipelineConfig(eps=Fraction(1, 2), delta=Fraction(1, 4),
                            ramsey_target_1=5, ramsey_target_2=5)
    result = clean(host, config)
    assert result.ok
    system = result.system
    assert system.r_star == level_cap(Fraction(1, 4))
    assert system.to_original == (1, 2, 3, 4, 5)
    for t in system.host.triples():
        assert system.s_sets[t][system.r_star - 1] == frozenset(range(2))


def test_clean_orientation_fails_with_named_stage():
    host = orientation_reduced(6)
    config = PipelineConfig(eps=Fraction(1, 10), delta=Fraction(1, 20),
                            ramsey_target_1=5, ramsey_target_2=4)
    result = clean(host, config)
    assert not result.ok
    assert result.failure.stage == "blue-verification"
    # The reported degree-product lhs must match a direct recomputation:
    # every Q-graph of the orientation host is a perfect matching on
    # two-vertex sides, so the lhs is 1*1 + 1*1 = 2.
    assert "lhs=2" in result.failure.reason


def test_clean_random_dense_host_star_verified():
    host = random_box_dense(12, 6, Fraction(9, 10), seed=0)
    config = PipelineConfig(eps=Fraction(1, 10), delta=Fraction(1, 20),
                            ramsey_target_1=8, ramsey_target_2=5)
    result = clean(host, config)
    assert result.ok
    system = result.system
    assert len(system.to_original) >= 5
    assert verify_star(system, system.delta, system.s_sets,
                       system.r_star) is None
    # S-set nesting at every level, recomputed from scratch
    fresh = compute_s_sets(system, system.delta)
    assert fresh == system.s_sets
    cap = level_cap(system.delta)
    for t in system.host.triples():
        for r in range(1, cap + 1):
            assert fresh[t][r] <= fresh[t][r - 1]


def test_clean_reports_small_host():
    host = complete_host(4, 1)
    config = PipelineConfig(eps=Fraction(1, 2), delta=Fraction(1, 4),
                            ramsey_target_1=6, ramsey_target_2=4)
    result = clean(host, config)
    assert not result.ok and result.failure.stage == "ramsey-color"


# -- integer thresholds against a naive rational reference -----------------
#
# The reference below compares integer counts with the exact rational
# bounds directly, recounting completions from the raw edge sets.

def _ref_colors(host, eps):
    quarter = Fraction(1, 4) + eps / 2
    colors = {}
    for t in host.triples():
        i, j, k = t
        low, high = naive_q_edges(host, eps, t)
        s_ij, s_ik, s_jk = (host.class_size(i, j), host.class_size(i, k),
                            host.class_size(j, k))
        low_deg = [sum(1 for _, v in low if v == x) for x in range(s_ik)]
        high_deg = [sum(1 for v, _ in high if v == x) for x in range(s_ik)]
        if Fraction(sum(d * d for d in low_deg)) >= quarter * s_ij ** 2 * s_ik:
            colors[t] = "blue"
            continue
        colors[t] = "red"
        product = sum(a * b for a, b in zip(low_deg, high_deg))
        if product >= quarter * s_ij * s_jk * s_ik:
            assert Fraction(sum(d * d for d in high_deg)) >= quarter * s_jk ** 2 * s_ik
    return colors


def _ref_s_sets(host, eps, delta, cap):
    out = {}
    for t in host.triples():
        i, j, k = t
        low, _ = naive_q_edges(host, eps, t)
        size_ij = host.class_size(i, j)
        degrees = [sum(1 for _, v in low if v == x) for x in range(host.class_size(i, k))]
        out[t] = tuple(
            frozenset(x for x, d in enumerate(degrees)
                      if d >= (Fraction(1, 2) + r * delta) * size_ij)
            for r in range(1, cap + 2))
    return out


def _ref_levels(host, delta, s_sets, cap):
    levels = {}
    for t in host.triples():
        floor = delta * host.class_size(t[0], t[2])
        levels[t] = next((r for r in range(cap, 0, -1)
                          if len(s_sets[t][r - 1]) >= floor), 0)
    return levels


def _ref_verify(host, eps, delta, s_sets, r_star):
    quarter = Fraction(1, 4) + eps / 2
    for t in host.triples():
        i, j, k = t
        low, _ = naive_q_edges(host, eps, t)
        s_ij, s_ik = host.class_size(i, j), host.class_size(i, k)
        squares = sum(sum(1 for _, v in low if v == x) ** 2 for x in range(s_ik))
        if squares < quarter * s_ij ** 2 * s_ik:
            return f"triple {t} fails the blue degree-square bound"
        floor = delta * s_ik
        if len(s_sets[t][r_star - 1]) < floor:
            return f"triple {t} has |S(r_star)| below delta * |P^{{{i},{k}}}|"
        if not len(s_sets[t][r_star]) < floor:
            return f"triple {t} has |S(r_star + 1)| not below delta * |P^{{{i},{k}}}|"
    return None


def _random_host(rng, sizes_from):
    m = rng.randint(3, 5)
    sizes = {p: rng.choice(sizes_from) for p in itertools.combinations(range(1, m + 1), 2)}
    density = rng.choice((0.5, 0.75, 0.9, 1.0))
    cons = {}
    for t in itertools.combinations(range(1, m + 1), 3):
        i, j, k = t
        cons[t] = [e for e in itertools.product(range(sizes[(i, j)]), range(sizes[(i, k)]),
                                                range(sizes[(j, k)]))
                   if rng.random() < density]
    return ReducedHypergraph(m, sizes, cons)


@pytest.mark.parametrize("eps,delta", [
    # eps = 1/2 puts eps^2 * 4 = 1 and (1/4 + eps/2) = 1/2; delta = 1/4 puts
    # (1/2 + r delta) * 4 and delta * 4 on integers: every bound is exact.
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(1, 2), Fraction(1, 8)),
    (Fraction(7, 10), Fraction(1, 4)),
    (Fraction(1, 3), Fraction(1, 6)),
    (Fraction(3, 5), Fraction(1, 5)),
])
def test_integer_thresholds_match_rational_reference(eps, delta):
    rng = random.Random(f"{eps}-{delta}")
    cap = level_cap(delta)
    for _ in range(6):
        host = _random_host(rng, (1, 2, 3, 4, 4, 5, 6, 8))
        system = build_q_graphs(host, eps)
        for t in host.triples():
            low, high = naive_q_edges(host, eps, t)
            assert {(w, v) for w, bits in enumerate(system.q_low[t].left_adj)
                    for v in range(system.q_low[t].right_size) if bits >> v & 1} == low
            high_t = high_graph(system, t)
            assert {(v, u) for v, bits in enumerate(high_t.left_adj)
                    for u in range(high_t.right_size) if bits >> u & 1} == high
        assert color_triples(system) == _ref_colors(host, eps)
        s_sets = compute_s_sets(system, delta)
        assert s_sets == _ref_s_sets(host, eps, delta, cap)
        assert level_coloring(system, delta, s_sets) == \
            _ref_levels(host, delta, s_sets, cap)
        for r_star in range(1, cap + 1):
            assert verify_star(system, delta, s_sets, r_star) == \
                _ref_verify(host, eps, delta, s_sets, r_star)


def test_thresholds_exactly_on_an_integer():
    # Classes of 4 and eps = 1/2: a Q-edge needs exactly 1 completion, an
    # S-set at level 1 (delta = 1/4) exactly 3 of 4 neighbours.
    sizes = {(1, 2): 4, (1, 3): 4, (2, 3): 4}
    edges = [(w, v, 0) for w in range(3) for v in range(4)]
    host = ReducedHypergraph(3, sizes, {(1, 2, 3): edges})
    system = build_q_graphs(host, Fraction(1, 2))
    low = system.q_low[(1, 2, 3)]
    assert [low.right_adj[v].bit_count() for v in range(4)] == [3, 3, 3, 3]
    s_sets = compute_s_sets(system, Fraction(1, 4))
    assert s_sets[(1, 2, 3)][0] == frozenset(range(4))   # 3 >= (1/2 + 1/4) * 4
    assert s_sets[(1, 2, 3)][1] == frozenset()           # 3 < (1/2 + 2/4) * 4
    assert level_coloring(system, Fraction(1, 4), s_sets) == {(1, 2, 3): 1}
    # blue bound: 4 * 3^2 = 36 >= (1/4 + 1/4) * 4^2 * 4 = 32
    assert color_triples(system) == {(1, 2, 3): "blue"}
    assert verify_star(system, Fraction(1, 4), s_sets, 1) is None


# One triple, with classes of s_ij, s_ik and 1 vertex (P^{jk}), so a low
# edge needs one completion, and the blue bound compares
# blue_lhs * den with num * s_ij^2 * s_ik, where num/den = 1/4 + eps/2:
@pytest.mark.parametrize("eps,s_ij,s_ik,edges,gap", [
    (Fraction(1, 2), 2, 2, [(0, 0, 0), (1, 0, 0)], 0),    # 4 * 2 = 1 * 4 * 2
    (Fraction(3, 10), 1, 5, [(0, 0, 0), (0, 1, 0)], 0),   # 2 * 5 = 2 * 1 * 5
    (Fraction(3, 10), 1, 3, [(0, 0, 0)], 1),              # 1 * 5 = 2 * 1 * 3 - 1
    (Fraction(1, 10), 1, 7, [(0, 0, 0), (0, 1, 0)], 1),   # 2 * 10 = 3 * 1 * 7 - 1
])
def test_blue_bound_boundary(eps, s_ij, s_ik, edges, gap):
    host = ReducedHypergraph(3, {(1, 2): s_ij, (1, 3): s_ik, (2, 3): 1}, {(1, 2, 3): edges})
    system = build_q_graphs(host, eps)
    quarter = Fraction(1, 4) + eps / 2
    blue_lhs = sum(d ** 2 for d in map(int.bit_count, system.q_low[(1, 2, 3)].right_adj))
    assert blue_lhs * quarter.denominator == quarter.numerator * s_ij ** 2 * s_ik - gap
    # blue at equality, red one below, and no dichotomy self-check either way
    assert color_triples(system) == {(1, 2, 3): "red" if gap else "blue"}
    delta = Fraction(1, 3)
    s_sets = compute_s_sets(system, delta)
    r_star = max(level_coloring(system, delta, s_sets)[(1, 2, 3)], 1)
    assert verify_star(system, delta, s_sets, r_star) == \
        ("triple (1, 2, 3) fails the blue degree-square bound" if gap else None)


@pytest.mark.parametrize("index_map", [[1, 2, 3, 4, 5, 6], [1, 3, 4, 6],
                                       [6, 5, 4, 3, 2, 1], [2, 6, 1, 4, 3]])
def test_shared_q_graphs_equal_fresh_ones(index_map):
    host = random_box_dense(6, 3, Fraction(1, 2), seed=4)
    eps = Fraction(1, 3)
    system = build_q_graphs(host, eps)
    sub = host.induced(index_map)
    shared = build_q_graphs(sub, eps, shared_with=system)
    fresh = build_q_graphs(sub, eps)
    assert shared.q_low == fresh.q_low
    assert every_high_graph(shared) == every_high_graph(fresh)
    for t in sub.triples():
        images = [index_map[x - 1] for x in t]
        kept = images == sorted(images)
        old = tuple(sorted(images))
        assert (shared.q_low[t] is system.q_low[old]) == kept
        assert (high_graph(shared, t) is high_graph(system, old)) == kept
    with pytest.raises(DomainError):
        build_q_graphs(sub, Fraction(1, 4), shared_with=system)


@pytest.mark.parametrize("index_map", [[1, 2, 3, 4, 5, 6], [1, 3, 4, 6],
                                       [6, 5, 4, 3, 2, 1], [2, 6, 1, 4, 3]])
def test_shared_q_graphs_hold_when_triples_share_a_constituent(index_map):
    # Every constituent of these hosts has one value, so each host holds one
    # object under all its triples, and a relabeled host holds the old object
    # where the order is kept and one new object elsewhere.
    eps = Fraction(1, 3)
    for host in (orientation_reduced(6), parse_host(write_host(complete_host(6, 2)))):
        assert len({id(con) for con in host.constituents.values()}) == 1
        system = build_q_graphs(host, eps)
        sub = host.induced(index_map)
        shared = build_q_graphs(sub, eps, shared_with=system)
        fresh = build_q_graphs(sub, eps)
        assert shared.q_low == fresh.q_low
        assert every_high_graph(shared) == every_high_graph(fresh)
        for t in sub.triples():
            images = [index_map[x - 1] for x in t]
            kept = images == sorted(images)
            old = tuple(sorted(images))
            assert (sub.constituent(t) is host.constituent(old)) == kept
            assert (shared.q_low[t] is system.q_low[old]) == kept
            assert (high_graph(shared, t) is high_graph(system, old)) == kept
        # one graph object per constituent object, in every system
        for built in (system, shared, fresh):
            for graphs in (built.q_low, every_high_graph(built)):
                by_con = {}
                for t, con in built.host.constituents.items():
                    assert by_con.setdefault(id(con), graphs[t]) is graphs[t]


@pytest.mark.parametrize("m,p,d,seed,eps,delta,t1,t2", [
    (12, 6, "9/10", 0, "1/10", "1/20", 8, 5),      # blue subset, star verified
    (5, 2, "1/2", 0, "9/10", "1/2", 5, 5),         # red subset, relabeled reversed
    (7, 2, "3/4", 0, "1/2", "1/4", 7, 7),
    (8, 4, "3/4", 3, "3/5", "1/3", 8, 8),
])
def test_clean_q_graphs_equal_fresh_ones(monkeypatch, m, p, d, seed, eps, delta, t1, t2):
    built = []

    def record(host, eps, shared_with=None):
        system = build(host, eps, shared_with=shared_with)
        built.append(system)
        return system

    build = qsystem.build_q_graphs
    monkeypatch.setattr(qsystem, "build_q_graphs", record)
    host = random_box_dense(m, p, Fraction(d), seed=seed)
    config = PipelineConfig(eps=Fraction(eps), delta=Fraction(delta),
                            ramsey_target_1=t1, ramsey_target_2=t2)
    result = clean(host, config)
    assert len(built) >= 2
    for system in built:
        fresh = build(system.host, system.eps)
        assert system.q_low == fresh.q_low
        assert every_high_graph(system) == every_high_graph(fresh)
    if result.ok:
        assert result.system is built[-1]


def _record_lazy_builds(monkeypatch):
    """Lists that collect the slot of every comp02/comp12 build (1 is
    comp12) and every Q-graph system built from here on."""
    pivots, systems = [], []
    pivot, build = Constituent._pivot, qsystem.build_q_graphs

    def counting_pivot(con, slot):
        pivots.append(slot)
        return pivot(con, slot)

    def record(host, eps, shared_with=None):
        system = build(host, eps, shared_with=shared_with)
        systems.append(system)
        return system

    monkeypatch.setattr(Constituent, "_pivot", counting_pivot)
    monkeypatch.setattr(qsystem, "build_q_graphs", record)
    return pivots, systems


@pytest.mark.parametrize("m,p,seed,targets,ladder", [
    (12, 6, 0, ["--m-star", "10", "--m", "8"], "5,4,3"),   # the bench's dense host
    (12, 2, 1, [], "8,5,3"),
])
def test_all_blue_pipeline_and_glue_build_no_high_tables(monkeypatch, tmp_path,
                                                         m, p, seed, targets, ladder):
    host = random_box_dense(m, p, Fraction(9, 10) if p == 6 else 1, seed=seed)
    path = tmp_path / "host.rh"
    path.write_text(write_host(host))
    common = ["--host", str(path), "--eps", "7/10", "--delta", "1/4", *targets,
              "--deterministic"]
    pivots, systems = _record_lazy_builds(monkeypatch)
    for argv in (["pipeline", *common, "--rounds", "5"],
                 ["glue", *common, "--ladder", ladder]):
        code, text = dispatch(argv)
        assert code == 0 and "outcome found" in text
    assert len(systems) == 6 and 1 not in pivots
    for system in systems:
        assert system.q_high == {}
        assert set(color_triples(system).values()) == {"blue"}
        assert system.q_high == {}
    assert 1 not in pivots


@pytest.mark.parametrize("m,p,d,seed,eps,delta,t1,t2", [
    (5, 2, "1/2", 0, "9/10", "1/2", 5, 5),         # every triple red
    (8, 3, "2/3", 5, "3/5", "1/3", 6, 4),          # 17 of 56 red
    (7, 3, "1/2", 1, "3/5", "1/3", 5, 4),          # 34 of 35 red
])
def test_high_graphs_are_built_for_red_triples_only(monkeypatch, m, p, d, seed, eps,
                                                   delta, t1, t2):
    pivots, systems = _record_lazy_builds(monkeypatch)
    host = random_box_dense(m, p, Fraction(d), seed=seed)
    clean(host, PipelineConfig(eps=Fraction(eps), delta=Fraction(delta),
                               ramsey_target_1=t1, ramsey_target_2=t2))
    monkeypatch.undo()
    first = systems[0]
    red = {t for t, c in color_triples(build_q_graphs(host, first.eps)).items()
           if c == "red"}
    assert red and set(first.q_high) == red
    for system in systems:
        fresh = build_q_graphs(system.host, system.eps)
        red_here = {t for t, c in color_triples(fresh).items() if c == "red"}
        assert set(system.q_high) <= red_here
        need = qsystem._ceil_per_size(system.host, system.eps ** 2)
        for t, graph in system.q_high.items():
            con = system.host.constituent(t)
            s0, s1, s2 = con.sizes
            comp12 = [0] * (s1 * s2)  # from the edge set, apart from Constituent
            for a, b, c in con.edges:
                comp12[b * s2 + c] |= 1 << a
            assert graph == BipartiteGraph.from_counts(comp12, s1, s2, need[s0])
    # one comp12 per constituent whose high graph was built, and no other
    assert pivots.count(1) == len({id(system.host.constituent(t)) for system in systems
                                   for t in system.q_high})


@pytest.mark.parametrize("m,p,d,eps,delta,t1,t2,low,high", [
    (30, 2, 1, "7/10", "1/4", 30, 30, 1, 0),          # the bench's complete host
    (12, 6, "9/10", "7/10", "1/4", 10, 8, 220, 0),    # the bench's dense host
    # red subset, relabeled reversed: host and host2 hold 10 objects each,
    # all red, and clean stops at blue verification
    (5, 2, "1/2", "9/10", "1/2", 5, 5, 20, 20),
])
def test_clean_builds_one_graph_per_constituent_object(monkeypatch, m, p, d, eps, delta,
                                                      t1, t2, low, high):
    tables = []
    from_counts = BipartiteGraph.from_counts.__func__

    def counting(cls, comp, left_size, right_size, need):
        tables.append(comp)
        return from_counts(cls, comp, left_size, right_size, need)

    _, systems = _record_lazy_builds(monkeypatch)
    monkeypatch.setattr(BipartiteGraph, "from_counts", classmethod(counting))
    clean(random_box_dense(m, p, Fraction(d), seed=0),
          PipelineConfig(eps=Fraction(eps), delta=Fraction(delta),
                         ramsey_target_1=t1, ramsey_target_2=t2))
    objects = {id(con): con for system in systems
               for con in system.host.constituents.values()}
    red = {id(system.host.constituent(t)) for system in systems for t in system.q_high}
    # one comp01 per constituent object and one comp12 per object read as red
    assert sorted(map(id, tables)) == sorted(
        [id(con.comp01) for con in objects.values()]
        + [id(objects[key].comp12) for key in red])
    assert (len(objects), len(red)) == (low, high)


def test_high_graph_of_a_triple_the_host_lacks_raises_and_records_nothing():
    host = random_box_dense(5, 2, Fraction(1, 2), seed=0)
    system = build_q_graphs(host, Fraction(9, 10))
    assert system.q_high == {}
    with pytest.raises(KeyError):
        high_graph(system, (3, 2, 1))
    assert system.q_high == {}
    graph = high_graph(system, (1, 2, 3))
    assert system.q_high == {(1, 2, 3): graph} and high_graph(system, (1, 2, 3)) is graph


# -- per-triple references for the value-sharing stages --------------------
#
# Each reference recomputes every triple on its own, in host.triples()
# order, with nothing shared between triples.

def _per_triple_q_low(host, eps):
    need_sq = Fraction(eps) ** 2
    out = {}
    for t in host.triples():
        i, j, k = t
        out[t] = BipartiteGraph.from_counts(
            host.constituent(t).comp01, host.class_size(i, j), host.class_size(i, k),
            math.ceil(need_sq * host.class_size(j, k)))
    return out


def _per_triple_colors(host, system):
    colors = {}
    quarter = Fraction(1, 4) + system.eps / 2
    num, den = quarter.numerator, quarter.denominator
    for t in host.triples():
        s_ij, s_ik, s_jk = host.constituent(t).sizes
        blue_lhs = sum(x.bit_count() ** 2 for x in system.q_low[t].right_adj)
        if blue_lhs * den >= num * s_ij ** 2 * s_ik:
            colors[t] = "blue"
            continue
        colors[t] = "red"
        if check_sum_of_squares(system, t)[1]:
            red_lhs = sum(x.bit_count() ** 2 for x in high_graph(system, t).left_adj)
            assert red_lhs * den >= num * s_jk ** 2 * s_ik
    return colors


def _per_triple_s_sets(host, system, delta):
    out = {}
    for t in host.triples():
        i, j, k = t
        size_ij = host.class_size(i, j)
        degrees = [x.bit_count() for x in system.q_low[t].right_adj]
        out[t] = tuple(
            frozenset(x for x, deg in enumerate(degrees)
                      if deg >= math.ceil((Fraction(1, 2) + r * delta) * size_ij))
            for r in range(1, level_cap(delta) + 2))
    return out


def _per_triple_levels(host, delta, s_sets):
    colors = {}
    for t in host.triples():
        i, j, k = t
        least = math.ceil(delta * host.class_size(i, k))
        colors[t] = next((r for r in range(level_cap(delta), 0, -1)
                          if len(s_sets[t][r - 1]) >= least), 0)
    return colors


def _per_triple_verify(host, system, delta, s_sets, r_star):
    quarter = Fraction(1, 4) + system.eps / 2
    for t in host.triples():
        i, j, k = t
        s_ij, s_ik = host.class_size(i, j), host.class_size(i, k)
        blue_lhs = sum(x.bit_count() ** 2 for x in system.q_low[t].right_adj)
        if blue_lhs * quarter.denominator < quarter.numerator * s_ij ** 2 * s_ik:
            return f"triple {t} fails the blue degree-square bound"
        least = math.ceil(delta * s_ik)
        if len(s_sets[t][r_star - 1]) < least:
            return f"triple {t} has |S(r_star)| below delta * |P^{{{i},{k}}}|"
        if not len(s_sets[t][r_star]) < least:
            return f"triple {t} has |S(r_star + 1)| not below delta * |P^{{{i},{k}}}|"
    return None


def _equal_degrees_host(m, seed):
    """Triples (1,2,3) and (1,3,4) both give every P^{ik} vertex low degree
    3, out of |P^{12}| = 6 and |P^{13}| = 3: equal degree profiles that
    only |P^{ij}| tells apart at every S-set level."""
    sizes = {p: 3 for p in itertools.combinations(range(1, 5), 2)}
    sizes[(1, 2)] = 6
    box = list(itertools.product(range(3), repeat=3))
    return ReducedHypergraph(4, sizes, {(1, 2, 3): box, (1, 3, 4): box})


def _reversed_host(m, seed):
    host = random_box_dense(m, 2, Fraction(1, 2), seed=seed)
    return host.induced(list(range(m, 0, -1)))


# Hosts with many equal constituents, then hosts with all-distinct ones.
_SHARING_HOSTS = {
    "complete": lambda m, seed: random_box_dense(m, 2, 1, seed=seed),
    "blow-up": lambda m, seed: reduced_blow_up(random_box_dense(m, 1, 1, seed=seed), 2),
    "orientation": lambda m, seed: orientation_reduced(m),
    "reversed": _reversed_host,
    "reversed-orientation": lambda m, seed: orientation_reduced(m).induced(
        list(range(m, 0, -1))),
    "equal-degrees": _equal_degrees_host,
    "dense-3": lambda m, seed: random_box_dense(m, 3, Fraction(2, 3), seed=seed),
    "dense-4": lambda m, seed: random_box_dense(m, 4, Fraction(3, 4), seed=seed),
    "dense-5": lambda m, seed: random_box_dense(m, 5, Fraction(9, 10), seed=seed),
    "dense-6": lambda m, seed: random_box_dense(m, 6, Fraction(1, 2), seed=seed),
    "mixed": lambda m, seed: _random_host(random.Random(seed), (1, 2, 3, 4, 6)),
}


@settings(max_examples=60, deadline=None)
@example(kind="equal-degrees", m=4, seed=0, eps=Fraction(1, 2), delta=Fraction(1, 4))
@given(kind=st.sampled_from(sorted(_SHARING_HOSTS)), m=st.integers(3, 6),
       seed=st.integers(0, 10 ** 6),
       eps=st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)]),
       delta=st.sampled_from([Fraction(1, 20), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)]))
def test_value_sharing_stages_match_per_triple_references(kind, m, seed, eps, delta):
    host = _SHARING_HOSTS[kind](m, seed)
    systems = [build_q_graphs(host, eps)]
    # relabeled hosts sharing the first system's graphs, as clean builds them:
    # one swaps two indices, one reverses the order
    n = host.index_count
    for index_map in ([2, 1, *range(3, n + 1)], list(range(n, 0, -1))):
        systems.append(build_q_graphs(host.induced(index_map), eps, shared_with=systems[0]))
    for system in systems:
        h = system.host
        reference = _per_triple_q_low(h, eps)
        assert list(system.q_low.items()) == list(reference.items())
        colors = color_triples(system)
        assert list(colors.items()) == list(_per_triple_colors(h, system).items())
        s_sets = compute_s_sets(system, delta)
        assert list(s_sets.items()) == list(_per_triple_s_sets(h, system, delta).items())
        levels = level_coloring(system, delta, s_sets)
        assert list(levels.items()) == list(_per_triple_levels(h, delta, s_sets).items())
        for r_star in range(1, level_cap(delta) + 1):
            assert verify_star(system, delta, s_sets, r_star) == \
                _per_triple_verify(h, system, delta, s_sets, r_star)
    # one low-graph object per distinct constituent value in a fresh system
    first = systems[0]
    by_value = {}
    for t, con in host.constituents.items():
        graph = by_value.setdefault((con.sizes, tuple(con.comp01)), first.q_low[t])
        assert first.q_low[t] is graph


# -- argument refusals ----------------------------------------------------

@pytest.mark.parametrize("r_star,text", [
    (0, "r_star must lie in 1..2, got 0"),
    (-1, "r_star must lie in 1..2, got -1"),
    (3, "r_star must lie in 1..2, got 3"),
], ids=["zero", "negative", "above-cap"])
def test_verify_star_refuses_a_level_outside_the_cap(r_star, text):
    # delta = 1/4: the levels run 1..level_cap = 2, with the S-sets one deeper.
    cleaned = clean(complete_host(5, 2), PipelineConfig(
        eps=Fraction(1, 2), delta=Fraction(1, 4), ramsey_target_1=5, ramsey_target_2=5))
    system = cleaned.system
    with pytest.raises(DomainError) as err:
        verify_star(system, system.delta, system.s_sets, r_star)
    assert (type(err.value), str(err.value)) == (DomainError, text)


@pytest.mark.parametrize("eps,text", [
    (0, "eps must lie in (0, 1), got 0"),
    (1, "eps must lie in (0, 1), got 1"),
    (Fraction(3, 2), "eps must lie in (0, 1), got 3/2"),
])
def test_build_q_graphs_refuses_eps_outside_the_unit_interval(eps, text):
    with pytest.raises(DomainError) as err:
        build_q_graphs(complete_host(4, 2), eps)
    assert str(err.value) == text


def test_build_q_graphs_refuses_graphs_shared_across_eps():
    host = random_box_dense(4, 2, Fraction(1, 2), seed=0)
    system = build_q_graphs(host, Fraction(1, 3))
    with pytest.raises(DomainError) as err:
        build_q_graphs(host.induced([1, 2, 3]), Fraction(1, 4), shared_with=system)
    assert str(err.value) == "shared Q-graphs were built for eps=1/3, not 1/4"


# -- clean's stage sites: one reached, the rest retired as self-checks -----

def _write(tmp_path, host):
    path = tmp_path / "host.rh"
    path.write_text(write_host(host))
    return str(path)


def test_no_delta_large_level_fails_at_ramsey_level(tmp_path):
    # Every P^{ik} vertex has low degree 3 of 4: blue, since 4 * 3^2 = 36
    # >= (1/4 + 1/4) * 4^2 * 4 = 32, but level 1 needs ceil(10/3) = 4, so
    # every triple has level 0 and the second extraction returns r_star = 0.
    edges = [(w, v, 0) for w in range(3) for v in range(4)]
    host = ReducedHypergraph.with_uniform_classes(
        4, 4, {t: edges for t in itertools.combinations(range(1, 5), 3)})
    path = _write(tmp_path, host)
    head = ("host sha256:a00590ac30dcbb4077b0b6a924285a7abea1d7eb8beb4ab293cb3d0c5c35b969\n"
            "eps 1/2\ndelta 1/3\n")
    tail = ("outcome failure\nstage ramsey-level\n"
            "reason surviving triples have no delta-large S-set level\nexit 1\n")
    common = ["--host", path, "--eps", "1/2", "--delta", "1/3", "--deterministic"]
    assert dispatch(["pipeline", *common]) == (1, (
        "command pipeline\n" + head + "rounds 9\nm-star 4\nm 4\nmin-final 3\n" + tail))
    assert dispatch(["glue", *common, "--ladder", "3"]) == (1, (
        "command glue\n" + head + "ladder 3\nm-star 4\nm 4\n" + tail))


def _short_first_extraction(monkeypatch):
    extract = qsystem.ramsey_extract
    calls = []

    def short(items, coloring, target, *args):
        result = extract(items, coloring, target, *args)
        calls.append(result)
        if len(calls) == 1:
            return qsystem.RamseyResult(result.subset[:-1], result.color, result.exhaustive)
        return result

    monkeypatch.setattr(qsystem, "ramsey_extract", short)


def _failing_star_verification(monkeypatch):
    monkeypatch.setattr(qsystem, "verify_star", lambda *args: "forced failure")


def _product_bound_always_holds(monkeypatch):
    monkeypatch.setattr(qsystem, "check_sum_of_squares",
                        lambda system, triple: (Fraction(0), True))


@pytest.mark.parametrize("command", [["pipeline"], ["glue", "--ladder", "3"]])
@pytest.mark.parametrize("force,host,eps,delta,message", [
    (_short_first_extraction, complete_host(5, 2), "1/2", "1/4",
     "error internal: the first extraction kept 4 indices, not ramsey_target_1=5\n"),
    (_failing_star_verification, complete_host(5, 2), "1/2", "1/4",
     "error internal: star verification failed after cleaning: forced failure\n"),
    # every triple of this host is red, and its high graphs miss the square bound
    (_product_bound_always_holds, random_box_dense(5, 2, Fraction(1, 2), seed=0),
     "9/10", "1/2", "error internal: degree-square dichotomy violated at triple (1, 2, 3): "
     "product bound holds (0) but neither square bound does\n"),
])
def test_retired_clean_sites_exit_4(monkeypatch, tmp_path, command, force, host, eps,
                                   delta, message):
    path = _write(tmp_path, host)
    force(monkeypatch)
    assert dispatch([*command, "--host", path, "--eps", eps, "--delta", delta,
                     "--deterministic"]) == (4, message)
