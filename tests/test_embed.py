"""Embedding tests: validator conditions, engine/oracle agreement,
certificates, budgets, and monotonicity."""

import contextlib
import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redhyp import (CapExceeded, DanglingReferenceError, DomainError, Pattern,
                    ReducedHypergraph, ReducedMap, blow_up, embed,
                    exhaustive_oracle, find_reduced_image, pattern_catalog,
                    random_box_dense, validate_reduced_map)
from redhyp.constructions import orientation_reduced
from redhyp.core import sorted_pair
from redhyp.embed import _SLOTS, _completions, _Engine, _edge_layout


def complete_host(m, p=1):
    return random_box_dense(m, p, 1, seed=0)


def mixed_host(m, sizes, d, seed):
    """Host whose class P^{i,j} has sizes[(i, j)] vertices; each edge of
    every constituent's box is kept with probability d."""
    rng = random.Random(seed)
    cons = {}
    for i, j, k in itertools.combinations(range(1, m + 1), 3):
        box = itertools.product(range(sizes[(i, j)]), range(sizes[(i, k)]),
                                range(sizes[(j, k)]))
        cons[(i, j, k)] = [e for e in box if rng.random() < d]
    return ReducedHypergraph(m, sizes, cons)


def seeded_mixed_host(m, d, seed, max_size=3):
    """mixed_host with class sizes in 1..max_size drawn from the same seed."""
    rng = random.Random(seed)
    sizes = {p: rng.randint(1, max_size) for p in itertools.combinations(range(1, m + 1), 2)}
    return mixed_host(m, sizes, d, seed=rng.randrange(10 ** 6))


def five_row_host():
    """Host on indices 1..5, singleton classes, holding exactly the five
    constituent edges of the staircase-style assignment below."""
    cons = {t: [] for t in
            [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 4, 5), (3, 4, 5)]}
    for t in cons:
        cons[t] = [(0, 0, 0)]
    return ReducedHypergraph.with_uniform_classes(5, 1, cons)


def staircase_map():
    lam = {1: 1, 2: 2, 3: 5, 4: 4, 5: 3}
    phi = {}
    for u in range(1, 6):
        for v in range(u + 1, 6):
            i, j = sorted((lam[u], lam[v]))
            phi[(u, v)] = ((i, j), 0)
    return ReducedMap(lam=lam, phi=phi)


def test_validate_staircase_assignment():
    host = five_row_host()
    ok, violation = validate_reduced_map(host, pattern_catalog("Fstar"), staircase_map())
    assert ok and violation is None


def test_validate_detects_missing_edge():
    host = five_row_host()
    cons = {t: set(host.edges(t)) for t in host.triples() if host.edges(t)}
    del cons[(3, 4, 5)]
    broken = ReducedHypergraph.with_uniform_classes(5, 1, cons)
    ok, violation = validate_reduced_map(broken, pattern_catalog("Fstar"), staircase_map())
    assert not ok and violation.kind == "edge"


def test_validate_single_edge_complete():
    host = complete_host(3)
    rmap = ReducedMap(lam={1: 1, 2: 2, 3: 3},
                      phi={(1, 2): ((1, 2), 0), (1, 3): ((1, 3), 0),
                           (2, 3): ((2, 3), 0)})
    ok, _ = validate_reduced_map(host, pattern_catalog("single_edge"), rmap)
    assert ok


def test_validate_distinctness_and_class_violations():
    host = complete_host(3)
    pat = pattern_catalog("single_edge")
    rmap = ReducedMap(lam={1: 1, 2: 1, 3: 3},
                      phi={(1, 2): ((1, 2), 0), (1, 3): ((1, 3), 0),
                           (2, 3): ((2, 3), 0)})
    ok, violation = validate_reduced_map(host, pat, rmap)
    assert not ok and violation.kind == "distinctness"
    rmap = ReducedMap(lam={1: 1, 2: 2, 3: 3},
                      phi={(1, 2): ((1, 3), 0), (1, 3): ((1, 3), 0),
                           (2, 3): ((2, 3), 0)})
    ok, violation = validate_reduced_map(host, pat, rmap)
    assert not ok and violation.kind == "class"


def test_a_vertex_equal_to_its_class_size_is_a_dangling_reference():
    # class_size(1, 3) is the first vertex outside P^{1,3}: an error, not an
    # edge violation
    host = complete_host(3)
    with pytest.raises(DanglingReferenceError) as err:
        validate_reduced_map(host, pattern_catalog("single_edge"), ReducedMap(
            lam={1: 1, 2: 2, 3: 3},
            phi={(1, 2): ((1, 2), 0), (1, 3): ((1, 3), host.class_size(1, 3)),
                 (2, 3): ((2, 3), 0)}))
    assert str(err.value) == "phi(1, 3) names vertex 1 outside class P^{1,3}"


def test_validate_dangling_references_are_errors_not_violations():
    host = complete_host(3)
    pat = pattern_catalog("single_edge")
    with pytest.raises(DanglingReferenceError):
        validate_reduced_map(host, pat, ReducedMap(lam={1: 1, 2: 2},
                                                   phi={}))
    with pytest.raises(DanglingReferenceError):
        validate_reduced_map(host, pat, ReducedMap(
            lam={1: 1, 2: 2, 3: 9},
            phi={(1, 2): ((1, 2), 0), (1, 3): ((1, 3), 0), (2, 3): ((2, 3), 0)}))
    with pytest.raises(DanglingReferenceError):
        validate_reduced_map(host, pat, ReducedMap(
            lam={1: 1, 2: 2, 3: 3},
            phi={(1, 2): ((1, 2), 5), (1, 3): ((1, 3), 0), (2, 3): ((2, 3), 0)}))
    for cls in ((2, 1), (1, 4), (0, 1)):
        with pytest.raises(DanglingReferenceError) as err:
            validate_reduced_map(host, pat, ReducedMap(
                lam={1: 1, 2: 2, 3: 3},
                phi={(1, 2): (cls, 0), (1, 3): ((1, 3), 0), (2, 3): ((2, 3), 0)}))
        assert str(err.value) == f"phi(1, 2) names invalid class pair {cls}"


def test_find_on_complete_host():
    host = complete_host(5)
    result = find_reduced_image(host, pattern_catalog("Fstar"))
    assert result.status == "found"
    ok, _ = validate_reduced_map(host, pattern_catalog("Fstar"),
                                 result.certificate.rmap)
    assert ok


def test_orientation_hosts_are_free():
    for m in (4, 6, 8):
        host = orientation_reduced(m)
        assert find_reduced_image(host, pattern_catalog("K4minus")).status == "not-found"
    host = orientation_reduced(6)
    assert find_reduced_image(host, pattern_catalog("Fstar")).status == "not-found"
    oracle = exhaustive_oracle(host, pattern_catalog("Fstar"))
    assert not oracle.found and oracle.count == 0


def test_oracle_complete_k4_counts_index_assignments():
    host = complete_host(4)
    oracle = exhaustive_oracle(host, pattern_catalog("K4"))
    assert oracle.found and oracle.count == 24  # 4! index assignments


def test_oracle_empty_host():
    host = random_box_dense(5, 2, 0, seed=0)
    oracle = exhaustive_oracle(host, pattern_catalog("single_edge"))
    assert not oracle.found and oracle.count == 0


def test_oracle_counts_free_vertices_of_incomplete_shadow():
    # A pattern vertex outside every edge is unconstrained, so maps
    # multiply by the index count.
    host = complete_host(3)
    pat = Pattern(4, [(1, 2, 3)])
    oracle = exhaustive_oracle(host, pat)
    assert oracle.count == 6 * 3
    engine = find_reduced_image(host, pat, count_all=True)
    assert engine.count == 18


def test_oracle_cap_refusal():
    host = complete_host(6, 4)
    with pytest.raises(CapExceeded):
        exhaustive_oracle(host, pattern_catalog("Fstar"), cap=10 ** 4)


def test_the_oracle_stores_no_index_maps():
    # 13122 of the 3^10 index maps are admitted; a list of them peaked at 1.6 MiB
    host = complete_host(3)
    pattern = Pattern(10, [(1, 2, 3)])
    tracemalloc.start()
    try:
        oracle = exhaustive_oracle(host, pattern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (oracle.count, oracle.leaves) == (13122, 13122)
    assert peak < 0.1 * (1 << 20)


def test_negative_oracle_cap_is_a_domain_error():
    host = orientation_reduced(4)
    for cap in (-5, -1):
        with pytest.raises(DomainError) as exc:
            exhaustive_oracle(host, pattern_catalog("K4"), cap=cap)
        assert str(exc.value) == f"cap must be >= 0, got {cap}"
    with pytest.raises(CapExceeded):
        exhaustive_oracle(host, pattern_catalog("K4"), cap=0)


def test_budget_exhaustion_is_distinct():
    host = orientation_reduced(6)
    result = find_reduced_image(host, pattern_catalog("Fstar"), budget=50)
    assert result.status == "budget-exhausted"
    assert result.nodes == 51
    with pytest.raises(DomainError):
        find_reduced_image(host, pattern_catalog("Fstar"), budget=0)


def test_vertices_outside_every_edge_cost_no_per_vertex_list():
    # A million pattern vertices and one edge: every vertex without entries
    # shares one empty tuple in the engine's per-vertex tables.
    host = complete_host(4, 2)
    pattern = Pattern(10 ** 6, [(1, 2, 3)])
    tracemalloc.start()
    try:
        result = find_reduced_image(host, pattern, budget=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.status, result.nodes) == ("budget-exhausted", 11)
    assert peak < 48 << 20


def test_a_vertex_in_many_edges_builds_its_tables_in_linear_time():
    # Vertex N lies in K edges (2i-1, 2i, N) and has 2K shadow neighbours:
    # appending to a per-vertex tuple would copy about (2K)^2 / 2 entries
    # (over 8 s here); grouped lists keep the setup near 1 s.
    k = 30000
    n = 2 * k + 1
    pattern = Pattern(n, [(2 * i - 1, 2 * i, n) for i in range(1, k + 1)])
    host = complete_host(4, 2)
    started = time.monotonic()
    result = find_reduced_image(host, pattern, budget=10)
    elapsed = time.monotonic() - started
    assert (result.status, result.nodes) == ("budget-exhausted", 11)
    assert elapsed < 4.0, f"engine setup took {elapsed:.1f}s"
    engine = _Engine(host, Pattern(7, [(1, 2, 7), (3, 4, 7), (5, 6, 7)]))
    assert engine.distinct_before[7] == (1, 2, 3, 4, 5, 6)
    assert engine.lam_sched[7] == ((1, 2, 0), (3, 4, 1), (5, 6, 2))
    assert engine.distinct_before[1] == engine.lam_sched[6] == ()


def test_a_pair_in_many_edges_builds_its_tables_in_linear_time():
    # Pair (1, 2) lies in K edges (1, 2, x): looking up each edge's place in
    # the pair's edge list, or keeping a neighbour bitmask per pair as wide
    # as the pair count, makes the setup quadratic (over 2 s and 120 MiB).
    k = 20000
    pattern = Pattern(k + 2, [(1, 2, x) for x in range(3, k + 3)])
    host = complete_host(4, 2)
    started = time.monotonic()
    result = find_reduced_image(host, pattern, budget=10)
    elapsed = time.monotonic() - started
    assert (result.status, result.nodes) == ("budget-exhausted", 11)
    assert elapsed < 1.5, f"engine setup took {elapsed:.1f}s"
    tracemalloc.start()
    try:
        _Engine(host, pattern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20
    # pairs (1,2) (1,3) (1,4) (1,5) (2,3) (2,4) (2,5) are 0..6
    engine = _Engine(host, Pattern(5, [(1, 2, 3), (1, 2, 4), (1, 2, 5)]))
    assert engine.pair_edges[0] == [0, 1, 2]
    assert engine.edge_pairs[1] == ((0, (2, 5), 1), (2, (0, 5), 0), (5, (0, 2), 0))
    assert engine.neighbours[0] == (1, 4, 2, 5, 3, 6)
    assert engine.neighbours[5] == (0, 2)


# (status, count, nodes) of the plain branching count-all search, with no
# caching of subtree results, on fixed hosts.
COUNT_ALL_PINS = {
    "m5c3d9": {"single_edge": ("found", 1500, 850),
               "K4minus": ("found", 69558, 5110),
               "K4": ("found", 64536, 36100),
               "Fstar": ("found", 4837430, 122710)},
    "m6c2d3/4": {"single_edge": ("found", 720, 914),
                 "K4minus": ("found", 9702, 5813),
                 "K4": ("found", 7224, 12474),
                 "Fstar": ("found", 174540, 63662)},
    "orient6": {"single_edge": ("found", 240, 702),
                "K4minus": ("not-found", 0, 2382),
                "K4": ("not-found", 0, 2382),
                "Fstar": ("not-found", 0, 5982)},
    "mixed6d1/2": {"single_edge": ("found", 648, 736),
                   "K4minus": ("found", 4512, 4150),
                   "K4": ("found", 2256, 5076),
                   "Fstar": ("found", 37448, 18543)},
    "mixed7d1/4": {"single_edge": ("found", 324, 752),
                   "K4minus": ("found", 558, 2311),
                   "K4": ("found", 144, 2150),
                   "Fstar": ("found", 808, 5115)},
    # Classes of 1 and 2, nearly full: most leaves repeat an earlier one.
    "mixed5d9/10c2": {"single_edge": ("found", 138, 268),
                      "K4minus": ("found", 528, 1000),
                      "K4": ("found", 480, 1172),
                      "Fstar": ("found", 1264, 2006)},
}
# (status, nodes, certificate) of the first-hit search on the same hosts;
# a certificate is (lam of vertices 1..n, phi vertices of the sorted shadow).
FIND_PINS = {
    "m5c3d9": {"single_edge": ("found", 9, ((1, 2, 3), (0, 0, 0))),
               "K4minus": ("found", 16, ((1, 2, 3, 4), (0, 0, 0, 0, 0, 0))),
               "K4": ("found", 16, ((1, 2, 3, 4), (0, 0, 0, 0, 0, 0))),
               "Fstar": ("found", 25, ((1, 2, 3, 4, 5), (0,) * 10))},
    "m6c2d3/4": {"single_edge": ("found", 9, ((1, 2, 3), (0, 0, 0))),
                 "K4minus": ("found", 16, ((1, 2, 3, 4), (0, 0, 0, 0, 0, 0))),
                 "K4": ("found", 16, ((1, 2, 3, 4), (0, 0, 0, 0, 0, 0))),
                 "Fstar": ("found", 25, ((1, 2, 3, 4, 5), (0,) * 10))},
    "mixed6d1/2": {"single_edge": ("found", 9, ((1, 2, 3), (0, 0, 0))),
                   "K4minus": ("found", 16, ((1, 2, 3, 4), (0, 0, 1, 0, 0, 0))),
                   "K4": ("found", 16, ((1, 2, 3, 4), (0, 0, 1, 1, 0, 0))),
                   "Fstar": ("found", 25, ((1, 2, 3, 4, 5),
                                           (0, 0, 1, 0, 0, 0, 1, 0, 1, 0)))},
    "mixed7d1/4": {"single_edge": ("found", 9, ((1, 2, 3), (0, 0, 0))),
                   "K4minus": ("found", 21, ((1, 2, 3, 7), (0, 0, 0, 0, 1, 0))),
                   "K4": ("found", 78, ((1, 3, 5, 6), (1, 0, 1, 1, 0, 0))),
                   "Fstar": ("found", 120, ((1, 3, 4, 5, 6),
                                            (1, 0, 0, 1, 2, 1, 0, 2, 0, 1)))},
    "orient6": {"single_edge": ("found", 9, ((1, 2, 3), (0, 1, 0))),
                "K4minus": ("not-found", 2382, None),
                "K4": ("not-found", 2382, None),
                "Fstar": ("not-found", 5982, None)},
    "mixed5d9/10c2": {"single_edge": ("found", 9, ((1, 2, 3), (0, 0, 0))),
                      "K4minus": ("found", 16, ((1, 2, 3, 4), (0,) * 6)),
                      "K4": ("found", 16, ((1, 2, 3, 4), (0,) * 6)),
                      "Fstar": ("found", 25, ((1, 2, 3, 4, 5), (0,) * 10))},
}
PIN_HOSTS = {
    "m5c3d9": lambda: random_box_dense(5, 3, Fraction(9, 10), seed=0),
    "m6c2d3/4": lambda: random_box_dense(6, 2, Fraction(3, 4), seed=2),
    "orient6": lambda: orientation_reduced(6),
    "mixed6d1/2": lambda: seeded_mixed_host(6, 0.5, seed=3),
    "mixed7d1/4": lambda: seeded_mixed_host(7, 0.25, seed=4),
    "mixed5d9/10c2": lambda: seeded_mixed_host(5, 0.9, seed=3, max_size=2),
}
CATALOG = ("single_edge", "K4minus", "K4", "Fstar")


@pytest.mark.parametrize("label", sorted(COUNT_ALL_PINS))
def test_count_all_nodes_and_budgets_are_pinned(label):
    host = PIN_HOSTS[label]()
    for name, (status, count, nodes) in COUNT_ALL_PINS[label].items():
        pat = pattern_catalog(name)
        r = find_reduced_image(host, pat, count_all=True)
        assert (r.status, r.count, r.nodes) == (status, count, nodes), name
        for budget in (1, nodes // 3, nodes - 1):
            r = find_reduced_image(host, pat, count_all=True, budget=budget)
            assert (r.status, r.count, r.nodes) == \
                ("budget-exhausted", None, budget + 1), (name, budget)
        r = find_reduced_image(host, pat, count_all=True, budget=nodes)
        assert (r.status, r.count, r.nodes) == (status, count, nodes), name


# (status, count, nodes) of count-all searches on hosts whose classes reach
# 4 to 10 vertices; the nodes are those of the plain branching search.
LARGE_CLASS_PINS = {
    "m4c8d9/K4": (lambda: random_box_dense(4, 8, Fraction(9, 10), seed=1), "K4",
                  ("found", 4127712, 681004)),
    "m4c10d9/K4minus": (lambda: random_box_dense(4, 10, Fraction(9, 10), seed=1),
                        "K4minus", ("found", 17486382, 26804)),
    "m5c8d9/K4minus": (lambda: random_box_dense(5, 8, Fraction(9, 10), seed=1),
                       "K4minus", ("found", 22968924, 70510)),
    "m5c4d9/Fstar": (lambda: random_box_dense(5, 4, Fraction(9, 10), seed=1), "Fstar",
                     ("found", 76892484, 595750)),
    "mixed6c4/Fstar": (lambda: seeded_mixed_host(6, 0.9, seed=5, max_size=4), "Fstar",
                       ("found", 544674, 46159)),
    "mixed6c4/K4": (lambda: seeded_mixed_host(6, 0.9, seed=5, max_size=4), "K4",
                    ("found", 20472, 10032)),
}


@pytest.mark.parametrize("label", sorted(LARGE_CLASS_PINS))
def test_count_all_on_larger_classes_is_pinned(label):
    make_host, name, (status, count, nodes) = LARGE_CLASS_PINS[label]
    host = make_host()
    pat = pattern_catalog(name)
    r = find_reduced_image(host, pat, count_all=True)
    assert (r.status, r.count, r.nodes) == (status, count, nodes)
    for budget in (1, nodes // 3, nodes - 1):
        r = find_reduced_image(host, pat, count_all=True, budget=budget)
        assert (r.status, r.count, r.nodes) == ("budget-exhausted", None, budget + 1), budget
    r = find_reduced_image(host, pat, count_all=True, budget=nodes)
    assert (r.status, r.count, r.nodes) == (status, count, nodes)


def certificate_key(result):
    if result.certificate is None:
        return None
    rmap = result.certificate.rmap
    return (tuple(rmap.lam[u] for u in sorted(rmap.lam)),
            tuple(rmap.phi[p][1] for p in sorted(rmap.phi)))


@pytest.mark.parametrize("label", sorted(FIND_PINS))
def test_first_hit_nodes_certificates_and_budgets_are_pinned(label):
    host = PIN_HOSTS[label]()
    for name, (status, nodes, cert) in FIND_PINS[label].items():
        pat = pattern_catalog(name)
        r = find_reduced_image(host, pat)
        assert (r.status, r.nodes, certificate_key(r)) == (status, nodes, cert), name
        if r.certificate is not None:
            assert r.certificate.nodes == nodes
        for budget in sorted({1, nodes // 2, nodes - 1}):
            r = find_reduced_image(host, pat, budget=budget)
            assert (r.status, r.nodes, r.certificate) == \
                ("budget-exhausted", budget + 1, None), (name, budget)
        r = find_reduced_image(host, pat, budget=nodes)
        assert (r.status, r.nodes, certificate_key(r)) == (status, nodes, cert), name


@contextlib.contextmanager
def no_reuse():
    """Let the engine's table of searched leaves take no entries, so that
    every leaf is searched instead of replayed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, "LEAF_TABLE_CAP", 0)
        yield


def outcome(result):
    return (result.status, result.count, result.nodes, certificate_key(result))


@pytest.mark.parametrize("label", sorted(PIN_HOSTS))
def test_replayed_leaves_equal_searched_leaves(label):
    host = PIN_HOSTS[label]()
    for name in CATALOG:
        pat = pattern_catalog(name)
        for count_all in (False, True):
            reused = find_reduced_image(host, pat, count_all=count_all)
            with no_reuse():
                searched = find_reduced_image(host, pat, count_all=count_all)
            assert outcome(reused) == outcome(searched), (name, count_all)


# orient5's K4 first-hit search fails at 120 leaves, of which 12 are distinct.
@pytest.mark.parametrize("host, names, modes", [
    (PIN_HOSTS["mixed5d9/10c2"], CATALOG, (False, True)),
    (lambda: orientation_reduced(5), ("K4",), (False,))],
    ids=["mixed5d9/10c2", "orient5"])
def test_every_budget_below_the_node_count_is_exhausted_at_budget_plus_one(
        host, names, modes):
    host = host()
    for name in names:
        pat = pattern_catalog(name)
        for count_all in modes:
            nodes = find_reduced_image(host, pat, count_all=count_all).nodes
            for budget in range(1, nodes):
                r = find_reduced_image(host, pat, count_all=count_all, budget=budget)
                assert outcome(r) == ("budget-exhausted", None, budget + 1, None), \
                    (name, count_all, budget)


@pytest.mark.parametrize("a, b, c", list(itertools.permutations((2, 5, 7))))
def test_edge_layout_matches_slot_lookup(a, b, c):
    t, order = _edge_layout(a, b, c)
    assert t == tuple(sorted((a, b, c)))
    slot_pairs = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
    assert _SLOTS[order] == tuple(slot_pairs.index(sorted_pair(x, y))
                                  for x, y in ((a, b), (a, c), (b, c)))


@pytest.mark.parametrize("slots", _SLOTS)
def test_completion_table_reads_the_edges_in_slot_order(slots):
    x, y, z = slots
    for con in seeded_mixed_host(5, 0.5, seed=1, max_size=4).constituents.values():
        sy = con.sizes[y]
        table = [0] * (con.sizes[x] * sy)
        for e in con.edges:
            table[e[x] * sy + e[y]] |= 1 << e[z]
        assert _completions(con, x, y) == tuple(table)


def test_comp02_is_built_once_per_constituent():
    host = PIN_HOSTS["mixed6d1/2"]()
    for name in CATALOG:
        find_reduced_image(host, pattern_catalog(name), count_all=True)
    for con in host.constituents.values():
        comp02 = con.comp02
        assert comp02 is con.comp02
        if con.fwd is not None:
            assert con.fwd[0][2][0] is con.fwd[2][0][0] is comp02


def test_a_search_builds_no_constituent_edge_set():
    host = PIN_HOSTS["mixed6d1/2"]()
    for name in CATALOG:
        for count_all in (False, True):
            find_reduced_image(host, pattern_catalog(name), count_all=count_all)
    assert all(con._edges is None for con in host.constituents.values())


@st.composite
def small_instances(draw):
    """A random host and a random pattern small enough for the oracle."""
    n = draw(st.integers(1, 5))
    triples = list(itertools.combinations(range(1, n + 1), 3))
    edges = draw(st.lists(st.sampled_from(triples), unique=True)) if triples else []
    # Sometimes one more vertex, outside every edge.
    pattern = Pattern(n + draw(st.integers(0, 1)), edges)
    m = draw(st.integers(3, 5))
    p = draw(st.integers(1, 3))
    if m ** pattern.vertex_count * p ** len(pattern.shadow) > 200_000:
        p = 1
    d = Fraction(draw(st.integers(0, 10)), 10)
    host = random_box_dense(m, p, d, seed=draw(st.integers(0, 10 ** 6)))
    return host, pattern


@settings(max_examples=60, deadline=None, database=None)
@given(small_instances())
def test_engine_matches_oracle_on_generated_patterns(instance):
    host, pat = instance
    oracle = exhaustive_oracle(host, pat)
    count = find_reduced_image(host, pat, count_all=True)
    assert count.count == oracle.count
    assert count.status == ("found" if oracle.found else "not-found")
    first = find_reduced_image(host, pat)
    assert (first.status == "found") == oracle.found
    if first.certificate is not None:
        ok, violation = validate_reduced_map(host, pat, first.certificate.rmap)
        assert ok, violation
    with no_reuse():
        assert outcome(find_reduced_image(host, pat, count_all=True)) == outcome(count)
        assert outcome(find_reduced_image(host, pat)) == outcome(first)


@st.composite
def mixed_size_instances(draw):
    """A host whose classes have their own sizes in 1..3, with random
    constituents, and a catalog or generated pattern."""
    if draw(st.booleans()):
        pattern = pattern_catalog(draw(st.sampled_from(
            ["single_edge", "K4minus", "K4", "Fstar"])))
    else:
        n = draw(st.integers(3, 5))
        triples = list(itertools.combinations(range(1, n + 1), 3))
        pattern = Pattern(n, draw(st.lists(st.sampled_from(triples), unique=True)))
    m = draw(st.integers(max(3, pattern.vertex_count - 1), 6))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    sizes = dict(zip(pairs, draw(st.lists(st.integers(1, 3), min_size=len(pairs),
                                          max_size=len(pairs)))))
    d = draw(st.integers(1, 9)) / 10
    seed = draw(st.integers(0, 10 ** 6))
    host = mixed_host(m, sizes, d, seed)
    # Keep the oracle's candidate space small: shrink classes until it is.
    for cap in (3, 2, 1):
        space = 0
        for lam in itertools.permutations(range(1, m + 1), pattern.vertex_count):
            width = 1
            for u, v in pattern.shadow:
                width *= min(cap, host.class_size(lam[u - 1], lam[v - 1]))
            space += width
        if space <= 100_000:
            break
    if cap < 3:
        sizes = {p: min(cap, s) for p, s in sizes.items()}
        host = mixed_host(m, sizes, d, seed)
    return host, pattern


@settings(max_examples=80, deadline=None, database=None)
@given(mixed_size_instances())
def test_engine_matches_oracle_with_unequal_class_sizes(instance):
    host, pat = instance
    oracle = exhaustive_oracle(host, pat)
    count = find_reduced_image(host, pat, count_all=True)
    assert (count.status, count.count) == \
        ("found" if oracle.found else "not-found", oracle.count)
    first = find_reduced_image(host, pat)
    assert first.status == count.status
    if first.certificate is not None:
        ok, violation = validate_reduced_map(host, pat, first.certificate.rmap)
        assert ok, violation


def test_engine_matches_oracle_on_seeded_hosts():
    densities = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]
    names = ["single_edge", "K4minus", "K4", "Fstar"]
    rng = random.Random(123)
    for trial in range(12):
        m = rng.choice([4, 5, 6])
        p = rng.choice([1, 2]) if m >= 5 else rng.choice([1, 2, 3])
        d = densities[trial % 3]
        host = random_box_dense(m, p, d, seed=1000 + trial)
        for name in names:
            pat = pattern_catalog(name)
            oracle = exhaustive_oracle(host, pat)
            engine = find_reduced_image(host, pat)
            count = find_reduced_image(host, pat, count_all=True)
            assert (engine.status == "found") == oracle.found
            assert count.count == oracle.count
            if engine.certificate is not None:
                ok, violation = validate_reduced_map(host, pat, engine.certificate.rmap)
                assert ok, violation


def test_monotone_under_edge_addition():
    rng = random.Random(77)
    pat = pattern_catalog("K4minus")
    for trial in range(10):
        host = random_box_dense(5, 2, Fraction(1, 4), seed=trial)
        before = find_reduced_image(host, pat).status
        extra = {}
        for t in host.triples():
            if rng.random() < 0.5:
                extra[t] = [(rng.randrange(2), rng.randrange(2), rng.randrange(2))]
        bigger = ReducedHypergraph.with_uniform_classes(
            5, 2, {t: host.edges(t) | set(extra.get(t, ())) for t in host.triples()})
        after = find_reduced_image(bigger, pat).status
        if before == "found":
            assert after == "found"


def test_blow_up_containment_consistency():
    host = random_box_dense(5, 2, Fraction(3, 4), seed=5)
    pat = pattern_catalog("K4minus")
    if find_reduced_image(host, pat).status == "found":
        sub = Pattern(pat.vertex_count, sorted(pat.edges)[:-1])
        assert find_reduced_image(host, blow_up(sub, 1)).status == "found"


def reference_count(host, pattern, budget=None):
    """(status, count, nodes) of the plain branching count-all search, written
    out with sets: the index stage, then for each complete index map a
    class-vertex count that branches on the most constrained pair (lowest
    first on ties), forward-checks the pair's edges and multiplies out the
    pairs left with no unassigned neighbour.  Every leaf is searched, no
    subtree result is cached and no level is counted in closed form."""
    n, m = pattern.vertex_count, host.index_count
    pairs = sorted(pattern.shadow)
    pos = {p: i for i, p in enumerate(pairs)}
    edges = sorted(pattern.edges)
    edge_pairs = [(pos[(u, v)], pos[(u, w)], pos[(v, w)]) for u, v, w in edges]
    pair_edges = [[ei for ei, ps in enumerate(edge_pairs) if p in ps]
                  for p in range(len(pairs))]
    nbrs = [{q for ei in pair_edges[p] for q in edge_pairs[ei]} - {p}
            for p in range(len(pairs))]
    lam = [0] * (n + 1)
    nodes = total = 0

    def spend():
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise OverflowError

    def rel(ei):
        """The edges of edge ei's constituent with values put in the order of
        the edge's pairs uv, uw, vw."""
        u, v, w = edges[ei]
        t = tuple(sorted((lam[u], lam[v], lam[w])))
        slots = [[(t[0], t[1]), (t[0], t[2]), (t[1], t[2])].index(
            sorted_pair(lam[a], lam[b])) for a, b in ((u, v), (u, w), (v, w))]
        return {(e[slots[0]], e[slots[1]], e[slots[2]])
                for e in host.constituent(t).edges}

    def count_leaf():
        rels = [rel(ei) for ei in range(len(edges))]
        doms = []
        for p, (u, v) in enumerate(pairs):
            dom = set(range(host.class_size(*sorted_pair(lam[u], lam[v]))))
            for ei in pair_edges[p]:
                place = edge_pairs[ei].index(p)
                dom &= {e[place] for e in rels[ei]}
            doms.append(dom)
        if not all(doms):
            return 0

        def fits(ei, values):
            return tuple(values[q] for q in edge_pairs[ei]) in rels[ei]

        def rec(settled, values, doms):
            open_ = [p for p in range(len(pairs)) if p not in settled]
            freed = [p for p in open_ if nbrs[p] <= settled]
            mult = 1
            for p in freed:
                mult *= len(doms[p])
            if mult == 0:
                return 0
            todo = [p for p in open_ if p not in freed]
            if not todo:
                return mult
            p = min(todo, key=lambda q: (len(doms[q]), q))
            subtotal = 0
            for val in sorted(doms[p]):
                spend()
                now = {**values, p: val}
                narrowed = list(doms)
                narrowed[p] = {val}
                for ei in pair_edges[p]:
                    q, r = [x for x in edge_pairs[ei] if x != p]
                    if q in now and r in now:
                        continue
                    for x, y in ((q, r), (r, q)):
                        if x in now:
                            continue
                        if y in now:
                            narrowed[x] = {a for a in narrowed[x]
                                           if fits(ei, {**now, x: a})}
                        else:
                            size = host.class_size(*sorted_pair(
                                *(lam[z] for z in pairs[y])))
                            narrowed[x] = {a for a in narrowed[x] if any(
                                fits(ei, {**now, x: a, y: b}) for b in range(size))}
                if all(narrowed):
                    subtotal += rec(settled | {p, *freed}, now, narrowed)
            return mult * subtotal

        return rec(frozenset(), {}, doms)

    def lam_rec(u):
        nonlocal total
        if u > n:
            total += count_leaf()
            return
        for i in range(1, m + 1):
            spend()
            if any(lam[a] == i for a, b in pairs if b == u):
                continue
            lam[u] = i
            if all(host.constituent(tuple(sorted((lam[a], lam[b], i)))).edges
                   for a, b, c in edges if c == u):
                lam_rec(u + 1)

    try:
        lam_rec(1)
    except OverflowError:
        return ("budget-exhausted", None, budget + 1)
    return ("found" if total else "not-found", total, nodes)


@st.composite
def counting_instances(draw, densities=st.integers(3, 10)):
    """A host with classes of 1 to 4 (1 to 3 under patterns of more than six
    shadow pairs, which keeps the reference quick) and density drawn from
    densities in tenths, and a catalog or generated pattern, the generated
    one sometimes with a vertex outside every edge."""
    if draw(st.booleans()):
        pattern = pattern_catalog(draw(st.sampled_from(CATALOG)))
    else:
        n = draw(st.integers(3, 5))
        triples = list(itertools.combinations(range(1, n + 1), 3))
        edges = draw(st.lists(st.sampled_from(triples), min_size=1, unique=True))
        pattern = Pattern(n + draw(st.integers(0, 1)), edges)
    m = draw(st.integers(max(3, pattern.vertex_count - 1), 5))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    top = 4 if len(pattern.shadow) <= 6 else 3
    sizes = dict(zip(pairs, draw(st.lists(st.integers(1, top), min_size=len(pairs),
                                          max_size=len(pairs)))))
    d = draw(densities) / 10
    return mixed_host(m, sizes, d, draw(st.integers(0, 10 ** 6))), pattern


@settings(max_examples=60, deadline=None, database=None)
@given(counting_instances(), st.data())
def test_count_all_matches_the_plain_branching_search(instance, data):
    host, pat = instance
    want = reference_count(host, pat)
    assert outcome(find_reduced_image(host, pat, count_all=True))[:3] == want
    nodes = want[2]
    for budget in data.draw(st.lists(st.integers(1, nodes + 1), min_size=1, max_size=3)):
        got = find_reduced_image(host, pat, count_all=True, budget=budget)
        assert outcome(got)[:3] == reference_count(host, pat, budget), budget


def reference_find(host, pattern, budget=None):
    """(status, certificate, nodes) of the plain first-hit search, written
    out with sets: the index stage of reference_count, then for each complete
    index map a class-vertex search that branches on the most constrained
    unassigned pair (lowest first on ties), tries its values ascending,
    forward-checks the pair's edges and stops at the first complete map.
    Every leaf is searched; the certificate is as in certificate_key."""
    n, m = pattern.vertex_count, host.index_count
    pairs = sorted(pattern.shadow)
    pos = {p: i for i, p in enumerate(pairs)}
    edges = sorted(pattern.edges)
    edge_pairs = [(pos[(u, v)], pos[(u, w)], pos[(v, w)]) for u, v, w in edges]
    lam = [0] * (n + 1)
    nodes = 0

    def spend():
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise OverflowError

    def find_leaf():
        rels = []
        for u, v, w in edges:
            t = tuple(sorted((lam[u], lam[v], lam[w])))
            slot_pairs = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
            slots = [slot_pairs.index(sorted_pair(lam[a], lam[b]))
                     for a, b in ((u, v), (u, w), (v, w))]
            rels.append({tuple(e[s] for s in slots) for e in host.constituent(t).edges})
        sizes = [host.class_size(*sorted_pair(lam[u], lam[v])) for u, v in pairs]
        doms = [set(range(size)) for size in sizes]
        for ps, rel in zip(edge_pairs, rels):
            for place, p in enumerate(ps):
                doms[p] &= {e[place] for e in rel}
        if not all(doms):
            return None

        def rec(values, doms):
            open_ = [p for p in range(len(pairs)) if p not in values]
            if not open_:
                return values
            p = min(open_, key=lambda q: (len(doms[q]), q))
            for val in sorted(doms[p]):
                spend()
                now = {**values, p: val}
                narrowed = list(doms)
                narrowed[p] = {val}
                for ps, rel in zip(edge_pairs, rels):
                    if p not in ps:
                        continue
                    for x in ps:
                        if x in now:
                            continue
                        (y,) = set(ps) - {p, x}

                        def fits(a, b):
                            got = {**now, x: a, y: b}
                            return tuple(got[z] for z in ps) in rel

                        if y in now:
                            narrowed[x] = {a for a in narrowed[x] if fits(a, now[y])}
                        else:
                            narrowed[x] = {a for a in narrowed[x]
                                           if any(fits(a, b) for b in range(sizes[y]))}
                if all(narrowed):
                    hit = rec(now, narrowed)
                    if hit is not None:
                        return hit
            return None

        return rec({}, doms)

    def lam_rec(u):
        if u > n:
            return find_leaf()
        for i in range(1, m + 1):
            spend()
            if any(lam[a] == i for a, b in pairs if b == u):
                continue
            lam[u] = i
            if all(host.constituent(tuple(sorted((lam[a], lam[b], i)))).edges
                   for a, b, c in edges if c == u):
                hit = lam_rec(u + 1)
                if hit is not None:
                    return hit
        return None

    try:
        phi = lam_rec(1)
    except OverflowError:
        return ("budget-exhausted", None, budget + 1)
    if phi is None:
        return ("not-found", None, nodes)
    return ("found", (tuple(lam[1:]), tuple(phi[p] for p in range(len(pairs)))), nodes)


def find_outcome(result):
    return (result.status, certificate_key(result), result.nodes)


def test_reference_find_reproduces_the_first_hit_pins():
    for label, pins in FIND_PINS.items():
        host = PIN_HOSTS[label]()
        for name, (status, nodes, cert) in pins.items():
            assert reference_find(host, pattern_catalog(name)) == (status, cert, nodes), \
                (label, name)


@settings(max_examples=200, deadline=None, database=None)
# Sparser hosts, so that the first-hit search backtracks and often refutes.
@given(counting_instances(densities=st.integers(1, 6)), st.data())
def test_first_hit_matches_the_plain_first_hit_search(instance, data):
    host, pat = instance
    want = reference_find(host, pat)
    assert find_outcome(find_reduced_image(host, pat)) == want
    nodes = want[2]
    for budget in data.draw(st.lists(st.integers(1, nodes + 1), min_size=1, max_size=3)):
        got = find_reduced_image(host, pat, budget=budget)
        assert find_outcome(got) == reference_find(host, pat, budget), budget


# Patterns whose cached plans take the cache key's rarer shapes: a frontier
# of one pair (its getter returns the bare value), no frontier pair (a
# constant), and freed pairs multiplied out around a cache hit.
KEY_SHAPE_PATTERNS = {
    "two_edges": Pattern(4, [(1, 2, 3), (1, 2, 4)]),
    "K4minus": pattern_catalog("K4minus"),
    "K4": pattern_catalog("K4"),
}


@pytest.mark.parametrize("seed", range(4))
def test_count_all_matches_the_plain_search_on_every_key_shape(seed):
    host = seeded_mixed_host(5, 0.8, seed=seed, max_size=3)
    shapes = set()
    for name, pat in KEY_SHAPE_PATTERNS.items():
        engine = _Engine(host, pat)
        got = engine.run(None, True)
        want = reference_count(host, pat)
        assert (got.status, got.count, got.nodes) == want, name
        for budget in (want[2] // 2, want[2] - 1):
            r = find_reduced_image(host, pat, count_all=True, budget=budget)
            assert outcome(r)[:3] == reference_count(host, pat, budget), (name, budget)
        # every pair lies in an edge with two others, so none is freed at the root
        assert engine._plans[0].freed == ()
        for plan in engine._plans.values():
            # a todo pair has an unassigned neighbour, which is todo too
            assert len(plan.todo) != 1
            if plan.memo:
                shapes.add(("frontier", min(len(plan.frontier), 2)))
                shapes.add(("freed", bool(plan.freed)))
    assert shapes >= {("frontier", 0), ("frontier", 1), ("freed", True)}
