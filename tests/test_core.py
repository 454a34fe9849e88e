"""Core model tests: densities, shadows, blow-ups, catalog, invariants."""

import itertools
import random
from fractions import Fraction

import pytest

from redhyp import (DomainError, Pattern, ReducedHypergraph, blow_up,
                    constituent_density, is_box_dense, pattern_catalog,
                    random_box_dense)
from redhyp.constructions import orientation_reduced
from redhyp.core import sorted_pair, sorted_triple


def complete_host(m, p):
    return random_box_dense(m, p, 1, seed=0)


def test_density_complete_empty_orientation():
    h = complete_host(3, 2)
    assert constituent_density(h, (1, 2, 3)) == 1
    empty = random_box_dense(3, 2, 0, seed=0)
    assert constituent_density(empty, (1, 2, 3)) == 0
    orient = orientation_reduced(4)
    assert constituent_density(orient, (1, 2, 4)) == Fraction(1, 4)


def test_density_unknown_triple():
    h = complete_host(4, 1)
    with pytest.raises(DomainError):
        constituent_density(h, (1, 2, 5))
    with pytest.raises(DomainError):
        constituent_density(h, (1, 1, 2))


def test_density_is_exact_rational():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(3, 5)
        p = rng.randint(1, 4)
        h = random_box_dense(m, p, Fraction(rng.randint(0, 8), 8),
                             seed=rng.randint(0, 999))
        for t in h.triples():
            d = constituent_density(h, t)
            assert d * p ** 3 == h.edge_count(t)


def test_hosts_differing_in_one_edge_are_unequal():
    h = random_box_dense(4, 2, Fraction(1, 2), seed=1)
    cons = {t: set(h.edges(t)) for t in h.triples()}
    assert ReducedHypergraph.with_uniform_classes(4, 2, cons) == h
    for t in h.triples():
        for e in itertools.product(range(2), repeat=3):
            other = ReducedHypergraph.with_uniform_classes(
                4, 2, {**cons, t: cons[t] ^ {e}})
            assert other != h and h != other


def test_is_box_dense_cases():
    h = complete_host(4, 2)
    assert is_box_dense(h, 1) == (True, None)
    orient = orientation_reduced(5)
    assert is_box_dense(orient, Fraction(1, 4)) == (True, None)
    ok, witness = is_box_dense(orient, Fraction(1, 4) + Fraction(1, 1000))
    assert not ok and witness == (1, 2, 3)
    cons = {t: list(h.edges(t)) for t in h.triples()}
    cons[(2, 3, 4)] = []
    h2 = ReducedHypergraph.with_uniform_classes(4, 2, cons)
    ok, witness = is_box_dense(h2, Fraction(1, 8))
    assert not ok and witness == (2, 3, 4)


def test_is_box_dense_refuses_a_float_threshold():
    # 0.25 is exactly 1/4, and still refused: no float reaches a decision.
    for d in (0.25, 0.1):
        with pytest.raises(DomainError, match="^density threshold must be an exact "
                                              "rational, got float "):
            is_box_dense(complete_host(4, 2), d)


def test_is_box_dense_monotone():
    rng = random.Random(3)
    for _ in range(20):
        h = random_box_dense(rng.randint(3, 5), rng.randint(1, 3),
                             Fraction(rng.randint(0, 10), 10),
                             seed=rng.randint(0, 99))
        d1 = Fraction(rng.randint(0, 12), 12)
        d2 = Fraction(rng.randint(0, 12), 12)
        if d2 > d1:
            d1, d2 = d2, d1
        if is_box_dense(h, d1)[0]:
            assert is_box_dense(h, d2)[0]


def test_is_box_dense_rejects_bad_threshold():
    h = complete_host(3, 1)
    with pytest.raises(DomainError):
        is_box_dense(h, Fraction(5, 4))


def test_density_invariant_under_index_relabeling():
    rng = random.Random(11)
    for _ in range(10):
        m = rng.randint(4, 6)
        h = random_box_dense(m, 2, Fraction(1, 2), seed=rng.randint(0, 99))
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        g = h.induced(perm)
        for x, y, z in g.triples():
            orig = sorted_triple(perm[x - 1], perm[y - 1], perm[z - 1])
            assert constituent_density(g, (x, y, z)) == constituent_density(h, orig)


def test_shadow_examples():
    fstar = pattern_catalog("Fstar")
    assert fstar.shadow == frozenset(itertools.combinations(range(1, 6), 2))
    k4m = pattern_catalog("K4minus")
    assert k4m.shadow == frozenset(itertools.combinations(range(1, 5), 2))
    single = pattern_catalog("single_edge")
    assert single.shadow == frozenset({(1, 2), (1, 3), (2, 3)})


def test_shadow_matches_definition():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 6)
        edges = set()
        for _ in range(rng.randint(0, 8)):
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 3))))
        p = Pattern(n, edges)
        expected = {tuple(sorted(set(e) - {x})) for e in edges for x in e}
        assert p.shadow == frozenset(expected)


def test_blow_up_identity_and_counts():
    fstar = pattern_catalog("Fstar")
    assert blow_up(fstar, 1) == fstar
    single = pattern_catalog("single_edge")
    doubled = blow_up(single, 2)
    assert doubled.vertex_count == 6
    assert len(doubled.edges) == 8
    k4m2 = blow_up(pattern_catalog("K4minus"), 2)
    assert len(k4m2.edges) == 24
    with pytest.raises(DomainError):
        blow_up(single, 0)


def test_blow_up_shadow_is_pairwise_blow_up():
    # The blown-up shadow must be exactly the pairs of copies whose
    # originals are distinct and shadow-adjacent.
    for name in ("single_edge", "K4minus", "Fstar"):
        p = pattern_catalog(name)
        for t in (2, 3):
            big = blow_up(p, t)
            expected = set()
            for u, v in p.shadow:
                for su, sv in itertools.product(range(t), repeat=2):
                    expected.add(sorted_pair((u - 1) * t + su + 1,
                                             (v - 1) * t + sv + 1))
            assert big.shadow == frozenset(expected)


def test_pattern_catalog():
    fstar = pattern_catalog("Fstar")
    assert fstar.vertex_count == 5
    assert fstar.edges == frozenset(
        {(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 5), (3, 4, 5)})
    k4m = pattern_catalog("K4minus")
    assert k4m.edges == frozenset({(1, 2, 3), (1, 2, 4), (1, 3, 4)})
    assert all(1 in e for e in k4m.edges)  # apex at vertex 1
    k4 = pattern_catalog("K4")
    assert len(k4.edges) == 4 and k4.vertex_count == 4
    with pytest.raises(DomainError):
        pattern_catalog("K5")


def test_pattern_validation():
    with pytest.raises(DomainError):
        Pattern(3, [(1, 2, 2)])
    with pytest.raises(DomainError):
        Pattern(3, [(1, 2, 4)])
    with pytest.raises(DomainError):
        Pattern(0, [])


def test_a_malformed_pattern_edge_is_a_domain_error():
    # (1, 1, 2, 3) has three distinct values, so only its length gives it away
    for edges, message in (
            ([(1, 1, 2, 3)], "pattern edge (1, 1, 2, 3) must have three distinct vertices"),
            ([(1, 2)], "pattern edge (1, 2) must have three distinct vertices")):
        with pytest.raises(DomainError) as err:
            Pattern(5, edges)
        assert str(err.value) == message


def test_host_validation():
    with pytest.raises(DomainError):  # missing class size
        ReducedHypergraph(3, {(1, 2): 1, (1, 3): 1}, {})
    with pytest.raises(DomainError):  # zero class size
        ReducedHypergraph.with_uniform_classes(3, 0, {})
    with pytest.raises(DomainError):  # edge out of range
        ReducedHypergraph.with_uniform_classes(3, 1, {(1, 2, 3): [(0, 0, 1)]})
    with pytest.raises(DomainError):  # duplicate edge
        ReducedHypergraph.with_uniform_classes(
            3, 2, {(1, 2, 3): [(0, 0, 0), (0, 0, 0)]})
    with pytest.raises(DomainError):  # unsorted constituent key
        ReducedHypergraph.with_uniform_classes(3, 1, {(2, 1, 3): [(0, 0, 0)]})


def test_a_malformed_host_edge_is_a_domain_error():
    for edge in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(DomainError) as err:
            ReducedHypergraph.with_uniform_classes(3, 2, {(1, 2, 3): [edge]})
        assert str(err.value) == f"edge {edge} of constituent (1, 2, 3) must have three vertices"


_SIZES3 = {(1, 2): 2, (1, 3): 2, (2, 3): 3}


@pytest.mark.parametrize("m,sizes,cons,message", [
    (1, {}, {}, "index_count must be >= 2, got 1"),
    (-4, {}, {}, "index_count must be >= 2, got -4"),
    (3, {(2, 1): 1, (1, 3): 1, (2, 3): 1}, {}, "class pair (2, 1) is not sorted within 1..3"),
    (3, {(1, 2): 1, (1, 4): 1}, {}, "class pair (1, 4) is not sorted within 1..3"),
    (3, {(0, 1): 1}, {}, "class pair (0, 1) is not sorted within 1..3"),
    (3, {(1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1}, {},
     "class pair (1, 1) is not sorted within 1..3"),
    (3, {(1, 2): 1, (1, 3): 0, (2, 3): 1}, {}, "class P^{1,3} must have size >= 1, got 0"),
    (3, {(1, 2): 1, (2, 3): 1}, {}, "missing class size for pair (1, 3)"),
    (3, _SIZES3, {(2, 1, 3): [(0, 0, 0)]}, "constituent key (2, 1, 3) must be a sorted triple"),
    (3, _SIZES3, {(1, 2): []}, "constituent key (1, 2) must be a sorted triple"),
    (3, _SIZES3, {(1, 2, 3, 4): []}, "constituent key (1, 2, 3, 4) must be a sorted triple"),
    (3, _SIZES3, {(1, 1, 3): []}, "constituent key (1, 1, 3) out of range 1..3"),
    (3, _SIZES3, {(1, 2, 4): []}, "constituent key (1, 2, 4) out of range 1..3"),
    (3, _SIZES3, {(0, 1, 2): [(0, 0, 0)]}, "constituent key (0, 1, 2) out of range 1..3"),
    (3, _SIZES3, {(1, 2, 3): [(0, 2, 0)]},
     "edge (0, 2, 0) of constituent (1, 2, 3) out of class ranges (2, 2, 3)"),
    # faults are reported in input order: an earlier triple's bad edge
    # comes before a later triple's bad key, and a bad key before a later bad edge
    (3, _SIZES3, {(1, 2, 3): [(0, 0, 0), (0, 0, 3)], (1, 2, 4): []},
     "edge (0, 0, 3) of constituent (1, 2, 3) out of class ranges (2, 2, 3)"),
    (3, _SIZES3, {(1, 2, 3): [(0, 0, -1)], (2, 1, 3): []},
     "edge (0, 0, -1) of constituent (1, 2, 3) out of class ranges (2, 2, 3)"),
    (3, _SIZES3, {(1, 2, 3): [(1, 0, 0), (1, 0, 0)], (1, 2, 4): []},
     "duplicate edge (1, 0, 0) in constituent (1, 2, 3)"),
    (3, _SIZES3, {(1, 2, 4): [], (1, 2, 3): [(0, 0, -1)]},
     "constituent key (1, 2, 4) out of range 1..3"),
])
def test_host_validation_error_messages(m, sizes, cons, message):
    with pytest.raises(DomainError) as err:
        ReducedHypergraph(m, sizes, cons)
    assert str(err.value) == message


@pytest.mark.parametrize("edges,message", [
    ([(0, 0, 3)], "edge (0, 0, 3) of constituent (1, 2, 3) out of class ranges (2, 2, 3)"),
    ([(2, 0, 0)], "edge (2, 0, 0) of constituent (1, 2, 3) out of class ranges (2, 2, 3)"),
    ([(0, -1, 0)], "edge (0, -1, 0) of constituent (1, 2, 3) out of class ranges (2, 2, 3)"),
    ([(0, 0, 0), (1, 1, 1), (0, 0, 0)], "duplicate edge (0, 0, 0) in constituent (1, 2, 3)"),
    # the first offending edge in input order is named, whatever its fault
    ([(0, 0, 0), (1, 1, 1), (0, 0, 3), (1, 1, 1)],
     "edge (0, 0, 3) of constituent (1, 2, 3) out of class ranges (2, 2, 3)"),
    ([(0, 0, 0), (1, 1, 1), (1, 1, 1), (0, 0, 3)],
     "duplicate edge (1, 1, 1) in constituent (1, 2, 3)"),
    ([[0, 0, 0], [1, 1, 1], [0, 0, 0]], "duplicate edge [0, 0, 0] in constituent (1, 2, 3)"),
    ([[0, 0, 0], [1, 1, 7]], "edge [1, 1, 7] of constituent (1, 2, 3) out of class ranges (2, 2, 3)"),
])
def test_host_edge_error_messages(edges, message):
    sizes = {(1, 2): 2, (1, 3): 2, (2, 3): 3}
    with pytest.raises(DomainError) as err:
        ReducedHypergraph(3, sizes, {(1, 2, 3): edges})
    assert str(err.value) == message


def test_host_constructor_reads_each_edge_collection_once():
    # One one-shot generator per constituent builds the host that lists
    # build, and names the same first fault.
    host = random_box_dense(5, 3, Fraction(1, 2), seed=1)

    def build(cons, one_shot):
        return ReducedHypergraph(5, host.class_sizes,
                                 {t: (e for e in edges) if one_shot else list(edges)
                                  for t, edges in cons.items()})

    cons = {t: host.constituent(t).sorted_edges()[::-1] for t in host.triples()}
    assert build(cons, True) == build(cons, False) == host
    for bad, message in (
            ([(0, 0, 0), (1, 1, 1), (0, 0, 3), (1, 1, 1)], "edge (0, 0, 3) of constituent "
             "(2, 3, 4) out of class ranges (3, 3, 3)"),
            ([(0, 0, 0), (1, 1, 1), (1, 1, 1), (0, 0, 3)],
             "duplicate edge (1, 1, 1) in constituent (2, 3, 4)"),
            ([(2, 2, 2), (0, 0, 0), (2, 2, 2)],
             "duplicate edge (2, 2, 2) in constituent (2, 3, 4)")):
        for faulty in ({(2, 3, 4): bad}, {**cons, (2, 3, 4): bad}):
            for one_shot in (True, False):
                with pytest.raises(DomainError) as err:
                    build(faulty, one_shot)
                assert str(err.value) == message


def test_constituent_tables_match_edges():
    rng = random.Random(3)
    sizes = {(1, 2): 3, (1, 3): 4, (2, 3): 2}
    edges = {(a, b, c) for a in range(3) for b in range(4) for c in range(2)
             if rng.random() < 0.3}
    con = ReducedHypergraph(3, sizes, {(1, 2, 3): edges}).constituent((1, 2, 3))
    assert con.fwd is None and con.occupied is None
    con.ensure_search_tables()
    for x, y in itertools.permutations(range(3), 2):
        z = 3 - x - y
        comp, mx, my, proj = con.fwd[x][y]
        for vx in range(con.sizes[x]):
            for vy in range(con.sizes[y]):
                assert comp[vx * mx + vy * my] == sum(
                    {1 << e[z] for e in edges if (e[x], e[y]) == (vx, vy)})
            assert proj[vx] == sum({1 << e[y] for e in edges if e[x] == vx})
    for (x, y), comp in zip(((0, 1), (1, 2)), (con.comp01, con.comp12)):
        assert con.fwd[x][y][0] is comp
    assert con.occupied == tuple(sum({1 << e[s] for e in edges}) for s in range(3))


@pytest.mark.parametrize("call,message", [
    (lambda h: h.induced([1, 2, 1]), "index_map must be injective"),
    (lambda h: h.induced([1, 5, 2]), "index 5 out of range 1..4"),
    (lambda h: h.induced([0, 1, 2]), "index 0 out of range 1..4"),
    (lambda h: h.class_size(1, 5), "unknown class pair (1, 5)"),
    (lambda h: h.class_size(2, 2), "unknown class pair (2, 2)"),
])
def test_host_argument_refusals_are_pinned(call, message):
    with pytest.raises(DomainError) as err:
        call(complete_host(4, 2))
    assert str(err.value) == message


@pytest.mark.parametrize("sizes,count", [
    ((8, 8, 16), 900), ((1, 1, 1024), 600), ((1, 1, 1025), 600), ((8, 8, 17), 1000),
    ((6, 6, 6), 120), ((6, 6, 6), 90), ((1, 1, 2000), 300), ((40, 40, 3), 300),
    ((13, 17, 19), 300), ((64, 2, 65), 300), ((3, 4, 5), 300), ((2, 2, 2), 8)])
def test_constituent_tables_on_both_sides_of_the_flat_path(sizes, count):
    # Up to 1024 cells, at least half of them edges, comp01 is sliced from
    # one int of the cells' bits; otherwise each cell's bit is set in its
    # entry.  Both must give the tables the edges give, and see a repeat.
    rng = random.Random(sum(sizes) + count)
    s0, s1, s2 = sizes
    cells = rng.sample(range(s0 * s1 * s2 - 1), min(count, s0 * s1 * s2) - 1)
    edges = {(x // (s1 * s2), x // s2 % s1, x % s2) for x in cells}
    edges.add((s0 - 1, s1 - 1, s2 - 1))
    classes = {(1, 2): s0, (1, 3): s1, (2, 3): s2}
    con = ReducedHypergraph(3, classes, {(1, 2, 3): edges}).constituent((1, 2, 3))
    assert con.comp01 == [sum(1 << c for a, b, c in edges if a * s1 + b == key)
                          for key in range(s0 * s1)]
    assert (con.edge_count(), con.edges) == (len(edges), edges)
    top = max(edges)
    with pytest.raises(DomainError) as err:
        ReducedHypergraph(3, classes, {(1, 2, 3): [*sorted(edges), top]})
    assert str(err.value) == f"duplicate edge {top} in constituent (1, 2, 3)"


def test_hosts_and_patterns_compare_only_with_their_own_kind():
    host, pattern = complete_host(4, 2), pattern_catalog("K4")
    assert host.__eq__(pattern) is NotImplemented and host != pattern
    assert pattern.__eq__(host) is NotImplemented and pattern != host
    assert (repr(pattern), repr(Pattern(3, [(1, 2, 3)]))) == \
        ("Pattern 'K4'(v=4, e=4)", "Pattern(v=3, e=1)")


def test_induced_reversal_matches_by_hand():
    h = complete_host(4, 2)
    cons = {t: set(h.edges(t)) for t in h.triples()}
    cons[(1, 2, 3)] = {(0, 1, 0)}
    h = ReducedHypergraph.with_uniform_classes(4, 2, cons)
    g = h.induced([3, 2, 1])  # new 1=old 3, new 2=old 2, new 3=old 1
    # Old edge (a, b, c) in classes (P12, P13, P23) becomes (c, b, a) in
    # new classes (P'12, P'13, P'23) = (P23, P13, P12).
    assert g.edges((1, 2, 3)) == frozenset({(0, 1, 0)})
    cons[(1, 2, 3)] = {(0, 1, 1)}
    h = ReducedHypergraph.with_uniform_classes(4, 2, cons)
    g = h.induced([3, 2, 1])
    assert g.edges((1, 2, 3)) == frozenset({(1, 1, 0)})


def _induced_from_scratch(host, index_map):
    """host.induced(index_map) rebuilt through the validating constructor:
    each edge is read as {class pair: vertex} and written in the new slots."""
    n = len(index_map)
    sizes = {(x, y): host.class_size(index_map[x - 1], index_map[y - 1])
             for x, y in itertools.combinations(range(1, n + 1), 2)}
    cons = {}
    for x, y, z in itertools.combinations(range(1, n + 1), 3):
        ox, oy, oz = index_map[x - 1], index_map[y - 1], index_map[z - 1]
        i, j, k = sorted_triple(ox, oy, oz)
        cons[(x, y, z)] = [
            (by_pair[sorted_pair(ox, oy)], by_pair[sorted_pair(ox, oz)],
             by_pair[sorted_pair(oy, oz)])
            for by_pair in ({(i, j): a, (i, k): b, (j, k): c}
                            for a, b, c in host.edges((i, j, k)))]
    return ReducedHypergraph(n, sizes, cons)


@pytest.mark.parametrize("index_map", [
    [1, 2, 3, 4, 5, 6], [2, 3, 5, 6], [6, 5, 4, 3, 2, 1], [5, 3, 2],
    [3, 1, 6, 2, 5], [4, 6, 1, 2]])
def test_induced_matches_a_fresh_host_and_shares_kept_triples(index_map):
    rng = random.Random(11)
    sizes = {p: rng.randint(1, 4) for p in itertools.combinations(range(1, 7), 2)}
    cons = {(i, j, k): {(rng.randrange(sizes[(i, j)]), rng.randrange(sizes[(i, k)]),
                         rng.randrange(sizes[(j, k)])) for _ in range(rng.randint(0, 9))}
            for i, j, k in itertools.combinations(range(1, 7), 3)}
    host = ReducedHypergraph(6, sizes, cons)
    got = host.induced(index_map)
    want = _induced_from_scratch(host, index_map)
    assert got == want
    for t in got.triples():
        g, w = got.constituent(t), want.constituent(t)
        assert (g.sizes, g.edges, g.comp01, g.comp12) == (w.sizes, w.edges, w.comp01, w.comp12)
        images = [index_map[x - 1] for x in t]
        # shared exactly where the order is kept: always, for a monotone map
        assert (g is host.constituent(images)) == (images == sorted(images))
        g.ensure_search_tables()
        w.ensure_search_tables()
        assert (g.fwd, g.occupied) == (w.fwd, w.occupied)
