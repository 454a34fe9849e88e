"""Construction tests: seeded hosts, tournaments, cyclic triples,
orientation hosts, and blow-ups."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from redhyp import (DomainError, Tournament, constituent_density,
                    cyclic_triple_3graph, exhaustive_oracle, is_box_dense,
                    orientation_reduced, pattern_catalog, random_box_dense,
                    random_tournament, reduced_blow_up)
from redhyp.constructions import _sample_indices, is_cyclic_triple
from redhyp.fileio import write_host


def test_random_box_dense_extremes():
    full = random_box_dense(4, 2, 1, seed=1)
    assert all(full.edge_count(t) == 8 for t in full.triples())
    empty = random_box_dense(4, 2, 0, seed=1)
    assert all(empty.edge_count(t) == 0 for t in empty.triples())


def test_random_box_dense_meets_threshold_exactly():
    d = Fraction(1, 4) + Fraction(1, 10)
    host = random_box_dense(6, 4, d, seed=42)
    assert is_box_dense(host, d)[0]
    expected = -(-(d * 64).numerator // (d * 64).denominator)  # ceil(d * 64)
    assert all(host.edge_count(t) == expected for t in host.triples())


def test_random_box_dense_reproducible():
    a = random_box_dense(5, 3, Fraction(1, 2), seed=7)
    b = random_box_dense(5, 3, Fraction(1, 2), seed=7)
    c = random_box_dense(5, 3, Fraction(1, 2), seed=8)
    assert a == b
    assert a != c


def _randrange_sample(rng, n, k):
    """The partial Fisher-Yates draw through random.randrange, the way the
    generator drew it before its draws were written out."""
    pool = list(range(n))
    for i in range(k):
        j = rng.randrange(i, n)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3])
def test_sample_indices_draws_the_randrange_stream(seed):
    mine, ref = random.Random(seed), random.Random(seed)
    for n in range(1, 301):
        for k in sorted({0, 1, n // 2, n}):
            assert _sample_indices(mine, n, k) == _randrange_sample(ref, n, k), (n, k)
            assert mine.getstate() == ref.getstate(), (n, k)


# sha256 of write_host(random_box_dense(m, p, d, seed)): the generator's
# byte stream, recorded before its draws and its writer were rewritten.
HOST_DIGESTS = [
    ((4, 3, 0, 1), "b8e6c7b3aed5144900f66491ac13bfb702018ebd746d5f66a8e91528ef65c202"),
    ((4, 3, 1, 1), "ab99eba8c5f5e95e6acb1bd9eb91d2cad35269a4f41cae67545f23f1a77ee62c"),
    ((5, 1, Fraction(1, 2), 2), "bd717d0a251cce30a08102f5ae02be06d84ab0fa3e39a6fe6cb362af35f892e5"),
    ((2, 3, Fraction(1, 2), 3), "fae3eae897c8c6600576ccd30fa8e0dbd23838229c07e498b39e5796fdf39b4b"),
    ((4, 17, Fraction(1, 10), 4),
     "494edd681b4dba813685481f3c86b6346dac5c17393edbb6bf923736abb01321"),
    ((6, 4, Fraction(7, 20), 42),
     "0693e8967943676f4db2cb5f7aa943003a69d88867ed63d312e001607c8194ad"),
    ((12, 6, Fraction(9, 10), 0),  # the benchmark's first dense M=12 host
     "25dedfb4bf019b5355d3235cd371d249687f163aebcf3617a9e18e8b50e291e5"),
    ((30, 2, 1, 0), "096812648852927011a14cd4341eadbc4869aee5d302ce753feb461f029fecb8"),
]


@pytest.mark.parametrize("shape, digest", HOST_DIGESTS)
def test_generated_host_bytes_are_pinned(shape, digest):
    m, p, d, seed = shape
    text = write_host(random_box_dense(m, p, d, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_tournament_beats_agrees_with_the_orientation_bits():
    pairs = list(itertools.combinations(range(1, 5), 2))
    for bits in itertools.product((0, 1), repeat=6):
        t = Tournament(4, dict(zip(pairs, bits)))
        for (i, j), bit in t.orient.items():
            assert t.beats(i, j) is (bit == 1)
            assert t.beats(j, i) is (bit == 0)
        for a, b, c in itertools.combinations(range(1, 5), 3):
            cycle = (t.beats(a, b) and t.beats(b, c) and t.beats(c, a)
                     or t.beats(b, a) and t.beats(c, b) and t.beats(a, c))
            assert is_cyclic_triple(t, a, b, c) is cycle
            assert is_cyclic_triple(t, c, a, b) is cycle
        for a in range(1, 5):
            with pytest.raises(DomainError, match="a vertex does not play itself"):
                t.beats(a, a)


def test_cyclic_triple_transitive_and_smallest():
    transitive = Tournament(7, dict.fromkeys(itertools.combinations(range(1, 8), 2), 1))
    assert len(cyclic_triple_3graph(transitive).edges) == 0
    cyclic = Tournament(3, {(1, 2): 1, (1, 3): 0, (2, 3): 1})  # 1->2->3->1
    assert len(cyclic_triple_3graph(cyclic).edges) == 1


def test_all_64_tournaments_on_four_vertices_cap_at_two():
    # Direct enumeration: no orientation of 4 vertices has 3 cyclic triples.
    pairs = list(itertools.combinations(range(1, 5), 2))
    best = 0
    for bits in itertools.product((0, 1), repeat=6):
        t = Tournament(4, dict(zip(pairs, bits)))
        count = sum(1 for triple in itertools.combinations(range(1, 5), 3)
                    if is_cyclic_triple(t, *triple))
        best = max(best, count)
    assert best == 2


def test_cyclic_triple_freeness_direct_span_check():
    # No 4 vertices may span 3 or more edges, over many seeds and sizes.
    for n in range(4, 13):
        for seed in range(0, 100, 7):
            g = cyclic_triple_3graph(random_tournament(n, seed))
            for quad in itertools.combinations(range(1, n + 1), 4):
                inside = {e for e in g.edges if set(e) <= set(quad)}
                assert len(inside) <= 2


def test_cyclic_triple_edge_count_concentrates():
    n = 40
    counts = [len(cyclic_triple_3graph(random_tournament(n, seed)).edges)
              for seed in range(20)]
    mean = sum(counts) / len(counts)
    expected = comb(n, 3) / 4
    assert abs(mean - expected) <= 0.1 * expected


def test_orientation_reduced_density_and_freeness():
    for m in (3, 4, 5, 6):
        host = orientation_reduced(m)
        for t in host.triples():
            assert constituent_density(host, t) == Fraction(1, 4)
        assert is_box_dense(host, Fraction(1, 4))[0]
        assert not is_box_dense(host, Fraction(1, 4) + Fraction(1, 10 ** 6))[0]
    host = orientation_reduced(4)
    assert not exhaustive_oracle(host, pattern_catalog("K4minus")).found


def test_reduced_blow_up_identity_and_density():
    host = orientation_reduced(4)
    assert reduced_blow_up(host, 1) == host
    tripled = reduced_blow_up(host, 3)
    for t in tripled.triples():
        assert constituent_density(tripled, t) == Fraction(1, 4)
    with pytest.raises(DomainError):
        reduced_blow_up(host, 0)


def test_reduced_blow_up_commutes_with_density():
    rng = random.Random(6)
    for _ in range(6):
        host = random_box_dense(4, 2, Fraction(rng.randint(0, 8), 8),
                                seed=rng.randint(0, 99))
        doubled = reduced_blow_up(host, 2)
        for t in host.triples():
            assert constituent_density(doubled, t) == constituent_density(host, t)


def test_reduced_blow_up_preserves_find_status():
    pat = pattern_catalog("K4minus")
    for seed in (1, 2, 3):
        host = random_box_dense(5, 2, Fraction(1, 2), seed=seed)
        doubled = reduced_blow_up(host, 2)
        assert (exhaustive_oracle(host, pat).found
                == exhaustive_oracle(doubled, pat).found)


@pytest.mark.parametrize("build,message", [
    (lambda: random_box_dense(4, 2, Fraction(3, 2), 0), "density must lie in [0, 1], got 3/2"),
    (lambda: random_box_dense(4, 2, -1, 0), "density must lie in [0, 1], got -1"),
    (lambda: random_box_dense(1, 2, Fraction(1, 2), 0), "index_count must be >= 2, got 1"),
    (lambda: random_box_dense(4, 0, Fraction(1, 2), 0), "class_size must be >= 1, got 0"),
    (lambda: orientation_reduced(2), "need >= 3 indices, got 2"),
    (lambda: orientation_reduced(-1), "need >= 3 indices, got -1"),
    (lambda: reduced_blow_up(orientation_reduced(3), 0), "blow-up factor must be >= 1, got 0"),
    (lambda: cyclic_triple_3graph(random_tournament(2, 0)), "need >= 3 vertices, got 2"),
    (lambda: Tournament(1, {}), "tournament needs >= 2 vertices, got 1"),
    (lambda: Tournament(3, {(1, 2): 0, (1, 3): 1}),
     "tournament must orient exactly the sorted pairs"),
    (lambda: Tournament(3, {(1, 2): 0, (1, 3): 1, (3, 2): 1}),
     "tournament must orient exactly the sorted pairs"),
    (lambda: Tournament(3, {(1, 2): 0, (1, 3): 2, (2, 3): 1}),
     "orientation bits must be 0 or 1"),
])
def test_construction_argument_refusals_are_pinned(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message
