"""Plain 3-graph tests: uniform density audits and copy counting."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from redhyp import (CapExceeded, DomainError, Plain3Graph, automorphism_count,
                    count_copies, cyclic_triple_3graph, pattern_catalog,
                    random_tournament, uniform_density_audit)

def complete_k(n):
    return Plain3Graph(n, itertools.combinations(range(1, n + 1), 3))


def test_audit_complete_passes():
    result = uniform_density_audit(complete_k(6), 1, 0)
    assert result.status == "pass"


def test_audit_empty_fails_with_full_witness():
    g = Plain3Graph(6, [])
    result = uniform_density_audit(g, Fraction(1, 2), 0)
    assert result.status == "fail"
    assert result.witness == (1, 2, 3, 4, 5, 6)
    assert result.deficiency == Fraction(1, 2) * comb(6, 3)


def test_audit_eta_slack_passes_small_subsets():
    # With eta >= d every subset whose target d*C(s,3) stays below eta*n^3
    # passes automatically; on the empty graph the audit then passes fully
    # whenever d*C(n,3) <= eta*n^3.
    g = Plain3Graph(5, [])
    d = Fraction(1, 2)
    eta = Fraction(1, 2)
    assert d * comb(5, 3) <= eta * 5 ** 3
    assert uniform_density_audit(g, d, eta).status == "pass"


def test_audit_exhaustive_cap_refusal():
    g = Plain3Graph(25, [])
    with pytest.raises(CapExceeded):
        uniform_density_audit(g, 1, 0)


def test_audit_sampled_never_full_pass():
    g = complete_k(8)
    result = uniform_density_audit(g, 1, 0, mode="sampled", samples=5, seed=3)
    assert result.status == "sampled-pass"
    bad = Plain3Graph(8, [])
    result = uniform_density_audit(bad, Fraction(1, 2), 0, mode="sampled",
                                   samples=5, seed=3)
    assert result.status == "fail"
    assert result.witness is not None


def test_audit_exhaustive_matches_naive_subset_scan():
    rng = random.Random(10)
    for _ in range(5):
        n = 7
        edges = [t for t in itertools.combinations(range(1, n + 1), 3)
                 if rng.random() < 0.3]
        g = Plain3Graph(n, edges)
        d, eta = Fraction(1, 3), Fraction(1, 100)
        result = uniform_density_audit(g, d, eta)
        violations = []
        for size in range(1, n + 1):
            for sub in itertools.combinations(range(1, n + 1), size):
                inside = sum(1 for e in g.edges if set(e) <= set(sub))
                margin = d * comb(size, 3) - eta * n ** 3 - inside
                if margin > 0:
                    violations.append((margin, size, sub))
        if not violations:
            assert result.status == "pass"
        else:
            best_margin = max(v[0] for v in violations)
            contenders = [v for v in violations if v[0] == best_margin]
            expected = min(contenders, key=lambda v: (v[1], v[2]))
            assert result.status == "fail"
            assert result.witness == expected[2]
            assert result.deficiency == expected[0]


def test_count_copies_cyclic_is_k4minus_free():
    pat = pattern_catalog("K4minus")
    for n in (6, 9, 12):
        for seed in (0, 1, 2):
            g = cyclic_triple_3graph(random_tournament(n, seed))
            assert count_copies(g, pat) == 0


def test_count_copies_single_edge_in_k5():
    g = complete_k(5)
    assert count_copies(g, pattern_catalog("single_edge")) == 60  # 10 * 3!


def test_count_copies_fstar_in_itself():
    fstar = pattern_catalog("Fstar")
    g = Plain3Graph(5, fstar.edges)
    assert count_copies(g, fstar) >= 1


def test_count_copies_matches_naive_permutations():
    rng = random.Random(21)
    for _ in range(6):
        n = rng.randint(5, 8)
        edges = [t for t in itertools.combinations(range(1, n + 1), 3)
                 if rng.random() < 0.4]
        g = Plain3Graph(n, edges)
        for name in ("single_edge", "K4minus", "K4", "Fstar"):
            pat = pattern_catalog(name)
            if pat.vertex_count > n:
                continue
            naive = 0
            for image in itertools.permutations(range(1, n + 1), pat.vertex_count):
                if all(tuple(sorted((image[u - 1], image[v - 1], image[w - 1])))
                       in g.edges for u, v, w in pat.edges):
                    naive += 1
            assert count_copies(g, pat) == naive


def test_count_copies_monotone_under_edges():
    rng = random.Random(13)
    pat = pattern_catalog("K4minus")
    base_edges = [t for t in itertools.combinations(range(1, 8), 3)
                  if rng.random() < 0.2]
    g = Plain3Graph(7, base_edges)
    more = Plain3Graph(7, base_edges + [(1, 2, 3), (4, 5, 6)])
    assert count_copies(more, pat) >= count_copies(g, pat)


def test_unlabeled_count_divides_by_automorphisms():
    k4 = pattern_catalog("K4")
    assert automorphism_count(k4) == 24
    g = complete_k(4)
    assert count_copies(g, k4) == 24
    assert count_copies(g, k4, labeled=False) == 1
    assert automorphism_count(pattern_catalog("single_edge")) == 6


def test_count_copies_pattern_too_large():
    g = complete_k(3)
    with pytest.raises(DomainError):
        count_copies(g, pattern_catalog("K4"))


def test_count_copies_matches_naive_at_n12():
    pat = pattern_catalog("K4minus")
    g = cyclic_triple_3graph(random_tournament(12, seed=5))
    extra = Plain3Graph(12, set(g.edges) | {(1, 2, 3), (1, 2, 4), (1, 3, 4)})
    naive = 0
    for image in itertools.permutations(range(1, 13), 4):
        if all(tuple(sorted((image[u - 1], image[v - 1], image[w - 1])))
               in extra.edges for u, v, w in pat.edges):
            naive += 1
    assert count_copies(extra, pat) == naive >= 6
