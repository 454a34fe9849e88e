"""Plain 3-graph tests: uniform density audits and copy counting."""

import itertools
import random
import sys
from fractions import Fraction
from math import comb
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redhyp import (CapExceeded, DomainError, Pattern, Plain3Graph, automorphism_count,
                    count_copies, cyclic_triple_3graph, pattern_catalog,
                    random_tournament, uniform_density_audit)
from redhyp import core, plain
from redhyp.plain import _edge_counts_by_subset


def complete_k(n):
    return Plain3Graph(n, itertools.combinations(range(1, n + 1), 3))


def naive_worst_violation(g, d, eta):
    """(deficiency, witness) of the worst violating subset, or None: every
    subset from itertools.combinations, edges counted by a scan, Fraction
    arithmetic, ties to the smaller size, then the lexicographically least."""
    n = g.vertex_count
    violations = []
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(1, n + 1), size):
            inside = sum(1 for e in g.edges if set(e) <= set(sub))
            margin = d * comb(size, 3) - eta * n ** 3 - inside
            if margin > 0:
                violations.append((-margin, size, sub))
    if not violations:
        return None
    worst = min(violations)
    return -worst[0], worst[2]


def audit_outcome(result):
    if result.status == "pass":
        return None
    assert result.status == "fail"
    return result.deficiency, result.witness


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


def test_negative_vertex_cap_is_a_domain_error_in_every_mode():
    g = Plain3Graph(6, [])
    for mode, samples in (("exhaustive", 0), ("sampled", 3)):
        for cap in (-5, -1):
            with pytest.raises(DomainError) as exc:
                uniform_density_audit(g, 0, 0, mode=mode, samples=samples, vertex_cap=cap)
            assert str(exc.value) == f"cap must be >= 0, got {cap}", mode
    with pytest.raises(CapExceeded):
        uniform_density_audit(g, 0, 0, vertex_cap=0)
    assert uniform_density_audit(g, 0, 0, mode="sampled", samples=3,
                                 vertex_cap=0).status == "sampled-pass"


@pytest.mark.parametrize("kwargs,message", [
    ({"mode": "bogus"}, "unknown audit mode 'bogus'"),
    ({"mode": "Exhaustive"}, "unknown audit mode 'Exhaustive'"),
    ({"mode": "sampled"}, "sampled mode needs samples >= 1, got 0"),
    ({"mode": "sampled", "samples": -3}, "sampled mode needs samples >= 1, got -3"),
    ({"mode": "sampled", "samples": 2, "sizes": [3, 9]}, "sample size 9 out of range 1..8"),
    ({"mode": "sampled", "samples": 2, "sizes": [0]}, "sample size 0 out of range 1..8"),
    ({"d": Fraction(3, 2)}, "d must lie in [0, 1], got 3/2"),
    ({"d": -1}, "d must lie in [0, 1], got -1"),
    ({"eta": Fraction(-1, 20)}, "eta must be >= 0, got -1/20"),
])
def test_audit_argument_refusals_are_pinned(kwargs, message):
    graph = cyclic_triple_3graph(random_tournament(8, 0))
    bounds = {"d": Fraction(1, 4), "eta": Fraction(1, 20)}
    bounds.update((key, kwargs.pop(key)) for key in ("d", "eta") if key in kwargs)
    with pytest.raises(DomainError) as err:
        uniform_density_audit(graph, bounds["d"], bounds["eta"], **kwargs)
    assert str(err.value) == message


def test_audit_exhaustive_refuses_a_table_above_the_entry_cap():
    # 2^24 counts exceed core.TABLE_ENTRY_CAP whatever vertex_cap allows;
    # the refusal comes before the table is allocated.
    with pytest.raises(CapExceeded, match="needs 2\\^24 subset counts"):
        uniform_density_audit(Plain3Graph(24, []), 1, 0, vertex_cap=30)


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
        assert audit_outcome(result) == naive_worst_violation(g, d, eta)


@st.composite
def audit_instances(draw):
    n = draw(st.integers(1, 9))
    triples = list(itertools.combinations(range(1, n + 1), 3))
    edges = draw(st.lists(st.sampled_from(triples), unique=True)) if triples else []
    den = draw(st.integers(1, 12))
    d = Fraction(draw(st.integers(0, den)), den)
    eta = Fraction(draw(st.integers(0, 3)), draw(st.integers(1, 2 * n ** 3)))
    return Plain3Graph(n, edges), d, eta


@settings(max_examples=80, deadline=None, database=None)
@given(audit_instances())
def test_audit_exhaustive_matches_naive_on_generated_graphs(instance):
    g, d, eta = instance
    result = uniform_density_audit(g, d, eta)
    assert audit_outcome(result) == naive_worst_violation(g, d, eta)
    assert result.subsets_checked == (1 << g.vertex_count) - 1


def test_audit_count_equal_to_its_bound_holds():
    # K4 minus the edge 234, d = 1: at eta = 1/64 the full set (3 edges) and
    # the empty triple 234 sit exactly on their bounds 3 and 0.  At
    # eta = 1/65 both miss by 1/65, and the smaller size wins the tie.
    g = Plain3Graph(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    assert uniform_density_audit(g, 1, Fraction(1, 64)).status == "pass"
    result = uniform_density_audit(g, 1, Fraction(1, 65))
    assert (result.status, result.witness, result.deficiency) == (
        "fail", (2, 3, 4), Fraction(1, 65))
    # Every triple of K5 holds with equality at d = 1, eta = 0.
    assert uniform_density_audit(complete_k(5), 1, 0).status == "pass"


def test_audit_tie_on_margin_and_size_takes_the_lex_least():
    # The two empty triples tie at margin 1/4; (1, 3, 4) has the smaller
    # mask, (1, 2, 5) is lexicographically least.
    missing = {(1, 2, 5), (1, 3, 4)}
    g = Plain3Graph(5, set(itertools.combinations(range(1, 6), 3)) - missing)
    result = uniform_density_audit(g, Fraction(1, 4), 0)
    assert (result.status, result.witness, result.deficiency) == (
        "fail", (1, 2, 5), Fraction(1, 4))
    assert audit_outcome(result) == naive_worst_violation(g, Fraction(1, 4), 0)


def naive_sampled_audit(g, d, eta, samples, seed, sizes):
    """Replays the audit's draws from random.Random(seed), counting edges by
    a scan of the whole edge set."""
    n = g.vertex_count
    rng = random.Random(seed)
    checked = 0
    for s in sizes:
        for _ in range(samples):
            subset = tuple(sorted(rng.sample(range(1, n + 1), s)))
            members = set(subset)
            inside = sum(1 for e in g.edges if members.issuperset(e))
            checked += 1
            margin = d * comb(s, 3) - eta * n ** 3 - inside
            if margin > 0:
                return "fail", subset, margin, checked
    return "sampled-pass", None, None, checked


@pytest.mark.parametrize("n,d,eta,sizes", [
    (30, Fraction(1, 4), Fraction(1, 1000), (5, 10, 20)),
    (30, Fraction(1, 3), Fraction(1, 10000), (8, 15)),
    (30, Fraction(1, 5), 0, (10,)),
    (12, Fraction(1, 4), Fraction(1, 20), None),
    # rows of 61 * 61 bits: a bound that holds, and one every seed fails at size 40
    (60, Fraction(1, 5), Fraction(1, 1000), (10, 20, 30, 40)),
    (60, Fraction(27, 100), Fraction(1, 1000), (10, 20, 30, 40)),
])
def test_audit_sampled_matches_a_replayed_naive_scan(n, d, eta, sizes):
    for seed in range(4):
        g = cyclic_triple_3graph(random_tournament(n, seed))
        result = uniform_density_audit(g, d, eta, mode="sampled", samples=25,
                                       seed=seed, sizes=sizes)
        expected = naive_sampled_audit(g, d, eta, 25, seed,
                                       sizes or range(3, n + 1))
        assert (result.status, result.witness, result.deficiency,
                result.subsets_checked) == expected


def test_edge_counts_match_the_bit_by_bit_sum_over_subsets():
    # Random graphs up to n = 14 fit one-byte fields; 255 edges is the most
    # that does, 256 and the complete graph (364 edges) need two bytes.
    rng = random.Random(7)
    graphs = []
    for n in range(1, 15):
        edges = [t for t in itertools.combinations(range(1, n + 1), 3)
                 if rng.random() < 0.5]
        graphs.append(Plain3Graph(n, edges))
    triples = list(itertools.combinations(range(1, 15), 3))
    graphs += [Plain3Graph(14, triples[:m]) for m in (255, 256, 364)]
    for g in graphs:
        n = g.vertex_count
        expected = [0] * (1 << n)
        for u, v, w in g.edges:
            expected[(1 << (u - 1)) | (1 << (v - 1)) | (1 << (w - 1))] += 1
        for bit in range(n):
            for mask in range(1 << n):
                if mask >> bit & 1:
                    expected[mask] += expected[mask ^ (1 << bit)]
        assert list(_edge_counts_by_subset(g)) == expected


# Worst violations on the audit workload's cyclic-triple graphs, from a
# count table built and scanned mask by mask in plain Python, apart from
# plain.py: two bounds that hold (the workload's vacuous one and one that
# binds), one that fails on a mid-sized subset, and one that fails everywhere.
_CYCLIC_WORST = {
    17: (None, None, (Fraction(31087, 2000), (1, 2, 3, 4, 5, 6, 8, 11, 15, 17)),
         (Fraction(164), tuple(range(1, 18)))),
    18: (None, None, (Fraction(3021, 250), (3, 4, 5, 6, 8, 9, 14, 16, 17)),
         (Fraction(186), tuple(range(1, 19)))),
    20: (None, None, (Fraction(26), (1, 2, 4, 5, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20)),
         (Fraction(282), tuple(range(1, 21)))),
}


@pytest.mark.parametrize("n", [17, 18, 20])
def test_scan_finds_the_worst_violation_on_cyclic_graphs(n):
    counts = _edge_counts_by_subset(cyclic_triple_3graph(random_tournament(n, 0)))
    bounds = ((Fraction(1, 4), Fraction(1, 20)), (Fraction(1, 4), Fraction(1, 100)),
              (Fraction(1, 4), Fraction(1, 2000)), (Fraction(1, 2), Fraction(0)))
    assert tuple(plain._scan_masks(counts, n, d, eta) for d, eta in bounds) == _CYCLIC_WORST[n]


def test_exhaustive_audit_finds_a_lone_violation_anywhere():
    # The complete 16-vertex graph minus one edge at d = 1: exactly the
    # masks holding that edge's three vertices violate, each by 1, and the
    # triple itself is the worst.
    for missing in ((1, 2, 3), (1, 15, 16), (14, 15, 16), (2, 9, 15)):
        g = Plain3Graph(16, set(itertools.combinations(range(1, 17), 3)) - {missing})
        result = uniform_density_audit(g, 1, 0)
        assert (result.witness, result.deficiency) == (missing, 1)


def test_exhaustive_audit_breaks_a_tie_by_the_least_subset():
    # K16 minus two triples at d = 9/10: each missing triple alone misses
    # by 9/10, and every larger set by less.  The scan meets (3, 4, 5)
    # first; the tie (1, 2, 16), lexicographically smaller, must win.
    g = Plain3Graph(16, set(itertools.combinations(range(1, 17), 3))
                    - {(3, 4, 5), (1, 2, 16)})
    result = uniform_density_audit(g, Fraction(9, 10), 0)
    assert (result.witness, result.deficiency) == ((1, 2, 16), Fraction(9, 10))


def test_two_byte_counts_follow_the_byte_order_the_host_reads(monkeypatch):
    # Told the other byte order, the table swaps the bytes of every count.
    g = Plain3Graph(14, list(itertools.combinations(range(1, 15), 3))[:256])
    native = list(_edge_counts_by_subset(g))
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(plain, "sys", SimpleNamespace(byteorder=other))
    assert list(_edge_counts_by_subset(g)) == [c >> 8 | (c & 0xff) << 8 for c in native]


def test_a_tie_across_sizes_goes_to_the_smaller_size_met_later():
    # Six vertices at d = 1/2, eta = 0: {1, ..., 5} holds 3 edges and misses
    # by 5 - 3 = 2, {3, 4, 5, 6} holds none and misses by 2 - 0 = 2, and no
    # other set misses by 2 or more.  Mask order meets the 5-set (mask 31)
    # before the 4-set (mask 60), which must win on its smaller size.
    edges = [(1, 2, 3), (1, 4, 5), (2, 3, 4)] + [
        (u, v, 6) for u, v in ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))]
    g = Plain3Graph(6, edges)
    result = uniform_density_audit(g, Fraction(1, 2), 0)
    assert (result.status, result.witness, result.deficiency) == ("fail", (3, 4, 5, 6), 2)
    assert audit_outcome(result) == naive_worst_violation(g, Fraction(1, 2), 0)


def reference_scan(counts, n, d, eta):
    """(deficiency, subset) of the worst violating mask, or None: each mask
    judged on its own in Fraction arithmetic, ties to the smaller size, then
    the lexicographically least subset."""
    bounds = [d * comb(s, 3) - eta * n ** 3 for s in range(n + 1)]
    worst = None
    for mask, count in enumerate(counts):
        margin = bounds[mask.bit_count()] - count
        if margin > 0:
            key = (-margin, mask.bit_count(), tuple(v + 1 for v in range(n) if mask >> v & 1))
            worst = key if worst is None else min(worst, key)
    return None if worst is None else (-worst[0], worst[2])


def tied_sizes(counts, n):
    """Each (d, margin) with 0 <= d <= 1 at which the worst margin at eta = 0
    is positive and met at two or more sizes: where two sizes' lines
    d * C(s, 3) - (fewest edges at size s) cross on their upper envelope."""
    fewest = [comb(n, 3)] * (n + 1)
    for mask, count in enumerate(counts):
        fewest[mask.bit_count()] = min(fewest[mask.bit_count()], count)
    ties = set()
    for s, t in itertools.combinations(range(n + 1), 2):
        if comb(t, 3) > comb(s, 3):
            d = Fraction(fewest[t] - fewest[s], comb(t, 3) - comb(s, 3))
            top = max(d * comb(u, 3) - fewest[u] for u in range(n + 1))
            if 0 <= d <= 1 and 0 < top == d * comb(s, 3) - fewest[s]:
                ties.add((d, top))
    return sorted(ties)


@st.composite
def scan_instances(draw):
    """A graph on n <= 14 vertices with a one- or two-byte table (>= 256
    edges), a bound of one kind, and a block size of 2^1..2^14 masks."""
    two_byte = draw(st.booleans())
    n = 14 if two_byte else draw(st.integers(1, 14))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.75, 0.9] if two_byte else [0, 0.2, 0.5, 0.8, 1]))
    g = Plain3Graph(n, [t for t in itertools.combinations(range(1, n + 1), 3)
                        if rng.random() < density])
    counts = _edge_counts_by_subset(g)
    kind = draw(st.sampled_from(["vacuous", "free", "binding", "tie"]))
    d = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 12)))
    d = min(d, Fraction(1))
    eta = Fraction(draw(st.integers(0, 3)), draw(st.integers(1, 2 * n ** 3)))
    if kind == "vacuous":  # no threshold is positive
        eta += d * comb(n, 3) / n ** 3
    elif kind == "binding":  # the worst set meets its bound, or misses by 1
        worst = reference_scan(counts, n, d, Fraction(0))
        eta = max(Fraction((worst[0] if worst else 0) - draw(st.integers(0, 1)), n ** 3), 0)
    elif kind == "tie":
        ties = tied_sizes(counts, n)
        if ties:
            d, top = draw(st.sampled_from(ties))
            eta = top * Fraction(draw(st.integers(0, 9)), 10 * n ** 3)
    return counts, n, d, eta, draw(st.integers(1, 14))


@settings(max_examples=100, deadline=None, database=None)
@given(scan_instances())
def test_scan_matches_a_per_mask_reference(instance):
    counts, n, d, eta, block_bits = instance
    with patch.object(plain, "_BLOCK_BITS", block_bits):
        assert plain._scan_masks(counts, n, d, eta) == reference_scan(counts, n, d, eta)


def test_table_and_scan_give_the_same_worst_in_either_byte_order(monkeypatch):
    # One- and two-byte tables, audited in the host's byte order and then,
    # table and scan alike, in the other one, in one block and in sixteen.
    triples = list(itertools.combinations(range(1, 15), 3))
    graphs = [Plain3Graph(14, [t for t in triples if sum(t) % 4]),
              Plain3Graph(14, triples[:256]),
              Plain3Graph(13, [t for t in triples if t[2] < 14 and sum(t) % 3])]
    bounds = [(Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(0)),
              (Fraction(1, 2), Fraction(1, 1000)), (Fraction(9, 10), Fraction(1, 500))]

    def audits():
        return [uniform_density_audit(g, d, eta) for g in graphs for d, eta in bounds]

    native = audits()
    assert [r.status for r in native].count("fail") == 11
    assert (native[1].witness, native[1].deficiency) == ((1, 2, 5, 6, 9, 13), 2)
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(plain, "sys", SimpleNamespace(byteorder=other))
    assert audits() == native
    monkeypatch.setattr(plain, "_BLOCK_BITS", 10)
    assert audits() == native


def test_bars_stay_above_every_count_the_table_cap_admits():
    # The largest table the cap admits is on the n vertices with 2^n <= the
    # cap (23 today, C(23, 3) = 1771 edges); bars are capped at the least
    # power of two above that many edges, and with the guard fit 16 bits.
    n = core.TABLE_ENTRY_CAP.bit_length() - 1
    assert 1 << n <= core.TABLE_ENTRY_CAP < 1 << (n + 1)
    with pytest.raises(CapExceeded, match=f"needs 2\\^{n + 1} subset counts"):
        uniform_density_audit(Plain3Graph(n + 1, []), 1, 0, vertex_cap=n + 1)
    assert plain._BAR_CAP == 1 << comb(n, 3).bit_length()
    assert plain._GUARD - 1 + plain._BAR_CAP < 1 << 16


def test_block_popcounts_cover_a_block_of_2_14_masks():
    assert plain._SIZES == bytes(map(int.bit_count, range(1 << 14)))


@pytest.mark.parametrize("d,eta", [(0.25, 0), (Fraction(1, 4), 0.05), (0.5, 0.0)])
def test_audit_refuses_float_bounds(d, eta):
    g = complete_k(6)
    bad = "d" if isinstance(d, float) else "eta"
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(DomainError, match=f"^{bad} must be an exact rational, got float "):
            uniform_density_audit(g, d, eta, mode=mode, samples=3)


def test_constructor_words_the_first_bad_edge():
    for n, edges, message in (
            (5, [(1, 2, 3), (4, 4, 1)], "edge (4, 4, 1) must have three distinct vertices"),
            (5, [(1, 2, 3), (5, 2, 2)], "edge (5, 2, 2) must have three distinct vertices"),
            (5, [(1, 2, 3, 4)], "edge (1, 2, 3, 4) must have three distinct vertices"),
            (5, [(2, 1)], "edge (2, 1) must have three distinct vertices"),
            (5, [(1, 2, 3), (6, 2, 1)], "edge (6, 2, 1) out of range 1..5"),
            (5, iter([(0, 1, 2)]), "edge (0, 1, 2) out of range 1..5"),
            # the first bad edge in input order is named, whatever its fault
            (5, [(1, 2, 3), (6, 2, 1), (4, 4, 1)], "edge (6, 2, 1) out of range 1..5"),
            (5, [(1, 2, 9), (4, 4, 1)], "edge (1, 2, 9) out of range 1..5"),
            (0, [(1, 1, 1)], "vertex_count must be >= 1, got 0")):
        with pytest.raises(DomainError) as exc:
            Plain3Graph(n, edges)
        assert str(exc.value) == message


def test_a_malformed_edge_is_a_domain_error():
    # (1, 1, 2, 3) has three distinct values, so only its length gives it away
    with pytest.raises(DomainError) as exc:
        Plain3Graph(5, [(1, 1, 2, 3)])
    assert str(exc.value) == "edge (1, 1, 2, 3) must have three distinct vertices"


def test_density_below_three_vertices_is_zero():
    for n in (1, 2):
        assert Plain3Graph(n, []).density() == 0
    assert Plain3Graph(3, [(1, 2, 3)]).density() == 1


def test_the_row_builder_checks_every_rule():
    # fileio's bulk loader proves some rules itself; the builder still
    # checks them all, so a looser loader cannot build a bad graph.
    rows = [(1, 2, 3), (2, 4, 5)]
    assert Plain3Graph._from_rows(5, rows) == Plain3Graph(5, rows)
    assert Plain3Graph._from_rows(5, rows, "digest").canonical_sha256 == "digest"
    for n, bad in ((0, []), (5, [(1, 2)]), (5, [(1, 2, 3, 4)]), (5, [(0, 1, 2)]),
                   (5, [(3, 4, 6)]), (5, [(2, 1, 3)]), (5, [(1, 3, 2)]), (5, [(1, 1, 2)])):
        with pytest.raises(DomainError):
            Plain3Graph._from_rows(n, rows[:1] + bad if n else bad)


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


def test_count_copies_refuses_patterns_deeper_than_the_search_cap(monkeypatch):
    # The search takes one stack frame per pattern vertex: a pattern on 1200
    # vertices would end in a RecursionError, so it is refused before it
    # starts.  A pattern larger than the graph stays a domain error.
    for n in (501, 1200):
        with pytest.raises(CapExceeded) as err:
            count_copies(Plain3Graph(n, [(1, 2, 3)]), Pattern(n, [(1, 2, 3)]))
        assert str(err.value) == (f"counting copies of a pattern on {n} vertices recurses "
                                  f"{n} levels deep, above the cap 500")
    with pytest.raises(DomainError) as err:
        count_copies(Plain3Graph(3, [(1, 2, 3)]), Pattern(1200, [(1, 2, 3)]))
    assert str(err.value) == "pattern has 1200 vertices but graph only 3"
    # At the cap the count runs; the cap is lowered to 5 to keep it small.
    monkeypatch.setattr(plain, "MAX_SEARCH_DEPTH", 5)
    assert count_copies(complete_k(6), pattern_catalog("Fstar")) == 720
    with pytest.raises(CapExceeded, match="on 6 vertices recurses 6 levels deep, above the cap 5"):
        count_copies(complete_k(6), Pattern(6, [(1, 2, 3)]))


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
