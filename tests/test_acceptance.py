"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line; seeds, shapes, and thresholds are
frozen here.  Criteria needing CLI reports share the host files generated
by the session fixtures below.
"""

import contextlib
import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest

from redhyp import (GlueConfig, PipelineConfig, Plain3Graph, brute_force_glued,
                    clean, count_copies, cyclic_triple_3graph,
                    exhaustive_oracle, find_fstar, find_glued,
                    find_reduced_image, is_box_dense, orientation_reduced,
                    pattern_catalog, random_box_dense, random_tournament,
                    uniform_density_audit, validate_glued,
                    validate_reduced_map)
from redhyp.cli import dispatch
from redhyp.core import constituent_density
from redhyp.fileio import write_host
from redhyp.qsystem import build_q_graphs, check_sum_of_squares, level_cap

PATTERN_NAMES = ("single_edge", "K4minus", "K4", "Fstar")
DENSITIES = (Fraction(1, 10), Fraction(26, 100), Fraction(1, 2), Fraction(9, 10))


@contextlib.contextmanager
def criterion(num, name, budget_s):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"


def criterion3_shapes():
    """50 host shapes per density block: M <= 6, class sizes <= 4."""
    shapes = []
    shapes += [(3, p) for p in (1, 2, 3, 4, 1, 2, 3, 4, 3, 4)]
    shapes += [(4, p) for p in (1, 2, 3, 4) * 3] + [(4, 2), (4, 4), (4, 3)]
    shapes += [(5, p) for p in (1, 2) * 7] + [(5, 2)]
    shapes += [(6, p) for p in (1, 2) * 5]
    assert len(shapes) == 50
    return shapes


def criterion3_hosts():
    hosts = []
    for block, d in enumerate(DENSITIES):
        for i, (m, p) in enumerate(criterion3_shapes()):
            seed = 1000 * block + i
            hosts.append((f"d{block}-{i}", random_box_dense(m, p, d, seed=seed)))
    return hosts


@pytest.fixture(scope="session")
def c3_host_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("c3hosts")
    files = []
    for label, host in criterion3_hosts():
        path = root / f"{label}.rh"
        path.write_text(write_host(host))
        files.append((label, host, str(path)))
    return files


@pytest.fixture(scope="session")
def c7_host_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("c7hosts")
    files = []
    for seed in range(50):
        host = random_box_dense(12, 6, Fraction(9, 10), seed=seed)
        path = root / f"dense12-{seed}.rh"
        path.write_text(write_host(host))
        files.append((seed, host, str(path)))
    return files


def test_criterion_1_lower_bound_evidence():
    with criterion(1, "lower-bound-evidence", 60):
        k4m = pattern_catalog("K4minus")
        fstar = pattern_catalog("Fstar")
        for m in (4, 5, 6):
            host = orientation_reduced(m)
            for t in host.triples():
                assert constituent_density(host, t) == Fraction(1, 4)
            assert is_box_dense(host, Fraction(1, 4)) == (True, None)
            assert not exhaustive_oracle(host, k4m).found
            assert not exhaustive_oracle(host, fstar).found


def test_criterion_2_plain_lower_bound_evidence():
    with criterion(2, "plain-lower-bound-evidence", 60):
        k4m = pattern_catalog("K4minus")
        for n in range(4, 13):
            for seed in range(100):
                graph = cyclic_triple_3graph(random_tournament(n, seed))
                assert count_copies(graph, k4m) == 0
        densities = [cyclic_triple_3graph(random_tournament(12, seed)).density()
                     for seed in range(100)]
        mean = sum(densities) / len(densities)
        assert Fraction(1, 4) - Fraction(1, 10) <= mean <= Fraction(1, 4) + Fraction(1, 10)


def test_criterion_3_oracle_equivalence(c3_host_files):
    with criterion(3, "oracle-equivalence", 600):
        for label, host, _ in c3_host_files:
            for name in PATTERN_NAMES:
                pat = pattern_catalog(name)
                oracle = exhaustive_oracle(host, pat)
                engine = find_reduced_image(host, pat)
                assert engine.status in ("found", "not-found"), (label, name)
                assert (engine.status == "found") == oracle.found, (label, name)
                counted = find_reduced_image(host, pat, count_all=True)
                assert counted.count == oracle.count, (label, name)
                if engine.certificate is not None:
                    ok, violation = validate_reduced_map(host, pat,
                                                         engine.certificate.rmap)
                    assert ok, (label, name, violation)


def _naive_q_degrees(host, eps, t):
    """Low/high Q-degrees over P^{ik}, recomputed from raw edge sets."""
    con = host.constituent(t)
    s0, s1, s2 = con.sizes
    edges = host.edges(t)
    ab = Counter((a, b) for a, b, c in edges)
    bc = Counter((b, c) for a, b, c in edges)
    eps_sq = eps * eps
    low = [sum(1 for w in range(s0) if ab[(w, v)] >= eps_sq * s2)
           for v in range(s1)]
    high = [sum(1 for u in range(s2) if bc[(v, u)] >= eps_sq * s0)
            for v in range(s1)]
    return low, high


def _criterion45_hosts():
    d = Fraction(1, 4) + Fraction(1, 10)
    return [random_box_dense(8, 6, d, seed=seed) for seed in range(100)]


def test_criterion_4_sum_of_squares_validation():
    with criterion(4, "sum-of-squares-validation", 120):
        eps = Fraction(1, 10)
        for host in _criterion45_hosts():
            system = build_q_graphs(host, eps)
            for t in host.triples():
                lhs, holds = check_sum_of_squares(system, t)
                assert holds, t
                low, high = _naive_q_degrees(host, eps, t)
                assert lhs == sum(l * h for l, h in zip(low, high)), t


def test_criterion_5_cleaning_soundness():
    with criterion(5, "cleaning-soundness", 300):
        eps, delta = Fraction(1, 10), Fraction(1, 20)
        config = PipelineConfig(eps=eps, delta=delta, ramsey_target_1=7,
                                ramsey_target_2=5)
        cap = level_cap(delta)
        successes = 0
        for host in _criterion45_hosts():
            result = clean(host, config)
            if not result.ok:
                assert result.failure.stage
                continue
            successes += 1
            system = result.system
            work = system.host
            r_star = system.r_star
            for t in work.triples():
                i, j, k = t
                low, _ = _naive_q_degrees(work, eps, t)
                s0 = work.class_size(i, j)
                s1 = work.class_size(i, k)
                assert sum(d * d for d in low) >= \
                    (Fraction(1, 4) + eps / 2) * s0 * s0 * s1, t
                sizes = {r: sum(1 for d in low
                                if d >= (Fraction(1, 2) + r * delta) * s0)
                         for r in range(1, cap + 2)}
                assert sizes[r_star] >= delta * s1 > sizes[r_star + 1], t
                for r in range(1, cap + 1):
                    assert system.s_sets[t][r] <= system.s_sets[t][r - 1], t
        assert successes >= 80, f"only {successes}/100 hosts cleaned"


def _c6_configs():
    fstar_cfg = PipelineConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                               rounds=5, ramsey_target_1=30, ramsey_target_2=30)
    glue_cfg = GlueConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                          ladder=(8, 5, 3), ramsey_target_1=30,
                          ramsey_target_2=30)
    return fstar_cfg, glue_cfg


def test_criterion_6_end_to_end_forced_success():
    with criterion(6, "end-to-end-forced-success", 120):
        host = random_box_dense(30, 2, 1, seed=0)
        fstar_cfg, glue_cfg = _c6_configs()
        result = find_fstar(host, fstar_cfg)
        assert result.ok, result.failure
        ok, violation = validate_reduced_map(host, pattern_catalog("Fstar"),
                                             result.certificate.rmap)
        assert ok, violation
        glued = find_glued(host, glue_cfg)
        assert glued.ok, glued.failure
        ok, why = validate_glued(host, glued.configuration)
        assert ok, why


def _c7_configs():
    fstar_cfg = PipelineConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                               rounds=5, ramsey_target_1=10, ramsey_target_2=8)
    glue_cfg = GlueConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                          ladder=(5, 4, 3), ramsey_target_1=10,
                          ramsey_target_2=8)
    return fstar_cfg, glue_cfg


def test_criterion_7_end_to_end_random_soundness(c7_host_files):
    with criterion(7, "end-to-end-random-soundness", 600):
        fstar_cfg, glue_cfg = _c7_configs()
        fstar_ok = glue_ok = 0
        for seed, host, _ in c7_host_files:
            result = find_fstar(host, fstar_cfg)
            if result.ok:
                fstar_ok += 1
                ok, violation = validate_reduced_map(
                    host, pattern_catalog("Fstar"), result.certificate.rmap)
                assert ok, (seed, violation)
            else:
                assert result.failure.stage, seed
            glued = find_glued(host, glue_cfg)
            if glued.ok:
                glue_ok += 1
                ok, why = validate_glued(host, glued.configuration)
                assert ok, (seed, why)
            else:
                assert glued.failure.stage, seed
        # the dense fixtures should overwhelmingly succeed
        assert fstar_ok >= 45 and glue_ok >= 45, (fstar_ok, glue_ok)


def test_criterion_8_glued_oracle_agreement():
    with criterion(8, "glued-oracle-agreement", 300):
        config = GlueConfig(eps=Fraction(7, 10), delta=Fraction(1, 4),
                            ladder=(3, 2), ramsey_target_1=6, ramsey_target_2=5)
        successes = 0
        for seed in range(50):
            host = random_box_dense(6, 3, Fraction(9, 10), seed=seed)
            result = find_glued(host, config)
            if result.ok:
                successes += 1
                ok, why = validate_glued(host, result.configuration)
                assert ok, (seed, why)
                found, _ = brute_force_glued(host, count_all=False)
                assert found, seed
        assert successes >= 40, f"only {successes}/50 glue runs succeeded"


def test_criterion_9_audit_exactness():
    with criterion(9, "audit-exactness", 1):
        complete = Plain3Graph(6, itertools.combinations(range(1, 7), 3))
        assert uniform_density_audit(complete, 1, 0).status == "pass"
        empty = Plain3Graph(6, [])
        result = uniform_density_audit(empty, Fraction(1, 2), 0)
        assert result.status == "fail"
        assert result.witness == (1, 2, 3, 4, 5, 6)


def _find_reports(c3_host_files):
    reports = []
    for label, _, path in c3_host_files:
        for name in PATTERN_NAMES:
            reports.append(dispatch(["find", "--host", path, "--pattern", name,
                                     "--count-all", "--deterministic",
                                     "--threads", "1"]))
    return reports


def _pipeline_reports(host_path):
    fstar_cfg, glue_cfg = _c7_configs()
    out = [dispatch(["pipeline", "--host", host_path, "--eps", "7/10",
                     "--delta", "1/4", "--rounds", "5", "--m-star", "10",
                     "--m", "8", "--deterministic", "--threads", "1"])]
    out.append(dispatch(["glue", "--host", host_path, "--eps", "7/10",
                         "--delta", "1/4", "--ladder", "5,4,3", "--m-star",
                         "10", "--m", "8", "--deterministic", "--threads", "1"]))
    return out


def test_criterion_10_report_determinism(c3_host_files, c7_host_files,
                                         tmp_path):
    with criterion(10, "report-determinism", 600):
        # criterion 3 workload
        first = _find_reports(c3_host_files)
        second = _find_reports(c3_host_files)
        assert first == second
        # criterion 6 workload
        host30 = tmp_path / "complete30.rh"
        host30.write_text(write_host(random_box_dense(30, 2, 1, seed=0)))
        jobs = [["pipeline", "--host", str(host30), "--eps", "7/10", "--delta",
                 "1/4", "--rounds", "5", "--deterministic", "--threads", "1"],
                ["glue", "--host", str(host30), "--eps", "7/10", "--delta",
                 "1/4", "--ladder", "8,5,3", "--deterministic", "--threads", "1"]]
        for job in jobs:
            assert dispatch(job) == dispatch(job)
        # criterion 7 workload
        for _, _, path in c7_host_files:
            assert _pipeline_reports(path) == _pipeline_reports(path)
