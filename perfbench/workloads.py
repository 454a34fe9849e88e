"""Inputs, op lists and independent output checks for the four workloads.

Every workload is a fixed list of CLI ops (argument vectors for
`redhyp.cli.dispatch`), built from generated host and graph files.  The
workload seed selects the inputs; seed 0 reproduces the shapes and seeds of
`tests/test_acceptance.py` (criteria 3, 6 and 7).

Each op carries a check that inspects its exit code and report without
trusting the code path that produced it: certificates are re-validated on
the generated host object, counts are compared with the naive oracle, and
digests with a hash of the file bytes the benchmark wrote.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from redhyp import (cyclic_triple_3graph, exhaustive_oracle,
                    find_reduced_image, pattern_catalog, random_box_dense,
                    random_tournament, validate_glued, validate_reduced_map)
from redhyp.cli import format_fraction, parse_certificate, parse_glued
from redhyp.fileio import write_host, write_plain3

PATTERNS = ("single_edge", "K4minus", "K4", "Fstar")
C3_DENSITIES = (Fraction(1, 10), Fraction(26, 100), Fraction(1, 2), Fraction(9, 10))
DENSE = Fraction(9, 10)


@dataclass
class Op:
    label: str                                # stable name, key of the pinned answer
    argv: list[str]
    check: Callable[[int, str], str | None]   # (exit code, report) -> failure reason


class Checker:
    """Runs the independent checks and times the oracle calls among them."""

    def __init__(self):
        self.oracle_s = 0.0
        self.oracle_leaves = 0
        self._oracle: dict[tuple[str, str], object] = {}

    def oracle(self, label: str, host, name: str):
        key = (label, name)
        if key not in self._oracle:
            started = time.perf_counter()
            result = exhaustive_oracle(host, pattern_catalog(name))
            self.oracle_s += time.perf_counter() - started
            self.oracle_leaves += result.leaves
            self._oracle[key] = result
        return self._oracle[key]


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, value)
    return out


def _digest_ok(fields: dict[str, str], key: str, payload: str) -> str | None:
    want = "sha256:" + hashlib.sha256(payload.encode()).hexdigest()
    if fields.get(key) != want:
        return f"{key} digest {fields.get(key)} != {want}"
    return None


def _expect_exit(code: int, fields: dict[str, str]) -> str | None:
    if fields.get("exit") != str(code):
        return f"exit line {fields.get('exit')} != exit code {code}"
    return None


def _write(path: Path, payload: str) -> str:
    path.write_text(payload)
    return str(path)


# ---------------------------------------------------------------- sweep

def _sweep_hosts(seed: int):
    """The 200 criterion-3 hosts: M <= 6, class sizes <= 4, four densities."""
    shapes = [(3, p) for p in (1, 2, 3, 4, 1, 2, 3, 4, 3, 4)]
    shapes += [(4, p) for p in (1, 2, 3, 4) * 3] + [(4, 2), (4, 4), (4, 3)]
    shapes += [(5, p) for p in (1, 2) * 7] + [(5, 2)]
    shapes += [(6, p) for p in (1, 2) * 5]
    for block, d in enumerate(C3_DENSITIES):
        for i, (m, p) in enumerate(shapes):
            host_seed = 10_000 * seed + 1000 * block + i
            yield f"d{block}-{i}", random_box_dense(m, p, d, seed=host_seed)


def _find_check(checker: Checker, label: str, host, payload: str, name: str,
                count_all: bool):
    def check(code: int, text: str) -> str | None:
        fields = _fields(text)
        why = _digest_ok(fields, "host", payload) or _expect_exit(code, fields)
        if why:
            return why
        if code not in (0, 1):
            return f"exit {code}"
        found = code == 0
        if fields.get("outcome") != ("found" if found else "not-found"):
            return f"outcome {fields.get('outcome')} with exit {code}"
        if count_all:
            count = int(fields.get("count", "-1"))
            if (count > 0) != found:
                return f"count {count} with exit {code}"
            oracle = checker.oracle(label, host, name)
            if count != oracle.count:
                return f"count {count} != oracle {oracle.count}"
            return None
        if found != checker.oracle(label, host, name).found:
            return "found disagrees with the oracle"
        if found:
            ok, violation = validate_reduced_map(host, pattern_catalog(name),
                                                 parse_certificate(text))
            if not ok:
                return f"certificate invalid: {violation}"
        return None
    return check


def build_sweep(seed: int, work: Path, checker: Checker) -> list[Op]:
    ops = []
    for label, host in _sweep_hosts(seed):
        payload = write_host(host)
        path = _write(work / f"{label}.rh", payload)
        for name in PATTERNS:
            for count_all in (False, True):
                argv = ["find", "--host", path, "--pattern", name, "--deterministic"]
                if count_all:
                    argv.append("--count-all")
                ops.append(Op(f"{label}/{name}/{'count' if count_all else 'find'}",
                              argv, _find_check(checker, label, host, payload,
                                                name, count_all)))
    return ops


# ---------------------------------------------------------------- bigclass

BIGCLASS_SHAPES = ((5, 4), (5, 5), (6, 3))


def _bigclass_check(host, payload: str, name: str):
    def check(code: int, text: str) -> str | None:
        fields = _fields(text)
        why = _digest_ok(fields, "host", payload) or _expect_exit(code, fields)
        if why:
            return why
        if code not in (0, 1):
            return f"exit {code}"
        count = int(fields.get("count", "-1"))
        if (count > 0) != (code == 0):
            return f"count {count} with exit {code}"
        pattern = pattern_catalog(name)
        first = find_reduced_image(host, pattern)
        if (first.status == "found") != (count > 0):
            return f"count {count} but first-hit search says {first.status}"
        if first.certificate is not None:
            ok, violation = validate_reduced_map(host, pattern,
                                                 first.certificate.rmap)
            if not ok:
                return f"first-hit certificate invalid: {violation}"
        return None
    return check


def build_bigclass(seed: int, work: Path, checker: Checker) -> list[Op]:
    ops = []
    for n, (m, p) in enumerate(BIGCLASS_SHAPES):
        host = random_box_dense(m, p, DENSE, seed=10 * seed + n)
        payload = write_host(host)
        path = _write(work / f"big-{m}-{p}.rh", payload)
        for name in ("Fstar", "K4minus", "K4"):
            ops.append(Op(f"m{m}p{p}/{name}/count",
                          ["find", "--host", path, "--pattern", name,
                           "--count-all", "--deterministic"],
                          _bigclass_check(host, payload, name)))
    return ops


# ---------------------------------------------------------------- pipeline

def _pipeline_check(host, payload: str, command: str):
    def check(code: int, text: str) -> str | None:
        fields = _fields(text)
        why = _digest_ok(fields, "host", payload) or _expect_exit(code, fields)
        if why:
            return why
        if code == 1:
            if fields.get("outcome") != "failure" or not fields.get("stage"):
                return "negative report names no failed stage"
            return None
        if code != 0 or fields.get("outcome") != "found":
            return f"exit {code}, outcome {fields.get('outcome')}"
        if command == "pipeline":
            ok, why = validate_reduced_map(host, pattern_catalog("Fstar"),
                                           parse_certificate(text))
        else:
            ok, why = validate_glued(host, parse_glued(text))
        return None if ok else f"certificate invalid: {why}"
    return check


def build_pipeline(seed: int, work: Path, checker: Checker) -> list[Op]:
    ops = []
    rows = [(f"dense12-{8 * seed + k}", random_box_dense(12, 6, DENSE, seed=8 * seed + k),
             ["--m-star", "10", "--m", "8"], "5,4,3") for k in range(8)]
    # d = 1 makes the host complete, so its seed does not matter.
    rows.append(("complete30", random_box_dense(30, 2, 1, seed=0), [], "8,5,3"))
    for label, host, targets, ladder in rows:
        payload = write_host(host)
        path = _write(work / f"{label}.rh", payload)
        common = ["--host", path, "--eps", "7/10", "--delta", "1/4"]
        ops.append(Op(f"{label}/pipeline",
                      ["pipeline", *common, "--rounds", "5", *targets, "--deterministic"],
                      _pipeline_check(host, payload, "pipeline")))
        ops.append(Op(f"{label}/glue",
                      ["glue", *common, "--ladder", ladder, *targets, "--deterministic"],
                      _pipeline_check(host, payload, "glue")))
    return ops


# ---------------------------------------------------------------- audit

AUDIT_D, AUDIT_ETA = Fraction(1, 4), Fraction(1, 20)


def _audit_check(graph, payload: str, expect_checked: int, exhaustive: bool):
    n = graph.vertex_count

    def check(code: int, text: str) -> str | None:
        fields = _fields(text)
        why = _digest_ok(fields, "graph", payload) or _expect_exit(code, fields)
        if why:
            return why
        outcome = fields.get("outcome")
        checked = int(fields.get("subsets-checked", "-1"))
        if code == 0:
            if outcome not in ("pass", "sampled-pass") or checked != expect_checked:
                return f"outcome {outcome} after {checked} subsets"
            # An exhaustive pass covers the whole vertex set too.
            floor = AUDIT_D * math.comb(n, 3) - AUDIT_ETA * n ** 3
            if exhaustive and len(graph.edges) < floor:
                return "pass although the full vertex set violates the bound"
            return None
        if code != 1 or outcome != "fail":
            return f"exit {code}, outcome {outcome}"
        witness = {int(v) for v in fields["witness"].split(",")}
        inside = sum(1 for e in graph.edges if witness.issuperset(e))
        margin = (AUDIT_D * math.comb(len(witness), 3) - AUDIT_ETA * n ** 3
                  - inside)
        if margin <= 0 or fields.get("deficiency") != format_fraction(margin):
            return f"witness deficiency {margin} does not match the report"
        return None
    return check


def build_audit(seed: int, work: Path, checker: Checker) -> list[Op]:
    ops = []
    bound = ["--d", "1/4", "--eta", "1/20", "--deterministic"]
    for k, n in enumerate((17, 17, 18)):
        tseed = 3 * seed + k
        graph = cyclic_triple_3graph(random_tournament(n, tseed))
        payload = write_plain3(graph)
        path = _write(work / f"cyclic-{n}-{tseed}.p3", payload)
        ops.append(Op(f"cyclic{n}-{k}/exhaustive",
                      ["audit", "--graph", path, *bound, "--exhaustive"],
                      _audit_check(graph, payload, (1 << n) - 1, True)))
    graph = cyclic_triple_3graph(random_tournament(60, seed))
    payload = write_plain3(graph)
    path = _write(work / f"cyclic-60-{seed}.p3", payload)
    sizes = (10, 20, 30, 40)
    ops.append(Op("cyclic60/sampled",
                  ["audit", "--graph", path, *bound, "--samples", "100",
                   "--seed", str(seed), "--sizes", ",".join(map(str, sizes))],
                  _audit_check(graph, payload, 100 * len(sizes), False)))
    return ops


BUILDERS = {
    "sweep": build_sweep,
    "bigclass": build_bigclass,
    "pipeline": build_pipeline,
    "audit": build_audit,
}

