"""CLI tests: exit codes, report shape, round trips, determinism."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redhyp
from redhyp import (Plain3Graph, core, cyclic_triple_3graph, find_reduced_image, glue,
                    pattern_catalog, pipeline, random_box_dense, random_tournament,
                    validate_reduced_map)
from redhyp.cli import (certificate_lines, dispatch, main, parse_certificate,
                        parse_fraction, parse_glued)
from redhyp.fileio import parse_host, parse_plain3, write_host, write_pattern, write_plain3
from redhyp.embed import Violation
from redhyp.glue import validate_glued
from redhyp.errors import DomainError, ParseError, SelfCheckError


def run(args):
    return dispatch(args)


@pytest.fixture
def orientation_file(tmp_path):
    code, text = run(["gen", "--kind", "orientation", "--m", "4"])
    assert code == 0
    path = tmp_path / "orient4.rh"
    path.write_text(text)
    return str(path)


@pytest.fixture
def complete_file(tmp_path):
    code, text = run(["gen", "--kind", "random", "--m", "5",
                      "--class-size", "1", "--d", "1", "--seed", "0"])
    assert code == 0
    path = tmp_path / "complete5.rh"
    path.write_text(text)
    return str(path)


def test_parse_fraction():
    assert parse_fraction("1/4") == 0.25
    assert parse_fraction("3") == 3
    with pytest.raises(DomainError):
        parse_fraction("0.25")
    with pytest.raises(DomainError):
        parse_fraction("1/0")


def test_density_exit_codes(orientation_file):
    code, text = run(["density", "--host", orientation_file, "--d", "1/4",
                      "--deterministic"])
    assert code == 0 and "outcome dense" in text
    code, text = run(["density", "--host", orientation_file, "--d", "26/100",
                      "--deterministic"])
    assert code == 1 and "witness 1 2 3" in text


def test_find_found_and_certificate_revalidates(complete_file):
    code, text = run(["find", "--host", complete_file, "--pattern", "Fstar",
                      "--deterministic"])
    assert code == 0 and "outcome found" in text
    rmap = parse_certificate(text)
    host = parse_host(open(complete_file).read())
    ok, violation = validate_reduced_map(host, pattern_catalog("Fstar"), rmap)
    assert ok, violation


def test_main_prints_the_report_and_returns_its_exit_code(complete_file, capsys):
    argv = ["find", "--host", complete_file, "--pattern", "Fstar", "--deterministic"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (run(argv)[1], "")
    assert "\noutcome found\nnodes 25\n" in out and out.endswith("\nexit 0\n")
    assert main(["find", "--host", complete_file]) == 3
    out, err = capsys.readouterr()
    assert out.startswith("error the following arguments are required: --pattern\n"
                          "usage: redhyp find ") and err == ""


def test_find_not_found_and_budget(orientation_file):
    code, text = run(["find", "--host", orientation_file, "--pattern", "Fstar",
                      "--deterministic"])
    assert code == 1 and "outcome not-found" in text
    code, text = run(["find", "--host", orientation_file, "--pattern", "Fstar",
                      "--budget", "10", "--deterministic"])
    assert code == 2 and "outcome budget-exhausted" in text


def test_find_count_all(complete_file):
    code, text = run(["find", "--host", complete_file, "--pattern", "K4",
                      "--count-all", "--deterministic"])
    assert code == 0
    assert "count 120" in text  # 5*4*3*2 index assignments on singleton classes


def test_oracle_agrees(orientation_file):
    code, text = run(["oracle", "--host", orientation_file,
                      "--pattern", "K4minus", "--deterministic"])
    assert code == 1 and "count 0" in text


def test_unknown_flags_exit_3(orientation_file):
    code, text = run(["find", "--host", orientation_file, "--bogus"])
    assert code == 3 and "usage" in text
    code, text = run(["bogus-command"])
    assert code == 3
    code, text = run(["find", "--host", "/nonexistent.rh", "--pattern", "K4"])
    assert code == 3
    code, text = run(["density", "--host", orientation_file, "--d", "0.25"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["density", "--host", "{dir}", "--d", "1/4"],
    ["find", "--host", "{dir}", "--pattern", "K4"],
    ["audit", "--graph", "{dir}", "--d", "1/4", "--eta", "1/20"],
], ids=["density", "find", "audit"])
def test_unreadable_input_path_exits_3(tmp_path, argv):
    code, text = run([a.format(dir=tmp_path) for a in argv])
    assert code == 3
    assert text.startswith("error ") and str(tmp_path) in text
    assert text.count("\n") == 1


def test_help_is_returned_not_printed(capsys):
    code, text = run(["find", "--help"])
    assert code == 0
    assert text.startswith("usage: redhyp find ") and "--count-all" in text
    code, top = run(["--help"])
    assert code == 0 and top.startswith("usage: redhyp ")
    assert capsys.readouterr().out == ""


def test_oversized_host_exits_2(tmp_path):
    path = tmp_path / "huge.rh"
    path.write_text("M 3\nP 1 2 1000000\nP 1 3 1000000\nP 2 3 1\n")
    code, text = run(["density", "--host", str(path), "--d", "1/4"])
    assert code == 2 and text.startswith("error cap-exceeded: ")


@pytest.mark.parametrize("command,message", [
    (["find", "--budget", "10"],
     "a search for a pattern on 10000000000 vertices needs 30000000003 entries, "
     "above the cap 10000000"),
    (["oracle"], "index assignment space 4^10000000000 exceeds oracle cap 1000000000"),
])
def test_absurd_pattern_size_is_refused_without_allocating(tmp_path, orientation_file,
                                                          command, message):
    path = tmp_path / "huge.pat"
    path.write_text("V 10000000000\nT 1 2 3\n")
    tracemalloc.start()
    try:
        got = run([*command, "--host", orientation_file, "--pattern", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (2, f"error cap-exceeded: {message}\n")
    assert peak < 1 << 20


@pytest.fixture
def deep_search_files(tmp_path):
    """A small complete host, and a 15-byte pattern file whose search would
    take one stack frame per vertex: 1200 of them."""
    code, text = run(["gen", "--kind", "random", "--m", "3", "--class-size", "2",
                      "--d", "1", "--seed", "0"])
    assert code == 0
    (tmp_path / "host.rh").write_text(text)
    (tmp_path / "deep.pat").write_text("V 1200\nT 1 2 3\n")
    return ["find", "--host", str(tmp_path / "host.rh"),
            "--pattern", str(tmp_path / "deep.pat"), "--deterministic"]


@pytest.mark.parametrize("budget,depth", [
    (None, 1203), ("100000", 1203), ("501", 501)])
def test_a_search_deeper_than_the_cap_is_refused(tmp_path, deep_search_files, budget, depth):
    argv = deep_search_files + (["--budget", budget] if budget else [])
    refusal = (2, "error cap-exceeded: a search for a pattern on 1200 vertices may "
                  f"recurse {depth} levels deep, above the cap 500\n")
    assert run(argv) == refusal
    done = _run_cli(argv, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (*refusal, "")


def test_a_search_at_the_depth_cap_runs_out_of_budget(deep_search_files):
    # budget 500 admits the search; it reaches depth 500 and stops at node 501
    code, text = run(deep_search_files + ["--budget", "500"])
    assert (code, text.splitlines()[-3:]) == (2, ["outcome budget-exhausted", "nodes 501",
                                                  "exit 2"])


def test_an_oracle_count_deeper_than_the_cap_is_refused(tmp_path, deep_search_files):
    # Every triple through vertex 1 of 33: the shadow is all 528 pairs, one
    # level each.  3^33 index maps fit under the cap of 10^20, so only the
    # depth refuses the count, before the first map is walked.
    pattern = tmp_path / "fan.pat"
    pattern.write_text("V 33\n" + "".join(f"T 1 {a} {b}\n"
                                          for a, b in itertools.combinations(range(2, 34), 2)))
    host = deep_search_files[deep_search_files.index("--host") + 1]  # M = 3
    argv = ["oracle", "--host", host, "--pattern", str(pattern),
            "--cap", str(10 ** 20), "--deterministic"]
    assert run(argv) == (2, "error cap-exceeded: an oracle count for a pattern on 33 vertices "
                            "would recurse 528 levels deep, above the cap 500\n")


def test_a_sampled_audit_allocates_per_sample_not_per_vertex(tmp_path):
    # One edge on 1000 vertices; a sample of three costs rows and a grid of
    # about n^2 bits (125 kB), not a shift table of n^3 / 2 bits (62 MB).
    path = tmp_path / "sparse.p3"
    path.write_text("V 1000\nT 1 999 1000\n")
    argv = ["audit", "--graph", str(path), "--d", "0", "--eta", "0", "--samples", "1",
            "--seed", "0", "--sizes", "3", "--deterministic"]
    run(["--help"])  # the parser is built on the first dispatch
    tracemalloc.start()
    try:
        code, text = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, text.splitlines()[-3:]) == (0, ["outcome sampled-pass",
                                                  "subsets-checked 1", "exit 0"])
    assert peak < 1 << 20


def test_a_sampled_audit_refuses_packed_rows_above_the_cap(tmp_path):
    # Three vertices lead an edge on 16000 vertices: their packed rows would
    # take 16001^2 bits each, 96 MB in all, and are refused before any is built.
    # So is a sample's grid on 10^6 vertices (125 GB each), edges or not.
    path = tmp_path / "wide.p3"
    path.write_text("V 16000\n" + "".join(f"T {u} 15999 16000\n" for u in (1, 2, 3)))
    argv = ["audit", "--graph", str(path), "--d", "0", "--eta", "0", "--samples", "1",
            "--seed", "0", "--sizes", "3", "--deterministic"]
    run(["--help"])  # the parser is built on the first dispatch
    tracemalloc.start()
    try:
        got = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (2, "error cap-exceeded: a sampled audit of 3 edge-leading vertices on 16000 "
                      "needs 24019001 entries, above the cap 10000000\n")
    assert peak < 1 << 20
    path.write_text("V 1000000\n")
    assert run(argv) == (2, "error cap-exceeded: a sampled audit of 0 edge-leading vertices on "
                            "1000000 needs 46876093751 entries, above the cap 10000000\n")


def test_a_sampled_audit_refuses_more_draws_than_the_cap_before_the_first(tmp_path,
                                                                          monkeypatch):
    # 10^9 samples of three vertices would run for hours: their 3 * 10^9
    # draws are refused before the first.  So are the sizes 3..10^8 that a
    # 12-byte file asks for by default, without a list of them.  With the
    # cap lowered to 12, four samples of three run and five are refused.
    drawn = []
    real = random.Random.sample

    def sample(rng, population, k):
        drawn.append(k)
        return real(rng, population, k)

    monkeypatch.setattr(random.Random, "sample", sample)
    path = tmp_path / "one-edge.p3"
    path.write_text("V 4\nT 1 2 3\n")
    argv = ["audit", "--graph", str(path), "--d", "0", "--eta", "0", "--seed", "0",
            "--deterministic", "--samples"]
    assert run(argv + ["1000000000", "--sizes", "3"]) == (
        2, "error cap-exceeded: a sampled audit of 1000000000 samples per size, sizes "
           "summing to 3, needs 3000000000 entries, above the cap 10000000\n")
    path.write_text("V 100000000\n")
    run(["--help"])  # the parser is built on the first dispatch
    tracemalloc.start()
    try:
        got = run(argv + ["1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (2, "error cap-exceeded: a sampled audit of 1 samples per size, sizes "
                      "summing to 5000000049999997, needs 5000000049999997 entries, above "
                      "the cap 10000000\n")
    assert peak < 1 << 20 and drawn == []
    path.write_text("V 4\nT 1 2 3\n")
    monkeypatch.setattr(core, "TABLE_ENTRY_CAP", 12)
    code, text = run(argv + ["4", "--sizes", "3"])
    assert (code, text.splitlines()[-2:], drawn) == (0, ["subsets-checked 4", "exit 0"],
                                                     [3] * 4)
    assert run(argv + ["5", "--sizes", "3"]) == (
        2, "error cap-exceeded: a sampled audit of 5 samples per size, sizes summing to 3, "
           "needs 15 entries, above the cap 12\n")
    assert drawn == [3] * 4


def test_a_sampled_audit_refuses_more_grid_words_than_the_cap_before_the_first_draw(
        tmp_path, monkeypatch):
    # One edge on 1000 vertices: 3333333 samples of three are 9999999 draws,
    # under the cap, but each drawn vertex's row is ANDed with a grid of
    # ceil(1001^2 / 64) = 15657 words, about 45 minutes in all; refused
    # before the first draw.  A single sample runs.
    drawn = []
    real = random.Random.sample

    def sample(rng, population, k):
        drawn.append(k)
        return real(rng, population, k)

    monkeypatch.setattr(random.Random, "sample", sample)
    path = tmp_path / "sparse.p3"
    path.write_text("V 1000\nT 1 999 1000\n")
    argv = ["audit", "--graph", str(path), "--d", "0", "--eta", "0", "--seed", "0",
            "--sizes", "3", "--deterministic", "--samples"]
    assert run(argv + ["3333333"]) == (
        2, "error cap-exceeded: a sampled audit reading 9999999 sampled vertices against "
           "grids of 15657 words on 1000 needs 156569984343 entries, above the cap 10000000\n")
    assert drawn == []
    code, text = run(argv + ["1"])
    assert (code, text.splitlines()[-2:], drawn) == (0, ["subsets-checked 1", "exit 0"], [3])


def test_failed_self_check_exits_4(tmp_path, monkeypatch):
    code, text = run(["gen", "--kind", "random", "--m", "10", "--class-size",
                      "2", "--d", "1", "--seed", "0"])
    host_path = tmp_path / "complete10.rh"
    host_path.write_text(text)
    monkeypatch.setattr(pipeline, "validate_reduced_map",
                        lambda host, pattern, rmap: (False, Violation("edge", "forced")))
    code, text = run(["pipeline", "--host", str(host_path), "--eps", "7/10",
                      "--delta", "1/4", "--rounds", "4", "--deterministic"])
    assert (code, text) == (4, "error internal: assembled map fails validation "
                               "on working host: Violation(kind='edge', detail='forced')\n")


def test_host_rule_disagreement_is_an_internal_error(tmp_path, monkeypatch):
    # With edge_count miscounting, _from_cells refuses rows that the
    # constructor proved distinct: the program is at fault.
    sizes = {(1, 2): 2, (1, 3): 2, (2, 3): 2}
    edges = {(1, 2, 3): [(0, 1, 1), (1, 0, 1)]}
    monkeypatch.setattr(core.Constituent, "edge_count", lambda con: -1)
    message = ("constituent (1, 2, 3) was refused by the host rules, but none of its "
               "edges lies outside the class ranges (2, 2, 2) or repeats")
    with pytest.raises(SelfCheckError) as err:
        core.ReducedHypergraph(3, sizes, edges)
    assert str(err.value) == message
    path = tmp_path / "commented.rh"  # not canonical, so the line parser reads it
    path.write_text("# two edges\nM 3\nP 1 2 2\nP 1 3 2\nP 2 3 2\n"
                    "E 1 2 3 0 1 1\nE 1 2 3 1 0 1\n")
    assert run(["density", "--host", str(path), "--d", "1/4"]) == \
        (4, f"error internal: {message}\n")


def _python(*args, **kwargs):
    """python *args in a fresh interpreter, importing this redhyp."""
    src = str(Path(redhyp.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kwargs)


def _run_cli(argv, **kwargs):
    """python -m redhyp.cli in a fresh interpreter, importing this redhyp."""
    return _python("-m", "redhyp.cli", *argv, **kwargs)


def test_cli_main_exit_codes_in_a_subprocess(tmp_path, complete_file):
    found = ["find", "--host", complete_file, "--pattern", "K4", "--deterministic"]
    wide = tmp_path / "wide.rh"
    wide.write_text("M 3\nP 1 2 100000\nP 1 3 1\nP 2 3 100000\n")
    missing = tmp_path / "absent.rh"
    cases = [
        (found, 0, run(found)[1]),
        (["find", "--host", str(wide), "--pattern", "Fstar"], 2,
         "error cap-exceeded: host needs 10000600006 constituent table entries, "
         "above the cap 10000000\n"),
        (["density", "--host", str(missing), "--d", "1/2"], 3,
         f"error missing file: {missing}\n"),
    ]
    assert "outcome found" in cases[0][2]
    for argv, code, stdout in cases:
        done = _run_cli(argv, cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (code, stdout, "")


# Prints the redhyp modules loaded after `import redhyp.cli`, runs main on
# the command line, then prints them again.
_LOADED_AROUND_MAIN = """
import sys
def loaded():
    return " ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "redhyp"))
import redhyp.cli
print(loaded())
code = redhyp.cli.main(sys.argv[1:])
print(loaded())
sys.exit(code)
"""
_BARE = {"redhyp", "redhyp.cli", "redhyp.errors"}
_HOST_LAYERS = _BARE | {"redhyp._bits", "redhyp.core", "redhyp.fileio"}
_SEARCH_LAYERS = _HOST_LAYERS | {"redhyp.embed"}
_CLEAN_LAYERS = _SEARCH_LAYERS | {"redhyp.pipeline", "redhyp.qsystem"}
_PLAIN_LAYERS = _HOST_LAYERS | {"redhyp.plain"}


@pytest.fixture(scope="module")
def layer_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("layers")
    texts = {"complete5": write_host(random_box_dense(5, 1, 1, seed=0)),
             "complete10": write_host(random_box_dense(10, 2, 1, seed=0)),
             "empty6": "V 6\n"}
    for name, text in texts.items():
        (root / name).write_text(text)
    return root


# (command line with file names relative to layer_files, exit code, the
# redhyp modules loaded after it ran)
_LAYER_CASES = [
    (["density", "--host", "complete5", "--d", "1/2"], 0, _HOST_LAYERS),
    (["find", "--host", "complete5", "--pattern", "Fstar"], 0, _SEARCH_LAYERS),
    (["oracle", "--host", "complete5", "--pattern", "K4minus"], 0, _SEARCH_LAYERS),
    (["pipeline", "--host", "complete10", "--eps", "7/10", "--delta", "1/4",
      "--rounds", "4"], 0, _CLEAN_LAYERS),
    (["glue", "--host", "complete10", "--eps", "7/10", "--delta", "1/4",
      "--ladder", "4,3"], 0, _CLEAN_LAYERS | {"redhyp.glue"}),
    (["glue-oracle", "--host", "complete5", "--cap", "1000"], 0,
     _CLEAN_LAYERS | {"redhyp.glue"}),
    (["gen", "--kind", "random", "--m", "4", "--d", "1/2", "--out", "gen.rh"], 0,
     _PLAIN_LAYERS | {"redhyp.constructions"}),
    (["audit", "--graph", "empty6", "--d", "0", "--eta", "0", "--exhaustive"], 0,
     _PLAIN_LAYERS),
]


@pytest.mark.parametrize("argv,code,modules", _LAYER_CASES,
                         ids=[argv[0] for argv, _, _ in _LAYER_CASES])
def test_a_command_loads_only_its_own_layers(layer_files, argv, code, modules):
    # In a fresh interpreter: importing the CLI loads no layer, and a
    # command loads the layers it runs and no others.
    done = _python("-c", _LOADED_AROUND_MAIN, *argv, "--deterministic", cwd=layer_files)
    lines = done.stdout.splitlines()
    assert (done.returncode, done.stderr) == (code, ""), done.stdout
    assert lines[-2] == f"exit {code}"
    assert set(lines[0].split()) == _BARE
    assert set(lines[-1].split()) == modules


def test_gen_round_trip(tmp_path):
    out = tmp_path / "host.rh"
    code, text = run(["gen", "--kind", "random", "--m", "5", "--class-size",
                      "3", "--d", "1/2", "--seed", "9", "--out", str(out),
                      "--deterministic"])
    assert code == 0 and "digest sha256:" in text
    host = parse_host(out.read_text())
    assert write_host(host) == out.read_text()


@pytest.mark.parametrize("kind_args", [
    ["--kind", "random", "--m", "5", "--class-size", "3", "--d", "1/2", "--seed", "9"],
    ["--kind", "orientation", "--m", "5"],
    ["--kind", "blowup", "--t", "2"],
    ["--kind", "tournament3", "--n", "7", "--seed", "3"],
])
def test_gen_digest_is_the_sha256_of_the_file(tmp_path, orientation_file, kind_args):
    if "blowup" in kind_args:
        kind_args = kind_args + ["--host", orientation_file]
    out = tmp_path / "out.txt"
    code, text = run(["gen", *kind_args, "--out", str(out), "--deterministic"])
    assert code == 0
    assert f"digest sha256:{hashlib.sha256(out.read_bytes()).hexdigest()}\n" in text


@pytest.mark.parametrize("argv,message", [
    (["--kind", "random", "--m", "8", "--class-size", "100", "--d", "1"],
     "the host's edge list needs 56000000 entries, above the cap 10000000"),
    (["--kind", "random", "--m", "3", "--class-size", "300", "--d", "0"],
     "the sampling pool needs 27000000 entries, above the cap 10000000"),
    (["--kind", "random", "--m", "3", "--class-size", "5000", "--d", "0"],
     "host needs 75030004 constituent table entries, above the cap 10000000"),
    (["--kind", "random", "--m", "1000000", "--d", "1/2"],
     "a host on 1000000 indices needs 666664666668000000 entries, above the cap 10000000"),
    (["--kind", "orientation", "--m", "400"],
     "a host on 400 indices needs 42347200 entries, above the cap 10000000"),
    (["--kind", "tournament3", "--n", "100000"],
     "a 3-graph on 100000 vertices needs 166661666700000 entries, above the cap 10000000"),
])
def test_gen_refuses_oversized_requests_before_allocating(argv, message):
    assert run(["gen", *argv]) == (2, f"error cap-exceeded: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["gen", "--kind", "random", "--d", "1/2"], "gen --kind random needs --m and --d"),
    (["gen", "--kind", "random", "--m", "4"], "gen --kind random needs --m and --d"),
    (["gen", "--kind", "orientation"], "gen --kind orientation needs --m"),
    (["gen", "--kind", "blowup", "--t", "2"], "gen --kind blowup needs --host"),
    (["gen", "--kind", "tournament3", "--seed", "1"], "gen --kind tournament3 needs --n"),
])
def test_gen_refuses_a_missing_argument(argv, message):
    assert run(argv) == (3, f"error {message}\n")


@pytest.mark.parametrize("ladder", ["5,x", "", "5,,3", "4.5"])
def test_glue_refuses_a_bad_ladder(orientation_file, ladder):
    assert run(["glue", "--host", orientation_file, "--eps", "1/10", "--delta", "1/10",
                "--ladder", ladder]) == (3, f"error bad ladder {ladder!r}\n")


def test_gen_blowup_refuses_an_oversized_edge_list(orientation_file):
    # 4 triples of 2 edges, each lifted to 200^3 copies
    assert run(["gen", "--kind", "blowup", "--host", orientation_file, "--t", "200"]) == \
        (2, "error cap-exceeded: the host's edge list needs 64000000 entries, "
            "above the cap 10000000\n")


def test_gen_blowup_and_tournament(tmp_path, orientation_file):
    code, text = run(["gen", "--kind", "blowup", "--host", orientation_file,
                      "--t", "2"])
    assert code == 0
    host = parse_host(text)
    assert host.class_size(1, 2) == 4
    code, text = run(["gen", "--kind", "tournament3", "--n", "6", "--seed", "1"])
    assert code == 0 and text.startswith("V 6")


def test_pipeline_cli_on_complete_host(tmp_path):
    code, text = run(["gen", "--kind", "random", "--m", "10", "--class-size",
                      "2", "--d", "1", "--seed", "0"])
    host_path = tmp_path / "complete10.rh"
    host_path.write_text(text)
    trace_path = tmp_path / "trace.txt"
    code, text = run(["pipeline", "--host", str(host_path), "--eps", "7/10",
                      "--delta", "1/4", "--rounds", "4", "--trace",
                      str(trace_path), "--deterministic"])
    assert code == 0 and "outcome found" in text
    rmap = parse_certificate(text)
    host = parse_host(host_path.read_text())
    ok, violation = validate_reduced_map(host, pattern_catalog("Fstar"), rmap)
    assert ok, violation
    trace = trace_path.read_text()
    assert "row 1" in trace and "pigeonhole" in trace


def test_glue_cli_on_complete_host(tmp_path):
    code, text = run(["gen", "--kind", "random", "--m", "10", "--class-size",
                      "2", "--d", "1", "--seed", "0"])
    host_path = tmp_path / "complete10.rh"
    host_path.write_text(text)
    code, text = run(["glue", "--host", str(host_path), "--eps", "7/10",
                      "--delta", "1/4", "--ladder", "4,3", "--deterministic"])
    assert code == 0 and "outcome found" in text
    cfg = parse_glued(text)
    host = parse_host(host_path.read_text())
    ok, why = validate_glued(host, cfg)
    assert ok, why


def test_glue_oracle_cli(orientation_file):
    code, text = run(["glue-oracle", "--host", orientation_file,
                      "--deterministic"])
    assert code == 1 and "count 0" in text


def test_glue_oracle_refuses_to_count_above_the_table_cap(tmp_path, monkeypatch):
    # Criterion 6's complete M = 30 host, classes of 2: 84188160
    # configurations, within the default --cap, each of which could keep a
    # certificate of about 1 KB.  The refusal comes before the first one.
    path = tmp_path / "complete30.rh"
    path.write_text(write_host(random_box_dense(30, 2, 1, seed=0)))

    def enumerate_configs(host, roles):
        raise AssertionError("enumerated a configuration")
    monkeypatch.setattr(glue, "_enumerate_configs", enumerate_configs)
    assert run(["glue-oracle", "--host", str(path)]) == (
        2, "error cap-exceeded: counting glued certificates needs 84188160 entries, "
           "above the cap 10000000\n")


def test_audit_cli(tmp_path):
    g = tmp_path / "empty6.p3"
    g.write_text("V 6\n")
    code, text = run(["audit", "--graph", str(g), "--d", "1/2", "--eta", "0",
                      "--exhaustive", "--deterministic"])
    assert code == 1 and "witness 1,2,3,4,5,6" in text
    code, text = run(["audit", "--graph", str(g), "--d", "0", "--eta", "0",
                      "--exhaustive", "--deterministic"])
    assert code == 0 and "outcome pass" in text


_CYCLIC17_HEAD = ("command audit\n"
                  "graph sha256:821afa5472f429660158ee4d5f1aeda0e2a7563d9cf1de9bd300883e73bbce38\n")


@pytest.mark.parametrize("d,eta,tail", [
    ("1/3", "1/97", "d 1/3\neta 1/97\nmode exhaustive\noutcome fail\n"
     "subsets-checked 131071\nwitness 1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17\n"
     "deficiency 5/291\nexit 1\n"),
    ("3/10", "1/1000", "d 3/10\neta 1/1000\nmode exhaustive\noutcome fail\n"
     "subsets-checked 131071\nwitness 1,2,3,4,5,6,7,8,9,11,12,13,15,16,17\n"
     "deficiency 24587/1000\nexit 1\n"),
])
def test_audit_cli_fail_reports_are_pinned(tmp_path, d, eta, tail):
    # Reports of the Fraction-per-subset audit, kept byte for byte.
    g = tmp_path / "cyclic17.p3"
    g.write_text(write_plain3(cyclic_triple_3graph(random_tournament(17, 0))))
    code, text = run(["audit", "--graph", str(g), "--d", d, "--eta", eta,
                      "--deterministic"])
    assert (code, text) == (1, _CYCLIC17_HEAD + tail)


_DENSE14_HEAD = ("command audit\n"
                 "graph sha256:9d7670512565ee2ce94be6803c8ffa4123142916ded7a0bd248283986a0e71da\n")


@pytest.mark.parametrize("d,eta,code,tail", [
    ("1", "0", 1, "d 1\neta 0\nmode exhaustive\noutcome fail\nsubsets-checked 16383\n"
     "witness 1,2,3,4,5,6,7,8,9,10,11,12,13,14\ndeficiency 91\nexit 1\n"),
    ("1/2", "0", 1, "d 1/2\neta 0\nmode exhaustive\noutcome fail\nsubsets-checked 16383\n"
     "witness 1,2,5,6,9,13\ndeficiency 2\nexit 1\n"),
    ("1/2", "1/1000", 0, "d 1/2\neta 1/1000\nmode exhaustive\noutcome pass\n"
     "subsets-checked 16383\nexit 0\n"),
], ids=["fail-full-set", "fail-six-set", "pass"])
def test_audit_cli_reports_with_two_byte_counts_are_pinned(tmp_path, d, eta, code, tail):
    # 273 edges: the subset counts no longer fit in one byte.
    g = tmp_path / "dense14.p3"
    g.write_text(write_plain3(Plain3Graph(
        14, [t for t in itertools.combinations(range(1, 15), 3) if sum(t) % 4])))
    got = run(["audit", "--graph", str(g), "--d", d, "--eta", eta,
               "--exhaustive", "--deterministic"])
    assert got == (code, _DENSE14_HEAD + tail)


def test_audit_cli_refuses_a_table_above_the_entry_cap(tmp_path):
    g = tmp_path / "empty24.p3"
    g.write_text(write_plain3(Plain3Graph(24, [])))
    code, text = run(["audit", "--graph", str(g), "--d", "1", "--eta", "0",
                      "--exhaustive", "--cap", "30"])
    assert (code, text) == (2, "error cap-exceeded: exhaustive audit of 24 vertices "
                               "needs 2^24 subset counts, above the cap 10000000; "
                               "use sampled mode\n")


@pytest.mark.parametrize("text,error", [
    ("T 1 2 3\nV 3\n", "line 1: T line before V line"),
    ("V 3\nV 3\n", "line 2: duplicate V line"),
    ("V 0\n", "line 1: vertex count must be >= 1, got 0"),
    ("V three\n", "line 1: V line has non-integer field 'three'"),
    ("V 3\nT 1 2 x\n", "line 2: T line has non-integer field 'x'"),
    ("V 3 4\n", "line 1: V line needs 1 fields, got 2"),
    ("V 3\nT 1 2\n", "line 2: T line needs 3 fields, got 2"),
    ("V 3\nT 1 2 2\n", "line 2: triple (1, 2, 2) has repeated vertices"),
    ("V 3\nT 1 2 4\n", "line 2: triple (1, 2, 4) out of range 1..3"),
    ("V 3\nT 1 2 3\nT 1 2 3\n", "line 3: duplicate triple (1, 2, 3)"),
    ("V 3\nT 1 2 3\nT 3 2 1\n", "line 3: duplicate triple (1, 2, 3)"),
    ("V 3\nX 1 2 3\n", "line 2: unknown line tag 'X'"),
    ("# no graph\n\n", "line 1: missing V line"),
    ("", "line 1: missing V line"),
])
def test_audit_cli_plain_graph_input_errors(tmp_path, text, error):
    g = tmp_path / "bad.p3"
    g.write_bytes(text.encode())
    code, got = run(["audit", "--graph", str(g), "--d", "1/2", "--eta", "0"])
    assert (code, got) == (3, f"error {error}\n")


_PATH4_DIGEST = hashlib.sha256(b"V 4\nT 1 2 3\nT 2 3 4\n").hexdigest()


@pytest.mark.parametrize("text", [
    "V 4\nT 1 2 3\nT 2 3 4\n",
    "# two triples\nV 4\n\nT 1 2 3\n# and one more\nT 2 3 4\n",
    "V 4\nT 01 2 3\nT 2 3 4\n",
    "V 4\nT 2 3 4\nT 1 2 3\n",
    "V 4\nT 3 2 1\nT 4 2 3\n",
    "V 4\r\nT 1 2 3\r\nT 2 3 4\r\n",
], ids=["canonical", "comments", "leading-zero", "rows-out-of-order",
        "vertices-out-of-order", "crlf"])
def test_audit_cli_reports_the_digest_of_the_canonical_text(tmp_path, text):
    # Whatever the layout, the report names the graph by the sha256 of
    # write_plain3(graph), not of the bytes read.
    g = tmp_path / "path4.p3"
    g.write_bytes(text.encode())
    code, got = run(["audit", "--graph", str(g), "--d", "1/2", "--eta", "0",
                     "--deterministic"])
    assert (code, got) == (1, f"command audit\ngraph sha256:{_PATH4_DIGEST}\n"
                              "d 1/2\neta 0\nmode exhaustive\noutcome fail\n"
                              "subsets-checked 15\nwitness 1,2,4\ndeficiency 1/2\n"
                              "exit 1\n")


def test_audit_cli_malformed_sizes_is_an_input_error(tmp_path):
    g = tmp_path / "empty6.p3"
    g.write_text("V 6\n")
    code, text = run(["audit", "--graph", str(g), "--d", "1/2", "--eta", "0",
                      "--samples", "3", "--sizes", "3,x"])
    assert (code, text) == (3, "error --sizes must be comma-separated integers, "
                               "got '3,x'\n")


def test_audit_cli_empty_sizes_is_an_input_error(tmp_path):
    g = tmp_path / "empty6.p3"
    g.write_text("V 6\n")
    code, text = run(["audit", "--graph", str(g), "--d", "1/2", "--eta", "0",
                      "--samples", "3", "--sizes", ""])
    assert (code, text) == (3, "error --sizes must be comma-separated integers, "
                               "got ''\n")


@pytest.mark.parametrize("extra", [[], ["--exhaustive"], ["--exhaustive", "--samples", "3"]])
def test_audit_cli_refuses_sizes_on_an_exhaustive_audit(tmp_path, extra):
    g = tmp_path / "empty6.p3"
    g.write_text("V 6\n")
    for sizes in ("4", ""):
        code, text = run(["audit", "--graph", str(g), "--d", "1/2", "--eta", "0",
                          "--sizes", sizes, *extra])
        assert (code, text) == (3, "error --sizes applies only to sampled audits\n")


def test_report_file_redirect(tmp_path, orientation_file):
    report = tmp_path / "report.txt"
    code, text = run(["density", "--host", orientation_file, "--d", "1/4",
                      "--report", str(report), "--deterministic"])
    assert code == 0 and text == ""
    assert "outcome dense" in report.read_text()


def test_reports_are_deterministic(complete_file, orientation_file):
    jobs = [
        ["find", "--host", complete_file, "--pattern", "Fstar",
         "--deterministic", "--threads", "1"],
        ["find", "--host", orientation_file, "--pattern", "K4minus",
         "--count-all", "--deterministic", "--threads", "1"],
        ["oracle", "--host", orientation_file, "--pattern", "K4",
         "--deterministic"],
    ]
    for job in jobs:
        first = run(job)
        second = run(job)
        assert first == second


def test_console_entry_point_subprocess(orientation_file):
    # spot-check byte determinism across separate interpreter processes
    cmd = [sys.executable, "-m", "redhyp.cli", "find", "--host",
           orientation_file, "--pattern", "K4minus", "--count-all",
           "--deterministic", "--threads", "1"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 1 and a.stdout == b.stdout


def test_pipeline_cli_default_rounds_on_complete_host(tmp_path):
    # With no --rounds the default ceil(2/eps^2)+1 applies and the run
    # still succeeds on the complete host.
    code, text = run(["gen", "--kind", "random", "--m", "30", "--class-size",
                      "2", "--d", "1", "--seed", "0"])
    host_path = tmp_path / "complete30.rh"
    host_path.write_text(text)
    code, text = run(["pipeline", "--host", str(host_path), "--eps", "7/10",
                      "--delta", "1/4", "--deterministic"])
    assert code == 0 and "outcome found" in text
    assert "rounds 6" in text


def test_audit_cli_sampled_sizes(tmp_path):
    g = tmp_path / "k8.p3"
    lines = ["V 8"] + [f"T {u} {v} {w}" for u in range(1, 9)
                       for v in range(u + 1, 9) for w in range(v + 1, 9)]
    g.write_text("\n".join(lines) + "\n")
    code, text = run(["audit", "--graph", str(g), "--d", "1", "--eta", "0",
                      "--samples", "3", "--seed", "5", "--sizes", "4,6",
                      "--deterministic"])
    assert code == 0 and "outcome sampled-pass" in text
    assert "subsets-checked 6" in text


def test_glue_cli_trace(tmp_path):
    code, text = run(["gen", "--kind", "random", "--m", "8", "--class-size",
                      "2", "--d", "1", "--seed", "0"])
    host_path = tmp_path / "complete8.rh"
    host_path.write_text(text)
    trace_path = tmp_path / "glue-trace.txt"
    code, text = run(["glue", "--host", str(host_path), "--eps", "7/10",
                      "--delta", "1/4", "--ladder", "3,2", "--trace",
                      str(trace_path), "--deterministic"])
    assert code == 0
    trace = trace_path.read_text()
    assert "row 1" in trace and "configuration validated" in trace


@pytest.mark.parametrize("extra", [["--count-all"], ["--count-all", "--budget", "50"],
                                   ["--budget", "3"], []])
def test_find_cli_threads(complete_file, extra):
    # --threads selects nothing: only the echoed threads line differs.
    job = ["find", "--host", complete_file, "--pattern", "K4minus", "--deterministic"]
    code1, one = run(job + ["--threads", "1"] + extra)
    code2, two = run(job + ["--threads", "2"] + extra)
    assert code1 == code2
    assert "threads 1\n" in one
    assert two == one.replace("threads 1\n", "threads 2\n")
    if "--budget" in extra:
        assert code1 == 2 and "outcome budget-exhausted" in one


@pytest.mark.parametrize("command", [
    ["find", "--pattern", "K4minus"],
    ["pipeline", "--eps", "1/2", "--delta", "1/4"],
])
def test_threads_below_one_is_an_input_error(complete_file, command):
    for threads in ("0", "-1"):
        code, text = run(command + ["--host", complete_file, "--threads", threads])
        assert (code, text) == (3, f"error threads must be >= 1, got {threads}\n")


@pytest.mark.parametrize("argv", [
    ["density", "--host", "{bad}", "--d", "1/4"],
    ["find", "--host", "{bad}", "--pattern", "K4"],
    ["find", "--host", "{good}", "--pattern", "{bad}"],
    ["oracle", "--host", "{bad}", "--pattern", "K4"],
    ["oracle", "--host", "{good}", "--pattern", "{bad}"],
    ["pipeline", "--host", "{bad}", "--eps", "1/2", "--delta", "1/4"],
    ["glue", "--host", "{bad}", "--eps", "1/2", "--delta", "1/4", "--ladder", "4,3"],
    ["glue-oracle", "--host", "{bad}"],
    ["gen", "--kind", "blowup", "--host", "{bad}"],
    ["audit", "--graph", "{bad}", "--d", "1/4", "--eta", "1/20"],
], ids=["density", "find-host", "find-pattern", "oracle-host", "oracle-pattern",
        "pipeline", "glue", "glue-oracle", "gen-blowup", "audit"])
def test_input_file_that_is_not_utf8_is_an_input_error(tmp_path, orientation_file, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"M 3\n\xff\n")
    got = run([a.format(bad=bad, good=orientation_file) for a in argv])
    assert got == (3, f"error {bad} is not UTF-8 text: invalid start byte at byte 4\n")


@pytest.mark.parametrize("command, at_zero", [
    (["oracle", "--host", "{host}", "--pattern", "K4"],
     "index assignment space 4^4 exceeds oracle cap 0"),
    (["glue-oracle", "--host", "{host}"], "glued enumeration space exceeds cap 0"),
    (["audit", "--graph", "{graph}", "--d", "1/2", "--eta", "0"],
     "exhaustive audit capped at 0 vertices (graph has 6); use sampled mode"),
], ids=["oracle", "glue-oracle", "audit"])
def test_negative_cap_is_an_input_error_before_any_work(tmp_path, orientation_file,
                                                        command, at_zero):
    graph = tmp_path / "empty6.p3"
    graph.write_text("V 6\n")
    argv = [a.format(host=orientation_file, graph=graph) for a in command]
    for cap in ("-5", "-1"):
        assert run(argv + ["--cap", cap]) == (3, f"error cap must be >= 0, got {cap}\n")
        # refused before the input file is read
        missing = [a.format(host=tmp_path / "none.rh", graph=tmp_path / "none.p3")
                   for a in command]
        assert run(missing + ["--cap", cap]) == (3, f"error cap must be >= 0, got {cap}\n")
    if command[0] == "audit":  # sampled audits do not read the cap, and refuse it too
        assert run(argv + ["--samples", "3", "--cap", "-5"]) == \
            (3, "error cap must be >= 0, got -5\n")
    assert run(argv + ["--cap", "0"]) == (2, f"error cap-exceeded: {at_zero}\n")


_GLUED = ("G-indices 1 2 5 4\nG 1 2 0\nG 1 3 0\nG 1 4 0\nG 2 3 0\nG 2 4 0\n"
          "G 3 4 0\nG-prime 2 3 0\nG-prime 2 4 0\n")


@pytest.mark.parametrize("parse,text,line,message", [
    (parse_certificate, "command find\nL 1 2\nL 2\n", 3, "L line needs 2 fields, got 1"),
    (parse_certificate, "L 1 2 3\n", 1, "L line needs 2 fields, got 3"),
    (parse_certificate, "\nL 1 x\n", 2, "L line has non-integer field 'x'"),
    (parse_certificate, "F 1 2 1 2\n", 1, "F line needs 5 fields, got 4"),
    (parse_certificate, "L 1 1\nF 1 2 1 2 0 7\n", 2, "F line needs 5 fields, got 6"),
    (parse_certificate, "F 1 2 1 2 1/2\n", 1, "F line has non-integer field '1/2'"),
    (parse_glued, "G-indices 1 2 3\n", 1, "G-indices line needs 4 fields, got 3"),
    (parse_glued, "G-indices 1 2 3 x\n", 1, "G-indices line has non-integer field 'x'"),
    (parse_glued, _GLUED + "G 1 2\n", 10, "G line needs 3 fields, got 2"),
    (parse_glued, "G 1 2 0.5\n", 1, "G line has non-integer field '0.5'"),
    (parse_glued, "G-prime 2 3\n" + _GLUED, 1, "G-prime line needs 3 fields, got 2"),
    (parse_glued, "exit 0\nG-prime 2 4 a\n", 2, "G-prime line has non-integer field 'a'"),
    (parse_certificate, "L 1 2\nL 1 3\n", 2, "repeated L 1 line"),
    (parse_certificate, "L 1 1\nF 1 2 1 2 0\nL 2 2\nF 1 2 1 2 0\n", 4, "repeated F 1 2 line"),
    (parse_glued, "G-indices 1 2 3 4\n" + _GLUED, 2, "repeated G-indices line"),
    (parse_glued, _GLUED + "G 2 4 1\n", 10, "repeated G 2 4 line"),
    (parse_glued, "G-prime 2 3 1\n" + _GLUED, 9, "repeated G-prime 2 3 line"),
])
def test_certificate_parsers_reject_malformed_lines(parse, text, line, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_parse_glued_needs_the_six_role_pairs():
    # validate_glued indexes the role pairs, so (1, 5) in place of (3, 4) must not parse.
    for text in (_GLUED.replace("G 3 4 0", "G 1 5 0"), _GLUED.replace("G 3 4 0\n", ""),
                 _GLUED.replace("G-prime 2 4 0", "G-prime 3 4 0")):
        with pytest.raises(DomainError, match="incomplete glued-configuration lines"):
            parse_glued(text)
    assert parse_glued(_GLUED).alpha == {(1, 2): 0, (1, 3): 0, (1, 4): 0,
                                         (2, 3): 0, (2, 4): 0, (3, 4): 0}


def test_parse_glued_skips_blank_lines():
    spaced = "\n" + _GLUED.replace("\n", "\n\n   \n")
    assert parse_glued(spaced) == parse_glued(_GLUED)


# -- the exit-code contract on generated command lines ----------------------
#
# Command lines come from the documented grammar (build_parser): every
# command, its options present or dropped, values valid or not, and files
# valid, mutated, missing or a directory.  Searches that a mutated pattern
# could make exponential always carry a small --budget or --cap.  Pattern
# files may declare up to a few thousand vertices, past find's depth cap;
# plain-graph files keep the valid file's 7 vertices, give or take a mutation.

FRACTION = (["1/2", "3/4", "9/10", "7/10", "1/4", "1"], ["0", "-1/2", "0.5", "x", "1/0", ""])
EPS = (["1/2", "7/10", "9/10"], ["1", "0", "0.5", "x", ""])
DELTA = (["1/4", "1/10"], ["1", "0", "1/0", "x", ""])
SMALL_INT = (["1", "2", "3"], ["-1", "0", "x"])
MIN_FINAL = (["3", "4"], ["2", "x"])
M_VALUE = (["3", "5", "9"], ["-1", "0", "x"])
ONE_IN_TEN = st.sampled_from([True] * 9 + [False])  # False one time in ten
JUNK_LINES = ["", "# note", "E 1 2 3 0 0 0", "P 1 2 0", "M 1", "V -1", "T 1 1 2", "Q 7"]


@st.composite
def mutated(draw, text):
    """text after one to three line or character edits."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True) or [""]
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "char", "cut", "junk"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "junk":
            lines.insert(i, draw(st.sampled_from(JUNK_LINES)) + "\n")
        text = "".join(lines)
        if edit == "char" and text:
            k = draw(st.integers(0, len(text) - 1))
            text = text[:k] + draw(st.sampled_from(" \t\n0123456789-xEPMVT")) + text[k + 1:]
        elif edit == "cut":
            text = text[:draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def grammar_files(tmp_path_factory):
    """Valid inputs, and paths for the mutated copies and other targets."""
    root = tmp_path_factory.mktemp("grammar")
    texts = {
        "host": write_host(random_box_dense(5, 2, Fraction(3, 4), seed=1)),
        "complete": write_host(random_box_dense(9, 1, 1, seed=0)),
        "pattern": write_pattern(pattern_catalog("Fstar")),
        "graph": write_plain3(cyclic_triple_3graph(random_tournament(7, 0))),
    }
    paths = {"dir": str(root), "missing": str(root / "missing"),
             "report": str(root / "report.txt"), "out": str(root / "out.txt")}
    for kind, text in texts.items():
        (root / f"{kind}.txt").write_text(text)
        paths[kind] = str(root / f"{kind}.txt")
        paths[f"mutated-{kind}"] = str(root / f"mutated-{kind}.txt")
    return root, texts, paths


def _file(kind):
    valid = ["host", "complete"] if kind == "host" else [kind]
    return valid, [f"mutated-{kind}", "missing", "dir"]


# command -> [(option, (valid values, invalid values) or None for a flag,
# required)]; file values are keys of grammar_files' paths.
GRAMMAR = {
    "density": [("--host", _file("host"), True), ("--d", FRACTION, True)],
    "find": [("--host", _file("host"), True),
             ("--pattern", (["Fstar", "K4", "single_edge", "pattern"],
                            ["nope", "mutated-pattern", "missing"]), True),
             ("--budget", (["1", "50", "5000"], ["0", "-1", "x"]), True),
             ("--count-all", None, False)],
    "oracle": [("--host", _file("host"), True),
               ("--pattern", (["K4minus", "pattern"], ["mutated-pattern"]), True),
               ("--cap", (["100", "100000"], ["-1", "0", "x"]), True)],
    "pipeline": [("--host", _file("host"), True), ("--eps", EPS, True),
                 ("--delta", DELTA, True), ("--rounds", (["2", "3", "4"], ["0", "x"]), False),
                 ("--m-star", M_VALUE, False), ("--m", M_VALUE, False),
                 ("--min-final", MIN_FINAL, False), ("--trace", (["out"], ["dir"]), False)],
    "glue": [("--host", _file("host"), True), ("--eps", EPS, True),
             ("--delta", DELTA, True),
             ("--ladder", (["3,2", "2,1", "3,1"], ["2,3", "x", ""]), True),
             ("--m-star", M_VALUE, False), ("--m", M_VALUE, False),
             ("--min-final", MIN_FINAL, False), ("--trace", (["out"], ["dir"]), False)],
    "glue-oracle": [("--host", _file("host"), True),
                    ("--cap", (["100", "100000"], ["0", "x"]), True)],
    "gen": [("--kind", (["random", "orientation", "blowup", "tournament3"], ["nope"]), True),
            ("--m", (["3", "4", "5"], ["-1", "0", "x"]), False),
            ("--class-size", SMALL_INT, False), ("--d", FRACTION, False),
            ("--seed", SMALL_INT, False), ("--n", (["3", "6"], ["-1", "0", "x"]), False),
            ("--host", _file("host"), False), ("--t", SMALL_INT, False),
            ("--out", (["out", "-"], ["dir"]), False)],
    "audit": [("--graph", _file("graph"), True), ("--d", FRACTION, True),
              ("--eta", FRACTION, True), ("--exhaustive", None, False),
              ("--samples", (["0", "1", "3"], ["-1", "x"]), False),
              ("--seed", SMALL_INT, False),
              ("--sizes", (["3,4", "3", "5,6"], ["0,2", "99", "x", ""]), False),
              ("--cap", (["3", "8", "12"], ["-1", "0"]), True)],
}
COMMON = [("--report", (["report"], ["dir"]), False), ("--deterministic", None, False),
          ("--threads", (["1", "2"], ["0", "-1", "x"]), False)]


@st.composite
def command_lines(draw, texts):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    # About one line in four is fully valid: every required option, valid
    # values only and no --bogus, so each handler runs its own layers.
    valid_only = draw(st.sampled_from([False, False, False, True]))
    argv = [command]
    for option, values, required in GRAMMAR[command] + COMMON:
        # Otherwise a required option is dropped now and then, to test the
        # usage error, except for the limits that keep a search small.
        if required:
            kept = valid_only or option in ("--budget", "--cap") or \
                draw(st.sampled_from([True] * 19 + [False]))
        else:
            kept = draw(st.booleans())
        if not kept:
            continue
        argv.append(option)
        if values is not None:
            valid, invalid = values
            # Otherwise one value in ten is invalid.
            argv.append(draw(st.sampled_from(
                valid if valid_only or draw(ONE_IN_TEN) else invalid)))
    if not valid_only and not draw(ONE_IN_TEN):
        argv.append("--bogus")
    kind = "graph" if command == "audit" else \
        "pattern" if command in ("find", "oracle") and draw(st.booleans()) else "host"
    # The pattern file holds F*'s edges on up to a few thousand vertices:
    # deep enough that find refuses most of them under --budget 5000.
    sized = f"V {draw(st.integers(5, 3000))}\n" + texts["pattern"].split("\n", 1)[1]
    return argv, kind, draw(mutated(sized if kind == "pattern" else texts[kind])), sized


def _written_to_file(argv):
    """Whether a gen command line names an output file other than stdout."""
    return "--out" in argv[:-1] and argv[argv.index("--out") + 1] != "-"


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_dispatch_keeps_the_exit_code_contract(grammar_files, data):
    root, texts, paths = grammar_files
    argv, kind, text, pattern = data.draw(command_lines(texts))
    (root / f"mutated-{kind}.txt").write_text(text)
    (root / "pattern.txt").write_text(pattern)
    report = root / "report.txt"
    report.unlink(missing_ok=True)
    argv = [paths.get(a, a) for a in argv]
    code, out = dispatch(argv)  # must not raise
    assert code in (0, 1, 2, 3, 4), (argv, out)
    if out == "" and report.exists():
        out = report.read_text()
    lines = out.splitlines()
    # An error is one line; after a usage error, argparse's usage text follows it.
    error = bool(lines) and lines[0].startswith("error ") and \
        (len(lines) == 1 or lines[1].startswith("usage: "))
    if code in (3, 4):
        assert error, (argv, out)
    elif code == 2:
        # Out of resources: a refusal, or a search report whose budget ran out.
        assert (error and lines[0].startswith("error cap-exceeded: ")) or \
            ("outcome budget-exhausted" in lines and lines[-1] == "exit 2"), (argv, out)
    elif argv[0] != "gen" or _written_to_file(argv):
        # Everything but a generated file on stdout is a report.
        assert lines[-1] == f"exit {code}", (argv, out)


@settings(max_examples=60, deadline=None, database=None)
@given(size=st.integers(5, 3000), budget=st.integers(1, 5000), count_all=st.booleans())
def test_find_at_any_depth_keeps_the_exit_code_contract(grammar_files, size, budget,
                                                        count_all):
    # F*'s edges (10 shadow pairs) on `size` vertices: the search is refused
    # past the depth cap and otherwise runs, at depths up to 500, to a report.
    root, texts, paths = grammar_files
    path = root / "deep-pattern.txt"
    path.write_text(f"V {size}\n" + texts["pattern"].split("\n", 1)[1])
    argv = ["find", "--host", paths["host"], "--pattern", str(path),
            "--budget", str(budget), "--deterministic"] + ["--count-all"] * count_all
    code, out = dispatch(argv)
    depth = min(size + 10, budget)
    if depth > 500:
        assert (code, out) == (2, f"error cap-exceeded: a search for a pattern on {size} "
                                  f"vertices may recurse {depth} levels deep, above the "
                                  "cap 500\n")
    else:
        assert code in (0, 1, 2) and out.endswith(f"\nexit {code}\n"), (argv, out)


# (size, exhaustive, samples, sizes) of an audit; sizes None is drawn in the
# test.  The second arm reads 4 * 18 sampled vertices against grids of at
# least 138943 words, past 10^7 in all, so the grid-word refusal is reached.
_AUDIT_CASES = st.one_of(
    st.tuples(st.integers(3, 3000), st.booleans(),
              st.one_of(st.integers(1, 4), st.integers(10 ** 7 // 3 + 1, 10 ** 12)), st.none()),
    st.tuples(st.integers(2981, 3000), st.just(False), st.just(4), st.just([6, 6, 6])))


@settings(max_examples=60, deadline=None, database=None)
@given(case=_AUDIT_CASES, d=st.sampled_from(["0", "1/4", "1"]), data=st.data())
def test_audit_at_any_size_keeps_the_exit_code_contract(grammar_files, case, d, data):
    # The 7-vertex cyclic graph's edges on `size` vertices.  An exhaustive
    # audit above the default cap of 20 vertices, a sampled one drawing
    # more than 10^7 vertices, and one whose drawn vertices' rows are read
    # against grids of more than 10^7 words in all, are refused; any other
    # runs to a report.  samples is a few, or so many that sizes summing to
    # 3 pass the cap.
    size, exhaustive, samples, sizes = case
    root, texts, paths = grammar_files
    edges = parse_plain3(texts["graph"]).edges
    path = root / "wide-graph.txt"
    path.write_text(write_plain3(Plain3Graph(size, [e for e in edges if e[2] <= size])))
    if sizes is None:
        sizes = data.draw(st.lists(st.integers(3, min(size, 6)), min_size=1, max_size=3))
    argv = ["audit", "--graph", str(path), "--d", d, "--eta", "1/20", "--deterministic"]
    argv += ["--exhaustive"] if exhaustive else \
        ["--samples", str(samples), "--seed", "0", "--sizes", ",".join(map(str, sizes))]
    code, out = dispatch(argv)
    words = -(-(size + 1) ** 2 // 64)  # of one sample's grid
    if exhaustive and size > 20:
        assert (code, out) == (2, "error cap-exceeded: exhaustive audit capped at 20 vertices "
                                  f"(graph has {size}); use sampled mode\n")
    elif not exhaustive and samples * sum(sizes) > 10 ** 7:
        assert (code, out) == (2, f"error cap-exceeded: a sampled audit of {samples} samples "
                                  f"per size, sizes summing to {sum(sizes)}, needs "
                                  f"{samples * sum(sizes)} entries, above the cap 10000000\n")
    elif not exhaustive and samples * sum(sizes) * words > 10 ** 7:
        assert (code, out) == (2, "error cap-exceeded: a sampled audit reading "
                                  f"{samples * sum(sizes)} sampled vertices against grids of "
                                  f"{words} words on {size} needs {samples * sum(sizes) * words} "
                                  "entries, above the cap 10000000\n")
    else:
        assert code in (0, 1, 2) and out.endswith(f"\nexit {code}\n"), (argv, out)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_certificate_files_parse_and_validate_or_raise_input_errors(data):
    host = random_box_dense(5, 1, 1, seed=0)
    certificate = find_reduced_image(host, pattern_catalog("Fstar")).certificate
    reduced = data.draw(st.booleans())
    text = data.draw(mutated("\n".join(certificate_lines(certificate.rmap)) + "\n"
                             if reduced else _GLUED))
    try:
        if reduced:
            validate_reduced_map(host, pattern_catalog("Fstar"), parse_certificate(text))
        else:
            validate_glued(host, parse_glued(text))
    except (ParseError, DomainError):
        pass
