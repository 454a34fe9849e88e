"""Text format tests: round trips, canonical order, line-numbered errors."""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from redhyp import (CapExceeded, DomainError, ParseError, Plain3Graph, ReducedHypergraph,
                    constituent_density, is_box_dense, random_box_dense)
from redhyp import core, fileio
from redhyp.cli import dispatch, parse_certificate, parse_glued
from redhyp.constructions import (cyclic_triple_3graph, orientation_reduced, random_tournament,
                                  reduced_blow_up)
from redhyp.core import pattern_catalog
from redhyp.fileio import (host_digest, parse_host, parse_pattern, parse_plain3,
                           write_host, write_pattern, write_plain3)


def test_host_round_trip_canonical():
    rng = random.Random(2)
    for _ in range(10):
        h = random_box_dense(rng.randint(3, 6), rng.randint(1, 3),
                             Fraction(rng.randint(0, 10), 10),
                             seed=rng.randint(0, 99))
        text = write_host(h)
        again = parse_host(text)
        assert again == h
        assert write_host(again) == text  # canonical re-serialization is stable
        lines = text.splitlines()
        p_lines = [x for x in lines if x.startswith("P ")]
        e_lines = [x for x in lines if x.startswith("E ")]
        assert p_lines == sorted(p_lines, key=lambda s: [int(t) for t in s.split()[1:]])
        assert e_lines == sorted(e_lines, key=lambda s: [int(t) for t in s.split()[1:]])


def test_host_parser_accepts_comments_and_blank_lines():
    text = "# generated\nM 3\n\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0\n"
    h = parse_host(text)
    assert h.index_count == 3
    assert h.edge_count((1, 2, 3)) == 1


@pytest.mark.parametrize("text,line", [
    ("M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 5", 5),
    ("M 3\nP 2 1 1", 2),
    ("M 3\nP 1 2 1\nP 1 2 2", 3),
    ("M x", 1),
    ("M 3\nQ 1 2", 2),
    ("M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 3 2 0 0 0", 5),
    ("M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0\nE 1 2 3 0 0 0", 6),
])
def test_host_parser_rejects_with_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_host(text)
    assert err.value.line == line


def test_host_parser_requires_all_pairs():
    with pytest.raises(ParseError):
        parse_host("M 3\nP 1 2 1\nP 1 3 1\n")


HEAD = "M 3\nP 1 2 2\nP 1 3 3\nP 2 3 4\n"


# (text, line, message) of the parser's first error, pinned so that a faster
# parser reports the same fault for lines with several faults.
@pytest.mark.parametrize("text,line,message", [
    ("", 1, "missing M line"),
    ("P 1 2 1\n", 1, "P line before M line"),
    ("E 1 2 3 0 0 0\n", 1, "E line before M line"),
    ("M 1 2\n", 1, "M line needs 1 fields, got 2"),
    ("M x\n", 1, "M line has non-integer field 'x'"),
    ("M 1\n", 1, "index count must be >= 2, got 1"),
    ("M 3\nM 3\n", 2, "duplicate M line"),
    ("M 3\nP 1 2 y\n", 2, "P line has non-integer field 'y'"),
    ("M 3\nP 1 4 1\n", 2, "pair (1, 4) not sorted within 1..3"),
    ("M 3\nP 1 2 0\n", 2, "class size must be >= 1, got 0"),
    ("M 3\nP 1 2 1\nP 1 2 2\n", 3, "duplicate P line for pair (1, 2)"),
    ("M 3\nQ 1 2\n", 2, "unknown line tag 'Q'"),
    ("M 4\nP 1 2 1\nP 1 3 1\nP 2 3 1\nP 1 4 1\nP 3 4 1\n", 1,
     "missing P line for pair (2, 4)"),
    ("M 60\n", 1, "missing P line for pair (1, 2)"),
    (HEAD + "E 1 2 3 0 0\n", 5, "E line needs 6 fields, got 5"),
    (HEAD + "E 1 2 3 0 0 z\n", 5, "E line has non-integer field 'z'"),
    # two faults: the field count is reported before the bad field
    (HEAD + "E 1 2 3 0 0 z 9\n", 5, "E line needs 6 fields, got 7"),
    (HEAD + "E 1 2 3 0 0 " + "1" * 5000 + "\n", 5,
     "E line has non-integer field '" + "1" * 5000 + "'"),
    (HEAD + "E 1 3 2 0 0 0\n", 5, "triple (1, 3, 2) not sorted within 1..3"),
    (HEAD + "E 1 2 4 0 0 0\n", 5, "triple (1, 2, 4) not sorted within 1..3"),
    # out-of-range vertices in each slot, on a triple's first line and later
    (HEAD + "E 1 2 3 2 0 0\n", 5, "vertex 2 out of range for class P^{1,2} of size 2"),
    (HEAD + "E 1 2 3 0 3 0\n", 5, "vertex 3 out of range for class P^{1,3} of size 3"),
    (HEAD + "E 1 2 3 0 0 -1\n", 5, "vertex -1 out of range for class P^{2,3} of size 4"),
    (HEAD + "E 1 2 3 0 0 0\nE 1 2 3 2 0 0\n", 6,
     "vertex 2 out of range for class P^{1,2} of size 2"),
    (HEAD + "E 1 2 3 0 0 0\nE 1 2 3 0 3 0\n", 6,
     "vertex 3 out of range for class P^{1,3} of size 3"),
    (HEAD + "E 1 2 3 0 0 0\nE 1 2 3 1 2 9\n", 6,
     "vertex 9 out of range for class P^{2,3} of size 4"),
    # several out-of-range slots: the first slot is reported
    (HEAD + "E 1 2 3 2 3 4\n", 5, "vertex 2 out of range for class P^{1,2} of size 2"),
    (HEAD + "E 1 2 3 0 3 4\n", 5, "vertex 3 out of range for class P^{1,3} of size 3"),
    # a missing P pair: pair by pair, presence before range
    ("M 3\nE 1 2 3 0 0 0\n", 2, "E line uses pair (1, 2) with no P line"),
    ("M 3\nP 1 2 2\nP 1 3 3\nE 1 2 3 0 0 0\n", 4, "E line uses pair (2, 3) with no P line"),
    ("M 3\nP 1 3 2\nP 2 3 3\nE 1 2 3 0 9 0\n", 4, "E line uses pair (1, 2) with no P line"),
    ("M 3\nP 1 2 2\nP 2 3 3\nE 1 2 3 5 0 0\n", 4,
     "vertex 5 out of range for class P^{1,2} of size 2"),
    ("M 3\nP 1 2 2\nP 1 3 3\nE 1 2 3 0 9 9\n", 4,
     "vertex 9 out of range for class P^{1,3} of size 3"),
    ("M 3\nP 1 2 2\nP 1 3 3\nE 1 2 3 0 0 9\n", 4, "E line uses pair (2, 3) with no P line"),
    ("M 4\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0\nE 1 2 4 0 0 0\n", 6,
     "E line uses pair (1, 4) with no P line"),
    # duplicates, also after another edge and in a second triple
    (HEAD + "E 1 2 3 0 0 0\nE 1 2 3 0 0 0\n", 6, "duplicate edge (1, 2, 3, 0, 0, 0)"),
    (HEAD + "E 1 2 3 1 2 3\nE 1 2 3 0 0 0\nE 1 2 3 1 2 3\n", 7,
     "duplicate edge (1, 2, 3, 1, 2, 3)"),
    (HEAD + "E 1 2 3 +1 0 0\nE 1 2 3 1 0 0\n", 6, "duplicate edge (1, 2, 3, 1, 0, 0)"),
    ("M 4\nP 1 2 1\nP 1 3 1\nP 2 3 1\nP 1 4 1\nP 2 4 1\nP 3 4 1\n"
     "E 1 2 3 0 0 0\nE 1 2 4 0 0 0\nE 1 2 4 0 0 0\n", 10, "duplicate edge (1, 2, 4, 0, 0, 0)"),
    (HEAD + "E 1 2 3 0 0 0\nE 3 2 1 0 0 0\n", 6, "triple (3, 2, 1) not sorted within 1..3"),
    (HEAD + "E 1 2 3 0 0 0\nP 1 2 2\n", 6, "duplicate P line for pair (1, 2)"),
])
def test_host_parser_error_messages(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_host(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_search_tables_count_toward_the_cap(monkeypatch, tmp_path):
    # comp01 and comp12 of (1, 2, 3) have 10^5 entries each, but the
    # search-only comp02 would have 10^5 * 10^5.
    text = "M 3\nP 1 2 100000\nP 1 3 1\nP 2 3 100000\n"

    def refuse(*args):
        raise AssertionError("a Constituent was built")

    monkeypatch.setattr(core.Constituent, "__init__", refuse)
    message = "host needs 10000600006 constituent table entries, above the cap 10000000"
    with pytest.raises(CapExceeded) as err:
        parse_host(text)
    assert str(err.value) == message
    path = tmp_path / "wide.rh"
    path.write_text(text)
    assert dispatch(["find", "--host", str(path), "--pattern", "Fstar"]) == \
        (2, f"error cap-exceeded: {message}\n")


def test_table_size_matches_per_triple_sum():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(2, 8)
        sizes = {(i, j): rng.randint(1, 9) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
        want = 0
        for i, j, k in itertools.combinations(range(1, m + 1), 3):
            s0, s1, s2 = sizes[(i, j)], sizes[(i, k)], sizes[(j, k)]
            # constituent, comp01, comp12, comp02, six proj_xy, occupied
            want += 1 + s0 * s1 + s1 * s2 + s0 * s2 + 2 * (s0 + s1 + s2) + 3
        assert core._table_size(m, sizes) == want


def test_oversized_hosts_refused_before_allocation():
    # Two classes of 10^6 would ask for 10^12 completion-table entries.
    text = "M 3\nP 1 2 1000000\nP 1 3 1000000\nP 2 3 1\n"
    with pytest.raises(CapExceeded):
        parse_host(text)
    with pytest.raises(ParseError) as err:
        parse_host("M 1000000\n")
    assert str(err.value) == "line 1: missing P line for pair (1, 2)"
    # 400 indices give comb(400, 3) > 10^7 constituents even with classes of 1
    sizes = {(i, j): 1 for i in range(1, 401) for j in range(i + 1, 401)}
    with pytest.raises(CapExceeded):
        ReducedHypergraph(400, sizes, {})


@st.composite
def _hosts(draw):
    m = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    sizes = {p: draw(st.integers(1, 3)) for p in pairs}
    cons = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for k in range(j + 1, m + 1):
                edge = st.tuples(st.integers(0, sizes[(i, j)] - 1),
                                 st.integers(0, sizes[(i, k)] - 1),
                                 st.integers(0, sizes[(j, k)] - 1))
                cons[(i, j, k)] = draw(st.sets(edge, max_size=8))
    return ReducedHypergraph(m, sizes, cons)


@settings(max_examples=80, deadline=None, database=None)
@given(_hosts())
def test_host_round_trip_generated(host):
    assert parse_host(write_host(host)) == host


@settings(max_examples=80, deadline=None, database=None)
@given(_hosts())
def test_canonical_text_is_parsed_in_bulk_and_hashed(host):
    text = write_host(host)
    bulk = fileio._parse_canonical(text)
    assert bulk is not None and bulk == host == fileio._parse_lines(text)
    assert host_digest(bulk) == bulk.canonical_sha256 == hashlib.sha256(text.encode()).hexdigest()
    assert host_digest(host) == bulk.canonical_sha256  # serialised, not parsed


@settings(max_examples=80, deadline=None, database=None)
@given(_hosts())
@example(ReducedHypergraph(2, {(1, 2): 3}, {}))
@example(ReducedHypergraph(4, {(1, 2): 1, (1, 3): 3, (1, 4): 2, (2, 3): 2, (2, 4): 1,
                               (3, 4): 3}, {}))
def test_bulk_constituents_equal_constructor_built_ones(host):
    bulk = fileio._parse_canonical(write_host(host))
    assert bulk.constituents.keys() == host.constituents.keys()
    # no edge set is built by loading, whichever triples share an object
    assert all(con._edges is None for con in bulk.constituents.values())
    # triples with equal sizes and edges hold one object, and only they do
    by_value = {}
    for t, con in bulk.constituents.items():
        assert by_value.setdefault((con.sizes, tuple(con.sorted_edges())), con) is con
    assert len(set(map(id, bulk.constituents.values()))) == len(by_value)
    for t, want in host.constituents.items():
        got = bulk.constituent(t)
        assert got is not want
        assert (got.sizes, got.comp01, got.comp12) == (want.sizes, want.comp01, want.comp12)
        assert got.edge_count() == want.edge_count() == len(want.edges)
        assert got.edges == want.edges
        got.ensure_search_tables()
        want.ensure_search_tables()
        assert (got.occupied, got.fwd) == (want.occupied, want.fwd)


def test_has_is_false_outside_the_classes():
    # Out-of-range coordinates must not alias a neighbouring table entry:
    # (0, 3, 0) would read comp01[3], the entry of (1, 0), and (1, -1, 1)
    # would read comp01[2], the entry of (0, 2).
    edges = {(0, 0, 0), (0, 2, 1), (1, 0, 0), (1, 2, 1)}
    host = ReducedHypergraph(3, {(1, 2): 2, (1, 3): 3, (2, 3): 2}, {(1, 2, 3): edges})
    bulk = fileio._parse_canonical(write_host(host))
    for con in (host.constituent((1, 2, 3)), bulk.constituent((1, 2, 3))):
        for a, b, c in itertools.product(*(range(-2, s + 2) for s in con.sizes)):
            assert con.has(a, b, c) is ((a, b, c) in edges)
        for slot in range(3):
            for far in (-10 ** 30, 10 ** 30):
                edge = [1, 2, 1]
                edge[slot] = far
                assert con.has(*edge) is False
    assert bulk.constituent((1, 2, 3))._edges is None


def test_density_of_a_bulk_loaded_host_reads_only_the_tables(monkeypatch, tmp_path):
    built = random_box_dense(12, 6, Fraction(9, 10), seed=0)
    text = write_host(built)
    bulk = fileio._parse_canonical(text)
    for d in (0, Fraction(9, 10), Fraction(19, 20), 1):
        assert is_box_dense(bulk, d) == is_box_dense(built, d)
    for t in built.triples():
        assert constituent_density(bulk, t) == constituent_density(built, t)
        assert bulk.edge_count(t) == built.edge_count(t)
    assert bulk.total_edge_count() == built.total_edge_count()
    assert all(con._edges is None for con in bulk.constituents.values())
    # The CLI answers as on a host from the line parser, without an edge set.
    path = tmp_path / "dense.rh"
    path.write_text(text)
    commands = [["density", "--host", str(path), "--d", d, "--deterministic"]
                for d in ("9/10", "19/20")]
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "_parse_canonical", lambda text: None)
        want = [dispatch(argv) for argv in commands]
    assert [code for code, _ in want] == [0, 1]

    def refuse(*args):
        raise AssertionError("the bulk path left the tables")

    # the checking constructor does not run, and no edge set is built
    monkeypatch.setattr(core.ReducedHypergraph, "__init__", refuse)
    monkeypatch.setattr(core.Constituent, "edges", property(refuse))
    assert [dispatch(argv) for argv in commands] == want


def test_generated_hosts_are_parsed_in_bulk():
    rng = random.Random(5)
    hosts = [random_box_dense(rng.randint(2, 8), rng.randint(1, 12),
                              Fraction(rng.randint(0, 10), 10), seed=rng.randint(0, 99))
             for _ in range(30)]
    hosts.append(random_box_dense(12, 6, Fraction(9, 10), seed=0))
    for host in hosts:
        assert fileio._parse_canonical(write_host(host)) == host


def _per_edge_writer(host):
    """The canonical host text written one f-string per edge, from the
    sorted edge list: the writer that the table-driven one replaced."""
    lines = [f"M {host.index_count}"]
    for i, j in host.pairs():
        lines.append(f"P {i} {j} {host.class_size(i, j)}")
    for t in host.triples():
        for a, b, c in host.constituent(t).sorted_edges():
            lines.append(f"E {t[0]} {t[1]} {t[2]} {a} {b} {c}")
    return "\n".join(lines) + "\n"


def _writer_hosts():
    rng = random.Random(11)
    for _ in range(12):
        yield random_box_dense(rng.randint(2, 7), rng.randint(1, 11),
                               Fraction(rng.randint(0, 10), 10), seed=rng.randint(0, 99))
    yield random_box_dense(12, 6, Fraction(9, 10), seed=0)
    yield random_box_dense(30, 2, 1, seed=0)
    # empty constituents beside full ones, and a host with no edge at all
    yield ReducedHypergraph(5, dict.fromkeys(itertools.combinations(range(1, 6), 2), 2),
                            {(1, 2, 5): {(0, 1, 1), (1, 0, 0)}, (2, 4, 5): {(1, 1, 1)}})
    yield ReducedHypergraph(3, {(1, 2): 2, (1, 3): 1, (2, 3): 3}, {})
    mixed = random_box_dense(6, 3, Fraction(1, 2), seed=4)
    yield mixed.induced([6, 5, 4, 3, 2, 1])
    yield mixed.induced([4, 1, 6, 2])
    yield reduced_blow_up(random_box_dense(4, 3, Fraction(1, 3), seed=2), 4)  # classes of 12
    yield reduced_blow_up(orientation_reduced(5), 6)
    yield orientation_reduced(7)


def test_write_host_equals_the_per_edge_writer():
    for host in _writer_hosts():
        text = write_host(host)
        assert text == _per_edge_writer(host)
        assert fileio._parse_canonical(text) == host
        assert host_digest(host) == hashlib.sha256(text.encode()).hexdigest()


# Characters that canonical text may or may not contain, each a way to break it.
_NOISE = "0123456789 \n\t\r\x0b\x1cMPE#-+_x\u0663\u00a0"


def _non_canonical_number(draw, token):
    return draw(st.sampled_from(["0" + token, "+" + token, "-" + token, token + "_0",
                                 token[:1] + "_" + token[1:], " " + token,
                                 "\u0663", token + ".0", str(int(token) + 10 ** 6)]))


@st.composite
def _mutated_texts(draw):
    lines = write_host(draw(_hosts())).splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["char", "duplicate", "swap", "drop", "number"]))
        n = len(lines)
        at = draw(st.integers(0, n - 1))
        if kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "swap":
            other = draw(st.integers(0, n - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == "drop" and n > 1:
            del lines[at]
        elif kind == "number":
            tokens = lines[at].split()
            slots = [x for x, tok in enumerate(tokens) if tok.isdigit()]
            if slots:
                slot = draw(st.sampled_from(slots))
                tokens[slot] = _non_canonical_number(draw, tokens[slot])
                lines[at] = " ".join(tokens) + "\n"
        else:
            text = "".join(lines)
            pos = draw(st.integers(0, len(text)))
            edit = draw(st.sampled_from(["insert", "delete", "replace"]))
            char = draw(st.sampled_from(_NOISE))
            if edit == "insert":
                text = text[:pos] + char + text[pos:]
            elif edit == "delete":
                text = text[:pos] + text[pos + 1:]
            else:
                text = text[:pos] + char + text[pos + 1:]
            lines = text.splitlines(keepends=True) or [""]
    return "".join(lines)


def _line_parse(text):
    try:
        return fileio._parse_lines(text)
    except (ParseError, CapExceeded) as exc:
        return exc


@settings(max_examples=400, deadline=None, database=None)
@given(_mutated_texts())
def test_bulk_parser_defers_or_agrees_with_the_line_parser(text):
    bulk = fileio._parse_canonical(text)
    if bulk is not None:
        assert text == write_host(bulk)
        assert bulk == _line_parse(text)
        assert bulk.canonical_sha256 == hashlib.sha256(text.encode()).hexdigest()
    # parse_host answers exactly as the line parser does, error text included
    try:
        got = parse_host(text)
    except (ParseError, CapExceeded) as exc:
        got = exc
    want = _line_parse(text)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want


@pytest.mark.parametrize("text", [
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0",       # no final newline
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0\n\n",   # blank line
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 00\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 +0\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0  0 0\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0\t0\n",
    "M 3\r\nP 1 2 1\r\nP 1 3 1\r\nP 2 3 1\r\n",
    "M 3\nP 1 2 1\nP 1 3 1 P 2 3 1\n\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 \u0660\n",
    "M 3\nP 1 2 2\nP 1 3 1\nP 2 3 1\nE 1 2 3 1 0 0\nE 1 2 3 0 0 0\n",  # unsorted
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0\nE 1 2 3 0 0 0\n",  # duplicate
    "M 3\nP 1 3 1\nP 1 2 1\nP 2 3 1\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 3 2 0 0 0\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 1 0\n",   # vertex out of range
    "M 3\nP 1 2 0\nP 1 3 1\nP 2 3 1\n",
    "M 1\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 -0\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 -1\n",
    "M 4\nP 1 2 1\nP 1 3 1\nP 1 4 1\nP 2 3 1\nP 2 4 1\nP 3 4 1\n"
    "E 1 2 4 0 0 0\nE 1 2 3 0 0 0\n",                           # triples unsorted
    "M 3\nP 1 2 1 P\n1 3 1\nP 2 3 1\n",                        # separators moved
    "M 3\nP 1 2 2\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0 E\n1 2 3 1 0 0\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 4 0 0 0\n",         # key outside 1..M
    "M 4\nP 1 2 1\nP 1 3 1\nP 1 4 2\nP 2 3 1\nP 2 4 1\nP 3 4 1\n"
    "E 1 2 3 0 0 0\nE 1 2 4 0 0 1\n",                           # slot 2 out of range
    "M 4\nP 1 2 1\nP 1 3 1\nP 1 4 1\nP 2 3 1\nP 2 4 2\nP 3 4 1\n"
    "E 1 2 4 0 0 0\nE 1 2 3 0 0 0\nE 1 2 4 0 0 1\n",             # row inside a later block
])
def test_bulk_parser_defers_on_non_canonical_text(text):
    assert fileio._parse_canonical(text) is None


_HEAD4 = "M 4\nP 1 2 2\nP 1 3 2\nP 1 4 2\nP 2 3 2\nP 2 4 2\nP 3 4 2\n"


@pytest.mark.parametrize("text", [
    # classes of 2, 1 and 1: the window of (1, 2, 3) is two rows, and a
    # third row repeats one; one row beyond the window is the same fault
    "M 3\nP 1 2 2\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0\nE 1 2 3 1 0 0\nE 1 2 3 1 0 0\n",
    "M 3\nP 1 2 1\nP 1 3 1\nP 2 3 1\nE 1 2 3 0 0 0\nE 1 2 3 0 0 0\n",
    # a line of a lower triple inside the block of (1, 2, 4)
    _HEAD4 + "E 1 2 4 0 0 0\nE 1 2 3 1 1 1\nE 1 2 4 1 1 1\n",
    # the rows of (1, 2, 3) split around the block of (1, 2, 4), within the
    # window of (1, 2, 3) and beyond it
    _HEAD4 + "E 1 2 3 0 0 0\nE 1 2 4 0 0 0\nE 1 2 3 1 1 1\n",
    _HEAD4 + "E 1 2 3 0 0 0\n" + "".join(
        f"E 1 2 4 {a} {b} {c}\n" for a, b, c in itertools.product(range(2), repeat=3))
    + "E 1 2 3 1 1 1\n",
    # a last line with no newline, or ending in a carriage return
    _HEAD4 + "E 1 2 3 0 0 0\nE 1 2 3 1 1 1",
    _HEAD4 + "E 1 2 3 0 0 0\nE 1 2 3 1 1 1\r\n",
    _HEAD4 + "E 1 2 3 0 0 0\r\nE 1 2 3 1 1 1\n",
    _HEAD4 + "E 1 2 3 0 0 0\nE 1 2 3 1 1 1\r",
    # a head spelled with a leading zero, in a first block and a later one
    _HEAD4 + "E 1 02 3 0 0 0\n",
    _HEAD4 + "E 1 2 3 0 0 0\nE 1 02 4 0 0 0\n",
    # a tail with four numbers, or with two
    _HEAD4 + "E 1 2 3 0 0 0 0\n",
    _HEAD4 + "E 1 2 3 0 0 0\nE 1 2 3 1 1\n",
    # an E line before the last P line
    "M 4\nP 1 2 2\nP 1 3 2\nP 1 4 2\nP 2 3 2\nP 2 4 2\nE 1 2 3 0 0 0\nP 3 4 2\n",
])
def test_block_recogniser_defers_to_the_line_parser(text):
    assert fileio._parse_canonical(text) is None
    want = _line_parse(text)
    try:
        got = parse_host(text)
    except (ParseError, CapExceeded) as exc:
        got = exc
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want and got.canonical_sha256 is None


@pytest.mark.parametrize("parse", [fileio._parse_canonical, fileio._parse_lines])
def test_host_loading_allocates_nothing_by_class_size(parse):
    # Classes of 200: each slot-size triple has 8 * 10^6 cells and each
    # block a window of 8 * 10^6 lines, but the tail table holds the three
    # tails read and the window is only an offset.  What does grow with the
    # classes is comp01, 40000 entries, which TABLE_ENTRY_CAP counts; no
    # int of one bit per cell is built, though the last edge is the last
    # cell of the 8 * 10^6.
    text = ("M 3\nP 1 2 200\nP 1 3 200\nP 2 3 200\n"
            "E 1 2 3 0 0 0\nE 1 2 3 0 0 199\nE 1 2 3 199 199 199\n")
    tracemalloc.start()
    try:
        host = parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    con = host.constituent((1, 2, 3))
    assert con.sorted_edges() == [(0, 0, 0), (0, 0, 199), (199, 199, 199)]
    assert len(con.comp01) == 40000 and con.edge_count() == 3
    assert peak < 1 << 20


def test_absurd_index_count_is_refused_without_allocating():
    tracemalloc.start()
    try:
        for text in ("M 1000000\n", "M 10000000000000\n"):
            with pytest.raises(ParseError) as err:
                parse_host(text)
            assert str(err.value) == "line 1: missing P line for pair (1, 2)"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oversized_canonical_text_is_refused_before_any_table():
    # comp01 of (1, 2, 3) alone would hold 9 * 10^6 entries.
    text = "M 3\nP 1 2 3000\nP 1 3 3000\nP 2 3 3000\nE 1 2 3 0 0 0\n"
    want = _line_parse(text)
    assert isinstance(want, CapExceeded)
    tracemalloc.start()
    try:
        assert fileio._parse_canonical(text) is None
        with pytest.raises(CapExceeded) as err:
            parse_host(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == str(want)
    assert peak < 1 << 20


@st.composite
def _texts_declaring_large_sizes(draw):
    """(reader, text, entries): a few hundred bytes declaring a large M,
    class sizes or V, for one of the five readers.  entries is what
    core._table_size counts for a host whose P lines cover every pair,
    else None."""
    big = st.integers(10 ** 3, 10 ** 15)
    number = st.one_of(st.integers(0, 9), big)
    one_in = lambda k: st.sampled_from([False] * (k - 1) + [True])  # noqa: E731
    reader = draw(st.sampled_from(
        [parse_host, parse_pattern, parse_plain3, parse_certificate, parse_glued]))
    entries = None
    if reader is parse_host:
        m = draw(big if draw(one_in(4)) else st.sampled_from([2, 3, 3, 4, 5]))
        pairs = list(itertools.combinations(range(1, min(m, 5) + 1), 2))
        # One pair in twenty has no P line.
        sizes = {p: draw(st.one_of(st.integers(1, 40), st.integers(500, 3000), big))
                 for p in pairs if not draw(one_in(20))}
        lines = [f"M {m}"] + [f"P {i} {j} {s}" for (i, j), s in sizes.items()]
        triples = list(itertools.combinations(range(1, min(m, 5) + 1), 3))
        if triples:  # cells 0 and 1, so classes of one refuse some
            lines += [f"E {i} {j} {k} {draw(st.integers(0, 1))} 0 {draw(st.integers(0, 1))}"
                      for i, j, k in draw(st.lists(st.sampled_from(triples), max_size=4))]
        if m <= 5 and len(sizes) == len(pairs):
            entries = core._table_size(m, sizes)
    elif reader in (parse_pattern, parse_plain3):
        n = draw(st.one_of(st.integers(1, 9), big))
        vertex = st.one_of(st.integers(1, min(n, 9)), st.integers(1, n), big)
        lines = [f"V {n}"] + [f"T {u} {v} {w}" for u, v, w in draw(
            st.lists(st.tuples(vertex, vertex, vertex), max_size=5))]
    elif reader is parse_certificate:
        lines = [f"L {u} {draw(number)}" for u in range(1, draw(st.integers(1, 5)) + 1)]
        lines += [f"F {u} {v} {draw(number)} {draw(number)} {draw(number)}"
                  for u, v in itertools.combinations(range(1, 5), 2)]
    else:
        lines = ["G-indices " + " ".join(str(draw(number)) for _ in range(4))]
        lines += [f"G {j} {k} {draw(number)}" for j, k in itertools.combinations(range(1, 5), 2)]
        lines += [f"G-prime 2 {k} {draw(number)}" for k in (3, 4)]
    return reader, "\n".join(lines) + "\n", entries


@settings(max_examples=200, deadline=None, database=None)
@given(case=_texts_declaring_large_sizes())
def test_readers_allocate_no_more_than_the_caps_count(case):
    # A reader holds a few kilobytes of its own, and a host adds at most one
    # 8-byte list slot per table entry that TABLE_ENTRY_CAP admits; a host
    # above the cap is refused before any table is built.
    reader, text, entries = case
    admitted = entries if entries is not None and entries <= core.TABLE_ENTRY_CAP else 0
    assume(admitted <= 4 * 10 ** 6)  # keeps each draw under about 50 MB
    tracemalloc.start()
    try:
        try:
            got = reader(text)
        except (ParseError, DomainError, CapExceeded) as exc:
            got = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 18) + 8 * admitted, (text, got)
    if entries is not None and entries > core.TABLE_ENTRY_CAP:
        assert isinstance(got, (CapExceeded, ParseError)), (text, got)
    if isinstance(got, ReducedHypergraph):
        assert core._table_size(got.index_count, got.class_sizes) == entries <= \
            core.TABLE_ENTRY_CAP
    # The same answer, or the same error, outside tracemalloc.
    try:
        again = reader(text)
    except (ParseError, DomainError, CapExceeded) as exc:
        again = exc
    assert type(again) is type(got) and (str(again) == str(got) if
                                         isinstance(got, Exception) else again == got)


@st.composite
def _host_and_maps(draw):
    """A host, an injective index map a into it, and one b into host.induced(a)."""
    host = draw(_hosts())
    a = draw(st.permutations(range(1, host.index_count + 1)))
    a = a[:draw(st.integers(2, len(a)))]
    b = draw(st.permutations(range(1, len(a) + 1)))
    return host, a, b[:draw(st.integers(2, len(b)))]


@settings(max_examples=80, deadline=None, database=None)
@given(_host_and_maps())
def test_induced_relabelings_compose(case):
    # clean composes its two extractions through to_original, and turns a
    # red subset blue by reversing it.
    host, a, b = case
    assert host.induced(a).induced(b) == host.induced([a[x - 1] for x in b])
    reverse = list(range(len(a), 0, -1))
    assert host.induced(a).induced(reverse) == host.induced(a[::-1])


@settings(max_examples=80, deadline=None, database=None)
@given(_host_and_maps())
def test_write_host_equals_the_per_edge_writer_on_relabeled_hosts(case):
    host, a, b = case
    for h in (host, host.induced(a), host.induced(a).induced(b)):
        text = write_host(h)
        assert text == _per_edge_writer(h)
        assert fileio._parse_canonical(text) == h


def test_pattern_round_trip():
    for name in ("Fstar", "K4minus", "K4", "single_edge"):
        p = pattern_catalog(name)
        text = write_pattern(p)
        assert parse_pattern(text) == p


@pytest.mark.parametrize("text,line", [
    ("V 3\nT 1 2 2", 2),
    ("V 3\nT 1 2 4", 2),
    ("T 1 2 3", 1),
    ("V 3\nT 1 2 3\nT 3 2 1", 3),
])
def test_pattern_parser_rejects(text, line):
    with pytest.raises(ParseError) as err:
        parse_pattern(text)
    assert err.value.line == line


def test_plain3_round_trip():
    g = cyclic_triple_3graph(random_tournament(8, seed=4))
    text = write_plain3(g)
    assert parse_plain3(text) == g


def _plain3_line_parse(text):
    try:
        return Plain3Graph(*fileio._parse_vertex_triples(text))
    except ParseError as exc:
        return exc


@st.composite
def _plain3_texts(draw):
    """write_plain3 of a generated graph, then a few edits of the kinds
    canonical text must refuse."""
    n = draw(st.integers(1, 14))
    triples = list(itertools.combinations(range(1, n + 1), 3))
    edges = draw(st.sets(st.sampled_from(triples), max_size=40)) if triples else set()
    lines = write_plain3(Plain3Graph(n, edges)).splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split()
        if len(tokens) < 2 or tokens[0] == "#":
            continue
        slot = draw(st.integers(1, len(tokens) - 1))
        kind = draw(st.sampled_from(["space", "zero", "plus", "digit", "swap", "repeat",
                                     "reverse", "same", "range", "blank", "crlf",
                                     "comment", "tab"]))
        if kind == "space":
            tokens[slot] = " " + tokens[slot]
        elif kind == "tab":  # another separator in place of a space
            lines[at] = (" ".join(tokens[:slot]) + draw(st.sampled_from("\t\x0b\x1c\u00a0"))
                         + " ".join(tokens[slot:]) + "\n")
            continue
        elif kind == "same":
            tokens[slot] = tokens[draw(st.integers(1, len(tokens) - 1))]
        elif kind in ("zero", "plus"):
            tokens[slot] = ("0" if kind == "zero" else "+") + tokens[slot]
        elif kind == "digit":  # Arabic-Indic digits, which int() reads
            tokens[slot] = tokens[slot].translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        elif kind == "range":
            tokens[slot] = draw(st.sampled_from(["0", str(n + 1), "-1"]))
        elif kind == "reverse":
            tokens[1:] = reversed(tokens[1:])
        elif kind == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
            continue
        elif kind == "repeat":
            lines.insert(at, lines[at])
            continue
        elif kind == "blank":
            lines.append("\n")
            continue
        elif kind == "crlf":
            lines[at] = lines[at].replace("\n", "\r\n")
            continue
        else:
            lines.insert(at, "# a comment\n")
            continue
        lines[at] = " ".join(tokens) + "\n"
    text = "".join(lines)
    if draw(st.booleans()):  # trade a newline for a space elsewhere
        newlines = [x for x, ch in enumerate(text[:-1]) if ch == "\n"]
        spaces = [x for x, ch in enumerate(text) if ch == " "]
        if newlines and spaces:
            x, y = draw(st.sampled_from(newlines)), draw(st.sampled_from(spaces))
            chars = list(text)
            chars[x], chars[y] = " ", "\n"
            text = "".join(chars)
    return text


@settings(max_examples=400, deadline=None, database=None)
@given(_plain3_texts(), st.sampled_from([1, 9, 40, fileio._CHUNK]))
@example("V 5\n", fileio._CHUNK)
@example("V 5\n\n", fileio._CHUNK)
@example("V 3\nT 1 2 3\n\n", fileio._CHUNK)
@example("V 3\nT 1 2 3", fileio._CHUNK)
def test_plain3_bulk_loader_defers_or_agrees_with_the_line_parser(text, chunk):
    with mock.patch.object(fileio, "_CHUNK", chunk):
        bulk = fileio._parse_canonical_plain3(text)
        try:
            got = parse_plain3(text)
        except ParseError as exc:
            got = exc
    want = _plain3_line_parse(text)
    if bulk is not None:
        assert text == write_plain3(bulk)
        assert bulk == want
        assert bulk.canonical_sha256 == hashlib.sha256(text.encode()).hexdigest()
    # parse_plain3 answers exactly as the line parser does, error text included
    if isinstance(want, ParseError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want
        assert fileio.plain3_digest(got) == hashlib.sha256(
            write_plain3(want).encode()).hexdigest()


def test_a_bulk_loaded_graph_is_an_ordinary_value():
    # The digest it carries takes no part in equality, hashing or repr, and
    # a derived graph does not inherit it.
    text = "V 4\nT 1 2 3\nT 2 3 4\n"
    loaded = parse_plain3(text)
    built = Plain3Graph(4, [(3, 2, 1), (4, 3, 2)])
    assert loaded.canonical_sha256 == hashlib.sha256(text.encode()).hexdigest()
    assert built.canonical_sha256 is None
    assert (loaded, hash(loaded), repr(loaded)) == (built, hash(built), repr(built))
    wider = dataclasses.replace(loaded, vertex_count=5)
    assert wider == Plain3Graph(5, built.edges) and wider.canonical_sha256 is None
    assert fileio.plain3_digest(wider) == hashlib.sha256(write_plain3(wider).encode()).hexdigest()


def test_generated_plain_graphs_load_in_bulk_in_little_memory():
    # The sampled audit's n = 60 graph: 8541 rows in several chunks.  The
    # peak stays below the 1.99 MiB of the line parser this path replaced.
    graph = cyclic_triple_3graph(random_tournament(60, 0))
    text = write_plain3(graph)
    assert len(text) > 4 * fileio._CHUNK
    tracemalloc.start()
    try:
        loaded = parse_plain3(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == graph
    assert loaded.canonical_sha256 == hashlib.sha256(text.encode()).hexdigest()
    assert peak < 1.99 * 2 ** 20
    # a vertex count far beyond the text builds no table of tokens
    tracemalloc.start()
    try:
        assert parse_plain3("V 1000000\n") == Plain3Graph(1000000, [])
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    # one more space, in the last chunk, sends it to the line parser
    at = text.rindex("T ") + 1
    late = text[:at] + " " + text[at:]
    assert fileio._parse_canonical_plain3(late) is None
    assert parse_plain3(late).canonical_sha256 is None


def _near_canonical_variants(text):
    """Texts one step from the canonical text of a host with at least two
    triples of two or more edges each, each named by that step."""
    lines = text.splitlines(keepends=True)
    e0 = next(r for r, line in enumerate(lines) if line.startswith("E"))
    blocks = [list(run) for _, run in itertools.groupby(
        range(e0, len(lines)), key=lambda r: lines[r].split()[1:4])]
    first, second = blocks[0], blocks[1]
    n_tokens = len(text.split())

    def edited(r, field, value):
        parts = lines[r].split()
        parts[field] = value
        return "".join(lines[:r] + [" ".join(parts) + "\n"] + lines[r + 1:])

    def swapped(order):
        out = list(lines)
        out[e0:e0 + len(order)] = [lines[r] for r in order]
        return "".join(out)

    last = first[-1]
    _, j, k = map(int, lines[last].split()[1:4])
    size_of = {tuple(map(int, line.split()[1:3])): int(line.split()[3])
               for line in lines[1:e0]}
    return {
        "leading zero": edited(first[0], 6, "0" + lines[first[0]].split()[6]),
        "plus sign": edited(first[0], 4, "+" + lines[first[0]].split()[4]),
        "class size above the token count": edited(1, 3, str(n_tokens + 1)),
        "class size past the cap": edited(1, 3, "10000000"),
        "rows swapped in a block": swapped([first[1], first[0], *first[2:]]),
        "blocks swapped": swapped([*second, *first]),
        "repeated E line": "".join(lines[:last + 1] + [lines[last]] + lines[last + 1:]),
        "vertex equal to its class size": edited(last, 6, str(size_of[(j, k)])),
    }


def _outcome(parse, text):
    try:
        host = parse(text)
    except (ParseError, DomainError, CapExceeded) as exc:
        return type(exc), str(exc)
    return host, host_digest(host)


@pytest.mark.parametrize("m,p,d,seed", [(4, 3, "1/2", 0), (5, 2, "3/4", 1), (6, 4, "9/10", 2)])
def test_bulk_loader_defers_near_canonical_hosts_to_the_line_parser(m, p, d, seed):
    text = write_host(random_box_dense(m, p, Fraction(d), seed=seed))
    assert fileio._parse_canonical(text) is not None
    variants = _near_canonical_variants(text)
    assert len(set(variants.values()) | {text}) == len(variants) + 1
    # the canonical text of a valid host, with a class far above the text's
    # size: it loads in bulk, as the line parser reads it
    wide = variants.pop("class size above the token count")
    bulk = fileio._parse_canonical(wide)
    assert bulk is not None and write_host(bulk) == wide
    assert _outcome(lambda text: bulk, wide) == _outcome(fileio._parse_lines, wide)
    for name, variant in variants.items():
        assert fileio._parse_canonical(variant) is None, name
        got, want = _outcome(parse_host, variant), _outcome(fileio._parse_lines, variant)
        assert got == want, name
    errors = {name: _outcome(parse_host, v)[0] for name, v in variants.items()}
    assert errors["repeated E line"] is ParseError
    assert errors["vertex equal to its class size"] is ParseError
    assert errors["class size past the cap"] is CapExceeded
    assert isinstance(errors["rows swapped in a block"], ReducedHypergraph)


@st.composite
def _hosts_on_both_sides_of_the_flat_limit(draw):
    """Hosts of 2 to 4 indices and classes of 1 to 12, so a constituent's
    volume may lie either side of core._FLAT_CELLS, with empty, complete,
    sparse and nearly complete constituents: handed over as bits or as
    cells (core.cell_code)."""
    m = draw(st.integers(2, 4))
    sizes = {p: draw(st.integers(1, 12)) for p in itertools.combinations(range(1, m + 1), 2)}
    cons = {}
    for t in itertools.combinations(range(1, m + 1), 3):
        box = list(itertools.product(*(range(sizes[p]) for p in core.slot_pairs(t))))
        kind = draw(st.sampled_from(["empty", "complete", "sparse", "nearly complete"]))
        picked = draw(st.sets(st.integers(0, len(box) - 1), max_size=8))
        cons[t] = {"empty": [], "complete": box,
                   "sparse": [box[x] for x in picked],
                   "nearly complete": [e for x, e in enumerate(box) if x not in picked]}[kind]
    return ReducedHypergraph(m, sizes, cons)


def _wide(sizes, kind):
    box = list(itertools.product(*map(range, sizes)))
    edges = box if kind == "complete" else box[::3]
    return ReducedHypergraph(3, dict(zip([(1, 2), (1, 3), (2, 3)], sizes)), {(1, 2, 3): edges})


@settings(max_examples=40, deadline=None, database=None)
@given(_hosts_on_both_sides_of_the_flat_limit(), st.data())
@example(_wide((12, 12, 12), "complete"), None)  # 1728 cells: pooled by cells
@example(_wide((12, 12, 7), "complete"), None)   # 1008 cells, all edges: by bits
@example(_wide((12, 12, 7), "sparse"), None)     # a third of them: by cells
def test_bulk_loader_equals_the_line_parser_at_any_class_size(host, data):
    assert core._FLAT_CELLS < 12 ** 3
    text = write_host(host)
    bulk, lines = fileio._parse_canonical(text), fileio._parse_lines(text)
    assert bulk is not None and parse_host(text) == bulk == lines == host
    assert host_digest(bulk) == host_digest(lines) == hashlib.sha256(text.encode()).hexdigest()
    assert len(set(map(id, bulk.constituents.values()))) == \
        len(set(map(id, lines.constituents.values())))
    if data is None:
        return
    # Each mutant is off the canonical form: it defers, and parse_host then
    # answers as the line parser does, ParseError text included.
    rows = text.splitlines(keepends=True)
    at = data.draw(st.integers(0, len(rows) - 1))
    mutants = {"repeated line": rows[:at + 1] + rows[at:]}
    other = data.draw(st.integers(0, len(rows) - 1))
    if rows[other] != rows[at]:
        swapped = list(rows)
        swapped[at], swapped[other] = rows[other], rows[at]
        mutants["swapped lines"] = swapped
    tokens = rows[at].split()
    field = data.draw(st.integers(1, len(tokens) - 1))
    tok = tokens[field]
    tokens[field] = data.draw(st.sampled_from(["0" + tok, "+" + tok, "-" + tok, tok + "_0",
                                               tok + ".0", " " + tok, "\u0663"]))
    mutants["non-canonical decimal"] = rows[:at] + [" ".join(tokens) + "\n"] + rows[at + 1:]
    inside = [r for r in range(1, len(rows))
              if rows[r - 1].split()[:4] == rows[r].split()[:4] and rows[r][0] == "E"]
    if inside:
        r = data.draw(st.sampled_from(inside))
        stray = data.draw(st.sampled_from(["# stray\n", "\n", "P 1 2 1\n", "M 2\n", "T 1 2 3\n"]))
        mutants["stray line in a block"] = rows[:r] + [stray] + rows[r:]
    for name, mutant in mutants.items():
        mutant = "".join(mutant)
        assert fileio._parse_canonical(mutant) is None, name
        assert _outcome(parse_host, mutant) == _outcome(fileio._parse_lines, mutant), name
