"""Text formats for hosts, patterns, and plain 3-graphs.

Host files are line oriented:

    M <index_count>
    P <i> <j> <size>            one line per pair, i < j
    E <i> <j> <k> <a> <b> <c>   one line per constituent edge, i < j < k,
                                a b c in core.slot_pairs order:
                                a in P^{ij}, b in P^{ik}, c in P^{jk}

Pattern and plain-graph files share one format:

    V <n>
    T <u> <v> <w>               one line per triple

Blank lines and lines starting with '#' are ignored.  Malformed or
out-of-range lines raise ParseError with the line number.  Writers emit a
canonical form: P lines then E lines, each sorted lexicographically.

A host text in exactly that canonical form, as write_host emits it, is
loaded in bulk, one pass per constituent block (the E lines of one index
triple), and its digest is the sha256 of the input itself.  The bulk
recogniser (see _parse_canonical) checks only the text's shape: the header
against its regenerated text, each block's head against the next triple
in order, and each "a b c" tail through tables of the tails already seen,
which never hold more entries than the text has E lines, whatever the
class sizes.  A table holds each tail's cell as core.cell_code hands it
over: its bit 1 << cell in a block of a small triple at least half full,
else the cell.  The host rules are core's: edge_cell gives each tail's cell
and refuses a vertex outside its class, and ReducedHypergraph._from_cells
proves the rest on each block and builds the host, taking such a block's
edges as one int, the sum of its bits, and giving one Constituent object
to the triples of equal sizes and edges.  A constituent's tables other
than comp01, and its edge set, are built only when something reads them.
Any other text, malformed or not, goes through the line parser and the
host constructor; the line parser is the only code that words a
ParseError.

Plain-graph text is loaded the same way: a text equal to write_plain3 of
its graph is recognised in bulk, a chunk of lines at a time (see
_parse_canonical_plain3), Plain3Graph._from_rows checks the graph rules
on its rows and builds it, and its digest is the sha256 of the input.  Any
other plain-graph text, and every pattern text, goes through the line
parser and the Plain3Graph constructor; the line parser alone words a
ParseError.  Only the two plain-graph readers import plain, so commands
that read hosts and patterns do not load it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from operator import lt
from typing import TYPE_CHECKING, Callable

from ._bits import iter_bits
from .core import Pattern, ReducedHypergraph, cell_code, edge_cell, least_masked, slot_pairs
from .errors import DomainError, ParseError

if TYPE_CHECKING:
    from .plain import Plain3Graph


def tokens(text: str):
    """(line number, fields) of each line with fields, not led by '#'."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and parts[0][0] != "#":
            yield lineno, parts


def int_fields(lineno: int, parts: list[str], expect: int, what: str) -> list[int]:
    """The integer fields after a line's key; a wrong count or a non-integer
    field raises ParseError naming the line."""
    if len(parts) != expect:
        raise ParseError(lineno, f"{what} line needs {expect} fields, got {len(parts)}")
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(lineno, f"{what} line has non-integer field {p!r}") from None
    return out


def _check_e_line(lineno: int, i: int, j: int, k: int, a: int, b: int, c: int,
                  m: int, sizes: dict[tuple[int, int], int]) -> None:
    """Raise the first fault of an E line's triple and vertices, if any.

    Per pair, presence is checked before range, pair by pair in slot order,
    so a line with several faults always reports the same one.
    """
    if not (1 <= i < j < k <= m):
        raise ParseError(lineno, f"triple ({i}, {j}, {k}) not sorted within 1..{m}")
    for (x, y), v in zip(slot_pairs((i, j, k)), (a, b, c)):
        if (x, y) not in sizes:
            raise ParseError(lineno, f"E line uses pair ({x}, {y}) with no P line")
        if not (0 <= v < sizes[(x, y)]):
            raise ParseError(
                lineno, f"vertex {v} out of range for class P^{{{x},{y}}} "
                f"of size {sizes[(x, y)]}")


class _TailCodes(dict):
    """The coded cells (core.edge_cell, then code) of E-line tails "a b c"
    in one slot-size triple, keyed by the tail's text and filled only from
    tails looked up: never more entries than the text has E lines, whatever
    the class sizes.  A tail not in canonical decimals, or outside the
    classes, raises ValueError."""

    def __init__(self, slots: tuple[int, int, int], code: Callable[[int], int]):
        super().__init__()
        self.slots = slots
        self.code = code

    def __missing__(self, tail: str) -> int:
        a, b, c = map(int, tail.split(" "))
        if "%d %d %d" % (a, b, c) != tail:
            raise ValueError(f"tail {tail!r} is not in canonical decimals")
        code = self[tail] = self.code(edge_cell(self.slots, a, b, c))
        return code


def _parse_canonical(text: str) -> ReducedHypergraph | None:
    """The host of a text equal to write_host of that host, or None.

    None defers to the line parser, on any failure of any kind.  This
    recognises the canonical shape only, and never splits the E section
    into tokens.  The M line and the P lines must equal their regenerated
    text "M %d" and "P %d %d %d", for the pairs of 1..M in order; an M with
    more pairs than the text has newlines is refused before any pair list
    is built, and _from_cells checks the cap before any table is built.

    The E section is read one constituent block at a time, walking the
    triples of 1..M in order: a block starts with the head "E i j k " of
    the next triple that has one, so its head is spelled canonically, its
    triple lies in 1..M and rises above the previous block's, and a line
    that starts no such block is left over and defers.  The block's slot
    sizes are looked up once, through _from_cells' slot_sizes.  One rfind
    of newline + head, within a window of s0*s1*s2 lines of the widest
    canonical line of the triple, finds the block's last line.  A longer
    block would repeat a row, and the window leaves its rest as a second
    block with the same head, which nothing matches.  One split of the
    block on newline + head gives its "a b c" tails, and the _TailCodes
    tables of its slot-size triple give their coded cells: bits when the
    block has at least core.least_masked(slots) tails, so that _from_cells
    takes its edges as one sum, else cells (core.cell_code).  Either way
    the codes must be sorted, and _from_cells refuses a repeated one, so the
    cells rise strictly: that is the order write_host emits and the digest
    relies on.  Every host rule (M, the class sizes, the cap, the keys and
    distinct rows) is proven by ReducedHypergraph._from_cells, which builds
    the host with one Constituent per distinct (sizes, edges).
    """
    if not (text.isascii() and text.startswith("M ") and text.endswith("\n")):
        return None
    try:
        end = text.index("\n")
        m = int(text[2:end])
        n_pairs = m * (m - 1) // 2
        if "M %d" % m != text[:end] or n_pairs > text.count("\n"):
            return None
        e0 = text.find("\nE", end) + 1 or len(text)
        p_lines = text[end + 1:e0]
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        class_sizes = list(map(int, p_lines.split()[3::4]))
        if len(class_sizes) != n_pairs or p_lines != "".join(
                map("P %d %d %d\n".__mod__, [(i, j, s) for (i, j), s in zip(pairs, class_sizes)])):
            return None

        def blocks(slot_sizes):  # the keys are the triples of 1..m, walked in order
            # per slot-size triple: the lookups of its tail tables coding cells
            # as cells and as bits (core.cell_code), the fewest tails a block
            # needs for bits (core.least_masked), its volume and widest tail
            tables: dict[tuple[int, int, int], tuple] = {}
            pos, end = e0, len(text)
            for t in itertools.combinations(range(1, m + 1), 3):
                if pos == end:
                    break
                sep = "\nE %d %d %d " % t  # text[pos - 1] is a newline
                if not text.startswith(sep, pos - 1):
                    continue  # no block: an empty constituent
                slots = slot_sizes(t)
                info = tables.get(slots)
                if info is None:
                    s0, s1, s2 = slots
                    least = least_masked(slots)
                    info = tables[slots] = (
                        _TailCodes(slots, cell_code(slots, 0)).__getitem__,
                        _TailCodes(slots, cell_code(slots, least)).__getitem__
                        if least < math.inf else None,
                        least, s0 * s1 * s2, len("%d %d %d" % (s0 - 1, s1 - 1, s2 - 1)))
                as_cells, as_bits, least, volume, tail_width = info
                head = len(sep)
                # the widest line, newline included, is head + tail_width
                last = text.rfind(sep, pos - 1, pos + volume * (head + tail_width))
                stop = text.index("\n", last + 1)
                tails = text[pos + head - 1:stop].split(sep)
                codes = list(map(as_bits if len(tails) >= least else as_cells, tails))
                if codes != sorted(codes):
                    raise ValueError(f"rows of {t} are not in canonical order")
                yield t, slots, codes
                pos = stop + 1
            if pos != end:
                raise ValueError(f"line at {pos} does not start the next canonical block")

        host = ReducedHypergraph._from_cells(m, dict(zip(pairs, class_sizes)), blocks)
    except Exception:
        return None
    host.canonical_sha256 = hashlib.sha256(text.encode()).hexdigest()
    return host


def parse_host(text: str) -> ReducedHypergraph:
    host = _parse_canonical(text)
    return _parse_lines(text) if host is None else host


def _parse_lines(text: str) -> ReducedHypergraph:
    """The line parser: any host text, checked line by line."""
    m = None
    sizes: dict[tuple[int, int], int] = {}
    # per triple, checked on its first E line: slot sizes and the edge set
    cons: dict[tuple[int, int, int], tuple[int, int, int, set]] = {}
    for lineno, parts in tokens(text):
        tag = parts[0]
        if tag == "E":
            if m is None:
                raise ParseError(lineno, "E line before M line")
            try:
                i, j, k, a, b, c = map(int, parts[1:])
            except ValueError:
                i, j, k, a, b, c = int_fields(lineno, parts[1:], 6, "E")
            entry = cons.get((i, j, k))
            if entry is None:
                _check_e_line(lineno, i, j, k, a, b, c, m, sizes)
                entry = cons[(i, j, k)] = (
                    *map(sizes.__getitem__, slot_pairs((i, j, k))), set())
            s0, s1, s2, edges = entry
            if not (0 <= a < s0 and 0 <= b < s1 and 0 <= c < s2):
                _check_e_line(lineno, i, j, k, a, b, c, m, sizes)
            if (a, b, c) in edges:
                raise ParseError(lineno, f"duplicate edge {(i, j, k, a, b, c)}")
            edges.add((a, b, c))
        elif tag == "M":
            if m is not None:
                raise ParseError(lineno, "duplicate M line")
            (m,) = int_fields(lineno, parts[1:], 1, "M")
            if m < 2:
                raise ParseError(lineno, f"index count must be >= 2, got {m}")
        elif tag == "P":
            if m is None:
                raise ParseError(lineno, "P line before M line")
            i, j, s = int_fields(lineno, parts[1:], 3, "P")
            if not (1 <= i < j <= m):
                raise ParseError(lineno, f"pair ({i}, {j}) not sorted within 1..{m}")
            if (i, j) in sizes:
                raise ParseError(lineno, f"duplicate P line for pair ({i}, {j})")
            if s < 1:
                raise ParseError(lineno, f"class size must be >= 1, got {s}")
            sizes[(i, j)] = s
        else:
            raise ParseError(lineno, f"unknown line tag {tag!r}")
    if m is None:
        raise ParseError(1, "missing M line")
    # pairs generated lazily: combinations() would first copy all m indices
    missing = next(((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                    if (i, j) not in sizes), None)
    if missing is not None:
        raise ParseError(1, f"missing P line for pair {missing}")
    return ReducedHypergraph(m, sizes, {t: e[3] for t, e in cons.items()})


def write_host(host: ReducedHypergraph) -> str:
    """The canonical text of host: the M line, one P line per pair, pairs
    ascending, then one E line per edge, ascending by (i, j, k, a, b, c)
    as integers.

    That is the order of the triples, then of each constituent's comp01
    keys a * s1 + b, then of the bits c of the key's entry.  Each non-zero
    entry gives one head "E i j k a b ", and the text of its completion
    vertices comes from a dict keyed by the entry's bitset.
    """
    lines = [f"M {host.index_count}"]
    lines += [f"P {i} {j} {host.class_size(i, j)}" for i, j in host.pairs()]
    cons = host.constituents
    tails: dict[int, list[str]] = {}
    for t in host.triples():
        con = cons[t]
        s1 = con.sizes[1]
        prefix = "E %d %d %d " % t
        for key, bits in enumerate(con.comp01):
            if bits:
                tail = tails.get(bits)
                if tail is None:
                    tail = tails[bits] = list(map(str, iter_bits(bits)))
                lines += map(f"{prefix}{key // s1} {key % s1} ".__add__, tail)
    return "\n".join(lines) + "\n"


def _parse_vertex_triples(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    n = None
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for lineno, parts in tokens(text):
        tag = parts[0]
        if tag == "V":
            if n is not None:
                raise ParseError(lineno, "duplicate V line")
            (n,) = int_fields(lineno, parts[1:], 1, "V")
            if n < 1:
                raise ParseError(lineno, f"vertex count must be >= 1, got {n}")
        elif tag == "T":
            if n is None:
                raise ParseError(lineno, "T line before V line")
            u, v, w = int_fields(lineno, parts[1:], 3, "T")
            if len({u, v, w}) != 3:
                raise ParseError(lineno, f"triple ({u}, {v}, {w}) has repeated vertices")
            if not all(1 <= x <= n for x in (u, v, w)):
                raise ParseError(lineno, f"triple ({u}, {v}, {w}) out of range 1..{n}")
            key = tuple(sorted((u, v, w)))
            if key in seen:
                raise ParseError(lineno, f"duplicate triple {key}")
            seen.add(key)
            triples.append(key)
        else:
            raise ParseError(lineno, f"unknown line tag {tag!r}")
    if n is None:
        raise ParseError(1, "missing V line")
    return n, triples


def parse_pattern(text: str) -> Pattern:
    n, triples = _parse_vertex_triples(text)
    return Pattern(n, triples)


def write_pattern(pattern: Pattern | Plain3Graph) -> str:
    """The shared V/T text of a pattern or a plain 3-graph."""
    lines = [f"V {pattern.vertex_count}"]
    for u, v, w in sorted(pattern.edges):
        lines.append(f"T {u} {v} {w}")
    return "\n".join(lines) + "\n"


write_plain3 = write_pattern


# Characters per chunk of the bulk plain-graph loader: the chunk's token
# list is its transient cost, a few times the chunk's size.
_CHUNK = 1 << 14


def _parse_canonical_plain3(text: str) -> Plain3Graph | None:
    """The graph of a text equal to write_plain3 of that graph, or None.

    None defers to the line parser, on any failure of any kind.  This
    recognises the canonical shape only: the line "V n" with n in canonical
    decimal, then lines "T u v w", split a chunk of whole lines at a time.
    In a chunk of k lines, the tokens' lengths, the 3k spaces and the k - 1
    newlines before a T pin every separator to its canonical place.  The
    numbers are read through a table of the tokens "1".."n", so a token
    outside it, in another spelling or out of range, defers.  The rows must
    rise strictly, the order write_plain3 emits, which also rules out a
    repeated triple.  Plain3Graph._from_rows checks the graph rules on the
    rows (u < v < w within each) and builds the graph.
    """
    from .plain import Plain3Graph
    if not (text.startswith("V ") and text.endswith("\n")):
        return None
    try:
        head = text.index("\n")
        n = int(text[2:head])
        if str(n) != text[2:head] or n > len(text):  # keep the table below the text's size
            return None
        num = {str(v): v for v in range(1, n + 1)}.__getitem__
        rows: list[tuple[int, int, int]] = []
        start = head + 1
        while start < len(text):
            stop = text.find("\n", start + _CHUNK) + 1 or len(text)
            chunk = text[start:stop]
            tokens = chunk.split()
            k = len(tokens) // 4  # tokens[::4] has one more when some are left over
            if (len(chunk) != sum(map(len, tokens)) + len(tokens)
                    or chunk.count(" ") != 3 * k or chunk.count("\nT") != k - 1
                    or tokens[::4] != ["T"] * k):
                return None
            rows += zip(map(num, tokens[1::4]), map(num, tokens[2::4]),
                        map(num, tokens[3::4]))
            start = stop
        later = iter(rows)
        next(later, None)  # each row against the next one
        if not all(map(lt, rows, later)):
            return None
        return Plain3Graph._from_rows(
            n, rows, hashlib.sha256(text.encode()).hexdigest())
    except (ValueError, KeyError, DomainError):
        return None


def parse_plain3(text: str) -> Plain3Graph:
    graph = _parse_canonical_plain3(text)
    if graph is None:
        from .plain import Plain3Graph
        n, triples = _parse_vertex_triples(text)
        graph = Plain3Graph(n, triples)
    return graph


def host_digest(host: ReducedHypergraph) -> str:
    """sha256 of the canonical serialization; stable across formatting.
    A host parsed from canonical text already carries it."""
    if host.canonical_sha256 is not None:
        return host.canonical_sha256
    return hashlib.sha256(write_host(host).encode()).hexdigest()


def pattern_digest(pattern: Pattern | Plain3Graph) -> str:
    return hashlib.sha256(write_pattern(pattern).encode()).hexdigest()


def plain3_digest(graph: Plain3Graph) -> str:
    """sha256 of write_plain3(graph); a graph loaded from canonical text
    already carries it."""
    if graph.canonical_sha256 is not None:
        return graph.canonical_sha256
    return pattern_digest(graph)
