"""Text formats for hosts, patterns, and plain 3-graphs.

Host files are line oriented:

    M <index_count>
    P <i> <j> <size>            one line per pair, i < j
    E <i> <j> <k> <a> <b> <c>   one line per constituent edge, i < j < k,
                                a in P^{ij}, b in P^{ik}, c in P^{jk}

Pattern and plain-graph files share one format:

    V <n>
    T <u> <v> <w>               one line per triple

Blank lines and lines starting with '#' are ignored.  Malformed or
out-of-range lines raise ParseError with the line number.  Writers emit a
canonical form: P lines then E lines, each sorted lexicographically.

A host text in exactly that canonical form, as write_host emits it, is
parsed in bulk, a column at a time, and its digest is the sha256 of the
input itself.  The bulk recogniser checks only the text's shape (see
_parse_canonical) and reads numbers through a table of their canonical
spellings, never longer than the text's token list; the host rules are
core's, proven by ReducedHypergraph._from_columns, which builds comp01,
the one table a host is loaded with.  The constituents' other tables and
edge sets are built only when something reads them.  Any other text,
malformed or not, goes through the line parser and the host constructor;
the line parser is the only code that words a ParseError.

Plain-graph text is loaded the same way: a text equal to write_plain3 of
its graph is recognised in bulk, a chunk of lines at a time (see
_parse_canonical_plain3), Plain3Graph._from_rows checks the graph rules
on its rows and builds it, and its digest is the sha256 of the input.  Any
other plain-graph text, and every pattern text, goes through the line
parser and the Plain3Graph constructor; the line parser alone words a
ParseError.
"""

from __future__ import annotations

import hashlib
import itertools
from operator import ge, lt

from ._bits import iter_bits
from .core import Pattern, ReducedHypergraph
from .errors import DomainError, ParseError
from .plain import Plain3Graph


def _tokens(text: str):
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
    for (x, y), v in (((i, j), a), ((i, k), b), ((j, k), c)):
        if (x, y) not in sizes:
            raise ParseError(lineno, f"E line uses pair ({x}, {y}) with no P line")
        if not (0 <= v < sizes[(x, y)]):
            raise ParseError(
                lineno, f"vertex {v} out of range for class P^{{{x},{y}}} "
                f"of size {sizes[(x, y)]}")


def _parse_canonical(text: str) -> ReducedHypergraph | None:
    """The host of a text equal to write_host of that host, or None.

    None defers to the line parser, on any failure of any kind.  This
    recognises the canonical shape only.  One split gives the tokens.  Each
    is followed by exactly one separator when the lengths add up, and the
    counts of newlines, of spaces and of newlines before each tag then pin
    every separator to its canonical place.  M and the class sizes must be
    canonical decimals.  Every other number is read through a table of the
    tokens str(v) for v in 0..max(M, class sizes), or 0..M when there is no
    E row to read a vertex, so a token in another spelling or beyond every
    bound defers; a maximum above the token count defers too, so the table
    is never longer than the token list.  The P lines must name the pairs
    of 1..M in order.  E rows are grouped into runs by the text of their
    triple, and only the a, b, c columns are read as numbers, a column at a
    time.  The runs' triples must rise strictly, and so must (a, b, c)
    within each run: that is the order write_host emits and the digest
    relies on, and it leaves each triple's rows in one run, none repeated.
    Every host rule (M, the class sizes, the cap, the keys and the vertex
    ranges) is then proven by ReducedHypergraph._from_columns, which builds
    the host.
    """
    if not (text.isascii() and text.startswith("M ") and text.endswith("\n")):
        return None
    try:
        tokens = text.split()
        if len(text) != len("".join(tokens)) + len(tokens):
            return None
        m = int(tokens[1])
        n_pairs = m * (m - 1) // 2
        e0 = 2 + 4 * n_pairs
        n_edges, rest = divmod(len(tokens) - e0, 7)
        if (n_edges < 0 or rest
                or text.count("\n") != 1 + n_pairs + n_edges
                or text.count(" ") != len(tokens) - 1 - n_pairs - n_edges
                or text.count("\nP") != n_pairs or text.count("\nE") != n_edges
                or tokens[2:e0:4] != ["P"] * n_pairs or tokens[e0::7] != ["E"] * n_edges):
            return None
        size_tokens = tokens[5:e0:4]
        class_sizes = list(map(int, size_tokens))
        if [tokens[1], *size_tokens] != list(map(str, [m, *class_sizes])):
            return None
        top = max(m, *class_sizes) if n_edges else m  # without rows, no vertex is read
        if top > len(tokens):
            return None
        num = {str(v): v for v in range(top + 1)}.__getitem__
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        if list(zip(map(num, tokens[3:e0:4]), map(num, tokens[4:e0:4]))) != pairs:
            return None
        sizes = dict(zip(pairs, class_sizes))
        keys = [(tuple(map(num, t)), len(list(run)))
                for t, run in itertools.groupby(zip(*(tokens[e0 + x::7] for x in (1, 2, 3))))]
        triples = [t for t, _ in keys]
        if not all(map(lt, triples, triples[1:])):
            return None
        a, b, c = (list(map(num, tokens[e0 + x::7])) for x in (4, 5, 6))
        # A row not above the one before it must start a run.
        starts = set(itertools.accumulate(n for _, n in keys))
        falls = itertools.compress(itertools.count(1), map(
            ge, zip(a, b, c), zip(*(itertools.islice(col, 1, None) for col in (a, b, c)))))
        if not starts.issuperset(falls):
            return None
        host = ReducedHypergraph._from_columns(m, sizes, keys, a, b, c)
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
    for lineno, parts in _tokens(text):
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
                    sizes[(i, j)], sizes[(i, k)], sizes[(j, k)], set())
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
    for lineno, parts in _tokens(text):
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
