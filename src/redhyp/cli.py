"""Unified command line: density checks, embedding search and oracle,
the row pipeline, glued configurations, generators, and audits.

Reports are line-oriented "key value" pairs on stdout (or --report FILE).
Rationals are always written a/b; decimals are rejected.  Exit codes:
0 success/found, 1 legitimate negative, 2 resource exhaustion, 3 input
error, 4 internal error (one of the program's own self-checks failed).
Under --deterministic, reports carry no timing lines and are
byte-identical across runs.  Every command accepts --threads N (N >= 1)
for compatibility; runs are single-threaded whatever N is, and `find`
echoes N in its report.

A command imports only the layers it runs: at module level this file
imports the standard library and errors alone, and each command handler
and report helper imports its own layers when it is called, so `find`
never loads the pipeline and `audit` never loads the search engine.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (CapExceeded, DomainError, ParseError, RedhypError,
                     SelfCheckError)

if TYPE_CHECKING:
    from .core import Pattern, ReducedHypergraph, ReducedMap
    from .glue import GluedConfiguration

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_EXHAUSTED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """Carries the help text that argparse would print before exiting."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def parse_fraction(text: str) -> Fraction:
    """Parse 'a/b' or a bare integer; decimal notation is rejected."""
    text = text.strip()
    if "." in text:
        raise DomainError(f"rationals must be written a/b, got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational {text!r}: {exc}") from None


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def certificate_lines(rmap: ReducedMap) -> list[str]:
    lines = [f"L {u} {rmap.lam[u]}" for u in sorted(rmap.lam)]
    for (u, v), ((i, j), a) in sorted(rmap.phi.items()):
        lines.append(f"F {u} {v} {i} {j} {a}")
    return lines


def _refuse_repeat(lineno: int, what: str, key, seen: dict) -> None:
    if key in seen:
        name = " ".join(map(str, key)) if isinstance(key, tuple) else key
        raise ParseError(lineno, f"repeated {what} {name} line")


def parse_certificate(text: str) -> ReducedMap:
    """The reduced map in a report's L and F lines; other lines are skipped.

    A malformed L or F line, or a second L line for one vertex or F line for
    one pair, raises ParseError with its line number."""
    from . import fileio
    from .core import ReducedMap
    lam: dict[int, int] = {}
    phi: dict[tuple[int, int], tuple[tuple[int, int], int]] = {}
    for lineno, parts in fileio.tokens(text):
        if parts[0] == "L":
            u, i = fileio.int_fields(lineno, parts[1:], 2, "L")
            _refuse_repeat(lineno, "L", u, lam)
            lam[u] = i
        elif parts[0] == "F":
            u, v, i, j, a = fileio.int_fields(lineno, parts[1:], 5, "F")
            _refuse_repeat(lineno, "F", (u, v), phi)
            phi[(u, v)] = ((i, j), a)
    return ReducedMap(lam=lam, phi=phi)


def glued_lines(cfg: GluedConfiguration) -> list[str]:
    lines = ["G-indices " + " ".join(str(i) for i in cfg.indices)]
    for (j, k), v in sorted(cfg.alpha.items()):
        lines.append(f"G {j} {k} {v}")
    lines.append(f"G-prime 2 3 {cfg.alpha23_prime}")
    lines.append(f"G-prime 2 4 {cfg.alpha24_prime}")
    return lines


def parse_glued(text: str) -> GluedConfiguration:
    """The configuration in a report's G-indices, G and G-prime lines; other
    lines are skipped.  A malformed or repeated one raises ParseError with
    its line number; a missing one, or G lines naming other than the six
    role pairs, DomainError."""
    from . import fileio
    from .glue import ROLE_PAIRS, GluedConfiguration
    indices = None
    alpha: dict[tuple[int, int], int] = {}
    primes: dict[tuple[int, int], int] = {}
    for lineno, parts in fileio.tokens(text):
        if parts[0] == "G-indices":
            found = tuple(fileio.int_fields(lineno, parts[1:], 4, "G-indices"))
            if indices is not None:
                raise ParseError(lineno, "repeated G-indices line")
            indices = found
        elif parts[0] == "G":
            j, k, v = fileio.int_fields(lineno, parts[1:], 3, "G")
            _refuse_repeat(lineno, "G", (j, k), alpha)
            alpha[(j, k)] = v
        elif parts[0] == "G-prime":
            j, k, v = fileio.int_fields(lineno, parts[1:], 3, "G-prime")
            _refuse_repeat(lineno, "G-prime", (j, k), primes)
            primes[(j, k)] = v
    if indices is None or set(alpha) != ROLE_PAIRS or set(primes) != {(2, 3), (2, 4)}:
        raise DomainError("incomplete glued-configuration lines")
    return GluedConfiguration(indices=indices, alpha=alpha,
                              alpha23_prime=primes[(2, 3)],
                              alpha24_prime=primes[(2, 4)])


def _read_text(path: str) -> str:
    """The text of an input file; bytes that are not UTF-8 are an input
    error, not a decoding traceback."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc.reason} "
                          f"at byte {exc.start}") from None


def _read_host(path: str) -> ReducedHypergraph:
    from . import fileio
    return fileio.parse_host(_read_text(path))


def _read_pattern(value: str) -> Pattern:
    if Path(value).is_file():
        from . import fileio
        return fileio.parse_pattern(_read_text(value))
    from .core import pattern_catalog
    return pattern_catalog(value)


def _pattern_label(value: str, pattern: Pattern) -> str:
    if pattern.name:
        return pattern.name
    from . import fileio
    return f"sha256:{fileio.pattern_digest(pattern)}"


def build_parser() -> _Parser:
    from .core import DEFAULT_ORACLE_CAP
    parser = _Parser(prog="redhyp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report", help="write the report to this file")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress timing lines for reproducible reports")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; runs are single-threaded")

    p = sub.add_parser("density", help="check (d, box)-density of a host")
    p.add_argument("--host", required=True)
    p.add_argument("--d", required=True)
    common(p)

    p = sub.add_parser("find", help="search for a reduced image of a pattern")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True,
                   help="catalog name (Fstar, K4minus, K4, single_edge) or file")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--count-all", action="store_true")
    common(p)

    p = sub.add_parser("oracle", help="exhaustively count reduced images")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    common(p)

    p = sub.add_parser("pipeline", help="clean, prepare rows, and embed the five-vertex target")
    p.add_argument("--host", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--m-star", type=int, default=None, dest="m_star")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--min-final", type=int, default=3, dest="min_final")
    p.add_argument("--trace", help="write the stage trace to this file")
    common(p)

    p = sub.add_parser("glue", help="clean, prepare all-pairs rows, and build a glued configuration")
    p.add_argument("--host", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--ladder", required=True,
                   help="comma-separated decreasing spine targets, e.g. 5,4,3")
    p.add_argument("--m-star", type=int, default=None, dest="m_star")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--min-final", type=int, default=3, dest="min_final")
    p.add_argument("--trace")
    common(p)

    p = sub.add_parser("glue-oracle", help="brute-force glued configurations")
    p.add_argument("--host", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    common(p)

    p = sub.add_parser("gen", help="generate hosts, tournaments, and blow-ups")
    p.add_argument("--kind", required=True,
                   choices=("random", "orientation", "blowup", "tournament3"))
    p.add_argument("--m", type=int)
    p.add_argument("--class-size", type=int, default=2, dest="class_size")
    p.add_argument("--d")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--host", help="input host for --kind blowup")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--out", help="output file ('-' or omitted: write to stdout)")
    common(p)

    p = sub.add_parser("audit", help="audit uniform density of a plain 3-graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", help="comma-separated subset sizes for sampling")
    p.add_argument("--cap", type=int, default=20)
    common(p)

    return parser


def _finish(args, lines: list[str], code: int, started: float) -> tuple[int, str]:
    if not getattr(args, "deterministic", False):
        lines.append(f"wall-ms {int((time.perf_counter() - started) * 1000)}")
    lines.append(f"exit {code}")
    text = "\n".join(lines) + "\n"
    return code, text


def _cmd_density(args, started) -> tuple[int, str]:
    from . import fileio
    from .core import constituent_density, is_box_dense
    host = _read_host(args.host)
    d = parse_fraction(args.d)
    lines = ["command density",
             f"host sha256:{fileio.host_digest(host)}",
             f"d {format_fraction(d)}"]
    ok, witness = is_box_dense(host, d)
    if ok:
        lines.append("outcome dense")
        return _finish(args, lines, EXIT_OK, started)
    lines.append("outcome not-dense")
    lines.append(f"witness {witness[0]} {witness[1]} {witness[2]}")
    lines.append(f"witness-density {format_fraction(constituent_density(host, witness))}")
    return _finish(args, lines, EXIT_NEGATIVE, started)


def _cmd_find(args, started) -> tuple[int, str]:
    from . import fileio
    from .embed import find_reduced_image
    host = _read_host(args.host)
    pattern = _read_pattern(args.pattern)
    lines = ["command find",
             f"host sha256:{fileio.host_digest(host)}",
             f"pattern {_pattern_label(args.pattern, pattern)}",
             f"budget {args.budget if args.budget is not None else 'none'}",
             f"count-all {'true' if args.count_all else 'false'}",
             f"threads {args.threads}",
             f"deterministic {'true' if args.deterministic else 'false'}"]
    result = find_reduced_image(host, pattern, budget=args.budget,
                                count_all=args.count_all)
    lines.append(f"outcome {result.status}")
    lines.append(f"nodes {result.nodes}")
    if result.count is not None:
        lines.append(f"count {result.count}")
    if result.certificate is not None:
        lines.extend(certificate_lines(result.certificate.rmap))
    code = {"found": EXIT_OK, "not-found": EXIT_NEGATIVE,
            "budget-exhausted": EXIT_EXHAUSTED}[result.status]
    return _finish(args, lines, code, started)


def _cmd_oracle(args, started) -> tuple[int, str]:
    from . import fileio
    from .embed import exhaustive_oracle
    host = _read_host(args.host)
    pattern = _read_pattern(args.pattern)
    lines = ["command oracle",
             f"host sha256:{fileio.host_digest(host)}",
             f"pattern {_pattern_label(args.pattern, pattern)}",
             f"cap {args.cap}"]
    result = exhaustive_oracle(host, pattern, cap=args.cap)
    lines.append(f"outcome {'found' if result.found else 'not-found'}")
    lines.append(f"count {result.count}")
    lines.append(f"leaves {result.leaves}")
    return _finish(args, lines, EXIT_OK if result.found else EXIT_NEGATIVE, started)


def _clean_fields(args, host) -> dict:
    """The config fields pipeline and glue share; --m-star defaults to the
    host's index count and --m to --m-star."""
    m_star = args.m_star if args.m_star is not None else host.index_count
    return dict(eps=parse_fraction(args.eps), delta=parse_fraction(args.delta),
                ramsey_target_1=m_star,
                ramsey_target_2=args.m if args.m is not None else m_star,
                min_final_indices=args.min_final)


def _finish_clean_run(args, lines: list[str], result, started: float,
                      found) -> tuple[int, str]:
    """Write the run's trace file, then end a pipeline or glue report with
    the failure block, or with the outcome, surviving and r-star lines and
    the command's own lines, found(), for a success."""
    if args.trace:
        Path(args.trace).write_text("\n".join(result.trace) + "\n")
    if not result.ok:
        lines += ["outcome failure", f"stage {result.failure.stage}",
                  f"reason {result.failure.reason}"]
        return _finish(args, lines, EXIT_NEGATIVE, started)
    system = result.clean.system
    lines += ["outcome found",
              "surviving " + ",".join(str(i) for i in system.to_original),
              f"r-star {system.r_star}", *found()]
    return _finish(args, lines, EXIT_OK, started)


def _cmd_pipeline(args, started) -> tuple[int, str]:
    from . import fileio
    from .pipeline import PipelineConfig, find_fstar
    host = _read_host(args.host)
    config = PipelineConfig(rounds=args.rounds, **_clean_fields(args, host))
    lines = ["command pipeline",
             f"host sha256:{fileio.host_digest(host)}",
             f"eps {format_fraction(config.eps)}",
             f"delta {format_fraction(config.delta)}",
             f"rounds {config.effective_rounds}",
             f"m-star {config.ramsey_target_1}",
             f"m {config.ramsey_target_2}",
             f"min-final {config.min_final_indices}"]
    result = find_fstar(host, config)
    return _finish_clean_run(args, lines, result, started, lambda: [
        *(f"row {row.index} r={row.row_index} x={row.apex} y={row.connector} "
          f"next={row.r_next} J={','.join(str(j) for j in row.surviving)}"
          for row in result.rows),
        f"pigeonhole v={result.pigeonhole['vertex']} "
        f"rows={','.join(str(r) for r in result.pigeonhole['rows'])}",
        *certificate_lines(result.certificate.rmap)])


def _cmd_glue(args, started) -> tuple[int, str]:
    from . import fileio
    from .glue import GlueConfig, find_glued
    host = _read_host(args.host)
    try:
        ladder = tuple(int(x) for x in args.ladder.split(","))
    except ValueError:
        raise DomainError(f"bad ladder {args.ladder!r}") from None
    config = GlueConfig(ladder=ladder, **_clean_fields(args, host))
    lines = ["command glue",
             f"host sha256:{fileio.host_digest(host)}",
             f"eps {format_fraction(config.eps)}",
             f"delta {format_fraction(config.delta)}",
             f"ladder {','.join(str(x) for x in config.ladder)}",
             f"m-star {config.ramsey_target_1}",
             f"m {config.ramsey_target_2}"]
    result = find_glued(host, config)
    return _finish_clean_run(args, lines, result, started, lambda: [
        f"pigeonhole v={result.pigeonhole['vertex']} "
        f"rows={','.join(str(r) for r in result.pigeonhole['rows'])}",
        *glued_lines(result.configuration)])


def _cmd_glue_oracle(args, started) -> tuple[int, str]:
    from . import fileio
    from .glue import brute_force_glued
    host = _read_host(args.host)
    lines = ["command glue-oracle",
             f"host sha256:{fileio.host_digest(host)}",
             f"cap {args.cap}"]
    found, count = brute_force_glued(host, cap=args.cap)
    lines.append(f"outcome {'found' if found else 'not-found'}")
    lines.append(f"count {count}")
    return _finish(args, lines, EXIT_OK if found else EXIT_NEGATIVE, started)


def _cmd_gen(args, started) -> tuple[int, str]:
    from . import fileio
    from .constructions import (RNG_ALGORITHM, check_3graph_request,
                                cyclic_triple_3graph, orientation_reduced,
                                random_box_dense, random_tournament, reduced_blow_up)
    if args.kind == "random":
        if args.m is None or args.d is None:
            raise DomainError("gen --kind random needs --m and --d")
        payload = fileio.write_host(random_box_dense(
            args.m, args.class_size, parse_fraction(args.d), args.seed))
    elif args.kind == "orientation":
        if args.m is None:
            raise DomainError("gen --kind orientation needs --m")
        payload = fileio.write_host(orientation_reduced(args.m))
    elif args.kind == "blowup":
        if args.host is None:
            raise DomainError("gen --kind blowup needs --host")
        payload = fileio.write_host(reduced_blow_up(_read_host(args.host), args.t))
    else:  # tournament3
        if args.n is None:
            raise DomainError("gen --kind tournament3 needs --n")
        check_3graph_request(args.n)
        payload = fileio.write_plain3(
            cyclic_triple_3graph(random_tournament(args.n, args.seed)))
    if args.out and args.out != "-":
        Path(args.out).write_text(payload)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        lines = ["command gen", f"kind {args.kind}", f"rng {RNG_ALGORITHM}",
                 f"seed {args.seed}", f"out {args.out}", f"digest sha256:{digest}"]
        return _finish(args, lines, EXIT_OK, started)
    return EXIT_OK, payload


def _cmd_audit(args, started) -> tuple[int, str]:
    from . import fileio
    from .plain import uniform_density_audit
    graph = fileio.parse_plain3(_read_text(args.graph))
    d = parse_fraction(args.d)
    eta = parse_fraction(args.eta)
    mode = "exhaustive" if args.exhaustive or args.samples == 0 else "sampled"
    sizes = None
    if args.sizes is not None:
        if mode == "exhaustive":
            raise DomainError("--sizes applies only to sampled audits")
        try:
            sizes = [int(x) for x in args.sizes.split(",")]
        except ValueError:
            raise DomainError(f"--sizes must be comma-separated integers, "
                              f"got {args.sizes!r}") from None
    lines = ["command audit",
             f"graph sha256:{fileio.plain3_digest(graph)}",
             f"d {format_fraction(d)}",
             f"eta {format_fraction(eta)}",
             f"mode {mode}"]
    result = uniform_density_audit(graph, d, eta, mode=mode,
                                   samples=args.samples, seed=args.seed,
                                   sizes=sizes, vertex_cap=args.cap)
    lines.append(f"outcome {result.status}")
    lines.append(f"subsets-checked {result.subsets_checked}")
    if result.status == "fail":
        lines.append("witness " + ",".join(str(v) for v in result.witness))
        lines.append(f"deficiency {format_fraction(result.deficiency)}")
        return _finish(args, lines, EXIT_NEGATIVE, started)
    return _finish(args, lines, EXIT_OK, started)


_HANDLERS = {
    "density": _cmd_density,
    "find": _cmd_find,
    "oracle": _cmd_oracle,
    "pipeline": _cmd_pipeline,
    "glue": _cmd_glue,
    "glue-oracle": _cmd_glue_oracle,
    "gen": _cmd_gen,
    "audit": _cmd_audit,
}


@functools.cache
def _parser() -> _Parser:
    # Built on the first dispatch, not at import; parsing leaves it unchanged.
    return build_parser()


def dispatch(argv: list[str]) -> tuple[int, str]:
    """Run one command; returns (exit code, stdout text)."""
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        return EXIT_INPUT, f"error {exc}\n"
    except _HelpRequested as exc:
        return EXIT_OK, exc.args[0]
    try:
        from .core import refuse_negative_cap
        if args.threads < 1:
            raise DomainError(f"threads must be >= 1, got {args.threads}")
        refuse_negative_cap(getattr(args, "cap", 0))
        code, text = _HANDLERS[args.command](args, started)
        if getattr(args, "report", None):
            Path(args.report).write_text(text)
            return code, ""
    except CapExceeded as exc:
        return EXIT_EXHAUSTED, f"error cap-exceeded: {exc}\n"
    except FileNotFoundError as exc:
        return EXIT_INPUT, f"error missing file: {exc.filename}\n"
    except OSError as exc:
        return EXIT_INPUT, f"error {exc}\n"
    except RedhypError as exc:
        return EXIT_INPUT, f"error {exc}\n"
    except SelfCheckError as exc:
        return EXIT_INTERNAL, f"error internal: {exc}\n"
    return code, text


def main(argv: list[str] | None = None) -> int:
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
