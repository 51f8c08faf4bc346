"""Command-line front end over the whole toolkit.

One machine-readable document per invocation on stdout: JSON for every
subcommand except lp-dump, which emits LP text for other tools to ingest.
Timing goes to stderr, so stdout is byte-identical across repeated runs on
the same input.  Handlers return plain values (rationals, dicts, lists) and
main serializes them once.  Exit status: 0 for success, 1 when a
verification suite fails its assertions, 2 for usage errors, unreadable
inputs, or cap violations; main is the one place that reports an error and
returns 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache

from . import __version__
from .bounds import (
    DEFAULT_SHANNON_CAP,
    build_fractional_cover_lp,
    build_shannon_lp,
    entropy_bracket,
)
from .graphs import CapExceededError, FormatError, GraphError, bits_of, parse_graph, render_graph
from .guessing import DEFAULT_WORD_CAP, max_guessing
from .lp import LinearProgram
from .rationals import Rational, rat_str
from .structure import DEFAULT_REDUCTION_CAP, certify_entropy_minimal_candidate, find_reducible_set
from .enumeration import (
    DEFAULT_ENUM_CAP,
    collapsed_values,
    survey_entropy_values,
    verify_g_family,
    verify_small_theorems,
    verify_wheel_lemma,
)


class UsageFault(Exception):
    """Input problem with a remediation hint; reported on stderr, exit 2."""


def _jsonify(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Rational):
        return rat_str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _load_graph(source: str, fmt: str):
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageFault(f"cannot read graph file {source!r}: {exc}; "
                             "pass a readable path or '-' for stdin") from exc
    try:
        return parse_graph(text, fmt)
    except FormatError as exc:
        raise UsageFault(f"cannot parse graph input: {exc}; expected graph6, "
                         "'n; u-v,...' edge list, or 'n; u->v,...' arc list") from exc


def _echo_graph(g) -> dict:
    if g.is_simple():
        return {"n": g.n, "format": "graph6", "text": render_graph(g, "graph6")}
    return {"n": g.n, "format": "arc-list", "text": render_graph(g, "arc-list")}


# -- subcommands ----------------------------------------------------------------


def _cmd_bounds(args) -> tuple[dict, int]:
    g = _load_graph(args.graph, args.format)
    report = entropy_bracket(g, shannon_cap=args.shannon_cap, lazy_theta=args.lazy)
    echo = _echo_graph(g)
    result = {
        "graph": echo["text"],
        "nu": report.nu,
        "cc": report.cc,
        "kappa_f": report.kappa_f,
        "tau": report.tau,
        "theta": report.theta,
        "bracket": {"lower": report.lower, "upper": report.upper, "exact": report.exact},
        "witnesses": {"lower": report.lower_witness, "upper": report.upper_witness},
    }
    return {"input": echo, "result": result}, 0


def _cmd_guess(args) -> tuple[dict, int]:
    _at_least("--q", args.q, 2)
    g = _load_graph(args.graph, args.format)
    size, code = max_guessing(g, args.q, cap=args.cap)
    result = {
        "q": args.q,
        "code_size": size,
        "guessing_number": f"log_{args.q}({size})",
        "code": code.word_strings(),
        "optimal": True,
    }
    return {"input": _echo_graph(g), "result": result}, 0


def _cmd_reduce(args) -> tuple[dict, int]:
    g = _load_graph(args.graph, args.format)
    d = find_reducible_set(g, cap=args.cap)
    if d is None:
        result = {"reducible": False, "S": None, "matching": None, "remainder_graph6": None}
    else:
        result = {
            "reducible": True,
            "S": list(bits_of(d.s)),
            "matching": [list(p) for p in d.matching],
            "remainder_graph6": render_graph(d.remainder, "graph6"),
        }
    return {"input": _echo_graph(g), "result": result}, 0


def _cmd_minimal_check(args) -> tuple[dict, int]:
    g = _load_graph(args.graph, args.format)
    result = certify_entropy_minimal_candidate(g, cap=args.cap)
    return {"input": _echo_graph(g), "result": result}, 0


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise UsageFault(f"{flag} must be at least {least}, got {value}")


def _cmd_survey(args) -> tuple[dict, int]:
    _at_least("--n", args.n, 1)
    _at_least("--jobs", args.jobs, 1)
    triples = survey_entropy_values(
        args.n, jobs=args.jobs, cap=args.cap, connected_only=args.connected
    )
    records = [
        {
            "graph6": render_graph(g, "graph6"),
            "n": g.n,
            "connected": connected,
            "lower": report.lower,
            "upper": report.upper,
            "exact": report.exact,
        }
        for g, report, connected in triples
    ]
    values = collapsed_values(triples)
    result = {
        "n_max": args.n,
        "connected_only": args.connected,
        "classes": len(records),
        "collapsed_values": values,
        "collapsed_values_le_4": [v for v in values if v <= 4],
        "unresolved": [rec for rec in records if not rec["exact"]],
        "records": records,
    }
    return {"input": {"n": args.n, "connected": args.connected}, "result": result}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    _at_least("--jobs", args.jobs, 1)
    if args.suite == "wheel":
        report = verify_wheel_lemma()
    elif args.suite == "gfamily":
        report = verify_g_family()
    else:
        report = verify_small_theorems(jobs=args.jobs)
    return {"input": {"suite": args.suite}, "result": report}, 0 if report["ok"] else 1


def _var_name(mask: int) -> str:
    if mask == 0:
        return "h_empty"
    return "h_" + "".join(str(v) for v in bits_of(mask))


def _lp_terms(pairs, names) -> str:
    parts = []
    for j, c in pairs:
        mag = c if c > 0 else -c
        coeff = "" if mag == 1 else f"{mag} "
        term = f"{coeff}{names(j)}"
        if not parts:
            parts.append(term if c > 0 else f"- {term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def _lp_text(lp: LinearProgram, names, header: list[str]) -> str:
    lines = [f"\\ {line}" for line in header]
    lines.append("Maximize" if lp.sense == "max" else "Minimize")
    objective = [(j, c) for j, c in enumerate(lp.objective) if c != 0]
    lines.append(f" obj: {_lp_terms(objective, names)}")
    lines.append("Subject To")
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        lines.append(f" r{i}: {_lp_terms(coeffs, names)} {rel} {rhs}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _cmd_lp_dump(args) -> tuple[str, int]:
    g = _load_graph(args.graph, args.format)
    key = _echo_graph(g)["text"]
    if args.which == "shannon":
        if g.n > args.shannon_cap:
            raise CapExceededError(f"{g.n} vertices exceed the subset-entropy cap "
                                   f"{args.shannon_cap}", flag="--shannon-cap")
        lp = build_shannon_lp(g)
        header = [
            f"subset-entropy LP for {key}",
            f"{lp.num_vars} variables, one per vertex subset; objective is the full set",
        ]
        return _lp_text(lp, _var_name, header), 0
    lp, cliques = build_fractional_cover_lp(g)
    header = [f"fractional clique cover LP for {key}"]
    for i, c in enumerate(cliques):
        header.append(f"w_{i} weights clique {list(bits_of(c))}")
    return _lp_text(lp, lambda j: f"w_{j}", header), 0


# -- argument parsing -------------------------------------------------------------


def _add_graph_arg(sub) -> None:
    sub.add_argument("--graph", required=True,
                     help="graph file (graph6, edge list, or arc list); '-' reads stdin")
    sub.add_argument("--format", default="auto",
                     choices=["auto", "graph6", "edge-list", "arc-list"],
                     help="input format (default: sniff)")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: building it costs
    far more than a parse, and parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="graphentropy",
        description="Certified entropy bounds and guessing numbers for small graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bounds", help="entropy bracket with all bound values")
    _add_graph_arg(p)
    p.add_argument("--shannon-cap", type=int, default=DEFAULT_SHANNON_CAP,
                   help="largest component size the subset-entropy LP will take")
    p.add_argument("--lazy", action="store_true",
                   help="report no theta where the transversal already collapses the "
                        "bracket, so that no --shannon-cap applies there")
    p.set_defaults(run=_cmd_bounds)

    p = subs.add_parser("guess", help="exact guessing number over q symbols")
    _add_graph_arg(p)
    p.add_argument("--q", type=int, required=True, help="alphabet size (>= 2)")
    p.add_argument("--cap", type=int, default=DEFAULT_WORD_CAP, help="largest q**n word space")
    p.set_defaults(run=_cmd_guess)

    p = subs.add_parser("reduce", help="find a vertex set S with an S-saturating matching")
    _add_graph_arg(p)
    p.add_argument("--cap", type=int, default=DEFAULT_REDUCTION_CAP,
                   help="largest vertex count to search")
    p.set_defaults(run=_cmd_reduce)

    p = subs.add_parser("minimal-check", help="necessary conditions for entropy minimality")
    _add_graph_arg(p)
    p.add_argument("--cap", type=int, default=DEFAULT_REDUCTION_CAP,
                   help="largest vertex count to check")
    p.set_defaults(run=_cmd_minimal_check)

    p = subs.add_parser("survey", help="entropy landscape over all small graphs")
    p.add_argument("--n", type=int, required=True, help="largest vertex count (<= --cap)")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP,
                   help="largest vertex count to enumerate")
    p.add_argument("--connected", action="store_true", help="connected classes only")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(run=_cmd_survey)

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=["wheel", "gfamily", "theorem2"])
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for theorem2")
    p.set_defaults(run=_cmd_verify)

    p = subs.add_parser("lp-dump", help="print an LP as plain text: the full subset-entropy "
                       "primal (the solver runs its collapsed dual) or the cover LP")
    _add_graph_arg(p)
    p.add_argument("--which", required=True, choices=["shannon", "fractional-cover"])
    p.add_argument("--shannon-cap", type=int, default=DEFAULT_SHANNON_CAP)
    p.set_defaults(run=_cmd_lp_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload, status = args.run(args)
    except CapExceededError as exc:
        hint = f"; raise {exc.flag} if you mean it" if exc.flag else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except (UsageFault, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        report = {
            "command": args.command,
            "version": __version__,
            "input": payload["input"],
            "result": _jsonify(payload["result"]),
        }
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    print(f"timing: {elapsed:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
