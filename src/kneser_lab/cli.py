"""Command-line front end.

Verbs: construct, shifts, chi, core, hom, iso, verify, probe. Exit codes:
0 all requested checks pass (or a definitive answer was produced), 2 some
check failed, 3 only budget exhaustion stood in the way, 64 usage error.
`--budget` is parsed once, before any verb runs, so a malformed budget is a
usage error on every verb before any graph is built or file is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from . import coloring, dihedral, harness, homsolver
from .budget import DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, BudgetExhausted, SearchBudget
from .dimacs import dimacs_dumps, read_dimacs
from .families import parse_family_spec
from .graphs import Graph
from .isomorphism import are_isomorphic

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_graph(text: str) -> Graph:
    """A family spec like "stable:n=8,k=2,s=3", or a DIMACS file path."""
    try:
        return parse_family_spec(text).build()
    except ValueError:
        path = Path(text)
        if path.exists():
            return read_dimacs(path)
        raise


def _parse_range(flag: str, text: str) -> list[int]:
    """The integers a..b of "a:b", or [a] of "a"; an empty range is an error."""
    lo, colon, hi = text.partition(":")
    try:
        values = list(range(int(lo), int(hi if colon else lo) + 1))
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{flag} {text!r} is not an integer a or a range a:b with a <= b")
    return values


def _cmd_construct(args) -> int:
    g = _load_graph(args.spec)
    summary = sys.stderr if args.out == "-" else sys.stdout  # keep stdout pure DIMACS
    print(f"{args.spec}: {g.order} vertices, {g.edge_count} edges", file=summary)
    if args.out:
        text = dimacs_dumps(g)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
            print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_shifts(args) -> int:
    spec = parse_family_spec(args.spec)
    if spec.kind != "stable":
        print("shifts are defined for stable Kneser specs only", file=sys.stderr)
        return EXIT_USAGE
    # the prediction is made first, so a usage error prints nothing on stdout
    predicted = dihedral.predicted_shifts(spec.n, spec.k, spec.s) if args.predict else None
    brute = dihedral.enumerate_shifts(spec.build())
    print(f"brute-force: {{{', '.join(map(str, brute))}}}")
    if predicted is not None:
        print(f"formula:     {{{', '.join(map(str, predicted))}}}")
        print(f"agree: {brute == predicted}")
        if brute != predicted:
            return EXIT_FAIL
    return EXIT_OK


def _cmd_chi(args) -> int:
    g = _load_graph(args.spec)
    result = coloring.chromatic_number(g, args.budget)
    cert = homsolver.certificate(
        "coloring", data=result.coloring, source=g, verified=True, nodes=result.nodes,
        seconds=result.seconds,
    )
    print(f"chi = {result.chi}")
    print(homsolver.certificate_dumps(cert))
    return EXIT_OK


def _print_outcome(outcome: homsolver.Outcome, g: Graph, h: Graph) -> int:
    """Print a search's status and, when it found a map g -> h, its certificate;
    an exhausted search raises BudgetExhausted, which `main` reports."""
    if outcome.status == "exhausted":
        raise BudgetExhausted(outcome.nodes, outcome.seconds)
    print(outcome.status)
    if outcome.witness is not None:
        cert = homsolver.certificate(
            "homomorphism", data=outcome.witness.mapping, source=g, target=h, verified=True,
            nodes=outcome.nodes, seconds=outcome.seconds,
        )
        print(homsolver.certificate_dumps(cert))
    return EXIT_OK


def _cmd_core(args) -> int:
    g = _load_graph(args.spec)
    return _print_outcome(homsolver.is_core(g, args.budget), g, g)


def _cmd_hom(args) -> int:
    g = _load_graph(args.source)
    h = _load_graph(args.target)
    return _print_outcome(homsolver.find_homomorphism(g, h, args.budget), g, h)


def _cmd_iso(args) -> int:
    g = _load_graph(args.first)
    h = _load_graph(args.second)
    mapping = are_isomorphic(g, h, args.budget)
    if mapping is None:
        print("not isomorphic")
    else:
        print("isomorphic")
        print(json.dumps(list(mapping)))
    return EXIT_OK


def _report(args, run, *params, **options) -> list:
    """Print the rows of `run` on the command's budget and write them to
    --json, which is opened first: a bad path fails before any suite runs."""
    with open(args.json, "w") if args.json else nullcontext() as out:
        reports = run(*params, budget=args.budget, **options)
        for r in reports:
            print(harness.format_report_line(r))
        if out is not None:
            out.write(json.dumps(harness.reports_to_json(reports), indent=2, sort_keys=True) + "\n")
    return reports


def _cmd_verify(args) -> int:
    manifest = None if args.manifest is None else harness.load_manifest(args.manifest)
    run = harness.run_all if args.suite == "all" else partial(harness.run_suite, args.suite)
    reports = _report(args, run, manifest=manifest, include_square_search=args.square)
    statuses = [r.status for r in reports]
    print(f"total={len(reports)} pass={statuses.count('pass')} fail={statuses.count('fail')} "
          f"exhausted={statuses.count('exhausted')}")
    if args.json:
        print(f"wrote {args.json}")
    return harness.exit_code_for(reports)


def _cmd_probe(args) -> int:
    if args.square_cap < 0:
        raise ValueError(f"--square-cap {args.square_cap} is negative; 0 searches no square")
    ranges = [_parse_range(f"--{name}", getattr(args, name)) for name in "nks"]
    if not _report(args, harness.probe_conjectures, *ranges, square_order_cap=args.square_cap):
        raise ValueError("--n/--k/--s select no graph: a probe needs k >= 2, s >= 2 and n > ks")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="kneser-lab", description=__doc__)
    parser.add_argument(
        "--budget",
        metavar="NODES,SECONDS",
        help=f"limits of each solver call (default {DEFAULT_NODE_LIMIT},{DEFAULT_TIME_LIMIT:g}); "
        "an empty part keeps its default",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build a family graph, optionally write DIMACS")
    p.add_argument("spec")
    p.add_argument("--out", metavar="PATH", help="DIMACS output path, '-' for stdout")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("shifts", help="enumerate the shifts of a stable Kneser graph")
    p.add_argument("spec")
    p.add_argument("--predict", action="store_true", help="compare with the closed form")
    p.set_defaults(fn=_cmd_shifts)

    p = sub.add_parser("chi", help="exact chromatic number with certificate")
    p.add_argument("spec", help="family spec or DIMACS file")
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("core", help="decide the core property")
    p.add_argument("spec", help="family spec or DIMACS file")
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("hom", help="decide homomorphism existence")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("iso", help="decide isomorphism")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(harness.SUITES) + ["all"])
    p.add_argument("--json", metavar="PATH", help="write the report as JSON")
    p.add_argument("--manifest", metavar="PATH", help="alternative instance manifest")
    p.add_argument(
        "--square",
        action="store_true",
        help="also run the optional direct square searches (may exhaust)",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("probe", help="run conjecture probes (never gate anything)")
    p.add_argument("--n", default="9:10", help="range a:b or single value")
    p.add_argument("--k", default="2:2")
    p.add_argument("--s", default="3:3")
    p.add_argument(
        "--square-cap",
        type=int,
        default=150,
        metavar="N",
        help="largest cartesian-square order the probes will search",
    )
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.budget = SearchBudget.from_text(args.budget or "")
        return args.fn(args)
    except BudgetExhausted as stop:
        print(f"exhausted after {stop.nodes} nodes")
        return EXIT_EXHAUSTED
    except (ValueError, OSError) as err:
        print(f"kneser-lab: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
