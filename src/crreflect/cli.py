"""Command-line entry point."""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __version__
from .context import VariableContext
from .exprparse import ParseError, parse_expression
from .manifest import AnalysisFailure, Manifest, ManifestError, render_report, run, summarize
from .series import SeriesError


def _detect_context(text: str) -> VariableContext:
    """Infer a role context from the identifiers appearing in the text."""
    counts = {"z": 0, "w": 0, "zeta": 0, "xi": 0,
              "zp": 0, "wp": 0, "zetap": 0, "xip": 0}
    for ident in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text):
        m = re.fullmatch(r"(zetap|zeta|xip|xi|zp|wp|z|w)(\d+)", ident)
        if m:
            role, idx = m.group(1), int(m.group(2))
            counts[role] = max(counts[role], idx)
    names = []
    for role in ("z", "w", "zeta", "xi", "zp", "wp", "zetap", "xip"):
        names += ["%s%d" % (role, i) for i in range(1, counts[role] + 1)]
    if not names:
        names = ["z1", "w1", "zeta1", "xi1"]
    return VariableContext(names)


def _unwritable(path: str):
    """Why `path` cannot be written as a report, or None if it can."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return "is a directory"
    if not os.path.isdir(folder):
        return "no such directory %r" % folder
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return "permission denied"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crreflect",
        description="Exact finite-order CR geometry computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the analyses of a manifest")
    p_an.add_argument("manifest", help="manifest JSON file")
    p_an.add_argument("--order", type=int, default=None,
                      help="override the manifest order")
    p_an.add_argument("--seed", type=int, default=None,
                      help="override the manifest seed")
    p_an.add_argument("--out", default="report.json",
                      help="report destination (default report.json)")

    p_pc = sub.add_parser("parse-check", help="parse one expression")
    p_pc.add_argument("expression")
    p_pc.add_argument("--order", type=int, default=10)

    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "parse-check":
        ctx = _detect_context(args.expression)
        try:
            series = parse_expression(args.expression, ctx, args.order)
        except (ParseError, KeyError) as exc:
            print("parse error: %s" % exc, file=sys.stderr)
            return 2
        except SeriesError as exc:
            print("error: --order %d: %s" % (args.order, exc), file=sys.stderr)
            return 2
        print(series)
        return 0

    problem = _unwritable(args.out)
    if problem:
        print("error: --out %s: %s" % (args.out, problem), file=sys.stderr)
        return 2
    try:
        manifest = Manifest.load(args.manifest, order=args.order,
                                 seed=args.seed)
        report = run(manifest)
    except ManifestError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AnalysisFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
    print(summarize(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
