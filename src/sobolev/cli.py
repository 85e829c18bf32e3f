"""Command line interface.

Usage: ``sobolev <command> [flags]`` with commands laguerre-roots,
althammer-roots, least-squares, penta, compare-solvers.  Results print to
stdout (or --out) as CSV or JSON; --dump-spectral writes the solved
spectral data as JSON next to --out; --trace streams per-step solver
events as JSON lines on stderr.

Invalid arguments end in a usage error (exit code 2).  A solver that
fails its numerical contract ends in exit code 3, with its message and
its diagnostic fields as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import NumericalFailure
from .experiments import (
    cmd_althammer_roots,
    cmd_compare_solvers,
    cmd_laguerre_roots,
    cmd_least_squares,
    cmd_penta,
    report_to_csv,
    report_to_json,
)
from .hiep import SOLVER_NAMES
from .spectral import spectral_to_json

EXIT_NUMERICAL_FAILURE = 3


def _parse_degrees(text: str):
    """Accept '1,11,21' or a range 'start:stop:step' (stop inclusive)."""
    text = text.strip()
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise argparse.ArgumentTypeError("range must be start:stop[:step]")
        if step < 1:
            raise argparse.ArgumentTypeError("step must be positive")
        return list(range(start, stop + 1, step))
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev",
        description="Sobolev orthonormal polynomials: recurrence matrices, "
        "roots, banded recurrences and Hermite least squares.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--solver",
        choices=SOLVER_NAMES,
        default="update-rot",
        help="inverse-problem solver (default: update-rot)",
    )
    common.add_argument("--out", type=Path, help="write the result to this file")
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )
    common.add_argument(
        "--dump-spectral",
        action="store_true",
        help="also write the solved (Z, w) as JSON (requires --out)",
    )
    common.add_argument(
        "--trace",
        action="store_true",
        help="stream solver steps as JSON lines on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "laguerre-roots",
        parents=[common],
        help="smallest roots of Laguerre-type Sobolev polynomials",
    )
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=-0.5)
    p.add_argument("--n-quad", type=int, default=10)
    p.add_argument("--k-max", type=int, default=10)

    p = sub.add_parser(
        "althammer-roots",
        parents=[common],
        help="all roots of a Legendre-plus-derivative polynomial",
    )
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--gamma", type=float, default=100.0)
    p.add_argument("--n-quad", type=int, default=60)

    p = sub.add_parser(
        "least-squares",
        parents=[common],
        help="Hermite least-squares error curves for a Gaussian bump",
    )
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--m", type=int, default=201)
    p.add_argument(
        "--degrees",
        type=_parse_degrees,
        default=list(range(1, 202, 10)),
        help="comma list or start:stop[:step] (default 1:201:10)",
    )

    p = sub.add_parser(
        "penta",
        parents=[common],
        help="pentadiagonal five-term recurrence matrix",
    )
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--c", type=float, default=-1.0)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--N", type=float, default=1.0)

    p = sub.add_parser(
        "compare-solvers",
        parents=[common],
        help="cross-validate the solvers on random spectral data",
    )
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-m", type=int, default=40)
    p.add_argument("--seed", type=int, default=20260826)

    return parser


def _stderr_trace(record: dict):
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace = _stderr_trace if args.trace else None

    if args.dump_spectral and args.out is None:
        parser.error("--dump-spectral requires --out")

    try:
        if args.command == "laguerre-roots":
            report, data = cmd_laguerre_roots(
                gamma=args.gamma,
                alpha=args.alpha,
                n_quad=args.n_quad,
                k_max=args.k_max,
                solver=args.solver,
                trace=trace,
            )
        elif args.command == "althammer-roots":
            report, data = cmd_althammer_roots(
                n=args.n,
                gamma=args.gamma,
                n_quad=args.n_quad,
                solver=args.solver,
                trace=trace,
            )
        elif args.command == "least-squares":
            svg_path = None
            if args.out is not None:
                svg_path = args.out.with_name(args.out.stem + ".svg")
            report, data = cmd_least_squares(
                gamma=args.gamma,
                m=args.m,
                degrees=args.degrees,
                solver=args.solver,
                trace=trace,
                svg_path=svg_path,
            )
        elif args.command == "penta":
            report, data = cmd_penta(
                m=args.m,
                alpha=args.alpha,
                c=args.c,
                M=args.M,
                N=args.N,
                solver=args.solver,
                trace=trace,
            )
        else:
            report, data = cmd_compare_solvers(
                count=args.count,
                max_m=args.max_m,
                seed=args.seed,
                solver=args.solver,
                trace=trace,
            )
    except ValueError as exc:
        parser.error(str(exc))
    except NumericalFailure as exc:
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        print(json.dumps({"error": str(exc), **exc.details}, default=str), file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE

    text = report_to_csv(report) if args.fmt == "csv" else report_to_json(report)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)

    if args.dump_spectral:
        if data is None:
            print("no spectral data to dump for this command", file=sys.stderr)
        else:
            path = args.out.with_name(args.out.stem + ".spectral.json")
            path.write_text(
                json.dumps(spectral_to_json(*data), indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
