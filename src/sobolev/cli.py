"""Command line interface.

Usage: ``sobolev <command> [flags]`` with commands laguerre-roots,
althammer-roots, least-squares, penta, compare-solvers.  Results print to
stdout (or --out) as CSV or JSON; --dump-spectral writes the solved
spectral data as JSON next to --out; --trace streams per-step solver
events as JSON lines on stderr.

Invalid arguments end in the subcommand's usage error (exit code 2).  A
solver that fails its numerical contract ends in exit code 3, with its
message and its diagnostic fields as one JSON object on stderr.
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

    def add_command(name, run, summary):
        # no flag defaults here: each default lives in the driver's signature
        p = sub.add_parser(
            name, parents=[common], help=summary, argument_default=argparse.SUPPRESS
        )
        p.set_defaults(run=run, error=p.error)
        return p

    p = add_command(
        "laguerre-roots",
        cmd_laguerre_roots,
        "smallest roots of Laguerre-type Sobolev polynomials",
    )
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-quad", type=int)
    p.add_argument("--k-max", type=int)

    p = add_command(
        "althammer-roots",
        cmd_althammer_roots,
        "all roots of a Legendre-plus-derivative polynomial",
    )
    p.add_argument("--n", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--n-quad", type=int)

    p = add_command(
        "least-squares",
        cmd_least_squares,
        "Hermite least-squares error curves for a Gaussian bump",
    )
    p.add_argument("--gamma", type=float)
    p.add_argument("--m", type=int)
    p.add_argument(
        "--degrees",
        type=_parse_degrees,
        help="comma list or start:stop[:step] (default 1:201:10)",
    )

    p = add_command("penta", cmd_penta, "pentadiagonal five-term recurrence matrix")
    p.add_argument("--m", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--M", type=float)
    p.add_argument("--N", type=float)

    p = add_command(
        "compare-solvers",
        cmd_compare_solvers,
        "cross-validate the solvers on random spectral data",
    )
    p.add_argument("--count", type=int)
    p.add_argument("--max-m", type=int)
    p.add_argument("--seed", type=int)

    return parser


def _stderr_trace(record: dict):
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    command, run, error = options.pop("command"), options.pop("run"), options.pop("error")
    out, fmt = options.pop("out"), options.pop("fmt")
    dump_spectral = options.pop("dump_spectral")
    options["trace"] = _stderr_trace if options["trace"] else None

    if dump_spectral and out is None:
        error("--dump-spectral requires --out")
    if command == "least-squares" and out is not None:
        options["svg_path"] = out.with_name(out.stem + ".svg")

    try:
        report, data = run(**options)
    except ValueError as exc:
        error(str(exc))
    except NumericalFailure as exc:
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        print(json.dumps({"error": str(exc), **exc.details}, default=str), file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE

    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    if out is not None:
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)

    if dump_spectral:
        if data is None:
            print("no spectral data to dump for this command", file=sys.stderr)
        else:
            path = out.with_name(out.stem + ".spectral.json")
            path.write_text(
                json.dumps(spectral_to_json(*data), indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
