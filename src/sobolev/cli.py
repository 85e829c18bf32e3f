"""Command line interface.

Usage: ``sobolev <command> [flags]`` with commands laguerre-roots,
althammer-roots, least-squares, penta, compare-solvers.  Results print to
stdout (or --out) as CSV or JSON.  This module writes every file, after
the run: the report at --out, then next to it under its stem the
least-squares error curves (.svg) and, with --dump-spectral, the solved
spectral data (.spectral.json).  --trace streams per-step solver,
eigensolver and basis-evaluation events as JSON lines on stderr.

Invalid arguments, a flag the subcommand does not take, and an output
file that cannot be written end in the subcommand's usage error (exit
code 2).  Every output path is checked before the run: a missing
directory, a directory or an unwritable file in the way, and an --out
that the figure would overwrite, fail at once, not after the run.  A
solver that fails its numerical contract ends in exit code 3, with its
message and its diagnostic fields as one JSON object on stderr.  A
stdout closed by its reader ends in exit code 1, without a traceback.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

from .errors import NumericalFailure
from .experiments import (
    _jsonable,
    cmd_althammer_roots,
    cmd_compare_solvers,
    cmd_laguerre_roots,
    cmd_least_squares,
    cmd_penta,
    least_squares_figure,
    report_to_csv,
    report_to_json,
)
from .hiep import DEFAULT_SOLVER, SOLVER_NAMES
from .spectral import spectral_to_json

EXIT_NUMERICAL_FAILURE = 3


def _parse_degrees(text: str):
    """Accept '1,11,21' or a range 'start:stop:step' (stop inclusive)."""
    text = text.strip()
    if ":" in text:
        try:
            parts = [int(p) for p in text.split(":")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad degree range {text!r}") from exc
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


# the flags whose driver parameter has no annotation to type them
_UNANNOTATED = {
    "degrees": {"type": _parse_degrees, "help": "comma list or start:stop[:step] (default 1:201:10)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev",
        description="Sobolev orthonormal polynomials: recurrence matrices, "
        "roots, banded recurrences and Hermite least squares.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, help="write the result to this file")
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )
    common.add_argument(
        "--trace",
        action="store_true",
        help="stream solver, eigensolver and basis-evaluation steps as JSON lines on stderr",
    )
    # only for a driver that takes a solver
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument(
        "--solver",
        choices=SOLVER_NAMES,
        default=DEFAULT_SOLVER,
        help=f"inverse-problem solver (default: {DEFAULT_SOLVER}); an Arnoldi breakdown before the "
        "needed column ends in exit code 3; update-hh can print wrong results with exit 0, "
        "e.g. laguerre-roots --gamma 1e300 (see README)",
    )
    solving.add_argument(
        "--dump-spectral",
        action="store_true",
        help="also write the solved (Z, w) as JSON (requires --out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand's driver and summary; its flags are the driver's parameters
    commands = {
        "laguerre-roots": (cmd_laguerre_roots, "smallest roots of Laguerre-type Sobolev polynomials"),
        "althammer-roots": (cmd_althammer_roots, "all roots of a Legendre-plus-derivative polynomial"),
        "least-squares": (cmd_least_squares, "Hermite least-squares error curves for a Gaussian bump"),
        "penta": (cmd_penta, "pentadiagonal five-term recurrence matrix"),
        "compare-solvers": (cmd_compare_solvers, "cross-validate the solvers on random spectral data"),
    }
    for name, (run, summary) in commands.items():
        parameters = inspect.signature(run, eval_str=True).parameters
        # no flag defaults here: each default lives in the driver's signature
        p = sub.add_parser(
            name,
            parents=[solving, common] if "solver" in parameters else [common],
            help=summary,
            argument_default=argparse.SUPPRESS,
        )
        p.set_defaults(run=run, error=p.error)
        # keyword-only parameters (trace, grid_points) are for Python callers only
        for param in parameters.values():
            if param.kind is param.POSITIONAL_OR_KEYWORD and param.name != "solver":
                p.add_argument(
                    "--" + param.name.replace("_", "-"),
                    **_UNANNOTATED.get(param.name, {"type": param.annotation}),
                )

    return parser


def _stderr_trace(record: dict):
    print(json.dumps(_jsonable(record)), file=sys.stderr)


def _unwritable(path: Path) -> str | None:
    """Why path cannot be written, when that shows before writing: a
    missing directory, a directory at the path, or no write permission."""
    if not path.parent.is_dir():
        return f"no such directory {path.parent}"
    if path.is_dir():
        return "it is a directory"
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        return "permission denied"
    return None


def _write(path: Path, text: str, error) -> None:
    """Write text to path and say so; an unwritable path is a usage error."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        error(f"cannot write {exc.filename}: {exc.strerror or exc}")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = build_parser()
    namespace, extra = parser.parse_known_args(argv)
    options = vars(namespace)
    command, run, error = options.pop("command"), options.pop("run"), options.pop("error")
    if extra:
        # flags the subcommand does not take: report them with its own usage
        error(f"unrecognized arguments: {' '.join(extra)}")
    out, fmt = options.pop("out"), options.pop("fmt")
    dump_spectral = options.pop("dump_spectral", False)
    options["trace"] = _stderr_trace if options["trace"] else None

    if dump_spectral and out is None:
        error("--dump-spectral requires --out")
    # every output path is checked before the run, so that none is left
    # behind by a run whose later write is bound to fail
    paths = [] if out is None else [out]
    figure = spectral = None
    if command == "least-squares" and out is not None:
        figure = out.with_name(out.stem + ".svg")
        if figure == out:
            error(f"--out {out} is the path of the figure; give the report another suffix")
        paths.append(figure)
    if dump_spectral:
        spectral = out.with_name(out.stem + ".spectral.json")
        paths.append(spectral)
    for path in paths:
        reason = _unwritable(path)
        if reason is not None:
            error(f"cannot write {path}: {reason}")

    try:
        report, data = run(**options)
    except ValueError as exc:
        error(str(exc))
    except NumericalFailure as exc:
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        print(json.dumps(_jsonable({"error": str(exc), **exc.details})), file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE

    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            _write(out, text, error)
            if figure is not None:
                _write(figure, least_squares_figure(report), error)
            if spectral is not None:
                _write(spectral, json.dumps(spectral_to_json(*data), indent=2) + "\n", error)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is left in the buffer goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
