"""The README says what the code does: each usage line names its driver's
flags with the driver's defaults, the --solver bullet names the solvers
and the default of hiep, and the Library sketch runs."""

import argparse
import inspect
import re
from pathlib import Path

import pytest

from sobolev import hiep
from sobolev.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the "sobolev <command> [--flag value] ..." lines of the CLI section
USAGE = re.findall(r"^sobolev ([a-z-]+)((?: \[--\S+ \S+\])+)$", README, flags=re.M)


def _subcommands():
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def test_every_subcommand_has_one_usage_line():
    assert sorted(command for command, _ in USAGE) == sorted(_subcommands())


@pytest.mark.parametrize("command, flags", USAGE, ids=[command for command, _ in USAGE])
def test_usage_line_gives_the_drivers_flags_and_defaults(command, flags):
    parser = _subcommands()[command]
    parameters = [
        p for p in inspect.signature(parser.get_default("run")).parameters.values()
        if p.kind is p.POSITIONAL_OR_KEYWORD and p.name != "solver"
    ]
    pairs = re.findall(r"\[(--\S+) (\S+)\]", flags)
    assert [flag for flag, _ in pairs] == ["--" + p.name.replace("_", "-") for p in parameters]
    for (flag, text), param in zip(pairs, parameters):
        # the README's value read by the subcommand's own flag type
        given = getattr(parser.parse_args([flag, text]), param.name)
        if isinstance(param.default, tuple):
            given = tuple(given)
        assert (type(given), given) == (type(param.default), param.default), flag


def test_solver_bullet_names_the_solvers_and_the_default():
    [(names, default)] = re.findall(r"^- `--solver \{(\S+)\}` \(default `(\S+)`\)", README, flags=re.M)
    assert tuple(names.split(",")) == hiep.SOLVER_NAMES
    assert default == hiep.DEFAULT_SOLVER


def test_library_sketch_runs(capsys):
    [sketch] = re.findall(r"^## Library sketch\n\n```python\n(.*?)^```$", README, flags=re.M | re.S)
    exec(compile(sketch, "README.md", "exec"), {})
    # it prints the smallest root of p_12; a real H has exactly real roots
    assert complex(capsys.readouterr().out).imag == 0.0
