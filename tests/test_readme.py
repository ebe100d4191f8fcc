"""The README's code and schemas agree with the package.

The "Library example" block must run as printed, and the column lists of
"CSV schemas" must be the column tuples that `mechanism.write_csv` writes,
in the same order: the README calls that order part of the contract.  The
config schema lists the keys of `experiment._CONFIG_KEYS` in order, and its
`drift_kind` comment lists `core.DRIFT_KINDS` in order.
Every backticked name of a package module (`mechanism.run`,
`core.SimState.policy_view`) names an attribute of that module.
"""

import importlib
import re
from pathlib import Path

import pytest

from driftbandit import mechanism
from driftbandit.core import DRIFT_KINDS
from driftbandit.experiment import _CONFIG_KEYS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    """The README text under the `## <title>` heading, up to the next one."""
    start = README.index(f"\n## {title}")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def test_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _section("Library example"), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("SummaryMetrics(")


@pytest.mark.parametrize("name, columns", [
    ("trajectory.csv", mechanism.TRAJECTORY_COLUMNS),
    ("summary.csv", mechanism.SUMMARY_COLUMNS),
    ("sweep.csv", mechanism.SWEEP_COLUMNS),
    ("curves.csv", mechanism.CURVE_COLUMNS),
])
def test_csv_schema_lists_the_column_tuple(name, columns):
    # a bullet "- `<name>` (note): `col, col,\n  col` ...", the list wrapped over lines
    found = re.search(rf"^- `{re.escape(name)}`[^:]*: `([^`]+)`", _section("CSV schemas"), re.M)
    assert tuple(col.strip() for col in found.group(1).split(",")) == columns


def test_config_schema_lists_the_config_keys():
    # each top-level key opens a line of the block, indented by two spaces
    keys = re.findall(r'^  "(\w+)":', _section("Sweep config schema (JSON)"), re.M)
    assert tuple(keys) == _CONFIG_KEYS


def test_config_schema_lists_the_drift_kinds():
    # the line `"drift_kind": "linear",   // kind | kind`
    found = re.search(r'^ *"drift_kind": [^/]*// (.*)$', _section("Sweep config schema (JSON)"), re.M)
    assert tuple(kind.strip() for kind in found.group(1).split("|")) == DRIFT_KINDS


def test_code_references_resolve():
    # spans outside fenced blocks that start with a module's name; `lockstep.py` is a file name
    text = re.sub(r"```.*?```", "", README, flags=re.S)
    modules = "core|mechanism|lockstep|experiment|analysis|policies|rng|cli"
    found = (re.match(rf"(?:{modules})(?:\.\w+)+", span) for span in re.findall(r"`([^`]+)`", text))
    names = {m.group(0) for m in found if m and not m.group(0).endswith(".py")}
    assert names  # the pattern still finds the README's references

    def resolves(name):
        module, *path = name.split(".")
        owner = importlib.import_module(f"driftbandit.{module}")
        for attr in path:
            if not hasattr(owner, attr):
                return False
            owner = getattr(owner, attr)
        return True

    assert sorted(name for name in names if not resolves(name)) == []
