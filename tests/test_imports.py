"""What a `hyperc` call imports.  Each verb loads only the modules of its
group and neither `dataclasses` nor `inspect` (whose own imports cost more
than most verbs' work), and `import hyperc` loads none until a name is read.
These are structural checks on `sys.modules`, not timings."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperc

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
VALUE_MODULES = ("automata", "behavioral", "contracts", "errors", "lang", "oracle", "receptive")

# Heavy standard modules no call may load.
HEAVY = ("dataclasses", "inspect")

_REPORT = (
    'print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "hyperc"'
    f' or m in {HEAVY!r})]))'
)
# `python -m hyperc ARGV` as the interpreter runs it.
_RUN_CLI = """
import json, runpy, sys
try:
    runpy.run_module("hyperc", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
"""


def loaded_modules(code: str, *argv: str) -> tuple[object, set[str]]:
    """Run `code` in a fresh interpreter; its exit code and the hyperc and HEAVY modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("HYPERC_MAX_STATES", None)
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *argv],
        cwd=DATA, env=env, capture_output=True, text=True, check=True,
    )
    exit_code, modules = json.loads(proc.stdout.splitlines()[-1])
    return exit_code, set(modules)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("lang", "canon", "istar.json"), ("oracle", "behavioral", "automata", "contracts")),
        (("iface", "compose", "c_eps_a_out.json", "c_eps_a_in.json"), ("oracle", "behavioral", "automata")),
        (("ia", "refines", "ia_iloop.json", "ia_ioloop.json"), ("oracle", "behavioral")),
        (
            ("beh", "compose", "beh.json", "agc1", "agc2"),
            ("oracle", "lang", "receptive", "contracts", "automata"),
        ),
        (("oracle", "all", "--cases", "0"), ()),  # loads every value module
    ],
)
def test_verb_loads_only_its_groups_modules(argv, absent):
    code, modules = loaded_modules(_RUN_CLI, *argv)
    assert code in (0, 1)  # the verb ran to its answer
    assert not modules & {*(f"hyperc.{name}" for name in absent), *HEAVY}
    assert "hyperc.cli" in modules  # the report sees the package's modules


def test_import_hyperc_loads_no_submodule():
    assert loaded_modules("import json, sys, hyperc\ncode = 0\n") == (0, {"hyperc"})


def test_every_export_resolves_and_is_listed():
    owners = [importlib.import_module(f"hyperc.{name}") for name in VALUE_MODULES]
    listed = dir(hyperc)
    for name in hyperc.__all__:
        value = getattr(hyperc, name)
        assert any(vars(owner).get(name) is value for owner in owners), name
        assert name in listed
    assert hyperc.oracle is owners[VALUE_MODULES.index("oracle")]


def test_star_import():
    namespace: dict = {}
    exec("from hyperc import *", namespace)  # noqa: S102
    assert set(hyperc.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hyperc.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hyperc import nope")  # noqa: S102
