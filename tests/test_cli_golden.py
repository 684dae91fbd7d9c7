"""Golden digests of the CLI: every call's (exit code, stdout, stderr).

`tests/data/cli_golden.json` maps each argv (shell-quoted) to the sha256 of
its outcome.  Each call runs `python -m hyperc` from `tests/data` with bare
file names, so the paths echoed by `--format json` do not depend on where the
checkout lives.  A change that alters any byte of any of these outputs fails
the comparison.  The `--help` texts are pinned too, once per Python minor
version, since argparse words and wraps help differently between versions.

The module needs only the standard library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_cli_golden.py            # compare
    PYTHONPATH=src python tests/test_cli_golden.py --record   # rewrite this version's digests
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from test_acceptance import CLI_CORPUS

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
SRC = Path(__file__).resolve().parent.parent / "src"

ORACLE_KINDS = (
    "missext",
    "unc",
    "exponential",
    "receptive-quotient",
    "interface-compose",
    "ia-equivalence",
    "conic-quotient",
    "conic-ops",
)

#: Paths the acceptance corpus does not reach.
EXTRA_CALLS: tuple[tuple[str, ...], ...] = (
    *(("oracle", kind, "--seed", "7", "--cases", "3", "--max-len", "3") for kind in ORACLE_KINDS),
    ("lang", "union", "istar.json", "sigma.json"),
    ("lang", "intersect", "rec_istar.json", "rec_sigma.json"),
    ("lang", "canon", "rec_istar.json"),
    ("iface", "validate", "c_istar.json"),
    ("iface", "validate", "c_istar.json", "--environment", "sigma.json"),
    ("beh", "quotient", "beh.json", "h12", "htop"),
    ("beh", "quotient", "beh.json", "cmix", "ctop"),
    ("beh", "quotient", "beh.json", "cmix", "ctop", "--general"),
)

#: Help texts: the top level, each group and one verb per group.
HELP_CALLS: tuple[tuple[str, ...], ...] = (
    ("--help",),
    *((group, "--help") for group in ("lang", "iface", "ia", "beh", "oracle")),
    *(
        (*verb.split(), "--help")
        for verb in ("lang unc", "iface validate", "ia compose", "beh quotient", "oracle all")
    ),
)


def golden_argvs() -> list[tuple[str, ...]]:
    return [
        (*argv, "--format", fmt) for argv in (*CLI_CORPUS, *EXTRA_CALLS) for fmt in ("text", "json")
    ] + list(HELP_CALLS)


#: argparse words and wraps help differently from one Python minor version to
#: the next, so a help key names the version its digest was recorded with.
VERSION_TAG = f" (Python {sys.version_info[0]}.{sys.version_info[1]})"


def golden_key(argv: tuple[str, ...]) -> str:
    return shlex.join(argv) + (VERSION_TAG if argv[-1] == "--help" else "")


def outcome_digest(argv: tuple[str, ...]) -> str:
    env = {k: v for k, v in os.environ.items() if k not in ("HYPERC_MAX_STATES", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["COLUMNS"] = "80"  # argparse's own fallback for a pipe: a terminal's width must not wrap help
    proc = subprocess.run(
        [sys.executable, "-m", "hyperc", *argv], cwd=DATA, env=env, capture_output=True, check=False
    )
    outcome = json.dumps([proc.returncode, proc.stdout.decode(), proc.stderr.decode()])
    return hashlib.sha256(outcome.encode("utf-8")).hexdigest()


def current_digests() -> dict[str, str]:
    return {golden_key(argv): outcome_digest(argv) for argv in golden_argvs()}


def golden_digests() -> tuple[dict[str, str], dict[str, str]]:
    """The recorded digests this Python version checks, and the help digests of other versions."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    other = {k for k in golden if " (Python " in k and not k.endswith(VERSION_TAG)}
    return {k: v for k, v in golden.items() if k not in other}, {k: golden[k] for k in other}


def test_cli_outputs_match_golden_digests():
    golden, _ = golden_digests()
    current = current_digests()
    assert sorted(current) == sorted(golden), "help texts not recorded for this Python version?"
    changed = [key for key in golden if current[key] != golden[key]]
    assert not changed, f"{len(changed)} calls changed output, first: {changed[:5]}"


def main(argv: list[str]) -> int:
    current = current_digests()
    golden, other = golden_digests()
    if argv == ["--record"]:
        recorded = {**other, **current}
        GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(current)} digests on Python {sys.version.split()[0]}")
        return 0
    changed = sorted(set(golden) ^ set(current)) + [
        key for key in golden if key in current and current[key] != golden[key]
    ]
    for key in changed:
        print(f"DIFF {key}")
    print(f"{len(current) - len(changed)}/{len(golden)} digests match on Python {sys.version.split()[0]}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
