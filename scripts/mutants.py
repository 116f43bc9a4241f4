#!/usr/bin/env python3
"""Run the committed mutant list and report which mutants the tests kill.

    python3 scripts/mutants.py            # every entry of tests/data/mutants.json
    python3 scripts/mutants.py NAME ...   # the named entries only

Each entry names a file under src/, an exact text that occurs once in it,
its replacement, and a target test file or node. For each entry the script
copies src/, tests/, schemas/ (which the CLI tests validate against) and
pyproject.toml to a temporary directory, applies the one replacement there
and runs

    python -m pytest -x -q -p no:cacheprovider <target>

in the copy, with PYTHONPATH set to the copy's src alone, so an inherited or
installed hypoint cannot stand in for the mutant. Only exit code 1 (tests
failed) is a kill; a collection error, a usage error or an empty run is
not. Each target is first run once on the unmutated copy, which must pass,
so a failure that the copy itself causes is never read as a kill.

Prints one JSON line per entry, in list order: name, file, target, the
target's exit code on the unmutated copy ("control") and on the mutant
("exit"), and "killed". The exit status is 0 when every selected mutant is
killed, 1 otherwise, and 2 when a name is unknown or an entry's text does
not occur exactly once.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tests" / "data" / "mutants.json"


def load() -> list:
    return json.loads(MUTANTS.read_text())


def occurrences(entry: dict) -> int:
    return (ROOT / entry["file"]).read_text().count(entry["find"])


def _pytest(copy: Path, target: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, check=False).returncode


@contextmanager
def _copy():
    with tempfile.TemporaryDirectory(prefix="hypoint-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "schemas"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        yield copy


def controls(targets) -> dict:
    """Each target's exit code on an unmutated copy."""
    with _copy() as copy:
        return {target: _pytest(copy, target) for target in dict.fromkeys(targets)}


def run(entries: list) -> list:
    """Each entry's target exit code with that one mutant applied to a copy."""
    codes = []
    with _copy() as copy:
        for entry in entries:
            path = copy / entry["file"]
            text = path.read_text()
            path.write_text(text.replace(entry["find"], entry["replace"]))
            codes.append(_pytest(copy, entry["target"]))
            path.write_text(text)
    return codes


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    entries = load()
    unknown = set(names) - {entry["name"] for entry in entries}
    if unknown:
        print(f"unknown mutant names: {sorted(unknown)}", file=sys.stderr)
        return 2
    entries = [entry for entry in entries if not names or entry["name"] in names]
    stale = [entry["name"] for entry in entries if occurrences(entry) != 1]
    if stale:
        print(f"text not found exactly once for: {stale}", file=sys.stderr)
        return 2
    clean = controls(entry["target"] for entry in entries)
    killed = []
    for entry, code in zip(entries, run(entries)):
        control = clean[entry["target"]]
        killed.append(control == 0 and code == 1)
        print(json.dumps({"name": entry["name"], "file": entry["file"], "target": entry["target"],
                          "control": control, "exit": code, "killed": killed[-1]}))
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main())
