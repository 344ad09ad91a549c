"""The one reader of the table of pinned outputs, `tests/data/pins.txt`.

Each line of the table names a file under `tests/data/` and the command
whose standard output that file holds, byte for byte; a file ending in
`.sha256` holds the sha256 digest of the output instead.  A command is a
`rostcalc` argv or a `scripts/slot_tables.py` argv.  A line fails if its
file is missing, if its command exits nonzero, or if the output differs by
any byte, and the failure names the line.

Tier-1 checks every line in `tests/test_pins.py`, running `rostcalc` in
process through `rostcalc.cli.main`.  Run as a script, this checks every
line through the installed `rostcalc` console script:

    python tests/pin_table.py

Script lines run in a subprocess either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "pins.txt"
SCRIPT = "scripts/slot_tables.py"


class Pin(NamedTuple):
    where: str  # "pins.txt:12", the table line
    path: Path
    argv: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.where}: {self.path.name}: {shlex.join(self.argv)}"


def read_table(table: Path = TABLE) -> list[Pin]:
    """Every pin of the table, in its order."""
    pins = []
    for k, line in enumerate(table.read_text().splitlines(), 1):
        words = shlex.split(line, comments=True)
        if not words:
            continue
        name, *argv = words
        if not argv or argv[0] not in ("rostcalc", SCRIPT):
            raise ValueError(f"{table.name}:{k}: not a file and a rostcalc or {SCRIPT} argv")
        pins.append(Pin(f"{table.name}:{k}", table.parent / name, tuple(argv)))
    return pins


def run(argv, installed: bool = False) -> tuple[int, bytes, str]:
    """(exit code, stdout, stderr) of one table command.  A `rostcalc` argv
    runs in process through `rostcalc.cli.main`, or through the console
    script on PATH when `installed`.  A script argv runs in a subprocess,
    importing `src/` unless `installed`."""
    if argv[0] == "rostcalc" and not installed:
        from rostcalc.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv[1:]))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue().encode(), err.getvalue()
    command = [sys.executable, str(ROOT / SCRIPT), *argv[1:]] if argv[0] == SCRIPT else list(argv)
    env = None
    if not installed:
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    proc = subprocess.run(command, capture_output=True, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def failure(pin: Pin, installed: bool = False) -> str | None:
    """Why the pin's command does not give its file, naming the line; None
    when it does."""
    if not pin.path.is_file():
        return f"{pin}: the file is missing"
    code, out, err = run(pin.argv, installed)
    if code != 0:
        return f"{pin}: exited {code}: {err.strip()}"
    what = "the output"
    if pin.path.suffix == ".sha256":
        out, what = hashlib.sha256(out).hexdigest().encode() + b"\n", "the output's sha256"
    expected = pin.path.read_bytes()
    if out != expected:
        at = next((k for k, (a, b) in enumerate(zip(out, expected)) if a != b), min(len(out), len(expected)))
        return f"{pin}: {what} differs from the file at byte {at}"
    return None


def main(table: Path = TABLE) -> int:
    """Check every line through the installed console script; print each
    failure, and exit 1 if there is one."""
    failures = [f for f in (failure(pin, installed=True) for pin in read_table(table)) if f]
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
