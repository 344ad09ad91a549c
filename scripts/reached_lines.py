"""List the statements of `src/rostcalc` that no workload reaches.

Traces every line run while it replays one pass of each benchmark workload
at seed 1 (`perfbench.workloads.make_items` and `execute`, with each answer
checked against the golden output or the plant), the `rostcalc` lines of
the table of pinned outputs (`tests/data/pins.txt`, read through
`tests/pin_table.py`) and the other `rostcalc` lines of CI's console-script
step.  Then it prints, for each function in `src/rostcalc`, the statements
that never ran, as line numbers, a run of unreached statements as one
range.  `raise` statements are left out, as an error path is reached by the
tests, not by a workload.

    python3 scripts/reached_lines.py

A function none of whose statements ran prints as "never called".
"""

from __future__ import annotations

import ast
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rostcalc"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from pin_table import read_table, run  # noqa: E402

# Statements with no line of their own to trace, or left out on purpose.
SKIPPED = (ast.Raise, ast.Pass, ast.Global, ast.Nonlocal, ast.Try,
           ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def command_lines() -> list[list[str]]:
    """The argv of each `rostcalc` line of the pin table and of CI's
    console-script step."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = text.split("name: Installed console script", 1)[1].split("- name:", 1)[0]
    commands = re.finditer(r"(?:^|;)\s*(rostcalc [^|>;\n]+)", step, re.M)
    table = [list(pin.argv) for pin in read_table() if pin.argv[0] == "rostcalc"]
    return table + [shlex.split(m.group(1)) for m in commands]


def run_everything() -> tuple[set[tuple[str, int]], list[str]]:
    """The (file, line) pairs of the package that ran, and the wrong answers."""
    reached: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    wrong = []
    sys.settrace(on_call)  # before rostcalc is imported, for import-time calls
    try:
        for workload in workloads.WORKLOADS:
            golden = workloads.load_golden(workload)
            for item in workloads.make_items(workload, 1):
                text = workloads.canonical_text(item, workloads.execute(item))
                if item.kind == "planted":
                    wrong += workloads.check_plant(item.payload, text)
                elif golden.get(item.key) not in (None, text):
                    wrong.append(f"{workload} {item.key}: differs from golden output")
        for argv in command_lines():
            run(argv)
    finally:
        sys.settrace(None)
    return reached, wrong


def statements(body):
    """The statements of a function body to report, outside nested defs."""
    for node in body:
        if not isinstance(node, SKIPPED) and not (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                yield from statements(getattr(node, field, ()))
            for handler in getattr(node, "handlers", ()):
                yield from statements(handler.body)


def functions(tree, prefix=""):
    """(qualified name, def node) of every function, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, prefix + node.name + ".")
        else:
            yield from functions(node, prefix)


def header_lines(node) -> range:
    """The lines of a statement that run when it starts: a compound
    statement's header, a simple statement whole."""
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if body else node.end_lineno
    return range(node.lineno, max(end, node.lineno) + 1)


def main() -> int:
    reached, wrong = run_everything()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, fn in functions(tree):
            stmts = list(statements(fn.body))
            ran = [any((str(path), k) in reached for k in header_lines(s)) for s in stmts]
            if all(ran):
                continue
            total += ran.count(False)
            where = f"{path.name} {name} ({fn.lineno})"
            if not any(ran):
                print(f"{where}: never called")
                continue
            runs, start = [], None
            for k, (s, hit) in enumerate(zip(stmts, ran)):
                if hit:
                    continue
                start = start or s.lineno
                if k + 1 == len(stmts) or ran[k + 1]:  # the end of a run
                    runs.append(str(start) if start == s.lineno else f"{start}-{s.lineno}")
                    start = None
            print(f"{where}: {', '.join(runs)}")
    print(f"{total} statements unreached")
    for line in wrong:
        print(f"wrong answer: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
