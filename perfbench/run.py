"""rostcalc benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Run from the root of a rostcalc checkout; rostcalc is imported from `src/`.
Every pass runs in a fresh interpreter (`worker.py`), because CLI users pay
every cost on every invocation.  The first pass runs every item; later passes
skip the items in `workloads.RUN_ONCE` and repeat until `--seconds` have gone
(at least MIN_PASSES passes).  `wall_s` sums each item's median time over the
passes; `peak_rss_mb` and `setup_s` are medians over passes.

Times are scaled to a reference host speed.  The speed of the host this was
written on drifts by a quarter over tens of seconds, which no number of
passes in a run averages away.  So the worker times a fixed piece of work
(`worker.reference_seconds`) between items, and each time is multiplied by
`workloads.REFERENCE_S` over the mean of the probes around it.  An item
that hits the cap counts as the cap itself (`workloads.ITEM_CAP_S`).

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of traced passes, interleaved
with untraced passes for `trace.overhead_frac`.  Either way every item's
answer is checked against `golden/` or against its plant, and traced and
untraced passes must give byte-identical answers.  Exit status is 0 when a
result line was printed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402

MIN_PASSES = 3
# Set-up is sampled in extra set-up-only interpreters too, spread over the
# run: up to SETUP_SAMPLES_PER_PASS after each pass, MIN_SETUP_SAMPLES in all.
MIN_SETUP_SAMPLES = 15
SETUP_SAMPLES_PER_PASS = 3
PASS_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def spawn_pass(workload: str, seed: int, mode: str) -> tuple[list[dict], dict]:
    """Run one worker pass; returns (per-item records, summary)."""
    cmd = [
        sys.executable, "-I", "-S", str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} exceeded {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}")
    records = [json.loads(line) for line in lines]
    return records[:-1], records[-1]


class Checker:
    """Classifies item answers against the golden outputs and the plants."""

    def __init__(self, workload: str, seed: int):
        self.golden = workloads.load_golden(workload)
        # Only construct has plants; its items are made without rostcalc.
        items = workloads.make_items(workload, seed) if workload == "construct" else ()
        self.plants = {item.key: item.payload for item in items if item.kind == "planted"}
        self._first: dict[str, tuple[str, str]] = {}  # key -> (text, verdict)
        self.problems: list[str] = []

    def status(self, record: dict) -> str:
        """ok, unchecked, cap, error or mismatch."""
        key, text = record["key"], record["text"]
        if record["status"] != "done":
            return record["status"]
        if key not in self._first:
            self._first[key] = (text, self._judge(key, text))
        first_text, verdict = self._first[key]
        if text != first_text:
            self.problems.append(f"{key}: answer differs between passes")
            return "mismatch"
        return verdict

    def _judge(self, key: str, text: str) -> str:
        if key in self.plants:
            problems = workloads.check_plant(self.plants[key], text)
        elif key not in self.golden:
            problems = ["no golden output for this item"]
        elif self.golden[key] is None:
            return "unchecked"
        else:
            problems = [] if text == self.golden[key] else ["differs from golden output"]
        self.problems.extend(f"{key}: {p}" for p in problems)
        return "mismatch" if problems else "ok"


FAILED = ("cap", "error", "mismatch")


def _time_for_another(pass_s: float, deadline: float) -> bool:
    """Whether a pass as long as the last one ends before the deadline."""
    return time.monotonic() + pass_s <= deadline


class Run:
    """The passes of one benchmark run and what they add up to."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.checker = Checker(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.setup_samples: list[float] = []
        self.item_seconds: dict[str, list[float]] = {}
        self.unfinished: set[str] = set()
        self.passes = 0
        self.last_s = 0.0

    def run(self, mode: str) -> dict:
        """One pass; adds its item times and returns its summary with `wall_s`.

        `last_s` becomes the time the pass took, with its set-up samples.
        """
        start = time.monotonic()
        records, summary = spawn_pass(self.workload, self.seed, mode)
        self.setup_samples.append(
            summary["setup_s"] * workloads.REFERENCE_S / summary["setup_ref_s"]
        )
        if mode == "setup":
            return summary
        if len(records) != summary["items"]:
            raise BenchError(f"{mode} pass reported {len(records)} of {summary['items']} items")
        summary["wall_s"] = 0.0
        for record in records:
            status = self.checker.status(record)
            self.attempted += 1
            self.failed += status in FAILED
            self.incorrect += status in ("error", "mismatch")
            if status not in ("ok", "unchecked"):
                self.unfinished.add(record["key"])
            if status == "cap":
                seconds = workloads.ITEM_CAP_S
            else:
                seconds = record["seconds"] * workloads.REFERENCE_S / record["ref_s"]
            summary["wall_s"] += seconds
            if mode in ("plain", "repeat"):
                self.item_seconds.setdefault(record["key"], []).append(seconds)
        self.passes += 1
        while mode != "traced" and len(self.setup_samples) < min(
            MIN_SETUP_SAMPLES, SETUP_SAMPLES_PER_PASS * self.passes
        ):
            self.run("setup")
        self.last_s = time.monotonic() - start
        return summary

    def item_medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.item_seconds.items()}

    def slowest_item(self) -> tuple[str, float]:
        """The finished item with the largest median time (informational)."""
        finished = {k: t for k, t in self.item_medians().items() if k not in self.unfinished}
        return max(finished.items(), key=lambda kv: kv[1], default=("none", 0.0))

    def end_to_end(self, passes: list[dict]) -> dict[str, float]:
        while len(self.setup_samples) < MIN_SETUP_SAMPLES:
            self.run("setup")
        return {
            "wall_s": sum(self.item_medians().values()),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(self.setup_samples),
        }


def check_coverage(summary: dict, items: int) -> list[str]:
    """Wrapper counts must equal the profiler's count of the original calls."""
    problems = [
        f"{name}: wrapper counted {wrapped} calls, profiler {profiled}"
        for name, (wrapped, profiled) in summary["coverage"].items()
        if wrapped != profiled
    ]
    verified = summary["trace"]["kunneth.verify_theorem.calls"]
    if verified != items:
        problems.append(f"verify_theorem called {verified} times for {items} items")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    bench = Run(workload, seed)
    bench.run("setup")  # warm-up: writes bytecode caches; not measured
    bench.setup_samples.clear()
    deadline = time.monotonic() + seconds
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}"]
    problems: list[str] = []
    if not trace:
        passes = [bench.run("plain")]
        while len(passes) < MIN_PASSES or _time_for_another(bench.last_s, deadline):
            passes.append(bench.run("repeat"))
        values = bench.end_to_end(passes)
        units = END_TO_END
        key, seconds = bench.slowest_item()
        lines.append(f"passes {len(passes)}  setup samples {len(bench.setup_samples)}")
        lines.append(f"slowest finished item (not a metric): {key}  {seconds:.4g} s")
    else:
        # Full passes only, so that every traced pass counts the same work.
        plain, traced = [], []
        if workload == "grid":
            summary = bench.run("coverage")
            problems += check_coverage(summary, summary["items"])
        plain_s = 0.0
        while not traced or _time_for_another(bench.last_s + plain_s, deadline):
            plain.append(bench.run("plain"))
            plain_s = bench.last_s
            traced.append(bench.run("traced"))
        values = {
            name: statistics.median(p["trace"][name] for p in traced)
            for name in traced[0]["trace"]
        }
        values["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain)
            - 1
        )
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        if set(values) != set(units):
            diff = sorted(set(values) ^ set(units))
            raise BenchError(f"traced metrics differ from the declared list: {diff}")
        lines.append(f"plain passes {len(plain)}  traced passes {len(traced)}")
    problems += bench.checker.problems
    for name, unit in units.items():
        lines.append(f"{name:<48} {values[name]:.6g} {unit}")
    lines.append(
        f"failed_frac {bench.failed / bench.attempted:.4f} "
        f"({bench.failed} of {bench.attempted} items: cap, error or wrong answer)"
    )
    result = {
        "correct": bench.incorrect == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    lines += [f"problem: {p}" for p in problems]
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rostcalc" / "__init__.py").is_file():
        print(f"error: no rostcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
