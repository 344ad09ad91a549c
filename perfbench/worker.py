"""One pass of one workload, in a fresh interpreter.

    python3 -I -S perfbench/worker.py --workload grid --seed 1 --mode plain

Modes: `setup` only imports rostcalc and makes the items; `plain` also runs
them; `repeat` runs all but the items in `workloads.RUN_ONCE`; `traced` runs
them all with every layer function wrapped; `coverage` is `traced` plus an
independent count of the calls into each wrapped function.

Stdout carries one JSON line per item (key, seconds, the speed probe
`ref_s` around it, status, canonical answer text), then one summary line.
The caller checks answers and scales times.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

import workloads  # noqa: E402
from workloads import ItemCapped, canonical_text, execute, item_cap  # noqa: E402

MODES = ("setup", "plain", "repeat", "traced", "coverage")
CALIBRATE_EVERY_S = 0.5


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _call_counter(tracer):
    """A profile hook counting entries into the original, unwrapped functions."""
    by_code = {orig.__code__: name for name, orig in tracer.originals.items()}
    counts = dict.fromkeys(tracer.originals, 0)

    def hook(frame, event, arg):
        if event == "call":
            name = by_code.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    return hook, counts


_BIG_A = 3**15000 + 17
_BIG_B = 5**12000 + 3


def _probe_once() -> float:
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(12000):
        k = i % 97
        table[k] = table.get(k, 0) + i * 31 % 1009
        acc += (i * i) >> 3
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i)
    x = _BIG_A
    for _ in range(8):
        x = (x * _BIG_B) >> 27800
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Time a fixed piece of work: a measure of the host's current speed.

    The host's CPU speed drifts by a quarter over tens of seconds.  Item
    times are reported together with this probe, taken between items, so
    that the caller can scale them to a fixed reference speed.  The work
    mixes interpreter, dict, `Fraction` and big-integer arithmetic, as
    rostcalc does; the median of three runs resists a short stall.
    """
    return statistics.median(_probe_once() for _ in range(3))


def _run_item(item, tracer, ref_s: float) -> dict:
    clock = time.perf_counter
    text = None
    cap_s = workloads.ITEM_CAP_S * max(1.0, ref_s / workloads.REFERENCE_S)
    start = clock()
    try:
        with item_cap(cap_s):
            answer = execute(item)
        seconds = clock() - start
        status = "done"
    except ItemCapped:
        seconds = clock() - start
        status = "cap"
    except Exception:  # one broken item must not stop the pass
        seconds = clock() - start
        status = "error"
        print(f"error in {item.key}:", file=sys.stderr)
        traceback.print_exc()
    if tracer is not None:
        tracer.reset_stack()
    if status == "done":
        text = canonical_text(item, answer)
    return {"key": item.key, "seconds": seconds, "status": status, "text": text}


def run_pass(workload: str, seed: int, mode: str) -> int:
    clock = time.perf_counter
    reference_seconds()  # warm-up
    ref_before = reference_seconds()
    t0 = clock()
    import rostcalc.cli

    items = workloads.make_items(workload, seed)
    setup_s = clock() - t0
    ref = reference_seconds()
    setup_ref_s = (ref_before + ref) / 2
    if mode == "repeat":
        items = [item for item in items if item.key not in workloads.RUN_ONCE]
    if not Path(rostcalc.cli.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"error: rostcalc imported from {rostcalc.cli.__file__}", file=sys.stderr)
        return 2

    tracer = counts = None
    if mode in ("traced", "coverage"):
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.check_no_bypass()
        if mode == "coverage":
            hook, counts = _call_counter(tracer)
            sys.setprofile(hook)

    # Items are emitted in batches of at least CALIBRATE_EVERY_S, each item
    # with the mean of the speed probes taken just before and after its batch.
    pending: list[dict] = []
    for k, item in enumerate(items if mode != "setup" else ()):
        pending.append(_run_item(item, tracer, ref))
        if k + 1 < len(items) and sum(r["seconds"] for r in pending) < CALIBRATE_EVERY_S:
            continue
        ref_after = reference_seconds()
        for record in pending:
            record["ref_s"] = (ref + ref_after) / 2
            _emit(record)
        pending, ref = [], ref_after

    sys.setprofile(None)
    summary = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": len(items),
    }
    if tracer is not None:
        summary["trace"] = tracer.metrics()
    if counts is not None:
        summary["coverage"] = {
            name: [tracer.calls[name], counts[name]] for name in tracer.originals
        }
    _emit(summary)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=MODES, default="plain")
    args = ap.parse_args(argv)
    return run_pass(args.workload, args.seed, args.mode)


if __name__ == "__main__":
    sys.exit(main())
