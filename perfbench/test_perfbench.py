"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Item, ItemCapped, canonical_text, execute, item_cap  # noqa: E402


@pytest.mark.parametrize("seed", range(4))
def test_planted_normal_form_and_membership_match_the_plant(seed):
    rng = random.Random(seed)
    for p, gens in ((2, 6), (3, 7), (5, 8), (3, 10)):
        plant = workloads.make_plant(rng, p, gens)
        item = Item("planted", "planted", plant)
        assert workloads.check_plant(plant, canonical_text(item, execute(item))) == []


def test_a_wrong_planted_answer_is_reported():
    plant = workloads.make_plant(random.Random(7), 3, 8)
    item = Item("planted", "planted", plant)
    answer = json.loads(canonical_text(item, execute(item)))
    answer["normal_form"]["degrees"][str(plant.degree)]["free"] += 1
    answer["outside"] = answer["inside"]
    problems = workloads.check_plant(plant, json.dumps(answer))
    assert len(problems) == 2


def test_same_seed_same_items_other_seed_other_items():
    for workload in workloads.WORKLOADS:
        assert workloads.make_items(workload, 3) == workloads.make_items(workload, 3)
    for workload in ("grid", "construct"):
        assert workloads.make_items(workload, 3) != workloads.make_items(workload, 4)
    grid = workloads.make_items("grid", 5)
    assert len(grid) == 52 and len({i.key for i in grid}) == 52
    one, two = (
        [i.payload for i in workloads.make_items("construct", s) if i.kind == "planted"]
        for s in (1, 2)
    )
    assert one != two


def test_cap_interrupts_a_pure_python_loop():
    start = time.perf_counter()
    with pytest.raises(ItemCapped):
        with item_cap(0.2):
            while True:
                pass
    assert time.perf_counter() - start < 2


def test_cap_stops_the_unbounded_minor_enumeration():
    item = Item("km", "cli", ("build", "km_rost", "--p", "5", "--n", "4", "--m", "1"))
    with pytest.raises(ItemCapped):
        with item_cap(0.5):
            execute(item)


def test_a_corrupted_golden_counts_as_failed(monkeypatch):
    golden = workloads.load_golden("grid")
    key = sorted(golden)[0]
    golden[key] = golden[key].replace("verified", "refuted")
    monkeypatch.setattr(workloads, "load_golden", lambda workload: golden)
    bench = run.Run("grid", 0)
    bench.run("plain")
    assert bench.failed == 1 and bench.incorrect == 1 and bench.attempted == 52
    assert bench.checker.problems == [f"{key}: differs from golden output"]


def test_a_capped_item_counts_as_failed_but_not_as_wrong(monkeypatch):
    golden = workloads.load_golden("frontier")
    key = sorted(golden)[0]
    ref = workloads.REFERENCE_S
    records = [
        {"key": "capped", "seconds": 9.0, "ref_s": 2 * ref, "status": "cap", "text": None},
        {"key": key, "seconds": 1.0, "ref_s": 2 * ref, "status": "done", "text": golden[key]},
    ]
    summary = {"setup_s": 0.01, "setup_ref_s": ref, "peak_rss_mb": 20.0, "items": 2}
    monkeypatch.setattr(run, "spawn_pass", lambda *a: (records, summary))
    bench = run.Run("frontier", 0)
    passes = [bench.run("plain"), bench.run("plain")]
    assert (bench.attempted, bench.failed, bench.incorrect) == (4, 2, 0)
    values = bench.end_to_end(passes)
    # The finished item is scaled to the reference speed; the capped one
    # counts as the cap.
    assert values["wall_s"] == workloads.ITEM_CAP_S + 0.5
    assert bench.slowest_item() == (key, 0.5)


def test_traced_counts_match_the_profiler_and_answers_match_untraced():
    plain, _ = run.spawn_pass("grid", 2, "plain")
    traced, summary = run.spawn_pass("grid", 2, "coverage")
    assert run.check_coverage(summary, 52) == []
    assert summary["trace"]["kunneth.verify_theorem.calls"] == 52
    assert [r["text"] for r in traced] == [r["text"] for r in plain]


def test_a_binding_the_tracer_missed_fails_loudly():
    script = (
        f"import sys; sys.path[:0] = [{str(BENCH_DIR.parent / 'src')!r}, {str(BENCH_DIR)!r}]\n"
        "import rostcalc.cli, rostcalc.kunneth as k\n"
        "from layers import Tracer, TraceError\n"
        "k._hidden = {'solve': k.membership}\n"
        "t = Tracer(); t.install()\n"
        "try:\n    t.check_no_bypass()\nexcept TraceError as e:\n    print('caught', e)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("caught exact_linalg.membership")
