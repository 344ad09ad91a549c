"""Command-line behavior: verbs, exit codes, deterministic output."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rostcalc import catalog, kunneth
from rostcalc.cli import main
from rostcalc.kunneth import CLAIMS, default_grid, verify_theorem

DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_catalog_and_theorems(capsys):
    code, out, _ = run(capsys, "list")
    data = json.loads(out)
    assert code == 0
    assert "chow_rost" in data["catalog"]
    assert "thm-1.1" in data["theorems"]


def test_list_prints_the_claim_table(capsys):
    code, out, _ = run(capsys, "list", "--format", "text")
    assert code == 0
    assert out.split("theorems:\n", 1)[1].split() == list(CLAIMS)


def test_build_json_and_text(capsys):
    code, out, _ = run(capsys, "build", "chow_rost", "--p", "3", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["degrees"]["8"] == {"free": 1, "torsion": []}
    code, out, _ = run(
        capsys, "build", "chow_rost", "--p", "3", "--n", "2", "--format", "text"
    )
    assert code == 0
    assert "degree 8: Z" in out


def test_build_km_rost_bundles_three_views(capsys):
    code, out, _ = run(capsys, "build", "km_rost", "--p", "2", "--n", "3", "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"to_chow", "gr_geometric", "localized"}
    assert data["localized"]["free_rank"] == 2


def test_build_missing_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "build", "chow_rost")
    assert code == 2
    assert "requires parameter" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "thm-1.1", "--p", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "verified"
    code, _, err = run(capsys, "verify", "thm-1.1", "--p", "7")
    assert code == 2
    assert "{2, 3, 5}" in err
    code, _, _ = run(capsys, "verify", "lemma-7.2", "--n", "2", "--m", "1", "--image", "none")
    assert code == 3
    code, _, _ = run(
        capsys, "verify", "lemma-7.2", "--n", "2", "--m", "1", "--image", "product"
    )
    assert code == 1


def test_verify_rejects_flags_the_claim_does_not_read(capsys):
    # n is fixed at 2 in thm-1.1; a report about n=2 would not answer --n 5
    code, out, err = run(capsys, "verify", "thm-1.1", "--p", "3", "--n", "5")
    assert (code, out) == (2, "")
    assert "--n" in err and "--p" not in err.split(";")[0]
    code, out, err = run(capsys, "verify", "cor-3.6", "--p", "3", "--n", "7", "--m", "4")
    assert (code, out) == (2, "")
    assert "--n, --m" in err
    code, _, err = run(capsys, "verify", "thm-1.1", "--p", "3", "--image", "versal")
    assert code == 2 and "--image" in err
    # every flag a claim reads is accepted
    code, _, _ = run(capsys, "verify", "cor-7.3", "--n", "3", "--m", "1", "--s", "2",
                     "--p", "2", "--image", "versal")
    assert code == 0


def test_verify_rejects_a_prime_that_is_not_one(capsys):
    # p = 1 would check no identity at all and still print "verified"
    for p in ("4", "1"):
        code, out, err = run(capsys, "verify", "lemma-3.2", "--p", p, "--n", "3")
        assert (code, out) == (2, "")
        assert f"p={p} must be prime" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("cor-4.2", "--p", "3", "--n", "2", "--m", "0"),
        ("remark-4.2-negative", "--p", "3", "--n", "2", "--m", "0"),
        ("cor-4.2", "--p", "2", "--n", "1"),
        ("cor-4.2", "--p", "3", "--n", "2", "--m", "5"),
        ("remark-4.2-negative", "--p", "2", "--n", "2", "--m", "4"),
    ],
)
def test_verify_rejects_objects_without_the_class_c_m(argv, capsys):
    # m = 0 divided by deg v_0 = 0; the others printed "verified" for factors
    # that carry no class c_m
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_catalog_verbs_reject_flags_no_entry_reads(capsys):
    code, out, err = run(capsys, "build", "chow_rost", "--p", "3", "--n", "2", "--m", "5")
    assert (code, out) == (2, "")
    assert "chow_rost does not read --m; it reads --p, --n" in err
    code, out, err = run(
        capsys, "quotient", "chow_rost", "--p", "3", "--n", "2", "--s", "2", "--kill", "c_1(y)"
    )
    assert (code, out) == (2, "")
    assert "--s" in err
    code, out, err = run(
        capsys, "tensor", "chow_rost", "bar_rost", "--p", "3", "--n", "2", "--d", "4"
    )
    assert (code, out) == (2, "")
    assert "neither chow_rost nor bar_rost reads --d" in err
    # a flag one side reads goes to that side only
    code, out, _ = run(
        capsys, "tensor", "gr_m_rost", "chow_rost", "--p", "3", "--n", "2", "--m", "1"
    )
    assert code == 0
    assert json.loads(out)["degrees"]["2"] == {"free": 0, "torsion": [1, 1]}


def test_verify_unknown_id_fails_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-9.9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("id_", ["omega_image_rost", "km_rost"])
def test_ring_verbs_offer_only_entries_with_a_ring(id_, capsys):
    # neither entry carries a ring, so argparse refuses them as choices
    for argv in (["tensor", id_, "chow_rost"], ["tensor", "chow_rost", id_], ["quotient", id_]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--p", "2", "--n", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    # build still renders both
    extra = ["--m", "1"] if id_ == "km_rost" else []
    code, out, _ = run(capsys, "build", id_, "--p", "2", "--n", "2", *extra)
    assert code == 0 and out


def test_verify_report_round_trips(capsys):
    _, out, _ = run(capsys, "verify", "lemma-4.1", "--p", "2", "--n1", "2", "--n2", "2", "--m", "1")
    data = json.loads(out)
    assert data["id"] == "lemma-4.1"
    assert data["verdict"] == "verified"
    params = {"p": 2, "n1": 2, "n2": 2, "m": 1}
    assert data == verify_theorem("lemma-4.1", params).to_json()


def test_verify_all_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify-all")
    code2, out2, _ = run(capsys, "verify-all")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["summary"]["total"] == len(data["reports"]) == 52
    assert data["summary"]["verified"] == 52
    ids = [r["id"] for r in data["reports"]]
    assert ids[:3] == ["thm-1.1", "thm-1.1", "thm-1.1"]


def test_verify_all_stdout_matches_the_pins(capsys):
    # the text output is pinned whole, the 69 KB JSON by its sha256
    _, text, _ = run(capsys, "verify-all", "--format", "text")
    assert text == (DATA / "verify_all.txt").read_text()
    _, out, _ = run(capsys, "verify-all", "--format", "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == (DATA / "verify_all_json.sha256").read_text().strip()


RING_CACHES = (
    catalog.tower_ring,
    catalog._chow_rost_ring,
    catalog._gr_m_rost_ring,
    kunneth.tilde_slots,
)


def test_verify_all_with_warm_word_rings_gives_the_same_bytes(capsys):
    # the second run reads every Kunneth word ring, catalog ring and slot
    # table from the per-process caches
    _, cold, _ = run(capsys, "verify-all")
    built = kunneth._word_ring.cache_info()
    assert built.currsize == 7
    rings = [f.cache_info() for f in RING_CACHES]
    _, warm, _ = run(capsys, "verify-all")
    after = kunneth._word_ring.cache_info()
    assert (after.misses, after.currsize) == (built.misses, built.currsize)
    assert after.hits > built.hits
    for f, before in zip(RING_CACHES, rings):
        assert f.cache_info().misses == before.misses, f.__qualname__
    assert warm == cold


def test_grid_reports_do_not_depend_on_the_order_they_run_in(fresh_caches):
    # the shared rings are read-only: a warm run in reverse order gives every
    # report the bytes of a cold run in forward order
    grid = default_grid()
    forward = [json.dumps(verify_theorem(id_, params).to_json()) for id_, params in grid]
    fresh_caches()
    backward = [json.dumps(verify_theorem(id_, params).to_json()) for id_, params in grid[::-1]]
    assert backward[::-1] == forward


def test_verify_all_only_matches_the_full_run(capsys):
    for fmt in ("json", "text"):
        _, full, _ = run(capsys, "verify-all", "--format", fmt)
        code, only, err = run(capsys, "verify-all", "--only", "cor-1.3", "--format", fmt)
        assert code == 0
        if fmt == "text":
            assert only.splitlines() == [
                line for line in full.splitlines() if line.startswith("cor-1.3 ")
            ]
        else:
            full_reports = json.loads(full)["reports"]
            data = json.loads(only)
            assert data["summary"]["total"] == 4
            assert data["reports"] == [r for r in full_reports if r["id"] == "cor-1.3"]
            # each report's bytes, as the full run renders them
            for r in data["reports"]:
                text = json.dumps(r, sort_keys=True, indent=2).replace("\n", "\n    ")
                assert text in full
        # one wall time per report and the total go to stderr, not stdout
        assert len(err.splitlines()) == 5
        assert all(" s  " in line for line in err.splitlines())
        assert " s  " not in only


def test_verify_all_only_unknown_id_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--only", "thm-9.9"])
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "cor-3.6", "--p", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["id"] == "cor-3.6"


@pytest.mark.parametrize("argv", [["verify", "cor-4.2", "--p", "2"], ["list"]])
def test_an_out_file_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 would read as a refutation of a claim that verifies
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()


def test_tensor_and_quotient_verbs(capsys):
    code, out, _ = run(
        capsys, "tensor", "chow_rost", "chow_rost", "--p", "2", "--n", "2"
    )
    assert code == 0
    assert json.loads(out)["degrees"]["6"] == {"free": 1, "torsion": []}
    code, out, _ = run(
        capsys, "quotient", "chow_rost", "--p", "2", "--n", "2", "--kill", "c_1(y)"
    )
    assert code == 0
    assert json.loads(out)["degrees"] == {
        "0": {"free": 1, "torsion": []},
        "3": {"free": 1, "torsion": []},
    }
    code, _, err = run(
        capsys, "quotient", "chow_rost", "--p", "2", "--n", "2", "--kill", "zz"
    )
    assert code == 2
    assert "no generator" in err


def test_tensor_pfister_neighbor_chow_n4_pinned(capsys):
    code, out, _ = run(capsys, "tensor", "pfister_neighbor_chow", "pfister_neighbor_chow", "--n", "4")
    assert code == 0
    assert out == (DATA / "tensor_pfister_neighbor_chow_n4.json").read_text()


def test_tensor_pfister_neighbor_chow_n5_pinned(capsys):
    # `normalize` reads a module of 186 generators and 124 relations
    code, out, _ = run(capsys, "tensor", "pfister_neighbor_chow", "pfister_neighbor_chow", "--n", "5")
    assert code == 0
    assert out == (DATA / "tensor_pfister_neighbor_chow_n5.json").read_text()


def test_build_excellent_quadric_chow_text_pinned(capsys):
    code, out, _ = run(
        capsys, "build", "excellent_quadric_chow", "--n", "2", "--d", "5", "--di", "3", "--format", "text"
    )
    assert code == 0
    assert out == (DATA / "build_excellent_quadric_chow_n2_d5_di3.txt").read_text()


def test_tensor_gr_m_rost_chow_rost_p3_pinned(capsys):
    code, out, _ = run(capsys, "tensor", "gr_m_rost", "chow_rost", "--p", "3", "--n", "3", "--m", "1")
    assert code == 0
    assert out == (DATA / "tensor_gr_m_rost_chow_rost_p3_n3_m1.json").read_text()


def test_build_omega_image_rost_p3_n5_pinned(capsys):
    # the largest Rost image the suite collapses (top degree 242)
    code, out, _ = run(capsys, "build", "omega_image_rost", "--p", "3", "--n", "5")
    assert code == 0
    assert out == (DATA / "build_omega_image_rost_p3_n5.json").read_text()


def test_build_omega_image_rost_p2_n7_pinned(capsys):
    # top degree 127; recorded before the column index and the shared factorisations
    code, out, _ = run(capsys, "build", "omega_image_rost", "--p", "2", "--n", "7")
    assert code == 0
    assert out == (DATA / "build_omega_image_rost_p2_n7.json").read_text()


def test_build_km_rost_p3_n2_m2_pinned(capsys):
    # m >= n: M[v^-1] carries torsion in degree classes 2 and 6
    code, out, _ = run(capsys, "build", "km_rost", "--p", "3", "--n", "2", "--m", "2")
    assert code == 0
    assert out == (DATA / "build_km_rost_p3_n2_m2.json").read_text()


@pytest.mark.parametrize("pin, argv", [
    ("verify_thm-5.5-torsion-square_n8.json", "thm-5.5-torsion-square --n 8"),
    ("verify_cor-1.3_p3_s6.json", "cor-1.3 --p 3 --s 6"),
    ("verify_cor-1.3_p7_s4.json", "cor-1.3 --p 7 --s 4"),
    ("verify_cor-1.3_p5_s5.json", "cor-1.3 --p 5 --s 5"),
    ("verify_lemma-4.1_p3_n12_n23.json", "lemma-4.1 --p 3 --n1 2 --n2 3"),
    ("verify_thm-5.7-torsion-square_n3_di4-2.json", "thm-5.7-torsion-square --n 3 --di 4,2"),
])
def test_verify_reports_on_word_read_rings_pinned(capsys, pin, argv):
    # each audits rings, and so reads every class of them off its word
    code, out, _ = run(capsys, "verify", *argv.split())
    assert code == 0
    assert out == (DATA / pin).read_text()


@pytest.mark.parametrize("pin, argv", [
    ("verify_cor-7.3_s3.json", "cor-7.3 --s 3"),
    ("verify_remark-4.2-negative_p17.json", "remark-4.2-negative --p 17"),
    ("verify_cor-4.2_p17.json", "cor-4.2 --p 17"),
    ("verify_cor-3.5_p3_n3_m2.json", "cor-3.5 --p 3 --n 3 --m 2"),
])
def test_verify_reports_off_the_grid_pinned(capsys, pin, argv):
    # CI diffs these too: each reaches chow_rost_ring or bar_rost_ring at
    # parameters the verify-all grid does not use
    code, out, _ = run(capsys, "verify", *argv.split())
    assert code == 0
    assert out == (DATA / pin).read_text()


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "rostcalc.cli", "list"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "excellent_quadric_chow" in proc.stdout


ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the package's records are plain classes (rostcalc.record), so a
    # one-shot CLI call does not load the dataclass machinery
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rostcalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_readme_cli_examples_run(capsys):
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("rostcalc ")]
    assert len(lines) >= 9
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        assert out


def run_slot_tables(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "slot_tables.py"), *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def test_slot_tables_script_runs():
    proc = run_slot_tables("gr_m_pfister", "--n", "3", "--m", "1", "--depth", "1")
    assert proc.returncode == 0, proc.stderr
    assert "degree  13: Z" in proc.stdout
    assert "slot 1:" in proc.stdout


def test_slot_tables_script_output_is_pinned():
    # the degree table and every slot value, byte for byte
    proc = run_slot_tables("gr_m_pfister", "--n", "3", "--m", "1", "--depth", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "slot_tables_gr_m_pfister_n3_m1_depth2.txt").read_text()


def test_slot_tables_script_takes_the_cli_flags():
    # --s is the claims' factor count, as in the CLI, which chow_rost does not read
    proc = run_slot_tables("chow_rost", "--p", "3", "--n", "2", "--s", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: chow_rost does not read --s; it reads --p, --n\n"
    # a parameter the builder has no default for is not filled in
    proc = run_slot_tables("chow_rost", "--p", "3")
    assert (proc.returncode, proc.stderr) == (2, "error: chow_rost requires parameter 'n'\n")


@pytest.mark.parametrize("id_", ["omega_image_rost", "km_rost"])
def test_slot_tables_script_names_an_entry_without_a_ring(id_):
    # one line that points to the verb that renders the entry, no traceback
    proc = run_slot_tables(id_)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error: {id_} has no ring, so no degree table; use `rostcalc build {id_}`"
    ]
