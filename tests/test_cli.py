"""Command-line behavior: verbs, exit codes, deterministic output."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from pin_table import ROOT, SCRIPT
from pin_table import run as run_pinned

from rostcalc import catalog, kunneth
from rostcalc.catalog import chow_rost_ring
from rostcalc.cli import main
from rostcalc.graded import iso_equal, normalize
from rostcalc.kunneth import CLAIMS, default_grid, verify_theorem
from rostcalc.omega import OmegaImageModel, chow_collapse

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


def test_build_omega_image_rost_p3_n7_pin_is_the_stated_chow_ring():
    stated = chow_rost_ring(3, 7)
    assert iso_equal(chow_collapse(OmegaImageModel(3, (7,))).module(), stated.module())
    text = json.dumps(normalize(stated.module()).to_json(), sort_keys=True, indent=2) + "\n"
    assert text == (DATA / "build_omega_image_rost_p3_n7.json").read_text()


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "rostcalc.cli", "list"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "excellent_quadric_chow" in proc.stdout


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


# scripts/slot_tables.py runs in a subprocess on src/, through the reader of
# the table of pinned outputs: run((SCRIPT, *argv)) is (exit code, stdout, stderr)


def test_slot_tables_script_runs():
    code, out, err = run_pinned((SCRIPT, "gr_m_pfister", "--n", "3", "--m", "1", "--depth", "1"))
    assert code == 0, err
    assert b"degree  13: Z" in out
    assert b"slot 1:" in out


def test_slot_tables_script_takes_the_cli_flags():
    # --s is the claims' factor count, as in the CLI, which chow_rost does not read
    code, out, err = run_pinned((SCRIPT, "chow_rost", "--p", "3", "--n", "2", "--s", "2"))
    assert (code, out) == (2, b"")
    assert err == "error: chow_rost does not read --s; it reads --p, --n\n"
    # a parameter the builder has no default for is not filled in
    code, _, err = run_pinned((SCRIPT, "chow_rost", "--p", "3"))
    assert (code, err) == (2, "error: chow_rost requires parameter 'n'\n")


@pytest.mark.parametrize("id_", ["omega_image_rost", "km_rost"])
def test_slot_tables_script_names_an_entry_without_a_ring(id_):
    # one line that points to the verb that renders the entry, no traceback
    code, out, err = run_pinned((SCRIPT, id_))
    assert (code, out) == (2, b"")
    assert err.splitlines() == [
        f"error: {id_} has no ring, so no degree table; use `rostcalc build {id_}`"
    ]
