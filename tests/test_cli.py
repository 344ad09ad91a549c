"""Command-line behavior: verbs, exit codes, deterministic output."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rostcalc.cli import main
from rostcalc.kunneth import CLAIMS
from rostcalc.report import TheoremReport


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
    report = TheoremReport.from_json(json.loads(out))
    assert report.id == "lemma-4.1"
    assert report.verdict == "verified"
    assert report.to_json() == json.loads(out)


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


def test_readme_cli_examples_run(capsys):
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("rostcalc ")]
    assert len(lines) >= 9
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        assert out


def test_slot_tables_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "slot_tables.py"), "gr_m_pfister",
         "--n", "3", "--m", "1", "--s", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "degree  13: Z" in proc.stdout
    assert "slot 1:" in proc.stdout
