"""Every line of the table of pinned outputs (`tests/data/pins.txt`), and
the rules that keep each output pinned once."""

import hashlib
import json

import pytest
from pin_table import ROOT, TABLE, failure, main, read_table, run

DATA = TABLE.parent
PINS = read_table()
REPORT_MAPS = ("offgrid_reports.json", "default_reports.json")


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.path.name)
def test_pinned_output(pin):
    problem = failure(pin)
    assert problem is None, problem


def plant(tmp_path, files, lines):
    """A table of the given lines, under one comment line, beside the given
    files."""
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    table = tmp_path / "planted.txt"
    table.write_text("# planted\n" + "\n".join(lines) + "\n")
    return table


def test_a_planted_line_fails_and_names_itself(tmp_path):
    build = "rostcalc build chow_rost --p 3 --n 2"
    code, out, _ = run(build.split())
    assert code == 0
    table = plant(
        tmp_path,
        {"good.json": out, "off.json": bytes([out[0] ^ 1]) + out[1:], "refuted.json": b"",
         "good.sha256": hashlib.sha256(out).hexdigest().encode() + b"\n"},
        [f"good.json {build}",
         f"off.json {build}",
         # lemma-7.2 on the product image exits 1
         "refuted.json rostcalc verify lemma-7.2 --n 2 --m 1 --image product",
         f"absent.json {build}",
         f"good.sha256 {build}"],
    )
    good, off, refuted, absent, digest = (failure(pin) for pin in read_table(table))
    assert good is None and digest is None
    assert off == f"planted.txt:3: off.json: {build}: the output differs from the file at byte 0"
    assert refuted.startswith("planted.txt:4: refuted.json: rostcalc verify lemma-7.2 ")
    assert ": exited 1" in refuted
    assert absent == f"planted.txt:5: absent.json: {build}: the file is missing"


def test_the_script_entry_names_each_failing_line(tmp_path, capsys):
    # the CI line: script commands run in a subprocess, as under the installed package
    tables = "scripts/slot_tables.py chow_rost --p 3 --n 2"
    code, out, _ = run(tables.split())
    assert code == 0
    table = plant(
        tmp_path,
        {"good.txt": out, "off.txt": out + b"\n", "usage.txt": b""},
        [f"good.txt {tables}",
         f"off.txt {tables}",
         "usage.txt scripts/slot_tables.py chow_rost --p 3"],
    )
    assert main(table) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"planted.txt:3: off.txt: {tables}: the output differs from the file at byte {len(out)}",
        "planted.txt:4: usage.txt: scripts/slot_tables.py chow_rost --p 3: exited 2: "
        "error: chow_rost requires parameter 'n'",
    ]
    (tmp_path / "off.txt").write_bytes(out)
    (tmp_path / "usage.txt").unlink()
    table.write_text(f"good.txt {tables}\noff.txt {tables}\n")
    assert main(table) == 0


def test_a_line_that_is_not_a_pin_is_refused(tmp_path):
    for line in ("only_a_file.json", "x.json python -c 1"):
        table = plant(tmp_path, {}, [line])
        with pytest.raises(ValueError, match="planted.txt:2: not a file and a rostcalc"):
            read_table(table)


def test_every_data_file_is_named_by_the_table_or_a_test():
    named = {pin.path.name for pin in PINS}
    tests = "".join(path.read_text() for path in (ROOT / "tests").glob("*.py"))
    assert [p.name for p in sorted(DATA.iterdir()) if p.name not in named and p.name not in tests] == []


def test_each_output_is_pinned_once():
    assert len({pin.path for pin in PINS}) == len({pin.argv for pin in PINS}) == len(PINS)
    # a table file, or a report of a report map as `rostcalc verify` prints it,
    # keyed by the sha256 of its bytes
    seen = {}
    for pin in PINS:
        data = pin.path.read_bytes()
        digest = data.decode().strip() if pin.path.suffix == ".sha256" else hashlib.sha256(data).hexdigest()
        seen.setdefault(digest, []).append(pin.path.name)
    for name in REPORT_MAPS:
        for key, text in json.loads((DATA / name).read_text()).items():
            if isinstance(text, str):
                digest = hashlib.sha256(text.encode() + b"\n").hexdigest()
                seen.setdefault(digest, []).append(f"{name} {key}")
    assert [names for names in seen.values() if len(names) > 1] == []
