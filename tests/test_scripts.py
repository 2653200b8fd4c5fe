"""The scripts under scripts/ run to completion and print what they printed
when their output was pinned, and report a failed check as a FAIL line."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from counterpoint import model_tables, worlds

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# SHA-256 of each script's stdout.
SCRIPT_STDOUT = [
    ("derive_step_table.py",
     "2b107310c9d059a4cb313cd934d7d65a45fed445fb12d08515025ccc416f14f0"),
]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, digest", SCRIPT_STDOUT, ids=[n for n, _ in SCRIPT_STDOUT])
def test_script_stdout(capsys, name, digest):
    assert load_script(name).main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _one_class_changed(table: tuple) -> tuple:
    """The class table with class (0, 0, 0) moved from 4 symmetries to 2."""
    first, *rest = table
    assert first[0] == 4
    return (b"\x02" + first[1:], *rest)


@pytest.mark.parametrize("module, fail", [
    (model_tables, "FAIL: rebuilt table differs from frozen table on 1 cells"),
    (worlds, "FAIL: mystic world failed its calibration gate: histogram "),
], ids=["frozen-class-changed", "mystic-gate-fails"])
def test_derive_step_table_prints_a_failed_check(capsys, monkeypatch, module, fail):
    monkeypatch.setattr(module, "MYSTIC_STEP_TABLE", _one_class_changed(module.MYSTIC_STEP_TABLE))
    assert load_script("derive_step_table.py").main() == 1
    out, err = capsys.readouterr()
    fails = [line for line in out.splitlines() if line.startswith("FAIL: ")]
    assert len(fails) == 1 and fails[0].startswith(fail)
    assert "Traceback" not in out + err
