"""The scripts under scripts/ run to completion and print what they printed
when their output was pinned."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# SHA-256 of each script's stdout.
SCRIPT_STDOUT = [
    ("derive_step_table.py",
     "2b107310c9d059a4cb313cd934d7d65a45fed445fb12d08515025ccc416f14f0"),
    ("worlds_summary.py",
     "2ec4216e94613e445fceae5c2c5d1f70b72a1250e554c6cdc280b6025be00650"),
]


@pytest.mark.parametrize("name, digest", SCRIPT_STDOUT, ids=[n for n, _ in SCRIPT_STDOUT])
def test_script_stdout(capsys, name, digest):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
