"""The public names and the README's library quick start stay in step with
the package."""

import pathlib
import re
import subprocess
import sys

import hankelpath as hp

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in hp.__all__ if not hasattr(hp, name)]
    assert not missing


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
