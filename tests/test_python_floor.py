"""The package runs on the oldest Python that pyproject.toml declares.

The suite itself runs on a newer interpreter, so this finds one of the
declared floor version and runs tests/floor_smoke.py under it.
"""

import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
ROOT = TESTS.parent
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    ).groups()
)


def floor_interpreter() -> str | None:
    """python<floor> on PATH, else $PYENV_ROOT (default ~/.pyenv)
    /versions/<floor>.*/bin/python: the first that runs and reports the floor."""
    version = "%d.%d" % FLOOR
    pyenv_root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which(f"python{version}")]
    candidates += [str(p) for p in sorted(pyenv_root.glob(f"versions/{version}.*/bin/python"))]
    for candidate in filter(None, candidates):
        try:
            probe = subprocess.run(
                [candidate, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return candidate
    return None


def test_pipeline_runs_on_the_declared_floor(tmp_path):
    python = floor_interpreter()
    if python is None:
        pytest.skip("no Python %d.%d interpreter runs here (PATH or $PYENV_ROOT/versions)" % FLOOR)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [python, str(TESTS / "floor_smoke.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, f"{python}:\n{result.stdout}{result.stderr}"
    assert result.stdout.strip().endswith("ok")
