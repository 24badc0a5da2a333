import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from siegelforms.census import set_cache_dir

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def golden_cache(tmp_path):
    """A cache directory holding copies of the tracked .census_cache files
    (q = 11, 13 and their squares), set as the census cache for the test."""
    cache = tmp_path / "cache"
    cache.mkdir()
    for path in (ROOT / ".census_cache").glob("*.json"):
        shutil.copyfile(path, cache / path.name)
    set_cache_dir(cache)
    yield cache
    set_cache_dir(None)


@pytest.fixture
def run_optimized():
    """Runs a script under python -O, where assert statements are stripped,
    with this checkout's src/ first on the path; returns the finished
    process.  The script exits at once if asserts are still on."""

    def run(script: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        guard = 'if __debug__:\n    raise SystemExit("not running under -O")\n'
        return subprocess.run(
            [sys.executable, "-O", "-c", guard + script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    return run
