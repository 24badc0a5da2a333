import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
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


@pytest.fixture
def mellin_split():
    """Lambda(f, s) from the Mellin integral of f(iy) y^s dy/y cut at y = t,
    the part below t folded by f(i/y) = (-1)^(r/2) y^r f(iy):
    sum over the stored a(n) of (2 pi n)^-s Gamma(s, 2 pi n t)
    + (-1)^(r/2) (2 pi n)^(s-r) Gamma(r-s, 2 pi n/t).  At t = 1 that is the
    symmetric series of g1_modforms.lambda_values; at any other t it equals
    Lambda(f, s) only when f is modular of weight r, so comparing the two
    at t != 1 checks the coefficients.  An mpmath float at the caller's
    precision; the Decimal coefficients enter through their digits."""

    def split(f, s, t):
        r = f.weight
        acc = mp.mpf(0)
        for n in range(1, f.prec):
            x = 2 * mp.pi * n
            acc += mp.mpf(str(f.embed_coeff(n))) * (
                x ** -s * mp.gammainc(s, x * t)
                + (-1) ** (r // 2) * x ** (s - r) * mp.gammainc(r - s, x / t)
            )
        return acc

    return split
