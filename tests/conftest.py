import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from siegelforms.census import set_cache_dir
from siegelforms.exact_arith import QuadElem
from siegelforms.g1_modforms import _critical_entries

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


def _embed(v, plus=True):
    """A rational or a QuadElem a + b sqrt(D) as an mpmath float at the
    caller's precision, with sqrt(D) > 0 (plus) or < 0."""
    if not isinstance(v, QuadElem):
        return mp.mpf(v.numerator) / v.denominator
    b = mp.mpf(v.b.numerator) / v.b.denominator * mp.sqrt(v.disc)
    return mp.mpf(v.a.numerator) / v.a.denominator + (b if plus else -b)


@pytest.fixture
def embed():
    """_embed: a coefficient as an mpmath float, sqrt(D) of either sign."""
    return _embed


@pytest.fixture
def mellin_split():
    """Lambda(f, s) from the Mellin integral of f(iy) y^s dy/y cut at y = t,
    the part below t folded by f(i/y) = (-1)^(r/2) y^r f(iy):
    sum over the stored a(n) of (2 pi n)^-s Gamma(s, 2 pi n t)
    + (-1)^(r/2) (2 pi n)^(s-r) Gamma(r-s, 2 pi n/t).  At t = 1 that is the
    incomplete-gamma series, symmetric under s <-> r-s term by term; at any
    other t it equals Lambda(f, s) only when f is modular of weight r, so
    comparing the two at t != 1 checks the coefficients.  An mpmath float
    at the caller's precision, each a(n) embedded with sqrt(D) > 0."""

    def split(f, s, t):
        r = f.weight
        acc = mp.mpf(0)
        for n in range(1, f.prec):
            x = 2 * mp.pi * n
            acc += _embed(f.a(n)) * (
                x ** -s * mp.gammainc(s, x * t)
                + (-1) ** (r // 2) * x ** (s - r) * mp.gammainc(r - s, x / t)
            )
        return acc

    return split


@pytest.fixture
def critical_classes_match():
    """A check that each parity class of _critical_entries(f), a_t + b_t
    sqrt(D) read at sqrt(D) > 0 over the class's first entry, equals
    lam(t) / lam(t0) to 2^-200, lam giving mpmath values of Lambda(f, t)."""

    def check(f, lam):
        with mp.workprec(320):
            sqrt_d = mp.sqrt(f.field_disc)
            for parity in (0, 1):
                cls = [(t, a + b * sqrt_d) for t, a, b in _critical_entries(f) if t % 2 == parity]
                (t0, v0), lam0 = cls[0], lam(cls[0][0])
                for t, v in cls[1:]:
                    want = v / v0
                    assert abs(lam(t) / lam0 - want) < mp.mpf(2) ** -200 * abs(want), (f.weight, t0, t)

    return check
