"""Loaders for the bundled genus-2 data tables (dimensions, published
eigenvalues, congruence rows, quartic Frobenius factors)."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .exact_arith import QuadElem


def _read_csv(name: str) -> list[dict]:
    path = resources.files("siegelforms.data").joinpath(name)
    with path.open() as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


@lru_cache(maxsize=None)
def cusp_dims_jk() -> dict[tuple[int, int], int]:
    """dim S_{j,k}(Gamma_2) for even j <= 18, 4 <= k <= 20."""
    return {
        (int(r["j"]), int(r["k"])): int(r["dim"])
        for r in _read_csv("g2_cusp_dims.csv")
    }


def dim_S_jk(j: int, k: int) -> int | None:
    """Bundled dimension, or None when outside the tables: cusp_dims_jk(),
    then the dim_sjk column of the congruence rows, which also lists
    spaces with j > 18."""
    d = cusp_dims_jk().get((j, k))
    if d is None:
        d = next((row.dim_sjk for row in congruence_rows() if (row.j, row.k) == (j, k)), None)
    return d


@lru_cache(maxsize=None)
def s68_table() -> dict[int, tuple[int, int, tuple[Fraction, ...]]]:
    """p -> (lambda(p), lambda(p^2), slope multiset) for S_{6,8}."""
    out = {}
    for r in _read_csv("s68_eigen.csv"):
        slopes = tuple(Fraction(s) for s in r["slopes"].split(";"))
        out[int(r["p"])] = (int(r["lam"]), int(r["lam_sq"]), slopes)
    return out


@lru_cache(maxsize=None)
def published_lambdas() -> dict[tuple[int, int], dict[int, int]]:
    """(j, k) -> {p: lambda(p)} for the spaces with published eigenvalue runs."""
    out: dict[tuple[int, int], dict[int, int]] = {
        (18, 5): {},
        (28, 4): {},
        (8, 8): {},
        (12, 6): {},
        (4, 10): {},
        (6, 8): {},
    }
    for r in _read_csv("s18_5_s28_4.csv"):
        p = int(r["p"])
        out[(18, 5)][p] = int(r["lam_s18_5"])
        out[(28, 4)][p] = int(r["lam_s28_4"])
    for r in _read_csv("s88_s126.csv"):
        p = int(r["p"])
        out[(8, 8)][p] = int(r["lam_s88"])
        out[(12, 6)][p] = int(r["lam_s126"])
    for r in _read_csv("s22_s410.csv"):
        out[(4, 10)][int(r["p"])] = int(r["lam_4_10"])
    for p, (lam, _, _) in s68_table().items():
        out[(6, 8)][p] = lam
    return out


@lru_cache(maxsize=None)
def published_a22() -> dict[int, int]:
    """a(p) of the weight-22 elliptic eigenform from the bundled pair table."""
    return {int(r["p"]): int(r["a_22"]) for r in _read_csv("s22_s410.csv")}


@dataclass(frozen=True)
class CongruenceRow:
    r: int
    j: int
    k: int
    dim_sjk: int
    primes: tuple[int, ...]


@lru_cache(maxsize=None)
def congruence_rows() -> tuple[CongruenceRow, ...]:
    rows = []
    for r in _read_csv("congruence_rows.csv"):
        primes = tuple(int(p) for p in r["primes"].split(";") if p)
        rows.append(
            CongruenceRow(int(r["r"]), int(r["j"]), int(r["k"]), int(r["dim_sjk"]), primes)
        )
    return tuple(rows)


@lru_cache(maxsize=None)
def quartic_factors() -> dict[tuple[int, int], list[list]]:
    """(j, k) -> list of quartic factors [c0..c4], entries Fraction or QuadElem.

    Convention 1 + c1 X + ...; the T(2) eigenvalue of the factor is -c1.
    """
    out: dict[tuple[int, int], list[list]] = {}
    for r in _read_csv("quartic_factors.csv"):
        jk = (int(r["j"]), int(r["k"]))
        disc = int(r["disc"])
        coeffs = []
        for i in range(5):
            a, b = int(r[f"a{i}"]), int(r[f"b{i}"])
            if disc == 0:
                if b != 0:
                    raise ValueError(
                        f"rational quartic factor on S_{{{jk[0]},{jk[1]}}} has b{i} = {b}"
                    )
                coeffs.append(Fraction(a))
            else:
                coeffs.append(QuadElem(disc, a, b))
        out.setdefault(jk, []).append(coeffs)
    return out


@lru_cache(maxsize=None)
def octic_12_9_p2() -> list[int]:
    """[t1, t2, t3, t4] of the palindromic degree-8 polynomial at p = 2."""
    row = _read_csv("octic_12_9_p2.csv")[0]
    return [int(row[f"t{i}"]) for i in range(1, 5)]
