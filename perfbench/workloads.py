"""The benchmark's workloads: inputs, the calls into the public API, and
the check each result must pass.

Expected values come only from the bundled `data/` tables (read through
`siegelforms.g2data`) and from copies of the golden `.census_cache` files
kept in `perfbench/golden/`, plus the two classical constants noted where
they are used.  The seed only permutes the order in which the inputs are
computed; the set of inputs is fixed.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

GOLDEN = Path(__file__).resolve().parent / "golden"

# cache files the cold census writes that must equal the golden copies
COLD_GOLDEN = ("g2_q11_v1.json", "ell_q11_v1.json", "ell_q121_v1.json")

COLD_PRIMES = (3, 5, 7, 11)
SWEEP_PRIMES = (11, 13)

# chi10/chi12 to discriminant 100; products at that size reach the
# singular classes [0,0,c] with c <= (max_disc + 1) // 4
MAX_DISC = 100
SING_MAX = (MAX_DISC + 1) // 4

# Ratios of the critical values of Delta (Manin's period ratios), and the
# number of bundled congruence rows with no reachable eigenvalue data.
DELTA_RATIOS = [48, 25, 20]
UNTESTABLE_ROWS = 13


@dataclass
class Item:
    """One checked result: compute() calls the library, check() judges it."""

    label: str
    compute: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    """Items run in seed order, then `final` items (checks on files the
    earlier items wrote), which always run last."""

    items: list[Item]
    final: list[Item]

    def ordered(self, seed: int) -> list[Item]:
        items = list(self.items)
        random.Random(seed).shuffle(items)
        return items + self.final


def _equals(expected):
    return lambda got: got == expected


def _trace_item(j: int, k: int, p: int, check) -> Item:
    from siegelforms import cohom

    return Item(f"trace S_{j},{k} p={p}", lambda: cohom.trace_T_Sjk(j, k, p).result, check)


def eigen_cold(tmp: Path) -> Workload:
    """lambda(p) on every published one-dimensional space for p <= 11 and
    lambda(9) on S_{6,8}, from an empty cache directory."""
    from siegelforms import census, cohom, g2data

    cache = tmp / "cache"
    census.set_cache_dir(cache)
    published = g2data.published_lambdas()
    s68 = g2data.s68_table()
    items = [
        _trace_item(j, k, p, _equals(table[p]))
        for (j, k), table in sorted(published.items())
        for p in COLD_PRIMES
        if p in table
    ]
    items.append(
        Item("lambda(9) S_6,8", lambda: cohom.lambda_psq(6, 8, 3), _equals(s68[3][1]))
    )
    final = [
        Item(
            f"cache file {name}",
            lambda name=name: (cache / name).read_bytes(),
            _equals((GOLDEN / name).read_bytes()),
        )
        for name in COLD_GOLDEN
    ]
    return Workload(items, final)


def trace_sweep_warm(tmp: Path) -> Workload:
    """Trace of T(p) on every S_{j,k} (j > 0) of the bundled dimension
    table at p = 11, 13, with every census read from the golden cache."""
    from siegelforms import census, g2data

    cache = tmp / "cache"
    cache.mkdir()
    for path in sorted(GOLDEN.glob("*.json")):
        shutil.copyfile(path, cache / path.name)
    census.set_cache_dir(cache)
    dims = g2data.cusp_dims_jk()
    published = g2data.published_lambdas()

    def check(dim: int, expected):
        def ok(trace) -> bool:
            if trace.denominator != 1:
                return False
            if dim == 0:
                return trace == 0
            if dim == 1 and expected is not None:
                return trace == expected
            return True

        return ok

    items = [
        _trace_item(j, k, p, check(dim, published.get((j, k), {}).get(p)))
        for (j, k), dim in sorted(dims.items())
        if j > 0
        for p in SWEEP_PRIMES
    ]
    return Workload(items, [])


def expansions(tmp: Path) -> Workload:
    """Exact q-expansion, Siegel-table, Satake and resultant engines, with
    no cache directory (the censuses they reach are at q <= 7)."""
    from siegelforms import g1_modforms, g2data, harder, hecke_satake, siegel_g2

    # load every bundled table the engines read, so CSV parsing is set-up
    s68 = g2data.s68_table()
    rows = g2data.congruence_rows()
    g2data.published_a22()
    g2data.published_lambdas()
    g2data.quartic_factors()
    g2data.cusp_dims_jk()
    n_checks = sum(len(row.primes) for row in rows)
    scan22 = sorted(
        (ell, (row.j + row.r + 2) // 2, row.j, row.k)
        for row in rows
        if row.r == 22
        for ell in row.primes
    )

    def table_ok(results) -> bool:
        return (
            len(results) == n_checks
            and all(r.verdict for r in results if not r.untestable)
            and sum(1 for r in results if r.untestable) == UNTESTABLE_ROWS
        )

    def maass(form: str):
        return lambda: siegel_g2.maass_check(getattr(siegel_g2, form)(MAX_DISC, SING_MAX))

    def slopes(p: int):
        lam, lam_sq, _ = s68[p]
        return lambda: tuple(
            hecke_satake.newton_slopes(hecke_satake.spin_factor(6, 8, lam, lam_sq, p), p)
        )

    items = [
        Item("run_table(37)", lambda: harder.run_table(37), table_ok),
        Item("verify_reference_row", lambda: harder.verify_reference_row(), _equals(True)),
        Item("maass chi10", maass("chi10"), _equals(True)),
        Item("maass chi12", maass("chi12"), _equals(True)),
        *(
            Item(f"identity {name}", lambda name=name: hecke_satake.verify_identity(name), _equals(True))
            for name in hecke_satake.ALL_IDENTITIES
        ),
        *(Item(f"slopes S_6,8 p={p}", slopes(p), _equals(s68[p][2])) for p in sorted(s68)),
        Item(
            "critical_ratios(12)",
            lambda: g1_modforms.critical_ratios(g1_modforms.eigenforms(12)[0]),
            _equals(DELTA_RATIOS),
        ),
        Item("congruence_prime_scan(22)", lambda: g1_modforms.congruence_prime_scan(22), _equals(scan22)),
    ]
    return Workload(items, [])


WORKLOADS = {
    "eigen_cold": eigen_cold,
    "trace_sweep_warm": trace_sweep_warm,
    "expansions": expansions,
}
