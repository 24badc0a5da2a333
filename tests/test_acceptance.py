"""Acceptance suite: every release criterion, each printing one PASS line
with its runtime (run with -s to see them).  Tolerances are exact except
where a bit precision is stated explicitly."""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from siegelforms.census import (
    _chunk_stats,
    _g2_pass,
    ell_census,
    g2_census,
    set_cache_dir,
)
from siegelforms.cohom import ec_full_A2, lambda_psq, sigma_weighted, trace_T_Sjk, sp_char
from siegelforms.g1_modforms import (
    congruence_prime_scan,
    critical_ratios,
    dim_S,
    eigenforms,
    eisenstein_e,
    hecke_T,
    lambda_values,
    mat_trace,
)
from siegelforms.g2data import cusp_dims_jk, published_lambdas, s68_table
from siegelforms.harder import check_congruence, norm_via_resultant, run_table
from siegelforms.hecke_satake import (
    ALL_IDENTITIES,
    SatakeElement,
    newton_slopes,
    phi,
    poly_mul,
    satake_T0_extension,
    satake_Ti,
    sk_spin_factor,
    spin_factor,
    verify_identity,
)
from siegelforms.exact_arith import QuadElem, min_poly, primes_upto
from siegelforms.siegel_g2 import (
    chi10,
    chi12,
    diagonal_restriction,
    eisenstein_g2,
    fourier_jacobi,
    maass_check,
    maass_lift,
    phi_operator,
)


def report(num: int, took: float, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS ({took:.2f}s) {detail}")


def test_criterion_01_elliptic_census():
    set_cache_dir(None)
    t0 = time.time()
    for q in (2, 3, 4, 5, 7, 9, 11, 13, 25, 49):
        assert ell_census(q).mass_sum() == q
    masses = ell_census(3).masses
    freqs = [masses.get(4 - n, Fraction(0)) for n in range(1, 8)]
    assert freqs == [Fraction(x) for x in ("1/6", "1/2", "1/2", "2/3", "1/2", "1/2", "1/6")]
    took = time.time() - t0
    assert took < 10
    report(1, took, "mass sums for 10 fields and the F_3 frequency table")


def test_criterion_02_sigma_table_and_closure():
    t0 = time.time()
    assert [sigma_weighted(10, p) for p in (2, 3, 5, 7, 11)] == [
        -23,
        253,
        4831,
        -16743,
        534613,
    ]
    for p in (2, 3, 5, 7, 11, 13):
        for w in range(12, 28, 2):
            expect = mat_trace(hecke_T(w, p)) if dim_S(w) else Fraction(0)
            assert sigma_weighted(w - 2, p) - 1 == expect
    took = time.time() - t0
    assert took < 60
    report(2, took, "sigma_10 quintuple and the Hecke-trace closure p <= 13")


def test_criterion_03_genus2_eigenvalues():
    set_cache_dir(None)
    t0 = time.time()
    expected = {
        (6, 8): (-27000, 2843100, -107822000),
        (4, 10): (55080, -7338900, 609422800),
        (18, 5): (-538920, 118939500, 1043249200),
        (28, 4): (30776760, 522308049900, 18814963644400),
        (8, 8): (-6408, -30774900, 451366384),
        (12, 6): (68040, 14765100, -334972400),
    }
    t35 = time.time()
    for (j, k), vals in expected.items():
        for p, want in zip((3, 5), vals):
            assert trace_T_Sjk(j, k, p).result == want, (j, k, p)
    small_took = time.time() - t35
    assert small_took < 60
    t7 = time.time()
    for (j, k), vals in expected.items():
        assert trace_T_Sjk(j, k, 7).result == vals[2], (j, k)
    p7_took = time.time() - t7
    assert p7_took < 900
    # lambda(2) entries are data-verified only (char-2 census is the
    # optional feature and is not enabled)
    lam2 = published_lambdas()
    assert lam2[(6, 8)][2] == 0 and lam2[(4, 10)][2] == -1680
    zeros = [
        (j, k)
        for (j, k), d in sorted(cusp_dims_jk().items())
        if d == 0 and j >= 2 and k >= 4
    ][:20]
    assert len(zeros) == 20
    for j, k in zeros:
        for p in (3, 5, 7):
            assert trace_T_Sjk(j, k, p).result == 0
    took = time.time() - t0
    report(
        3,
        took,
        f"18 eigenvalues over 6 spaces (p=3,5 in {small_took:.1f}s, p=7 in "
        f"{p7_took:.1f}s) and 60 zero cells",
    )


def test_criterion_04_lambda_p_squared():
    t0 = time.time()
    assert lambda_psq(6, 8, 3) == 143765361
    took = time.time() - t0
    assert took < 60
    report(4, took, "lambda(9) on S_{6,8} via the F_9/F_81 censuses")


def test_criterion_05_odd_weight_vanishing():
    t0 = time.time()
    for l in range(9):
        for m in range(l + 1):
            if (l + m) % 2:
                for q in (3, 5, 7):
                    assert sum(ec_full_A2(l, m, q)) == 0
    report(5, time.time() - t0, "e_c = 0 for all odd-weight systems, l <= 8")


def test_criterion_06_eisenstein_calibration():
    t0 = time.time()
    e4 = eisenstein_g2(4)
    e6 = eisenstein_g2(6)
    got = (
        e4.get(1, 0, 0),
        e4.get(2, 0, 0),
        e4.get(1, 1, 1),
        e4.get(1, 0, 1),
        e4.get(1, 2, 1),
        e6.get(1, 0, 0),
        e6.get(2, 0, 0),
        e6.get(1, 1, 1),
        e6.get(1, 0, 1),
    )
    assert got == (240, 2160, 13440, 30240, 240, -504, -16632, 44352, 166320)
    took = time.time() - t0
    assert took < 1
    report(6, took, "all nine printed genus-2 Eisenstein coefficients")


def test_criterion_07_igusa_maass_suite():
    t0 = time.time()
    c10, c12 = chi10(20), chi12(20)
    assert not any(phi_operator(c10).coeffs) and not any(phi_operator(c12).coeffs)
    assert maass_check(c10) and maass_check(c12)
    assert maass_lift(fourier_jacobi(c10), 20).coeffs == c10.coeffs
    assert maass_lift(fourier_jacobi(c12), 20).coeffs == c12.coeffs
    diag = diagonal_restriction(c10, 3)
    assert not any(diag.values())
    for k in (4, 6, 10, 12):
        assert phi_operator(eisenstein_g2(k)).coeffs == eisenstein_e(k, 9).coeffs
    took = time.time() - t0
    assert took < 30
    report(7, took, "chi_10/chi_12 cusp + Maass identities, Siegel operator")


def test_criterion_08_hecke_satake_identities():
    t0 = time.time()
    for name in ALL_IDENTITIES:
        assert verify_identity(name), name
    p0, p1 = phi(1, 0), phi(1, 1)
    P = SatakeElement.prime_power
    printed = p0 * p0 + p0 * p1 * (P(1, 0) + P(1, -1, -1)) + p1 * p1
    assert satake_T0_extension(1) == printed == satake_Ti(1, 0)
    took = time.time() - t0
    assert took < 10
    report(8, took, "four formal identities over Q(P) and the g=1 T_0 image")


def test_criterion_09_saito_kurokawa_and_slopes():
    t0 = time.time()
    factor, lam, _ = sk_spin_factor(-528, 10, 2)
    target = poly_mul(
        poly_mul([Fraction(1), -Fraction(2 ** 8)], [Fraction(1), -Fraction(2 ** 9)]),
        [Fraction(1), Fraction(528), Fraction(2 ** 17)],
    )
    assert factor.coeffs == target and lam == 240
    for p, (lam_p, lam_sq, slopes) in s68_table().items():
        got = newton_slopes(spin_factor(6, 8, lam_p, lam_sq, p), p)
        assert tuple(got) == slopes, p
    took = time.time() - t0
    assert took < 1
    report(9, took, "lift factorization at p=2 and all four slope rows")


def test_criterion_10_critical_values():
    t0 = time.time()
    assert critical_ratios(eigenforms(12)[0]) == [48, 25, 20]
    expect22 = [
        2 ** 5 * 3 ** 3 * 5 * 19,
        2 ** 3 * 7 * 13 ** 2,
        3 * 5 * 7 * 13,
        2 * 3 * 41,
        2 * 3 * 7,
    ]
    assert critical_ratios(eigenforms(22)[0]) == expect22
    assert (41, 14, 4, 10) in congruence_prime_scan(22)
    took = time.time() - t0
    assert took < 60
    report(10, took, "ratio vectors for weights 12, 22 and the 41-row scan")


def test_criterion_11_harder_verification():
    t0 = time.time()
    full = check_congruence(4, 10, 22, 41, p_max=37)
    assert full.verdict and len({e.p for e in full.entries}) == 12
    census = [e for e in check_congruence(4, 10, 22, 41, p_max=7).entries if e.provenance == "census"]
    assert {e.p for e in census} == {3, 5, 7} and all(e.divisible for e in census)
    f30 = eigenforms(30)[0]
    n = norm_via_resultant(f30.a_min_poly(2), [32736, 1], 2 ** 24 + 2 ** 5)
    assert abs(n) == 282720345772032 and n % 3779 == 0
    f28 = eigenforms(28)[0]
    lam = QuadElem(25249, -6216, 72)
    n2 = norm_via_resultant(f28.a_min_poly(2), min_poly(lam), 2 ** 20 + 2 ** 7)
    assert n2 % 4057 == 0
    results = run_table()
    testable = [r for r in results if not r.untestable]
    assert all(r.verdict for r in testable)
    assert sum(1 for r in results if r.untestable) == 13
    took = time.time() - t0
    assert took < 60
    report(
        11,
        took,
        f"{len(testable)} rows verified (p <= 37 where published, census at "
        "3,5,7), both norm examples, 13 untestable rows",
    )


def test_criterion_12_property_suite(mellin_split):
    t0 = time.time()
    # census order-independence: the q = 5 quintics in five slices merge to
    # the same histogram forward and reversed
    (_, S1, S2, weight), = _g2_pass(5, 5)
    slices = zip(*(np.array_split(a, 5) for a in (S1, S2, weight)))
    parts = [_chunk_stats(5, *s) for s in slices]
    merged = []
    for order in (parts, parts[::-1]):
        counts = {}
        for part in order:
            for key, c in part.items():
                counts[key] = counts.get(key, 0) + c
        merged.append(counts)
    assert len(parts) == 5 and merged[0] == merged[1]
    # polynomiality: one degree-3 polynomial (q^3) fits all available totals
    for q in (3, 5, 7, 9):
        assert g2_census(q).mass_sum() == q ** 3
    # sp_char against the numeric Weyl-character oracle (both routes at
    # 200-bit precision so the 1e-9 tolerance tests the math, not float64)
    rng = random.Random(2024)
    checked = 0
    with mp.workprec(200):
        while checked < 100:
            l = rng.randrange(0, 13)
            m = rng.randrange(0, l + 1)
            q = rng.choice([3, 5, 7])
            th1 = mp.mpf(rng.uniform(0.2, 2.9))
            th2 = mp.mpf(rng.uniform(0.2, 2.9))
            if abs(th1 - th2) < 0.05:
                continue
            x = 2 * mp.sqrt(q) * mp.cos(th1)
            y = 2 * mp.sqrt(q) * mp.cos(th2)
            num = mp.sin((l + 2) * th1) * mp.sin((m + 1) * th2) - mp.sin(
                (m + 1) * th1
            ) * mp.sin((l + 2) * th2)
            den = mp.sin(th1) * mp.sin(th2) * 2 * mp.sqrt(q) * (mp.cos(th1) - mp.cos(th2))
            oracle = mp.mpf(q) ** mp.mpf((l + 1 + m) / 2.0) * num / den
            ours = sp_char(l, m, x + y, x * y, q)
            assert abs(ours - oracle) / max(abs(oracle), mp.mpf(1)) < mp.mpf(10) ** -9
            checked += 1
    # Ramanujan bound on every computed genus-1 eigenvalue
    with mp.workprec(128):
        for r in (12, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 38):
            if dim_S(r) in (1, 2):
                for f in eigenforms(r, prec=40):
                    for p in primes_upto(37):
                        v = f.a(p)
                        vals = (
                            [mp.mpf(str(v.embed(True))), mp.mpf(str(v.embed(False)))]
                            if isinstance(v, QuadElem)
                            else [mp.mpf(v.numerator) / v.denominator]
                        )
                        bound = 2 * mp.mpf(p) ** ((r - 1) / 2.0)
                        assert all(abs(x) <= bound * (1 + mp.mpf(10) ** -20) for x in vals)
    # functional equations: Lambda(s) against the Mellin integral split at
    # t = 6/5, which only a modular form's coefficients satisfy
    with mp.workprec(320):
        for r in (12, 22):
            f = eigenforms(r)[0]
            for s in (r - 1, r - 2, r - 3, r // 2 + 1):
                want = mp.mpf(str(lambda_values(f, [s])[0]))
                got = mellin_split(f, s, mp.mpf(6) / 5)
                assert abs(got - want) < mp.mpf(2) ** -200 * abs(want)
    report(12, time.time() - t0, "order independence, q^3 polynomiality, "
           "Weyl oracle x100, Ramanujan, functional equations")
