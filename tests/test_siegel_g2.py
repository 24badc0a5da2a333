import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from siegelforms import siegel_g2
from siegelforms.exact_arith import bernoulli, sigma_div
from siegelforms.g1_modforms import delta, eisenstein_e
from siegelforms.siegel_g2 import (
    InsufficientTable,
    JacobiFormQ,
    SiegelCoeffTable,
    V_l,
    _reduced_classes,
    chi10,
    chi12,
    cohen_H,
    diagonal_restriction,
    eisenstein_g2,
    fourier_jacobi,
    maass_check,
    maass_lift,
    phi_operator,
    reduce_form,
)


# -- Cohen's function


def test_cohen_H_zeta_values():
    # H(r, 0) = zeta(1 - 2r) = -B_2r / 2r
    assert cohen_H(3, 0) == -bernoulli(6) / 6 == Fraction(-1, 252)
    assert cohen_H(5, 0) == -bernoulli(10) / 10


def test_cohen_H_fundamental():
    assert cohen_H(3, 3) == Fraction(-2, 9)
    assert cohen_H(3, 4) == Fraction(-1, 2)


def test_cohen_H_non_discriminant():
    assert cohen_H(3, 1) == 0
    assert cohen_H(3, 2) == 0
    assert cohen_H(3, 5) == 0


def test_cohen_H_non_fundamental_divisor_sum():
    # -12 = (-3) * 2^2: H(r, 12) = L(1-r, chi_-3)(sigma_{2r-1}(2) - chi(2) 2^(r-1))
    r = 3
    lval = Fraction(-2, 3) / r * -1  # -B_{3,chi_-3}/3 = -(2/3)/3
    lval = -Fraction(2, 3) / 3
    expect = lval * (sigma_div(2 * r - 1, 2) - (-1) * 2 ** (r - 1))
    assert cohen_H(3, 12) == expect


def test_chi10_chi12_evaluate_each_cohen_H_once(monkeypatch):
    # both lift E_{4,1} and E_{6,1}: one gen_bernoulli per (r, N), N > 0
    calls = []
    real = siegel_g2.gen_bernoulli
    monkeypatch.setattr(siegel_g2, "gen_bernoulli", lambda r, D: calls.append(r) or real(r, D))
    for memo in (siegel_g2.cohen_H, siegel_g2.chi10, siegel_g2.chi12):
        memo.cache_clear()
    chi10(100)
    chi12(100)
    per_weight = sum(1 for N in range(1, 101) if N % 4 in (0, 3))
    assert sorted(calls) == [3] * per_weight + [5] * per_weight


# -- reduction


def test_reduce_form_examples():
    assert reduce_form(1, 2, 1) == (0, 0, 1)
    assert reduce_form(5, 0, 1) == (1, 0, 5)
    assert reduce_form(1, -1, 1) == (1, 1, 1)
    assert reduce_form(2, 7, 8) == reduce_form(2, -7, 8)
    with pytest.raises(ValueError):
        reduce_form(1, 3, 1)  # negative discriminant


def test_reduce_form_random_gl2_invariance():
    rng = random.Random(5)
    mats = [((1, 1), (0, 1)), ((0, 1), (-1, 0)), ((1, 0), (3, 1)), ((1, -2), (0, 1))]
    for _ in range(200):
        n, r, m = rng.randrange(0, 4), rng.randrange(-4, 5), rng.randrange(0, 5)
        if 4 * n * m - r * r < 0 or n < 0 or m < 0:
            continue
        red = reduce_form(n, r, m)
        for (a, b), (c, d) in mats:
            # u^t N u for u = ((a, b), (c, d)), det u = +-1
            n2 = n * a * a + r * a * c + m * c * c
            m2 = n * b * b + r * b * d + m * d * d
            r2 = 2 * n * a * b + r * (a * d + b * c) + 2 * m * c * d
            assert 4 * n2 * m2 - r2 * r2 == 4 * n * m - r * r
            assert reduce_form(n2, r2, m2) == red
        rn, rr, rm = red
        assert 0 <= rr <= rn <= rm or (rn == 0 and rr == 0)


# -- Eisenstein series


def test_eisenstein_g2_printed_coefficients():
    e4 = eisenstein_g2(4)
    assert e4.get(0, 0, 0) == 1
    assert e4.get(1, 0, 0) == 240
    assert e4.get(2, 0, 0) == 2160
    assert e4.get(1, 1, 1) == 13440
    assert e4.get(1, 0, 1) == 30240
    assert e4.get(1, 2, 1) == 240
    e6 = eisenstein_g2(6)
    assert e6.get(1, 0, 0) == -504
    assert e6.get(2, 0, 0) == -16632
    assert e6.get(1, 1, 1) == 44352
    assert e6.get(1, 0, 1) == 166320
    assert e6.get(1, 2, 1) == -504


def test_koecher_zero_and_coverage_error():
    e4 = eisenstein_g2(4)
    assert e4.get(1, 5, 1) == 0  # not positive semi-definite
    assert e4.get(0, 0, -1) == 0
    with pytest.raises(InsufficientTable):
        e4.get(3, 0, 3)  # disc 36 beyond the stored bound
    with pytest.raises(InsufficientTable):
        e4.get(0, 0, 9)  # singular content beyond sing_max


def test_phi_operator():
    for k in (4, 6, 10, 12):
        assert phi_operator(eisenstein_g2(k)).coeffs == eisenstein_e(k, 9).coeffs
    one = SiegelCoeffTable(0, 4, 4)
    for key in list(eisenstein_g2(4, 4, 4).coeffs):
        one.coeffs[key] = Fraction(1 if key == (0, 0, 0) else 0)
    assert phi_operator(one).coeffs[0] == 1


def test_phi_of_cusp_forms_vanishes():
    assert all(c == 0 for c in phi_operator(chi10()).coeffs)
    assert all(c == 0 for c in phi_operator(chi12()).coeffs)


def test_cusp_criterion():
    # a form is cuspidal when its Siegel operator image vanishes
    # (test_phi_of_cusp_forms_vanishes); E4's does not
    assert any(phi_operator(eisenstein_g2(4)).coeffs)


def test_diagonal_restriction_eisenstein():
    for k in (4, 6):
        d = diagonal_restriction(eisenstein_g2(k), 3)
        e = eisenstein_e(k, 3)
        assert d == {(n, m): e[n] * e[m] for n in range(3) for m in range(3)}
    assert diagonal_restriction(eisenstein_g2(4), 3)[(1, 1)] == 240 * 240


def test_diagonal_restriction_chi10_vanishes():
    d = diagonal_restriction(chi10(), 3)
    assert not any(d.values())


def test_diagonal_restriction_needs_coverage():
    with pytest.raises(InsufficientTable):
        diagonal_restriction(eisenstein_g2(4), 5)


# -- Fourier-Jacobi and Maass machinery


def test_fourier_jacobi_chi10_frozen():
    fj = fourier_jacobi(chi10())
    assert [fj.c_D(D) for D in (0, 3, 4, 7, 8, 11, 12)] == [0, 1, -2, -16, 36, 99, -272]


def test_fourier_jacobi_chi12_frozen():
    fj = fourier_jacobi(chi12())
    assert [fj.c_D(D) for D in (0, 3, 4, 7, 8, 11, 12)] == [0, 1, 10, -88, -132, 1275, 736]


def test_fourier_jacobi_koecher():
    fj = fourier_jacobi(eisenstein_g2(4))
    assert fj.c(0, 1) == 0  # r^2 > 4n
    assert fj.c(1, 3) == 0
    assert fj.c_D(-1) == 0
    # c(0, 0) of the index-1 coefficient is a([0,0,1]), the q-coefficient
    # of the Siegel image e_4
    assert fj.c_D(0) == fj.c(0, 0) == 240


def test_V1_is_identity():
    fj = fourier_jacobi(chi10())
    v1 = V_l(fj, 1)
    assert all(v1.coeffs[k] == v for k, v in fj.coeffs.items() if k in v1.coeffs)


def test_Vl_constant_coefficient():
    fj = fourier_jacobi(eisenstein_g2(4))
    k = fj.weight
    for l in (2, 3, 4):
        vl = V_l(fj, l)
        assert vl.c(0, 0) == sigma_div(k - 1, l) * fj.c(0, 0)


def test_V2_matches_fourier_jacobi_index2():
    v2 = V_l(fourier_jacobi(chi10()), 2)
    fj2 = fourier_jacobi(chi10(), 2)
    shared = [key for key in fj2.coeffs if key in v2.coeffs]
    assert len(shared) >= 8
    assert all(v2.coeffs[key] == fj2.coeffs[key] for key in shared)


def test_maass_lift_round_trip():
    c10 = chi10()
    assert maass_lift(fourier_jacobi(c10)).coeffs == c10.coeffs
    c12 = chi12()
    assert maass_lift(fourier_jacobi(c12)).coeffs == c12.coeffs


def test_maass_lift_content_one_classes():
    fj = fourier_jacobi(chi10())
    lifted = maass_lift(fj)
    assert lifted.get(1, 1, 1) == fj.c_D(3)
    assert lifted.get(1, 0, 1) == fj.c_D(4)


def test_maass_check():
    assert maass_check(chi10())
    assert maass_check(chi12())
    # empirical record: the Eisenstein series also satisfies the relations
    assert maass_check(eisenstein_g2(4)) is True
    perturbed = chi10(20, 8).scale(1)
    perturbed.coeffs[(2, 1, 2)] += 1
    assert not maass_check(perturbed)


def test_maass_lift_round_trip_eisenstein():
    # the constant term of the lift is -B_k/(2k) c(0)
    assert maass_lift(fourier_jacobi(eisenstein_g2(4))).coeffs == eisenstein_g2(4).coeffs


def test_fourier_jacobi_reads_only_the_rows_it_needs():
    table = chi10(100, 25).scale(1)
    calls = []
    covers = table.covers
    table.covers = lambda n, r, m: calls.append((n, r, m)) or covers(n, r, m)
    fj = fourier_jacobi(table)
    assert len(calls) < 1000
    assert set(fj.coeffs) == {(D, D % 2) for D in range(101) if D % 4 in (0, 3)}
    with pytest.raises(ValueError):
        fourier_jacobi(table, 0)


def test_jacobi_class_invariance_guard():
    # c(n, r) must only depend on (4mn - r^2, r mod 2m): inconsistent input
    # is rejected at construction
    good = JacobiFormQ(10, 1, {(3, 1): Fraction(1)})
    assert good.c(1, 1) == 1 == good.c(1, -1)
    with pytest.raises(InsufficientTable):
        good.c(2, 1)


def _product(f, g):
    """f * g on the classes both factors' stored boxes certify."""
    out = SiegelCoeffTable(
        f.weight + g.weight, min(f.max_disc, g.max_disc), min(f.sing_max, g.sing_max)
    )
    for n, r, m in _reduced_classes(out.max_disc, out.sing_max):
        total = Fraction(0)
        for n1 in range(n + 1):
            for m1 in range(m + 1):
                n2, m2 = n - n1, m - m1
                # r1 range: both halves positive semi-definite
                b1 = math.isqrt(4 * n1 * m1)
                for r1 in range(-b1, b1 + 1):
                    r2 = r - r1
                    if r2 * r2 <= 4 * n2 * m2:
                        total += f.get(n1, r1, m1) * g.get(n2, r2, m2)
        out.coeffs[(n, r, m)] = total
    return out


def _combination(terms):
    """sum of c * F over the (c, F) in terms, on the classes every F stores."""
    assert len({F.weight for _, F in terms}) == 1
    keys = set.intersection(*(set(F.coeffs) for _, F in terms))
    return {key: sum(c * F.coeffs[key] for c, F in terms) for key in keys}


def test_chi12_is_the_classical_combination():
    # 441 E4^3 + 250 E6^2 - 691 E12, rescaled to a([1,1,1]) = 1
    e4 = eisenstein_g2(4, 8, 4)
    e6 = eisenstein_g2(6, 8, 4)
    e12 = eisenstein_g2(12, 8, 4)
    comb = _combination(
        [(441, _product(_product(e4, e4), e4)), (250, _product(e6, e6)), (-691, e12)]
    )
    pivot = comb[reduce_form(1, 1, 1)]
    c12 = chi12()
    for key, val in comb.items():
        assert val == pivot * c12.coeffs[key]


@pytest.mark.parametrize(
    "form, digest",
    [
        (chi10, "d90be16bb30cb9ad3f72ee7d1a1fd948c460861d32ec741e4add744f01ee3c38"),
        (chi12, "b6e0999dfa98fdf65780d0787523b8f02fabee60718bcf7791d25e218cca094b"),
    ],
)
def test_chi10_chi12_pinned_at_disc_100(form, digest):
    # the 158 rows `igusa --max-disc 100` prints; maass_check holds for the
    # lift of any Jacobi form, so only a pin catches a wrong Jacobi product
    rows = form(100, 25).to_json_rows()
    assert len(rows) == 158
    assert hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest() == digest


def test_table_serialization_sorted():
    rows = eisenstein_g2(4, 8, 4).to_json_rows()
    discs = [4 * n * m - r * r for n, r, m, _ in rows]
    assert discs == sorted(discs)
    assert rows[0][:3] == [0, 0, 0]


def test_chi10_diagonal_z2_leading_data():
    # the restriction of chi_10 to z = 0 vanishes; the z^2-jet at z = 0 has
    # q1^n q2^m coefficient proportional to sum_r r^2 a([n, r, m]).  Frozen
    # here: at (1, 1) that weighted sum is 2, the scale of the Delta x Delta
    # leading term in the development of the weight-12 form, while the
    # corresponding values track Delta (x) Delta, not E10 (x) E10.
    c10 = chi10()
    def z2(n, m):
        b = 2 * int((n * m) ** 0.5)
        return sum(r * r * c10.get(n, r, m) for r in range(-b - 1, b + 2) if r * r <= 4 * n * m)
    assert z2(1, 1) == 2
    assert z2(1, 2) == z2(2, 1) == -48  # 2 * (-24): tau(2) scale, symmetric


def test_fourier_jacobi_consistency_survives_optimized_mode(run_optimized):
    # a table whose values are not class functions is rejected under -O too
    proc = run_optimized("""
from fractions import Fraction
from siegelforms import siegel_g2
class Skewed(siegel_g2.SiegelCoeffTable):
    def get(self, n, r, m):
        return Fraction(r)  # [1, -2, 1] and [0, 0, 1] are one class
try:
    siegel_g2.fourier_jacobi(Skewed(10, 4, 1))
except ValueError as exc:
    print(exc)
""")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines() == ["coefficient class (0, 0) inconsistent"]
