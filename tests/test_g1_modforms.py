import dataclasses
import hashlib
import json
import operator
import random
from fractions import Fraction
from functools import reduce

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelforms import g1_modforms
from siegelforms.cohom import motive_trace
from siegelforms.exact_arith import QuadElem, bernoulli, primes_upto, sigma_div
from siegelforms.g1_modforms import (
    DimTooLarge,
    InsufficientPrecision,
    QExpansion,
    _critical_entries,
    basis_S,
    char_poly_2x2,
    congruence_prime_scan,
    critical_ratios,
    delta,
    dim_M,
    dim_S,
    eigenforms,
    eisenstein_e,
    hecke_T,
    mat_trace,
)


def test_eisenstein_sieve_matches_divisor_sums():
    for k in (4, 6, 8, 10, 12, 14):
        c = Fraction(-2 * k) / bernoulli(k)
        expect = [1] + [c * sigma_div(k - 1, n) for n in range(1, 60)]
        assert eisenstein_e(k, 60).coeffs == expect, k


def test_eisenstein_coefficients():
    e4 = eisenstein_e(4, 3)
    assert e4.coeffs == [1, 240, 2160]
    e6 = eisenstein_e(6, 2)
    assert e6.coeffs == [1, -504]
    assert eisenstein_e(8, 1).coeffs == [1]
    with pytest.raises(ValueError):
        eisenstein_e(5, 3)
    with pytest.raises(ValueError):
        eisenstein_e(2, 3)


def test_delta_from_relation():
    d = delta(6)
    assert d.coeffs[0] == 0 and d.coeffs[1] == 1
    assert d.coeffs[2] == -24
    assert d.coeffs[5] == 4830
    assert d.coeffs[4] == -1472  # the defining relation, not the display value


def test_qexpansion_truncation_bookkeeping():
    a = eisenstein_e(4, 5)
    b = eisenstein_e(6, 3)
    assert (a * b).prec == 3
    assert (a - eisenstein_e(4, 7)).prec == 5
    with pytest.raises(ValueError):
        _ = a - b


def naive_product(a, b):
    prec = min(len(a), len(b))
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(prec)]


rationals = st.fractions(min_value=-60, max_value=60, max_denominator=30)
series = st.one_of(
    st.tuples(st.integers(0, 5), st.lists(rationals, max_size=14)).map(
        lambda t: [Fraction(0)] * t[0] + t[1]  # leading zeros
    ),
    st.integers(0, 12).map(lambda n: [Fraction(0)] * n),  # the zero series
)


@given(series, series, st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=150)
def test_product_matches_naive_convolution(a, b, wa, wb):
    got = QExpansion(wa, a) * QExpansion(wb, b)
    assert got.weight == wa + wb
    assert got.coeffs == naive_product(a, b)
    assert all(type(c) is Fraction for c in got.coeffs)


def test_basis_is_integral_and_truncates():
    # the echelonized (Miller) basis of S_k has integer coefficients
    for k in range(61):
        assert all(c.denominator == 1 for f in basis_S(k, 60) for c in f.coeffs), k
    top = basis_S(36, 128)
    assert tuple(QExpansion(36, f.coeffs[:50]) for f in top) == basis_S(36, 50)


def fraction_basis(k, prec):
    """Echelonized S_k by Fraction Gauss-Jordan over every monomial
    Delta^c e4^a e6^b, c >= 1, built as QExpansion products."""
    e4, e6, dl = eisenstein_e(4, prec), eisenstein_e(6, prec), delta(prec)
    rows = [
        reduce(operator.mul, [dl] * c + [e4] * a + [e6] * b).coeffs
        for c in range(1, k // 12 + 1)
        for b in range((k - 12 * c) // 6 + 1)
        for a in [(k - 12 * c - 6 * b) // 4]
        if 4 * a + 6 * b == k - 12 * c
    ]
    r = 0
    for col in range(prec):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(QExpansion(k, row) for row in rows[:r])


def test_basis_matches_fraction_gauss_jordan():
    cases = [(k, 60) for k in range(0, 61, 2)] + [(38, 140)]
    for k, prec in cases:
        assert basis_S(k, prec) == fraction_basis(k, prec), (k, prec)


def test_bases_of_one_precision_share_one_ladder(monkeypatch):
    calls = []
    real_delta = g1_modforms.delta
    monkeypatch.setattr(g1_modforms, "delta", lambda prec: calls.append(prec) or real_delta(prec))
    g1_modforms.basis_S.cache_clear()
    g1_modforms._ladder.cache_clear()
    for k in range(24, 40, 2):
        assert len(basis_S(k, 128)) == dim_S(k)
    assert calls == [128]


def test_dims_match_computed_basis():
    for k in range(4, 40, 2):
        assert len(basis_S(k)) == dim_S(k)
    assert dim_S(12) == 1 and dim_S(10) == 0 and dim_S(24) == 2
    assert dim_M(10) == 1


def test_basis_echelon():
    b = basis_S(24)
    assert b[0][1] == 1 and b[0][2] == 0
    assert b[1][1] == 0 and b[1][2] == 1


def test_hecke_matrices():
    assert hecke_T(12, 2) == [[Fraction(-24)]]
    assert hecke_T(22, 2) == [[Fraction(-288)]]
    t, det = char_poly_2x2(hecke_T(24, 2))
    assert t == 1080
    assert t * t - 4 * det == 144169 * 12 ** 2 * 4
    with pytest.raises(InsufficientPrecision):
        hecke_T(12, 2, prec=3)
    with pytest.raises(ValueError):
        hecke_T(12, 4)


def test_hecke_trace_spot_value():
    # cross-validated against sigma_14(3) - 1 from the census module
    assert mat_trace(hecke_T(16, 3)) == -3348


def test_eigenforms_dim1():
    f18 = eigenforms(18)[0]
    assert f18.a(2) == -528
    f22 = eigenforms(22)[0]
    assert f22.a(3) == -128844
    assert f22.a(1) == 1


def test_ap_past_stored_precision_raises():
    for f in eigenforms(12) + eigenforms(24):
        assert f.prec == 128 and f.a(127) == f.coeffs[127]
        with pytest.raises(InsufficientPrecision):
            f.a(131)


def test_eigenforms_dim2_field():
    fp, fm = eigenforms(24)
    assert fp.field_disc == 144169
    assert fp.a(2) == QuadElem(144169, 540, 12)
    assert fm.a(2) == QuadElem(144169, 540, -12)
    with pytest.raises(DimTooLarge):
        eigenforms(36)


def test_eigenforms_build_one_basis(monkeypatch):
    # hecke_T(k, 2) on a two-dimensional space reads the basis eigenforms holds
    g1_modforms._eigenforms.cache_clear()  # a remembered form builds no basis
    keys = []
    basis = g1_modforms.basis_S
    monkeypatch.setattr(
        g1_modforms, "basis_S", lambda k, prec=40: keys.append((k, prec)) or basis(k, prec)
    )
    for k, prec in ((18, 128), (24, 128), (28, 140)):
        keys.clear()
        eigenforms(k, prec)
        assert set(keys) == {(k, prec)}, k


@pytest.mark.parametrize("k", [22, 28])
def test_shared_eigenforms_cannot_change(k):
    forms = eigenforms(k)
    kept = list(forms)
    assert len(kept) == dim_S(k)
    forms.append(forms[0])
    forms.pop(0)
    assert eigenforms(k) == kept
    f = kept[0]
    a2 = f.a(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.weight = 12
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.coeffs = ()
    with pytest.raises(TypeError):
        f.coeffs[2] = 0
    assert eigenforms(k)[0].a(2) == a2 and eigenforms(k)[0].weight == k


def quad_mul(disc, x, y):
    """(a, b) of (x0 + x1 sqrt(disc)) (y0 + y1 sqrt(disc))."""
    return x[0] * y[0] + disc * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def test_hecke_multiplicativity():
    for k in (12, 22):
        f = eigenforms(k)[0]
        for p, q in ((2, 3), (2, 5), (3, 5), (2, 7)):
            assert f.a(p * q) == f.a(p) * f.a(q)
    fp = eigenforms(24)[0]
    a2, a3, a6 = (fp.a(n) for n in (2, 3, 6))
    assert (a6.a, a6.b) == quad_mul(fp.field_disc, (a2.a, a2.b), (a3.a, a3.b))


def test_delta_e4_e6_is_the_weight22_eigenform():
    e4 = eisenstein_e(4, 12)
    e6 = eisenstein_e(6, 12)
    f = delta(12) * e4 * e6
    assert f.weight == 22
    lam = Fraction(-288)
    pk = Fraction(2) ** 21
    for n in range(1, 5):
        b = f[2 * n] + (pk * f[n // 2] if n % 2 == 0 else 0)
        assert b == lam * f[n]


def test_motive_trace():
    assert motive_trace(12, 2, 1) == -24
    assert motive_trace(12, 2, 2) == (-24) ** 2 - 2 * 2 ** 11 == -3520
    assert motive_trace(16, 5, 1) == mat_trace(hecke_T(16, 5))
    assert motive_trace(10, 7, 3) == 0  # dim S_10 = 0


def test_motive_trace_square_identity():
    rng = random.Random(3)
    for _ in range(8):
        k = rng.choice([12, 16, 18, 20, 22, 24, 26])
        p = rng.choice([2, 3, 5])
        tp = hecke_T(k, p)
        d = dim_S(k)
        tr2 = mat_trace(
            [
                [sum(tp[i][m] * tp[m][j] for m in range(d)) for j in range(d)]
                for i in range(d)
            ]
        )
        assert motive_trace(k, p, 2) == tr2 - 2 * d * Fraction(p) ** (k - 1)


def test_ramanujan_bound_all_embeddings(embed):
    with mp.workprec(128):
        for r in (12, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 38):
            if dim_S(r) == 0 or dim_S(r) > 2:
                continue
            for f in eigenforms(r, prec=40):
                for p in primes_upto(37):
                    v = f.a(p)
                    vals = [embed(v), embed(v, False)] if isinstance(v, QuadElem) else [embed(v)]
                    for x in vals:
                        assert abs(x) <= 2 * mp.mpf(p) ** ((r - 1) / 2.0) * (1 + mp.mpf(10) ** -20)


def test_lambda_functional_equation(mellin_split, critical_classes_match):
    # the split at t = 6/5 equals Lambda(f, s) only for a modular form
    f = eigenforms(12)[0]
    with mp.workprec(320):
        critical_classes_match(f, lambda s: mellin_split(f, s, mp.mpf(6) / 5))


def test_lambda_functional_equation_weight22(mellin_split, critical_classes_match):
    f = eigenforms(22)[0]
    with mp.workprec(320):
        critical_classes_match(f, lambda s: mellin_split(f, s, mp.mpf(6) / 5))
        # Lambda(11) = 0: the sign of the functional equation is -1
        assert abs(mellin_split(f, 11, mp.mpf(6) / 5)) < mp.mpf(2) ** -200


def gammainc_oracle(f, s, embed):
    """Lambda(f, s) as sum a(n) (x^-s Gamma(s, x) + (-1)^(r/2) x^(s-r) Gamma(r-s, x)),
    x = 2 pi n, with two incomplete gammas per term, over the stored a(n)
    embedded with sqrt(D) > 0."""
    r = f.weight
    with mp.workprec(320):
        acc = mp.mpf(0)
        for n in range(1, f.prec):
            x = 2 * mp.pi * n
            acc += embed(f.a(n)) * (
                x ** -s * mp.gammainc(s, x)
                + (-1) ** (r // 2) * x ** (s - r) * mp.gammainc(r - s, x)
            )
        return acc


@pytest.mark.parametrize("r, which", [(12, 0), (22, 0), (24, 0), (24, 1)])
def test_lambda_recurrence_matches_gammainc_oracle(r, which, critical_classes_match, embed):
    # the exact ratios of each parity class against the incomplete-gamma series
    f = eigenforms(r)[which]
    critical_classes_match(f, lambda s: gammainc_oracle(f, s, embed))


@pytest.mark.parametrize(
    "r, which, bound", [(12, 0, 1e-10), (22, 0, 1e-20), (24, 0, 1e-20), (24, 1, 1e-20)]
)
def test_lambda_matches_dirichlet_series(r, which, bound, embed):
    # at s = r-1 the Dirichlet series converges absolutely, so its truncation
    # is an oracle that does not share gammainc_oracle's s <-> r-s symmetry
    f = eigenforms(r)[which]
    s = r - 1
    with mp.workprec(320):
        series = sum(embed(f.a(n)) * mp.mpf(n) ** -s for n in range(1, f.prec))
        oracle = (2 * mp.pi) ** -s * mp.gamma(s) * series
        assert abs(gammainc_oracle(f, s, embed) / oracle - 1) < bound


def test_critical_entries_frozen():
    # the full (t, a_t, b_t) vectors of every weight with dim S_r <= 2, not
    # only the primes the scan prints; the digest was taken from the mpmath
    # incomplete-gamma evaluator that the period polynomials replaced
    entries = []
    for r in range(12, 39, 2):
        if dim_S(r) in (1, 2):
            entries.append(_critical_entries(eigenforms(r)[0]))
    assert len(entries) == 12
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    assert digest == "58b34252c7f41041f3801ddf51fade327191e268a187534ee5e83c83a6841670"


def test_periods_are_hecke_eigenvectors():
    # ties the period polynomials to the q-expansions: on the interior
    # c_1..c_{w-1} of each chosen P, T(2) acting through its four matrices
    # has the eigenvalue a(2) (dim 1), or the minimal polynomial of a(2)
    # in T(2) kills P (dim 2)
    T, checked = g1_modforms._hecke2, 0
    for r in range(12, 39, 2):
        if dim_S(r) not in (1, 2):
            continue
        w, f = r - 2, eigenforms(r)[0]
        for parity in (0, 1):
            P = g1_modforms._period_poly(w, parity)
            assert any(P[1:w])
            if dim_S(r) == 1:
                image = [x - f.a(2) * c for x, c in zip(T(P), P)]
            else:
                a2 = f.a(2)
                image = [
                    x - 2 * a2.a * y + (a2.a ** 2 - a2.disc * a2.b ** 2) * c
                    for x, y, c in zip(T(T(P)), T(P), P)
                ]
            assert not any(image[1:w]), (r, parity)
            checked += 1
    assert checked == 24


def test_critical_ratios_delta():
    f = eigenforms(12)[0]
    assert critical_ratios(f) == [48, 25, 20]


def test_critical_ratios_weight22():
    f = eigenforms(22)[0]
    expect = [
        2 ** 5 * 3 ** 3 * 5 * 19,
        2 ** 3 * 7 * 13 ** 2,
        3 * 5 * 7 * 13,
        2 * 3 * 41,
        2 * 3 * 7,
    ]
    assert critical_ratios(f) == expect


def test_lambda_values_normalized_matches_ratios():
    # a rational form is its own conjugate pair: every b_t is 0
    f = eigenforms(12)[0]
    entries = _critical_entries(f)
    assert [(t, a) for t, a, _ in entries if t % 2 == 0] == [(10, 48), (8, 25), (6, 20)]
    assert [t for t, _, _ in entries] == [10, 8, 6, 9, 7]
    assert all(b == 0 for _, _, b in entries)


def test_critical_values_frozen():
    # pinned outputs: a change to the evaluator or the normalizer must
    # reproduce them
    expect = {
        16: [936, 245, 98, 70],
        18: [120, 22, 5, 1],
        20: [34272, 5005, 968, 280, 168],
        26: [57960, 4522, 425, 49, 7, 1],
    }
    for r, ratios in expect.items():
        assert critical_ratios(eigenforms(r)[0]) == ratios
    assert congruence_prime_scan(28) == [
        (157, 20, 10, 10),
        (193, 15, 0, 15),
        (193, 17, 4, 13),
        (193, 19, 8, 11),
        (193, 21, 12, 9),
        (193, 23, 16, 7),
        (193, 25, 20, 5),
        (367, 23, 16, 7),
        (647, 22, 14, 8),
        (823, 18, 6, 12),
        (2027, 19, 8, 11),
        (4057, 21, 12, 9),
    ]


def test_congruence_scan_22():
    assert congruence_prime_scan(22) == [(41, 14, 4, 10)]


def test_congruence_scan_26():
    assert congruence_prime_scan(26) == [(29, 19, 10, 9), (43, 23, 18, 5), (97, 21, 14, 7)]


def test_congruence_scan_38():
    # the weight-38 critical values have 66-bit denominators
    scan = congruence_prime_scan(38)
    assert len(scan) == 49
    # the primes of the row (38; 32, 4) of congruence_rows.csv
    assert {(67, 36, 32, 4), (83, 36, 32, 4)} <= set(scan)


def test_congruence_scan_20_empty():
    assert congruence_prime_scan(20) == []


def test_congruence_scan_24_dim2():
    assert congruence_prime_scan(24) == [(73, 19, 12, 7), (179, 17, 8, 9)]


def test_eigenform_json():
    f = eigenforms(24)[0]
    js = f.to_json()
    assert js["disc"] == 144169
    assert js["a_p"]["2"] == {"disc": 144169, "a": "540", "b": "12"}


def test_form_invariants_survive_optimized_mode(run_optimized):
    # each basis and eigenform check raises FormInvariantError under python -O
    proc = run_optimized("""
from fractions import Fraction
from siegelforms import g1_modforms as g1
def fails(compute):
    try:
        compute()
    except g1.FormInvariantError as exc:
        print(exc)
    else:
        raise SystemExit("invariant not checked")
fails(lambda: g1.basis_S(24, 2))  # two coefficients see rank 1 of 2
fails(lambda: g1.EigenformG1(12, 1, [0, 0, Fraction(1, 2)]).a_min_poly(2))
real_delta = g1.delta
g1.delta = lambda prec: real_delta(prec) * real_delta(prec)  # leading term q^2
fails(lambda: g1.basis_S(12, 10))
g1.delta = real_delta
g1.char_poly_2x2 = lambda mat: (Fraction(0), Fraction(1))  # disc -4
fails(lambda: g1.eigenforms(24))
g1.char_poly_2x2 = lambda mat: (Fraction(1), Fraction(-1))  # disc 5
g1.squarefree_part = lambda n: (n, 2)
fails(lambda: g1.eigenforms(24))
""")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines() == [
        "rank 1 != dim 2 at k=24",
        "a(2) = 1/2 is not an integer",
        "basis not in echelon position at k=12",
        "T(2) must have real distinct eigenvalues",
        "5 != 5 * (2)^2",
    ]
