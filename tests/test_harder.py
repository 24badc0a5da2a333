import hashlib
import json
import random
from fractions import Fraction

import mpmath as mp
import pytest

from siegelforms import g1_modforms, harder
from siegelforms.exact_arith import QuadElem, min_poly
from siegelforms.g1_modforms import congruence_prime_scan, critical_ratios, dim_S, eigenforms
from siegelforms.g2data import (
    congruence_rows,
    octic_12_9_p2,
    published_a22,
    published_lambdas,
    quartic_factors,
)
from siegelforms.harder import (
    EigenvalueMismatch,
    check_congruence,
    eigen_records,
    norm_via_resultant,
    run_table,
    verify_reference_row,
)


def _norm_oracle(minpoly_a, minpoly_lam, c):
    """The resultant Res(f, g(x + c)) from numerical roots:
    lc(f)^n lc(g)^m (-1)^(m n) prod_{i,j} (lambda_j - a_i - c), m and n the
    degrees of f = minpoly_a and g = minpoly_lam, with 200 guard bits over
    the size of the product."""
    m, n = len(minpoly_a) - 1, len(minpoly_lam) - 1
    bits = (2 + max(abs(x) for x in [*minpoly_a, *minpoly_lam, c])).bit_length() + 1
    with mp.workprec(200 + m * n * bits):
        alphas = mp.polyroots(minpoly_a[::-1], maxsteps=200, extraprec=2 * bits)
        lams = mp.polyroots(minpoly_lam[::-1], maxsteps=200, extraprec=2 * bits)
        prod = mp.fprod(lam - a - c for a in alphas for lam in lams)
        assert abs(mp.im(prod)) < 0.25
        value = int(mp.nint(mp.re(prod)))
        assert abs(mp.re(prod) - value) < 0.25
    return minpoly_a[-1] ** n * minpoly_lam[-1] ** m * (-1) ** (m * n) * value


def _random_minpoly(rng):
    """Degree 1 or 2, leading coefficient +-1 and distinct roots, as a
    minimal polynomial has."""
    while True:
        size = rng.choice((4, 20, 60))
        poly = [rng.randint(-(2 ** size), 2 ** size) for _ in range(rng.choice((1, 2)))]
        poly.append(rng.choice((1, -1)))
        if len(poly) == 2 or poly[1] ** 2 != 4 * poly[0] * poly[2]:
            return poly


def test_norm_matches_numerical_roots():
    # signed values: Res(x - 3, x - 5) = -2 and Res(x^2 - 2, x^2 - 3) = 1
    cases = [([-3, 1], [-5, 1], 0), ([-2, 0, 1], [-3, 0, 1], 0)]
    assert [norm_via_resultant(*case) for case in cases] == [-2, 1]
    rng = random.Random(24)
    for _ in range(200):
        cases.append((_random_minpoly(rng), _random_minpoly(rng), rng.randint(-(2 ** 40), 2 ** 40)))
    for case in cases:
        assert norm_via_resultant(*case) == _norm_oracle(*case), case


def test_norm_matches_numerical_roots_on_the_table(monkeypatch):
    # every norm the congruence table asks for
    calls = []
    norm = harder.norm_via_resultant

    def recorded(minpoly_a, minpoly_lam, c):
        calls.append((minpoly_a, minpoly_lam, c))
        return norm(minpoly_a, minpoly_lam, c)

    monkeypatch.setattr(harder, "norm_via_resultant", recorded)
    run_table(37)
    assert len(calls) > 60
    for case in calls:
        assert norm(*case) == _norm_oracle(*case), case


@pytest.mark.parametrize(
    "minpoly_a, minpoly_lam",
    [([1, 2], [-5, 1]), ([-5, 1], [1, 0, 3]), ([1], [-5, 1]), ([-5, 1], [-1]),
     ([0, 0, 0, 1], [-5, 1]), ([-5, 1], [1, 0, 0, -1])],
)
def test_norm_rejects_non_monic_and_degrees_outside_1_2(minpoly_a, minpoly_lam):
    with pytest.raises(ValueError):
        norm_via_resultant(minpoly_a, minpoly_lam, 3)


def test_norm_via_resultant_rational_case():
    # both rational: the norm is the plain difference
    n = norm_via_resultant([-10, 1], [-3, 1], 4)
    assert abs(n) == abs(3 - 10 - 4) == 11


def test_norm_example_18_7():
    f30 = eigenforms(30)[0]
    assert f30.a(2) == QuadElem(51349, 4320, 96)
    n = norm_via_resultant(f30.a_min_poly(2), [32736, 1], 2 ** 24 + 2 ** 5)
    assert abs(n) == 282720345772032
    assert n % 3779 == 0


def test_norm_example_12_9():
    f28 = eigenforms(28)[0]
    assert f28.a(2) == QuadElem(18209, -4140, 108)
    lam = QuadElem(25249, -6216, 72)
    n = norm_via_resultant(f28.a_min_poly(2), min_poly(lam), 2 ** 20 + 2 ** 7)
    assert n % 4057 == 0


def test_norm_embedding_independent():
    # conjugating either minimal-polynomial input cannot change the norm
    f28 = eigenforms(28)
    lamp = QuadElem(25249, -6216, 72)
    lamm = QuadElem(25249, -6216, -72)
    c = 2 ** 20 + 2 ** 7
    vals = {
        norm_via_resultant(f.a_min_poly(2), min_poly(lam), c)
        for f in f28
        for lam in (lamp, lamm)
    }
    assert len(vals) == 1


def as_pair(x):
    """(a, b) of x = a + b sqrt(disc), x a QuadElem or a rational."""
    return (x.a, x.b) if isinstance(x, QuadElem) else (x, 0)


def quad_mul(disc, x, y):
    """(a, b) of (x0 + x1 sqrt(disc)) (y0 + y1 sqrt(disc))."""
    return x[0] * y[0] + disc * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def test_quartics_multiply_to_octic():
    q1, q2 = quartic_factors()[(12, 9)]
    res = [(0, 0)] * 9
    for i, a in enumerate(q1):
        for j, b in enumerate(q2):
            c, d = quad_mul(25249, as_pair(a), as_pair(b))
            res[i + j] = (res[i + j][0] + c, res[i + j][1] + d)
    t1, t2, t3, t4 = octic_12_9_p2()
    expect = [1, t1, t2, t3, t4, 2 ** 27 * t3, 2 ** 54 * t2, 2 ** 81 * t1, 2 ** 108]
    assert res == [(e, 0) for e in expect]


def test_quartic_functional_shape_18_7():
    # c4 = 2^(2w), c3 = 2^w c1 with w = 18 + 2*7 - 3 = 29 for both factors
    for factor in quartic_factors()[(18, 7)]:
        c = [Fraction(x) for x in factor]
        assert c[4] == Fraction(2) ** 58
        assert c[3] == Fraction(2) ** 29 * c[1]


def test_eigen_records_sources():
    recs = eigen_records(4, 10, 1, 37)
    assert set(recs) == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    assert recs[3][0].provenance == "census"
    assert recs[11][0].provenance == "published_table"
    assert recs[3][0].value == 55080
    # quartic-only space: records exist only at p = 2
    recs2 = eigen_records(18, 7, 2, 37)
    assert set(recs2) == {2}
    assert {str(r.value) for r in recs2[2]} == {"7920", "-32736"}


def test_census_vs_published_cross_validation():
    # the same lambda(p) from the census and the bundled table must agree;
    # eigen_records raises on any mismatch, so reaching records at all is
    # the check
    for jk in ((4, 10), (18, 5), (28, 4), (8, 8), (12, 6), (6, 8)):
        recs = eigen_records(jk[0], jk[1], 1, 7)
        for p in (3, 5, 7):
            assert recs[p][0].provenance == "census"


def test_mismatch_diagnostic():
    tables = published_lambdas()
    key = (4, 10)
    original = tables[key][3]
    tables[key][3] = original + 1
    try:
        with pytest.raises(EigenvalueMismatch):
            eigen_records(4, 10, 1, 7)
    finally:
        tables[key][3] = original


def test_check_congruence_22_4_10():
    res = check_congruence(4, 10, 22, 41, p_max=37)
    assert res.verdict is True
    assert len(res.entries) == 12
    assert res.conditional
    # worked p = 2 value: -1680 - (-288) - 2^8 - 2^13 = -9840 = 41 * -240
    e2 = [e for e in res.entries if e.p == 2][0]
    assert abs(e2.norm) == 9840


def test_check_congruence_wrong_modulus():
    res = check_congruence(4, 10, 22, 43, p_max=37)
    assert res.verdict is False


@pytest.mark.parametrize("ell", [0, 1, 4])
def test_check_congruence_rejects_non_prime_modulus(ell):
    with pytest.raises(ValueError, match="not a prime"):
        check_congruence(4, 10, 22, ell, p_max=37)


def test_check_congruence_next_prime_flips():
    # non-vacuity: for each verified census row, the next prime above ell
    # fails at some p <= 7
    from siegelforms.exact_arith import is_prime

    for j, k, r, ell in ((4, 10, 22, 41), (12, 7, 24, 73), (18, 5, 26, 43)):
        nxt = ell + 1
        while not is_prime(nxt):
            nxt += 1
        res = check_congruence(j, k, r, nxt, p_max=7)
        assert res.verdict is False, (j, k, r, nxt)


def test_run_table_full():
    results = run_table()
    assert len(results) == 28
    testable = [r for r in results if not r.untestable]
    untestable = [r for r in results if r.untestable]
    assert len(untestable) == 13
    assert all(r.verdict for r in testable)
    keys = {(r.r, r.j, r.k, r.ell) for r in testable}
    assert (22, 4, 10, 41) in keys
    assert (28, 12, 9, 4057) in keys
    assert (30, 18, 7, 3779) in keys
    assert (34, 28, 4, 103) in keys
    # rows with no printed lambda data and dim > 1 are untestable, not failed
    assert (30, 20, 6, 593) in {(r.r, r.j, r.k, r.ell) for r in untestable}


def test_run_table_row_counts():
    rows = congruence_rows()
    assert len(rows) == 41
    assert sum(1 for row in rows if not row.primes) == 14
    with_primes = sum(len(row.primes) for row in rows)
    assert with_primes == 28


def test_verify_reference_row():
    assert verify_reference_row()


def test_verify_reference_row_reads_every_published_a22(monkeypatch):
    # a published a(p) past p_max = 37 is compared too, never skipped
    real = published_a22()
    a41 = eigenforms(22, 42)[0].a(41)
    monkeypatch.setattr(harder, "published_a22", lambda: {**real, 41: a41})
    assert verify_reference_row()
    monkeypatch.setattr(harder, "published_a22", lambda: {**real, 41: a41 + 1})
    with pytest.raises(EigenvalueMismatch, match=r"a\(41\)"):
        verify_reference_row()


def test_published_a22_matches_basis():
    f22 = eigenforms(22)[0]
    for p, ap in published_a22().items():
        assert f22.a(p) == ap


def test_congruence_result_json():
    res = check_congruence(4, 10, 22, 41, p_max=7)
    js = res.to_json()
    assert js["verdict"] is True and js["ell"] == 41
    assert all(set(e) == {"p", "provenance", "norm", "divisible"} for e in js["entries"])


def test_next_prime_flips_every_verified_row():
    from siegelforms.exact_arith import is_prime

    for row in congruence_rows():
        for ell in row.primes:
            base = check_congruence(row.j, row.k, row.r, ell, 37)
            if base.untestable:
                continue
            nxt = ell + 1
            while not is_prime(nxt):
                nxt += 1
            flipped = check_congruence(row.j, row.k, row.r, nxt, 37)
            assert base.verdict is True and flipped.verdict is False, (row, nxt)


def test_dim2_row_resolves_dimension_without_hint():
    # S_{12,9} is 2-dimensional: the census trace is not an eigenvalue, so
    # only the published p = 2 quartic may be used even when the caller
    # does not pass the dimension
    res = check_congruence(12, 9, 28, 4057, p_max=37)
    assert res.verdict is True
    assert {e.p for e in res.entries} == {2}
    assert 3 in res.missing and 37 in res.missing


def test_each_eigenform_is_built_once(monkeypatch):
    # the table asks for eigenforms(r, p_max + 1) once per testable row, and
    # every row of one weight shares the forms; the scan asks for a(0..2),
    # and the ratios read the default 128 coefficients
    builds = []
    form = g1_modforms.EigenformG1

    def counted(weight, disc, coeffs):
        builds.append((weight, len(coeffs), coeffs[2]))  # a(2) tells the two forms apart
        return form(weight, disc, coeffs)

    monkeypatch.setattr(g1_modforms, "EigenformG1", counted)
    g1_modforms._eigenforms.cache_clear()
    table = run_table(37)
    congruence_prime_scan(22)
    critical_ratios(eigenforms(12)[0])
    assert len(builds) == len(set(builds))
    expect = {(res.r, 38) for res in table if not res.untestable} | {(22, 6), (12, 128)}
    assert 38 not in {k for k, _ in expect}  # both rows of weight 38 are untestable
    assert {(k, prec) for k, prec, _ in builds} == expect
    assert len(builds) == sum(dim_S(k) for k, _ in expect)


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_outputs_match_pinned_digests():
    # digests of the outputs of the code that rebuilt every eigenform per call
    assert _sha256([r.to_json() for r in run_table(37)]) == (
        "9242c321ab22a39b78b1e10de55f8ed1e48435e697b7ef9f9fd5b14c5fe01233"
    )
    forms = [
        [k, prec, [f.to_json() for f in eigenforms(k, prec)]]
        for k in range(12, 39, 2)
        if dim_S(k) in (1, 2)
        for prec in (128, 140)
    ]
    assert _sha256(forms) == "641a175bc6e6ad4b2ac5aafa8e9b476d49bfbbed2e1a55a24066b7baa025140a"
    assert _sha256([congruence_prime_scan(r) for r in range(22, 35, 2)]) == (
        "235313a70f20985f63716f4e19c47707ccfaf82bae29b1c9998f108c094dc96a"
    )


def test_outputs_past_the_default_reach_match_pinned_digests():
    # digests of outputs the 128-coefficient forms computed: the scan at
    # the largest weight, and the table at p_max = 41, past the default 37
    assert _sha256(congruence_prime_scan(38)) == (
        "4c1d02b622b5f09b7f57d09a218eaa267b4f9be76b435fcea641d04466b5ab4c"
    )
    assert _sha256([r.to_json() for r in run_table(41)]) == (
        "162af38b70837d0d26ad82128223c8ec5c46b82b1c4f601d26f89ffd6522546c"
    )


def test_require_full_coverage():
    from siegelforms.harder import MissingEigenvalue, require_full_coverage

    full = check_congruence(4, 10, 22, 41, p_max=37)
    assert require_full_coverage(full) is full
    partial = check_congruence(12, 7, 24, 73, p_max=37)
    with pytest.raises(MissingEigenvalue):
        require_full_coverage(partial)


def test_reference_checks_survive_optimized_mode(run_optimized):
    # a tampered published a(p), and a rational quartic factor with an
    # irrational part in the CSV, are rejected under python -O too
    proc = run_optimized("""
from siegelforms import g2data, harder
real_a22 = harder.published_a22()
harder.published_a22 = lambda: {**real_a22, 2: real_a22[2] + 1}
try:
    harder.verify_reference_row()
except harder.EigenvalueMismatch as exc:
    print(exc)
real_csv = g2data._read_csv
def tampered(name):
    rows = real_csv(name)
    if name == "quartic_factors.csv":
        rows[0]["b1"] = "1"
    return rows
g2data._read_csv = tampered
g2data.quartic_factors.cache_clear()
try:
    g2data.quartic_factors()
except ValueError as exc:
    print(exc)
""")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines() == [
        "published a(2) disagrees with the basis",
        "rational quartic factor on S_{18,7} has b1 = 1",
    ]
