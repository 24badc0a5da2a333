import cmath
import dataclasses
import hashlib
import math
import random
import sys
import threading
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelforms import census, cohom, g1_modforms
from siegelforms.census import CensusInvariantError, FieldTooLarge
from siegelforms.cohom import (
    DimNotOne,
    _cheb_coeffs,
    NotRegular,
    ec_full_A2,
    eis_correction,
    endo_correction,
    lambda_psq,
    motive_trace,
    sp_char,
    trace_T_Sjk,
)
from siegelforms.exact_arith import InvalidInput
from siegelforms.g1_modforms import dim_S, hecke_T, mat_trace
from siegelforms.g2data import congruence_rows, cusp_dims_jk, dim_S_jk, published_lambdas, s68_table


def test_sp_char_rejects_l_below_m_or_negative_m():
    for l, m in ((2, 5), (3, -1)):
        with pytest.raises(InvalidInput):
            sp_char(l, m, 1, 1, 3)


def test_ec_full_A2_rejects_l_below_m_or_negative_m():
    for l, m in ((2, 5), (3, -1)):
        with pytest.raises(InvalidInput):
            ec_full_A2(l, m, 3)


def test_motive_trace_rejects_i_below_one():
    for i in (0, -1):
        with pytest.raises(InvalidInput):
            motive_trace(12, 3, i)


def test_sigma_weighted_rejects_negative_k():
    # k = -2 would read row 0 at n = -1, its last entry
    cohom.sigma_weighted(12, 5)
    for k in (-1, -2):
        with pytest.raises(InvalidInput):
            cohom.sigma_weighted(k, 5)


def test_odd_weights_load_their_censuses():
    # odd k and odd l - m sum to 0 without a table, but not without a census
    with pytest.raises(FieldTooLarge):
        cohom.sigma_weighted(1, 6)
    with pytest.raises(FieldTooLarge):
        ec_full_A2(1, 0, 25)


def test_sigma_weighted_rejects_an_asymmetric_census(golden_cache, monkeypatch):
    # ell_census(11) with its t = -6 count moved to t = -5: the mass and the
    # model count still hold, but sigma_2 comes out 13/2
    golden = census.ell_census(11)
    counts = dict(golden.counts)
    counts[-5] += counts.pop(-6)
    stand_in = types.SimpleNamespace(
        q=11, counts=counts, group_order=golden.group_order, _moment_tables={}
    )
    monkeypatch.setattr(cohom, "ell_census", lambda _q: stand_in)
    with pytest.raises(CensusInvariantError, match="not whole"):
        cohom.sigma_weighted(2, 11)


def test_motive_trace_rejects_non_prime_p():
    # also where S_k is zero and the trace would be 0 for any p
    for k, p in ((12, 1), (12, 4), (12, 9), (10, 4)):
        with pytest.raises(InvalidInput):
            motive_trace(k, p, 1)


def test_cheb_D():
    def D(n, a, q):  # Horner over the coefficients of D_n
        acc = a * 0
        for c in reversed(_cheb_coeffs(n, q)):
            acc = acc * a + c
        return acc

    assert D(1, Fraction(7), 3) == 1
    assert D(3, Fraction(5), 3) == 25 - 3


def test_sp_char_closed_forms():
    for q in (3, 5, 7):
        for t1 in range(-4, 5):
            for e in range(-6, 7):
                assert sp_char(0, 0, t1, e, q) == 1
                assert sp_char(1, 0, t1, e, q) == t1
                assert sp_char(1, 1, t1, e, q) == e + q


def weyl_char_numeric(l, m, th1, th2, q, lib=math):
    """Sp(4) Weyl character at alpha_i = sqrt(q) e^(i theta_i), via the
    ratio-of-sines determinant (an independent route to the same value)."""
    num = lib.sin((l + 2) * th1) * lib.sin((m + 1) * th2) - lib.sin(
        (m + 1) * th1
    ) * lib.sin((l + 2) * th2)
    den = (
        lib.sin(th1)
        * lib.sin(th2)
        * 2
        * lib.sqrt(q)
        * (lib.cos(th1) - lib.cos(th2))
    )
    scale = lib.mpf(q) if hasattr(lib, "mpf") else float(q)
    return scale ** ((l + 1 + m) / 2.0) * num / den


def test_sp_char_vs_weyl_oracle():
    import mpmath as mp

    rng = random.Random(42)
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
            ours = sp_char(l, m, x + y, x * y, q)
            oracle = weyl_char_numeric(l, m, th1, th2, q, mp)
            scale = max(abs(oracle), mp.mpf(1))
            assert abs(ours - oracle) / scale < mp.mpf(10) ** -9, (l, m, q)
            checked += 1


def test_odd_weight_vanishing():
    # for odd l - m the per-class sp_char oracle sums to 0 over every
    # sector, since its odd h_k cancel over the twist-symmetric classes;
    # _sector_sum returns that 0 without building a moment table
    for q in (3, 5, 7):
        g2c, e1, e2 = (dataclasses.replace(c) for c in cohom._require_censuses(q))
        for classes, c in (
            (cohom._jacobians, g2c),
            (cohom._untwisted_products, e1),
            (cohom._twisted_products, e2),
        ):
            sector = classes(c)
            for l in range(9):
                for m in range((l + 1) % 2, l + 1, 2):
                    want = sum(w * sp_char(l, m, t1, e, q) for (t1, e), w in sector.items())
                    assert cohom._sector_sum(classes, c, l, m, q) == want == 0, (classes, l, m, q)
            assert c._moment_tables == {}, (classes, q)
        for l in range(9):
            for m in range((l + 1) % 2, l + 1, 2):
                assert ec_full_A2(l, m, q) == (0, 0), (l, m, q)


def _ec_full_A2_by_class(l, m, q, g2c, e1, e2):
    """ec_full_A2 summed class by class through the sp_char oracle."""
    jac = sum(cnt * sp_char(l, m, t1, e, q) for (t1, e), cnt in g2c.counts.items())
    unt = sum(
        ct * ctp * sp_char(l, m, t + tp, t * tp, q)
        for t, ct in e1.counts.items()
        for tp, ctp in e1.counts.items()
    )
    tw = sum(c2 * sp_char(l, m, 0, -(t2 + 2 * q), q) for t2, c2 in e2.counts.items())
    return (
        Fraction(jac * (q - 1), 2 * g2c.group_order),
        Fraction(unt, 2 * e1.group_order ** 2) + Fraction(tw, 2 * e2.group_order),
    )


def _assert_tables_match_oracle(q, pairs, monkeypatch):
    censuses = cohom._require_censuses(q)
    want = {(l, m): _ec_full_A2_by_class(l, m, q, *censuses) for l, m in pairs}
    # each order starts from new census objects, hence new moment tables:
    # increasing weight extends a table at almost every step
    for ordered in (sorted(pairs), sorted(pairs, reverse=True)):
        fresh = tuple(dataclasses.replace(c) for c in censuses)
        with monkeypatch.context() as patch:
            patch.setattr(cohom, "_require_censuses", lambda _q: fresh)
            for l, m in ordered:
                assert ec_full_A2(l, m, q) == want[l, m], (l, m, q)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_moment_tables_match_sp_char_small_q(q, monkeypatch):
    pairs = [(l, m) for l in range(17) for m in range(l + 1)]
    _assert_tables_match_oracle(q, pairs, monkeypatch)


@pytest.mark.parametrize("q", [11, 13])
def test_moment_tables_match_sp_char_golden(q, golden_cache, monkeypatch):
    pairs = [(0, 0), (1, 1), (5, 0), (11, 5), (17, 9), (24, 23), (30, 2), (35, 17)]
    _assert_tables_match_oracle(q, pairs, monkeypatch)


def test_moment_tables_follow_the_census_objects(golden_cache, monkeypatch):
    q = 11
    jac, prod = ec_full_A2(11, 5, q)
    golden = census.g2_census(q)
    # a census with other counts replaces the golden one; the tables must follow
    for factor in (2, 3):
        scaled = dataclasses.replace(
            golden, counts={key: factor * c for key, c in golden.counts.items()}
        )
        (golden_cache / "g2_q11_v1.json").unlink()
        monkeypatch.setattr(census, "_g2_census_compute", lambda _q, c=scaled: c)
        census.set_cache_dir(golden_cache)
        assert census.g2_census(q) is scaled
        assert ec_full_A2(11, 5, q) == (factor * jac, prod), factor


def test_moment_tables_are_safe_to_share_across_threads(golden_cache, monkeypatch):
    q = 13
    # rising weights make every thread outgrow the tables the others read
    pairs = sorted(
        ((l, m) for l in range(0, 48, 3) for m in range(0, l + 1, 7)), key=sum
    )
    censuses = cohom._require_censuses(q)
    want = [ec_full_A2(l, m, q) for l, m in pairs]
    fresh = tuple(dataclasses.replace(c) for c in censuses)
    monkeypatch.setattr(cohom, "_require_censuses", lambda _q: fresh)
    got, errors = {}, []

    def run(i):
        try:
            got[i] = [ec_full_A2(l, m, q) for l, m in pairs]
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [got[i] == want for i in range(3)] == [True] * 3


def test_rising_weights_grow_tables_by_antidiagonals(golden_cache, monkeypatch):
    g2c, e1, e2 = (dataclasses.replace(c) for c in cohom._require_censuses(13))
    grown = []
    grow = cohom._grow

    def logged(table, top):
        grown.append((table[0], top))
        return grow(table, top)

    monkeypatch.setattr(cohom, "_grow", logged)
    for classes, c in (
        (cohom._jacobians, g2c),
        (cohom._untwisted_products, e1),
        (cohom._twisted_products, e2),
    ):
        grown.clear()
        for weight in range(53):
            cohom._sector_sum(classes, c, weight, 0, 13)
        # each even weight w grows the table to top w // 2, from where the
        # last growth ended (top -1: x_0 and x_1 only); odd weights read none
        assert grown == [(n - 1, n) for n in range(27)], classes
        table = c._moment_tables[classes]
        direct = grow(cohom._empty_table(classes(c)), 26)
        assert table[:2] == direct[:2], classes
        # every class's recurrence took 27 steps and holds x_27, x_28,
        # where x_n = h_{2n}
        es, _, _, steps, _, x, x_next, _ = table[2]
        assert len(es) == len(cohom._fold(classes(c))), classes
        for e, step, x1, x2 in zip(es, steps, x, x_next):
            t1 = math.isqrt(step + 2 * e)
            assert (x1, x2) == (_h(54, t1, e), _h(56, t1, e)), (classes, t1, e)


def _h(k, t1, e):
    """h_k = sum of a1^i a2^(k-i) over the roots of x^2 - t1 x + e, in the
    closed form sum (-e)^i C(k-i, i) t1^(k-2i) (no recurrence)."""
    return sum(
        (-e) ** i * math.comb(k - i, i) * t1 ** (k - 2 * i) for i in range(k // 2 + 1)
    )


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_census_sectors_are_twist_symmetric(q, golden_cache):
    # the odd h_k = t1 x(t1^2, e) cancel class by class only on classes
    # symmetric under t1 -> -t1, so _sector_sum and sigma_weighted may
    # return 0 for odd l - m and odd k
    g2c, e1, e2 = cohom._require_censuses(q)
    for classes, c in (
        (cohom._jacobians, g2c),
        (cohom._untwisted_products, e1),
        (cohom._twisted_products, e2),
        (cohom._curves, e1),
        (cohom._curves, e2),
    ):
        sector = classes(c)
        assert sector, (classes, q)
        assert all(sector.get((-t1, e)) == w for (t1, e), w in sector.items()), (classes, q)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-12, 12), st.integers(-40, 40)),
        st.integers(-5, 5),
        max_size=12,
    ),
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=5
    ),
    st.sampled_from([2, 3, 5, 7, 9, 13]),
)
def test_sector_sum_is_the_weighted_sp_char(drawn, weights, q):
    # one stand-in census and its table serve every weight, in the drawn
    # order, so rising weights grow the table and falling ones read it; its
    # classes are twist-symmetric, as a census's are
    classes = {
        (sign * t1, e): w + drawn.get((-t1, e), 0) for (t1, e), w in drawn.items() for sign in (1, -1)
    }
    census_like = types.SimpleNamespace(_moment_tables={})

    def sector(c):
        return classes

    for a, b in weights:
        l, m = max(a, b), min(a, b)
        want = sum(w * sp_char(l, m, t1, e, q) for (t1, e), w in classes.items())
        assert cohom._sector_sum(sector, census_like, l, m, q) == want, (l, m)


def test_trivial_system_counts_moduli_points():
    # weighted number of principally polarized abelian surfaces: q^3 + q^2
    for q in (3, 5, 7, 9):
        jac, prod = ec_full_A2(0, 0, q)
        assert jac == q ** 3
        assert prod == q ** 2


def test_eis_correction_examples():
    for p in (3, 5, 7):
        assert eis_correction(11, 5, p) == -(p ** 6)
        assert eis_correction(11, 7, p) == -(p ** 8)
        assert eis_correction(19, 9, p) == -motive_trace(22, p, 1) - 2 * p ** 10 + 1
    with pytest.raises(NotRegular):
        eis_correction(5, 5, 3)
    with pytest.raises(NotRegular):
        eis_correction(4, 1, 3)  # l + m odd


def test_endo_correction_examples():
    for p in (3, 5, 7):
        assert endo_correction(11, 5, p) == 0  # dim S_8 = 0
        assert endo_correction(11, 7, p) == 0  # dim S_6 = 0
        tau_p = mat_trace(hecke_T(12, p))
        assert endo_correction(19, 9, p) == -2 * tau_p * p ** 10
    with pytest.raises(NotRegular):
        endo_correction(5, 5, 3)


def test_traces_never_build_a_basis(golden_cache, monkeypatch):
    # the genus-1 traces in both corrections come from the elliptic census
    def no_basis(*args):
        raise AssertionError("a trace built a q-expansion basis")

    monkeypatch.setattr(g1_modforms, "basis_S", no_basis)
    tables = published_lambdas()
    # S[k] feeds both corrections on S_{28,4}, the endoscopic one on
    # S_{18,5} and the Eisenstein one on S_{8,8} and S_{12,6}
    for p in (11, 13, 17):
        for jk in ((4, 10), (18, 5), (28, 4), (8, 8), (12, 6)):
            assert trace_T_Sjk(*jk, p).result == tables[jk][p], (jk, p)
    assert lambda_psq(6, 8, 3) == s68_table()[3][1]


def test_trace_examples():
    assert trace_T_Sjk(6, 8, 3).result == -27000
    assert trace_T_Sjk(4, 10, 3).result == 55080
    for k in range(4, 14):
        if dim_S_jk(2, k) == 0:
            assert trace_T_Sjk(2, k, 3).result == 0


def test_trace_report_terms():
    rep = trace_T_Sjk(6, 8, 3)
    assert rep.full_sum == rep.jac_part + rep.prod_part
    assert rep.result == -(rep.full_sum - rep.eis) + rep.endo
    assert rep.conditional
    js = rep.to_json()
    assert js["is_eigenvalue"] and js["result"] == "-27000"


def test_trace_rejects_irregular():
    with pytest.raises(NotRegular):
        trace_T_Sjk(0, 10, 3)
    with pytest.raises(NotRegular):
        trace_T_Sjk(3, 8, 3)
    with pytest.raises(NotRegular):
        trace_T_Sjk(6, 3, 3)


def test_zero_dimension_cells():
    zeros = [
        (j, k)
        for (j, k), d in sorted(cusp_dims_jk().items())
        if d == 0 and j >= 2 and k >= 4
    ][:20]
    assert len(zeros) == 20
    for j, k in zeros:
        for p in (3, 5, 7):
            assert trace_T_Sjk(j, k, p).result == 0, (j, k, p)


def test_eigenvalue_tables():
    expected = {
        (6, 8): {3: -27000, 5: 2843100, 7: -107822000},
        (4, 10): {3: 55080, 5: -7338900, 7: 609422800},
        (18, 5): {3: -538920, 5: 118939500, 7: 1043249200},
        (28, 4): {3: 30776760, 5: 522308049900, 7: 18814963644400},
        (8, 8): {3: -6408, 5: -30774900, 7: 451366384},
        (12, 6): {3: 68040, 5: 14765100, 7: -334972400},
    }
    for (j, k), vals in expected.items():
        for p, want in vals.items():
            assert trace_T_Sjk(j, k, p).result == want, (j, k, p)


def test_lambda_psq():
    assert lambda_psq(6, 8, 3) == 143765361 == s68_table()[3][1]
    with pytest.raises(DimNotOne):
        lambda_psq(8, 10, 3)  # two-dimensional space
    with pytest.raises(FieldTooLarge):
        lambda_psq(6, 8, 5)  # g2_census(25) is above MAX_Q_G2


def test_dimensions_listed_only_in_the_congruence_rows():
    rows = {(row.j, row.k): row.dim_sjk for row in congruence_rows()}
    dims = cusp_dims_jk()
    assert all(rows[jk] == d for jk, d in dims.items() if jk in rows)
    only_rows = sorted(jk for jk in rows if jk not in dims)
    assert only_rows == [(20, 5), (20, 6), (22, 6), (24, 4), (24, 5), (26, 5), (28, 4), (32, 4)]
    assert [dim_S_jk(*jk) for jk in only_rows] == [rows[jk] for jk in only_rows]
    rep = trace_T_Sjk(28, 4, 3)
    assert rep.dim == 1 and rep.to_json()["is_eigenvalue"]


def test_lambda_psq_on_a_space_only_the_congruence_rows_list():
    # lambda(9) on S_{28,4}: the spinor roots a have |a| = p^(w/2), so both
    # roots y = a + p^w/a of y^2 - lambda y + c, c = e2 - 2 p^w, are real
    # and |y| <= 2 p^(w/2)
    p, w = 3, 28 + 2 * 4 - 3
    lam = trace_T_Sjk(28, 4, p).result
    c = lam ** 2 - lambda_psq(28, 4, p) - p ** (w - 1) - 2 * p ** w
    assert c.denominator == 1 and lam ** 2 >= 4 * c and lam ** 2 <= 16 * p ** w
    assert 4 * p ** w + c >= 0 and (4 * p ** w + c) ** 2 >= 4 * p ** w * lam ** 2


def test_spin_root_symmetric_function():
    # e2 of the spin roots: lambda(p)^2 - lambda(p^2) - p^(w-1)
    lam3 = trace_T_Sjk(6, 8, 3).result
    lam9 = lambda_psq(6, 8, 3)
    w = 6 + 2 * 8 - 3
    e2 = lam3 ** 2 - lam9 - Fraction(3) ** (w - 1)
    # the Frobenius-square trace is lambda(p)^2 - 2 e2
    from siegelforms.cohom import _trace_at

    tr2 = _trace_at(11, 5, 3, 2).result  # (l, m) = (j + k - 3, k - 3)
    assert tr2 == lam3 ** 2 - 2 * e2


def test_slope_multiset_sums_to_2w():
    from siegelforms.hecke_satake import newton_slopes, spin_factor

    for p, (lam, lamsq, slopes) in s68_table().items():
        f = spin_factor(6, 8, lam, lamsq, p)
        got = newton_slopes(f, p)
        assert sum(got) == 2 * (6 + 2 * 8 - 3)
        assert tuple(got) == slopes


def test_eigenvalues_big_primes():
    from siegelforms.g2data import published_lambdas

    tables = published_lambdas()
    for p in (11, 13, 17):
        for jk in ((4, 10), (18, 5), (28, 4), (8, 8), (12, 6)):
            want = tables[jk].get(p)
            assert want is not None
            assert trace_T_Sjk(jk[0], jk[1], p).result == want, (jk, p)
    # beyond the published S_{6,8} run; frozen from this pipeline
    assert trace_T_Sjk(6, 8, 11).result == 3760397784
    assert trace_T_Sjk(6, 8, 13).result == 9952079500
    assert trace_T_Sjk(6, 8, 17).result == 243132070500


def test_trace_sweep_is_frozen(golden_cache):
    # every (j > 0, k) of the benchmark's sweep at p = 11 and 13, pinned
    # whole: the benchmark checks spaces of dim >= 2 for integrality only
    lines = []
    for j, k in sorted(cusp_dims_jk()):
        if j == 0:
            continue
        for p in (11, 13):
            r = trace_T_Sjk(j, k, p)
            lines.append(f"{j},{k},{p}:{r.jac_part},{r.prod_part},{r.result}")
    assert len(lines) == 306
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1d5c84a1a483e9d514aa7606c752fe3186ee04f42bdd364d706b009e1c0c104c"
