from fractions import Fraction

import pytest

from siegelforms import hecke_satake
from siegelforms.hecke_satake import (
    ALL_IDENTITIES,
    EulerFactor,
    SatakeElement,
    SatakeParams,
    eigen_from_params,
    m_count,
    newton_slopes,
    phi,
    poly_mul,
    satake_T0_extension,
    satake_Ti,
    satake_Tp,
    sk_spin_factor,
    spin_factor,
    standard_factor,
    verify_identity,
)
from siegelforms.hecke_satake import _m_poly
from siegelforms.g2data import s68_table


def test_all_identities():
    for name in ALL_IDENTITIES:
        assert verify_identity(name), name
    with pytest.raises(ValueError):
        verify_identity("nonsense")


# wrong terms added to a T_i(p^2) image, and the identities each one fails:
# phi_1^2 breaks the Weyl invariance of T_0(p^2), T(p)^2 keeps it and moves
# the v_1^2 v_2^2 coefficient, and only quartic_phi0 sees the other two
WRONG_TERMS = {
    "phi1_squared": (phi(2, 1) * phi(2, 1), {"quartic_phi0", "square_relation"}),
    "Tp_squared": (satake_Tp(2) * satake_Tp(2), {"quartic_phi0", "square_relation"}),
    "phi0_phi2": (phi(2, 0) * phi(2, 2), {"quartic_phi0"}),
    "phi0_phi2_over_P": (phi(2, 0) * phi(2, 2) * SatakeElement.prime_power(2, -1), {"quartic_phi0"}),
}


@pytest.mark.parametrize("term", sorted(WRONG_TERMS))
@pytest.mark.parametrize("i", [1, 2])
def test_identities_catch_a_wrong_Ti_image(monkeypatch, i, term):
    wrong, expected = WRONG_TERMS[term]
    monkeypatch.setattr(
        hecke_satake, "satake_Ti", lambda g, j: satake_Ti(g, j) + wrong if (g, j) == (2, i) else satake_Ti(g, j)
    )
    # satake_Ti(2, 0) memoizes a T_0 built from the module's satake_Ti(2, 1)
    # and satake_Ti(2, 2)
    satake_Ti.cache_clear()
    try:
        assert {name for name in ALL_IDENTITIES if not verify_identity(name)} == expected
    finally:
        monkeypatch.undo()
        satake_Ti.cache_clear()
    assert all(verify_identity(name) for name in ALL_IDENTITIES)


def test_every_identity_can_fail():
    # the test above pins the identities each wrong term fails
    assert set().union(*(expected for _, expected in WRONG_TERMS.values())) == set(ALL_IDENTITIES)


def test_spin_factor_rejects_empty_spaces():
    for j, k in ((5, 8), (-6, 8), (0, 0)):  # odd j, negative j, weight -3
        with pytest.raises(ValueError):
            spin_factor(j, k, 0, 0, 2)


def test_printed_images_g2():
    P = SatakeElement.prime_power
    assert satake_Ti(2, 2) == phi(2, 0) * phi(2, 2) * P(2, -3)
    t1 = satake_Ti(2, 1)
    expect = (
        phi(2, 0) * phi(2, 1) * P(2, -1)
        + phi(2, 0) * phi(2, 2) * (P(2, -1) + P(2, -3, -1))
        + phi(2, 1) * phi(2, 2) * P(2, -1)
    )
    assert t1 == expect
    assert satake_Tp(2) == phi(2, 0) + phi(2, 1) + phi(2, 2)


def test_printed_image_g1_T0():
    p0, p1 = phi(1, 0), phi(1, 1)
    P = SatakeElement.prime_power
    printed = p0 * p0 + p0 * p1 * (P(1, 0) + P(1, -1, -1)) + p1 * p1
    assert satake_Ti(1, 0) == printed
    # the corank-count formula extended to i = 0 matches at genus 1 ...
    assert satake_T0_extension(1) == printed


def test_T0_extension_fails_at_g2():
    # ... but NOT at genus 2, where the square relation pins a different
    # image (phi_0 phi_2 coefficient -2/P, not (P^3 - P^2)/P^3)
    assert satake_T0_extension(2) != satake_Ti(2, 0)


def test_weyl_invariance_of_images():
    for g in (1, 2):
        for el in [satake_Tp(g)] + [satake_Ti(g, i) for i in range(g + 1)]:
            assert el.is_weyl_invariant()
    # a non-invariant element for contrast
    assert phi(2, 1).weyl_swap(0) != phi(2, 1)
    u1v2 = phi(2, 0) * phi(2, 1)
    assert u1v2.is_weyl_invariant() is False


def test_m_count_brute_force():
    assert m_count(0, 0, 3) == 1
    for p in (3, 5, 7):
        assert m_count(1, 0, p) == p - 1
        assert m_count(1, 1, p) == 1
        assert m_count(2, 1, p) == p * p - 1
        assert m_count(2, 2, p) == 1
        assert m_count(2, 0, p) == p ** 3 - p ** 2
        for h in (0, 1, 2):
            total = sum(m_count(h, i, p) for i in range(h + 1))
            assert total == p ** (h * (h + 1) // 2)
            for i in range(h + 1):
                assert m_count(h, i, p) == sum(c * p ** e for e, c in _m_poly(h, i).items())
    # h = 3 supported by brute force; sanity: counts partition the space
    assert sum(m_count(3, i, 3) for i in range(4)) == 3 ** 6


def test_spin_factor_s68_p2():
    f = spin_factor(6, 8, 0, -57344, 2)
    assert f.coeffs == [1, 0, -204800, 0, 2 ** 38]
    assert f.weight == 19


def test_spin_factor_scalar_reduction():
    # j = 0 gives the classical genus-2 shape with w = 2k - 3
    k, p, lam, lam2 = 10, 2, Fraction(240), Fraction(1 * 10 ** 6)
    f = spin_factor(0, k, lam, lam2, p)
    w = 2 * k - 3
    assert f.coeffs[1] == -lam
    assert f.coeffs[2] == lam ** 2 - lam2 - Fraction(p) ** (w - 1)
    assert f.coeffs[3] == -lam * Fraction(p) ** w
    assert f.coeffs[4] == Fraction(p) ** (2 * w)


def test_sk_spin_factor_chi10():
    f, lam, lam2 = sk_spin_factor(-528, 10, 2)
    target = poly_mul(
        poly_mul([Fraction(1), -Fraction(2 ** 8)], [Fraction(1), -Fraction(2 ** 9)]),
        [Fraction(1), Fraction(528), Fraction(2 ** 17)],
    )
    assert f.coeffs == target
    assert lam == -528 + 2 ** 9 + 2 ** 8 == 240
    # X^3 coefficient is -lambda(p) p^(2k-3)
    assert f.coeffs[3] == -lam * Fraction(2) ** 17
    # consistency with the generic quartic shape
    assert spin_factor(0, 10, lam, lam2, 2).coeffs == f.coeffs


def test_sk_rejects_empty_weight():
    with pytest.raises(ValueError):
        sk_spin_factor(0, 6, 2)  # dim S_10 = 0, nothing to lift
    sk_spin_factor(-24, 7, 2)  # 2k-2 = 12 has a cusp form: fine


def test_sk_slopes_contain_zeta_factors():
    for k in (10, 12):
        from siegelforms.g1_modforms import eigenforms

        f = eigenforms(2 * k - 2)[0]
        for p in (2, 3, 5):
            factor, lam, lam2 = sk_spin_factor(f.a(p), k, p)
            slopes = newton_slopes(factor, p)
            assert Fraction(k - 1) in slopes and Fraction(k - 2) in slopes


def test_newton_slopes_s68_rows():
    for p, (lam, lamsq, slopes) in s68_table().items():
        got = newton_slopes(spin_factor(6, 8, lam, lamsq, p), p)
        assert tuple(got) == slopes


def test_newton_slopes_trivial():
    f = EulerFactor([Fraction(1), Fraction(-(1 + 5)), Fraction(5)], 5, 1)
    assert newton_slopes(f, 5) == [0, 1]
    with pytest.raises(ValueError):
        newton_slopes(EulerFactor([Fraction(0), Fraction(1)], 5, 1), 5)
    with pytest.raises(ValueError):
        newton_slopes(EulerFactor([Fraction(1, 2), Fraction(1)], 5, 1), 5)
    for p in (1, 4, 0):
        with pytest.raises(ValueError, match="not a prime"):
            newton_slopes(f, p)


def test_standard_factor_eisenstein():
    k, p = 4, 2
    params = SatakeParams.eisenstein(2, k, p)
    params.validate()
    f = standard_factor(params)
    target = [Fraction(1)]
    for root in (
        Fraction(1),
        Fraction(p) ** (k - 1),
        Fraction(p) ** (1 - k),
        Fraction(p) ** (k - 2),
        Fraction(p) ** (2 - k),
    ):
        target = poly_mul(target, [Fraction(1), -root])
    assert f.coeffs == target
    assert len(f.coeffs) - 1 == 5


def test_standard_factor_trivial_params():
    params = SatakeParams(1, Fraction(1), [Fraction(1)], 3, weight_sum=1)
    f = standard_factor(params)
    assert f.coeffs == poly_mul(
        poly_mul([Fraction(1), Fraction(-1)], [Fraction(1), Fraction(-1)]),
        [Fraction(1), Fraction(-1)],
    )


def test_eigen_from_params_g1():
    # (alpha_0, alpha_1) = (beta, conj/beta) gives lambda(p) = a(p); use the
    # Eisenstein-like rational point beta = p^(k-1), conj = 1
    k, p = 12, 5
    beta = Fraction(p) ** (k - 1)
    params = SatakeParams(1, beta, [1 / beta], p, weight_sum=k)
    lam, lams2 = eigen_from_params(params)
    assert lam == beta + 1  # a(p) of the Eisenstein eigensystem
    assert len(lams2) == 2


def test_eigen_from_params_validates_relation():
    bad = SatakeParams(2, Fraction(2), [Fraction(1), Fraction(1)], 3, weight_sum=8)
    with pytest.raises(ValueError):
        eigen_from_params(bad)


def test_eigen_from_params_g2_consistency():
    # substituting Eisenstein parameters into the T(p) image agrees with the
    # elementary-symmetric formula alpha_0 (1 + s1 + s2)
    for k, p in ((4, 2), (6, 3)):
        params = SatakeParams.eisenstein(2, k, p)
        lam, _ = eigen_from_params(params)
        a1, a2 = params.alphas
        assert lam == 1 + a1 + a2 + a1 * a2


def test_euler_factor_json():
    f = spin_factor(6, 8, 0, -57344, 2)
    js = f.to_json()
    assert js["coeffs"][2] == "-204800"
    assert js["p"] == 2 and js["weight"] == 19
