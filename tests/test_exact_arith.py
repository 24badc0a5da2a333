import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelforms import exact_arith
from siegelforms.exact_arith import (
    FactorizationTooHard,
    Fq,
    QuadElem,
    _is_squarefree,
    bernoulli,
    bernoulli_poly,
    divisors,
    factorize,
    finite_field,
    gen_bernoulli,
    is_fundamental_discriminant,
    kronecker,
    min_poly,
    mobius,
    squarefree_part,
)
from siegelforms.g1_modforms import congruence_prime_scan, dim_S
from siegelforms.siegel_g2 import chi10, chi12, eisenstein_g2


def bernoulli_oracle(n):
    """Independent oracle: sum_{k<n+1} C(n+1, k) B_k = 0 solved for B_n."""
    from math import comb

    bs = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(comb(m + 1, k) * bs[k] for k in range(m))
        bs.append(Fraction(-s, m + 1))
    return bs[n]


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == 0
    assert bernoulli(12) == bernoulli_oracle(12) == Fraction(-691, 2730)
    for n in range(20):
        assert bernoulli(n) == bernoulli_oracle(n)


def test_odd_bernoulli_vanish():
    for n in range(3, 40, 2):
        assert bernoulli(n) == 0


def b3_poly(x):
    return x ** 3 - Fraction(3, 2) * x ** 2 + x / 2


def test_gen_bernoulli_direct_sum_oracle():
    # B_{3,chi_D} = |D|^2 sum chi_D(a) B_3(a/|D|), written out by hand
    oracle_m3 = 9 * (b3_poly(Fraction(1, 3)) - b3_poly(Fraction(2, 3)))
    assert gen_bernoulli(3, -3) == oracle_m3 == Fraction(2, 3)
    oracle_m4 = 16 * (b3_poly(Fraction(1, 4)) - b3_poly(Fraction(3, 4)))
    assert gen_bernoulli(3, -4) == oracle_m4 == Fraction(3, 2)
    assert gen_bernoulli(1, 1) == Fraction(-1, 2)


def test_gen_bernoulli_matches_residue_sum():
    # the power-sum form against m^(r-1) sum_a chi(a) B_r(a/m), a mod m
    discs = [D for D in range(-100, 101) if is_fundamental_discriminant(D)]
    assert 1 in discs and len(discs) == 62
    for D in discs:
        m = abs(D)
        chi = [kronecker(D, a) if m > 1 else 1 for a in range(m)]
        for r in range(1, 13):
            oracle = m ** (r - 1) * sum(
                (c * bernoulli_poly(r, Fraction(a, m)) for a, c in enumerate(chi) if c),
                Fraction(0),
            )
            assert gen_bernoulli(r, D) == oracle, (r, D)


def test_gen_bernoulli_feeds_frozen_siegel_tables():
    # chi10, chi12 and E_k get their Eisenstein coefficients from Cohen's
    # function, i.e. from gen_bernoulli; digests of the tables at
    # max_disc 100 as the residue-sum implementation computed them, and of
    # E_k as its direct divisor sum over Cohen's function computed them
    frozen = {
        chi10: "d90be16bb30cb9ad3f72ee7d1a1fd948c460861d32ec741e4add744f01ee3c38",
        chi12: "b6e0999dfa98fdf65780d0787523b8f02fabee60718bcf7791d25e218cca094b",
        lambda *size: eisenstein_g2(4, *size): "455368283a0c813d6c7f30ed45604ffe2d7f366dafc4d8aa6f312dd92818bda4",
        lambda *size: eisenstein_g2(6, *size): "5c86570dd6076b53eb0398661d2d4a0548c684f850aff2980600ba80eb8f88f3",
        lambda *size: eisenstein_g2(10, *size): "d09ac9dcb58f6ee6666b383ed0056c8d424a87c252d434f9848215851d31167e",
        lambda *size: eisenstein_g2(12, *size): "213cb2a931debcf8fa21ddcff60138b6588ce2172266d6fe0e6cdd034f5fd380",
    }
    for form, digest in frozen.items():
        rows = json.dumps(form(100, 25).to_json_rows(), separators=(",", ":"))
        assert hashlib.sha256(rows.encode()).hexdigest() == digest


def test_gen_bernoulli_rejects_non_fundamental():
    with pytest.raises(ValueError):
        gen_bernoulli(2, 9)  # square
    with pytest.raises(ValueError):
        gen_bernoulli(2, -12)  # 4m with m = 1 mod 4
    with pytest.raises(ValueError):
        gen_bernoulli(2, 45)  # not squarefree


def test_kronecker_values():
    assert kronecker(-3, 2) == -1  # 2 inert in Q(sqrt(-3)); 2^1 = 2 = -1 mod 3
    assert pow(2, (3 - 1) // 2, 3) == 3 - 1
    for D in (-3, -4, 5, 8, 1, -7, 12):
        assert kronecker(D, 1) == 1
    assert kronecker(-4, 2) == 0


@given(
    st.sampled_from([-8, -7, -4, -3, 1, 5, 8, 12, 13]),
    st.integers(1, 400),
    st.integers(1, 400),
)
@settings(max_examples=120)
def test_kronecker_multiplicative(D, m, n):
    assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)


def test_kronecker_periodicity_odd_prime():
    # against the Legendre symbol as Euler's criterion
    for p in (3, 5, 7, 11, 13):
        for D in range(-20, 21):
            if D % p == 0:
                assert kronecker(D, p) == 0
            else:
                euler = pow(D % p, (p - 1) // 2, p)
                assert kronecker(D, p) == (1 if euler == 1 else -1)


def test_fundamental_discriminants():
    fund = [d for d in range(-20, 21) if is_fundamental_discriminant(d)]
    assert fund == [-20, -19, -15, -11, -8, -7, -4, -3, 1, 5, 8, 12, 13, 17]


def test_fundamental_discriminants_match_the_definition():
    # D != 0, D = 0, 1 mod 4, and no square f^2 > 1 leaves D / f^2 = 0, 1 mod 4
    for D in range(-500, 501):
        reducible = any(
            D % (f * f) == 0 and D // (f * f) % 4 in (0, 1) for f in range(2, abs(D) + 1)
        )
        assert is_fundamental_discriminant(D) == (D != 0 and D % 4 in (0, 1) and not reducible), D


def test_divisors_and_mobius():
    sieve = [[] for _ in range(3001)]
    for d in range(1, 3001):
        for n in range(d, 3001, d):
            sieve[n].append(d)
    for n in range(1, 3001):
        divs = divisors(n)
        assert divs == sieve[n]
        # sum_{d | n} mu(d) = [n = 1] fixes mu(n) once mu is right below n
        assert sum(mobius(d) for d in divs) == (n == 1)
        assert _is_squarefree(n) == (mobius(n) != 0)
    assert not _is_squarefree(0)


def test_squarefree_part():
    assert squarefree_part(83041344) == (144169, 24)
    assert squarefree_part(1) == (1, 1)
    for n in (2, 4, 12, 360, 144169):
        s, c = squarefree_part(n)
        assert s * c * c == n
        assert all(e == 1 for e in factorize(s).values()) or s == 1


def test_factorize():
    assert factorize(2 ** 5 * 3779 * 41) == {2: 5, 41: 1, 3779: 1}
    f = factorize(282720345772032)
    assert f[3779] == 1
    n = 1
    for p, e in f.items():
        n *= p ** e
    assert n == 282720345772032


def test_factorize_step_cap_raises(monkeypatch):
    # a composite cofactor that rho cannot split within the cap raises,
    # where a search without a cap would run on
    n = 1000003 * 1000033
    assert factorize(n) == {1000003: 1, 1000033: 1}
    monkeypatch.setattr(exact_arith, "RHO_STEP_CAP", 10)
    with pytest.raises(FactorizationTooHard, match="40-bit number in 10 Pollard rho steps"):
        factorize(n)


def test_congruence_scans_stay_a_tenth_below_the_step_cap(monkeypatch):
    # the cap keeps a factor of ten or more over what the scans need
    monkeypatch.setattr(exact_arith, "RHO_STEP_CAP", exact_arith.RHO_STEP_CAP // 10)
    for r in range(12, 39, 2):
        if dim_S(r) in (1, 2):
            congruence_prime_scan(r)


# -- finite fields


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_fq2_frobenius_fixed_field(p):
    F = finite_field(p * p)
    rng = random.Random(p)
    for _ in range(1000):
        x = rng.randrange(F.q)
        assert F.pow(x, p * p) == x
    # Frobenius is an automorphism: (x + y)^p = x^p + y^p, (xy)^p = x^p y^p
    for _ in range(100):
        x, y = rng.randrange(F.q), rng.randrange(F.q)
        assert F.pow(F.add(x, y), p) == F.add(F.pow(x, p), F.pow(y, p))
        assert F.pow(F.mul(x, y), p) == F.mul(F.pow(x, p), F.pow(y, p))


def test_fq_field_axioms_small():
    for q in (4, 9, 16, 25, 49, 81):
        F = finite_field(q)
        for x in range(1, q):
            assert F.mul(x, F.inv(x)) == 1
        # distributivity spot check
        rng = random.Random(q)
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_fq_chi_squares():
    for q in (3, 5, 9, 13, 25, 49, 81):
        F = finite_field(q)
        for x in range(1, q):
            assert F.chi(F.mul(x, x)) == 1
        assert F.chi(0) == 0
        if F.p != 2:
            assert sum(F.chi(x) for x in range(q)) == 0


def test_fq_tower_deterministic_modulus():
    F9 = finite_field(9)
    assert F9.modulus == (0, 1)  # x^2 + 1 over F_3
    F4 = finite_field(4)
    assert F4.modulus == (1, 1)  # x^2 + x + 1 over F_2
    F81 = finite_field(81)
    assert F81.base.q == 9


@pytest.mark.parametrize("product", [lambda x, y: x, lambda x, y: 0])
def test_generator_search_stops_on_a_product_that_is_not_a_field_product(product, monkeypatch):
    # in a field every power sequence returns to 1 within q - 1 steps; a
    # broken product must raise there instead of growing its tables forever
    F = Fq(3, base=finite_field(3))
    monkeypatch.setattr(F, "_tower_mul", product)
    with pytest.raises(ValueError, match="not a field product"):
        F.generator()


# -- quadratic field elements


def test_quadelem_mixed_disc_rejected():
    with pytest.raises(ValueError):
        QuadElem(9, 1, 1)  # perfect square
    with pytest.raises(ValueError):
        QuadElem(-5, 1, 1)


def test_quadelem_min_poly():
    x = QuadElem(144169, 540, 12)
    c0, c1, c2 = min_poly(x)
    assert c2 == 1 and c1 == -1080
    assert c0 == 540 ** 2 - 144 * 144169


def test_min_poly_of_rationals_and_quadelems():
    x = QuadElem(144169, 540, 12)
    assert min_poly(x) == min_poly(QuadElem(144169, 540, -12))
    assert min_poly(QuadElem(5, Fraction(-3, 2), 0)) == [3, 2]
    assert min_poly(Fraction(-528)) == min_poly(-528) == [528, 1]
    assert min_poly(Fraction(1, 2)) == [-1, 2]  # not monic: not an integer


def test_quadelem_to_json():
    x = QuadElem(51349, Fraction(4320), Fraction(-25, 48))
    assert x.to_json() == {"disc": 51349, "a": "4320", "b": "-25/48"}


def _digit_sum(F, x, y, sign=1):
    # x + sign y on base-p digits mod p
    p, out, place = F.p, 0, 1
    while x or y:
        out += (x + sign * y) % p * place
        x, y, place = x // p, y // p, place * p
    return out


def _tower_product(F, x, y):
    # the quadratic tower written out down to F_p: (x0 + x1 t)(y0 + y1 t)
    # with t^2 = -B - A t over the base field
    if F.base is None:
        return x * y % F.p
    b, (A, B) = F.base, F.modulus
    x0, x1, y0, y1 = x % b.q, x // b.q, y % b.q, y // b.q
    z2 = _tower_product(b, x1, y1)
    z1 = _digit_sum(b, _tower_product(b, x0, y1), _tower_product(b, x1, y0))
    z0 = _tower_product(b, x0, y0)
    lo = _digit_sum(b, z0, _tower_product(b, B, z2), -1)
    hi = _digit_sum(b, z1, _tower_product(b, A, z2), -1)
    return lo + b.q * hi


@pytest.mark.parametrize("q", [4, 9, 16, 25, 49, 81])
def test_fq_tables_match_the_tower(q):
    # every product of the log/antilog tables, every sum through the Zech
    # table (1 + y adds 1 to y's lowest digit) and every negative, and pow,
    # inv and chi read from them, against the tower product and sums and
    # negatives of base-p digits mod p
    F = finite_field(q)
    for x in range(q):
        assert [F.mul(x, y) for y in range(q)] == [_tower_product(F, x, y) for y in range(q)]
        assert [F.add(x, y) for y in range(q)] == [_digit_sum(F, x, y) for y in range(q)]
        assert F.neg(x) == _digit_sum(F, 0, x, -1)
        assert F.add(x, F.neg(x)) == 0
    squares = {_tower_product(F, x, x) for x in range(1, q)}
    for x in range(1, q):
        power = 1
        for n in range(q + 1):
            assert F.pow(x, n) == power
            power = _tower_product(F, power, x)
        assert _tower_product(F, x, F.inv(x)) == 1
        assert F.pow(x, -1) == F.inv(x)
        assert F.chi(x) == (1 if x in squares or F.p == 2 else -1)
    assert (F.pow(0, 0), F.pow(0, 3), F.chi(0)) == (1, 0, 0)
