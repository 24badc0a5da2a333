import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelforms.census import (
    CACHE_VERSION,
    CacheError,
    CensusInvariantError,
    EllCensus,
    FieldTooLarge,
    G2Census,
    _cache_payload,
    _char_sums,
    _chunk_stats,
    _digit_matrix,
    _ell_census_compute,
    _ell_from_traces,
    _ell_monic,
    _g2_census_compute,
    _g2_pass,
    _log_exp,
    _nonsquarefree_bitmap,
    _orbit_reps,
    _poly_gcd,
    _rep_models,
    _value_map,
    _write_json,
    count_points_ell,
    count_points_g2,
    ell_census,
    g2_census,
    g2_census_direct_masses,
    set_cache_dir,
    squarefree_sextic,
)
from siegelforms.cohom import _cheb_coeffs, motive_trace, sigma_weighted
from siegelforms.exact_arith import finite_field, rat_str
from siegelforms.g1_modforms import dim_S, eigenforms, hecke_T, mat_trace


def test_ell_mass_sums():
    for q in (2, 3, 4, 5, 7, 9, 11, 13, 25, 49):
        assert ell_census(q).mass_sum() == q


def test_f3_frequency_table():
    masses = ell_census(3).masses
    # frequencies of n = 1..7 points; trace t = 4 - n
    freqs = [masses.get(4 - n, Fraction(0)) for n in range(1, 8)]
    assert freqs == [
        Fraction(1, 6),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 6),
    ]


def test_hasse_bound():
    for q in (2, 3, 4, 5, 7, 9, 11, 13, 25, 49, 81, 121, 169):
        for t in ell_census(q).counts:
            assert t * t <= 4 * q


def test_j_class_mass_is_one():
    # group models by j-invariant: each class carries total mass 1
    for q in (3, 5, 7):
        F = finite_field(q)
        masses = {}
        if q == 3:
            group = q * (q - 1)
            for b in range(q):
                for c in range(q):
                    for d in range(q):
                        # disc of x^3 + bx^2 + cx + d (char 3 reduction)
                        disc = (2 * b ** 3 * d + b * b * c * c + 2 * c ** 3) % 3
                        if disc == 0:
                            continue
                        c4 = (b * b) % 3  # b2 = a2, 24 b4 = 0
                        j = F.mul(F.pow(c4, 3), F.inv(disc))
                        masses[j] = masses.get(j, Fraction(0)) + Fraction(1, group)
        else:
            group = q - 1
            for A in range(q):
                for B in range(q):
                    disc = (4 * A ** 3 + 27 * B * B) % q
                    if disc == 0:
                        continue
                    # j = 1728 * 4A^3 / (4A^3 + 27B^2)
                    j = 1728 * 4 * A ** 3 * pow(disc, q - 2, q) % q
                    masses[j] = masses.get(j, Fraction(0)) + Fraction(1, group)
        assert all(m == 1 for m in masses.values())
        assert len(masses) == q


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_ell_census_matches_weierstrass_reference(q):
    # every five-coefficient model, counted one by one; q = 2, 3 and 4 keep
    # the five-coefficient units, q = 5 counts depressed cubics (same masses)
    counts = {}
    for index in range(q ** 5):
        points = count_points_ell(tuple(index // q ** i % q for i in range(5)), q)
        if points is not None:
            counts[q + 1 - points] = counts.get(q + 1 - points, 0) + 1
    group = q ** 3 * (q - 1)
    census = ell_census(q)
    if q < 5:
        assert (census.counts, census.group_order, census.model_count) == (
            counts, group, sum(counts.values())
        )
    assert census.masses == {t: Fraction(c, group) for t, c in counts.items()}


def test_weierstrass_reference_examples():
    # y^2 + y = x^3 - x over F_2 (conductor 37) has 5 points; y^2 = x^3 is
    # the cusp and y^2 = x^3 + x^2 the node in every characteristic
    assert count_points_ell((0, 0, 1, 1, 0), 2) == 5
    for q in (2, 3, 4, 5):
        assert count_points_ell((0, 0, 0, 0, 0), q) is None
        assert count_points_ell((0, 1, 0, 0, 0), q) is None


# the characteristic-2 censuses, frozen: counts, group order, model count
# and the sha256 of the cache file they make
CHAR2_CENSUSES = {
    2: ({-2: 2, -1: 4, 0: 4, 1: 4, 2: 2}, 8, 16,
        "014d9a5413d2aa2cfe0ac33cb1d1c61a89b99fff9260c8059cbe4651b3c649e8"),
    4: ({-4: 8, -3: 96, -2: 64, -1: 192, 0: 48, 1: 192, 2: 64, 3: 96, 4: 8}, 192, 768,
        "711ad4c5bb38fac480325a4567b45486dbb83dec8151dcf1bbf888f7f1beabc6"),
    16: (
        {
            -8: 2560, -7: 61440, -5: 122880, -4: 20480, -3: 122880, -1: 153600, 0: 15360,
            1: 153600, 3: 122880, 4: 20480, 5: 122880, 7: 61440, 8: 2560,
        },
        61440,
        983040,
        "2d65268b92cf06cc786565e665d5d94f5ed6dba3322e935900afce0d60409aba",
    ),
}


@pytest.mark.parametrize("q", sorted(CHAR2_CENSUSES))
def test_char2_censuses_are_pinned(q, tmp_path):
    counts, group_order, model_count, digest = CHAR2_CENSUSES[q]
    census = _ell_census_compute(q)
    assert (census.counts, census.group_order, census.model_count) == (
        counts, group_order, model_count
    )
    path = tmp_path / "ell.json"
    _write_json(path, _cache_payload("ell", q, census))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_sigma10_table():
    vals = [sigma_weighted(10, p) for p in (2, 3, 5, 7, 11)]
    assert vals == [-23, 253, 4831, -16743, 534613]


def test_sigma_odd_vanishes():
    for q in (2, 3, 5, 7, 9):
        for k in (1, 3, 5, 7, 9, 11):
            assert sigma_weighted(k, q) == 0


def test_sigma2_is_one():
    for p in (2, 3, 5, 7, 11, 13):
        assert sigma_weighted(2, p) == 1


def test_sigma_integral():
    for q in (2, 3, 5, 7, 11, 13):
        for k in range(2, 26, 2):
            assert sigma_weighted(k, q).denominator == 1


def test_sigma_hecke_closure():
    # Eichler-Selberg: sigma_{w-2}(q) - 1 is the trace of Frob_q on S[w],
    # tr T(p) over F_p and tr T(p)^2 - 2 d p^(w-1) over F_{p^2}
    for p in (2, 3, 5, 7, 11, 13):
        for w in range(12, 28, 2):
            d = dim_S(w)
            tp = hecke_T(w, p)
            tr2 = sum(tp[i][m] * tp[m][i] for i in range(d) for m in range(d))
            lhs = sigma_weighted(w - 2, p) - 1
            assert lhs == mat_trace(tp), (p, w)
            lhs = sigma_weighted(w - 2, p * p) - 1
            assert lhs == tr2 - 2 * d * Fraction(p) ** (w - 1), (p * p, w)


def cheb_second_kind(n, a, q):
    """D_n(a), Horner over the coefficients of _cheb_coeffs."""
    acc = a * 0
    for c in reversed(_cheb_coeffs(n, q)):
        acc = acc * a + c
    return acc


def test_cheb_second_kind():
    assert cheb_second_kind(1, 5, 7) == 1
    assert cheb_second_kind(2, 5, 7) == 5
    assert cheb_second_kind(3, 5, 7) == 5 * 5 - 7
    # D_{k+1}(t, q) = (alpha^(k+1) - conj^(k+1))/(alpha - conj)
    import cmath

    t, q = 3, 7
    alpha = (t + cmath.sqrt(t * t - 4 * q)) / 2
    beta = (t - cmath.sqrt(t * t - 4 * q)) / 2
    for k in range(1, 9):
        num = (alpha ** (k + 1) - beta ** (k + 1)) / (alpha - beta)
        assert abs(cheb_second_kind(k + 1, t, q) - num.real) < 1e-8


# -- squarefree sextics


def test_squarefree_sextic_examples():
    # x^6 + z^6 = (x^2 + z^2)^3 in characteristic 3
    assert not squarefree_sextic((1, 0, 0, 0, 0, 0, 1), 3)
    # x^6 + x z^5: derivative is 1
    assert squarefree_sextic((0, 1, 0, 0, 0, 0, 1), 3)
    # x^2 z^4: repeated root at [0:1]
    assert not squarefree_sextic((0, 0, 1, 0, 0, 0, 0), 3)
    assert not squarefree_sextic((0,) * 7, 3)


def test_count_points_g2_example():
    assert count_points_g2((0, 1, 0, 0, 0, 0, 1), 3, 1) == 4
    # Weil interval
    for idx in (15, 99, 1234):
        coeffs = tuple((idx // 3 ** i) % 3 for i in range(7))
        if squarefree_sextic(coeffs, 3):
            n1 = count_points_g2(coeffs, 3, 1)
            assert abs(3 + 1 - n1) <= 4 * 3 ** 0.5


def test_count_points_weil_reality():
    q = 5
    rng = random.Random(1)
    for _ in range(20):
        coeffs = tuple(rng.randrange(q) for _ in range(7))
        if all(c == 0 for c in coeffs):
            continue
        if not squarefree_sextic(coeffs, q):
            continue
        n1 = count_points_g2(coeffs, q, 1)
        n2 = count_points_g2(coeffs, q, 2)
        t1 = q + 1 - n1
        a_sq = q * q + 1 - n2 + 4 * q
        e = (t1 * t1 - a_sq) // 2
        assert (t1 * t1 - a_sq) % 2 == 0
        assert t1 * t1 >= 4 * e
        assert (4 * q + e) ** 2 >= 4 * q * t1 * t1


# -- genus-2 census


def test_g2_total_mass_is_q_cubed():
    for q in (3, 5, 7):
        assert g2_census(q).mass_sum() == q ** 3


def test_g2_against_direct_enumeration():
    direct, models = g2_census_direct_masses(3)
    fast = g2_census(3)
    assert fast.masses == direct
    assert fast.model_count == models


def test_g2_real_weil_invariants():
    for q in (3, 5, 7):
        c = g2_census(q)
        for (t1, e), cnt in c.counts.items():
            assert cnt > 0
            assert t1 * t1 >= 4 * e
            assert (4 * q + e) >= 0 and (4 * q + e) ** 2 >= 4 * q * t1 * t1


def _merged(parts):
    counts = {}
    for part in parts:
        for key, c in part.items():
            counts[key] = counts.get(key, 0) + c
    return counts


def test_g2_order_independence():
    # the 340 squarefree representatives of the q = 5 quintics in 7 slices
    (_, S1, S2, weight), = _g2_pass(5, 5)
    slices = zip(*(np.array_split(a, 7) for a in (S1, S2, weight)))
    parts = [_chunk_stats(5, *s) for s in slices]
    assert len(parts) == 7
    assert _merged(parts[::-1]) == _merged(parts)


@pytest.mark.parametrize("q", (3, 5, 37))
def test_chunk_stats_checks_the_weil_box(q):
    # |t1| <= isqrt(16q) and |e| <= 4q; just outside, a negative index would
    # land in the last row or column of the table, so the check must come
    # first (and raise, not assert)
    t1_max = math.isqrt(16 * q)
    for s1, e in ((t1_max + 1, 0), (-t1_max - 1, 0), (0, -4 * q - 1)):
        S1 = np.array([0, s1], dtype=np.int32)
        S2 = 4 * q + 2 * np.array([0, e]) - S1.astype(np.int64) ** 2
        with pytest.raises(CensusInvariantError, match="Weil bound"):
            _chunk_stats(q, S1, S2)
    S1 = np.array([t1_max, 0])
    assert _chunk_stats(q, S1, 4 * q - S1 ** 2 + 2 * np.array([0, -4 * q])) == {
        (-t1_max, 0): 1, (0, -4 * q): 2, (t1_max, 0): 1
    }


def test_g2_polynomiality_in_q():
    # totals at q = 3, 5, 7 are q^3; one degree-3 polynomial fits them all
    totals = {q: g2_census(q).mass_sum() for q in (3, 5, 7)}
    assert all(totals[q] == q ** 3 for q in totals)


def test_g2_rejects_unsupported():
    with pytest.raises(FieldTooLarge):
        _g2_census_compute(19)
    with pytest.raises(FieldTooLarge):
        _g2_census_compute(4)


@pytest.mark.parametrize("p, i", [(2, 4), (5, 4), (37, 2)])
def test_multi_group_censuses_match_eichler_selberg(p, i):
    # censuses over F_16 (characteristic 2), F_625 and F_1369, the largest
    # fields here; the trace on S[k] is alpha^i + beta^i, alpha + beta = a(p)
    # and alpha beta = p^(k-1)
    for k in (12, 16, 18, 20, 22, 26):
        a, norm = eigenforms(k)[0].a(p), p ** (k - 1)
        power_sums = [2, a]  # s_j = a s_(j-1) - norm s_(j-2)
        while len(power_sums) <= i:
            power_sums.append(a * power_sums[-1] - norm * power_sums[-2])
        assert motive_trace(k, p, i) == power_sums[i], (k, p, i)


def test_g2_census_vs_reference_points():
    # vectorized S1/S2 agree with the naive point counter on monic samples
    q = 5
    rng = random.Random(9)
    cen = g2_census(q)
    for _ in range(10):
        coeffs = tuple(rng.randrange(q) for _ in range(6)) + (1,)
        if not squarefree_sextic(coeffs, q):
            continue
        n1 = count_points_g2(coeffs, q, 1)
        n2 = count_points_g2(coeffs, q, 2)
        t1 = q + 1 - n1
        e = (t1 * t1 - (q * q + 1 - n2 + 4 * q)) // 2
        assert (t1, e) in cen.counts


def test_cache_round_trip(tmp_path):
    set_cache_dir(tmp_path)
    try:
        a = g2_census(3)
        files = list(tmp_path.glob("g2_q3_*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["version"] == CACHE_VERSION
        assert payload["kind"] == "g2"
        set_cache_dir(tmp_path)
        b = g2_census(3)  # now read from disk
        assert a.counts == b.counts and a.masses == b.masses
        e1 = ell_census(5)
        set_cache_dir(tmp_path)
        assert ell_census(5).masses == e1.masses
    finally:
        set_cache_dir(None)


def test_checkpoint_of_an_older_version_is_never_read(tmp_path):
    # older versions checkpointed each degree under partial/; a census is
    # now computed whole, so a planted checkpoint with wrong counts is
    # neither read nor touched
    path = tmp_path / "partial" / f"g2_q3_d6_v{CACHE_VERSION}.json"
    path.parent.mkdir()
    key = {"q": 3, "d": 6, "reps": "affine", "version": CACHE_VERSION}
    text = json.dumps({**key, "key_counts": [[0, 0, 1]], "models": 1})
    path.write_text(text)
    truth = _g2_census_compute(3)
    set_cache_dir(tmp_path)
    try:
        assert g2_census(3) == truth
        assert path.read_text() == text
    finally:
        set_cache_dir(None)


def test_failed_cache_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        _write_json(tmp_path / "g2_q3_v1.json", {"counts": {1, 2}})
    assert not list(tmp_path.iterdir())


def test_set_cache_dir_forgets_memoized_censuses(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    try:
        set_cache_dir(a)
        g2_census(3)
        ell_census(3)
        set_cache_dir(b)
        g2_census(3)
        ell_census(3)
        for cache in (a, b):
            assert sorted(p.name for p in cache.iterdir()) == [
                f"ell_q3_v{CACHE_VERSION}.json",
                f"g2_q3_v{CACHE_VERSION}.json",
            ]
    finally:
        set_cache_dir(None)


# -- golden cache files as load fixtures (golden_cache: conftest.py)


def test_golden_caches_load_and_validate(golden_cache, monkeypatch):
    from siegelforms import census as census_mod

    def no_compute(q):
        raise AssertionError(f"q = {q} recomputed instead of loaded")

    monkeypatch.setattr(census_mod, "_g2_census_compute", no_compute)
    monkeypatch.setattr(census_mod, "_ell_census_compute", no_compute)
    for q in (11, 13):
        assert g2_census(q).mass_sum() == q ** 3
        for qq in (q, q * q):
            assert ell_census(qq).mass_sum() == qq


def _tamper(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True))


def _bump_first_count(payload):
    payload["counts"][0][-1] += 2


def _bump_first_count_and_mass(payload):
    # the file stays self-consistent, so only the total-mass check sees it
    _bump_first_count(payload)
    unit = Fraction(payload["q"] - 1, 2) if payload["kind"] == "g2" else Fraction(1)
    mass = payload["counts"][0][-1] * unit / payload["group_order"]
    payload["masses"][0][-1] = rat_str(mass)


def _move_one_count(payload):
    # one count moves from the first class to the second and the masses
    # follow, so only the twist-symmetry check sees it
    unit = Fraction(payload["q"] - 1, 2) if payload["kind"] == "g2" else Fraction(1)
    for row, delta in zip(payload["counts"], (-1, 1)):
        row[-1] += delta
    for row, count in zip(payload["masses"], payload["counts"]):
        row[-1] = rat_str(count[-1] * unit / payload["group_order"])


def _bump_model_count(payload):
    # counts and masses stay as they were, so only the payload round trip
    # sees it: the model count is the group order times the mass
    payload["model_count"] += 2


@pytest.mark.parametrize(
    "name, edit",
    [
        ("g2_q11_v1.json", _bump_first_count),
        ("ell_q13_v1.json", _bump_first_count),
        ("g2_q13_v1.json", _bump_first_count_and_mass),
        ("ell_q169_v1.json", _bump_first_count_and_mass),
        ("ell_q121_v1.json", lambda p: p["counts"].append([23, 1])),  # beyond Hasse
        ("g2_q13_v1.json", lambda p: p["masses"][0].__setitem__(-1, "1")),
        ("g2_q11_v1.json", lambda p: p.update(q=13)),
        ("ell_q11_v1.json", lambda p: p.update(version=CACHE_VERSION + 1)),
        ("ell_q11_v1.json", lambda p: p.update(group_order=0)),
        ("g2_q11_v1.json", _bump_model_count),
        ("ell_q121_v1.json", _bump_model_count),
        ("g2_q13_v1.json", lambda p: p.pop("counts")),
        ("g2_q11_v1.json", _move_one_count),
        ("ell_q169_v1.json", _move_one_count),
    ],
)
def test_tampered_cache_raises(golden_cache, name, edit):
    _tamper(golden_cache / name, edit)
    kind, q = name.split("_")[0], int(name.split("_")[1][1:])
    with pytest.raises(CacheError, match="corrupt census cache"):
        (g2_census if kind == "g2" else ell_census)(q)


@pytest.mark.parametrize("text", ["[1, 2, 3]", '"counts"', "7", "{"])
def test_malformed_cache_payload_raises(golden_cache, text):
    (golden_cache / "g2_q11_v1.json").write_text(text)
    with pytest.raises(CacheError, match="g2_q11_v1.json"):
        g2_census(11)


# -- the point-evaluation kernel

ROOT = Path(__file__).resolve().parents[1]


def test_fresh_censuses_reproduce_golden_cache(tmp_path):
    golden = sorted((ROOT / ".census_cache").glob("*.json"))
    assert {p.name for p in golden} == {
        f"{kind}_q{q}_v{CACHE_VERSION}.json"
        for kind, qs in (("g2", (11, 13)), ("ell", (11, 13, 121, 169)))
        for q in qs
    }
    set_cache_dir(tmp_path)
    try:
        for q in (11, 13):
            g2_census(q)
            ell_census(q)
            ell_census(q * q)
        for path in golden:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
    finally:
        set_cache_dir(None)


def test_censuses_count_in_integers(golden_cache, monkeypatch):
    # a weighted bincount counts in float64: exact only below 2^53
    bincount = np.bincount

    def unweighted(x, weights=None, minlength=0):
        if weights is not None:
            raise AssertionError("a weighted bincount counts in float64")
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(np, "bincount", unweighted)
    assert _ell_census_compute(11) == ell_census(11)
    assert _g2_census_compute(5).mass_sum() == 125


def test_traces_beyond_the_hasse_bound_raise():
    # counted unchecked, t = -7 would wrap onto t = 6 (add.at takes a negative
    # index from the end), and this census would pass every other check
    with pytest.raises(CensusInvariantError, match="Hasse"):
        _ell_from_traces(11, np.array([-7] * 11 + [-6] * 11), 2)


def _monic_form(q, d, index):
    coeffs = [index // q ** i % q for i in range(d)] + [1]
    return tuple(coeffs + [0] * (6 - d))


def _horner(E, coeffs, xs):
    """The polynomial with these coefficients, lowest first, at each x in xs."""
    values = [0] * len(xs)
    for c in reversed(coeffs):
        values = [E.add(E.mul(v, x), c) for v, x in zip(values, xs)]
    return values


@pytest.mark.parametrize("q", (5, 9, 11))
@pytest.mark.parametrize("d", (5, 6))
def test_g2_pass_matches_point_counter(q, d):
    # per model from the census kernel against the naive counter: the roots
    # in F_q, S1, and S2 as q - roots plus twice the sum over conjugate
    # pairs.  The representatives are those that a bitmap over all models
    # leaves unmarked, and the pass keeps the root-free sextics (weight 60
    # per model) and every quintic (weight 60 (q + 1)/(1 + roots))
    F = finite_field(q)
    bitmap = _nonsquarefree_bitmap(q, d, ())
    reps = np.concatenate([np.arange(lo, hi) for lo, hi, _ in _orbit_reps(q, d, 1)])
    idx, weights = _rep_models(q, d, 1)
    assert np.array_equal(idx, reps[~bitmap[reps]])
    s1, roots = _char_sums(q, d, 1, idx)
    pairs, _ = _char_sums(q, d, 2, idx)
    at_infinity = int(d == 6)
    rng = random.Random(q * 10 + d)
    for pos in rng.sample(range(len(idx)), 200):
        form = _monic_form(q, d, int(idx[pos]))
        assert squarefree_sextic(form, q)
        assert roots[pos] == _horner(F, form[: d + 1], range(q)).count(0)
        assert s1[pos] + at_infinity == count_points_g2(form, q, 1) - q - 1
        s2 = q - roots[pos] + 2 * pairs[pos] + at_infinity
        assert s2 == count_points_g2(form, q, 2) - q * q - 1
    if d == 6:
        keep = roots == 0
        weights = 60 * weights[keep]
    else:
        keep = np.ones(len(idx), dtype=bool)
        weights = 60 * (q + 1) // (1 + roots) * weights
    (_, S1, S2, weight), = _g2_pass(q, d)
    assert np.array_equal(S1, s1[keep] + at_infinity)
    assert np.array_equal(S2, (q - roots + 2 * pairs + at_infinity)[keep])
    assert np.array_equal(weight, weights)


@pytest.mark.parametrize(
    "q, d, ext", [(25, 6, 2), (37, 6, 2), (625, 3, 1), (1369, 3, 1), (2401, 3, 1)]
)
def test_char_sums_match_point_counters(q, d, ext):
    # fields of p^2 and p^4 elements, up to 2401 points per model
    F = finite_field(q)
    rng = random.Random(q)
    idx = np.array([rng.randrange(q ** d) for _ in range(40)], dtype=np.int64)
    sums, roots = _char_sums(q, d, ext, idx)
    for pos, index in enumerate(idx.tolist()):
        form = _monic_form(q, d, index)
        values = _horner(F, form[: d + 1], range(q))
        if ext == 2:  # q - roots from F_q, the counter adds 1 + chi(1) at infinity
            s2 = q - values.count(0) + 2 * sums[pos]
            assert s2 == count_points_g2(form, q, ext) - q ** ext - 2
        else:
            assert sums[pos] == sum(F.chi(v) for v in values)
            assert roots[pos] == values.count(0)


@pytest.mark.parametrize("q, d", [(9, 5), (13, 6)])
def test_char_sums_repeat_one_r_over_every_constant_term(q, d):
    # g = r + c_0 for one r and every c_0, shuffled in twice among as many
    # random models: each model against the point counters; no models give
    # empty arrays
    F = finite_field(q)
    rng = random.Random(q * 10 + d)
    r = rng.randrange(q ** (d - 1))
    models = [r * q + c for c in range(q)] + [rng.randrange(q ** d) for _ in range(q)]
    idx = np.array(rng.sample(models * 2, 4 * q), dtype=np.int64)
    s1, roots = _char_sums(q, d, 1, idx)
    pairs, none = _char_sums(q, d, 2, idx)
    assert none is None
    at_infinity = int(d == 6)
    for pos, index in enumerate(idx.tolist()):
        form = _monic_form(q, d, index)
        values = _horner(F, form[: d + 1], range(q))
        assert roots[pos] == values.count(0)
        assert s1[pos] == sum(F.chi(v) for v in values)
        s2 = q - roots[pos] + 2 * pairs[pos] + at_infinity
        assert s2 == count_points_g2(form, q, 2) - q * q - 1
    for ext in (1, 2):
        sums, roots = _char_sums(q, d, ext, idx[:0])
        assert sums.shape == (0,) and (roots is None if ext == 2 else roots.shape == (0,))


def _squarefree(F, g):
    # g monic, lowest-first: squarefree iff g' != 0 and gcd(g, g') = 1
    dg = [F.mul(c, i % F.p) for i, c in enumerate(g)][1:]
    while dg and dg[-1] == 0:
        dg.pop()
    return bool(dg) and len(_poly_gcd(F, g, dg)) == 1


@pytest.mark.parametrize(
    "q, d",
    [(3, 3), (3, 5), (3, 6), (5, 3), (5, 5), (5, 6), (7, 6), (9, 3), (9, 6), (25, 3), (81, 3)],
)
def test_nonsquarefree_marks_match_gcd(q, d):
    # both directions, model by model: every marked model has a repeated
    # factor and every unmarked one has none, on the slab c_{d-1} = 0, on
    # each p | d line c_{d-1} = c, c_{d-2} = 0, and up to q^d = 5^6 on all
    # models
    F = finite_field(q)
    tops = [(0,)] + [(0, c) for c in range(1, q) if d % F.p == 0]
    if q ** d <= 5 ** 6:
        tops.append(())
    for top in tops:
        s = d - len(top)
        bitmap = _nonsquarefree_bitmap(q, d, top)
        assert bitmap.shape == (q ** s,)
        for index in range(q ** s):
            g = [index // q ** j % q for j in range(s)] + list(top) + [1]
            assert bitmap[index] == (not _squarefree(F, g)), (q, d, g)


@pytest.mark.parametrize("q", (11, 13, 17))
@pytest.mark.parametrize("d", (5, 6))
def test_nonsquarefree_marks_match_gcd_at_random(q, d):
    # the slab c_{d-1} = 0 at the largest genus-2 fields, 2000 models each
    F = finite_field(q)
    bitmap = _nonsquarefree_bitmap(q, d, (0,))
    rng = random.Random(q * 10 + d)
    for index in rng.sample(range(q ** (d - 1)), 2000):
        g = [index // q ** j % q for j in range(d - 1)] + [0, 1]
        assert bitmap[index] == (not _squarefree(F, g)), (q, d, g)


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11))
def test_sextic_marks_without_linear_h(q):
    # the sextic pass marks h^2 | g for h of degree 2 and 3 only: every
    # marked sextic has a repeated factor and every unmarked one with no
    # root in F_q has none, on the slab and the p | 6 lines (all models up
    # to q = 5, then 2000 of each range)
    F = finite_field(q)
    rng = random.Random(q)
    for top in [(0,)] + [(0, c) for c in range(1, q) if F.p == 3]:
        size = q ** (6 - len(top))
        bitmap = _nonsquarefree_bitmap(q, 6, top, lowest=2)
        for index in range(size) if q <= 5 else rng.sample(range(size), 2000):
            g = [index // q ** j % q for j in range(6 - len(top))] + list(top) + [1]
            if bitmap[index]:
                assert not _squarefree(F, g), (q, g)
            elif 0 not in _horner(F, g, range(q)):
                assert _squarefree(F, g), (q, g)


# every (q, d, ext) that a census up to q = 13 and its squares builds, and
# the largest fields of the kernel tests
VALUE_MAP_SHAPES = (
    [(q, d, ext) for q in (3, 5, 7, 9, 11, 13) for d in (5, 6) for ext in (1, 2)]
    + [(q, 3, 1) for q in (3, 5, 7, 9, 11, 13, 25, 49, 81, 121, 169)]
    + [(25, 6, 2), (37, 6, 2), (625, 3, 1), (1369, 3, 1)]
)


@pytest.mark.parametrize("q, d, ext", VALUE_MAP_SHAPES)
def test_value_map_matches_horner(q, d, ext):
    # the coordinates of g(x) from (C, C0) against Horner through Fq at
    # every point, for the model 0, each digit basis model (which fix the
    # affine map) and ten random ones
    E = finite_field(q ** ext)
    p = E.p
    m = round(math.log(q ** ext, p))
    # F_q, or one point per conjugate pair of F_{q^2} - F_q
    points = list(range(q)) if ext == 1 else [x for x in range(q, q ** ext) if x < E.pow(x, q)]
    C, C0 = _value_map(q, d, ext)
    assert C.shape == (len(C), len(points), m) and C0.shape == (len(points), m)
    rng = random.Random(q * 100 + d * 10 + ext)
    models = [0] + [p ** j for j in range(len(C))] + [rng.randrange(q ** d) for _ in range(10)]
    for index in models:
        digits = [index // p ** j % p for j in range(len(C))]
        got = (np.array(digits) @ C.reshape(len(C), -1)).reshape(C0.shape) + C0
        for x, coords in zip(points, got % p):
            value = 0
            for c in reversed(_monic_form(q, d, index)[: d + 1]):
                value = E.add(E.mul(value, x), c)
            assert coords.tolist() == _digit_matrix(np.array(value), p, m).tolist(), (
                q, d, ext, index, x
            )


def _full_s2(q, d, idx):
    """sum over all of F_{q^2} of chi(g(x)) for each monic model index: at
    x in F_q, chi of F_{q^2} on g(x) in F_q (whose elements keep their
    indices in F_{q^2}), then twice the sum over the conjugate pairs."""
    F = finite_field(q)
    C, C0 = _value_map(q, d, 1)
    log = _log_exp(q * q)[0]
    parts = []
    for block in np.array_split(idx, len(idx) // 4096 + 1):
        coords = (_digit_matrix(block, F.p, len(C)) @ C.reshape(len(C), -1)).reshape(-1, q, F.k)
        values = (coords + C0) % F.p @ F.p ** np.arange(F.k)
        parts.append(np.where(values == 0, 0, 1 - 2 * (log[values] & 1)).sum(axis=1))
    return np.concatenate(parts) + 2 * _char_sums(q, d, 2, idx)[0]


def _two_pass_stats(q, d, idx, weights=1):
    """_chunk_stats of the models idx of degree d with S1 and the full S2,
    every point of P^1(F_q) and P^1(F_{q^2}) evaluated, no root-free
    selection and no 1/n1 weights."""
    at_infinity = int(d == 6)
    S1 = _char_sums(q, d, 1, idx)[0] + at_infinity
    return _chunk_stats(q, S1, _full_s2(q, d, idx) + at_infinity, weights)


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11))
@pytest.mark.parametrize("d", (5, 6))
def test_translation_reps_match_full_enumeration(q, d):
    # slow oracle: the (t1, e) histogram of every squarefree monic model,
    # against the weighted histogram of one model per affine orbit
    idx = np.flatnonzero(~_nonsquarefree_bitmap(q, d, ()))
    assert _two_pass_stats(q, d, *_rep_models(q, d, 1)) == _two_pass_stats(q, d, idx)
    assert sum(hi - lo for lo, hi, _ in _orbit_reps(q, d, 1)) < q ** d


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13, 17))
def test_census_matches_two_pass_oracle(q):
    # the census from root-free sextics and 1/n1-weighted quintics against
    # the two passes it replaces: full S1 and S2 over every squarefree
    # sextic and quintic representative; each stands for q - 1 binary
    # sextics per orbit model
    reps = [_rep_models(q, d, 1) for d in (6, 5)]
    counts = _merged(_two_pass_stats(q, d, *rep) for d, rep in zip((6, 5), reps))
    models = sum(int(weights.sum()) for _, weights in reps)
    census = _g2_census_compute(q)
    assert (census.counts, census.group_order, census.model_count) == (
        counts, (q * q - 1) * (q * q - q), models * (q - 1)
    )


def test_char3_cubics_match_full_enumeration():
    # the q = 81 census from one cubic per affine orbit, against all
    # squarefree monic cubics over a group of the same order q(q - 1)
    q = 81
    idx = np.flatnonzero(~_nonsquarefree_bitmap(q, 3, ()))
    full = _ell_from_traces(q, -_char_sums(q, 3, 1, idx)[0], q * (q - 1))
    fast = _ell_monic(q)
    assert (fast.counts, fast.model_count, fast.group_order) == (
        full.counts, full.model_count, full.group_order
    )


def _substitute(F, g, a, b):
    """g(a x + b) over F, coefficients lowest first, by Horner in F[x]."""
    h = []
    for c in reversed(g):  # h -> h (a x + b) + c
        h = [F.add(F.mul(b, lo), F.mul(a, hi)) for lo, hi in zip(h + [0], [0] + h)]
        h[0] = F.add(h[0], c)
    return h


@pytest.mark.parametrize(
    "q, d", [(3, 3), (3, 5), (3, 6), (5, 5), (5, 6), (7, 3), (7, 6), (9, 3), (9, 6), (13, 3)]
)
def test_translation_reps_meet_each_orbit_once(q, d):
    # every orbit of g -> a^-d g(ax + t) on monic degree-d models carries
    # representatives whose weights add up to its size; a runs over F_q^*
    # for genus 2 and over the squares for the cubics (power 2).  The one
    # exception is the orbit of x^d, index 0, in no stratum: its models
    # (x + t)^d are not squarefree.  It is added with weight 0.
    power = 2 if d == 3 else 1
    F = finite_field(q)
    p = F.p
    k = round(math.log(q, p))
    reps = [(0, 1, 0)] + _orbit_reps(q, d, power)
    idx = np.concatenate([np.arange(lo, hi) for lo, hi, _ in reps])
    weights = np.concatenate([np.full(hi - lo, w) for lo, hi, w in reps])
    D = _digit_matrix(idx, p, d * k)
    place = p ** np.arange(d * k)

    def image(a, t, index):  # the index of a^-d g(ax + t), g of this index
        h = _substitute(F, [index // q ** i % q for i in range(d)] + [1], a, t)
        scale = F.inv(F.pow(a, d))
        return sum(F.mul(scale, c) * q ** i for i, c in enumerate(h[:d]))

    images = []
    for a in {F.pow(u, power) for u in range(1, q)}:
        for t in range(q):
            # the image is F_p-affine in the digits: w0 that of index 0 and
            # row j of W that of index p^j minus w0
            w0 = _digit_matrix(np.array(image(a, t, 0)), p, d * k)
            W = _digit_matrix(np.array([image(a, t, p ** j) for j in range(d * k)]), p, d * k)
            images.append((D @ (W - w0) + w0) % p @ place)
    orbits = np.sort(np.stack(images, axis=1), axis=1)  # each rep's orbit
    sizes = 1 + (np.diff(orbits, axis=1) != 0).sum(axis=1)
    # an orbit is named by its smallest model, so distinct names are
    # disjoint orbits, and sizes adding up to q^d mean every orbit was met
    names, first, which = np.unique(orbits[:, 0], return_index=True, return_inverse=True)
    assert np.array_equal(sizes, sizes[first][which])
    met = names != 0
    assert np.array_equal(np.bincount(which, weights)[met], sizes[first][met])
    assert sizes[first].sum() == q ** d


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_char_sums_under_affine_substitution(data):
    # h = a^-d g(ax + b): sum_x chi(h(x)) = chi(a)^d sum_x chi(g(x)) over
    # F_q with as many roots, and over F_{q^2} chi(a) = 1
    q = data.draw(st.sampled_from((3, 5, 7, 9, 11, 13, 25, 37)))
    d = data.draw(st.sampled_from((5, 6)))
    g = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)) + [1]
    a = data.draw(st.integers(1, q - 1))
    b = data.draw(st.integers(0, q - 1))
    F = finite_field(q)
    h = _substitute(F, g, a, b)
    scale = F.inv(F.pow(a, d))
    assert h[d] == F.pow(a, d)
    index = np.array(
        [sum(c * q ** i for i, c in enumerate(g[:d])),
         sum(F.mul(scale, c) * q ** i for i, c in enumerate(h[:d]))],
        dtype=np.int64,
    )
    s1, roots = _char_sums(q, d, 1, index)
    s2, _ = _char_sums(q, d, 2, index)
    assert s1[1] == F.chi(a) ** d * s1[0]
    assert roots[1] == roots[0]
    assert s2[1] == s2[0]


def test_invariants_survive_optimized_mode(run_optimized):
    # the mass check and the Weil box of the (t1, e) table raise under
    # python -O, and the CLI exits 1 on the mass check
    proc = run_optimized("""
import numpy as np
from siegelforms import census, cli
bad = census.G2Census(3, {(0, 0): 1}, group_order=48)
try:
    census._validate_g2(bad)
except census.CensusInvariantError:
    pass
else:
    raise SystemExit("wrong mass accepted")
for s1, e in ((9, 0), (-9, 0), (0, -21)):  # q = 5: |t1| <= 8, |e| <= 20
    try:
        census._chunk_stats(5, np.array([s1]), np.array([20 + 2 * e - s1 * s1]))
    except census.CensusInvariantError:
        pass
    else:
        raise SystemExit(f"(t1, e) = {(s1, e)} outside the Weil box accepted")
def broken(q):
    census._validate_g2(bad)
census.g2_census = broken
raise SystemExit(cli.main(["census", "--genus", "2", "--q", "3"]))
""")
    assert proc.returncode == 1, proc.stderr
    assert "total genus-2 mass must be q^3" in proc.stderr
