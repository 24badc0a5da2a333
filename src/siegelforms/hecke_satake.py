"""Symbolic local Hecke algebra for genus 1 and 2 over a formal prime.

Spherical images live in the Laurent ring Q[P^+-, u_i^+-, v_i^+-], with the
prime P one more variable; keeping it formal means the algebra identities
are proved as polynomial identities rather than checked prime by prime.
Numeric Satake parameters, and P = p, substitute at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add

from .exact_arith import InvalidInput, is_prime
from .g1_modforms import dim_S


# ---------------------------------------------------------------------------
# elements of the Hecke algebra image


class SatakeElement:
    """Laurent polynomial in P, u_1..u_g, v_1..v_g over Q.

    Monomial keys are exponent tuples (a_1..a_g, d_1..d_g, e), e the power
    of the formal prime P.  All elements arising as spherical images satisfy
    a_i + d_i = c independent of i (the similitude exponent), which is what
    makes numeric substitution by Satake parameters (alpha_0, alpha_i) well
    defined.
    """

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms=None):
        self.g = g
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for k, c in terms.items():
                if c:
                    self.terms[k] = Fraction(c)

    @staticmethod
    def zero(g: int) -> "SatakeElement":
        return SatakeElement(g)

    @staticmethod
    def one(g: int) -> "SatakeElement":
        return SatakeElement.prime_power(g, 0)

    @staticmethod
    def prime_power(g: int, e: int, c=1) -> "SatakeElement":
        """The constant c P^e."""
        return SatakeElement(g, {(0,) * (2 * g) + (e,): c})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return SatakeElement(self.g, out)

    def __sub__(self, other):
        return self + SatakeElement(self.g, {k: -c for k, c in other.terms.items()})

    def __mul__(self, other):
        out: dict[tuple, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(map(add, k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return SatakeElement(self.g, out)

    def __eq__(self, other):
        return self.g == other.g and self.terms == other.terms

    # -- Weyl action: tau_i swaps u_i <-> v_i, index transpositions swap
    # the pairs; on the similitude-consistent monomials this realizes the
    # action on Satake parameters (alpha_0 -> alpha_0 alpha_i,
    # alpha_i -> 1/alpha_i).

    def _swapped(self, *pairs) -> "SatakeElement":
        """The element with the key positions of each pair exchanged."""
        order = list(range(2 * self.g + 1))
        for i, j in pairs:
            order[i], order[j] = order[j], order[i]
        return SatakeElement(
            self.g, {tuple(k[s] for s in order): c for k, c in self.terms.items()}
        )

    def weyl_swap(self, i: int) -> "SatakeElement":
        return self._swapped((i, self.g + i))

    def weyl_transpose(self, i: int, j: int) -> "SatakeElement":
        g = self.g
        return self._swapped((i, j), (g + i, g + j))

    def is_weyl_invariant(self) -> bool:
        for i in range(self.g):
            if self.weyl_swap(i) != self:
                return False
        for i in range(self.g - 1):
            if self.weyl_transpose(i, i + 1) != self:
                return False
        return True

    def substitute(self, alpha0, alphas, p: int):
        """Value at P = p and the Satake parameters: u_i/v_i -> alpha_i,
        v_1..v_g -> alpha_0."""
        g = self.g
        total = 0
        for k, c in self.terms.items():
            cs = {k[i] + k[g + i] for i in range(g)}
            if len(cs) != 1:
                raise ValueError("monomial has inconsistent similitude exponent")
            c0 = cs.pop()
            val = c * Fraction(p) ** k[-1] * alpha0 ** c0
            for i in range(g):
                val = val * alphas[i] ** k[i]
            total = total + val
        return total

    def __repr__(self):
        return f"SatakeElement(g={self.g}, {len(self.terms)} terms)"


def _uv_key(g: int, S) -> tuple:
    """Key of the monomial prod_{i in S} u_i prod_{i not in S} v_i."""
    return tuple(int(i in S) for i in range(g)) + tuple(int(i not in S) for i in range(g)) + (0,)


def phi(g: int, i: int) -> SatakeElement:
    """Image (v_1..v_g) sigma_i(u_1/v_1, ..., u_g/v_g)."""
    if not 0 <= i <= g:
        raise ValueError("need 0 <= i <= g")
    return SatakeElement(g, {_uv_key(g, S): 1 for S in combinations(range(g), i)})


# ---------------------------------------------------------------------------
# symmetric-matrix corank counts


def m_count(h: int, i: int, p: int) -> int:
    """#{A in Mat(h x h, F_p) symmetric with corank i}, by brute force."""
    if h > 3:
        raise ValueError("brute force supports h <= 3")
    if not 0 <= i <= h:
        return 0
    if h == 0:
        return 1 if i == 0 else 0
    pairs = [(a, b) for a in range(h) for b in range(a, h)]
    count = 0
    for idx in range(p ** len(pairs)):
        vals = []
        rem = idx
        for _ in pairs:
            vals.append(rem % p)
            rem //= p
        A = [[0] * h for _ in range(h)]
        for (a, b), v in zip(pairs, vals):
            A[a][b] = A[b][a] = v
        if h - _rank_mod_p(A, p) == i:
            count += 1
    return count


def _rank_mod_p(A: list[list[int]], p: int) -> int:
    """Rank over F_p of the square integer matrix A (rows as lists)."""
    A = [[x % p for x in row] for row in A]
    h = len(A)
    rank = 0
    for col in range(h):
        piv = next((r for r in range(rank, h) if A[r][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], p - 2, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for r in range(h):
            c = A[r][col]
            if r != rank and c:
                A[r] = [(x - c * y) % p for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def _m_poly(h: int, i: int) -> dict[int, int]:
    """m_h(i) as a polynomial in the formal prime, {exponent: coefficient}
    (h <= 2)."""
    table = {
        (0, 0): {0: 1},
        (1, 0): {1: 1, 0: -1},
        (1, 1): {0: 1},
        (2, 0): {3: 1, 2: -1},
        (2, 1): {2: 1, 0: -1},
        (2, 2): {0: 1},
    }
    return table.get((h, i), {})


@lru_cache(maxsize=None)
def satake_Tp(g: int) -> SatakeElement:
    """Image of T(p): sum of the phi_i."""
    if g not in (1, 2):
        raise ValueError("g must be 1 or 2")
    out = SatakeElement.zero(g)
    for i in range(g + 1):
        out = out + phi(g, i)
    return out


def satake_T0_extension(g: int) -> SatakeElement:
    """The corank-count formula for the T_i(p^2) images evaluated at i = 0.

    For g = 1 this reproduces the printed image of T_0(p^2); for g = 2 it is
    NOT the image of T_0(p^2) (its phi_0 phi_2 coefficient would have to be
    -2/P, which no matrix count produces), so satake_Ti derives the i = 0
    image from the square relation instead.
    """
    return _satake_Ti_formula(g, 0)


def _satake_Ti_formula(g: int, i: int) -> SatakeElement:
    out = SatakeElement.zero(g)
    for j in range(g + 1):
        for k in range(j + i, g + 1):
            h = k - j
            for e, c in _m_poly(h, i).items():
                coeff = SatakeElement.prime_power(g, e - math.comb(h + 1, 2), c)
                out = out + phi(g, j) * phi(g, k) * coeff
    return out


def _square_tail(g: int) -> SatakeElement:
    """T(p)^2 - T_0(p^2): the T_i(p^2), i >= 1, times their classical
    degree coefficients P + 1 and P^3 + P^2 + P + 1."""
    P = SatakeElement.prime_power
    tail = satake_Ti(g, 1) * (P(g, 1) + P(g, 0))
    if g == 2:
        tail = tail + satake_Ti(2, 2) * (P(2, 3) + P(2, 2) + P(2, 1) + P(2, 0))
    return tail


@lru_cache(maxsize=None)
def satake_Ti(g: int, i: int) -> SatakeElement:
    """Image of T_i(p^2).  For i >= 1 this is the corank-count formula; the
    i = 0 image is pinned down by T(p)^2 = sum of T_i(p^2) with the
    classical degree coefficients (see satake_T0_extension)."""
    if g not in (1, 2):
        raise ValueError("g must be 1 or 2")
    if not 0 <= i <= g:
        raise ValueError("need 0 <= i <= g")
    if i > 0:
        return _satake_Ti_formula(g, i)
    return satake_Tp(g) * satake_Tp(g) - _square_tail(g)


# ---------------------------------------------------------------------------
# identity verification


def _quartic_phi0_coeffs() -> list[SatakeElement]:
    """Coefficients (X^0..X^4) of prod over subsets I of {1,2} of
    (X - prod_{i in I} u_i prod_{i not in I} v_i), for g = 2."""
    g = 2
    coeffs = [SatakeElement.one(g)]  # polynomial 1, lowest degree first
    for S in ((), (0,), (1,), (0, 1)):
        r = SatakeElement(g, {_uv_key(g, S): 1})
        new = [SatakeElement.zero(g) for _ in range(len(coeffs) + 1)]
        for d, c in enumerate(coeffs):
            new[d + 1] = new[d + 1] + c
            new[d] = new[d] - r * c
        coeffs = new
    return coeffs  # c[0] + c[1] X + ... + c[4] X^4


def _hecke_quartic_images() -> list[SatakeElement]:
    """X^0..X^4 coefficients of the degree-4 Hecke polynomial with
    coefficients written in T(p), T_i(p^2), after applying the spherical map."""
    g = 2
    T = satake_Tp(g)
    T1 = satake_Ti(g, 1)
    T2 = satake_Ti(g, 2)
    P = SatakeElement.prime_power
    return [
        T2 * T2 * P(g, 6),
        T * T2 * P(g, 3, -1),
        T1 * P(g, 1) + T2 * (P(g, 3) + P(g, 1)),
        T * P(g, 0, -1),
        SatakeElement.one(g),
    ]


def verify_identity(name: str) -> bool:
    """Check one of the genus-2 Hecke-algebra identities as an exact
    Laurent-polynomial identity in the formal prime P.

    Each identity fails for some wrong T_i(p^2) image.  "quartic_phi0"
    compares the Hecke polynomial written in T(p), T_1(p^2), T_2(p^2) with
    the product over the Satake parameters.  "square_relation" checks the
    genus-1 square relation, whose T_0(p^2) image comes from the corank
    counts, and that the genus-2 T_0(p^2) image, which the square relation
    T(p)^2 = sum of the T_i(p^2) with their degree coefficients defines,
    has the structure of a double-coset image.  The genus-2 square relation
    itself holds by that definition, so nothing here checks it."""
    if name == "square_relation":
        # at g = 1 the relation is independently checkable: the printed
        # T_0(p^2) image comes from the corank-count formula
        if satake_Tp(1) * satake_Tp(1) != satake_T0_extension(1) + _square_tail(1):
            return False
        # at g = 2 the relation pins the T_0(p^2) image; check that the
        # pinned image has the structure of a double-coset image
        t0 = satake_Ti(2, 0)
        if not t0.is_weyl_invariant():
            return False
        # the v_1^2 v_2^2 coefficient, as a polynomial in P, is exactly 1
        return {k[-1]: c for k, c in t0.terms.items() if k[:-1] == (0, 0, 2, 2)} == {0: 1}
    if name == "quartic_phi0":
        # the product has phi_0 = v_1 v_2 among its roots by construction
        return _quartic_phi0_coeffs() == _hecke_quartic_images()
    raise ValueError(f"unknown identity {name!r}")


ALL_IDENTITIES = ("square_relation", "quartic_phi0")


# ---------------------------------------------------------------------------
# Euler factors and Satake parameters


@dataclass
class EulerFactor:
    """Polynomial 1 + c1 X + ... + cd X^d with motivic weight metadata."""

    coeffs: list  # Fraction entries, c[0] = 1
    p: int
    weight: int

    def to_json(self) -> dict:
        from .exact_arith import rat_str

        return {
            "coeffs": [rat_str(c) for c in self.coeffs],
            "p": self.p,
            "weight": self.weight,
        }


def poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _check_jk(j: int, k: int) -> None:
    # S_{j,k}(Gamma_2) = 0 for odd j, since -1_4 acts on it by (-1)^j, and
    # the motivic weight w = j + 2k - 3 must be positive
    if j < 0 or j % 2 or j + 2 * k - 3 < 1:
        raise InvalidInput(f"(J, K) = ({j}, {k}): need even J >= 0 and J + 2K - 3 >= 1")


def spin_factor(j: int, k: int, lam_p, lam_psq, p: int) -> EulerFactor:
    """Degree-4 spin Euler factor at the prime p of an eigenform of
    S_{j,k}, motivic weight w = j + 2k - 3.  Needs even j >= 0
    (S_{j,k} = 0 for odd j) and w >= 1.

    The X^2 coefficient lambda(p)^2 - lambda(p^2) - p^(w-1) rests on
    T(p)^2 = sum of the T_i(p^2) with their degree coefficients.  Here that
    relation defines the T_0(p^2) image (satake_Ti), so it is assumed, not
    checked, until T(p) and T(p^2) act on Siegel Fourier coefficients."""
    _check_jk(j, k)
    if not is_prime(p):
        raise InvalidInput(f"p = {p} is not a prime")
    w = j + 2 * k - 3
    lam_p = Fraction(lam_p)
    lam_psq = Fraction(lam_psq)
    pw = Fraction(p) ** w
    coeffs = [
        Fraction(1),
        -lam_p,
        lam_p ** 2 - lam_psq - Fraction(p) ** (w - 1),
        -lam_p * pw,
        pw ** 2,
    ]
    return EulerFactor(coeffs, p, w)


def sk_spin_factor(a_p, k: int, p: int):
    """Spin factor of the weight-k lift of a weight-(2k-2) eigenform:
    (1 - p^(k-1) X)(1 - p^(k-2) X)(1 - a_p X + p^(2k-3) X^2).

    Returns (factor, lambda(p), lambda(p^2)) with lambda(p) = a_p + p^(k-1)
    + p^(k-2) and lambda(p^2) read off the X^2 coefficient; expanding the
    product gives the X and X^3 coefficients -lambda(p) and
    -lambda(p) p^(2k-3) that spin_factor has.
    """
    if dim_S(2 * k - 2) == 0:
        raise ValueError(f"no cusp forms of weight {2 * k - 2} to lift")
    a_p = Fraction(a_p)
    w = 2 * k - 3
    c = poly_mul([Fraction(1), -Fraction(p) ** (k - 1)], [Fraction(1), -Fraction(p) ** (k - 2)])
    c = poly_mul(c, [Fraction(1), -a_p, Fraction(p) ** (2 * k - 3)])
    factor = EulerFactor(c, p, w)
    lam_p = a_p + Fraction(p) ** (k - 1) + Fraction(p) ** (k - 2)
    lam_psq = lam_p ** 2 - c[2] - Fraction(p) ** (w - 1)
    return factor, lam_p, lam_psq


@dataclass
class SatakeParams:
    """Exact Satake parameters (alpha_0, alpha_1, ..., alpha_g) at p."""

    g: int
    alpha0: Fraction
    alphas: list
    p: int
    weight_sum: int  # lambda_1 + ... + lambda_g of the representation

    def validate(self) -> None:
        prod = self.alpha0 ** 2
        for a in self.alphas:
            prod = prod * a
        expect = Fraction(self.p) ** (self.weight_sum - self.g * (self.g + 1) // 2)
        if prod != expect:
            raise ValueError(
                f"alpha_0^2 alpha_1..alpha_g = {prod} != p^(sum-lam - g(g+1)/2) = {expect}"
            )

    @staticmethod
    def eisenstein(g: int, k: int, p: int) -> "SatakeParams":
        return SatakeParams(
            g,
            Fraction(1),
            [Fraction(p) ** (k - i) for i in range(1, g + 1)],
            p,
            weight_sum=g * k,
        )


def standard_factor(params: SatakeParams) -> EulerFactor:
    """(1 - t) prod (1 - alpha_i t)(1 - alpha_i^{-1} t), degree 2g + 1."""
    c = [Fraction(1), Fraction(-1)]
    for a in params.alphas:
        if not isinstance(a, (int, Fraction)):
            raise ValueError("exact rational Satake parameters required")
        a = Fraction(a)
        if a == 0:
            raise ValueError("zero Satake parameter")
        c = poly_mul(c, [Fraction(1), -a])
        c = poly_mul(c, [Fraction(1), -1 / a])
    return EulerFactor(c, params.p, 0)


def eigen_from_params(params: SatakeParams):
    """(lambda(p), [lambda_i(p^2)]) by substituting the parameters into the
    spherical images of T(p) and T_i(p^2)."""
    params.validate()
    g = params.g
    lam = satake_Tp(g).substitute(params.alpha0, params.alphas, params.p)
    lams2 = [
        satake_Ti(g, i).substitute(params.alpha0, params.alphas, params.p)
        for i in range(g + 1)
    ]
    return lam, lams2


def newton_slopes(factor: EulerFactor, p: int) -> list[Fraction]:
    """Slopes (with multiplicity) of the lower Newton polygon of the factor
    at p; p prime and integer coefficients required."""
    if not is_prime(p):
        raise InvalidInput(f"p = {p} is not a prime")
    coeffs = []
    for c in factor.coeffs:
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError("integer coefficients required")
        coeffs.append(c.numerator)
    if coeffs[0] == 0:
        raise ValueError("zero constant term")

    def vp(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    pts = [(i, Fraction(vp(abs(c)))) for i, c in enumerate(coeffs) if c != 0]
    # lower convex hull, left to right
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y2 - y1, x2 - x1)
        slopes.extend([s] * (x2 - x1))
    return slopes
