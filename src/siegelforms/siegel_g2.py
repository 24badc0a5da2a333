"""Exact genus-2 Fourier expansions for classical (scalar) Siegel modular
forms: Cohen's function, the Siegel operator, diagonal restriction,
Fourier-Jacobi coefficients and the Maass lift.  The Eisenstein series E_k
and the cusp forms chi_10 and chi_12 are all Maass lifts of index-1 Jacobi
forms (Eichler-Zagier, The Theory of Jacobi Forms): E_k of the Jacobi
Eisenstein series E_{k,1}, chi_k of E_{k-4} E_{4,1} - E_{k-6} E_{6,1}.

Coefficients are indexed by half-integral matrices [n, r, m]; only one
representative per GL(2, Z)-class is stored (reduced to 0 <= r <= n <= m)
and queries reduce on the fly.  Querying outside a table's stored range is
an error, never a silent zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact_arith import (
    InvalidInput,
    divisors,
    gen_bernoulli,
    kronecker,
    mobius,
    rat_str,
    sigma_div,
    squarefree_part,
    zeta_neg,
)
from .g1_modforms import QExpansion, eisenstein_e


class InsufficientTable(Exception):
    pass


class DegenerateNormalization(Exception):
    pass


# ---------------------------------------------------------------------------
# half-integral matrices [n, r, m] = (n, r/2; r/2, m)


def reduce_form(n: int, r: int, m: int) -> tuple[int, int, int]:
    """GL(2, Z)-reduced representative with 0 <= r <= n <= m.

    Positive semi-definite input required; rank-1 forms reduce to
    (0, 0, content).
    """
    if n < 0 or m < 0 or 4 * n * m - r * r < 0:
        raise ValueError(f"form [{n},{r},{m}] is not positive semi-definite")
    r = abs(r)
    while True:
        if n > m:
            n, m = m, n
        if n == 0:
            # semi-definite with n = 0 forces r = 0
            if r != 0:
                raise ValueError(f"reduction reached the indefinite form [0,{r},{m}]")
            return (0, 0, m)
        if r > n:
            t = (r + n) // (2 * n)  # shift x -> x - t y
            m += t * t * n - t * r
            r = abs(r - 2 * t * n)
            continue
        if n > m:
            continue
        return (n, r, m)


class SiegelCoeffTable:
    """Fourier coefficients of a scalar genus-2 form, one value per reduced
    class, definite classes up to max_disc and rank <= 1 classes [0,0,c]
    with c <= sing_max."""

    def __init__(self, weight: int, max_disc: int, sing_max: int):
        self.weight = weight
        self.max_disc = max_disc
        self.sing_max = sing_max
        self.coeffs: dict[tuple[int, int, int], Fraction] = {}

    def covers(self, n: int, r: int, m: int) -> bool:
        d = 4 * n * m - r * r
        if d < 0 or n < 0 or m < 0:
            return True  # Koecher zero
        if d == 0:
            return math.gcd(n, math.gcd(r, m)) <= self.sing_max or (n, r, m) == (0, 0, 0)
        return d <= self.max_disc

    def get(self, n: int, r: int, m: int) -> Fraction:
        if n < 0 or m < 0 or 4 * n * m - r * r < 0:
            return Fraction(0)  # Koecher principle
        key = reduce_form(n, r, m)
        if key in self.coeffs:
            return self.coeffs[key]
        raise InsufficientTable(
            f"[{n},{r},{m}] (reduced {key}) outside stored range "
            f"(max_disc={self.max_disc}, sing_max={self.sing_max})"
        )

    def scale(self, c) -> "SiegelCoeffTable":
        out = SiegelCoeffTable(self.weight, self.max_disc, self.sing_max)
        c = Fraction(c)
        out.coeffs = {k: c * v for k, v in self.coeffs.items()}
        return out

    def to_json_rows(self) -> list:
        return [
            [n, r, m, rat_str(self.coeffs[(n, r, m)])]
            for (n, r, m) in sorted(
                self.coeffs, key=lambda k: (4 * k[0] * k[2] - k[1] ** 2, k[0], k[1], k[2])
            )
        ]


@lru_cache(maxsize=None)
def _reduced_classes(max_disc: int, sing_max: int) -> tuple[tuple[int, int, int], ...]:
    """All reduced classes with 0 < disc <= max_disc, plus [0,0,c] c <= sing_max
    and the zero class."""
    out = [(0, 0, c) for c in range(sing_max + 1)]
    n = 1
    while 3 * n * n <= max_disc:
        for r in range(n + 1):
            m = n
            while 4 * n * m - r * r <= max_disc:
                if m >= n and 4 * n * m - r * r > 0:
                    out.append((n, r, m))
                m += 1
        n += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Cohen's function and the lifted forms


@lru_cache(maxsize=None)
def cohen_H(r: int, N: int) -> Fraction:
    """H(r, N): zeta(1-2r) at N = 0, and the L-value L(1-r, chi_D) with the
    divisor correction for -N = D f^2, D fundamental; 0 unless N = 0, 3 mod 4.
    Memoised, so every Jacobi Eisenstein series of one weight (chi10, chi12
    and eisenstein_g2 at any max_disc) shares each value."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if N < 0 or N % 4 in (1, 2):
        return Fraction(0)
    if N == 0:
        return zeta_neg(2 * r)
    s, c = squarefree_part(N)
    if (-s) % 4 == 1:
        D, f = -s, c
    elif c % 2 == 0:
        D, f = -4 * s, c // 2
    else:
        raise ValueError(f"N = {N} = {s} * {c}^2 has no fundamental discriminant")
    lval = -gen_bernoulli(r, D) / r
    corr = sum(
        mobius(d) * kronecker(D, d) * d ** (r - 1) * sigma_div(2 * r - 1, f // d)
        for d in divisors(f)
    )
    return lval * corr


def _jacobi_eisenstein(k: int, max_D: int) -> JacobiFormQ:
    """The index-1 Jacobi Eisenstein series E_{k,1}: c(D) = H(k-1, D) / H(k-1, 0)."""
    h0 = cohen_H(k - 1, 0)
    return JacobiFormQ(
        k, 1, {(D, D % 2): cohen_H(k - 1, D) / h0 for D in range(max_D + 1) if D % 4 in (0, 3)}
    )


def eisenstein_g2(k: int, max_disc: int = 20, sing_max: int = 8) -> SiegelCoeffTable:
    """Genus-2 Siegel Eisenstein series with constant term 1: 2/zeta(1-k)
    times the Maass lift of E_{k,1}, so that the nonzero coefficients are
    2/(zeta(1-k) zeta(3-2k)) sum_{d | (n,r,m)} d^(k-1) H(k-1, 4 det N / d^2)."""
    if k % 2 or k < 4:
        raise InvalidInput(f"weight k = {k}: need even k >= 4")
    if max_disc < 0:
        raise InvalidInput(f"max_disc = {max_disc} is negative")
    return maass_lift(_jacobi_eisenstein(k, max_disc), max_disc, sing_max).scale(2 / zeta_neg(k))


def _lifted_cusp_form(k: int, max_disc: int, sing_max: int) -> SiegelCoeffTable:
    """The Maass lift of E_{k-4} E_{4,1} - E_{k-6} E_{6,1}, scaled so that
    a([1,1,1]) = 1.  The Jacobi form is cuspidal (c(0) = 1 - 1), and a
    genus-1 factor f = sum a(i) q^i acts on index-1 coefficients as
    c(D) -> sum_i a(i) c(D - 4i): on each class D = 4n - s (s = 0, 1) it is
    the q-expansion product of f with sum_n c(4n - s) q^n."""
    if max_disc < 3:
        raise InvalidInput(f"max_disc = {max_disc}: chi{k} is normalized by a([1,1,1]) of disc 3")
    prec = (max_disc + 1) // 4 + 1
    f4, f6 = eisenstein_e(k - 4, prec), eisenstein_e(k - 6, prec)
    e41, e61 = _jacobi_eisenstein(4, max_disc), _jacobi_eisenstein(6, max_disc)
    coeffs = {}
    for s in (0, 1):
        ns = range((max_disc + s) // 4 + 1)
        c41, c61 = (QExpansion(e.weight, [e.c_D(4 * n - s) for n in ns]) for e in (e41, e61))
        jacobi = f4 * c41 - f6 * c61
        coeffs.update({(4 * n - s, s): c for n, c in enumerate(jacobi.coeffs) if 4 * n >= s})
    lift = maass_lift(JacobiFormQ(k, 1, coeffs), max_disc, sing_max)
    pivot = lift.get(1, 1, 1)
    if pivot == 0:
        raise DegenerateNormalization("a([1,1,1]) vanished")
    return lift.scale(1 / pivot)


@lru_cache(maxsize=None)
def chi10(max_disc: int = 20, sing_max: int = 8) -> SiegelCoeffTable:
    """The weight-10 cusp form, the lift of E_6 E_{4,1} - E_4 E_{6,1},
    scaled so a([1,1,1]) = 1."""
    return _lifted_cusp_form(10, max_disc, sing_max)


@lru_cache(maxsize=None)
def chi12(max_disc: int = 20, sing_max: int = 8) -> SiegelCoeffTable:
    """The weight-12 cusp form, the lift of E_8 E_{4,1} - E_6 E_{6,1},
    scaled so a([1,1,1]) = 1 (the classical 441 E4^3 + 250 E6^2 - 691 E12
    up to scale)."""
    return _lifted_cusp_form(12, max_disc, sing_max)


# ---------------------------------------------------------------------------
# Siegel operator and diagonal restriction


def phi_operator(F: SiegelCoeffTable, prec: int | None = None) -> QExpansion:
    """Genus-lowering operator: (Phi F)(n) = a([n, 0, 0])."""
    if prec is None:
        prec = F.sing_max + 1
    if prec > F.sing_max + 1:
        raise InsufficientTable(f"singular classes stored up to {F.sing_max}")
    return QExpansion(F.weight, [F.get(n, 0, 0) for n in range(prec)])


def diagonal_restriction(F: SiegelCoeffTable, prec: int) -> dict[tuple[int, int], Fraction]:
    """Restriction to the diagonal z = 0, {(n, m): coefficient of q1^n q2^m}
    for n, m < prec: the coefficient is sum_r a([n, r, m])."""
    coeffs = {}
    for n in range(prec):
        for m in range(prec):
            b = math.isqrt(4 * n * m)
            if 4 * n * m > F.max_disc and n > 0 and m > 0:
                raise InsufficientTable(f"need disc up to {4 * n * m}")
            total = Fraction(0)
            for r in range(-b, b + 1):
                total += F.get(n, r, m)
            coeffs[(n, m)] = total
    return coeffs


# ---------------------------------------------------------------------------
# Jacobi forms and the Maass lift


class JacobiFormQ:
    """Jacobi form coefficient table: c(n, r) keyed by the class invariant
    (D, r mod 2m) with D = 4mn - r^2 >= 0."""

    def __init__(self, weight: int, index: int, coeffs: dict):
        self.weight = weight
        self.index = index
        self.coeffs = dict(coeffs)

    @property
    def max_D(self) -> int:
        return max(d for d, _ in self.coeffs) if self.coeffs else -1

    def c(self, n: int, r: int) -> Fraction:
        D = 4 * self.index * n - r * r
        if D < 0:
            return Fraction(0)
        key = (D, r % (2 * self.index))
        if key not in self.coeffs:
            raise InsufficientTable(f"c({n},{r}) with invariant {key} not stored")
        return self.coeffs[key]

    def c_D(self, D: int) -> Fraction:
        """Index-1 access by discriminant: D determines r mod 2."""
        if self.index != 1:
            raise ValueError("c_D is for index 1")
        if D < 0:
            return Fraction(0)
        if D % 4 == 0:
            return self.c(D // 4, 0)
        if D % 4 == 3:
            return self.c((D + 1) // 4, 1)
        return Fraction(0)


def fourier_jacobi(F: SiegelCoeffTable, m: int = 1) -> JacobiFormQ:
    """Index-m Fourier-Jacobi coefficient: c(n, r) = a([n, r, m]).

    Every invariant (D, r mod 2m) has a representative with |r| <= m, so
    the rows n <= (max_disc + m^2) / 4m hold every invariant the table
    covers.  Consistency of c across the (n, r) read with the same
    invariant is checked while the table is read off.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs: dict[tuple[int, int], Fraction] = {}
    for n in range((F.max_disc + m * m) // (4 * m) + 1):
        for r in range(-2 * math.isqrt(m * n) - 2 * m, 2 * math.isqrt(m * n) + 2 * m + 1):
            D = 4 * m * n - r * r
            if D < 0 or not F.covers(n, r, m):
                continue
            key = (D, r % (2 * m))
            val = F.get(n, r, m)
            if key in coeffs:
                if coeffs[key] != val:
                    raise ValueError(f"coefficient class {key} inconsistent")
            else:
                coeffs[key] = val
    return JacobiFormQ(F.weight, m, coeffs)


def V_l(phi: JacobiFormQ, l: int) -> JacobiFormQ:
    """The index-raising operator on coefficients:
    c_out(n, r) = sum_{a | (n, r, l)} a^(k-1) c(n l / a^2, r / a)."""
    if phi.index != 1:
        raise ValueError("V_l implemented for index-1 input")
    if l < 1:
        raise ValueError("l must be >= 1")
    k = phi.weight
    coeffs: dict[tuple[int, int], Fraction] = {}
    n_max = phi.max_D // (4 * l) + l + 1
    for n in range(n_max + 1):
        for r in range(-2 * math.isqrt(l * n), 2 * math.isqrt(l * n) + 1):
            D = 4 * l * n - r * r
            if D < 0 or D > phi.max_D:
                continue
            total = Fraction(0)
            for a in divisors(math.gcd(n, math.gcd(r, l))):
                total += a ** (k - 1) * phi.c(n * l // (a * a), r // a)
            key = (D, r % (2 * l))
            if key in coeffs:
                if coeffs[key] != total:
                    raise ValueError("V_l output not class-invariant")
            else:
                coeffs[key] = total
    return JacobiFormQ(k, l, coeffs)


def maass_lift(phi: JacobiFormQ, max_disc: int = 20, sing_max: int = 8) -> SiegelCoeffTable:
    """Siegel form with a([n,r,m]) = sum_{d | (n,r,m)} d^(k-1)
    c((4mn - r^2)/d^2) and constant term -B_k/(2k) c(0) = zeta(1-k)/2 c(0)."""
    if phi.index != 1:
        raise ValueError("maass_lift takes an index-1 form")
    k = phi.weight
    tab = SiegelCoeffTable(k, max_disc, sing_max)
    for n, r, m in _reduced_classes(max_disc, sing_max):
        if (n, r, m) == (0, 0, 0):
            tab.coeffs[(n, r, m)] = zeta_neg(k) / 2 * phi.c_D(0)
            continue
        g = math.gcd(n, math.gcd(r, m))
        disc = 4 * n * m - r * r
        total = Fraction(0)
        for d in divisors(g):
            total += d ** (k - 1) * phi.c_D(disc // (d * d))
        tab.coeffs[(n, r, m)] = total
    return tab


def maass_check(F: SiegelCoeffTable) -> bool:
    """Is F the Maass lift of its index-1 Fourier-Jacobi coefficient?"""
    return maass_lift(fourier_jacobi(F), F.max_disc, F.sing_max).coeffs == F.coeffs
