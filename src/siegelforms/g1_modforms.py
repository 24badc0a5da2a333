"""Level-1 elliptic modular forms with exact q-expansions.

Everything is built from the Eisenstein generators e4, e6 and the
discriminant cusp form; Hecke operators act on an echelonized monomial
basis of the cusp space.  Critical values Lambda(f, t) are read, up to
one period per parity of t, from a period polynomial, found exactly as a
solution of the Eichler-Shimura relations and cut to the eigenform by
T(2) acting through four integer matrices, so the ratios within a parity
class are elements a_t + b_t sqrt(D) of the coefficient field, and one
normalizer makes each class coprime integers.  A rational eigenform has
D = 1 and b_t = 0, so critical_ratios and congruence_prime_scan share it.

Coefficients are Fractions at the QExpansion boundary and integers inside.
One truncated convolution, _convolve, multiplies QExpansions (each factor
as integer numerators over the lcm of its denominators) and builds the
cusp bases.  E4 and E6 are integer lists whose divisor-power sums come from
one sieve; the powers Delta^c and E4^a live on a cached ladder of integer
tuples per precision, so every basis of one precision shares them.  Each
monomial Delta^c E4^a E6^b starts with 1 q^c, so echelonizing the
monomials is an integer back-substitution, and a two-dimensional
eigenform's coefficients are read off the integer basis rows.  The
eigenforms of each (weight, prec) are built once per process and are
immutable (frozen, with tuple coefficients), so every caller of one
precision shares them.  Each library caller asks for the coefficients it
reads: harder.check_congruence for a(0..p_max), verify_reference_row up to
the largest published p as well, and congruence_prime_scan for a(0..2),
since the critical values read only a(2).  The default of 128
coefficients serves only `g1 --json` and `g1 --ratios`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .exact_arith import (
    InvalidInput,
    QuadElem,
    bernoulli,
    factorize,
    is_prime,
    min_poly,
    primes_upto,
    rat_str,
    squarefree_part,
)


class InsufficientPrecision(Exception):
    pass


class DimTooLarge(InvalidInput):
    pass


class FormInvariantError(Exception):
    """A cusp-space basis or eigenform broke an identity every one
    satisfies (rank, echelon shape, integrality, real T(2) spectrum);
    raised, not asserted, so that the checks also run under python -O."""


class QExpansion:
    """Truncated q-expansion sum a(n) q^n, 0 <= n < prec, exact coefficients."""

    __slots__ = ("weight", "prec", "coeffs")

    def __init__(self, weight: int, coeffs, prec: int | None = None):
        self.weight = weight
        coeffs = [Fraction(c) for c in coeffs]
        if prec is not None:
            coeffs = coeffs[:prec] + [Fraction(0)] * (prec - len(coeffs))
        self.prec = len(coeffs)
        self.coeffs = coeffs

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient {n} beyond precision {self.prec}")
        return self.coeffs[n]

    def __eq__(self, other):
        return (
            isinstance(other, QExpansion)
            and self.weight == other.weight
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        prec = min(self.prec, other.prec)
        return QExpansion(
            self.weight, [self.coeffs[n] - other.coeffs[n] for n in range(prec)]
        )

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        prec = min(self.prec, other.prec)
        na, da = _integral(self.coeffs[:prec])
        nb, db = _integral(other.coeffs[:prec])
        d = da * db
        return QExpansion(
            self.weight + other.weight, [Fraction(c, d) for c in _convolve(na, nb)]
        )

    def __repr__(self):
        head = ", ".join(rat_str(c) for c in self.coeffs[:6])
        return f"QExpansion(weight={self.weight}, prec={self.prec}, [{head}...])"


def _integral(coeffs: list[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm d of the denominators: c = n / d."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _convolve(a, b) -> list[int]:
    """Product of two integer coefficient sequences, truncated to the shorter."""
    prec = min(len(a), len(b))
    rb = b[:prec][::-1]  # rb[prec - 1 - n:] is b[n], b[n - 1], ..., b[0]
    return [sum(map(mul, a, rb[prec - 1 - n:])) for n in range(prec)]


def _eisenstein_ints(k: int, prec: int) -> list[int]:
    """d E_k in integers, d the denominator of c/d = -2k/B_k in lowest terms:
    d, then c sigma_{k-1}(n) for 0 < n < prec (d = 1 for k = 4, 6).  The
    divisor-power sums come from one sieve."""
    c = Fraction(-2 * k) / bernoulli(k)
    sums = [0] * prec
    for m in range(1, prec):
        power = m ** (k - 1)
        for n in range(m, prec, m):
            sums[n] += power
    return [c.denominator] + [c.numerator * x for x in sums[1:]]


def eisenstein_e(k: int, prec: int) -> QExpansion:
    """Normalized Eisenstein series 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k % 2 != 0 or k < 4:
        raise ValueError("weight must be even and >= 4")
    nums = _eisenstein_ints(k, prec)
    return QExpansion(k, [Fraction(x, nums[0]) for x in nums])


def delta(prec: int) -> QExpansion:
    """The weight-12 cusp form (e4^3 - e6^2)/1728, computed from the relation."""
    if prec < 2:
        raise ValueError("prec must be >= 2")
    e4, e6 = _eisenstein_ints(4, prec), _eisenstein_ints(6, prec)
    cube = _convolve(_convolve(e4, e4), e4)
    return QExpansion(12, [Fraction(a - b, 1728) for a, b in zip(cube, _convolve(e6, e6))])


@lru_cache(maxsize=None)
def _ladder(weight: int, prec: int, n: int) -> tuple[int, ...]:
    """g^n, n >= 1, to precision prec as integers: g is Delta for weight 12,
    E_weight otherwise (E4, E6).  Cached, so every basis of one precision
    shares Delta and its powers; Delta comes from the module-level delta()."""
    if n > 1:
        return tuple(_convolve(_ladder(weight, prec, n - 1), _ladder(weight, prec, 1)))
    if weight != 12:
        return tuple(_eisenstein_ints(weight, prec))
    return tuple(_integral(delta(prec).coeffs)[0])


def dim_M(k: int) -> int:
    if k < 0 or k % 2 != 0:
        return 0
    return k // 12 if k % 12 == 2 else k // 12 + 1


def dim_S(k: int) -> int:
    if k < 12 or k % 2 != 0:
        return 0
    return dim_M(k) - 1


@lru_cache(maxsize=None)
def basis_S(k: int, prec: int = 40) -> tuple[QExpansion, ...]:
    """Echelonized basis of S_k(Gamma_1) from monomials Delta^c e4^a e6^b.

    One monomial per c >= 1 with 4a + 6b = k - 12c and b <= 1.  Each starts
    with 1 q^c, so they are a basis, and integer back-substitution turns it
    into the unique one with a(n) = delta_{n,i} for n <= dim.  Delta^c and
    E4^a come from the ladder of the precision, shared by every weight.
    """
    if k % 2 != 0:
        return ()
    rows = []
    for c in range(1, k // 12 + 1):
        rem = k - 12 * c
        b = rem % 4 // 2  # e6 carries the weight 2 mod 4
        if rem < 6 * b:
            continue
        a = (rem - 6 * b) // 4
        row = _ladder(12, prec, c)
        if a:
            row = _convolve(row, _ladder(4, prec, a))
        if b:
            row = _convolve(row, _ladder(6, prec, 1))
        rows.append(row)
    if not rows:
        return ()
    r = min(len(rows), prec - 1)  # the monomials whose leading q^c is below prec
    if r != dim_S(k):
        raise FormInvariantError(f"rank {r} != dim {dim_S(k)} at k={k}")
    if any(row[c] != 1 or any(row[:c]) for c, row in enumerate(rows, 1)):
        raise FormInvariantError(f"basis not in echelon position at k={k}")
    # clear column j + 1 of row i with the reduced row j, bottom row first
    for i in reversed(range(r)):
        for j in range(i + 1, r):
            f = rows[i][j + 1]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
    return tuple(QExpansion(k, row) for row in rows)


def hecke_T(k: int, m: int, prec: int | None = None) -> list[list[Fraction]]:
    """Matrix of T(m), m prime, on basis_S(k); columns are images."""
    if not is_prime(m):
        raise InvalidInput(f"m = {m} is not a prime")
    d = dim_S(k)
    need = m * (d + 1) + 1
    if prec is None:
        prec = need
    if prec < need:
        raise InsufficientPrecision(f"prec {prec} < {need}")
    basis = basis_S(k, prec)
    pk = Fraction(m) ** (k - 1)
    mat = [[Fraction(0)] * d for _ in range(d)]
    for j, f in enumerate(basis):
        for i in range(1, d + 1):
            b = f[m * i]
            if i % m == 0:
                b += pk * f[i // m]
            mat[i - 1][j] = b
    return mat


def mat_trace(mat) -> Fraction:
    return sum((mat[i][i] for i in range(len(mat))), Fraction(0))


def char_poly_2x2(mat) -> tuple[Fraction, Fraction]:
    """(trace, det) of a 2x2 matrix."""
    t = mat[0][0] + mat[1][1]
    d = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    return t, d


@dataclass(frozen=True)
class EigenformG1:
    """Normalized Hecke eigenform of level 1.

    For a 2-dimensional cusp space the coefficients live in Q(sqrt(D)), and
    the two forms carry the two roots of the T(2) characteristic polynomial
    in the sign of b in a(2) = a + b sqrt(D).  Frozen, and eigenforms()
    stores tuple coefficients, so a shared form cannot change.
    """

    weight: int
    field_disc: int
    coeffs: tuple  # a(0..prec-1), Fraction or QuadElem

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def a(self, n: int):
        if n >= self.prec:
            raise InsufficientPrecision(f"a({n}) beyond stored precision")
        return self.coeffs[n]

    def a_min_poly(self, p: int) -> list[int]:
        """Monic-scaled integer minimal polynomial of a(p)."""
        poly = min_poly(self.a(p))
        if poly[-1] != 1:
            raise FormInvariantError(f"a({p}) = {self.a(p)} is not an integer")
        return poly

    def to_json(self) -> dict:
        ap = {}
        for p in primes_upto(self.prec - 1):
            v = self.coeffs[p]
            ap[str(p)] = v.to_json() if isinstance(v, QuadElem) else rat_str(v)
        return {"weight": self.weight, "disc": self.field_disc, "a_p": ap}


def eigenforms(k: int, prec: int = 128) -> list[EigenformG1]:
    """Normalized eigenforms of S_k(Gamma_1); supports dim <= 2.

    prec is the number of coefficients a(0..prec-1) a caller reads; a
    form stores at least 6 (8 in dimension 2, where T(2) is read off the
    basis).  harder.check_congruence asks for p_max + 1 (38 by default)
    on a row with eigenvalue data, verify_reference_row for one more than
    the largest of p_max and the published p of weight 22, and
    congruence_prime_scan for 3 (the critical values read only a(2)).
    The default 128 sets which a(p) `g1 --json` prints, every p below
    128, and is what `g1 --ratios` builds; it is kept so that their
    output stays byte-stable.

    The forms of each (k, prec) are built and checked once per process and
    are immutable; each call returns a new list of the shared forms.  A
    build that raises is not remembered."""
    return list(_eigenforms(k, prec))


@lru_cache(maxsize=None)
def _eigenforms(k: int, prec: int) -> tuple[EigenformG1, ...]:
    d = dim_S(k)
    if d == 0:
        return ()
    if d > 2:
        raise DimTooLarge(f"dim S_{k} = {d}")
    prec = max(prec, 2 * (d + 1) + 2)
    basis = basis_S(k, prec)
    if d == 1:
        return (EigenformG1(k, 1, tuple(basis[0].coeffs)),)
    t, det = char_poly_2x2(hecke_T(k, 2, prec))  # on the basis already built
    disc = t * t - 4 * det
    if disc <= 0:
        raise FormInvariantError("T(2) must have real distinct eigenvalues")
    # disc = D * s^2 with D squarefree and s rational
    D, c = squarefree_part(disc.numerator * disc.denominator)
    s = Fraction(c, disc.denominator)
    if D * s * s != disc:
        raise FormInvariantError(f"{disc} != {D} * ({s})^2")
    # T(2) maps the integral basis to integral rows, so t and s are integers
    t, s = int(t), int(s)
    b0s, b1s = ([x.numerator for x in f.coeffs] for f in basis)
    out = []
    for sign in (1, -1):
        # basis[0] + lam2 basis[1] with lam2 = (t + sign s sqrt(D)) / 2
        coeffs = tuple(
            QuadElem(D, Fraction(2 * b0 + t * b1, 2), Fraction(sign * s * b1, 2))
            for b0, b1 in zip(b0s, b1s)
        )
        out.append(EigenformG1(k, D, coeffs))
    return tuple(out)


# ---------------------------------------------------------------------------
# critical values from period polynomials

# U = (1 -1; 1 0) and U^2 = (0 -1; 1 -1) as (a, b, c, d)
_U = ((1, -1, 1, 0), (0, -1, 1, -1))
# T(2) on period polynomials (Zagier 1990): the matrices of determinant 2
# with a > c >= 0 and d > b >= 0
_T2 = ((1, 0, 0, 2), (1, 1, 0, 2), (2, 0, 0, 1), (2, 0, 1, 1))


def _binomial_terms(a: int, b: int, n: int):
    """(j, coefficient) for the nonzero coefficients of X^j in (aX + b)^n."""
    for j in range(n + 1):
        x = math.comb(n, j) * a ** j * b ** (n - j)
        if x:
            yield j, x


def _slash(poly: list, m: tuple) -> list:
    """(P|M)(X) = (cX + d)^w P((aX + b)/(cX + d)) for M = (a, b, c, d) and
    P = sum poly[i] X^i of degree <= w = len(poly) - 1."""
    a, b, c, d = m
    w = len(poly) - 1
    out = [0] * (w + 1)
    for i, ci in enumerate(poly):
        if ci:
            right = list(_binomial_terms(c, d, w - i))
            for j, x in _binomial_terms(a, b, i):
                for k, y in right:
                    out[j + k] += ci * x * y
    return out


def _hecke2(poly: list) -> list:
    """T(2) on a period polynomial: the sum of P|M over _T2."""
    return [sum(col) for col in zip(*(_slash(poly, m) for m in _T2))]


def _period_poly(w: int, parity: int) -> list[Fraction]:
    """A nonzero P = sum c_i X^i of degree <= w, w even, in the powers X^i
    with i = parity mod 2, c_0 = 0, and P|(1 + S) = P|(1 + U + U^2) = 0.

    These P span the part of parity of the period polynomials of S_{w+2}
    modulo X^w - 1 (Eichler-Shimura; Kohnen-Zagier), one dimension per
    eigenform, so the interior c_1..c_{w-1} of P is nonzero.  P|S = -P
    fixes c_{w-i} = -(-1)^i c_i, so the unknowns are the c_i with
    0 < i <= w/2, and the relation 1 + U + U^2 is solved for them exactly.
    """
    basis = []
    for i in range(2 - parity, w // 2 + 1, 2):
        v = [0] * (w + 1)
        v[i] += 1
        v[w - i] -= (-1) ** i
        if any(v):  # c_{w/2} = -c_{w/2} when w/2 is even
            basis.append(v)
    rows = [[Fraction(sum(z)) for z in zip(v, *(_slash(v, m) for m in _U))] for v in basis]
    # eliminate: rows[j] holds the image of basis[j] and keys[j] its
    # combination of the basis; the first image to vanish is a solution
    keys = [[Fraction(int(i == j)) for i in range(len(basis))] for j in range(len(basis))]
    for j in range(len(basis)):
        row, key = rows[j], keys[j]
        col = next((n for n, x in enumerate(row) if x), None)
        if col is None:
            return [sum(k * v[n] for k, v in zip(key, basis)) for n in range(w + 1)]
        for i in range(j + 1, len(rows)):
            factor = rows[i][col] / row[col]
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], row)]
                keys[i] = [x - factor * y for x, y in zip(keys[i], key)]
    raise FormInvariantError(f"no period polynomial of weight {w + 2} and parity {parity}")


def _critical_entries(f: EigenformG1) -> list:
    """(t, a_t, b_t) with Lambda(f, t) proportional to a_t + b_t sqrt(D), for
    r/2 <= t <= r-2, each parity class of t a coprime integer vector.

    By Manin's periods theorem Lambda(f, t) is proportional, within one
    parity class of t, to (-1)^floor(t/2) c_{w-t+1} / C(w, t-1), w = r-2,
    where c_i are the coefficients of the period polynomial of f: of
    _period_poly when dim S_r = 1, and of (T(2) - a'(2)) P when dim S_r = 2,
    a'(2) = a - b sqrt(D) the eigenvalue of the conjugate form, which
    T(2) - a'(2) kills.  That part of f is X + sqrt(D) Y with rational X
    and Y, read at sqrt(D) > 0, the embedding in which f has a(2) = a +
    b sqrt(D).  A rational form has D = 1 and b_t = 0.  Each class is
    scaled by its first value, so its first a_t is positive and its first
    b_t is 0.  The endpoint t = r-1 is left out: its ratio to the interior
    values carries the numerator of B_r, which would pollute the gcd.  So
    is t = r/2 when r/2 is odd, where Lambda vanishes.
    """
    r, D = f.weight, f.field_disc
    w = r - 2
    out = []
    for parity in (0, 1):
        P = _period_poly(w, 1 - parity)  # c_{w-t+1} has the other parity
        if D == 1:
            X, Y = P, [0] * (w + 1)
        else:
            a2 = f.a(2)
            X = [x - a2.a * c for x, c in zip(_hecke2(P), P)]
            Y = [a2.b * c for c in P]
        cls = []
        for t in range(r - 2, r // 2 - 1, -1):
            if t % 2 == parity and (2 * t != r or r % 4 == 0):
                scale = Fraction((-1) ** (t // 2), math.comb(w, t - 1))
                cls.append((t, scale * X[w - t + 1], scale * Y[w - t + 1]))
        # divide by the first value x0 + y0 sqrt(D): multiply by its
        # conjugate, then by the sign of its norm
        _, x0, y0 = cls[0]
        coords = [(t, x * x0 - D * y * y0, y * x0 - x * y0) for t, x, y in cls]
        lcm = math.lcm(*(x.denominator for _, a, b in coords for x in (a, b)))
        gcd = math.gcd(*(int(x * lcm) for _, a, b in coords for x in (a, b)))
        if coords[0][1] < 0:
            gcd = -gcd
        out += [(t, int(a * lcm) // gcd, int(b * lcm) // gcd) for t, a, b in coords]
    return out


def critical_ratios(f: EigenformG1) -> list[int]:
    """Coprime integers proportional to (Lambda(f, r-2), Lambda(f, r-4), ...)."""
    if f.field_disc != 1:
        raise DimTooLarge("rational eigenforms only; use congruence_prime_scan")
    return [a for t, a, _ in _critical_entries(f) if t % 2 == 0]


def congruence_prime_scan(r: int) -> list[tuple[int, int, int, int]]:
    """Primes ell > r dividing the norm a_t^2 - D b_t^2 of a normalized
    critical entry of the weight-r eigenform(s), emitted as (ell, t, j, k)
    with j = 2t-r-2 >= 0 and k = r-t+2 (>= 4, as t <= r-2).

    Both parity classes of t are scanned; a rational eigenform is its own
    conjugate pair, with D = 1 and b_t = 0.
    """
    d = dim_S(r)
    if d not in (1, 2):
        raise DimTooLarge(f"dim S_{r} = {d}")
    f = eigenforms(r, 3)[0]  # the critical entries read a(2) only
    D = f.field_disc
    out = set()
    for t, a, b in _critical_entries(f):
        j, k = 2 * t - r - 2, r - t + 2
        n = abs(a * a - D * b * b)
        if j >= 0 and n != 0:
            out.update((ell, t, j, k) for ell in factorize(n) if ell > r)
    return sorted(out)
