"""Level-1 elliptic modular forms with exact q-expansions.

Everything is built from the Eisenstein generators e4, e6 and the
discriminant cusp form; Hecke operators act on an echelonized monomial
basis of the cusp space.  Completed L-values Lambda(f, t) at the integer
critical points come from one evaluator, the incomplete-gamma series
climbed by an exact recurrence; one normalizer turns the critical
values of a conjugate pair of eigenforms over Q(sqrt(D)) into coprime
integers a_t + b_t sqrt(D).  A rational eigenform is its own conjugate pair
(D = 1, b_t = 0), so critical_ratios and congruence_prime_scan share it.

Coefficients are Fractions at the QExpansion boundary and integers inside.
One truncated convolution, _convolve, multiplies QExpansions (each factor
as integer numerators over the lcm of its denominators) and builds the
cusp bases.  E4 and E6 are integer lists whose divisor-power sums come from
one sieve; the powers Delta^c and E4^a live on a cached ladder of integer
tuples per precision, so every basis of one precision shares them.  Each
monomial Delta^c E4^a E6^b starts with 1 q^c, so echelonizing the
monomials is an integer back-substitution.  The eigenforms of each
(weight, prec) are built once per process and are immutable (frozen, with
tuple coefficients), so every caller shares them.  Lambda(f, t) is a
decimal.Decimal at the one working precision of exact_arith, climbed from
e^-x / x for each n, on the coefficients eigenforms() stores by default,
so the L-values read the same forms as every other caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .exact_arith import (
    PREC_BITS,
    InvalidInput,
    QuadElem,
    bernoulli,
    factorize,
    is_prime,
    min_poly,
    primes_upto,
    rat_str,
    rational_reconstruct,
    squarefree_part,
    working_context,
)


class InsufficientPrecision(Exception):
    pass


class DimTooLarge(InvalidInput):
    pass


class PrecisionLoss(InvalidInput):
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

    def embed_coeff(self, n: int) -> Decimal:
        # coefficients already carry the chosen root of the T(2) polynomial,
        # so the numeric embedding is always b -> +sqrt(D)
        v = self.coeffs[n]
        if isinstance(v, QuadElem):
            return v.embed(plus=True)
        with working_context():
            return Decimal(v.numerator) / v.denominator

    def to_json(self) -> dict:
        ap = {}
        for p in primes_upto(self.prec - 1):
            v = self.coeffs[p]
            ap[str(p)] = v.to_json() if isinstance(v, QuadElem) else rat_str(v)
        return {"weight": self.weight, "disc": self.field_disc, "a_p": ap}


def eigenforms(k: int, prec: int = 128) -> list[EigenformG1]:
    """Normalized eigenforms of S_k(Gamma_1); supports dim <= 2.

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
    out = []
    for sign in (1, -1):
        # basis[0] + lam2 basis[1] with lam2 = (t + sign s sqrt(D)) / 2
        half_t, half_s = t / 2, sign * s / 2
        coeffs = tuple(
            QuadElem(D, b0 + half_t * b1, half_s * b1)
            for b0, b1 in zip(basis[0].coeffs, basis[1].coeffs)
        )
        out.append(EigenformG1(k, D, coeffs))
    return tuple(out)


# ---------------------------------------------------------------------------
# completed L-function values


def _n_terms(r: int) -> int:
    # tail of sum a(n) (2 pi n)^(s-1) e^(-2 pi n) with |a(n)| <= 2 sigma_0 n^((r-1)/2)
    target = (PREC_BITS + 48) * math.log(2)
    n = 8
    while 2 * math.pi * n - (1.5 * r) * math.log(2 * math.pi * n) < target:
        n += 1
        if n > 4000:
            raise PrecisionLoss("tail bound not met")
    return n


def _arccot(k: int, unit: int) -> int:
    """unit * arctan(1/k), k >= 2, by its alternating Taylor series in integers."""
    total, power, j = 0, unit // k, 1
    while power:
        total += power // j if j % 4 == 1 else -(power // j)
        power //= k * k
        j += 2
    return total


@lru_cache(maxsize=None)
def _two_pi() -> Decimal:
    """2 pi at the working precision, from Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239) in integers with ten guard digits."""
    with working_context() as ctx:
        unit = 10 ** (ctx.prec + 10)
        return Decimal(8 * (4 * _arccot(5, unit) - _arccot(239, unit))) / unit


def lambda_values(f: EigenformG1, points) -> list[Decimal]:
    """Lambda(f, s) = Gamma(s)/(2 pi)^s L(f, s) at each integer s in points,
    1 <= s <= r - 1; any other point raises InvalidInput.

    Uses the two-sided incomplete-gamma series: with x = 2 pi n and
    H(m) = x^-m Gamma(m, x), Lambda(s) = sum a(n) (H(s) + (-1)^(r/2) H(r-s)).
    At integers no incomplete gamma is needed: H(1) = e^-x / x, and
    Gamma(m+1, x) = m Gamma(m, x) + x^m e^-x gives H(m+1) = (m H(m) + e^-x) / x,
    whose terms are positive, so each n climbs once from H(1) to the largest
    exponent among the points and r - points.  The arithmetic is
    decimal.Decimal in the working context of exact_arith (97 digits), so
    no context the caller set reaches it.  Each term is symmetric under
    s <-> r-s, so the functional equation Lambda(s) = (-1)^(r/2) Lambda(r-s)
    holds by construction and checks nothing about the coefficients.  The
    series takes _n_terms(r) coefficients, and a form storing no more
    raises PrecisionLoss.
    """
    r = f.weight
    points = list(points)
    for s in points:
        if not isinstance(s, int) or not 1 <= s <= r - 1:
            raise InvalidInput(f"Lambda(f, s) is evaluated at integers 1 <= s <= {r - 1}, not at {s!r}")
    n_terms = _n_terms(r)
    if n_terms >= f.prec:
        raise PrecisionLoss(f"need {n_terms} coefficients, eigenform stores {f.prec}")
    top = max((max(s, r - s) for s in points), default=1)
    sign = (-1) ** (r // 2)
    with working_context():
        two_pi = _two_pi()
        sums = [Decimal(0)] * (top + 1)  # sums[m] = sum over n of a(n) H(m)
        for n in range(1, n_terms + 1):
            an = f.embed_coeff(n)
            x = two_pi * n
            ex, inv_x = (-x).exp(), 1 / x
            h = ex * inv_x
            sums[1] += an * h
            for m in range(1, top):
                h = (m * h + ex) * inv_x
                sums[m + 1] += an * h
        return [sums[s] + sign * sums[r - s] for s in points]


def _critical_entries(f: EigenformG1, g: EigenformG1) -> list:
    """(t, a_t, b_t) with Lambda(f, t) proportional to a_t + b_t sqrt(D), for
    r/2 <= t <= r-2, each parity class of t a coprime integer vector.

    f and g are the conjugate eigenforms over Q(sqrt(D)).  A rational form is
    its own conjugate: D = 1, b_t = 0, and its values are evaluated once.
    Each class is scaled by its first value, so its first a_t is positive
    and its first b_t is 0.  The endpoint t = r-1 is left out: its ratio to
    the interior values carries the numerator of B_r, which would pollute
    the gcd.  So is t = r/2 when r/2 is odd, where Lambda vanishes.
    """
    r, D = f.weight, f.field_disc
    ts = [t for t in range(r - 2, r // 2 - 1, -1) if 2 * t != r or r % 4 == 0]
    vf = lambda_values(f, ts)
    vg = vf if g is f else lambda_values(g, ts)
    out = []
    with working_context():
        sqrtD = Decimal(D).sqrt()
        for parity in (0, 1):
            cls = [(t, x, y) for t, x, y in zip(ts, vf, vg) if t % 2 == parity]
            _, x0, y0 = cls[0]
            coords = []
            for t, x, y in cls:
                xp, xm = x / x0, y / y0
                a = rational_reconstruct((xp + xm) / 2)
                b = rational_reconstruct((xp - xm) / (2 * sqrtD))
                coords.append((t, a, b))
            lcm = math.lcm(*(x.denominator for _, a, b in coords for x in (a, b)))
            gcd = math.gcd(*(int(x * lcm) for _, a, b in coords for x in (a, b)))
            out += [(t, int(a * lcm) // gcd, int(b * lcm) // gcd) for t, a, b in coords]
    return out


def critical_ratios(f: EigenformG1) -> list[int]:
    """Coprime integers proportional to (Lambda(f, r-2), Lambda(f, r-4), ...)."""
    if f.field_disc != 1:
        raise DimTooLarge("rational eigenforms only; use congruence_prime_scan")
    return [a for t, a, _ in _critical_entries(f, f) if t % 2 == 0]


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
    forms = eigenforms(r)
    f, g = forms[0], forms[-1]
    D = f.field_disc
    out = set()
    for t, a, b in _critical_entries(f, g):
        j, k = 2 * t - r - 2, r - t + 2
        n = abs(a * a - D * b * b)
        if j >= 0 and n != 0:
            out.update((ell, t, j, k) for ell in factorize(n) if ell > r)
    return sorted(out)
