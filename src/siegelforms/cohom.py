"""From curve counts to Hecke traces on vector-valued genus-2 cusp forms.

The trace of Frobenius on the compactly-supported Euler characteristic of
the local system indexed by (l, m) is an automorphism-weighted sum of
symplectic character values over the census data: Jacobians contribute
through their (t1, e) distribution, the product locus through pairs of
elliptic curves plus a Frobenius-twisted sector coming from pairs conjugate
over the quadratic extension.

The character sp_char(l, m, t1, e, q) is sum c e^b p_{a-b}(t1, e) over the
terms (a, b, c) of _schar_terms(l, m, q), with p_n = a1^n + a2^n the power
sums of the Frobenius pair (and p_0 read as 1).  A sector's weighted sum
over its classes is therefore sum c M[b][a-b], where the moment
M[b][n] = sum w e^b p_n of the sector does not depend on (l, m).
ec_full_A2 reads each sector from such a table, held by the census object
it was built from; a weight the table does not reach rebuilds it whole at
twice its degree (or at the degree needed, if more), so rising weights
cost O(log degree) builds.  sp_char stays as the per-class oracle the
tables are tested against.

Subtracting the rank-boundary (Eisenstein) part and the conjectural
endoscopic part converts that Euler characteristic into the trace of T(p)
on S_{j,k} with (j, k) = (l - m, m + 3).  Both corrections need the
genus-1 traces S[k] of Frobenius over F_{p^i}; motive_trace counts them
from the elliptic census over F_{p^i} (Eichler-Selberg), the census the
product locus reads, so no trace builds a q-expansion basis.  Every result
produced here is conditional on the endoscopic contribution being exactly
the conjectured one; reports carry that flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .census import _cheb_coeffs, ell_census, g2_census, sigma_weighted
from .exact_arith import InvalidInput, is_prime, rat_str
from .g1_modforms import dim_S
from .g2data import dim_S_jk


class NotRegular(InvalidInput):
    pass


class DimNotOne(InvalidInput):
    pass


@dataclass(frozen=True)
class LocalSystemIndex:
    l: int
    m: int

    def __post_init__(self):
        if not (self.l >= self.m >= 0):
            raise ValueError("need l >= m >= 0")

    @property
    def regular(self) -> bool:
        return self.l > self.m > 0

    @property
    def weight(self) -> int:
        return self.l + self.m

    @property
    def jk(self) -> tuple[int, int]:
        return (self.l - self.m, self.m + 3)

    @staticmethod
    def from_jk(j: int, k: int) -> "LocalSystemIndex":
        return LocalSystemIndex(j + k - 3, k - 3)


def _schar_terms(l: int, m: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """The divided difference [D_{l+2}(x) D_{m+1}(y) - D_{m+1}(x) D_{l+2}(y)]
    / (x - y) as a list (a, b, coeff) of symmetric monomials: a > b stands
    for x^a y^b + x^b y^a, a = b for (xy)^a."""
    A = _cheb_coeffs(l + 2, q)
    B = _cheb_coeffs(m + 1, q) + (0,) * (len(A) - (m + 1))
    terms: dict[tuple[int, int], int] = {}
    for i in range(len(A)):
        for j in range(i):
            c = A[i] * B[j] - B[i] * A[j]
            if c == 0:
                continue
            # (x^i y^j - x^j y^i)/(x - y) = sum_{u+v=i-j-1} x^(u+j) y^(v+j)
            span = i - j - 1
            for u in range(span + 1):
                v = span - u
                if u < v:
                    continue  # unordered pairs once; u = v is the diagonal
                key = (u + j, v + j)
                terms[key] = terms.get(key, 0) + c
    return tuple((a, b, c) for (a, b), c in sorted(terms.items()) if c != 0)


# sp_char asks for the same terms once per class; ec_full_A2 asks once per
# trace and keeps none (every weight's terms at q = 11, 13 take ~3 MB)
_schar_terms_cached = lru_cache(maxsize=None)(_schar_terms)


def sp_char(l: int, m: int, t1, e, q):
    """Symplectic character of highest weight (l, m) at Frobenius data
    (t1, e) = (a1 + a2, a1 a2) over F_q; exact polynomial division, no
    limits."""
    if not l >= m >= 0:
        raise ValueError("need l >= m >= 0")
    terms = _schar_terms_cached(l, m, q)
    top = max((a - b for a, b, _ in terms), default=0)
    # power sums p_n = a1^n + a2^n
    ps = [2, t1]
    for _ in range(top - 1):
        ps.append(t1 * ps[-1] - e * ps[-2])
    emax = max((b for _, b, _ in terms), default=0)
    epow = [1]
    for _ in range(emax):
        epow.append(epow[-1] * e)
    total = 0
    for a, b, c in terms:
        total += c * epow[b] * (ps[a - b] if a > b else 1)
    return total


def _require_censuses(q: int):
    return g2_census(q), ell_census(q), ell_census(q * q)


def _moments(classes: dict[tuple[int, int], int], degree: int) -> list[list[int]]:
    """rows[b][n] = sum over classes (t1, e) of weight w of w e^b p_n(t1, e),
    p_0 read as 1, for every 2b + n <= degree."""
    # grouped by e: the O(degree^2) update runs once per distinct e
    by_e: dict[int, list[tuple[int, int]]] = {}
    for (t1, e), w in classes.items():
        by_e.setdefault(e, []).append((t1, w))
    rows = [[0] * (degree - 2 * b + 1) for b in range(degree // 2 + 1)]
    for e, members in by_e.items():
        # s[n] = sum over the classes with this e of w p_n(t1, e)
        s = [0] * (degree + 1)
        for t1, w in members:
            p_prev, p = 2, t1
            s[0] += w
            for n in range(1, degree + 1):
                s[n] += w * p
                p_prev, p = p, t1 * p - e * p_prev
        eb = 1
        for row in rows:
            row[:] = [x + eb * y for x, y in zip(row, s)]
            eb *= e
    return rows


def _sector_sum(classes, census, terms) -> int:
    """sum of w sp_char over the {(t1, e): w} = classes(census) of one
    sector, read from that sector's moment table on the census."""
    need = max((a + b for a, b, _ in terms), default=0)
    tables = census._moment_tables
    built = tables.get(classes)
    if built is None or built[0] < need:
        # replaced whole, never grown in place: threads sharing the census
        # only ever read whole tables
        degree = max(need, 2 * built[0]) if built else need
        built = tables[classes] = (degree, _moments(classes(census), degree))
    rows = built[1]
    return sum(c * rows[b][a - b] for a, b, c in terms)


def _jacobians(g2c) -> dict[tuple[int, int], int]:
    return g2c.counts


def _untwisted_products(e1) -> dict[tuple[int, int], int]:
    # ordered pairs of elliptic curves, both factors defined over F_q
    out: dict[tuple[int, int], int] = {}
    for t, ct in e1.counts.items():
        for tp, ctp in e1.counts.items():
            key = (t + tp, t * tp)
            out[key] = out.get(key, 0) + ct * ctp
    return out


def _twisted_products(e2) -> dict[tuple[int, int], int]:
    # Frobenius swaps the two factors; the surface has trace 0 and
    # e = -(t'' + 2q) for t'' the trace over F_{q^2}
    q = isqrt(e2.q)
    return {(0, -(t2 + 2 * q)): c2 for t2, c2 in e2.counts.items()}


def ec_full_A2(l: int, m: int, q: int) -> tuple[Fraction, Fraction]:
    """(jac_part, prod_part) of the Frobenius trace on e_c of the (l, m)
    local system over the moduli of abelian surfaces."""
    if not l >= m >= 0:
        raise ValueError("need l >= m >= 0")
    g2c, e1, e2 = _require_censuses(q)
    terms = _schar_terms(l, m, q)
    jac_num = _sector_sum(_jacobians, g2c, terms)
    jac = Fraction(jac_num * (q - 1), 2 * g2c.group_order)
    # product locus: ordered pairs, halved
    unt = _sector_sum(_untwisted_products, e1, terms)
    tw = _sector_sum(_twisted_products, e2, terms)
    prod = Fraction(unt, 2 * e1.group_order ** 2) + Fraction(tw, 2 * e2.group_order)
    return jac, prod


def motive_trace(k: int, p: int, i: int) -> Fraction:
    """Trace of Frob_{p^i} on the weight-k cusp motive S[k], counted from
    the elliptic census over F_{p^i} (Eichler-Selberg): sigma_{k-2} - 1."""
    if i < 1:
        raise ValueError("i must be >= 1")
    if dim_S(k) == 0:
        return Fraction(0)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    return sigma_weighted(k - 2, p ** i) - 1


def _check_regular(l: int, m: int) -> None:
    if not (l > m > 0):
        raise NotRegular(f"(l, m) = ({l}, {m}) is not regular")


def eis_correction(l: int, m: int, p: int, i: int = 1) -> Fraction:
    """Trace of Frob_{p^i} on the rank-boundary part of the cohomology of
    the regular (l, m) local system."""
    _check_regular(l, m)
    if (l + m) % 2 != 0:
        raise NotRegular("l + m must be even")
    q = p ** i
    out = -motive_trace(l + 3, p, i)
    out -= dim_S(l + m + 4) * Fraction(q) ** (m + 1)
    out += motive_trace(m + 2, p, i)
    out += dim_S(l - m + 2)
    if l % 2 == 0:
        out += 1
    return out


def endo_correction(l: int, m: int, p: int, i: int = 1) -> Fraction:
    """Conjectural endoscopic trace: -s_{l+m+4} * S[l-m+2]-trace * q^(m+1)."""
    _check_regular(l, m)
    q = p ** i
    return -dim_S(l + m + 4) * motive_trace(l - m + 2, p, i) * Fraction(q) ** (m + 1)


@dataclass
class TraceReport:
    """All the terms feeding one Hecke-trace evaluation; the result equals
    the eigenvalue when the space is one-dimensional."""

    j: int
    k: int
    q: int
    full_sum: Fraction
    jac_part: Fraction
    prod_part: Fraction
    eis: Fraction
    endo: Fraction
    result: Fraction
    conditional: bool = True
    dim: int | None = None

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "k": self.k,
            "q": self.q,
            "jac_part": rat_str(self.jac_part),
            "prod_part": rat_str(self.prod_part),
            "full_sum": rat_str(self.full_sum),
            "eis": rat_str(self.eis),
            "endo": rat_str(self.endo),
            "result": rat_str(self.result),
            "dim": self.dim,
            "is_eigenvalue": self.dim == 1,
            "conditional": self.conditional,
        }


def _trace_at(l: int, m: int, p: int, i: int) -> TraceReport:
    if not is_prime(p):
        raise InvalidInput(f"p = {p} is not a prime")
    jac, prod = ec_full_A2(l, m, p ** i)
    full = jac + prod
    eis = eis_correction(l, m, p, i)
    endo = endo_correction(l, m, p, i)
    result = -(full - eis) + endo
    j, k = l - m, m + 3
    return TraceReport(
        j, k, p ** i, full, jac, prod, eis, endo, result, dim=dim_S_jk(j, k)
    )


def trace_T_Sjk(j: int, k: int, p: int) -> TraceReport:
    """Trace of T(p) on S_{j,k}(Gamma_2), j > 0 even, k >= 4 (regular range),
    p prime; conditional on the endoscopic contribution conjecture."""
    if j <= 0 or j % 2 != 0 or k < 4:
        raise NotRegular(f"(j, k) = ({j}, {k}) outside the regular range")
    ls = LocalSystemIndex.from_jk(j, k)
    return _trace_at(ls.l, ls.m, p, 1)


def lambda_psq(j: int, k: int, p: int) -> Fraction:
    """Eigenvalue of T(p^2) on a one-dimensional S_{j,k}: combines lambda(p)
    with the Frobenius trace over F_{p^2} on the same motive."""
    if dim_S_jk(j, k) != 1:
        raise DimNotOne(f"dim S_{{{j},{k}}} is not 1")
    ls = LocalSystemIndex.from_jk(j, k)
    lam_p = _trace_at(ls.l, ls.m, p, 1).result
    tr2 = _trace_at(ls.l, ls.m, p, 2).result
    w = j + 2 * k - 3
    return (lam_p ** 2 + tr2) / 2 - Fraction(p) ** (w - 1)
