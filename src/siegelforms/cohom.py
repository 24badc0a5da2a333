"""From curve counts to Hecke traces on vector-valued genus-2 cusp forms.

The trace of Frobenius on the compactly-supported Euler characteristic of
the local system indexed by (l, m) is an automorphism-weighted sum of
symplectic character values over the census data: Jacobians contribute
through their (t1, e) distribution, the product locus through pairs of
elliptic curves plus a Frobenius-twisted sector coming from pairs conjugate
over the quadratic extension.

Subtracting the rank-boundary (Eisenstein) part and the conjectural
endoscopic part converts that Euler characteristic into the trace of T(p)
on S_{j,k} with (j, k) = (l - m, m + 3).  Every result produced here is
conditional on the endoscopic contribution being exactly the conjectured
one; reports carry that flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .census import FieldTooLarge, _cheb_coeffs, ell_census, g2_census
from .exact_arith import is_prime, rat_str
from .g1_modforms import dim_S, motive_trace
from .g2data import dim_S_jk


class NotRegular(Exception):
    pass


class MissingCensus(Exception):
    pass


class DimNotOne(Exception):
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


@lru_cache(maxsize=None)
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


def sp_char(l: int, m: int, t1, e, q):
    """Symplectic character of highest weight (l, m) at Frobenius data
    (t1, e) = (a1 + a2, a1 a2) over F_q; exact polynomial division, no
    limits."""
    if not l >= m >= 0:
        raise ValueError("need l >= m >= 0")
    terms = _schar_terms(l, m, q)
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
    try:
        return g2_census(q), ell_census(q), ell_census(q * q)
    except FieldTooLarge as exc:
        raise MissingCensus(str(exc)) from exc


def ec_full_A2(l: int, m: int, q: int) -> tuple[Fraction, Fraction]:
    """(jac_part, prod_part) of the Frobenius trace on e_c of the (l, m)
    local system over the moduli of abelian surfaces."""
    g2c, e1, e2 = _require_censuses(q)
    jac_num = 0
    for (t1, e), cnt in g2c.counts.items():
        jac_num += cnt * sp_char(l, m, t1, e, q)
    jac = Fraction(jac_num * (q - 1), 2 * g2c.group_order)

    # untwisted product sector: ordered pairs, halved
    unt = 0
    items = sorted(e1.counts.items())
    for t, ct in items:
        for tp, ctp in items:
            unt += ct * ctp * sp_char(l, m, t + tp, t * tp, q)
    # twisted sector: Frobenius swaps the two factors; the surface has
    # trace 0 and e = -(t'' + 2q) for t'' the trace over F_{q^2}
    tw = 0
    for t2, c2 in e2.counts.items():
        tw += c2 * sp_char(l, m, 0, -(t2 + 2 * q), q)
    prod = Fraction(unt, 2 * e1.group_order ** 2) + Fraction(tw, 2 * e2.group_order)
    return jac, prod


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
        raise ValueError(f"p = {p} is not a prime")
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
