"""From curve counts to Hecke traces on vector-valued genus-2 cusp forms.

The trace of Frobenius on the compactly-supported Euler characteristic of
the local system indexed by (l, m) is an automorphism-weighted sum of
symplectic character values over the census data: Jacobians contribute
through their (t1, e) distribution, the product locus through pairs of
elliptic curves plus a Frobenius-twisted sector coming from pairs conjugate
over the quadratic extension.

The character is a divided difference: with A and B the coefficients of
D_{l+2} and D_{m+1} (_cheb_coeffs) and, for i > j,
(x^i y^j - x^j y^i)/(x - y) = (xy)^j h_{i-j-1}(x, y), where h_k is the
complete homogeneous sum of the Frobenius pair (h_0 = 1, h_1 = t1,
h_k = t1 h_{k-1} - e h_{k-2}),

    sp_char(l, m, t1, e, q) = sum over i > j of (A_i B_j - A_j B_i) e^j h_{i-j-1}.

A sector's weighted sum over its classes is therefore a contraction of
(A, B) against its h-moments sum w e^b h_k, which do not depend on (l, m).
A_i and B_j vanish unless i = l + 1 and j = m (mod 2), so the contraction
reads only the h_k with k = l - m (mod 2).  Every census is symmetric under
the twist t1 -> -t1, and h_k(-t1, e) = (-1)^k h_k(t1, e), so the odd h_k
cancel and a sector's sum is 0 for odd l - m.  For even l - m, h_{2n} is a
polynomial x_n in (u, e) = (t1^2, e), x_{n+1} = (u - 2e) x_n - e^2 x_{n-1}
from x_0 = 1 and x_1 = u - e.  So the classes fold onto (u, e), each
weighed by the sum of w over its classes t1 = +-sqrt(u), and a sector's one
table holds rows[b][n] = sum w e^b x_n for b + n up to (l + m) // 2.
ec_full_A2 reads each sector from such tables, held by the census object
they were built from and grouped by e.  A weight a table does not reach
grows it to exactly that top by the antidiagonals b + n it lacks: the table
keeps each e-group's sums of w x_n and each class's last two x values, so
no recurrence starts over, and the grown table is published as a new whole
tuple.  sp_char, a sum over the terms of _schar_terms, stays as the
per-class oracle the tables are tested against.
The elliptic curves themselves are one more sector, (t, q) for each trace
t: there e = q makes h_k = D_{k+1}(t, q), so row 0 of its table holds
sigma_k(q) = -sum of h_k(E)/#Aut(E) over the curves for even k, an
integer once divided by the census group order; for odd k it is 0.

Subtracting the rank-boundary (Eisenstein) part and the conjectural
endoscopic part converts that Euler characteristic into the trace of T(p)
on S_{j,k} with (j, k) = (l - m, m + 3).  Both corrections need the
genus-1 traces S[k] of Frobenius over F_{p^i}; motive_trace counts them
from the elliptic census over F_{p^i} (Eichler-Selberg), the census the
product locus reads, so no trace builds a q-expansion basis, and both
corrections are integers.  Every result produced here is conditional on
the endoscopic contribution being exactly the conjectured one; reports
carry that flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul, sub

from .census import CensusInvariantError, ell_census, g2_census
from .exact_arith import InvalidInput, is_prime, rat_str
from .g1_modforms import dim_S
from .g2data import dim_S_jk


class NotRegular(InvalidInput):
    pass


class DimNotOne(InvalidInput):
    pass


@lru_cache(maxsize=None)
def _cheb_coeffs(n: int, q: int) -> tuple[int, ...]:
    """Coefficients of D_n(x) over Z, lowest degree first: D_1 = 1,
    D_2 = x, D_n = x D_{n-1} - q D_{n-2}; D_{k+1}(t, q) is the degree-k
    symmetric power sum alpha^k + alpha^(k-1) conj + ... + conj^k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prev, cur = [0], [1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= q * c
        prev, cur = cur, nxt
    return tuple(cur)


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
        raise InvalidInput(f"(l, m) = ({l}, {m}): need l >= m >= 0")
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
    return g2_census(q), ell_census(q), ell_census(q * q)


def _fold(classes: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The {(t1, e): w} classes folded onto (e, u) = (e, t1^2), each (e, u)
    weighed by the sum of w over t1 = +-sqrt(u).  Classes of weight 0 are
    dropped."""
    folded: dict[tuple[int, int], int] = {}
    for (t1, e), w in classes.items():
        key = (e, t1 * t1)
        folded[key] = folded.get(key, 0) + w
    return {key: w for key, w in folded.items() if w}


def _empty_table(classes: dict[tuple[int, int], int]) -> tuple:
    """The h-moment table of the {(t1, e): w} classes at top -1: no rows,
    the folded classes ordered by e, and each at x_0 = 1, x_1 = u - e."""
    items = sorted(_fold(classes).items())
    es = tuple(e for (e, _), _ in items)
    ws = tuple(w for _, w in items)
    cuts = [i for i in range(len(es) + 1) if i in (0, len(es)) or es[i] != es[i - 1]]
    steps = tuple(u - 2 * e for (e, u), _ in items)
    x_next = tuple(u - e for (e, u), _ in items)
    squares = tuple(e * e for e in es)
    history = (es, ws, tuple(zip(cuts, cuts[1:])), steps, squares, (1,) * len(es), x_next, ())
    return -1, (), history


def _grow(table: tuple, top: int) -> tuple:
    """table = (start, rows, history), grown to top as a new tuple by the
    antidiagonals start < b + n <= top it lacks: rows[b][n] = sum of
    w e^b x_n(u, e) over the folded classes, where
    x_{n+1} = (u - 2e) x_n - e^2 x_{n-1}.  history holds the classes, their
    groups of equal e, each class's u - 2e and e^2, its x_n and x_{n+1} at
    n = start + 1, and sums[n] = (sum of w x_n over each group)."""
    start, rows, (es, ws, groups, steps, squares, x, x_next, sums) = table
    new_sums = []
    for _ in range(start, top):
        wx = list(map(mul, ws, x))
        new_sums.append(tuple(sum(wx[lo:hi]) for lo, hi in groups))
        x, x_next = x_next, list(map(sub, map(mul, steps, x_next), map(mul, squares, x)))
    sums += tuple(new_sums)
    group_es = [es[lo] for lo, _ in groups]
    power = [1] * len(groups)  # e^b per group
    grown = []
    for b in range(top + 1):
        old = rows[b] if b < len(rows) else ()
        new = (sum(map(mul, power, sums[n])) for n in range(len(old), top - b + 1))
        grown.append(old + tuple(new))
        power = list(map(mul, power, group_es))
    history = (es, ws, groups, steps, squares, tuple(x), tuple(x_next), sums)
    return top, tuple(grown), history


def _rows(classes, census, top: int) -> tuple:
    """rows[b][n] = sum of w e^b h_{2n} over the {(t1, e): w} =
    classes(census) of one sector, for b + n <= top at least: the sector's
    h-moment table on the census, grown when it is short."""
    tables = census._moment_tables
    table = tables.get(classes)
    if table is None or table[0] < top:
        # a new whole tuple, the old one left as it was: threads sharing
        # the census only ever read whole tables
        table = tables[classes] = _grow(table or _empty_table(classes(census)), top)
    return table[1]


def _sector_sum(classes, census, l: int, m: int, q: int) -> int:
    """sum of w sp_char(l, m, t1, e, q) over the {(t1, e): w} =
    classes(census) of one sector, contracted against its h-moments."""
    # A_i vanishes unless i = l + 1 and B_j unless j = m (mod 2), so both
    # products in A_i B_j - A_j B_i vanish unless i - j - 1 = l - m (mod 2).
    # For odd l - m only odd h_k remain, and they cancel over the
    # twist-symmetric classes: h_k(-t1, e) = -h_k(t1, e)
    if (l - m) % 2:
        return 0
    rows = _rows(classes, census, (l + m) // 2)
    A, B = _cheb_coeffs(l + 2, q), _cheb_coeffs(m + 1, q)
    # h_{2n} = rows[j][n] at i = j + 1 + 2n; B stops at m, so j runs over B
    total = 0
    for j, (a, b) in enumerate(zip(A, B)):
        if b:
            total += b * sum(map(mul, A[j + 1::2], rows[j]))
        if a:
            total -= a * sum(map(mul, B[j + 1::2], rows[j]))
    return total


def _curves(e1) -> dict[tuple[int, int], int]:
    # each elliptic curve over F_q: alpha beta = q
    return {(t, e1.q): c for t, c in e1.counts.items()}


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
        raise InvalidInput(f"(l, m) = ({l}, {m}): need l >= m >= 0")
    g2c, e1, e2 = _require_censuses(q)
    jac = _sector_sum(_jacobians, g2c, l, m, q) * g2c.unit
    # product locus: ordered pairs, halved
    unt = _sector_sum(_untwisted_products, e1, l, m, q)
    tw = _sector_sum(_twisted_products, e2, l, m, q)
    return jac, (unt * e1.unit ** 2 + tw * e2.unit) / 2


def sigma_weighted(k: int, q: int) -> int:
    """sigma_k(q) = -sum_E h(k, E)/#Aut(E) over the elliptic census: the
    sum over its models divided by group_order, which must be exact."""
    if k < 0:
        raise InvalidInput(f"k = {k}: need k >= 0")
    census = ell_census(q)
    if k % 2:
        return 0  # the census is twist-symmetric: h_k(-t, q) = -h_k(t, q)
    total = -_rows(_curves, census, k // 2)[0][k // 2]
    value, rest = divmod(total, census.group_order)
    if rest:
        raise CensusInvariantError(f"sigma_{k}({q}) = {total}/{census.group_order} is not whole")
    return value


def motive_trace(k: int, p: int, i: int) -> int:
    """Trace of Frob_{p^i} on the weight-k cusp motive S[k], counted from
    the elliptic census over F_{p^i} (Eichler-Selberg): sigma_{k-2} - 1."""
    if i < 1:
        raise InvalidInput(f"i = {i}: need i >= 1")
    if not is_prime(p):
        raise InvalidInput(f"p = {p} is not a prime")
    if dim_S(k) == 0:
        return 0
    return sigma_weighted(k - 2, p ** i) - 1


def _check_regular(l: int, m: int) -> None:
    if not (l > m > 0):
        raise NotRegular(f"(l, m) = ({l}, {m}) is not regular")


def eis_correction(l: int, m: int, p: int, i: int = 1) -> int:
    """Trace of Frob_{p^i} on the rank-boundary part of the cohomology of
    the regular (l, m) local system."""
    _check_regular(l, m)
    if (l + m) % 2 != 0:
        raise NotRegular("l + m must be even")
    q = p ** i
    out = -motive_trace(l + 3, p, i)
    out -= dim_S(l + m + 4) * q ** (m + 1)
    out += motive_trace(m + 2, p, i)
    out += dim_S(l - m + 2)
    if l % 2 == 0:
        out += 1
    return out


def endo_correction(l: int, m: int, p: int, i: int = 1) -> int:
    """Conjectural endoscopic trace: -s_{l+m+4} * S[l-m+2]-trace * q^(m+1)."""
    _check_regular(l, m)
    q = p ** i
    return -dim_S(l + m + 4) * motive_trace(l - m + 2, p, i) * q ** (m + 1)


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
    eis: int
    endo: int
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
    return _trace_at(j + k - 3, k - 3, p, 1)


def lambda_psq(j: int, k: int, p: int) -> Fraction:
    """Eigenvalue of T(p^2) on a one-dimensional S_{j,k}: combines lambda(p)
    with the Frobenius trace over F_{p^2} on the same motive."""
    if dim_S_jk(j, k) != 1:
        raise DimNotOne(f"dim S_{{{j},{k}}} is not 1")
    l, m = j + k - 3, k - 3
    lam_p = _trace_at(l, m, p, 1).result
    tr2 = _trace_at(l, m, p, 2).result
    w = j + 2 * k - 3
    return (lam_p ** 2 + tr2) / 2 - Fraction(p) ** (w - 1)
