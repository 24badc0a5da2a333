"""Verification of the congruence lambda(p) = p^(k-2) + a(p) + p^(j+k-1)
mod ell between genus-2 eigenvalues and elliptic Fourier coefficients.

Eigenvalue sources, in priority order: the census pipeline (p <= 7,
one-dimensional spaces), published tables bundled under data/, and the
published quartic Frobenius factors at p = 2.  Where census and table
values coexist they must agree exactly; a mismatch aborts rather than
picking a side.  Divisibility is always tested on the norm of the
congruence expression, computed in Z[x]/(f) for f the monic integer
minimal polynomial of a(p), so verdicts never depend on an embedding
choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cohom import trace_T_Sjk
from .exact_arith import InvalidInput, is_prime, min_poly, primes_upto
from .g1_modforms import dim_S, eigenforms
from .g2data import congruence_rows, dim_S_jk, published_a22, published_lambdas, quartic_factors
from .hecke_satake import _check_jk

CENSUS_PRIMES = (3, 5, 7)


class MissingEigenvalue(Exception):
    """Raised by require_full_coverage when a congruence check had to skip
    primes; ordinary checks record the gaps per prime instead of failing."""


class EigenvalueMismatch(Exception):
    pass


@dataclass(frozen=True)
class EigenRecord:
    """One Hecke eigenvalue lambda(p) for S_{j,k}(Gamma_2) with provenance
    census | published_table."""

    j: int
    k: int
    p: int
    value: object  # Fraction or QuadElem
    provenance: str


@dataclass
class CongruenceEntry:
    p: int
    provenance: str
    norm: int
    divisible: bool


@dataclass
class CongruenceResult:
    r: int
    j: int
    k: int
    ell: int
    entries: list = field(default_factory=list)
    missing: list = field(default_factory=list)  # primes without eigenvalue data
    verdict: bool | None = None  # None = untestable
    conditional: bool = True

    @property
    def untestable(self) -> bool:
        return self.verdict is None

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "j": self.j,
            "k": self.k,
            "ell": self.ell,
            "verdict": self.verdict,
            "untestable": self.untestable,
            "missing_primes": self.missing,
            "conditional": self.conditional,
            "entries": [
                {
                    "p": e.p,
                    "provenance": e.provenance,
                    "norm": str(e.norm),
                    "divisible": e.divisible,
                }
                for e in self.entries
            ],
        }


# ---------------------------------------------------------------------------
# congruence norms


def norm_via_resultant(minpoly_a: list[int], minpoly_lam: list[int], c: int) -> int:
    """prod_{i,j} (lambda_j - a_i - c) over all roots, up to sign: the norm
    of the congruence expression in the composite field.  Inputs are
    integer minimal polynomials of degree 1 or 2 with leading coefficient
    +-1, lowest-degree-first.

    The value is the resultant Res(f, g) = lc(f)^deg g prod_{f(a) = 0} g(a)
    of f = minpoly_a and g(x) = minpoly_lam(x + c): Horner in Z[x]/(f)
    gives g(a) = u a + v, whose norm down to Z is v for a linear f and
    v^2 - f1 u v + f0 u^2 for a monic quadratic x^2 + f1 x + f0."""
    for poly in (minpoly_a, minpoly_lam):
        if poly[-1] not in (1, -1):
            raise ValueError("minimal polynomials must be monic-scaled")
        if len(poly) not in (2, 3):
            raise ValueError("minimal polynomials must have degree 1 or 2")
    lead = minpoly_a[-1]
    f0, f1 = lead * minpoly_a[0], lead * minpoly_a[1]
    u = v = 0
    if len(minpoly_a) == 2:  # a = -f0
        for b in reversed(minpoly_lam):
            v = v * (c - f0) + b
        norm = v
    else:  # a^2 = -f1 a - f0
        for b in reversed(minpoly_lam):
            u, v = u * (c - f1) + v, v * c - u * f0 + b
        norm = v * v - f1 * u * v + f0 * u * u
    return lead ** (len(minpoly_lam) - 1) * norm


# ---------------------------------------------------------------------------
# eigenvalue sourcing


def _census_lambda(j: int, k: int, p: int) -> Fraction:
    return trace_T_Sjk(j, k, p).result


def eigen_records(
    j: int,
    k: int,
    dim_sjk: int | None,
    p_max: int,
) -> dict[int, list[EigenRecord]]:
    """Available lambda(p) records for p <= p_max, keyed by p.  A key maps
    to several records only for the published quartic factors (candidate
    eigenvalues of a 2-dimensional space)."""
    table = published_lambdas().get((j, k), {})
    quartics = quartic_factors().get((j, k), [])
    out: dict[int, list[EigenRecord]] = {}
    for p in primes_upto(p_max):
        recs: list[EigenRecord] = []
        census_val = None
        if dim_sjk == 1 and p in CENSUS_PRIMES and j >= 2 and k >= 4:
            census_val = _census_lambda(j, k, p)
            recs.append(EigenRecord(j, k, p, census_val, "census"))
        if p in table:
            tab_val = Fraction(table[p])
            if census_val is not None and tab_val != census_val:
                raise EigenvalueMismatch(
                    f"census lambda({p}) = {census_val} != published {tab_val} "
                    f"on S_{{{j},{k}}}"
                )
            if census_val is None:
                recs.append(EigenRecord(j, k, p, tab_val, "published_table"))
        if p == 2 and quartics and not recs:
            # one candidate per minimal polynomial, which conjugates share
            candidates = {}
            for factor in quartics:
                candidates.setdefault(tuple(min_poly(-factor[1])), -factor[1])
            recs += [EigenRecord(j, k, p, lam, "published_table") for lam in candidates.values()]
        if recs:
            out[p] = recs
    return out


# ---------------------------------------------------------------------------
# the congruence checks


def _check_p_max(p_max: int) -> None:
    if p_max < 2:
        raise InvalidInput(f"p_max = {p_max} is below the smallest prime")


def check_congruence(j: int, k: int, r: int, ell: int, p_max: int = 37) -> CongruenceResult:
    """Test lambda(p) = p^(k-2) + a(p) + p^(j+k-1) mod ell for every prime
    p <= p_max with an available eigenvalue record.

    For quadratic a(p) or lambda(p) the test is ell | Norm(lambda - a - c)
    with the norm taken in the composite field, as a norm in Z[x]/(f)
    (norm_via_resultant).
    """
    if dim_S(r) not in (1, 2):
        raise InvalidInput(f"dim S_{r} = {dim_S(r)}, the congruence needs 1 or 2")
    if not is_prime(ell):
        raise InvalidInput(f"ell = {ell} is not a prime")
    _check_jk(j, k)
    _check_p_max(p_max)
    records = eigen_records(j, k, dim_S_jk(j, k), p_max)
    result = CongruenceResult(r, j, k, ell)
    result.missing = [p for p in primes_upto(p_max) if p not in records]
    if not records:
        return result  # untestable
    f = eigenforms(r, p_max + 1)[0]
    verdict = True
    for p in sorted(records):
        c = p ** (j + k - 1) + p ** (k - 2)
        a_poly = f.a_min_poly(p)
        candidate_hit = False
        cand_entries = []
        for rec in records[p]:
            n = norm_via_resultant(a_poly, min_poly(rec.value), c)
            divisible = n % ell == 0
            candidate_hit = candidate_hit or divisible
            cand_entries.append(CongruenceEntry(p, rec.provenance, n, divisible))
        # every candidate eigenform at this p is reported; the congruence
        # asks for one of them to match
        result.entries.extend(cand_entries)
        verdict = verdict and candidate_hit
    result.verdict = verdict
    return result


def run_table(p_max: int = 37) -> list[CongruenceResult]:
    """One CongruenceResult per bundled table row with a listed congruence
    prime; rows with no reachable eigenvalue data come back untestable."""
    _check_p_max(p_max)
    results = []
    for row in congruence_rows():
        if not row.primes:
            continue
        for ell in row.primes:
            results.append(check_congruence(row.j, row.k, row.r, ell, p_max))
    results.sort(key=lambda res: (res.r, res.j, res.k, res.ell))
    return results


def require_full_coverage(result: CongruenceResult) -> CongruenceResult:
    """Escalate skipped primes into an error for callers that demand a
    complete run."""
    if result.missing:
        raise MissingEigenvalue(
            f"no lambda(p) data for p in {result.missing} on "
            f"S_{{{result.j},{result.k}}}"
        )
    return result


def verify_reference_row(p_max: int = 37) -> bool:
    """The fully-tabulated case: weight-22 against S_{4,10} mod 41, using
    the published eigenvalue pair table for all p <= p_max; every published
    a(p) of weight 22 must equal the basis's."""
    res = require_full_coverage(check_congruence(4, 10, 22, 41, p_max))
    a22 = published_a22()
    f22 = eigenforms(22, max([p_max, *a22]) + 1)[0]
    for p, ap in a22.items():
        if f22.a(p) != ap:
            raise EigenvalueMismatch(f"published a({p}) disagrees with the basis")
    return bool(res.verdict) and len(res.entries) == sum(
        1 for p in a22 if p <= p_max
    )
