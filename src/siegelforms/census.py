"""Exhaustive automorphism-weighted censuses of elliptic and genus-2 curves
over small finite fields.

Everything is a mass formula: instead of classifying curves up to
isomorphism we enumerate raw models and divide by the order of the model
transformation group (orbit-stabilizer turns that into sum 1/#Aut).  The
genus-2 enumeration is reduced to monic sextics/quintics: an arbitrary
squarefree binary sextic is lambda * g with g monic of degree 5 or 6, the
quadratic twist by lambda flips the sign of the trace term and leaves the
F_{q^2} data alone, so each monic model stands for (q-1)/2 models per twist
class.  A census holds integer counts per class and the unit, the mass of
one count: 1/group_order for elliptic curves, (q-1)/(2 group_order) for
genus 2; the masses add up to q and q^3, so the model count follows from
them and is not tallied.  The genus-2 counts fill a dense table over the
Weil box with each model's S1, and the twist -S1 is its mirror image:
nothing is sorted.  This module only counts and caches; every sum of a
character over a census (sigma_k, the symplectic characters) is cohom's.

Every census computes in integers on arrays of element indices, with no
float or BLAS call.  The odd-q point sums and the squarefree marks are
F_p-affine maps of the base-p digits D of a model index.  A monic
g = x^d + sum c_i x^i over F_q has index sum c_i q^i, so D holds the
F_p-coordinates of its coefficients, and a quantity F_p-affine in them is
D @ W + w0 mod p, w0 its value at index 0 and row j of W its value at
index p^j minus w0.
- Points, odd q: g(x) for each fixed x.  A model is g = r + c_0, c_0 its
  constant term, so sum_x chi(g(x)) = sum_y H_r(y) chi(y + c_0), H_r(y)
  the number of points where r(x) = y, and g has H_r(-c_0) roots.  Each
  distinct r is evaluated once, in integers on coordinates reduced mod p;
  bincount gives H_r and one integer contraction with the table
  chi(y + c) the sums for all q constant terms (_char_sums).  Over
  F_{q^2} the points of F_q add q minus the roots, as F_q lies in the
  squares of F_{q^2}, and one point per conjugate pair of the rest is
  enough: chi(g(x^q)) = chi(g(x)).
- Squarefree marks: for every monic h of degree 1 to d/2, all h of one
  degree at once, the lower coefficients of h^2 m, m monic.  Irreducible
  or not, h^2 | g makes g non-squarefree.  The whole slab is marked once
  and sliced by the ranges the census reads (below).
- Characteristic 2 (q = 2, 4, 16): models y^2 + h y = f, h = a1 x + a3,
  f = r + a6 with r = x^3 + a2 x^2 + a4 x, over a group of order
  q^3 (q - 1).  A point x has 1 point over it if h(x) = 0, else 2 or 0 as
  Tr(f(x)/h(x)^2) is 0 or 1.  psi = (-1)^Tr is additive, so with
  u = 1/h(x)^2 the trace is t = -sum_{h(x) != 0} psi(r(x) u) psi(a6 u):
  for each h one product of a +-1 table over (a2, a4) x x with one over
  x x a6 gives all q^3 models, every a6 at once.  The model is singular
  iff h = 0, or a1 != 0 and a1^2 f(x0) + x0^4 + a4^2 = 0 at x0 = a3/a1,
  where both partial derivatives vanish: one a6 per (a1, a3, a2, a4).
The tables are built by array arithmetic on element indices, with no
Python call per element: products through exact_arith.Fq's log and
antilog tables (_log_exp), sums on F_p-coordinates (XOR for p = 2),
chi(y) from the parity of log y and Tr(y) = y + y^2 + ... + y^(q/2) from
logs doubled mod q - 1.

In odd characteristic the elliptic censuses count monic cubics, y^2 = g(x).
For q = 3 and 9 the files count five-coefficient models
y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over q^3 (q - 1); for each
(a1, a3), completing the square maps (a2, a4, a6) one-to-one onto the
monic cubics and keeps points and discriminant, so each cubic counts q^2
times there.  q = 81 counts each cubic once over q (q - 1), and p >= 5 each
depressed cubic once over q - 1; the masses agree.

The monic-model censuses (genus 2, and elliptic through _ell_monic)
evaluate one model per orbit of the affine maps x -> a x + t and weight it
by the number of models it stands for (_orbit_reps).  On a monic g of
degree d the map sends g to a^-d g(a x + t).  It permutes F_q and F_{q^2},
so it keeps S2, squarefreeness and the point at infinity, and S1 up to the
sign chi(a)^d: genus 2 lets a run over all of F_q^* (power 1), since its
histogram counts both twists +-S1, the elliptic census over the squares
a = u^2 (power 2: x -> u^2 x, y -> u^3 y keeps the points).
- Translation sends c_{d-1} to c_{d-1} + d t and c_{d-2} to
  c_{d-2} + (d-1) c_{d-1} t + C(d,2) t^2.  For p not dividing d every
  orbit is free and holds exactly one model on the slab c_{d-1} = 0, which
  stands for q models.  For p | d (p odd, so C(d,2) = 0) c_{d-1} is
  invariant: an orbit with c_{d-1} = c != 0 is free and holds exactly one
  model with c_{d-2} = 0, and the slab stands for itself (factor 1).
- Scaling x -> a x sends c_{d-i} to a^-i c_{d-i} and keeps the slab.  Its
  models other than x^d (never squarefree) fall into strata by their first
  nonzero c_{d-i}, i >= 2; the a^i, a a power-th power, are the
  (power i)-th powers, a subgroup with g = gcd(power i, q - 1) cosets
  gamma^j (gamma a generator of F_q^*).  So the stratum with c_{d-i} =
  gamma^j, j < g, and c_{d-1} .. c_{d-i+1} zero stands for the (q - 1)/g
  values of c_{d-i} in its coset: one contiguous index range with weight
  w (q - 1)/g, w = q for p not dividing d and w = 1 for p | d.
- For p | d the lines c_{d-1} = gamma^j, c_{d-2} = 0, j < gcd(power, q - 1),
  stand for the models with c_{d-1} != 0, weight q (q - 1)/gcd(power, q - 1).
The genus-2 census needs S2 only for the sextics with no root in F_q.
GL_2(F_q) maps a squarefree binary sextic F to F(a x + b z, c x + d z),
an isomorphic curve, and is transitive on P^1(F_q).  So with n1(F) the
number of roots of F in P^1(F_q), the forms with n1 >= 1 add up, class by
class, to (q + 1) sum w(F)/n1(F) over the forms with F(1, 0) = 0: count
each form once per root and move that root to infinity.  Those forms are
the quintic models, n1 = 1 + the roots of g in F_q, which x -> a x + t and
the twist keep, so the orbit weights stay.  The sextic pass therefore
keeps the root-free models and the quintic pass weights each by
(q + 1)/n1; every weight is multiplied by 60 = lcm(1, ..., 6) to stay an
integer, and each class count divided by 60 at the end, exactly.  h^2 | g
with h linear gives g a root, so the sextic marks take h of degree 2 and 3
only.

The squarefree marks cover the slab (q^(d-1) entries, built once and sliced
by the strata) and each p | d line (q^(d-2)), never all q^d models: with
the top coefficients fixed, h fixes the top coefficients of m as well
(c_{d-1} = 2 h_{e-1} + m_{dm-1} on the slab) or cannot divide, so each h
that can marks q^(s-2e) models of a range with s free coefficients.  They
are solved for all h of one degree together, and one matmul of the digits
of m's free coefficients marks a block of h at once.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .exact_arith import Fq, finite_field

CACHE_VERSION = 1

MAX_Q_G2 = 17  # hard cap: beyond this the enumeration is out of scope
MAX_Q_ELL = 4096  # the elliptic census's bitmap and table grow as q^2

# lcm(1, ..., 6): the genus-2 weights (q + 1)/n1 times this are integers
_N1_LCM = 60


class FieldTooLarge(Exception):
    pass


class CacheError(Exception):
    pass


class CensusInvariantError(Exception):
    """A census broke an identity every census satisfies (total mass,
    Hasse and Weil bounds, parity, twist symmetry); raised, not asserted,
    so that the checks also run under python -O."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CensusInvariantError(message)


_cache_dir: Path | None = None
# every census read or computed since the last set_cache_dir, by (kind, q)
_censuses: dict[tuple[str, int], EllCensus | G2Census] = {}


def set_cache_dir(path: str | os.PathLike | None) -> None:
    """Read and write censuses under path (None: keep them in memory only);
    censuses already computed are forgotten, so the next call uses path."""
    global _cache_dir
    path = Path(path) if path is not None else None
    if path is not None:
        path.mkdir(parents=True, exist_ok=True)
    _cache_dir = path
    _censuses.clear()


def _field(q: int) -> Fq:
    """F_q, or FieldTooLarge when q is not a field order supported here."""
    try:
        return finite_field(q)
    except ValueError as exc:
        raise FieldTooLarge(str(exc)) from exc


# ---------------------------------------------------------------------------
# F_p-affine digit maps


def _digit_matrix(idx: np.ndarray, p: int, n: int) -> np.ndarray:
    """The n base-p digits of each index, along a new last axis."""
    return idx[..., None] // p ** np.arange(n, dtype=np.int64) % p


@lru_cache(maxsize=None)
def _log_exp(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) of F_q as int32 arrays: exp[i] = gamma^i for i < 2(q - 1)
    and log[gamma^i] = i, gamma the generator of Fq's log tables (log[0] is
    a placeholder 0)."""
    log, exp, _ = finite_field(q)._log_tables()
    return np.array(log, dtype=np.int32), np.array(exp, dtype=np.int32)


def _mul(q: int, x, y) -> np.ndarray:
    """x y in F_q, element by element over broadcast arrays of indices."""
    log, exp = _log_exp(q)
    return np.where((x == 0) | (y == 0), 0, exp[log[x] + log[y]])


def _convolve(q: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products of polynomials over F_q whose coefficients, lowest
    first, run along the last axes of a and b (element indices; the other
    axes broadcast).  Sums are taken on F_p-coordinates."""
    F = finite_field(q)
    p, k = F.p, F.k
    terms = _digit_matrix(_mul(q, a[..., :, None], b[..., None, :]), p, k)
    la, lb = terms.shape[-3:-1]
    out = np.zeros(terms.shape[:-3] + (la + lb - 1, k), dtype=np.int64)
    for i in range(la):
        out[..., i : i + lb, :] += terms[..., i, :, :]
    return out % p @ p ** np.arange(k)


@lru_cache(maxsize=None)
def _value_map(q: int, d: int, ext: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, C0): the F_p-coordinates of g(x_j) for a monic degree-d model g
    are (D @ C[:, j] + C0[j]) mod p, x_j running over F_q for ext = 1 and,
    for ext = 2, over the smaller element of each conjugate pair of
    F_{q^2} - F_q.  g is affine in its coefficients, so row (i, b) of C
    holds the coordinates of p^b x_j^i (p^b the b-th F_p-basis element of
    F_q, the coefficient c_i at digit b) and C0 those of x_j^d."""
    F, Q = finite_field(q), q ** ext
    p, k = F.p, F.k  # F_p-coordinates per F_q coefficient
    log, exp = _log_exp(Q)
    x = np.arange(Q)
    if ext == 2:  # F_q's elements are the indices below q
        x = x[(x >= q) & (x < exp[log[x] * q % (Q - 1)])]
    powers = exp[np.arange(d + 1)[:, None] * log[x] % (Q - 1)]  # row i: x_j^i
    powers[1:, x == 0] = 0
    C = _digit_matrix(_mul(Q, p ** np.arange(k)[:, None, None], powers[:d]), p, k * ext)
    return C.swapaxes(0, 1).reshape(d * k, len(x), k * ext), _digit_matrix(powers[d], p, k * ext)


# entries (models x columns) in one block of the census kernels
_BLOCK = 1 << 18


@lru_cache(maxsize=None)
def _shift_table(q: int, ext: int) -> np.ndarray:
    """T[c, y] = chi(y + c) for c in F_q (the indices below q) and y in
    F_{q^ext}, in the smallest signed type that holds +-q^ext.  c moves the
    low k coordinates of y only, so their axes of chi are padded by
    wrapping around and read through a sliding window."""
    F = finite_field(q)
    p, k, n = F.p, F.k, ext * F.k
    chi = 1 - 2 * (_log_exp(q ** ext)[0] & 1)  # (-1)^log(y), gamma a generator, q odd
    chi = chi.astype(np.min_scalar_type(-q ** ext - 1))
    chi[0] = 0
    chi = np.pad(chi.reshape((p,) * n), [(0, 0)] * (n - k) + [(0, p - 1)] * k, mode="wrap")
    T = np.lib.stride_tricks.sliding_window_view(chi, (p,) * k, axis=tuple(range(n - k, n)))
    # axes: the coordinates of c, then of y, each lowest last
    return np.moveaxis(T, tuple(range(n, n + k)), tuple(range(k))).reshape(q, q ** ext)


def _char_sums(q: int, d: int, ext: int, idx: np.ndarray):
    """(sums, roots): for each monic degree-d model g with index
    sum c_i q^i in idx, the sum of chi(g(x_j)) over the points x_j of
    _value_map(q, d, ext), and at ext = 1 the number of roots of g in F_q
    (None at ext = 2), from the histograms H_r of the module docstring,
    r = idx // q.  The models of one r sit next to each other in idx, so
    each run of equal r is evaluated once; a block holds the runs that
    start in one stretch of `rows` models."""
    F = finite_field(q)
    p, k = F.p, F.k
    C, C0 = _value_map(q, d, ext)
    points, m = C0.shape
    Q, T = q ** ext, _shift_table(q, ext)
    # rows: the digits of r; columns (b, j): coordinate b of r(x_j), which
    # vt holds before its reduction mod p
    W, w0 = C[k:].transpose(0, 2, 1).reshape(len(C) - k, -1), C0.T.ravel()
    vt = np.min_scalar_type(int(((p - 1) * W.sum(axis=0) + w0).max()))
    W, w0 = W.astype(vt), w0.astype(vt)
    neg = -_digit_matrix(np.arange(q), p, k) % p @ p ** np.arange(k)  # -c as an index
    sums = np.empty(len(idx), dtype=np.int32)
    roots = np.empty(len(idx), dtype=np.int32) if ext == 1 else None
    rows = max(1, _BLOCK // max(Q, points * m))
    r = idx // q
    new = np.ones(len(idx), dtype=bool)  # where a run of equal r starts
    new[1:] = r[1:] != r[:-1]
    starts = np.flatnonzero(new)
    cuts = starts[np.diff(starts // rows, prepend=-1) != 0]  # first start per `rows` models
    for lo, hi in zip(cuts, [*cuts[1:], len(idx)]):
        rs, which = r[lo:hi][new[lo:hi]], np.cumsum(new[lo:hi]) - 1  # which: each model's run
        c0 = idx[lo:hi] % q
        Y = np.tile(w0, (len(rs), 1))
        for row, digit in zip(W, _digit_matrix(rs, p, len(W)).astype(vt).T):
            Y += digit[:, None] * row
        Y = (Y - Y // p * p).reshape(len(rs), m, points)  # faster than % p
        y = Q * np.arange(len(rs))[:, None]  # row i of H starts at i Q
        for b in range(m):
            y = y + Y[:, b] * np.intp(p ** b)  # p^b need not fit vt
        H = np.bincount(y.ravel(), minlength=len(rs) * Q).reshape(len(rs), Q).astype(T.dtype)
        sums[lo:hi] = np.einsum("ry,cy->rc", H, T)[which, c0]
        if roots is not None:
            roots[lo:hi] = H[which, neg[c0]]
    return sums, roots


# ---------------------------------------------------------------------------
# census result types


@dataclass
class _Census:
    """Counts of curves over F_q by class, each count of mass unit."""

    q: int
    counts: dict
    group_order: int
    # tables derived from counts (cohom's h-moment tables), kept as long as
    # the census is; dataclasses.replace starts them empty
    _moment_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def masses(self) -> dict:
        return {key: c * self.unit for key, c in self.counts.items()}

    def mass_sum(self) -> Fraction:
        return sum(self.counts.values()) * self.unit

    @property
    def model_count(self) -> int:
        """The models the census stands for: the group order times the
        mass, which the checks fix at q (elliptic) or q^3 (genus 2)."""
        return int(self.mass_sum() * self.group_order)


class EllCensus(_Census):
    """Trace distribution of elliptic curves over F_q, weighted by 1/#Aut:
    counts maps a Frobenius trace to its number of models."""

    @property
    def unit(self) -> Fraction:
        return Fraction(1, self.group_order)


class G2Census(_Census):
    """Distribution of (t1, e) = (a1 + a2, a1 a2) for genus-2 curves over F_q,
    in (monic model, twist sign) counts of mass (q-1)/2 / group_order."""

    @property
    def unit(self) -> Fraction:
        return Fraction(self.q - 1, 2 * self.group_order)


# ---------------------------------------------------------------------------
# elliptic censuses


def _ell_monic(q: int) -> EllCensus:
    """y^2 = g(x) with g a squarefree monic cubic, odd q, one cubic per
    orbit of x -> u^2 x + t (_orbit_reps with power 2: x -> u^2 x,
    y -> u^3 y keeps the points), in the units of the module docstring.
    For p >= 5 the representatives are depressed cubics (no x^2 term),
    each counted once per model x^3 + A x + B it stands for: the weight
    over q, as those units have no translation factor."""
    idx, weights = _rep_models(q, 3, 2)
    if finite_field(q).p != 3:
        weights, group = weights // q, q - 1
    elif q > 9:
        group = q * (q - 1)
    else:
        weights, group = weights * q * q, q ** 3 * (q - 1)
    return _ell_from_traces(q, -_char_sums(q, 3, 1, idx)[0], group, weights)


def _ell_char2(q: int) -> EllCensus:
    """Five-coefficient models y^2 + h y = f over q = 2^k, group order
    q^3 (q - 1), from t = -sum_x psi(r(x) u) psi(a6 u) (module docstring):
    one integer product per h = a1 x + a3 != 0 gives every (a2, a4, a6)."""
    log, exp = _log_exp(q)
    x = np.arange(q)
    frob = exp[(log << np.arange(finite_field(q).k)[:, None]) % (q - 1)]  # row j: y^(2^j)
    psi = np.where(x > 0, 1 - 2 * np.bitwise_xor.reduce(frob), 1)  # (-1)^Tr(y)
    inv = np.where(x > 0, exp[-log % (q - 1)], 0)
    sq = _mul(q, x, x)
    a2, a4 = np.divmod(np.arange(q * q)[:, None], q)  # the rows (a2, a4)
    r = _mul(q, _mul(q, x ^ a2, x) ^ a4, x)  # r(x) = f(x) - a6
    a1, a3 = np.divmod(np.arange(1, q * q)[:, None], q)  # h = 0 makes every model singular
    h = _mul(q, a1, x) ^ a3
    u = inv[sq[h]]  # 1/h(x)^2, and 0 where h(x) = 0
    psi_a6 = np.where(h[..., None] > 0, psi[_mul(q, u[..., None], x)], 0)  # axes h, x, a6
    traces = -(psi[_mul(q, r, u[:, None])] @ psi_a6)  # axes h, (a2, a4), a6
    # a1 != 0: the one singular a6 of each (a2, a4) solves a1^2 f(x0) = x0^4 + a4^2
    x0 = _mul(q, a3, inv[a1])
    singular = np.where(a1 > 0, r.T[x0[:, 0]] ^ _mul(q, inv[sq[a1]], sq[sq[x0]] ^ sq[a4.T]), -1)
    return _ell_from_traces(q, traces[x != singular[..., None]], q ** 3 * (q - 1))


def _ell_from_traces(q: int, traces: np.ndarray, group_order: int, weights=1) -> EllCensus:
    """Census of models with these traces, each counted weights[i] times
    (once by default)."""
    offset = math.isqrt(4 * q)  # Hasse: |t| <= 2 sqrt(q)
    # checked before counting, as add.at would wrap a negative index
    _require(np.all(np.abs(traces) <= offset), f"Hasse bound violated over F_{q}")
    cnt = np.zeros(2 * offset + 1, np.int64)
    np.add.at(cnt, traces + offset, weights)
    counts = {int(t - offset): int(c) for t, c in enumerate(cnt) if c}
    census = EllCensus(q, counts, group_order)
    _validate_ell(census)
    return census


def _validate_ell(census: EllCensus) -> None:
    q = census.q
    _require(all(t * t <= 4 * q for t in census.counts), f"Hasse bound violated over F_{q}")
    # the quadratic twist is a bijection t -> -t that keeps #Aut
    _require(
        all(census.counts.get(-t) == c for t, c in census.counts.items()),
        f"trace counts over F_{q} not symmetric under t -> -t",
    )
    _require(census.mass_sum() == q, f"mass sum {census.mass_sum()} != {q}")


def _ell_census_compute(q: int) -> EllCensus:
    if q > MAX_Q_ELL:
        raise FieldTooLarge(f"elliptic census capped at q <= {MAX_Q_ELL}")
    if _field(q).p == 2:  # q is p, p^2 or p^4, so 2, 4 or 16
        return _ell_char2(q)
    return _ell_monic(q)


def ell_census(q: int) -> EllCensus:
    """Elliptic census over F_q, read from the cache directory or computed
    and written there."""
    return _cached("ell", q, _ell_census_compute)


# ---------------------------------------------------------------------------
# genus-2 census


def _nonsquarefree_bitmap(q: int, d: int, top: tuple[int, ...], lowest: int = 1) -> np.ndarray:
    """Bitmap over the monic degree-d polynomials whose coefficients
    c_s .. c_{d-1} are `top`, s = d - len(top), indexed by the sum c_i q^i
    of their free coefficients c_0 .. c_{s-1}, marking every g = h^2 m with
    h monic of degree lowest to d/2, all h of one degree at once.

    In x^-d g = U^2 V, U = x^-e h and V = x^-dm m (dm = d - 2e), the
    coefficient t_j of x^-j is v_j + sum_{a=1..j} H_a v_{j-a}, H_a that of
    U^2.  So `top` fixes V = T / U^2 up to x^-len(top): v_j for j <= dm,
    and for j > dm the condition v_j = 0, which drops the h that cannot
    divide.  The lower coefficients of h^2 m are then F_p-affine in the
    digits of m's free coefficients, q^(s-2e) marks per h, or one mark when
    none is left."""
    F = finite_field(q)
    p, k = F.p, F.k
    s = d - len(top)
    t = _digit_matrix(np.array(top[::-1], dtype=np.int64), p, k)  # t[j - 1]: c_{d-j}
    basis, place = p ** np.arange(k), p ** np.arange(s * k)
    bitmap = np.zeros(q ** s, dtype=bool)
    for e in range(lowest, d // 2 + 1):
        dm = d - 2 * e
        h = _digit_matrix(np.arange(q ** e), q, e + 1)
        h[:, e] = 1  # every monic h of degree e, coefficients lowest first
        h2 = _convolve(q, h, h)
        H = h2[:, ::-1]  # H[:, a]: the coefficient of x^(2e-a)
        v = [np.ones(len(h), dtype=np.int64)]
        for j in range(1, len(top) + 1):
            rest = sum(
                _digit_matrix(_mul(q, H[:, a], v[j - a]), p, k) for a in range(1, min(j, 2 * e) + 1)
            )
            v.append((t[j - 1] - rest) % p @ basis)
        v = np.stack(v, axis=1)
        keep = ~v[:, dm + 1 :].any(axis=1)
        h2, v = h2[keep], v[keep, : dm + 1]
        # m with its free coefficients set to zero, lowest first
        free = dm + 1 - v.shape[1]
        m = np.hstack([np.zeros((len(v), free), dtype=np.int64), v[:, ::-1]])
        w0 = _digit_matrix(_convolve(q, h2, m)[:, :s], p, k).reshape(len(m), s * k)
        # row (i, b): the coordinates of p^b x^i h^2, i < free, b < k
        W = np.zeros((len(m), free, k, s, k), dtype=np.int64)
        basis_h2 = _digit_matrix(_mul(q, h2[:, None, :], basis[:, None]), p, k)
        for i in range(free):
            W[:, i, :, i : i + 2 * e + 1] = basis_h2
        W = W.reshape(len(m), free * k, s * k)
        D = _digit_matrix(np.arange(q ** free), p, free * k)
        step = max(1, _BLOCK // (len(D) * s * k))
        for lo in range(0, len(W), step):
            bitmap[(D @ W[lo : lo + step] + w0[lo : lo + step, None]) % p @ place] = True
    return bitmap


def _orbit_reps(q: int, d: int, power: int) -> list[tuple[int, int, int]]:
    """(lo, hi, weight): model-index ranges holding one monic degree-d model
    per orbit of x -> a x + t over odd q, a running over the power-th
    powers in F_q^*, weight the number of models each stands for (see the
    module docstring)."""
    F = finite_field(q)
    gamma = F.generator()
    top = q ** (d - 1)  # the place of c_{d-1} in a model index
    translation = 1 if d % F.p == 0 else q  # models a slab model stands for
    reps = []
    for i in range(2, d + 1):  # the slab c_{d-1} = 0, by first nonzero c_{d-i}
        g, place = math.gcd(power * i, q - 1), q ** (d - i)
        for j in range(g):
            c = F.pow(gamma, j) * place
            reps.append((c, c + place, translation * (q - 1) // g))
    if d % F.p == 0:  # the lines c_{d-1} = gamma^j, c_{d-2} = 0
        g = math.gcd(power, q - 1)
        for j in range(g):
            c = F.pow(gamma, j) * top
            reps.append((c, c + top // q, q * (q - 1) // g))
    return reps


def _rep_models(q: int, d: int, power: int, lowest: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(idx, weights): the model indices of the _orbit_reps ranges in order
    that no h^2 divides, h monic of degree lowest to d/2 (so squarefree for
    lowest = 1), and the weight of each.  Each range lies in the slab
    c_{d-1} = 0 or in one p | d line c_{d-1} = c, c_{d-2} = 0, whose bitmap
    is built once."""
    reps = _orbit_reps(q, d, power)
    top = q ** (d - 1)
    bitmaps, marks = {}, []
    for lo, hi, _ in reps:
        c = lo // top
        key = (0, c) if c else (0,)
        if key not in bitmaps:
            bitmaps[key] = _nonsquarefree_bitmap(q, d, key, lowest)
        marks.append(bitmaps[key][lo - c * top : hi - c * top])
    idx = np.concatenate([np.arange(lo, hi) for lo, hi, _ in reps])
    weights = np.concatenate([np.full(hi - lo, w) for lo, hi, w in reps])
    squarefree = ~np.concatenate(marks)
    return idx[squarefree], weights[squarefree]


def _g2_pass(q: int, d: int):
    """Yield one (d, S1, S2, weight), integer arrays with one entry per
    model of the degree-d part of the census in units of 1/_N1_LCM (module
    docstring): for d = 6 the squarefree monic sextic representatives with
    no root in F_q, for d = 5 every squarefree monic quintic one, weighted
    (q + 1)/n1, n1 = 1 + its roots in F_q.  The F_q points of F_{q^2} add
    q - roots to S2, as F_q lies in the squares of F_{q^2}."""
    # h^2 | g with h linear gives g a root, so such sextics drop out anyway
    idx, weights = _rep_models(q, d, 1, lowest=2 if d == 6 else 1)
    S1, roots = _char_sums(q, d, 1, idx)
    if d == 6:
        free = roots == 0
        idx, S1, roots, weights = idx[free], S1[free], roots[free], weights[free] * _N1_LCM
    else:
        weights = weights * (_N1_LCM * (q + 1) // (1 + roots))
    at_infinity = int(d == 6)  # the point [1:0], where F is the leading coefficient 1
    S2 = q - roots + 2 * _char_sums(q, d, 2, idx)[0] + at_infinity
    yield d, S1 + at_infinity, S2, weights


def _chunk_stats(q: int, S1, S2, weight=1) -> dict[tuple[int, int], int]:
    """(t1, e) histogram over both twists of the models with character
    sums S1, S2, model i counted weight[i] times (a number: the same for
    all).  S1 is counted into the Weil box |t1| <= 4 sqrt(q), |e| <= 4q, and
    the twist -S1 added as the mirror image."""
    ssum = S1.astype(np.int64) ** 2 + S2 - 4 * q
    _require(not np.any(ssum & 1), "parity of t1^2 - (a1^2+a2^2) broken")
    e = ssum >> 1
    t1_max = math.isqrt(16 * q)
    # checked before counting, as add.at would wrap a negative index
    _require(np.all(np.abs(S1) <= t1_max) and np.all(np.abs(e) <= 4 * q), "Weil bound violated")
    cnt = np.zeros((2 * t1_max + 1, 8 * q + 1), np.int64)
    np.add.at(cnt, (S1 + t1_max, e + 4 * q), weight)
    cnt += cnt[::-1]
    t1, e = np.nonzero(cnt)
    return dict(zip(zip((t1 - t1_max).tolist(), (e - 4 * q).tolist()), cnt[t1, e].tolist()))


def _g2_census_compute(q: int) -> G2Census:
    """The _chunk_stats of the root-free monic sextics and the quintics
    together, one per affine orbit and weighted by the orbit size, and
    check the whole census."""
    if q > MAX_Q_G2:
        raise FieldTooLarge(f"genus-2 census capped at q <= {MAX_Q_G2}")
    if _field(q).p == 2:
        raise FieldTooLarge("characteristic-2 genus-2 census is not implemented")
    _, S1, S2, weight = map(np.hstack, zip(*(item for d in (6, 5) for item in _g2_pass(q, d))))
    counts = _chunk_stats(q, S1, S2, weight)
    _require(all(c % _N1_LCM == 0 for c in counts.values()), "a count in 1/60 units is not whole")
    census = G2Census(q, {k: c // _N1_LCM for k, c in counts.items()}, (q * q - 1) * (q * q - q))
    _validate_g2(census)
    return census


def _validate_g2(census: G2Census) -> None:
    q = census.q
    _require(census.mass_sum() == q ** 3, "total genus-2 mass must be q^3")
    for (t1, e), c in census.counts.items():
        _require(c > 0, f"non-positive count at {(t1, e)}")
        # each monic model is counted with both twist signs, t1 and -t1
        _require(census.counts.get((-t1, e)) == c, f"count at {(t1, e)} differs from its twist's")
        # x^2 - t1 x + e must have two real roots in [-2 sqrt(q), 2 sqrt(q)]
        _require(t1 * t1 >= 4 * e, f"complex roots at {(t1, e)}")
        _require(
            4 * q + e >= 0 and (4 * q + e) ** 2 >= 4 * q * t1 * t1,
            f"Weil bound violated at {(t1, e)}",
        )


def g2_census(q: int) -> G2Census:
    """Genus-2 census over F_q, read from the cache directory or computed
    whole, checked and then written there."""
    return _cached("g2", q, _g2_census_compute)


# ---------------------------------------------------------------------------
# single-model operations (reference implementations; the census kernels are
# cross-checked against these in the tests)


def squarefree_sextic(coeffs: tuple[int, ...], q: int) -> bool:
    """True iff the binary sextic F(x, z) = sum c_i x^i z^(6-i) with these
    seven coefficients in F_q has six distinct roots in P^1 over the
    algebraic closure (False for the zero form)."""
    K = finite_field(q)
    f = list(coeffs)
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return False
    deg = len(f) - 1
    if deg <= 4:
        return False  # z^2 divides the binary form
    fp = [K.mul(c, i % K.p) for i, c in enumerate(f)][1:]
    while fp and fp[-1] == 0:
        fp.pop()
    if not fp:
        return deg == 0
    return len(_poly_gcd(K, f, fp)) == 1


def _poly_gcd(K: Fq, a: list[int], b: list[int]) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _poly_mod(K, a, b)
    inv = K.inv(a[-1])
    return [K.mul(c, inv) for c in a]


def _poly_mod(K: Fq, a: list[int], b: list[int]) -> list[int]:
    a = a[:]
    inv = K.inv(b[-1])
    while len(a) >= len(b):
        c = K.mul(a[-1], inv)
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = K.add(a[shift + i], K.neg(K.mul(c, bc)))
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return a


def count_points_g2(coeffs: tuple[int, ...], q: int, ext: int = 1) -> int:
    """#C(F_{q^ext}) for y^2 = F(x, z), F the binary sextic with these
    coefficients (squarefree_sextic), by summing 1 + chi(F(P)) over P^1."""
    if ext not in (1, 2):
        raise ValueError("ext must be 1 or 2")
    E = finite_field(q ** ext) if ext == 2 else finite_field(q)
    total = 0
    for x in E.elements():
        acc = 0
        for c in reversed(coeffs):
            acc = E.add(E.mul(acc, x), c)
        total += 1 + E.chi(acc)
    total += 1 + E.chi(coeffs[6])  # the point [1:0]
    return total


def count_points_ell(a: tuple[int, int, int, int, int], q: int) -> int | None:
    """#E(F_q) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, with
    a = (a1, a2, a3, a4, a6), by testing every (x, y) in F_q x F_q and adding
    the point at infinity; None when the discriminant
    -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6 vanishes (a singular model)."""
    F = finite_field(q)
    a1, a2, a3, a4, a6 = a

    def poly(*terms):  # sum of c * x * y * ... over the terms (c, x, y, ...)
        acc = 0
        for c, *xs in terms:
            term = c % F.p
            for x in xs:
                term = F.mul(term, x)
            acc = F.add(acc, term)
        return acc

    b2 = poly((1, a1, a1), (4, a2))
    b4 = poly((2, a4), (1, a1, a3))
    b6 = poly((1, a3, a3), (4, a6))
    b8 = poly((1, a1, a1, a6), (4, a2, a6), (-1, a1, a3, a4), (1, a2, a3, a3), (-1, a4, a4))
    if poly((-1, b2, b2, b8), (-8, b4, b4, b4), (-27, b6, b6), (9, b2, b4, b6)) == 0:
        return None
    points = 1
    for x in F.elements():
        rhs = poly((1, x, x, x), (1, a2, x, x), (1, a4, x), (1, a6))
        points += sum(poly((1, y, y), (1, a1, x, y), (1, a3, y)) == rhs for y in F.elements())
    return points


def g2_census_direct_masses(q: int) -> tuple[dict[tuple[int, int], Fraction], int]:
    """All-models reference masses (tiny q only); validates the
    monic-times-twist optimization in g2_census."""
    if q ** 7 > 10 ** 5:
        raise FieldTooLarge("direct census is for validation at tiny q")
    group = (q * q - 1) * (q * q - q)
    masses: dict[tuple[int, int], Fraction] = {}
    models = 0
    for idx in range(1, q ** 7):
        coeffs = tuple((idx // q ** i) % q for i in range(7))
        if not squarefree_sextic(coeffs, q):
            continue
        models += 1
        n1 = count_points_g2(coeffs, q, 1)
        n2 = count_points_g2(coeffs, q, 2)
        t1 = q + 1 - n1
        a_sq = q * q + 1 - n2 + 4 * q
        e = (t1 * t1 - a_sq) // 2
        key = (t1, e)
        masses[key] = masses.get(key, Fraction(0)) + Fraction(1, group)
    return masses, models


# ---------------------------------------------------------------------------
# disk cache


def _cache_path(kind: str, q: int) -> Path | None:
    if _cache_dir is None:
        return None
    return _cache_dir / f"{kind}_q{q}_v{CACHE_VERSION}.json"


def _cache_payload(kind: str, q: int, census) -> dict:
    num, den = census.unit.numerator, census.unit.denominator
    masses, counts = [], []
    for key, c in sorted(census.counts.items()):
        key = list(key) if kind == "g2" else [key]
        g = math.gcd(c * num, den)  # rat_str(c * unit), in integers
        masses.append(key + [f"{c * num // g}/{den // g}" if g != den else str(c * num // g)])
        counts.append(key + [c])
    return {
        "q": q,
        "kind": kind,
        "masses": masses,
        "counts": counts,
        "group_order": census.group_order,
        "model_count": census.model_count,
        "version": CACHE_VERSION,
    }


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True)
    # never leave a partially written file behind
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cached(kind: str, q: int, compute):
    census = _censuses.get((kind, q))
    if census is None:
        census = _load_cache(kind, q)
        if census is None:
            census = compute(q)
            _save_cache(kind, q, census)
        # threads that raced here all go on with the first census stored
        census = _censuses.setdefault((kind, q), census)
    return census


def _save_cache(kind: str, q: int, census) -> None:
    path = _cache_path(kind, q)
    if path is not None:
        _write_json(path, _cache_payload(kind, q, census))


def _load_cache(kind: str, q: int):
    """The census cached for (kind, q), None when there is no file, and
    CacheError when the file's text is not, byte for byte, what _save_cache
    writes for a census that passes the checks a fresh one passes.  Classes,
    counts and the group order are parsed with int(), so a 5.0 or a true in
    the file is written back as 5 or 1 and fails the comparison."""
    path = _cache_path(kind, q)
    if path is None or not path.exists():
        return None
    try:
        text = path.read_text()
        payload = json.loads(text)
        if kind == "ell":
            counts = {int(t): int(c) for t, c in payload["counts"]}
            census = EllCensus(q, counts, int(payload["group_order"]))
            _validate_ell(census)
        else:
            counts = {(int(t1), int(e)): int(c) for t1, e, c in payload["counts"]}
            census = G2Census(q, counts, int(payload["group_order"]))
            _validate_g2(census)
        if text != json.dumps(_cache_payload(kind, q, census), sort_keys=True):
            raise ValueError("not the text the cache writes for its counts and file name")
        return census
    except (
        OSError, KeyError, TypeError, ValueError, ZeroDivisionError, CensusInvariantError
    ) as exc:
        raise CacheError(f"corrupt census cache {path}: {exc}") from exc
