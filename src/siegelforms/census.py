"""Exhaustive automorphism-weighted censuses of elliptic and genus-2 curves
over small finite fields.

Everything is a mass formula: instead of classifying curves up to
isomorphism we enumerate raw models and divide by the order of the model
transformation group (orbit-stabilizer turns that into sum 1/#Aut).  The
genus-2 enumeration is reduced to monic sextics/quintics: an arbitrary
squarefree binary sextic is lambda * g with g monic of degree 5 or 6, the
quadratic twist by lambda flips the sign of the trace term and leaves the
F_{q^2} data alone, so each monic model stands for (q-1)/2 models per twist
class.

In odd characteristic every point count goes through one kernel, the point
map.  A monic model g = x^d + sum c_i x^i over F_q is indexed by
sum c_i q^i, so the base-p digits D of its index are the F_p-coordinates of
its coefficients, and g(x) is an F_p-affine function of D for each fixed
point x.  One float32 matmul D @ W + w0 evaluates a block of models at all
points at once, with the F_p-coordinates of g(x) packed into one number
below the table size, and one gather maps that number to chi(g(x)).  Over
F_{q^2} only one point per Frobenius-conjugate pair is evaluated: the
coefficients live in F_q, so chi(g(x^q)) = chi(g(x)).

The monic-model censuses (genus 2, and elliptic through _ell_monic)
evaluate one model per orbit of the translation x -> x + t and weight it
by the orbit size (_translation_reps).  The translation permutes F_q and
F_{q^2}, so it keeps S1, S2, squarefreeness and the point at infinity;
on g = x^d + sum c_i x^i it sends c_{d-1} to c_{d-1} + d t and c_{d-2}
to c_{d-2} + (d-1) c_{d-1} t + C(d,2) t^2.
For p not dividing d every orbit is free and holds exactly one model
with c_{d-1} = 0: the indices [0, q^(d-1)), weight q.  For p | d (p odd,
so C(d,2) = 0 in F_q) c_{d-1} is invariant; an orbit with c_{d-1} = c != 0
is free and holds exactly one model with c_{d-2} = 0: the indices
[c q^(d-1), c q^(d-1) + q^(d-2)), weight q, while the slab c_{d-1} = 0,
[0, q^(d-1)), is kept whole with weight 1.
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

from .exact_arith import Fq, finite_field, rat_str

CACHE_VERSION = 1

MAX_Q_G2 = 17  # hard cap: beyond this the enumeration is out of scope


class FieldTooLarge(Exception):
    pass


class CacheError(Exception):
    pass


class CensusInvariantError(Exception):
    """A census broke an identity every census satisfies (total mass,
    Hasse and Weil bounds, parity); raised, not asserted, so that the
    checks also run under python -O."""


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
    _cache_dir = Path(path) if path is not None else None
    if _cache_dir is not None:
        _cache_dir.mkdir(parents=True, exist_ok=True)
    _censuses.clear()


def _field(q: int) -> Fq:
    """F_q, or FieldTooLarge when q is not a field order supported here."""
    try:
        return finite_field(q)
    except ValueError as exc:
        raise FieldTooLarge(str(exc)) from exc


# ---------------------------------------------------------------------------
# numpy arithmetic tables


@lru_cache(maxsize=None)
def _tables(q: int):
    """(mul, add, neg, chi, inv) numpy tables for F_q."""
    F = finite_field(q)
    mul = np.empty((q, q), dtype=np.int32)
    add = np.empty((q, q), dtype=np.int32)
    for x in range(q):
        for y in range(q):
            mul[x, y] = F.mul(x, y)
            add[x, y] = F.add(x, y)
    neg = np.array([F.neg(x) for x in range(q)], dtype=np.int32)
    chi = np.array([F.chi(x) for x in range(q)], dtype=np.int8)
    inv = np.array([0] + [F.inv(x) for x in range(1, q)], dtype=np.int32)
    return mul, add, neg, chi, inv


def _digits(idx: np.ndarray, q: int, n: int) -> np.ndarray:
    out = np.empty((len(idx), n), dtype=np.int32)
    rem = idx.copy()
    for i in range(n):
        out[:, i] = rem % q
        rem //= q
    return out


# entries (models x points) evaluated by one matmul
_BLOCK = 1 << 18


@lru_cache(maxsize=None)
def _point_map(q: int, d: int, ext: int):
    """(W, w0, table, weights) evaluating monic degree-d models over odd q
    at one point per Frobenius orbit of F_{q^ext}.

    Entry j of D @ W + w0 packs the F_p-coordinates y_b of g(x_j) as
    sum y_b B^b with every y_b < B, so table[D @ W + w0] = chi(g(x_j));
    the sum of those characters weighted by orbit size is the character
    sum over all of F_{q^ext}.
    """
    p, E = finite_field(q).p, finite_field(q ** ext)
    k = round(math.log(q, p))  # F_p-coordinates per F_q coefficient
    m = k * ext
    points = list(range(q))
    if ext == 2:
        points += [x for x in range(q, q * q) if x < E.pow(x, q)]

    def coords(y):
        return [y // p ** b % p for b in range(m)]

    # digit i*k + a of a model index is the coordinate of c_i on p^a in F_q
    pows = [[E.pow(x, i) for i in range(d + 1)] for x in points]
    C = np.array(
        [[coords(E.mul(p ** a, xi[i])) for xi in pows] for i in range(d) for a in range(k)]
    )
    C0 = np.array([coords(xi[d]) for xi in pows])
    B = int(((p - 1) * C.sum(axis=0) + C0).max()) + 1
    if B ** m >= 1 << 24:  # float32 represents integers exactly below 2^24
        raise FieldTooLarge(f"point map over F_{q ** ext} needs {B}^{m} table entries")
    place = B ** np.arange(m)
    # code[n]: the element whose coordinates are the base-B digits of n mod p
    code = np.zeros(1, dtype=np.min_scalar_type(q ** ext))
    for b in range(m):
        code = np.add.outer((np.arange(B) % p * p ** b).astype(code.dtype), code).ravel()
    chi = np.array([E.chi(y) for y in range(q ** ext)], dtype=np.int8)
    weights = np.where(np.arange(len(points)) < q, 1, 2).astype(np.float32)
    return (C @ place).astype(np.float32), (C0 @ place).astype(np.float32), chi[code], weights


def _char_sums(q: int, d: int, ext: int, idx: np.ndarray) -> np.ndarray:
    """sum over x in F_{q^ext} of chi(g(x)) for each monic degree-d model g
    with index sum c_i q^i in idx."""
    W, w0, table, weights = _point_map(q, d, ext)
    p = finite_field(q).p
    place = p ** np.arange(len(W), dtype=np.int64)
    rows = max(1, _BLOCK // len(w0))
    out = np.empty(len(idx), dtype=np.int32)
    for lo in range(0, len(idx), rows):
        D = (idx[lo : lo + rows, None] // place % p).astype(np.float32)
        out[lo : lo + rows] = table[(D @ W + w0).astype(np.int32)] @ weights
    return out


# ---------------------------------------------------------------------------
# census result types


@dataclass
class EllCensus:
    """Trace distribution of elliptic curves over F_q, weighted by 1/#Aut."""

    q: int
    counts: dict[int, int]  # Frobenius trace -> number of models
    group_order: int
    model_count: int
    # tables derived from counts (cohom's moment tables; on G2Census too),
    # kept as long as the census is; dataclasses.replace starts them empty
    _moment_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def masses(self) -> dict[int, Fraction]:
        return {t: Fraction(c, self.group_order) for t, c in self.counts.items()}

    def mass_sum(self) -> Fraction:
        return Fraction(sum(self.counts.values()), self.group_order)


@dataclass
class G2Census:
    """Distribution of (t1, e) = (a1 + a2, a1 a2) for genus-2 curves over F_q.

    counts are in (monic model, twist sign) units; each unit carries mass
    (q-1)/2 / group_order.
    """

    q: int
    counts: dict[tuple[int, int], int]
    group_order: int
    model_count: int
    _moment_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def masses(self) -> dict[tuple[int, int], Fraction]:
        u = Fraction(self.q - 1, 2 * self.group_order)
        return {k: c * u for k, c in self.counts.items()}

    def mass_sum(self) -> Fraction:
        return sum(self.counts.values()) * Fraction(self.q - 1, 2 * self.group_order)


# ---------------------------------------------------------------------------
# elliptic censuses


def _ell_monic(q: int) -> EllCensus:
    """y^2 = g(x) with g a squarefree monic cubic, odd q, one cubic per
    translation orbit (_translation_reps).  For p >= 5 that is the depressed
    cubic (no x^2 term), counted once over a group of order q - 1.  In
    characteristic 3 the x^2 coefficient c is invariant: for c != 0 the
    cubic with no x term stands for its q translates, the cubics with c = 0
    are all kept with weight 1, and the group has order q(q - 1)."""
    reps = _translation_reps(q, 3)
    if finite_field(q).p != 3:
        group = q - 1
        reps = [(lo, hi, 1) for lo, hi, _ in reps]
    else:
        group = q * (q - 1)
    idx = np.concatenate([np.arange(lo, hi) for lo, hi, _ in reps])
    weights = np.concatenate([np.full(hi - lo, w) for lo, hi, w in reps])
    # evaluate first: a field too large for the point map fails before the bitmap
    sums = _char_sums(q, 3, 1, idx)
    keep = ~_nonsquarefree_bitmap(q, 3)[idx]
    return _ell_from_traces(q, -sums[keep], group, weights[keep])


def _ell_full(q: int) -> EllCensus:
    """Five-coefficient Weierstrass model; group order q^3 (q-1)."""
    mul, add, neg, chi, inv = _tables(q)
    F = finite_field(q)
    p = F.p
    idx = np.arange(q ** 5, dtype=np.int64)
    dig = _digits(idx, q, 5)
    a1, a2, a3, a4, a6 = (dig[:, i] for i in range(5))
    # b-invariants with universal integer constants reduced into the field
    b2 = add[mul[a1, a1], mul[a2, 4 % p]]
    b4 = add[mul[a4, 2 % p], mul[a1, a3]]
    b6 = add[mul[a3, a3], mul[a6, 4 % p]]
    b8 = add[
        add[mul[mul[a1, a1], a6], mul[mul[a2, a6], 4 % p]],
        add[
            add[neg[mul[mul[a1, a3], a4]], mul[a2, mul[a3, a3]]],
            neg[mul[a4, a4]],
        ],
    ]
    # disc = -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6
    disc = add[
        add[neg[mul[mul[b2, b2], b8]], neg[mul[mul[b4, mul[b4, b4]], 8 % p]]],
        add[mul[mul[b6, b6], (-27) % p], mul[mul[b2, mul[b4, b6]], 9 % p]],
    ]
    good = disc != 0
    a1, a2, a3, a4, a6 = a1[good], a2[good], a3[good], a4[good], a6[good]
    n_aff = np.zeros(len(a1), dtype=np.int32)
    if p == 2:
        tr = np.array([F.trace_to_prime(x) for x in range(q)], dtype=np.int8)
        for x in range(q):
            x2, x3 = F.mul(x, x), F.pow(x, 3)
            h = add[mul[a1, x], a3]
            v = add[add[mul[a2, x2], mul[a4, x]], add[a6, x3]]
            u = mul[v, inv[mul[h, h]]]
            sol = np.where(h == 0, 1, 2 * (tr[u] == 0).astype(np.int32))
            n_aff += sol
    else:
        for x in range(q):
            x2, x3 = F.mul(x, x), F.pow(x, 3)
            h = add[mul[a1, x], a3]
            v = add[add[mul[a2, x2], mul[a4, x]], add[a6, x3]]
            w = add[mul[v, 4 % p], mul[h, h]]
            n_aff += 1 + chi[w]
    traces = q - n_aff  # t = q + 1 - (1 + n_aff)
    return _ell_from_traces(q, traces, group_order=q ** 3 * (q - 1))


def _ell_from_traces(q: int, traces: np.ndarray, group_order: int, weights=None) -> EllCensus:
    """Census of models with these traces, each counted weights[i] times
    (once without weights)."""
    bound = 2 * int(np.sqrt(q)) + 1
    offset = bound
    cnt = np.bincount(traces + offset, weights, minlength=2 * bound + 1).astype(np.int64)
    counts = {int(t - offset): int(c) for t, c in enumerate(cnt) if c}
    census = EllCensus(q, counts, group_order, int(cnt.sum()))
    _validate_ell(census)
    return census


def _validate_ell(census: EllCensus) -> None:
    q = census.q
    _require(all(t * t <= 4 * q for t in census.counts), f"Hasse bound violated over F_{q}")
    _require(census.mass_sum() == q, f"mass sum {census.mass_sum()} != {q}")


def _ell_census_compute(q: int) -> EllCensus:
    p = _field(q).p  # q is p, p^2 or p^4, so at most 16 in characteristic 2
    if p == 2 or p == 3 and q <= 9:
        return _ell_full(q)
    # q = 81 arises as the twisted-sector field of the F_9 census; the
    # five-coefficient space is out of reach there, but the monic cubic
    # model gives the same masses (cross-checked at q = 3, 5, 7, 9).
    return _ell_monic(q)


def ell_census(q: int) -> EllCensus:
    """Elliptic census over F_q, read from the cache directory or computed
    and written there."""
    return _cached("ell", q, _ell_census_compute)


# ---------------------------------------------------------------------------
# genus-2 census


def _monic_irreducibles(q: int, e: int) -> list[tuple[int, ...]]:
    """Monic irreducible polynomials of degree e <= 3 over F_q, coefficient
    tuples lowest-first including the leading 1."""
    F = finite_field(q)
    if e == 1:
        return [(F.neg(a), 1) for a in range(q)]
    polys = []
    for idx in range(q ** e):
        coeffs = tuple((idx // q ** i) % q for i in range(e)) + (1,)
        # degree 2 or 3: irreducible iff no root
        if all(_poly_eval(F, coeffs, x) != 0 for x in range(q)):
            polys.append(coeffs)
    return polys


def _poly_eval(F: Fq, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _poly_mul(F: Fq, a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return tuple(out)


def _nonsquarefree_bitmap(q: int, d: int) -> np.ndarray:
    """Bitmap over monic degree-d polynomials (indexed by sum c_i q^i of the
    lower coefficients) marking every g divisible by the square of an
    irreducible."""
    F = finite_field(q)
    mul, add, _, _, _ = _tables(q)
    bitmap = np.zeros(q ** d, dtype=bool)
    powers = q ** np.arange(d, dtype=np.int64)
    for e in range(1, d // 2 + 1):
        h2s = [_poly_mul(F, h, h) for h in _monic_irreducibles(q, e)]
        dm = d - 2 * e
        m_idx = np.arange(q ** dm, dtype=np.int64)
        m_dig = np.hstack([_digits(m_idx, q, dm), np.ones((len(m_idx), 1), np.int32)])
        for h2 in h2s:
            g = np.zeros((len(m_idx), d), dtype=np.int32)
            for u, hu in enumerate(h2):
                if hu == 0:
                    continue
                for v in range(dm + 1):
                    j = u + v
                    if j >= d:
                        continue
                    g[:, j] = add[g[:, j], mul[m_dig[:, v], hu]]
            idx = g.astype(np.int64) @ powers
            bitmap[idx] = True
    return bitmap


def _translation_reps(q: int, d: int) -> list[tuple[int, int, int]]:
    """(lo, hi, weight): model-index ranges holding one monic degree-d model
    per orbit of x -> x + t over odd q, weight the number of models each
    stands for (see the module docstring)."""
    top = q ** (d - 1)  # the place of c_{d-1} in a model index
    if d % finite_field(q).p:
        return [(0, top, q)]
    return [(0, top, 1)] + [(c * top, c * top + top // q, q) for c in range(1, q)]


def _g2_chunks(q: int, d: int, chunk_order: str = "ascending"):
    """(chunk_id, lo, hi, weight) for chunks of the _translation_reps ranges."""
    chunk = 1 << 19
    pieces = [
        (lo, min(lo + chunk, hi), weight)
        for start, hi, weight in _translation_reps(q, d)
        for lo in range(start, hi, chunk)
    ]
    ranges = [(i, *piece) for i, piece in enumerate(pieces)]
    return ranges[::-1] if chunk_order == "reversed" else ranges


def _g2_pass(q: int, d: int, chunk_order: str = "ascending", skip=None):
    """Yield (chunk_id, S1, S2chi, weight) over the squarefree monic
    degree-d models of each chunk, integer arrays and the chunk's weight;
    chunks listed in `skip` are not recomputed."""
    bitmap = _nonsquarefree_bitmap(q, d)
    at_infinity = int(d == 6)  # the point [1:0], where F is the leading coefficient 1
    for cid, lo, hi, weight in _g2_chunks(q, d, chunk_order):
        if skip and (d, cid) in skip:
            continue
        idx = lo + np.flatnonzero(~bitmap[lo:hi])
        if len(idx) == 0:
            continue
        S1 = _char_sums(q, d, 1, idx) + at_infinity
        S2 = _char_sums(q, d, 2, idx) + at_infinity
        yield cid, S1, S2, weight


def _chunk_stats(q: int, S1, S2, weight: int = 1) -> tuple[dict[tuple[int, int], int], int]:
    """(t1, e) histogram over both twists of the models of one chunk, and
    the number of models, each model counted `weight` times."""
    counts: dict[tuple[int, int], int] = {}
    ssum = S1.astype(np.int64) ** 2 + S2 - 4 * q
    _require(not np.any(ssum & 1), "parity of t1^2 - (a1^2+a2^2) broken")
    e = ssum >> 1
    for t1 in (-S1, S1):
        keys = (t1.astype(np.int64) + 2 * q) * (4 * q * q + 1) + (e + 2 * q * q)
        uniq, cnt = np.unique(keys, return_counts=True)
        for kk, cc in zip(uniq.tolist(), cnt.tolist()):
            t = kk // (4 * q * q + 1) - 2 * q
            ee = kk % (4 * q * q + 1) - 2 * q * q
            counts[(t, ee)] = counts.get((t, ee), 0) + weight * cc
    return counts, weight * len(S1)


def _merge_counts(total: dict, part: dict) -> None:
    for key, c in part.items():
        total[key] = total.get(key, 0) + c


def _partials(q: int) -> dict[tuple[int, int], tuple[Path, dict]]:
    """Checkpoint file and key of every chunk (d, cid), none without a cache
    directory.  The key is q, d, the model-index range [lo, hi), the
    enumeration ("reps": one model per translation orbit, counts weighted)
    and CACHE_VERSION; a checkpoint is used only for the chunk its key
    names."""
    if _cache_dir is None:
        return {}
    pdir = _cache_dir / "partial"
    pdir.mkdir(exist_ok=True)
    return {
        (d, cid): (
            pdir / f"g2_q{q}_d{d}_c{cid}_v{CACHE_VERSION}.json",
            {"q": q, "d": d, "lo": lo, "hi": hi, "reps": "translation", "version": CACHE_VERSION},
        )
        for d in (6, 5)
        for cid, lo, hi, _ in _g2_chunks(q, d)
    }


def _read_partial(path: Path, key: dict):
    """(counts, models) checkpointed for the chunk `key` names; None if the
    file is missing, does not parse or belongs to another chunk."""
    try:
        payload = json.loads(path.read_text())
        if any(payload[k] != v for k, v in key.items()):
            return None
        counts = {(int(t), int(e)): int(c) for t, e, c in payload["key_counts"]}
        return counts, int(payload["models"])
    except (OSError, KeyError, TypeError, ValueError):
        return None


def _g2_census_compute(q: int, chunk_order: str = "ascending") -> G2Census:
    """Merge _chunk_stats over every chunk of squarefree monic sextics and
    quintics, one per translation orbit and weighted by the orbit size.
    With a cache directory each finished chunk is checkpointed,
    a matching checkpoint of an interrupted run replaces recomputing, and
    all checkpoints are removed once the merged census has been checked."""
    if q > MAX_Q_G2:
        raise FieldTooLarge(f"genus-2 census capped at q <= {MAX_Q_G2}")
    if _field(q).p == 2:
        raise FieldTooLarge("characteristic-2 genus-2 census is not implemented")
    counts: dict[tuple[int, int], int] = {}
    model_count = 0
    partials = _partials(q)
    done = set()
    for chunk, (path, key) in partials.items():
        saved = _read_partial(path, key)
        if saved is not None:
            _merge_counts(counts, saved[0])
            model_count += saved[1]
            done.add(chunk)
    for d in (6, 5):
        for cid, S1, S2, weight in _g2_pass(q, d, chunk_order, skip=done):
            part, models = _chunk_stats(q, S1, S2, weight)
            _merge_counts(counts, part)
            model_count += models
            if (d, cid) in partials:
                path, key = partials[d, cid]
                key_counts = [[t, e, c] for (t, e), c in part.items()]
                _write_json(path, {**key, "key_counts": key_counts, "models": models})
    census = G2Census(
        q,
        counts,
        group_order=(q * q - 1) * (q * q - q),
        model_count=model_count * (q - 1),
    )
    try:
        _validate_g2(census)
    finally:
        for path, _ in partials.values():
            path.unlink(missing_ok=True)
    return census


def _validate_g2(census: G2Census) -> None:
    q = census.q
    _require(census.mass_sum() == q ** 3, "total genus-2 mass must be q^3")
    for (t1, e), c in census.counts.items():
        _require(c > 0, f"non-positive count at {(t1, e)}")
        # x^2 - t1 x + e must have two real roots in [-2 sqrt(q), 2 sqrt(q)]
        _require(t1 * t1 >= 4 * e, f"complex roots at {(t1, e)}")
        _require(
            4 * q + e >= 0 and (4 * q + e) ** 2 >= 4 * q * t1 * t1,
            f"Weil bound violated at {(t1, e)}",
        )


def g2_census(q: int) -> G2Census:
    """Genus-2 census over F_q, read from the cache directory or computed
    (resuming from checkpoints) and written there."""
    return _cached("g2", q, _g2_census_compute)


# ---------------------------------------------------------------------------
# single-model operations (reference implementations; the census kernels are
# cross-checked against these in the tests)


@dataclass(frozen=True)
class SexticForm:
    """Binary sextic F(x, z) = sum c_i x^i z^(6-i) with coefficients in F_q."""

    coeffs: tuple[int, int, int, int, int, int, int]
    q: int

    def __post_init__(self):
        if all(c == 0 for c in self.coeffs):
            raise ValueError("zero form")


def squarefree_sextic(F: SexticForm, q: int) -> bool:
    """True iff F has six distinct roots in P^1 over the algebraic closure."""
    K = finite_field(q)
    f = list(F.coeffs)
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


def count_points_g2(F: SexticForm, q: int, ext: int = 1) -> int:
    """#C(F_{q^ext}) for y^2 = F(x, z) by summing 1 + chi(F(P)) over P^1."""
    if ext not in (1, 2):
        raise ValueError("ext must be 1 or 2")
    E = finite_field(q ** ext) if ext == 2 else finite_field(q)
    total = 0
    for x in E.elements():
        acc = 0
        for c in reversed(F.coeffs):
            acc = E.add(E.mul(acc, x), c)
        total += 1 + E.chi(acc)
    total += 1 + E.chi(F.coeffs[6])  # the point [1:0]
    return total


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
        form = SexticForm(coeffs, q)
        if not squarefree_sextic(form, q):
            continue
        models += 1
        n1 = count_points_g2(form, q, 1)
        n2 = count_points_g2(form, q, 2)
        t1 = q + 1 - n1
        a_sq = q * q + 1 - n2 + 4 * q
        e = (t1 * t1 - a_sq) // 2
        key = (t1, e)
        masses[key] = masses.get(key, Fraction(0)) + Fraction(1, group)
    return masses, models


# ---------------------------------------------------------------------------
# weighted symmetric-power sums


@lru_cache(maxsize=None)
def _cheb_coeffs(n: int, q: int) -> tuple[int, ...]:
    """Coefficients of D_n(x) over Z, lowest degree first: D_1 = 1,
    D_2 = x, D_n = x D_{n-1} - q D_{n-2}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prev, cur = [0], [1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= q * c
        prev, cur = cur, nxt
    return tuple(cur)


def cheb_second_kind(n: int, a, q):
    """D_n(a) for the polynomials of _cheb_coeffs; D_{k+1}(t, q) is the
    degree-k symmetric power sum alpha^k + alpha^(k-1) conj + ... + conj^k."""
    acc = a * 0
    for c in reversed(_cheb_coeffs(n, q)):
        acc = acc * a + c
    return acc


def sigma_weighted(k: int, q: int) -> Fraction:
    """sigma_k(q) = -sum_E h(k, E)/#Aut(E) over the elliptic census."""
    census = ell_census(q)
    total = 0
    for t, c in census.counts.items():
        total += c * cheb_second_kind(k + 1, t, q)
    return Fraction(-total, census.group_order)


# ---------------------------------------------------------------------------
# disk cache


def _cache_path(kind: str, q: int) -> Path | None:
    if _cache_dir is None:
        return None
    return _cache_dir / f"{kind}_q{q}_v{CACHE_VERSION}.json"


def _cache_payload(kind: str, q: int, census) -> dict:
    if kind == "ell":
        masses = [[t, rat_str(m)] for t, m in sorted(census.masses.items())]
        counts = [[t, c] for t, c in sorted(census.counts.items())]
    else:
        masses = [[t1, e, rat_str(m)] for (t1, e), m in sorted(census.masses.items())]
        counts = [[t1, e, c] for (t1, e), c in sorted(census.counts.items())]
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
    # never leave a partially written file behind
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


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
    CacheError when the file is not exactly what _save_cache writes for a
    census that passes the checks a fresh one passes."""
    path = _cache_path(kind, q)
    if path is None or not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if kind == "ell":
            counts = {int(t): int(c) for t, c in payload["counts"]}
            census = EllCensus(q, counts, int(payload["group_order"]), int(payload["model_count"]))
            _validate_ell(census)
        else:
            counts = {(int(t1), int(e)): int(c) for t1, e, c in payload["counts"]}
            census = G2Census(q, counts, int(payload["group_order"]), int(payload["model_count"]))
            _validate_g2(census)
        if payload != _cache_payload(kind, q, census):
            raise ValueError("fields disagree with the counts or the file name")
        return census
    except (KeyError, TypeError, ValueError, ZeroDivisionError, CensusInvariantError) as exc:
        raise CacheError(f"corrupt census cache {path}: {exc}") from exc
