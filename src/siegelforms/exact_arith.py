"""Exact arithmetic primitives: rationals, real-quadratic elements, small
finite fields, Bernoulli machinery and factoring.

Rationals are plain ``fractions.Fraction`` (kept reduced with positive
denominator by construction).  A real-quadratic element is a pair of
rationals over sqrt(disc); no function here approximates a real number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class InvalidInput(ValueError):
    """An argument outside the domain of the computation asked for: a
    non-prime p, a weight with no form, a bound below the smallest prime.
    Entry points raise it (or a subclass) for every input they reject, so
    the CLI maps it to one exit code instead of repeating the checks."""


# ---------------------------------------------------------------------------
# rational serialization


def rat_str(x: Fraction | int) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials


@lru_cache(maxsize=None)
def _bernoulli_list(n: int) -> tuple[Fraction, ...]:
    # Akiyama-Tanigawa gives the B1 = +1/2 convention; flip the sign of B1.
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = Fraction(-1, 2)
    return tuple(out)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= 3 and n % 2 == 1:
        return Fraction(0)
    return _bernoulli_list(n)[n]


def bernoulli_poly(r: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_r(x) = sum_k C(r,k) B_k x^(r-k)."""
    x = Fraction(x)
    return sum(
        (math.comb(r, k) * bernoulli(k) * x ** (r - k) for k in range(r + 1)),
        Fraction(0),
    )


def zeta_neg(k: int) -> Fraction:
    """zeta(1-k) = -B_k/k for k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -bernoulli(k) / k


# ---------------------------------------------------------------------------
# Kronecker symbol and fundamental discriminants


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n), completely multiplicative in n."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if D < 0:
            result = -result
    # factor out 2
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    # Jacobi symbol via quadratic reciprocity for odd n > 1
    a = D % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_fundamental_discriminant(D: int) -> bool:
    if D == 1:
        return True
    if D == 0:
        return False
    if D % 4 == 1:
        return _is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factorize(n).values())


def gen_bernoulli(r: int, D: int) -> Fraction:
    """Generalized Bernoulli number B_{r,chi_D} for a fundamental discriminant D.

    B_{r,chi} = |D|^(r-1) sum_{a mod |D|} chi_D(a) B_r(a/|D|); realizes
    L(1-r, chi_D) = -B_{r,chi_D}/r.  For D = 1 this is B_r with B_1 = -1/2.
    Expanding B_r(x) = sum_k C(r,k) B_k x^(r-k) gives
    B_{r,chi} = sum_k C(r,k) B_k m^(k-1) S_{r-k} with the integer power
    sums S_j = sum_{a < m} chi_D(a) a^j, m = |D|.  The r + 1 terms are
    summed as integers over one common denominator, and one Fraction is
    built at the end: this is behind every Cohen H-value (siegel_g2.cohen_H)
    of E_{4,1} and E_{6,1}, so of every chi10, chi12 and E_k table.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if D == 1:
        return bernoulli(r)
    m = abs(D)
    sums = [0] * (r + 1)
    for a in range(1, m):
        chi = kronecker(D, a)
        if chi:
            power = chi
            for j in range(r + 1):
                sums[j] += power
                power *= a
    # over the common denominator m * den, den the lcm of the denominators
    # of B_0..B_r: m^(k-1) B_k = m^k (B_k den) / (m den)
    bs = [bernoulli(k) for k in range(r + 1)]
    den = math.lcm(*(b.denominator for b in bs))
    num = sum(
        math.comb(r, k) * b.numerator * (den // b.denominator) * m ** k * sums[r - k]
        for k, b in enumerate(bs)
    )
    return Fraction(num, m * den)


# ---------------------------------------------------------------------------
# elementary multiplicative helpers


def divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of 0")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    if n <= 0:
        raise ValueError("n must be positive")
    exponents = factorize(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def sigma_div(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n)."""
    return sum(d ** k for d in divisors(n))


def squarefree_part(n: int) -> tuple[int, int]:
    """(s, c) with n = s c^2 and s squarefree, for n > 0."""
    if n <= 0:
        raise ValueError("n must be positive")
    s, c = 1, 1
    for p, e in factorize(n).items():
        c *= p ** (e // 2)
        s *= p ** (e % 2)
    return s, c


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(n + 1) if sieve[p]]


def is_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases 2..37.

    The answer is proven only below 318665857834031151167461, about
    3.18e23 (Sorenson and Webster 2015); every n below it that passes is
    prime.  Above that bound a True means a probable prime: no composite
    passing all twelve bases is known, but none is ruled out."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Pollard rho steps allowed per factor search: 364 times the 180 that
# congruence_prime_scan takes at most over the weights r <= 38 (r = 34)
RHO_STEP_CAP = 1 << 16


class FactorizationTooHard(ArithmeticError):
    """Pollard rho found no factor within RHO_STEP_CAP steps.  The numbers
    the pipeline factors need far fewer, so this points at a wrong input
    (a wrong critical value, say) that a search without a cap would hang on."""


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c, steps = 1, 0
    while True:
        x = y = 2
        d = 1
        while d == 1:
            steps += 1
            if steps > RHO_STEP_CAP:
                raise FactorizationTooHard(
                    f"no factor of a {n.bit_length()}-bit number in {RHO_STEP_CAP} Pollard rho steps"
                )
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| > 0 as {prime: exponent}; raises
    FactorizationTooHard when a composite cofactor resists RHO_STEP_CAP
    steps of Pollard rho."""
    n = abs(n)
    if n == 0:
        raise ValueError("factorize(0)")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


# ---------------------------------------------------------------------------
# real quadratic field elements


@dataclass(frozen=True)
class QuadElem:
    """Element a + b*sqrt(disc) of a real quadratic field, disc a positive
    non-square.  The pipeline builds and negates these and takes their
    minimal polynomials (min_poly); it does no field arithmetic.
    """

    disc: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.disc <= 0 or math.isqrt(self.disc) ** 2 == self.disc:
            raise ValueError(f"disc must be a positive non-square, got {self.disc}")
        for name in ("a", "b"):
            x = getattr(self, name)
            if type(x) is not Fraction:
                object.__setattr__(self, name, Fraction(x))

    def __neg__(self):
        return QuadElem(self.disc, -self.a, -self.b)

    def to_json(self) -> dict:
        return {"disc": self.disc, "a": rat_str(self.a), "b": rat_str(self.b)}

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.disc})"


def min_poly(value) -> list[int]:
    """Integer minimal polynomial of a rational or a QuadElem, lowest degree
    first, content 1 and leading coefficient positive: monic exactly when
    value is an algebraic integer.  Conjugates share it."""
    if isinstance(value, QuadElem) and value.b == 0:
        value = value.a
    if not isinstance(value, QuadElem):
        v = Fraction(value)
        return [-v.numerator, v.denominator]
    # x^2 - trace x + norm, cleared of denominators
    tr = 2 * value.a
    nm = value.a * value.a - value.disc * value.b * value.b
    den = math.lcm(tr.denominator, nm.denominator)
    c2, c1, c0 = den, int(-tr * den), int(nm * den)
    g = math.gcd(c2, c1, c0)
    return [c0 // g, c1 // g, c2 // g]


# ---------------------------------------------------------------------------
# small finite fields


class Fq:
    """Finite field of order q = p, p^2 or (as a tower) p^4.

    Elements are integers 0..q-1.  A prime field encodes residues directly;
    an extension of degree 2 over its base field encodes lo + hi*base.q for
    the element lo + hi*theta, where theta^2 + A*theta + B = 0 with (A, B)
    the lexicographically smallest pair making x^2 + A x + B irreducible
    over the base.  That choice is deterministic, so census caches built on
    top of these fields are reproducible.

    Every field, prime or not, adds and multiplies through log, antilog
    and Zech log tables, built on first use (not when the field is made):
    the log tables from the tower product (residue product for a prime
    field), the Zech table from 1 + y, which adds 1 to the lowest base-p
    digit of y.  k is the number of F_p-coordinates (base-p digits) of an
    element.
    """

    def __init__(self, p: int, base: "Fq | None" = None):
        if base is None:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            self.p = p
            self.q = p
            self.k = 1
            self.base = None
            self.modulus = None
        else:
            self.p = base.p
            self.q = base.q ** 2
            self.k = 2 * base.k
            self.base = base
            self.modulus = self._find_modulus(base)
        self._logs: tuple[list[int], list[int], list[int | None]] | None = None

    @staticmethod
    def _find_modulus(base: "Fq") -> tuple[int, int]:
        for a in range(base.q):
            for b in range(base.q):
                if all(
                    base.add(base.mul(x, base.add(x, a)), b) != 0
                    for x in range(base.q)
                ):
                    return (a, b)
        raise AssertionError("no irreducible quadratic found")

    # -- scalar arithmetic

    def add(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return x or y
        log, exp, zech = self._logs or self._log_tables()
        z = zech[log[y] - log[x]]  # log(1 + y/x); a negative index counts mod q - 1
        return 0 if z is None else exp[log[x] + z]

    def neg(self, x: int) -> int:
        return self.mul(x, self.p - 1)  # p - 1 is -1 at every level of the tower

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        log, exp, _ = self._logs or self._log_tables()
        return exp[log[x] + log[y]]

    def _tower_mul(self, x: int, y: int) -> int:
        """The product from the base field's: (x0 + x1 t)(y0 + y1 t) with
        t^2 = -B - A t."""
        if self.base is None:
            return (x * y) % self.p
        b = self.base
        x0, x1 = x % b.q, x // b.q
        y0, y1 = y % b.q, y // b.q
        A, B = self.modulus
        z2 = b.mul(x1, y1)
        z1 = b.add(b.mul(x0, y1), b.mul(x1, y0))
        z0 = b.mul(x0, y0)
        lo = b.add(z0, b.neg(b.mul(B, z2)))
        hi = b.add(z1, b.neg(b.mul(A, z2)))
        return lo + b.q * hi

    def _log_tables(self) -> tuple[list[int], list[int], list[int | None]]:
        """(log, exp, zech) with exp[i] = g^i for i < 2(q - 1), log[g^i] = i
        and g^zech[i] = 1 + g^i (None where that is 0), g the smallest
        generator of F_q^*, as the class docstring describes.  ValueError
        when the tower product is not a field multiplication: then some
        element does not return to 1 within q - 1 steps, or none generates."""
        if self._logs is None:
            q = self.q
            for g in range(1, q):
                exp, y = [1], g
                while y != 1:
                    if len(exp) == q - 1:
                        raise ValueError(f"the tower product of F_{q} is not a field product")
                    exp.append(y)
                    y = self._tower_mul(y, g)
                if len(exp) == q - 1:
                    break
            else:
                raise ValueError(f"the tower product of F_{q} is not a field product")
            log = [0] * q
            for i, y in enumerate(exp):
                log[y] = i
            p = self.p
            zech = [log[z] if z else None for z in (y - y % p + (y + 1) % p for y in exp)]
            self._logs = (log, exp + exp, zech)
        return self._logs

    def generator(self) -> int:
        """The smallest generator of the multiplicative group F_q^*."""
        return self._log_tables()[1][1]

    def pow(self, x: int, n: int) -> int:
        if x == 0:
            if n < 0:
                raise ZeroDivisionError
            return 1 if n == 0 else 0
        log, exp, _ = self._logs or self._log_tables()
        return exp[log[x] * n % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError
        return self.pow(x, self.q - 2)

    def chi(self, x: int) -> int:
        """Quadratic character: 1 on nonzero squares, -1 on non-squares, 0 at 0."""
        if x == 0:
            return 0
        if self.p == 2:
            return 1
        return 1 if self.pow(x, (self.q - 1) // 2) == 1 else -1

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"Fq({self.q})"


@lru_cache(maxsize=None)
def finite_field(q: int) -> Fq:
    """Field with q elements for q = p, p^2 or p^4 (tower of quadratics)."""
    for p in range(2, q + 1):
        if is_prime(p):
            if q == p:
                return Fq(p)
            if q == p * p:
                return Fq(p, base=finite_field(p))
            if q == p ** 4:
                return Fq(p, base=finite_field(p * p))
            if q % p == 0:
                break
    raise ValueError(f"unsupported field order {q}")
