"""Number theory and finite field arithmetic.

Polynomials are little-endian coefficient lists.  Integer polynomials use
plain Python ints; polynomials over F_p keep coefficients in [0, p).  The
extension field machinery only fixes a primitive n-th root of unity w, which
splits x^n - 1 into its irreducible factors over F_p and reduces cyclotomic
character values mod p, so it stays deliberately small: residue arithmetic
modulo a deterministically chosen irreducible, plus one element search.

That search, ExtField._first, walks the elements in counter order and keeps
the first c whose (p^e - 1)/q-th power is not 1 for any q of a set of
primes; root_of_unity(n, p) takes w = c^((p^e - 1)/n), e = ord_n(p), and
its n powers by doubling.  The canonical w, which labels the dihedral
censuses and the factors of x^n - 1 alike, takes the primes of p^e - 1, so
c is the primitive element (for e = 1 the least primitive root mod p, the
scalar of the oracle's sweep), and is 1 for n = 1, which factors nothing.
With canonical=False, for the tables whose values mod p do not depend on
the root, the set is the primes of n alone.  Neither that root nor the
canonical one for n = 1 factors p^e - 1, so the A4, S4 and A5 censuses run
at any prime is_prime proves, such as 10^24 + 7, where p^e - 1 has factors
past TRIAL_DIVISION_BUDGET.  The checks are verifies that survive python
-O, and a bad argument is a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import verify
from .linalg import dtype_for, eliminate, identity, label_orbits, mat_mul, mod, orbit_labels, zeros

# the largest trial divisor factorize tries: the primitive element of
# F_(7^60), which hosohedron:61 at p = 7 needs, takes divisors up to
# 6,568,801, the second largest prime factor of 7^60 - 1
TRIAL_DIVISION_BUDGET = 10**7

# the most entries of the (n, e) powers of the root of unity root_of_unity
# fixes in F_(p^e), e = ord_n(p).  The largest case in scope, hosohedron:97
# at p = 5, has 97 * 96 = 9,312.  As e < n, the degree stays below 100 under
# the budget: Ben-Or's search for the defining polynomial took 1.9 s at
# F_(5^96) and 5.9 s at F_(3^128), and x^211 - 1 over F_3, whose field
# F_(3^210) it had not found after 45 s, is rejected at once
ROOT_POWERS_BUDGET = 10**4


# Miller-Rabin with the first 13 primes as bases is deterministic below the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a ValueError from _PRIME_BOUND on."""
    if n >= _PRIME_BOUND:
        raise ValueError(f"{n} is past {_PRIME_BOUND}, the bound of the primality test")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    # n - 1 = 2^s * d with d odd, s the index of the lowest set bit
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; {prime: exponent}.  A ValueError
    once the trial divisors would pass TRIAL_DIVISION_BUDGET."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}: it is not a positive integer")
    out: dict[int, int] = {}
    d, whole = 2, n
    while d * d <= n and d <= TRIAL_DIVISION_BUDGET:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if d * d <= n:
        raise ValueError(f"factoring {whole} needs trial divisors past the budget of "
                         f"{TRIAL_DIVISION_BUDGET}")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, n: int, limit: int | None = None) -> int:
    """Order of a in (Z/n)^*; requires gcd(a, n) = 1.  With a limit, the
    least of the order and limit + 1, found in at most limit steps."""
    if n < 1:
        raise ValueError(f"no multiplicative group modulo {n}")
    if n == 1:
        return 1
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    k = 1
    x = a % n
    while x != 1 and (limit is None or k <= limit):
        x = x * a % n
        k += 1
    return k


# ---------------------------------------------------------------------------
# polynomials (little-endian coefficient lists)

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b, p=None):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    if p is not None:
        out = [v % p for v in out]
    return poly_trim(out)


def poly_divmod(a, b):
    """Quotient and remainder over the integers; the divisor must be monic
    so the division is exact in Z."""
    b = poly_trim(b)
    if not b:
        raise ValueError("division by zero polynomial")
    if b[-1] != 1:
        raise ValueError("integer polynomial division needs a monic divisor")
    rem = list(a)
    if len(rem) < len(b):
        return [], poly_trim(rem)
    quot = [0] * (len(rem) - len(b) + 1)
    for i in range(len(quot) - 1, -1, -1):
        coef = quot[i] = rem[len(b) + i - 1]
        if coef:
            for j, y in enumerate(b):
                rem[i + j] -= coef * y
    return poly_trim(quot), poly_trim(rem)


def poly_str(coeffs) -> str:
    """Render little-endian coefficients as a human-readable polynomial."""
    if not poly_trim(list(coeffs)):
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(parts)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (little-endian) of the m-th cyclotomic polynomial,
    by exact division of x^m - 1 by the lower cyclotomics."""
    if m < 1:
        raise ValueError(f"no {m}-th cyclotomic polynomial")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly_divmod(num, list(cyclotomic_polynomial(d)))
            verify(rem == [], f"Phi_{d} does not divide x^{m} - 1")
    return tuple(num)


# ---------------------------------------------------------------------------
# orbits of exponents of n-th roots of unity

@dataclass(frozen=True)
class CosetOrbit:
    """An orbit of residues mod n under multiplication by p (and optionally
    negation).  m is the order of the corresponding roots of unity, e the
    order of p mod m, self_paired whether the orbit is closed under negation.
    """

    n: int
    members: tuple[int, ...]
    m: int
    e: int
    self_paired: bool

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def least(self) -> int:
        return self.members[0]


def _annotate(n: int, p: int, members: tuple[int, ...]) -> CosetOrbit:
    r = members[0]
    m = n // math.gcd(r, n)
    for other in members:
        verify(n // math.gcd(other, n) == m,
               f"the orbit of {r} in Z_{n} mixes elements of different orders")
    e = multiplicative_order(p, m)
    paired = set((-i) % n for i in members) == set(members)
    return CosetOrbit(n=n, members=members, m=m, e=e, self_paired=paired)


def _check_unit(n: int, p: int) -> None:
    if n < 1 or math.gcd(n, p) != 1:
        raise ValueError(f"{p} is not a unit modulo {n}")


def frobenius_orbits(n: int, p: int) -> list[CosetOrbit]:
    """Orbits of multiplication by p on Z_n, sorted by least member."""
    _check_unit(n, p)
    orbits = label_orbits(orbit_labels([np.arange(n) * (p % n) % n]))
    return [_annotate(n, p, o) for o in orbits]


def coset_orbits(n: int, p: int) -> list[CosetOrbit]:
    """Orbits of the group generated by multiplication by p and negation on
    Z_n, sorted by least member.  The orbit of 0 is included."""
    _check_unit(n, p)
    residues = np.arange(n)
    orbits = label_orbits(orbit_labels([residues * (p % n) % n, -residues % n]))
    out = [_annotate(n, p, o) for o in orbits]
    verify(all(o.self_paired for o in out), "an orbit under p and negation is not closed under negation")
    return out


# ---------------------------------------------------------------------------
# extension fields
#
# A residue modulo a monic f of degree e is a little-endian coefficient row
# of length e; stacks of residues are (..., m, e) arrays.  The product of a
# and b is two products through linalg: a times the rows x^i b is their
# polynomial product, which the table of x^k mod f for k < 2e - 1 reduces.
# A stack of C moduli has a stack of tables, (C, 2e - 1, e), and then its
# residues are (C, m, e): m residues for each modulus.

# the search for the first irreducible runs Ben-Or's test on blocks of this
# many candidates: on F_(7^12), the field of hosohedron:95 at p = 7, whose
# first irreducible is the 59th candidate, one block takes 6 ms and the
# candidates one by one 57 ms
_IRREDUCIBLE_BLOCK = 64


def _reduction_table(lower: np.ndarray, p: int) -> np.ndarray:
    """x^k mod f for k < 2e - 1, row k, for f = x^e + lower; lower is (e,)
    or a stack (C, e) of moduli, and the table (2e - 1, e) or (C, 2e - 1, e)."""
    e = lower.shape[-1]
    table = zeros(lower.shape[:-1] + (2 * e - 1, e), p)
    table[..., :e, :] = identity(e, p)
    minus = mod(-lower, p)
    for k in range(e, 2 * e - 1):
        # x^k = x * x^(k-1), its top coefficient folded back by x^e = -lower
        prev = table[..., k - 1, :]
        table[..., k, 1:] = prev[..., :-1]
        table[..., k, :] = mod(table[..., k, :] + prev[..., -1:] * minus, p)
    return table


def _shifts(b: np.ndarray, p: int) -> np.ndarray:
    """(..., e, 2e - 1): row i is x^i b before reduction."""
    e = b.shape[-1]
    spread = zeros(b.shape[:-1] + (e, 2 * e), p)
    spread[..., :e] = b[..., None, :]
    # rows of length 2e read with stride 2e - 1 shift row i right by i
    return spread.reshape(b.shape[:-1] + (2 * e * e,))[..., : e * (2 * e - 1)].reshape(
        b.shape[:-1] + (e, 2 * e - 1))


def _mul(a: np.ndarray, b: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """Elementwise products of two stacks of residues, broadcast."""
    return mat_mul(mat_mul(a[..., None, :], _shifts(b, p), p)[..., 0, :], table, p)


def _squares(a: np.ndarray, count: int, table: np.ndarray, p: int) -> np.ndarray:
    """a, a^2, a^4, ..., a^(2^(count-1)) along the residue axis of a (..., 1, e)."""
    out = [a]
    for _ in range(count - 1):
        out.append(_mul(out[-1], out[-1], table, p))
    return np.concatenate(out, axis=-2)


def _power(squares: np.ndarray, k: int, table: np.ndarray, p: int) -> np.ndarray:
    """a^k, (..., 1, e), from the squares of a (..., count, e), k < 2^count:
    the squares at the set bits of k, multiplied pairwise."""
    if not k:
        one = zeros(squares.shape[:-2] + (1, squares.shape[-1]), p)
        one[..., 0] = 1
        return one
    chosen = squares[..., [j for j in range(k.bit_length()) if k >> j & 1], :]
    while chosen.shape[-2] > 1:
        half = chosen.shape[-2] // 2
        paired = _mul(chosen[..., :half, :], chosen[..., half:2 * half, :], table, p)
        chosen = np.concatenate([paired, chosen[..., 2 * half:, :]], axis=-2)
    return chosen


def _pow(a: np.ndarray, k: int, table: np.ndarray, p: int) -> np.ndarray:
    """a^k for every residue of a (..., 1, e)."""
    return _power(_squares(a, max(k.bit_length(), 1), table, p), k, table, p)


def _powers(a: np.ndarray, count: int, table: np.ndarray, p: int) -> np.ndarray:
    """a^0, ..., a^(count-1) along the residue axis of a (..., 1, e), by
    doubling: the first m powers times a^m are the next m."""
    out, base = _pow(a, 0, table, p), a
    while out.shape[-2] < count:
        out = np.concatenate([out, _mul(out, base, table, p)], axis=-2)
        base = _mul(base, base, table, p)
    return out[..., :count, :]


def _counter_residues(counters: range, p: int, e: int) -> np.ndarray:
    """(len(counters), e): the residues whose little-endian base-p digits
    are the counters."""
    places = np.array([p**i for i in range(e)], dtype=object)
    return mod(np.array(counters, dtype=object)[:, None] // places, p).astype(dtype_for(p))


def _irreducible(lower: np.ndarray, p: int) -> np.ndarray:
    """Ben-Or's test on each monic f = x^e + lower of a stack (C, e): f is
    irreducible iff it shares no factor with x^(p^k) - x for k <= e/2, since
    a reducible f has an irreducible factor of degree at most e/2 and
    x^(p^k) - x is the product of the monic irreducibles whose degree
    divides k.  Each x^(p^k) mod f is the p-th power of the one before, and
    g shares a factor with f iff multiplication by g mod f, the matrix whose
    rows are x^i g mod f, is singular.  A modulus found reducible leaves the
    stack."""
    count, e = lower.shape
    table = _reduction_table(lower, p)
    x = zeros((count, 1, e), p)
    x[:, 0, 1] = 1
    alive = np.arange(count)
    xpk = x
    for _ in range(e // 2):
        xpk = _pow(xpk, p, table, p)
        times = mat_mul(_shifts(mod(xpk - x[:1], p), p)[:, 0], table, p)
        keep = (eliminate(times, p) < e).all(axis=1)
        alive, table, xpk = alive[keep], table[keep], xpk[keep]
        if not len(alive):
            break
    irreducible = np.zeros(count, dtype=bool)
    irreducible[alive] = True
    return irreducible


class ExtField:
    """F_{p^e} as residues modulo a deterministically chosen irreducible.

    The defining polynomial is the first monic irreducible of degree e in
    the little-endian counter order of its lower coefficients.  Elements are
    coefficient tuples of length e; the arithmetic behind them runs on
    stacks, through one reduction table.
    """

    def __init__(self, p: int, e: int):
        if not (is_prime(p) and e >= 1):
            raise ValueError(f"no field of {p}^{e} elements")
        self.p = p
        self.e = e
        self.defining = self._first_irreducible()
        self.order = p**e
        self._table = _reduction_table(np.array(self.defining[:e], dtype=dtype_for(p)), p)

    def _first_irreducible(self):
        """The first x^e + c with 0 < c < p that Lidl and Niederreiter's
        Theorem 3.75 proves irreducible: every prime r dividing e divides
        p - 1 and -c is not an r-th power, and p = 1 mod 4 if 4 divides e.
        Without one, the counter order's binomials x^e + c all come first
        and are all reducible, so Ben-Or's test runs from counter p on."""
        p, e = self.p, self.e
        if e == 1:
            return [0, 1]
        primes = list(factorize(e))
        if all((p - 1) % r == 0 for r in primes) and (e % 4 or p % 4 == 1):
            for c in range(1, p):
                if all(pow(-c, (p - 1) // r, p) != 1 for r in primes):
                    lower = [c] + [0] * (e - 1)
                    verify(_irreducible(np.array([lower], dtype=dtype_for(p)), p)[0],
                           f"x^{e} + {c} is reducible over F_{p}")
                    return lower + [1]
        # about one monic polynomial of degree e in e is irreducible
        for start in range(p, p**e, _IRREDUCIBLE_BLOCK):
            lower = _counter_residues(range(start, min(start + _IRREDUCIBLE_BLOCK, p**e)), p, e)
            found = _irreducible(lower, p)
            if found.any():
                return lower[found.argmax()].tolist() + [1]
        raise AssertionError("no irreducible polynomial found")

    def element(self, coeffs) -> tuple[int, ...]:
        c = [x % self.p for x in coeffs]
        c = c[: self.e] + [0] * (self.e - len(c))
        return tuple(c)

    def one(self) -> tuple[int, ...]:
        return self.element([1])

    def _array(self, a) -> np.ndarray:
        return np.array(a, dtype=dtype_for(self.p))[None]

    def pow(self, a, k: int):
        return tuple(_pow(self._array(a), k, self._table, self.p)[0].tolist())

    def _candidates(self):
        """The elements in counter order as (1, e) arrays, from counter p on
        for e >= 2: the prime field constants have orders dividing p - 1."""
        start = self.p if self.e >= 2 else 1
        for counter in range(start, self.order):
            yield _counter_residues(range(counter, counter + 1), self.p, self.e)

    def _first(self, primes) -> tuple[np.ndarray, np.ndarray]:
        """The first candidate c in counter order whose (p^e - 1)/q-th power
        is not 1 for any q in primes, as (1, e), and its squares.  Each
        candidate is squared once, and each of those powers is a product of
        its squares."""
        n = self.order - 1
        one = self._array(self.one())
        for candidate in self._candidates():
            squares = _squares(candidate, n.bit_length(), self._table, self.p)
            if all((_power(squares, n // q, self._table, self.p) != one).any()
                   for q in primes):
                return candidate, squares
        raise AssertionError(f"no element passes the power test for the primes {sorted(primes)}")

    def primitive_element(self) -> tuple[int, ...]:
        """First element (in counter order) of multiplicative order p^e - 1."""
        return tuple(self._first(factorize(self.order - 1))[0][0].tolist())

    def _root(self, n: int, primes) -> np.ndarray:
        """c^((p^e - 1)/n), (1, e), for the first c of _first(primes),
        checked to be an n-th root of unity."""
        verify((self.order - 1) % n == 0, f"F_{self.order} has no primitive {n}-th root of unity")
        _, squares = self._first(primes)
        w = _power(squares, (self.order - 1) // n, self._table, self.p)
        verify(self.pow(w[0].tolist(), n) == self.one(), f"w^{n} is not 1")
        return w


@lru_cache(maxsize=None)
def root_of_unity(n: int, p: int, canonical: bool = True) -> tuple[ExtField, np.ndarray]:
    """The field F_{p^e}, e = ord_n(p), and the (n, e) array of the powers
    w^0, ..., w^(n-1), read-only, of the canonical or the first primitive
    n-th root of unity w (module docstring).  The cache keys on the call
    form, so each convention has one: canonical=True or False, by keyword."""
    verify(is_prime(p) and math.gcd(n, p) == 1, f"no {n}-th roots of unity over F_{p}")
    e = multiplicative_order(p, n, limit=ROOT_POWERS_BUDGET // n)
    if n * e > ROOT_POWERS_BUDGET:
        raise ValueError(f"the {n}-th roots of unity over F_{p} need {n} * ord_{n}({p}) >= {n * e} "
                         f"powers, past the budget of {ROOT_POWERS_BUDGET}")
    field = ExtField(p, e)
    w = field._root(n, factorize(field.order - 1 if canonical and n > 1 else n))
    powers = _powers(w, n, field._table, p)
    powers.flags.writeable = False
    return field, powers


def factor_xn_minus_1(n: int, p: int) -> list[tuple[CosetOrbit, list[int]]]:
    """Irreducible factors of x^n - 1 over F_p, one per Frobenius orbit.

    Each factor is built as the product of (x - w^i) over its orbit of
    exponents, with w the root of unity fixed by root_of_unity; the
    coefficients are checked to land in the prime field.
    """
    field, w_powers = root_of_unity(n, p, canonical=True)
    out = []
    for orbit in frobenius_orbits(n, p):
        # polynomial over the extension field, one coefficient row per degree
        poly = field._array(field.one())
        for i in orbit.members:
            shifted = np.concatenate([zeros((1, field.e), p), poly])
            shifted[:-1] -= _mul(poly, w_powers[i], field._table, p)
            poly = mod(shifted, p)
        verify(not poly[:, 1:].any(), f"the factor of the orbit of {orbit.least} leaves F_{p}")
        coeffs = poly[:, 0].tolist()
        verify(coeffs[-1] == 1 and len(coeffs) == orbit.size + 1,
               f"the factor of the orbit of {orbit.least} is not monic of degree {orbit.size}")
        out.append((orbit, coeffs))
    product = [1]
    for _, f in out:
        product = poly_mul(product, f, p)
    verify(product == poly_trim([(-1) % p] + [0] * (n - 1) + [1]),
           f"the factors do not multiply to x^{n} - 1")
    return out
