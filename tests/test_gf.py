"""Number theory and field arithmetic tests.

Expected values here were frozen from independent computations: square roots
by exhaustive scan, cyclotomic polynomials by hand for small index, factor
degrees from the order of p in (Z/n)^*.
"""

import math
import time

import pytest
from sympy import Poly, Symbol, gcd, isprime

from platocover.gf import (
    ExtField,
    _mul,
    coset_orbits,
    cyclotomic_polynomial,
    factor_xn_minus_1,
    factorize,
    frobenius_orbits,
    is_prime,
    multiplicative_order,
    poly_divmod,
    poly_mul,
    poly_str,
    poly_trim,
    root_of_unity,
    sqrt_mod_p,
)
from reference import first_irreducible_by_search, walked_orbits


def field_mul(f, a, b):
    """a * b in the field f, by the stacked product gf._mul."""
    return tuple(_mul(f._array(a), f._array(b), f._table, f.p)[0].tolist())


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# Carmichael numbers, and the least strong pseudoprimes to the first k prime
# bases for k = 1 to 12; the last of these is caught by the 13th base, 41
PSEUDOPRIMES = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265, 9746347772161,
                2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 3825123056546413051, 318665857834031151167461]


def test_is_prime_matches_sympy():
    candidates = [*range(3000), *range(10**9, 10**9 + 300), *PSEUDOPRIMES,
                  2**31 - 1, 2**61 - 1, (2**31 - 1) * (10**9 + 7), 10**18 + 9, 10**24 + 7,
                  3317044064679887385961979]
    for n in candidates:
        assert is_prime(n) == isprime(n), n


def test_primitive_root_is_the_smallest_generator():
    for p in filter(is_prime, range(2, 200)):
        smallest = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        assert ExtField(p, 1).primitive_element() == (smallest,)
    assert ExtField(9999991, 1).primitive_element() == (22,)


def test_multiplicative_order():
    # ord_95(7): 7^k mod 95 scan gives 12
    assert multiplicative_order(7, 95) == 12
    assert multiplicative_order(3, 13) == 3
    assert multiplicative_order(2, 13) == 12
    assert multiplicative_order(1, 7) == 1
    # with a limit, the least of the order and limit + 1
    assert multiplicative_order(3, 211) == 210
    assert multiplicative_order(3, 211, limit=47) == 48
    assert multiplicative_order(7, 95, limit=12) == multiplicative_order(7, 95, limit=11) == 12
    assert multiplicative_order(7, 95, limit=0) == 1 == multiplicative_order(1, 7, limit=0)


class TestPolynomials:
    def test_mul_int(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]

    def test_divmod_exact_int(self):
        # (x^2 - 1) / (x - 1) = x + 1
        q, r = poly_divmod([-1, 0, 1], [-1, 1])
        assert q == [1, 1] and r == []

    def test_str(self):
        assert poly_str([1, 0, 2, 1]) == "x^3 + 2*x^2 + 1"
        assert poly_str([]) == "0"
        assert poly_str([0, 1]) == "x"
        assert poly_trim([0, 0]) == []


class TestCyclotomic:
    def test_small_indices(self):
        assert list(cyclotomic_polynomial(1)) == [-1, 1]
        assert list(cyclotomic_polynomial(2)) == [1, 1]
        assert list(cyclotomic_polynomial(3)) == [1, 1, 1]
        assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
        assert list(cyclotomic_polynomial(5)) == [1, 1, 1, 1, 1]
        assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
        assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]

    def test_product_over_divisors(self):
        for m in (8, 15, 30, 95):
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
            assert prod == [-1] + [0] * (m - 1) + [1]

    def test_degree_is_totient(self):
        for m in (7, 10, 36, 95):
            phi = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
            assert len(cyclotomic_polynomial(m)) == phi + 1


class TestSqrt:
    def test_known_roots(self):
        # exhaustive scan oracle: 4^2 = 16 = 5 mod 11; even representative
        assert sqrt_mod_p(5, 11) == 4
        assert sqrt_mod_p(5, 7) is None
        assert sqrt_mod_p(0, 13) == 0
        assert sqrt_mod_p(1, 13) == 12  # roots are 1 and 12; 12 is even

    def test_against_scan(self):
        for p in (3, 5, 7, 11, 13, 17, 29, 41, 97, 101):
            squares = {x * x % p for x in range(p)}
            for a in range(p):
                r = sqrt_mod_p(a, p)
                if a in squares:
                    assert r is not None and r * r % p == a and (r == 0 or r % 2 == 0)
                else:
                    assert r is None

    def test_residue_criteria(self):
        # -3 is a QR mod p iff p = 1 mod 3; 5 is a QR mod p iff p = +-1 mod 5
        for p in (7, 13, 19, 31):
            assert sqrt_mod_p(-3, p) is not None
        for p in (5 + 6, 17, 23, 29):
            if p % 3 == 2:
                assert sqrt_mod_p(-3, p) is None
        for p in (11, 19, 29, 31):
            assert sqrt_mod_p(5, p) is not None
        for p in (3, 7, 13, 17, 23, 37):
            assert sqrt_mod_p(5, p) is None


class TestOrbits:
    def test_frobenius_n13_p3(self):
        # ord_13(3) = 3, so orbits of size 3 plus the fixed point 0
        orbs = frobenius_orbits(13, 3)
        sizes = sorted(o.size for o in orbs)
        assert sizes == [1, 3, 3, 3, 3]
        assert orbs[0].members == (0,)
        assert any(o.members == (1, 3, 9) for o in orbs)

    def test_coset_n95_p7(self):
        # frozen from a direct orbit scan of <7, -1> acting on Z_95
        orbs = coset_orbits(95, 7)
        sizes = sorted(o.size for o in orbs)
        assert sizes == [1, 4, 6, 6, 6, 24, 24, 24]
        assert len(orbs) == 8
        for o in orbs:
            assert o.self_paired
            assert set((-i) % 95 for i in o.members) == set(o.members)

    def test_coset_annotations(self):
        orbs = coset_orbits(13, 5)
        zero = orbs[0]
        assert zero.members == (0,) and zero.m == 1 and zero.e == 1
        one = next(o for o in orbs if 1 in o.members)
        assert one.m == 13 and one.e == multiplicative_order(5, 13) == 4
        assert one.least == 1

    def test_self_pairing_detection(self):
        # n=5, p=11: 11 = 1 mod 5 so Frobenius is trivial; {1} is not
        # closed under negation, {1,4} under the coset group is
        frob = frobenius_orbits(5, 11)
        assert sorted(o.size for o in frob) == [1, 1, 1, 1, 1]
        assert all(not o.self_paired for o in frob if o.members != (0,))
        cos = coset_orbits(5, 11)
        assert sorted(o.size for o in cos) == [1, 2, 2]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
    def test_orbits_match_walk(self, p):
        # orbit labels against a walk from each unvisited residue
        for n in range(1, 200):
            if math.gcd(n, p) != 1:
                continue
            times_p = lambda r: r * p % n  # noqa: E731
            assert [o.members for o in frobenius_orbits(n, p)] == walked_orbits(n, [times_p])
            assert [o.members for o in coset_orbits(n, p)] == \
                walked_orbits(n, [times_p, lambda r: (-r) % n])


class TestExtField:
    def test_prime_field(self):
        f = ExtField(7, 1)
        assert f.defining == [0, 1]
        a, b = f.element([3]), f.element([5])
        assert field_mul(f, a, b) == f.element([1])

    def test_defining_poly_irreducible(self):
        # first monic irreducible quadratic over F_3 in counter order:
        # x^2 + 1 (counter 1 gives lower coeffs [1, 0])
        f = ExtField(3, 2)
        assert f.defining == [1, 0, 1]

    def test_field_axioms_f49(self):
        f = ExtField(7, 2)
        one = f.one()
        # multiplicative group order divides 48
        x = f.element([1, 1])
        assert f.pow(x, 48) == one

    def test_primitive_element_order(self):
        f = ExtField(5, 2)
        g = f.primitive_element()
        n = f.order - 1
        seen = set()
        x = f.one()
        for _ in range(n):
            x = field_mul(f, x, g)
            seen.add(x)
        assert len(seen) == n

    @pytest.mark.parametrize("p, e", [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 3)])
    def test_primitive_element_is_the_first_in_counter_order(self, p, e):
        # the search skips the prime field constants; a walk over every
        # element from counter 1 finds the same first generator
        f = ExtField(p, e)
        n = f.order - 1

        def order(x):
            k, y = 1, x
            while y != f.one():
                y, k = field_mul(f, y, x), k + 1
            return k

        first = next(g for g in (f.element([(c // p**i) % p for i in range(e)])
                                 for c in range(1, f.order)) if order(g) == n)
        assert f.primitive_element() == first

    def test_nth_root_of_unity(self):
        f = ExtField(7, 4)  # ord_5(7) = 4
        w = f.nth_root_of_unity(5)
        powers = {w}
        x = w
        for _ in range(4):
            x = field_mul(f, x, w)
            powers.add(x)
        assert len(powers) == 5 and f.one() in powers


    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_defining_poly_is_the_first_irreducible_by_sympy(self, p, e):
        # Ben-Or's test stops at k <= e/2; sympy's own irreducibility test
        # must accept the defining polynomial and reject every monic
        # polynomial of degree e whose lower coefficients count below it
        x = Symbol("x")

        def irreducible(coeffs):
            return Poly(coeffs[::-1], x, modulus=p).is_irreducible

        defining = ExtField(p, e).defining
        assert len(defining) == e + 1 and defining[-1] == 1
        assert irreducible(defining)
        first = sum(c * p**i for i, c in enumerate(defining[:e]))
        for counter in range(first):
            assert not irreducible([(counter // p**i) % p for i in range(e)] + [1])


def test_binomials_decided_by_theorem_as_by_search():
    # Lidl and Niederreiter's Theorem 3.75 decides the p binomials x^e + c
    # that come first in counter order; the search from counter 0 agrees
    for p in filter(is_prime, range(2, 44)):
        for e in range(2, 9):
            if p**e <= 10**7:
                assert ExtField(p, e).defining == first_irreducible_by_search(p, e), (p, e)


@pytest.mark.parametrize("p, e", [(1000037, 3), (2**31 - 1, 4)])
def test_fields_without_an_irreducible_binomial(p, e):
    # 3 does not divide 1000036, and 2^31 - 1 = 3 mod 4 with 4 | e, so no
    # x^e + c is irreducible and the search runs from x^e + x on
    start = time.perf_counter()
    field = ExtField(p, e)
    assert time.perf_counter() - start < 5
    x = Symbol("x")
    assert Poly(field.defining[::-1], x, modulus=p).is_irreducible
    assert field.defining == [1, 1] + [0] * (e - 2) + [1]
    assert not Poly([1] + [0] * (e - 2) + [1, 0], x, modulus=p).is_irreducible
    assert not any(Poly([1] + [0] * (e - 1) + [c], x, modulus=p).is_irreducible for c in range(1, 50))


@pytest.mark.parametrize("n, p, defining, primitive, w", [
    (95, 7, [2, 1, 1] + [0] * 9 + [1], (1, 1) + (0,) * 10, (3, 2, 3, 1, 5, 6, 2, 6, 4, 3, 1, 2)),
    (19, 7, [2, 0, 0, 1], (1, 3, 0), (3, 5, 4)),
    (95, 13, [2] + [0] * 35 + [1], (0, 1, 1) + (0,) * 33,
     (9, 5, 10, 5, 0, 0, 1, 5, 9, 10, 2, 9, 1, 4, 0, 5, 9, 5, 12, 0, 8, 6, 6, 0, 5, 10, 11, 4, 8,
      10, 0, 10, 0, 8, 12, 11)),
])
def test_canonical_root_is_pinned(n, p, defining, primitive, w):
    # the xi labels of the census and the cyclotomic report follow w, so
    # however the field computes, it must find this defining polynomial,
    # primitive element and root
    field, powers = root_of_unity(n, p)
    assert field.defining == defining
    assert field.primitive_element() == primitive
    assert tuple(powers[1].tolist()) == w
    assert powers.shape == (n, len(w)) and powers[0].tolist() == [1] + [0] * (len(w) - 1)
    assert all(field_mul(field, powers[i].tolist(), w) == tuple(powers[i + 1].tolist())
               for i in range(n - 1))


def test_factorize_reaches_the_factors_of_the_largest_field_in_scope():
    # hosohedron:61 at p = 7 needs F_(7^60); trial division must get past
    # 6,568,801 to leave the prime 555,915,824,341
    factors = factorize(7**60 - 1)
    assert max(factors) == 555915824341 and 6568801 in factors
    assert math.prod(q**k for q, k in factors.items()) == 7**60 - 1
    assert all(is_prime(q) for q in factors if q < 10**8)


class TestFactorXnMinus1:
    def test_n5_p7(self):
        # 7 has order 4 mod 5: x^5 - 1 = (x - 1) * (irreducible quartic)
        factors = factor_xn_minus_1(5, 7)
        degs = sorted(len(f) - 1 for _, f in factors)
        assert degs == [1, 4]
        lin = next(f for o, f in factors if o.members == (0,))
        assert lin == [6, 1]  # x - 1

    def test_n19_p7(self):
        # ord_19(7) = 3: six cubics and one linear factor
        factors = factor_xn_minus_1(19, 7)
        degs = sorted(len(f) - 1 for _, f in factors)
        assert degs == [1, 3, 3, 3, 3, 3, 3]

    def test_n13_sweep(self):
        # degree pattern tracks ord_13(p)
        for p, e in ((53, 1), (3, 3), (17, 6), (5, 4), (41, 12)):
            if p == 53:
                assert multiplicative_order(53, 13) == 1
            factors = factor_xn_minus_1(13, p)
            degs = sorted(len(f) - 1 for _, f in factors)
            assert degs == [1] + [e] * (12 // e)

    def test_factors_pair_with_orbits(self):
        for n, p in ((8, 3), (12, 7), (95, 7)):
            factors = factor_xn_minus_1(n, p)
            for orbit, f in factors:
                assert len(f) - 1 == orbit.size

    def test_factors_are_coprime(self):
        factors = factor_xn_minus_1(12, 7)
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                x = Symbol("x")
                f, g = (Poly(factors[k][1][::-1], x, modulus=7) for k in (i, j))
                assert gcd(f, g) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplicative_order(2, 0), "no multiplicative group modulo 0"),
        (lambda: multiplicative_order(6, 9), "6 is not a unit modulo 9"),
        (lambda: ExtField(15, 1).primitive_element(), "no field of 15"),
        # a strong pseudoprime to all 13 bases
        (lambda: is_prime(3317044064679887385961981), "bound of the primality test"),
        (lambda: poly_divmod([1, 1], [0, 0]), "division by zero polynomial"),
        (lambda: poly_divmod([1, 1], [1, 2]), "needs a monic divisor"),
        (lambda: cyclotomic_polynomial(0), "no 0-th cyclotomic polynomial"),
        (lambda: sqrt_mod_p(3, 9), "9 is not an odd prime"),
        (lambda: frobenius_orbits(6, 3), "3 is not a unit modulo 6"),
        (lambda: coset_orbits(10, 5), "5 is not a unit modulo 10"),
        (lambda: ExtField(4, 1), "no field of 4"),
    ],
)
def test_bad_arguments_raise_value_error(call, message):
    # raised explicitly, so the checks also hold under python -O
    with pytest.raises(ValueError, match=message):
        call()
