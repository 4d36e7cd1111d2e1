"""rref, reduce_rows and Subspace.add against sympy's DomainMatrix over GF(p),
and the orbit-labelling kernels against a cycle walk and union-find.

Both the int64 path and the exact dtype=object path are drawn: 2^31 - 1 is
past the int64 bound, so its arrays hold Python ints.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from platocover.homology import Subspace
from platocover.linalg import (
    cycle_labels,
    dtype_for,
    joint_orbit_count,
    orbit_labels,
    permutation_orbit_count,
    reduce_rows,
    rref,
)

BIG = 2**31 - 1
PRIMES = (3, 7, BIG)
SETTINGS = settings(max_examples=80, deadline=None)


def test_primes_cover_both_dtypes():
    assert dtype_for(3) is np.int64 and dtype_for(7) is np.int64
    assert dtype_for(BIG) is object


@st.composite
def row_lists(draw, p, width):
    """Up to four random rows plus up to three combinations of them, so
    rank deficiency is common even when p is large."""
    entry = st.integers(0, p - 1)
    base = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=4))
    rows = list(base)
    if base:
        for coeffs in draw(st.lists(st.lists(entry, min_size=len(base), max_size=len(base)),
                                    max_size=3)):
            rows.append([sum(c * r[j] for c, r in zip(coeffs, base)) % p for j in range(width)])
    return rows


@st.composite
def cases(draw, count):
    p = draw(st.sampled_from(PRIMES))
    width = draw(st.integers(1, 7))
    return p, width, [draw(row_lists(p, width)) for _ in range(count)]


def as_array(rows, p, width):
    return np.array(rows, dtype=dtype_for(p)).reshape(len(rows), width)


def sympy_rref(rows, p, width):
    """(RREF rows, pivots) of the row space, zero rows dropped."""
    if not rows:
        return [], []
    K = GF(p)
    dm = DomainMatrix([[K(x) for x in row] for row in rows], (len(rows), width), K)
    reduced, pivots = dm.rref()
    out = [[int(x) % p for x in row] for row in reduced.to_list()]
    return out[: len(pivots)], list(pivots)


def sympy_rank(rows, p, width):
    return len(sympy_rref(rows, p, width)[1])


@SETTINGS
@given(cases(1))
def test_rref_matches_sympy(case):
    p, width, (rows,) = case
    a = as_array(rows, p, width)
    reduced, pivots = rref(a, p)
    assert reduced.dtype == dtype_for(p)
    assert (reduced.tolist(), list(pivots)) == sympy_rref(rows, p, width)


@SETTINGS
@given(cases(2))
def test_reduce_rows_leaves_the_unique_residue(case):
    # the residue vanishes on the pivot columns and differs from the row by
    # an element of the row space; those two facts determine it
    p, width, (basis_rows, rows) = case
    basis, pivots = sympy_rref(basis_rows, p, width)
    residue = reduce_rows(as_array(basis, p, width), pivots, as_array(rows, p, width), p)
    assert residue.shape == (len(rows), width)
    assert not residue[:, pivots].any()
    moved = [[(x - y) % p for x, y in zip(row, res)] for row, res in zip(rows, residue.tolist())]
    assert sympy_rank(basis + moved, p, width) == len(pivots)


@SETTINGS
@given(cases(2))
def test_subspace_add_equals_rref_of_stacked_bases(case):
    p, width, (u_rows, w_rows) = case
    U = Subspace(as_array(u_rows, p, width), p, width)
    W = Subspace(as_array(w_rows, p, width), p, width)
    merged = U.add(W)
    stacked = Subspace(np.vstack([U.basis, W.basis]), p, width)
    assert merged == stacked
    assert list(merged.pivots) == list(stacked.pivots)
    assert merged.basis.dtype == dtype_for(p)
    assert (merged.basis.tolist(), list(merged.pivots)) == sympy_rref(u_rows + w_rows, p, width)


# ---------------------------------------------------------------------------
# orbit labels: cycle_labels stops its doubling early and orbit_labels jumps
# labels along themselves; both must still give the least point of each cycle
# or orbit, which a plain walk and a union-find compute directly.

def walked_cycle_labels(perm):
    labels = [None] * len(perm)
    for start in range(len(perm)):
        if labels[start] is None:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            for point in cycle:
                labels[point] = min(cycle)
    return labels


def union_find_labels(perms, n):
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for perm in perms:
        for x in range(n):
            a, b = root(x), root(perm[x])
            parent[max(a, b)] = min(a, b)
    return [root(x) for x in range(n)]


@st.composite
def permutations(draw, n):
    """A permutation of range(n) of one of four kinds: the identity, an
    involution, a single n-cycle (the most doubling steps) or any."""
    kind = draw(st.sampled_from(("identity", "involution", "cycle", "any")))
    order = draw(st.permutations(range(n)))
    perm = list(range(n))
    if kind == "involution":
        pairs = draw(st.integers(0, n // 2))
        for i in range(pairs):
            a, b = order[2 * i], order[2 * i + 1]
            perm[a], perm[b] = b, a
    elif kind == "cycle":
        for i in range(n):
            perm[order[i]] = order[(i + 1) % n]
    elif kind == "any":
        perm = order
    return perm


@st.composite
def generator_sets(draw, count):
    n = draw(st.integers(0, 150))
    return n, [draw(permutations(n)) for _ in range(count)]


def as_perm(perm):
    return np.array(perm, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(generator_sets(1))
def test_cycle_labels_match_a_cycle_walk(case):
    n, (perm,) = case
    expected = walked_cycle_labels(perm)
    assert cycle_labels(as_perm(perm)).tolist() == expected
    assert permutation_orbit_count(as_perm(perm)) == len(set(expected))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(generator_sets))
def test_orbit_labels_match_union_find(case):
    n, perms = case
    arrays = [as_perm(perm) for perm in perms]
    expected = union_find_labels(perms, n)
    assert orbit_labels(arrays).tolist() == expected
    if len(perms) == 2:
        assert joint_orbit_count(*arrays) == len(set(expected))


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 1000, 1025])
def test_long_cycles_and_paths(n):
    # one n-cycle, the longest case for the early stop, and two involutions
    # whose orbit graph is a path of length n, the longest for orbit_labels
    rng = np.random.default_rng(n)
    order = rng.permutation(n)
    cycle = np.empty(n, dtype=np.int64)
    cycle[order] = np.roll(order, -1)
    assert cycle_labels(cycle).tolist() == [int(order.min())] * n
    assert permutation_orbit_count(cycle) == 1

    flips = []
    for offset in (0, 1):
        flip = np.arange(n, dtype=np.int64)
        a, b = order[offset:-1:2], order[offset + 1::2]
        a = a[: b.size]
        flip[a], flip[b] = b, a
        flips.append(flip)
    assert orbit_labels(flips).tolist() == [int(order.min())] * n
    assert joint_orbit_count(*flips) == 1
