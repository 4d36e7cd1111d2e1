"""rref, reduce_rows and Subspace.add against sympy's DomainMatrix over GF(p).

Both the int64 path and the exact dtype=object path are drawn: 2^31 - 1 is
past the int64 bound, so its arrays hold Python ints.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from platocover.homology import Subspace
from platocover.linalg import dtype_for, reduce_rows, rref

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
