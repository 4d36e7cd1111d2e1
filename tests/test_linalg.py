"""The elimination kernel on stacks, rref, reduce_rows, Subspace.add and the
batched direct-sum merge against sympy's DomainMatrix over GF(p), the merge
also against folded Subspace.add calls, and the orbit-labelling kernels
against a cycle walk and union-find.

Every path of the product is drawn: int64 products through float64 at
small primes, int64 ones at 2^25 - 39 past inner length 8, and the exact
dtype=object path at 2^31 - 1, which is past the int64 bound, so its arrays
hold Python ints.
"""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, nextprime
from sympy.polys.matrices import DomainMatrix

from platocover import linalg
from platocover.errors import VerificationError
from platocover.homology import Subspace
from platocover.linalg import (
    Labeller,
    _label_dtype,
    cycle_labels,
    dtype_for,
    echelon,
    eliminate,
    joint_orbit_count,
    mat_mul,
    merge_direct_sums,
    orbit_labels,
    reduce_rows,
    rref,
)

BIG = 2**31 - 1
# the largest prime dtype_for keeps in int64; float64 is exact for its
# products only up to inner length 8
EDGE = 2**25 - 39
PRIMES = (3, 7, EDGE, BIG)
SETTINGS = settings(max_examples=80, deadline=None)


def test_primes_cover_both_dtypes():
    assert dtype_for(3) is np.int64 and dtype_for(7) is np.int64
    assert dtype_for(EDGE) is np.int64 and dtype_for(nextprime(EDGE)) is object
    assert 8 * (EDGE - 1) ** 2 < linalg._FLOAT_CAP <= 9 * (EDGE - 1) ** 2
    assert dtype_for(BIG) is object


# mod reduces large int64 arrays by floor division and the rest by %; it
# must equal % everywhere, whichever way it goes.  Entries are drawn up to
# 2^62 in magnitude and shifted right by random amounts, so both small and
# huge values of both signs occur, next to a few values hypothesis picks.

@SETTINGS
@given(st.sampled_from((3, 7, 11, 1073741789)), st.integers(1, 4 * linalg._FLOOR_MIN),
       st.integers(0, 2**32 - 1), st.lists(st.integers(-(2**62), 2**62), max_size=8))
@example(7, linalg._FLOOR_MIN - 1, 0, [2**62, -(2**62), -1, 0])
@example(7, linalg._FLOOR_MIN, 0, [2**62, -(2**62), -1, 0])
def test_mod_equals_remainder_on_int64(p, size, seed, picked):
    rng = np.random.default_rng(seed)
    x = rng.integers(-(2**62), 2**62, size, endpoint=True) >> rng.integers(0, 63, size)
    x[: len(picked)] = picked[:size]
    before = x.copy()
    want = x % p
    got = linalg.mod(x, p)
    assert got.dtype == np.int64 and (got == want).all()
    assert (x == before).all()
    # into a strided view of a larger buffer, and in place
    buf = np.full(2 * size, -1, dtype=np.int64)
    view = buf[::2]
    assert linalg.mod(x, p, out=view) is view
    assert (view == want).all() and (buf[1::2] == -1).all()
    linalg.mod(x, p, out=x)
    assert (x == want).all()


@SETTINGS
@given(st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=20))
def test_mod_equals_remainder_on_object_arrays(values):
    x = np.array(values, dtype=object)
    want = [v % BIG for v in values]
    assert linalg.mod(x, BIG).tolist() == want
    out = np.zeros(2 * len(values), dtype=object)
    linalg.mod(x, BIG, out=out[::2])
    assert out[::2].tolist() == want and not out[1::2].any()


# every product over F_p is linalg._product, which verifies that an int64
# product's inner length is at most _DIM_CAP, where it is exact; the check
# raises VerificationError, so it also holds under python -O

def test_an_int64_product_past_the_cap_raises():
    a = np.ones((2, 3), dtype=np.int64)
    basis = np.eye(3, 4, dtype=np.int64)
    with mock.patch.object(linalg, "_DIM_CAP", 2):
        for call in (lambda: linalg.mat_mul(a, a.T, 7),
                     lambda: reduce_rows(basis, [0, 1, 2], np.ones((1, 4), dtype=np.int64), 7)):
            with pytest.raises(VerificationError, match="inner length 3 is not exact"):
                call()
        assert linalg.mat_mul(a.T, a, 7).tolist() == [[2] * 3] * 3
        assert linalg.mat_mul(a.astype(object), a.T.astype(object), BIG).tolist() == [[3, 3], [3, 3]]


@st.composite
def product_cases(draw):
    """A stack of matrices and a right factor that is either one matrix for
    the whole stack or one per matrix, every dimension possibly 0."""
    p = draw(st.sampled_from(PRIMES))
    batch, n, k, m = (draw(st.integers(0, 4)) for _ in range(4))
    entry = st.integers(0, p - 1)
    a = [[[draw(entry) for _ in range(k)] for _ in range(n)] for _ in range(batch)]
    shared = draw(st.booleans())
    b = [[[draw(entry) for _ in range(m)] for _ in range(k)] for _ in range(1 if shared else batch)]
    return p, (batch, n, k, m), a, b, shared


@SETTINGS
@given(product_cases())
def test_mat_mul_on_stacks_matches_python_ints(case):
    p, (batch, n, k, m), a, b, shared = case
    left = np.array(a, dtype=dtype_for(p)).reshape(batch, n, k)
    right = np.array(b, dtype=dtype_for(p)).reshape(len(b), k, m)
    got = linalg.mat_mul(left, right[0] if shared else right, p)
    assert got.shape == (batch, n, m) and got.dtype == dtype_for(p)
    want = [[[sum(row[t] * b[0 if shared else i][t][j] for t in range(k)) % p for j in range(m)]
             for row in a[i]] for i in range(batch)]
    assert got.tolist() == want


# The products at EDGE on both sides of the float64 bound, against
# Python-int products.  Sums of (p-1)^2 have few significant bits and stay
# exact in float64 past the bound too, so each example is also filled with
# p - 2, whose square is odd: nine of them sum to an odd integer above 2^53,
# which float64 would round.

def python_product(a, b):
    return np.matmul(np.asarray(a, dtype=object), np.asarray(b, dtype=object))


@pytest.mark.parametrize("fill", [EDGE - 1, EDGE - 2])
@pytest.mark.parametrize("k", [8, 9])
def test_mat_mul_at_the_float_bound(k, fill):
    a = np.full((3, 2, k), fill, dtype=np.int64)
    b = np.full((3, k, 4), fill, dtype=np.int64)
    with mock.patch("numpy.matmul", wraps=np.matmul) as spy:
        stacked = mat_mul(a, b, EDGE)
    assert spy.call_args.args[0].dtype == (np.float64 if k == 8 else np.int64)
    assert stacked.tolist() == (python_product(a, b) % EDGE).tolist()
    # a right factor shared by the whole stack, a single matrix, and a gather
    # of columns
    assert mat_mul(a, b[1], EDGE).tolist() == (python_product(a, b[1]) % EDGE).tolist()
    assert mat_mul(a[0], b[1], EDGE).tolist() == (python_product(a[0], b[1]) % EDGE).tolist()
    picked = mat_mul(a, b, EDGE, columns=[3, 0])
    assert picked.tolist() == (python_product(a, b[:, :, [3, 0]]) % EDGE).tolist()


@pytest.mark.parametrize("chunk", [1, 7, 2**16])
def test_float_chunks_match_python_ints(chunk):
    # the float64 path cut into chunks of every size, down to one index of
    # the chunked axis, along each kind of first axis of the result
    rng = np.random.default_rng(5)
    shapes = [((9, 5), (5, 6)),  # the rows of a single matrix
              ((4, 3, 5), (5, 6)),  # a stack against a shared right factor
              ((5, 6), (4, 6, 3)),  # a shared left factor against a stack
              ((3, 1, 4, 5), (2, 5, 6)),  # broadcast batch axes
              ((0, 4, 5), (0, 5, 6))]  # an empty batch
    with mock.patch.object(linalg, "_FLOAT_CHUNK", chunk):
        for shape_a, shape_b in shapes:
            a, b = rng.integers(0, 7, shape_a), rng.integers(0, 7, shape_b)
            assert mat_mul(a, b, 7).tolist() == (python_product(a, b) % 7).tolist()
            picked = mat_mul(a, b, 7, columns=[2, 0, 2])
            assert picked.tolist() == (python_product(a, b[..., [2, 0, 2]]) % 7).tolist()


def rref_at_the_bound(k, fill):
    """Two (k, 2k + 1) RREF bases with pivots 0..k-1 and every other entry
    fill, stacked, and their pivots."""
    basis = np.full((2, k, 2 * k + 1), fill, dtype=np.int64)
    basis[:, :, :k] = np.eye(k, dtype=np.int64)
    return basis, np.tile(np.arange(k), (2, 1))


@pytest.mark.parametrize("fill", [EDGE - 1, EDGE - 2])
@pytest.mark.parametrize("k", [8, 9])
def test_reduce_rows_at_the_float_bound(k, fill):
    bases, pivots = rref_at_the_bound(k, fill)
    mats = np.full((2, 3, 2 * k + 1), fill, dtype=np.int64)
    want = (mats - python_product(mats[:, :, :k], bases)) % EDGE
    assert reduce_rows(bases, pivots, mats, EDGE).tolist() == want.tolist()
    # one matrix broadcast against the stack of bases
    assert reduce_rows(bases, pivots, mats[0], EDGE).tolist() == want.tolist()


@pytest.mark.parametrize("fill", [EDGE - 1, EDGE - 2])
@pytest.mark.parametrize("k", [8, 9])
def test_merge_direct_sums_at_the_float_bound(k, fill):
    # prefixes and blocks of rank k, so both products have inner length k
    bases, pivots = rref_at_the_bound(k, fill)
    blocks = np.full((2, k, 2 * k + 1), fill, dtype=np.int64)
    blocks[:, :, k:2 * k] = np.eye(k, dtype=np.int64)
    merged, merged_pivots = merge_direct_sums(bases, pivots, blocks, EDGE)
    for basis, piv, prefix, block in zip(merged, merged_pivots.tolist(), bases, blocks):
        assert (basis.tolist(), piv) == sympy_rref(prefix.tolist() + block.tolist(), EDGE, 2 * k + 1)


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


@st.composite
def stacks(draw):
    """Matrices of one shape and different ranks: each is some random rows
    and combinations of them, cut or padded with zero rows to the common
    height and shuffled, so tall shapes (more rows than columns), rows that
    vanish at their step and rows that are zero in every matrix all occur."""
    p = draw(st.sampled_from(PRIMES))
    width = draw(st.integers(1, 6))
    height = draw(st.integers(0, 10))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(row_lists(p, width))[:height]
        rows += [[0] * width] * (height - len(rows))
        mats.append(draw(st.permutations(rows)))
    return p, width, height, mats


def check_eliminated_stack(p, width, height, mats):
    stack = np.array(mats, dtype=dtype_for(p)).reshape(len(mats), height, width)
    pivots = eliminate(stack, p)
    assert pivots.shape == (len(mats), height)
    assert stack.dtype == dtype_for(p)
    for mat, piv, rows in zip(stack, pivots, mats):
        # rows stay in place: a row without a pivot is zero, and each other
        # row is its own RREF row
        assert not mat[piv == width].any()
        basis, kept = echelon(mat, piv)
        assert (basis.tolist(), kept) == sympy_rref(rows, p, width)


@SETTINGS
@given(stacks())
def test_eliminate_gives_each_matrix_of_a_stack_its_rref(case):
    check_eliminated_stack(*case)


@SETTINGS
@given(stacks())
def test_eliminate_reducing_every_two_rows(case):
    # the stack is reduced after every _DIM_CAP rows; at 2 that happens
    # within most eliminations, and must not change the result
    with mock.patch.object(linalg, "_DIM_CAP", 2):
        check_eliminated_stack(*case)


def test_periodic_reduction_keeps_int64_exact():
    # with _DIM_CAP at 2, dtype_for keeps int64 for p below about 2^30.5, and
    # a step may move an entry by up to (p-1)^2 ~ 2^60: eight unreduced steps
    # could overflow, so eliminating 48 rows of full rank is exact only if
    # the stack is reduced every two rows.  The matrix is wide, so its RREF
    # is not the identity and a wrapped entry shows in the free columns.
    p = 1073741789  # the largest prime below 2^30
    rows = np.random.default_rng(7).integers(0, p, (48, 64)).tolist()
    with mock.patch.object(linalg, "_DIM_CAP", 2):
        assert dtype_for(p) is np.int64
        reduced, pivots = rref(np.array(rows), p)
    assert (reduced.tolist(), pivots) == sympy_rref(rows, p, 64)


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


@pytest.mark.parametrize("p", [7, BIG])
def test_reduce_rows_on_a_stack_reduces_each_basis(p):
    # a stack of bases reads each basis's own pivots, for a stack of
    # matrices and for one matrix shared by the whole stack
    rng = np.random.default_rng(3)
    bases, pivots = [], []
    while len(bases) < 5:
        basis, piv = rref(as_array(rng.integers(0, 5, (3, 6)).tolist(), p, 6), p)
        if len(piv) == 3:
            bases.append(basis)
            pivots.append(piv)
    mats = as_array(rng.integers(0, p, (20, 6)).tolist(), p, 6).reshape(5, 4, 6)
    stacked = reduce_rows(np.stack(bases), np.array(pivots), mats, p)
    shared = reduce_rows(np.stack(bases), np.array(pivots), mats[0], p)
    for i in range(5):
        assert stacked[i].tolist() == reduce_rows(bases[i], pivots[i], mats[i], p).tolist()
        assert shared[i].tolist() == reduce_rows(bases[i], pivots[i], mats[0], p).tolist()


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
# merge_direct_sums: each block of a stack is a complement of rank r to its
# own prefix, built as R + C @ prefix with its rows shuffled.  The prefixes
# are random RREF bases of one rank r0, either one shared by the whole stack
# or one per block with pivots of its own.  R vanishes on its prefix's pivot
# columns and is upper triangular with a nonzero diagonal on r distinct free
# columns, so R has rank r and meets the prefix only in 0.

@st.composite
def rref_rows(draw, p, width, rank):
    pivots = sorted(draw(st.permutations(range(width)))[:rank])
    return [[1 if j == c else 0 if j < c or j in pivots else draw(st.integers(0, p - 1))
             for j in range(width)] for c in pivots]


@st.composite
def direct_sum_stacks(draw):
    p = draw(st.sampled_from(PRIMES))
    width = draw(st.integers(1, 7))
    r0 = draw(st.integers(0, width))
    r = draw(st.integers(0, width - r0))
    shared = draw(st.booleans())
    entry = st.integers(0, p - 1)
    prefixes, blocks = [], []
    for _ in range(draw(st.integers(1, 8))):
        if not prefixes or not shared:
            prefix = Subspace(as_array(draw(rref_rows(p, width, r0)), p, width), p, width)
        free = [j for j in range(width) if j not in prefix.pivots]
        rows = [[draw(entry) if j in free else 0 for j in range(width)] for _ in range(r)]
        for i, j in enumerate(draw(st.permutations(free))[:r]):
            for k in range(i + 1, r):
                rows[k][j] = 0
            rows[i][j] = draw(st.integers(1, p - 1))
        mix = as_array([[draw(entry) for _ in range(r0)] for _ in range(r)], p, r0)
        block = (as_array(rows, p, width) + np.dot(mix, prefix.basis)) % p
        prefixes.append(prefix)
        blocks.append(block[draw(st.permutations(range(r)))])
    return p, prefixes, np.stack(blocks).reshape(len(blocks), r, width)


def prefix_stack(prefixes):
    """The (batch, r0, n) bases and (batch, r0) pivots of a list of prefixes
    of one rank."""
    r0, width = prefixes[0].dim, prefixes[0].ambient
    bases = np.stack([prefix.basis for prefix in prefixes]).reshape(len(prefixes), r0, width)
    return bases, np.array([prefix.pivots for prefix in prefixes], dtype=np.int64).reshape(len(prefixes), r0)


# three prefixes of rank 2 in F_7^5 with pivots (0, 1), (0, 3) and (2, 4),
# each with a block of rank 1 outside it
DISTINCT_PIVOTS = (
    7,
    [Subspace(np.array(rows, dtype=np.int64), 7, 5) for rows in (
        [[1, 0, 2, 0, 3], [0, 1, 4, 0, 5]],
        [[1, 3, 0, 0, 2], [0, 0, 0, 1, 6]],
        [[0, 0, 1, 2, 0], [0, 0, 0, 0, 1]],
    )],
    np.array([[[3, 1, 5, 2, 0]], [[0, 2, 1, 5, 3]], [[2, 0, 1, 2, 4]]], dtype=np.int64),
)


@SETTINGS
@given(direct_sum_stacks())
def test_merge_direct_sums_equals_folded_adds(case):
    p, prefixes, blocks = case
    width = prefixes[0].ambient
    bases, pivots = merge_direct_sums(*prefix_stack(prefixes), blocks, p)
    assert bases.shape == (blocks.shape[0], prefixes[0].dim + blocks.shape[1], width)
    assert bases.dtype == dtype_for(p)
    for basis, piv, prefix, block in zip(bases, pivots.tolist(), prefixes, blocks):
        total = prefix
        for row in block:
            total = total.add(Subspace(row, p, width))
        assert basis.tolist() == total.basis.tolist()
        assert piv == list(total.pivots)
        assert piv == rref(np.vstack([prefix.basis, block]), p)[1]


@SETTINGS
@given(direct_sum_stacks())
@example(case=DISTINCT_PIVOTS)
def test_merge_direct_sums_matches_sympy(case):
    p, prefixes, blocks = case
    width = prefixes[0].ambient
    bases, pivots = merge_direct_sums(*prefix_stack(prefixes), blocks, p)
    for basis, piv, prefix, block in zip(bases, pivots.tolist(), prefixes, blocks):
        expected = sympy_rref(prefix.basis.tolist() + block.tolist(), p, width)
        assert (basis.tolist(), piv) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_merge_direct_sums_rejects_a_block_meeting_the_prefix(p):
    prefix = Subspace(as_array([[1, 0, 2, 0], [0, 1, 1, 0]], p, 4), p, 4)
    good = [[0, 0, 1, 0]]
    for bad in ([[3, 1, 7, 0]],  # 3 * row 0 + row 1 of the prefix
                [[0, 0, 0, 0]]):  # rank deficient
        blocks = as_array(good + bad, p, 4).reshape(2, 1, 4)
        with pytest.raises(VerificationError, match="not direct"):
            merge_direct_sums(*prefix_stack([prefix, prefix]), blocks, p)
    twice = as_array([[0, 0, 1, 0], [0, 0, 2, 0]], p, 4).reshape(1, 2, 4)
    with pytest.raises(VerificationError, match="not direct"):
        merge_direct_sums(*prefix_stack([prefix]), twice, p)


# ---------------------------------------------------------------------------
# orbit labels: cycle_labels stops its doubling early, and orbit_labels joins
# the cycles of its first permutation along the rest, jumping only the roots;
# both must still give the least point of each cycle or orbit, which a plain
# walk and a union-find compute directly.

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
    labeller = Labeller(n)
    assert labeller.count(labeller.cycles(as_perm(perm))) == len(set(expected))


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
    labeller = Labeller(n)
    assert labeller.count(labeller.cycles(cycle)) == 1

    flips = flips_along([order], n)
    assert orbit_labels(flips).tolist() == [int(order.min())] * n
    assert joint_orbit_count(*flips) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(generator_sets))
def test_join_from_cycle_labels_matches_union_find(case):
    # the seed is the cycle partition of the first permutation; joining it
    # along the rest gives the orbits of all of them
    n, perms = case
    arrays = [as_perm(perm) for perm in perms]
    labeller = Labeller(n)
    seed = labeller.cycles(arrays[0]).tolist()
    assert seed == walked_cycle_labels(perms[0])
    labels = labeller.join(arrays[1:])
    assert labels.tolist() == union_find_labels(perms, n)
    assert labeller.count(labels) == len(set(labels.tolist()))


@settings(max_examples=40, deadline=None)
@given(generator_sets(1))
def test_join_of_nothing_returns_the_seed(case):
    n, (perm,) = case
    labeller = Labeller(n)
    seed = labeller.cycles(as_perm(perm)).copy()
    assert np.array_equal(labeller.join([]), seed)


@pytest.mark.parametrize("n", [2, 33, 1000, 1025])
def test_join_along_a_long_path(n):
    # the path of test_long_cycles_and_paths, seeded by the cycles of one
    # flip (pairs along the path) and joined along the other
    order = np.random.default_rng(n).permutation(n)
    first, second = flips_along([order], n)
    labeller = Labeller(n)
    labeller.cycles(first)
    assert labeller.join([second]).tolist() == [int(order.min())] * n


def test_a_labeller_serves_calls_of_every_kind_in_turn():
    # one labeller, as in builder.euler_verify: each call must start from
    # its own input, whatever an earlier call left in the buffers
    n = 600
    rng = np.random.default_rng(11)
    perms = [rng.permutation(n) for _ in range(3)]
    order = rng.permutation(n)
    pairs = flips_along([order[:250], order[250:290]], n)
    lists = [p.tolist() for p in perms + pairs]
    labeller = Labeller(n)
    for _ in range(2):
        assert labeller.orbits([q.copy() for q in pairs]).tolist() == union_find_labels(lists[3:], n)
        assert labeller.cycles(perms[0].copy()).tolist() == walked_cycle_labels(lists[0])
        assert labeller.join(perms[1:2]).tolist() == union_find_labels(lists[:2], n)
        assert labeller.join(pairs).tolist() == union_find_labels(lists[:2] + lists[3:], n)
        assert labeller.cycles(perms[2].copy()).tolist() == walked_cycle_labels(lists[2])
        assert labeller.orbits([q.copy() for q in perms]).tolist() == union_find_labels(lists[:3], n)


# shapes that stress hooking: each orbit graph is drawn by involutions or
# transpositions, so union-find over the generators gives the expected labels


def flips_along(paths, n):
    """Two involutions whose orbit graph on each given path is that path."""
    flips = [np.arange(n, dtype=np.int64) for _ in range(2)]
    for path in paths:
        path = np.asarray(path, dtype=np.int64)
        for offset, flip in enumerate(flips):
            a, b = path[offset:-1:2], path[offset + 1::2]
            a = a[: b.size]
            flip[a], flip[b] = b, a
    return flips


def assert_union_find(perms, n):
    assert orbit_labels(perms).tolist() == union_find_labels([p.tolist() for p in perms], n)


@pytest.mark.parametrize("n", [2, 3, 64, 1001])
def test_two_interleaved_paths(n):
    # one path through the even points upwards, one through the odd points
    # downwards, so each path's least point is at opposite ends
    assert_union_find(flips_along([np.arange(0, n, 2), np.arange(1, n, 2)[::-1]], n), n)


@pytest.mark.parametrize("leaves", [1, 2, 50])
def test_star_with_the_largest_point_at_the_centre(leaves):
    n = leaves + 1
    swaps = []
    for leaf in range(leaves):
        swap = np.arange(n, dtype=np.int64)
        swap[[leaf, n - 1]] = n - 1, leaf
        swaps.append(swap)
    assert_union_find(swaps, n)


@pytest.mark.parametrize("teeth", [1, 2, 33, 500])
@pytest.mark.parametrize("shuffled", [False, True])
def test_comb(teeth, shuffled):
    # a spine of points teeth..2*teeth-1, each with a tooth, the least tooth
    # at the far end of the spine; shuffled relabels every point at random
    n = 2 * teeth
    spine = np.arange(teeth, n)
    tooth = np.arange(teeth)[::-1]
    if shuffled:
        relabel = np.random.default_rng(teeth).permutation(n)
        spine, tooth = relabel[spine], relabel[tooth]
    comb = np.arange(n, dtype=np.int64)
    comb[spine], comb[tooth] = tooth, spine
    assert_union_find([*flips_along([spine], n), comb], n)


def test_label_dtype_is_int32_below_2_31():
    assert _label_dtype(2**31 - 1) is np.int32
    assert _label_dtype(2**31) is np.int64


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_labels_are_int32_and_leave_their_inputs_unchanged(dtype):
    rng = np.random.default_rng(5)
    perms = [rng.permutation(700).astype(dtype) for _ in range(3)]
    copies = [perm.copy() for perm in perms]
    labels = cycle_labels(perms[0])
    assert labels.dtype == np.int32
    assert labels.tolist() == walked_cycle_labels(perms[0].tolist())
    labels = orbit_labels(perms)
    assert labels.dtype == np.int32
    assert labels.tolist() == union_find_labels([p.tolist() for p in perms], 700)
    for perm, copy in zip(perms, copies):
        assert perm.dtype == copy.dtype and np.array_equal(perm, copy)



_PRODUCTS = {"matmul", "einsum", "tensordot", "dot", "convolve"}


def _product_sites(path: Path) -> list[str]:
    """The products a module takes outside linalg: the numpy product
    functions, by attribute or by import, and the @ operator, except
    oracle._linear_permutation's digits times their place values, which is
    an integer index and not a product over F_p."""
    tree = ast.parse(path.read_text())
    exempt = {id(node) for func in ast.walk(tree)
              if path.name == "oracle.py" and getattr(func, "name", None) == "_linear_permutation"
              for node in ast.walk(func)
              if isinstance(node, ast.BinOp) and getattr(node.right, "id", None) == "powers"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _PRODUCTS:
            kind = node.attr
        elif isinstance(node, ast.ImportFrom) and _PRODUCTS & {alias.name for alias in node.names}:
            kind = "import"
        elif (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
              and id(node) not in exempt):
            kind = "@"
        else:
            continue
        found.append(f"{path.name}:{node.lineno} {kind}")
    return found


def test_every_product_goes_through_linalg():
    # linalg._product is the one product over F_p, so its dtype bounds and
    # its float64 path hold for every caller
    src = Path(linalg.__file__).parent
    assert [site for path in sorted(src.glob("*.py")) if path.name != "linalg.py"
            for site in _product_sites(path)] == []


def test_no_module_asserts():
    # every check in the package is a verify or an explicit raise, so none
    # is stripped by python -O
    src = Path(linalg.__file__).parent
    assert [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)] == []


def test_the_product_rule_sees_every_kind_of_product(tmp_path):
    probe = tmp_path / "oracle.py"
    probe.write_text("import numpy as np\n"
                     "from numpy import dot\n"
                     "def _linear_permutation(a, b, powers):\n"
                     "    a @= b\n"
                     "    return (np.matmul(a, b) + np.einsum('ij,jk', a, b) + a.dot(b)\n"
                     "            + np.convolve(a, b) + np.tensordot(a, b) + a @ b + a @ powers)\n")
    kinds = [site.split()[1] for site in _product_sites(probe)]
    assert sorted(kinds) == sorted(["import", "@", "matmul", "einsum", "dot", "convolve",
                                    "tensordot", "@"])
