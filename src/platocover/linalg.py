"""Exact linear algebra over prime fields.

Matrices are numpy arrays with entries reduced into [0, p).  Vectors are rows
throughout the package.  For moduli small enough that every intermediate
product fits in int64 the fast integer dtype is used; otherwise arrays fall
back to dtype=object (arbitrary-precision Python ints), so results are exact
for any modulus.

Every product over F_p is one function, _product, on factors reduced into
[0, p).  numpy multiplies int64 without BLAS, so where a product of inner
length k is exact in float64 (k*(p-1)^2 < 2^53) and is not a vector product,
its factors go through float64 BLAS in chunks of at most _FLOAT_CHUNK
entries and the result comes back as the same int64 integers; past that
bound int64 is kept, and dtype=object is multiplied as it is.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import verify

# A product of inner length k of entries in [0, p) stays below k*(p-1)^2,
# and so does every partial sum of it.  dtype_for keeps int64 only where that
# is below _INT64_CAP = 2^62 at k = _DIM_CAP, and _product checks every int64
# product's inner length against _DIM_CAP.  Every integer below _FLOAT_CAP =
# 2^53 is exact in float64, so _product takes the float64 path while
# k*(p-1)^2 < _FLOAT_CAP: inner length up to 2^53 / 36 at p = 7, but only 8
# at p = 2^25 - 39, the largest prime dtype_for keeps in int64.  Each float64
# copy holds at most _FLOAT_CHUNK entries of a chunk of the stack.
_DIM_CAP = 4096
_INT64_CAP = 2**62
_FLOAT_CAP = 2**53
_FLOAT_CHUNK = 2**16
# numpy's int64 % runs a general division per entry, while // by a scalar
# divides through a precomputed multiplier; past about a thousand entries
# x - p*(x // p) is the faster reduction
_FLOOR_MIN = 1024


def dtype_for(p: int):
    if (p - 1) * (p - 1) * _DIM_CAP < _INT64_CAP:
        return np.int64
    return object


def as_matrix(rows, p: int, width: int | None = None) -> np.ndarray:
    a = np.array(rows, dtype=dtype_for(p))
    if a.size == 0 and width is not None:
        return a.reshape(0, width)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if width is not None and a.shape[1] != width:
        raise ValueError(f"rows of width {a.shape[1]}, expected {width}")
    return mod(a, p)


def mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p into [0, p), entrywise, written to out when given.

    Large int64 arrays are reduced as x - p*(x // p), exact for |x| up to
    2^62; small arrays and dtype=object ones use %."""
    if x.size < _FLOOR_MIN or x.dtype.hasobject:
        return np.remainder(x, p, out=out)
    q = np.floor_divide(x, p)
    q *= p
    return np.subtract(x, q, out=q if out is None else out)


def zeros(shape, p: int) -> np.ndarray:
    return np.zeros(shape, dtype=dtype_for(p))


def identity(n: int, p: int) -> np.ndarray:
    return np.eye(n, dtype=dtype_for(p))


def _product(a: np.ndarray, b: np.ndarray, p: int, columns=None) -> np.ndarray:
    """a @ b[..., columns] (a @ b when columns is None) with np.matmul's
    rules for stacks, unreduced: every product over F_p in the package is
    taken here.  Both factors must have their entries in [0, p).

    The path follows from p and the shapes alone.  dtype=object multiplies
    as it is.  An int64 product is exact while its inner length k is at
    most _DIM_CAP, which is checked; where k*(p-1)^2 < _FLOAT_CAP and the
    product has at least two rows and two columns, it goes through float64
    BLAS and back to the same int64 integers.  A product with one row or
    one column (a 1-D factor counts as one) stays int64: it does about one
    multiply-add per converted entry, so converting cannot pay.

    The float64 path runs in chunks along the first axis of the result: the
    first batch axis of a stack, or the rows of a when neither factor is a
    stack.  Each chunk converts its part of every factor that has that axis,
    gathering the columns of b first, and holds at most _FLOAT_CHUNK entries
    of those parts and of its product, or a single index of that axis where
    that alone is more.  A factor without that axis is shared by every chunk
    and converted whole, once.  The int64 path gathers the columns of b
    whole."""
    k, m = a.shape[-1], b.shape[-1] if columns is None else len(columns)
    verify(a.dtype.hasobject or k <= _DIM_CAP,
           f"an int64 product of inner length {k} is not exact past {_DIM_CAP}")
    if (a.dtype.hasobject or k * (p - 1) ** 2 >= _FLOAT_CAP
            or min(a.ndim, b.ndim) < 2 or min(a.shape[-2], m) < 2):
        return np.matmul(a, b if columns is None else b[..., columns])
    if a.ndim == b.ndim == 2:
        # single matrices: chunks of the rows of a against one copy of b,
        # without the stack bookkeeping
        out = np.empty((a.shape[0], m), dtype=np.int64)
        split_a, split_b = True, False
    else:
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out = np.empty(batch + (a.shape[-2], m), dtype=np.int64)
        a = a.reshape((1,) * (out.ndim - a.ndim) + a.shape)
        b = b.reshape((1,) * (out.ndim - b.ndim) + b.shape)
        split_a, split_b = a.shape[0] > 1, b.shape[0] > 1

    def part_b(x):
        return (x if columns is None else x[..., columns]).astype(np.float64)

    shared_a = None if split_a else a.astype(np.float64)
    shared_b = None if split_b else part_b(b)
    per_index = (math.prod(out.shape[1:]) + split_a * math.prod(a.shape[1:])
                 + split_b * math.prod(b.shape[1:-1]) * m)
    step = max(1, _FLOAT_CHUNK // max(per_index, 1))
    for start in range(0, out.shape[0], step):
        chunk = slice(start, start + step)
        out[chunk] = np.matmul(a[chunk].astype(np.float64) if split_a else shared_a,
                               part_b(b[chunk]) if split_b else shared_b)
    return out


def mat_mul(a: np.ndarray, b: np.ndarray, p: int, columns=None) -> np.ndarray:
    """a @ b mod p, or a @ b[..., columns] mod p, on single matrices or
    stacks with entries in [0, p), through _product.  The product is reduced
    in place by %, which takes no second array the size of the product, as
    the floor division in mod would."""
    prod = _product(a, b, p, columns)
    return np.remainder(prod, p, out=prod)


def eliminate(stack: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan elimination, in place, of a (batch, rows, n) stack with
    entries in [0, p); returns each row's pivot, n for a zero row.

    Rows stay in place.  A row's pivot is its first nonzero entry: the row
    is divided by it and the column cleared in the other rows of its matrix,
    so every row stays zero before its pivot and on the other pivot columns.
    A row zero in every matrix costs no step, which keeps tall matrices of
    low rank cheap.  Entries stay unreduced between steps: the pivot row and
    column are reduced first, so a step moves an entry by at most (p-1)^2,
    and reducing the stack after every _DIM_CAP rows keeps it within the
    int64 bound dtype_for sets, so the result is exact at any size."""
    batch, rows, n = stack.shape
    pivots = np.zeros((batch, rows), dtype=np.int64)
    at = np.arange(batch)
    for i in range(rows):
        if i and i % _DIM_CAP == 0:
            mod(stack, p, out=stack)
        row = stack[:, i]
        mod(row, p, out=row)
        nonzero = row != 0
        if not nonzero.any():
            continue
        pivots[:, i] = c = nonzero.argmax(axis=1)
        row *= _inverses(row[at, c], p)[:, None]
        mod(row, p, out=row)
        col = mod(stack[at, :, c], p)
        col[:, i] = 0
        stack -= col[:, :, None] * row[:, None, :]
    mod(stack, p, out=stack)
    pivots[(stack == 0).all(axis=2)] = n
    return pivots


def echelon(mat: np.ndarray, pivots: np.ndarray):
    """(RREF, pivots) of one eliminated matrix: its rows with a pivot, in
    pivot order; the zero rows' pivot n sorts after every column."""
    kept = np.argsort(pivots)[: np.count_nonzero(pivots < mat.shape[1])]
    return mat[kept], pivots[kept].tolist()


def rref(mat, p: int):
    """Reduced row echelon form over F_p.

    Returns (r, pivots) with zero rows dropped, each pivot normalized to 1
    and its column cleared everywhere else.  The result is the canonical
    representative of the row space.
    """
    a = np.atleast_2d(mod(np.array(mat, dtype=dtype_for(p)), p))
    return echelon(a, eliminate(a[None], p)[0])


def reduce_rows(basis: np.ndarray, pivots, mat, p: int) -> np.ndarray:
    """Residue of each row of mat after elimination against an RREF basis.

    basis (..., r, n) may also be a stack of bases, each with its row of
    pivots (..., r); mat (..., q, n) broadcasts against the stack, and each
    basis reads its coefficients at its own pivot columns."""
    m = np.atleast_2d(mod(np.array(mat, dtype=dtype_for(p)), p))
    m = np.broadcast_to(m, np.broadcast_shapes(basis.shape[:-2], m.shape[:-2]) + m.shape[-2:])
    if basis.shape[-2] == 0:
        return m
    return _residues(basis, pivots, m, p)


def _residues(basis: np.ndarray, pivots, m: np.ndarray, p: int) -> np.ndarray:
    """m minus its entries at the pivot columns times the RREF basis, in a
    new array: the residue of each row of m, entries in [0, p), against
    the basis, with reduce_rows's rules for stacks."""
    coeff = np.take_along_axis(m, np.asarray(pivots, dtype=np.intp)[..., None, :], axis=-1)
    out = _product(coeff, basis, p)
    np.subtract(m, out, out=out)
    return mod(out, p, out=out)


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p, entrywise, by square and multiply: the inverse of
    every nonzero entry, on either dtype.  The first factor is taken as it
    is, which saves a product and a reduction per call."""
    out, e = None, p - 2
    while e:
        if e & 1:
            out = x if out is None else mod(out * x, p)
        e >>= 1
        if e:
            x = mod(x * x, p)
    return np.ones_like(x) if out is None else out


def merge_direct_sums(bases: np.ndarray, pivots: np.ndarray, blocks: np.ndarray, p: int):
    """RREF of the sum of each RREF prefix of a stack with its block.

    bases (batch, r0, n) are in RREF with pivot columns pivots (batch, r0);
    blocks is (batch, r, n) with entries in [0, p), and each block must meet
    its prefix's row space only in 0 and have rank r, which is verified.
    Returns (bases, pivots): the RREF sums (batch, r0 + r, n) and their pivot
    columns (batch, r0 + r).

    The residues against the prefixes come from one batched matmul, each
    block reading its coefficients at its own prefix's pivot columns, and
    are eliminated as one stack; the sum is direct exactly when every
    residue row gets a pivot.  The prefix rows' residues against the
    eliminated stack clear them on the new pivot columns, and one sort puts
    the rows in pivot order."""
    batch, r, n = blocks.shape
    r0 = pivots.shape[1]
    merged = np.empty((batch, r0 + r, n), dtype=bases.dtype)
    merged_pivots = np.empty((batch, r0 + r), dtype=np.int64)
    merged[:, :r0], merged_pivots[:, :r0] = bases, pivots
    if r == 0:
        return merged, merged_pivots
    fresh = _residues(bases, pivots, blocks, p)
    merged_pivots[:, r0:] = columns = eliminate(fresh, p)
    verify((columns < n).all(), "a block meets the prefix or is rank deficient: the sum is not direct")
    merged[:, r0:] = fresh
    merged[:, :r0] = _residues(fresh, columns, bases, p)
    at = np.arange(batch)[:, None]
    order = np.argsort(merged_pivots, axis=1)
    return merged[at, order], merged_pivots[at, order]


def _label_dtype(n: int):
    """int32 labels while every point fits, else int64: half the bytes for
    each gather and buffer on the derived maps and the oracle's sweeps."""
    return np.int32 if n < 2**31 else np.int64


class Labeller:
    """Least-point labels of the cycles and orbits of permutation arrays on
    range(n), with the buffers made once and shared by every labelling.

    On a million darts a fresh buffer per count re-faults megabytes of
    pages, since large blocks go back to the OS when they are freed, so a
    caller making several counts over the same points (builder.euler_verify)
    keeps one labeller, and one counting on point sets of several sizes
    keeps one for the largest and counts on its views.  Labels are int32
    below 2^31 points; the index buffers are intp, the type np.take gathers
    through without a converted copy.  The labels a call returns live in
    the labeller and are overwritten by its next call."""

    def __init__(self, n: int):
        self.points = np.arange(n, dtype=_label_dtype(n))
        self.labels = np.empty_like(self.points)
        self.buf = np.empty_like(self.points)
        self.flags = np.empty(n, dtype=bool)
        self.index = np.empty(n, dtype=np.intp)

    def view(self, n: int) -> Labeller:
        """A labeller on range(n) working in the first n entries of these
        buffers, which it overwrites."""
        sub = object.__new__(Labeller)
        for name, buffer in vars(self).items():
            setattr(sub, name, buffer[:n])
        return sub

    def count(self, labels: np.ndarray) -> int:
        """Number of points labelled by themselves: one per cycle or orbit."""
        return int(np.count_nonzero(np.equal(labels, self.points, out=self.flags)))

    def cycles(self, perm: np.ndarray) -> np.ndarray:
        """The least point of each point's cycle, by min-label doubling.

        After k steps a point's label is the least of the 2^k points
        starting at it along its cycle.  The doubling stops at the first
        step that would change no label, and that is exact: while some
        cycle is longer than 2^k, the point 2^k steps before that cycle's
        least point still gains a smaller label.  So the number of steps
        follows log2 of the longest cycle, not of the number of points.
        The doubled permutations alternate between the index buffer and perm
        itself, so perm is consumed; one of another dtype than intp is
        converted first, and only its copy is."""
        labels, buf, flags = self.labels, self.buf, self.flags
        np.copyto(labels, self.points)
        nxt, target = perm.astype(np.intp, copy=False), self.index
        while True:
            np.take(labels, nxt, out=buf, mode="clip")
            if not np.less(buf, labels, out=flags).any():
                return labels
            np.minimum(labels, buf, out=labels)
            np.take(nxt, nxt, out=target, mode="clip")
            nxt, target = target, nxt

    def orbits(self, perms) -> np.ndarray:
        """The least point of each point's orbit under the group generated
        by the given permutation arrays: the cycles of the first, which is
        consumed, joined along the rest."""
        self.cycles(perms[0])
        return self.join(perms[1:])

    def join(self, perms) -> np.ndarray:
        """The labels left by this labeller's last call, coarsened to
        orbits by hooking and pointer jumping (Shiloach-Vishkin).

        The labels must be the least points of a partition finer than the
        orbits (a cycles call leaves them so); they are joined to the least
        points of the orbits of that partition together with the given
        permutation arrays.  So a caller holding the cycles of one
        generator hooks only along the others, from one label per cycle.

        Each round reads every generator's labels at once.  Where a point's
        neighbour along a generator carries the smaller label, that label
        is hooked onto the root the point's label names: np.minimum.at
        through the index buffer, a copy of the labels from the start of
        the round, so the least of several hooks wins.  Only roots, the
        points labelled by themselves at the start of the round, change in
        a round, and every label written is such a root.  So the jump
        resolves the roots' label chains among the roots alone, and one
        gather of the labels through the index buffer hands each point the
        resolved label of its root.  A round that lowers nothing ends the
        loop: the third on the 878,460-dart derived maps of the icosahedron
        at p = 11, hooking along alpha' from their 26,620 face cycles.

        At every round start each label is a root in its point's orbit and
        no larger than the point.  A hook writes the label of a neighbour,
        which is in the same orbit; it lowers a root only where that label
        is below the root, since within a round every point other than a
        root still carries the root it names.  Points that share a root
        keep sharing it, so the labels stay constant on the blocks of the
        starting partition.  In the last round label[x] <= label[perm[x]]
        for every generator, so labels are constant along each generator's
        cycles as well, and hence on each orbit; a label that is in the
        orbit, constant on it and no larger than any of its points is the
        orbit's least point."""
        labels, buf, flags, index = self.labels, self.buf, self.flags, self.index
        roots = np.flatnonzero(np.equal(labels, self.points, out=flags))
        while True:
            np.copyto(index, labels)
            hooked = False
            for perm in perms:
                np.take(labels, perm, out=buf, mode="clip")
                if np.less(buf, labels, out=flags).any():
                    hooked = True
                    np.minimum.at(labels, index, buf)
            if not hooked:
                self.labels, self.buf = labels, buf
                return labels
            chains = labels[roots]
            while True:
                jumped = labels[chains]
                if np.array_equal(jumped, chains):
                    break
                labels[roots] = chains = jumped
            np.take(labels, index, out=buf, mode="clip")
            labels, buf = buf, labels
            roots = roots[labels[roots] == roots]


def cycle_labels(perm: np.ndarray) -> np.ndarray:
    """The least point of each point's cycle (Labeller.cycles), from a copy
    of perm."""
    return Labeller(perm.shape[0]).cycles(perm.astype(np.intp))


def orbit_labels(perms) -> np.ndarray:
    """The least point of each point's orbit under the group generated by
    the given permutation arrays (Labeller.orbits), from a copy of the
    first."""
    return Labeller(perms[0].shape[0]).orbits([perms[0].astype(np.intp), *perms[1:]])


def joint_orbit_count(perm_a: np.ndarray, perm_b: np.ndarray) -> int:
    """Number of orbits of the group generated by two permutations, from a
    copy of the first."""
    labeller = Labeller(perm_a.shape[0])
    return labeller.count(labeller.orbits([perm_a.astype(np.intp), perm_b]))


def label_orbits(labels: np.ndarray) -> list[tuple[int, ...]]:
    """The points of each orbit, ascending, from least-point labels (as
    cycle_labels and orbit_labels give them), the orbits in order of their
    least point."""
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    return [tuple(orbit.tolist()) for orbit in np.split(order, bounds)]
