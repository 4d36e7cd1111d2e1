"""Exact linear algebra over prime fields.

Matrices are numpy arrays with entries reduced into [0, p).  Vectors are rows
throughout the package.  For moduli small enough that every intermediate
product fits in int64 the fast integer dtype is used; otherwise arrays fall
back to dtype=object (arbitrary-precision Python ints), so results are exact
for any modulus.
"""

from __future__ import annotations

import numpy as np

# A matrix product with inner dimension k needs k*(p-1)^2 < 2^63 to stay
# exact in int64.  Nothing in this package multiplies matrices with inner
# dimension anywhere near _DIM_CAP, so the single per-modulus check below
# covers every operation.
_DIM_CAP = 4096
_INT64_CAP = 2**62


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
    assert width is None or a.shape[1] == width
    return a % p


def zeros(shape, p: int) -> np.ndarray:
    return np.zeros(shape, dtype=dtype_for(p))


def identity(n: int, p: int) -> np.ndarray:
    m = zeros((n, n), p)
    for i in range(n):
        m[i, i] = 1 % p
    return m


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.dot(a, b) % p


def rref(mat, p: int):
    """Reduced row echelon form over F_p.

    Returns (r, pivots) with zero rows dropped, each pivot normalized to 1
    and its column cleared everywhere else.  The result is the canonical
    representative of the row space.
    """
    a = np.array(mat, dtype=dtype_for(p)) % p
    if a.ndim == 1:
        a = a.reshape(1, -1)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if a[i, c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            a[nz] = (a[nz] - np.outer(col[nz], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def reduce_rows(basis: np.ndarray, pivots, mat, p: int) -> np.ndarray:
    """Residue of each row of mat after elimination against an RREF basis."""
    m = np.array(mat, dtype=dtype_for(p)) % p
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if basis.shape[0] == 0:
        return m
    coeff = m[:, list(pivots)]
    return (m - np.dot(coeff, basis)) % p


def left_kernel(mat, p: int) -> np.ndarray:
    """RREF basis of {v : v @ mat == 0}."""
    a = np.array(mat, dtype=dtype_for(p)) % p
    nrows = a.shape[0]
    r, pivots = rref(a.T, p)
    free = [j for j in range(nrows) if j not in pivots]
    if not free:
        return zeros((0, nrows), p)
    out = zeros((len(free), nrows), p)
    for k, j in enumerate(free):
        out[k, j] = 1
        for i, c in enumerate(pivots):
            out[k, c] = (-int(r[i, j])) % p
    basis, _ = rref(out, p)
    return basis


def inverse(mat: np.ndarray, p: int) -> np.ndarray:
    n = mat.shape[0]
    aug = np.concatenate([mat % p, identity(n, p)], axis=1)
    r, pivots = rref(aug, p)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular mod %d" % p)
    return r[:, n:]


def cycle_labels(perm: np.ndarray) -> np.ndarray:
    """The least point of each point's cycle, by min-label doubling.

    After k steps a point's label is the least of the 2^k points starting at
    it along its cycle.  The doubling stops at the first step that would
    change no label, and that is exact: while some cycle is longer than 2^k,
    the point 2^k steps before that cycle's least point still gains a smaller
    label.  So the number of steps follows log2 of the longest cycle, not of
    the number of points.  Buffers are made once, here and in
    orbit_labels: on a million darts, fresh arrays per step re-fault
    megabytes of pages each time."""
    labels = np.arange(perm.shape[0], dtype=np.int64)
    nxt = perm.astype(np.int64)
    buf = np.empty_like(nxt)
    smaller = np.empty(perm.shape[0], dtype=bool)
    while True:
        np.take(labels, nxt, out=buf, mode="clip")
        if not np.less(buf, labels, out=smaller).any():
            return labels
        np.minimum(labels, buf, out=labels)
        nxt, buf = np.take(nxt, nxt, out=buf, mode="clip"), nxt


def _least_point_count(labels: np.ndarray) -> int:
    """Number of points labelled by themselves: one per cycle or orbit."""
    return int(np.count_nonzero(labels == np.arange(labels.shape[0])))


def permutation_orbit_count(perm: np.ndarray) -> int:
    """Number of cycles of a permutation array."""
    return _least_point_count(cycle_labels(perm))


def orbit_labels(perms) -> np.ndarray:
    """The least point of each point's orbit under the group generated by
    the given permutation arrays.

    Each round propagates the least label along every generator, then jumps
    each label to its own label (labels = labels[labels]), so a small label
    also travels along chains of labels and the number of rounds stops
    growing with the diameter of the orbit graph (10-15 rounds on the
    878,460-dart derived maps of the icosahedron at p = 11).  Both moves
    keep a point's label in its orbit and no larger than the point.  At the
    fixed point label[x] <= label[perm[x]] for every generator, so labels
    are constant along each generator's cycles and hence on each orbit; a
    label that is in the orbit, constant on it and no larger than any of its
    points is the orbit's least point."""
    labels = np.arange(perms[0].shape[0], dtype=np.int64)
    previous = np.empty_like(labels)
    buf = np.empty_like(labels)
    while True:
        previous[:] = labels
        for perm in perms:
            np.minimum(labels, np.take(labels, perm, out=buf, mode="clip"), out=labels)
        labels, buf = np.take(labels, labels, out=buf, mode="clip"), labels
        if np.array_equal(labels, previous):
            return labels


def joint_orbit_count(perm_a: np.ndarray, perm_b: np.ndarray) -> int:
    """Number of orbits of the group generated by two permutations."""
    return _least_point_count(orbit_labels([perm_a, perm_b]))
