"""Exhaustive submodule enumeration for small modules.

Every invariant subspace is the sum of the cyclic submodules it contains, so
building the cyclic submodule of every vector and closing under pairwise sums
finds them all.  The cyclic submodule is constant on orbits under the group
action and under scalars, which cuts the p^dim vector sweep down to one per
orbit; orbits are labelled by their least vector (linalg.Labeller).  Each
cyclic submodule is the row space of the vector's images under every group
matrix, so this check shares no code with the decomposition it tests.  Cost
still grows like p^dim, hence the budget guard; this cross-checks the
structured enumeration on small cases rather than replacing it.
"""

from __future__ import annotations

import numpy as np

from .errors import verify
from .gf import ExtField
from .homology import HomologyModule, Subspace
from .linalg import Labeller, echelon, eliminate, mat_mul

_CHUNK = 1 << 18
# the most vectors the sweep takes on.  Its tracemalloc peak is 55 bytes per
# vector on tetrahedron faces at p = 131 (dim 3) and 82 on hosohedron:7
# edges,faces at p = 3 (dim 13): the digit rows, three int64 permutations and
# the labeller's buffers, then the orbit labels next to the cyclic submodules,
# so under 1 GiB at the budget
VECTOR_BUDGET = 10**7


def _all_digits(size: int, dim: int, p: int) -> np.ndarray:
    """Row i holds the base-p digits of i, least significant first, in the
    smallest unsigned type that holds p - 1."""
    digits = np.empty((size, dim), dtype=np.min_scalar_type(p - 1))
    tmp = np.arange(size, dtype=np.int64)
    for j in range(dim):
        digits[:, j] = tmp % p
        tmp //= p
    return digits


def _linear_permutation(digits: np.ndarray, matrix: np.ndarray, p: int) -> np.ndarray:
    """The index of v @ matrix for the vector v of each digit row."""
    powers = np.array([p**j for j in range(matrix.shape[0])], dtype=np.int64)
    mat = np.asarray(matrix, dtype=np.int64)
    out = np.empty(digits.shape[0], dtype=np.int64)
    for start in range(0, digits.shape[0], _CHUNK):
        block = digits[start : start + _CHUNK].astype(np.int64)
        out[start : start + _CHUNK] = mat_mul(block, mat, p) @ powers
    return out


def cyclic_submodules(module: HomologyModule):
    """One vector per nonzero orbit of F_p^dim under the group and the
    scalars, least index first, and the cyclic submodule of each.

    The cyclic submodule of v is the row space of {v A_g : g in G}: the span
    of an orbit is invariant, and every invariant subspace containing v
    contains it.  The images come in chunks of at most _CHUNK entries, each
    one product with the group matrices side by side, row reduced as one
    stack.  The orbit labelling consumes the sweep's own permutations."""
    p, dim = module.p, module.dim
    size = p**dim
    if size > VECTOR_BUDGET:
        raise ValueError(f"brute force over {p}^{dim} vectors exceeds the budget of {VECTOR_BUDGET}")

    group = module.group
    digits = _all_digits(size, dim, p)
    scalar = np.eye(dim, dtype=np.int64) * ExtField(p, 1).primitive_element()[0]
    gens = [module.matrices[group.gen_x], module.matrices[group.gen_z]]
    perms = [_linear_permutation(digits, m, p) for m in (*gens, scalar)]
    labels = Labeller(size).orbits(perms)
    del perms  # spent: the first was the doubling buffer, and nothing reads the rest
    reps = np.flatnonzero(labels == np.arange(size))[1:]  # the zero vector is its own orbit

    vectors = digits[reps].astype(np.int64)
    spaces = []
    order = len(module.matrices)
    side_by_side = module.matrices.transpose(1, 0, 2).reshape(dim, order * dim)
    per_chunk = max(1, _CHUNK // (order * dim))
    for start in range(0, len(vectors), per_chunk):
        images = mat_mul(vectors[start : start + per_chunk], side_by_side, p).reshape(-1, order, dim)
        reduced = map(echelon, images, eliminate(images, p))
        spaces += [Subspace(basis, p, dim, _pivots=pivots) for basis, pivots in reduced]
    return vectors, spaces


def brute_force_submodules(module: HomologyModule) -> list[Subspace]:
    p, dim = module.p, module.dim
    found: dict[tuple, Subspace] = {}
    zero = Subspace.zero(p, dim)
    found[zero.key()] = zero
    for space in cyclic_submodules(module)[1]:
        found.setdefault(space.key(), space)

    # close under sums
    frontier = list(found.values())
    while frontier:
        fresh = []
        current = list(found.values())
        for a in frontier:
            for b in current:
                s = a.add(b)
                if s.key() not in found:
                    found[s.key()] = s
                    fresh.append(s)
        frontier = fresh

    out = sorted(found.values(), key=lambda s: (s.dim, s.key()))
    verify(all(module.invariant_under_group(s.basis, s.pivots) for s in out),
           "a brute-force submodule is not invariant")
    return out
