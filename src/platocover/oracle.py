"""Exhaustive submodule enumeration for small modules.

Every invariant subspace is the sum of the cyclic submodules it contains, so
building the cyclic submodule of every vector and closing under pairwise sums
finds them all.  The cyclic submodule is constant on orbits under the group
action and under scalars, which cuts the p^dim vector sweep down to one per
orbit; orbits are labelled by their least vector (linalg.orbit_labels).  Each
cyclic submodule is the row space of the vector's images under every group
matrix, so this check shares no code with the decomposition it tests.  Cost
still grows like p^dim, hence the budget guard; this cross-checks the
structured enumeration on small cases rather than replacing it.
"""

from __future__ import annotations

import numpy as np

from .errors import verify
from .gf import primitive_root
from .homology import HomologyModule, Subspace
from .linalg import orbit_labels

_CHUNK = 1 << 18


def _all_digits(size: int, dim: int, p: int) -> np.ndarray:
    digits = np.empty((size, dim), dtype=np.int8)
    tmp = np.arange(size, dtype=np.int64)
    for j in range(dim):
        digits[:, j] = tmp % p
        tmp //= p
    return digits


def _linear_permutation(digits: np.ndarray, matrix: np.ndarray, p: int) -> np.ndarray:
    powers = np.array([p**j for j in range(matrix.shape[0])], dtype=np.int64)
    mat = (np.asarray(matrix, dtype=np.int64) % p).astype(np.int32)
    out = np.empty(digits.shape[0], dtype=np.int64)
    for start in range(0, digits.shape[0], _CHUNK):
        block = digits[start : start + _CHUNK].astype(np.int32)
        out[start : start + _CHUNK] = ((block @ mat) % p).astype(np.int64) @ powers
    return out


def cyclic_submodules(module: HomologyModule, budget: int = 10**7):
    """One vector per nonzero orbit of F_p^dim under the group and the
    scalars, least index first, and the cyclic submodule of each.

    The cyclic submodule of v is the row space of {v A_g : g in G}: the span
    of an orbit is invariant, and every invariant subspace containing v
    contains it.  The images of each vector come from one einsum over the
    stacked group matrices, and each submodule is one row reduction."""
    p, dim = module.p, module.dim
    size = p**dim
    if size > budget and dim > 5:
        raise ValueError(f"brute force over {p}^{dim} vectors exceeds budget {budget}")

    group = module.group
    digits = _all_digits(size, dim, p)
    scalar = np.eye(dim, dtype=np.int64) * primitive_root(p)
    gens = [module.matrices[group.gen_x], module.matrices[group.gen_z]]
    perms = [_linear_permutation(digits, m, p) for m in (*gens, scalar)]
    labels = orbit_labels(perms)
    reps = np.flatnonzero(labels == np.arange(size))[1:]  # the zero vector is its own orbit

    vectors = digits[reps].astype(np.int64)
    stacked = np.stack(module.matrices)
    return vectors, [Subspace(np.einsum("j,gjk->gk", v, stacked), p, dim) for v in vectors]


def brute_force_submodules(module: HomologyModule, budget: int = 10**7) -> list[Subspace]:
    p, dim = module.p, module.dim
    found: dict[tuple, Subspace] = {}
    zero = Subspace.zero(p, dim)
    found[zero.key()] = zero
    for space in cyclic_submodules(module, budget)[1]:
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
    verify(all(module.invariant_under_group(s) for s in out),
           "a brute-force submodule is not invariant")
    return out
