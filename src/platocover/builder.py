"""Derived covering maps from voltage assignments.

For a face-branched covering given by a submodule L, darts of the base map
are labeled with vectors in K = Q/L so that each face boundary sums to the
face's monodromy image.  The derived map on darts (d, k) then realizes the
covering combinatorially, and its Euler characteristic recomputes the genus
independently of the Riemann-Hurwitz bookkeeping in the census.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import verify
from .homology import HomologyModule, Subspace
from .linalg import cycle_labels, joint_orbit_count, permutation_orbit_count, reduce_rows, rref, zeros
from .maps import DartMap


@dataclass
class VoltageAssignment:
    dart_map: DartMap
    p: int
    c: int
    beta: np.ndarray  # (n_darts, c), with beta[alpha[d]] = -beta[d]
    monodromy: np.ndarray  # (F, c), image of each face's puncture class in K


def _k_projection(module: HomologyModule, L: Subspace):
    """Coordinates on K = Q/L: residue against L's echelon basis, restricted
    to the non-pivot positions."""
    free = [j for j in range(module.dim) if j not in L.pivots]

    def project(vec) -> np.ndarray:
        residue = reduce_rows(L.basis, L.pivots, vec, module.p)
        return residue[0, free]

    return free, project


def _darts_at_vertex(dm: DartMap, v: int) -> list[int]:
    start = dm.vertex_dart[v]
    out = [start]
    d = dm.sigma[start]
    while d != start:
        out.append(d)
        d = dm.sigma[d]
    return out


def _spanning_tree_edges(dm: DartMap) -> set[int]:
    seen = {0}
    tree = set()
    queue = [0]
    while queue:
        v = queue.pop(0)
        for d in _darts_at_vertex(dm, v):
            w = dm.vertex_of[dm.alpha[d]]
            if w not in seen:
                seen.add(w)
                tree.add(dm.edge_of[d])
                queue.append(w)
    assert len(seen) == dm.V and len(tree) == dm.V - 1
    return tree


def _face_boundary(dm: DartMap, f: int) -> list[int]:
    start = dm.face_dart[f]
    out = [start]
    d = dm.phi(start)
    while d != start:
        out.append(d)
        d = dm.phi(d)
    return out


def solve_voltages(module: HomologyModule, L: Subspace) -> VoltageAssignment:
    assert module.branch_classes == ("faces",), "voltage construction is face-branched"
    assert L.dim < module.dim
    group = module.group
    dm = group.map
    p = module.p
    c = module.dim - L.dim
    free, project = _k_projection(module, L)

    tree = _spanning_tree_edges(dm)
    cotree = [e for e in range(dm.E) if e not in tree]
    assert len(cotree) == dm.F - 1

    unknown_of = {e: i for i, e in enumerate(cotree)}
    rows = zeros((dm.F, len(cotree)), p)
    rhs = zeros((dm.F, c), p)
    for f in range(dm.F):
        rhs[f] = project(module.puncture_class(f))
        for d in _face_boundary(dm, f):
            e = dm.edge_of[d]
            if e not in unknown_of:
                continue
            sign = 1 if d == dm.edge_dart[e] else -1
            rows[f, unknown_of[e]] = (rows[f, unknown_of[e]] + sign) % p

    # the sphere makes the F-1 retained equations independent; the dropped
    # one is forced because the monodromies sum to zero
    aug = np.concatenate([rows, rhs], axis=1)
    reduced, pivots = rref(aug, p)
    verify(pivots == list(range(len(cotree))), "voltage system must be uniquely solvable")
    solution = reduced[:, len(cotree):]

    beta = zeros((dm.n_darts, c), p)
    for e, i in unknown_of.items():
        rep = dm.edge_dart[e]
        beta[rep] = solution[i]
        beta[dm.alpha[rep]] = (-solution[i]) % p

    for f in range(dm.F):
        total = zeros((c,), p)
        for d in _face_boundary(dm, f):
            total = (total + beta[d]) % p
        verify(total.tolist() == rhs[f].tolist(), f"voltages around face {f} miss its monodromy")

    return VoltageAssignment(dart_map=dm, p=p, c=c, beta=beta, monodromy=rhs)


def k_encoding(p: int, c: int):
    """Row i of the returned table is the vector whose digit expansion against
    powers = (1, p, ..., p^(c-1)) equals i."""
    powers = p ** np.arange(c, dtype=np.int64)
    k_vectors = np.arange(p**c, dtype=np.int64)[:, None] // powers % p
    return k_vectors, powers


def derived_permutations(va: VoltageAssignment):
    """sigma' and alpha' on the darts (d, k), indexed d * |K| + index(k)."""
    dm = va.dart_map
    p, c = va.p, va.c
    size = p**c
    k_vectors, powers = k_encoding(p, c)

    sigma = np.asarray(dm.sigma, dtype=np.int64)
    alpha = np.asarray(dm.alpha, dtype=np.int64)
    ks = np.arange(size, dtype=np.int64)

    sigma_big = (sigma[:, None] * size + ks[None, :]).ravel()
    beta = np.asarray(va.beta, dtype=np.int64)
    # the index of k + beta(d), one coordinate at a time, so that only
    # (darts, p^c) arrays are ever built
    shifted = np.zeros((len(alpha), size), dtype=np.int64)
    for j in range(c):
        digit = k_vectors[None, :, j] + beta[:, j, None]
        digit %= p
        digit *= powers[j]
        shifted += digit
    alpha_big = (alpha[:, None] * size + shifted).ravel()
    return sigma_big, alpha_big


def euler_verify(va: VoltageAssignment, budget: int = 10**6):
    """(V', E', F', genus) of the derived map, with the covering counts and
    branching orders verified along the way.

    Every count runs on the full derived map.  Vertices, edges and faces are
    the cycles of sigma', alpha' and phi', counted as the darts that are
    their cycle's least point (linalg.cycle_labels, whose early stop is
    exact); a bincount of the face labels gives each face's length at its
    least dart.  Connectivity is one orbit of <sigma', alpha'>."""
    dm = va.dart_map
    p, c = va.p, va.c
    size = p**c
    total = dm.n_darts * size
    if total > budget:
        raise ValueError(f"derived map needs {total} darts, budget {budget}")

    sigma_big, alpha_big = derived_permutations(va)
    phi_big = sigma_big[alpha_big]

    v_count = permutation_orbit_count(sigma_big)
    e_count = permutation_orbit_count(alpha_big)
    lengths = np.bincount(cycle_labels(phi_big))
    lengths = lengths[lengths > 0]
    f_count = int(lengths.size)

    verify(v_count == dm.V * size, f"derived map has {v_count} vertices, not {dm.V * size}")
    verify(e_count == dm.E * size, f"derived map has {e_count} edges, not {dm.E * size}")
    verify(f_count * p == dm.F * size, "face fibres must merge in groups of p")
    verify(bool((lengths == dm.n * p).all()), "every derived face has length n*p")
    verify(joint_orbit_count(sigma_big, alpha_big) == 1, "derived map must be connected")

    euler = v_count - e_count + f_count
    verify(euler % 2 == 0 and euler <= 2, f"derived map has Euler characteristic {euler}")
    return v_count, e_count, f_count, (2 - euler) // 2
