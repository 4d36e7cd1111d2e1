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
from .linalg import Labeller, mod, reduce_rows, rref, zeros
from .maps import DartMap

# the most darts a derived map may have for euler_verify to build it
DART_BUDGET = 10**6


@dataclass
class VoltageAssignment:
    dart_map: DartMap
    p: int
    c: int
    beta: np.ndarray  # (n_darts, c), with beta[alpha[d]] = -beta[d]
    monodromy: np.ndarray  # (F, c), image of each face's puncture class in K


def _spanning_tree_edges(dm: DartMap) -> set[int]:
    seen = {0}
    tree = set()
    queue = [0]
    for v in queue:
        for d in dm.vertex_orbits[v]:
            w = dm.vertex_of[dm.alpha[d]]
            if w not in seen:
                seen.add(w)
                tree.add(dm.edge_of[d])
                queue.append(w)
    verify(len(seen) == dm.V and len(tree) == dm.V - 1,
           f"spanning tree reaches {len(seen)} of {dm.V} vertices with {len(tree)} edges")
    return tree


def solve_voltages(module: HomologyModule, L: Subspace) -> VoltageAssignment:
    if module.branch_classes != ("faces",):
        raise ValueError("voltage construction needs faces-only branching, not "
                         + ",".join(module.branch_classes))
    if L.ambient != module.dim or L.dim >= module.dim:
        raise ValueError(f"L must be a proper submodule of Q (dimension {module.dim}); "
                         f"got dimension {L.dim} in ambient {L.ambient}")
    group = module.group
    dm = group.map
    p = module.p
    c = module.dim - L.dim

    tree = _spanning_tree_edges(dm)
    cotree = [e for e in range(dm.E) if e not in tree]
    verify(len(cotree) == dm.F - 1, f"{len(cotree)} cotree edges on a sphere with {dm.F} faces, not F - 1")

    # face f's equation sums the edge values along its boundary, each dart
    # d the value of its edge with sign +1 where d is the edge's first dart
    faces = np.array(dm.face_orbits)
    edge_of = np.array(dm.edge_of)
    sign = np.where(np.array(dm.edge_dart)[edge_of] == np.arange(dm.n_darts), 1, -1)
    rows = zeros((dm.F, dm.E), p)
    np.add.at(rows, (np.arange(dm.F)[:, None], edge_of[faces]), sign[faces])
    # the right-hand sides: each face's puncture class in K = Q/L, its
    # residue against L on the non-pivot coordinates
    free = [j for j in range(module.dim) if j not in L.pivots]
    rhs = reduce_rows(L.basis, L.pivots, module.projection, p)[:, free]

    # the sphere makes the F-1 retained equations independent; the dropped
    # one is forced because the monodromies sum to zero
    reduced, pivots = rref(np.concatenate([rows[:, cotree], rhs], axis=1), p)
    verify(pivots == list(range(len(cotree))), "voltage system must be uniquely solvable")

    beta = zeros((dm.n_darts, c), p)
    reps = np.array(dm.edge_dart)[cotree]
    beta[reps] = reduced[:, len(cotree):]
    beta[np.array(dm.alpha)[reps]] = mod(-beta[reps], p)
    verify(np.array_equal(mod(beta[faces].sum(axis=1), p), rhs),
           "the voltages around a face miss its monodromy")

    return VoltageAssignment(dart_map=dm, p=p, c=c, beta=beta, monodromy=rhs)


def derived_permutations(va: VoltageAssignment):
    """sigma' and alpha' on the darts (d, k), indexed d * |K| + index(k).

    index(k + beta(d)) is a sum of one term per digit, ((k_j + beta_j(d))
    mod p) * p^j, so alpha' is one broadcast sum of c per-digit tables of
    shape (darts, p), with alpha(d) * |K| folded into the first; each sum
    but the last builds an array 1/p the size of the next.  sigma' keeps
    k and is one broadcast sum of sigma(d) * |K| and index(k)."""
    dm = va.dart_map
    p, c = va.p, va.c
    size = p**c
    n = dm.n_darts
    sigma = np.asarray(dm.sigma, dtype=np.intp)
    alpha = np.asarray(dm.alpha, dtype=np.intp)
    beta = np.asarray(va.beta, dtype=np.intp)
    digits = np.arange(p, dtype=np.intp)

    sigma_big = (sigma[:, None] * size + np.arange(size, dtype=np.intp)).ravel()
    # the most significant digit first, so the last axis is digit 0 and the
    # C-order ravel is the index of k
    alpha_big = alpha * size
    for j in reversed(range(c)):
        table = (digits + beta[:, j, None]) % p * p**j
        alpha_big = alpha_big[..., None] + table.reshape((n,) + (1,) * (c - 1 - j) + (p,))
    return sigma_big, alpha_big.ravel()


def euler_verify(va: VoltageAssignment):
    """(V', E', F', genus) of the derived map, with the covering counts and
    branching orders verified along the way.

    Every count runs on the full derived map.  Vertices, edges and faces are
    the cycles of sigma', alpha' and phi', counted as the darts that are
    their cycle's least point (linalg.Labeller.cycles, whose early stop is
    exact); a bincount of the face labels gives each face's length at its
    least dart.  Connectivity is one orbit of <sigma', alpha'>, which is
    <phi', alpha'> since sigma' = phi' alpha'^-1: the face labels are joined
    along alpha' alone (linalg.Labeller.join), so the hooking starts from
    one label per face instead of one per dart.  One labeller serves all
    four counts, and each permutation is consumed as a doubling buffer once
    nothing else reads it."""
    dm = va.dart_map
    p, c = va.p, va.c
    size = p**c
    total = dm.n_darts * size
    if total > DART_BUDGET:
        raise ValueError(f"derived map needs {total} darts, budget {DART_BUDGET}")

    sigma_big, alpha_big = derived_permutations(va)
    labeller = Labeller(total)

    # phi' is spent as a doubling buffer and dropped before the bincount,
    # which reads the face labels from the labeller's intp index buffer; the
    # labels themselves stay in the labeller for the join
    phi_big = sigma_big[alpha_big]
    faces = labeller.index
    np.copyto(faces, labeller.cycles(phi_big))
    del phi_big
    lengths = np.bincount(faces)
    lengths = lengths[lengths > 0]
    f_count = int(lengths.size)
    orbit_count = labeller.count(labeller.join([alpha_big]))
    v_count = labeller.count(labeller.cycles(sigma_big))
    e_count = labeller.count(labeller.cycles(alpha_big))

    verify(v_count == dm.V * size, f"derived map has {v_count} vertices, not {dm.V * size}")
    verify(e_count == dm.E * size, f"derived map has {e_count} edges, not {dm.E * size}")
    verify(f_count * p == dm.F * size, "face fibres must merge in groups of p")
    verify(bool((lengths == dm.n * p).all()), "every derived face has length n*p")
    verify(orbit_count == 1, "derived map must be connected")

    euler = v_count - e_count + f_count
    verify(euler % 2 == 0 and euler <= 2, f"derived map has Euler characteristic {euler}")
    return v_count, e_count, f_count, (2 - euler) // 2
