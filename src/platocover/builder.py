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


def _lift(base, voltages, p: int, c: int, out=None) -> np.ndarray:
    """The derived permutation (d, k) -> (base(d), k + voltages(d)) on the
    darts d * |K| + index(k), written into out (a new intp array if None);
    voltages None keeps k.

    index(k + v(d)) is a sum of one term per digit, ((k_j + v_j(d)) mod p)
    * p^j, so the lift is a broadcast sum of c per-digit (darts, p) tables,
    base(d) * |K| folded into the first.  The high and the low half of the
    digits are summed into two tables of about sqrt |K| columns each, most
    significant digit first, and their one broadcast sum fills out."""
    n = len(base)
    if out is None:
        out = np.empty(n * p**c, dtype=np.intp)
    digits = np.arange(p, dtype=np.intp)

    def digit_sum(total, js):
        for j in js:
            term = digits if voltages is None else (digits + voltages[:, j, None]) % p
            total = (total[:, :, None] + (term * p**j).reshape(-1, 1, p)).reshape(n, -1)
        return total

    low = c // 2
    high_sum = digit_sum(np.asarray(base, dtype=np.intp)[:, None] * p**c, reversed(range(low, c)))
    low_sum = digit_sum(np.zeros((n, 1), dtype=np.intp), reversed(range(low)))
    np.add(high_sum[:, :, None], low_sum[:, None, :], out=out.reshape(n, p**(c - low), p**low))
    return out


def derived_permutations(va: VoltageAssignment):
    """sigma' and alpha' on the darts (d, k), indexed d * |K| + index(k):
    sigma lifted with k kept, alpha lifted by the voltages."""
    dm = va.dart_map
    return _lift(dm.sigma, None, va.p, va.c), _lift(dm.alpha, va.beta, va.p, va.c)


def euler_buffers(darts: int):
    """A labeller and an intp permutation buffer on range(darts), for
    euler_verify calls on derived maps of at most that many darts."""
    return Labeller(darts), np.empty(darts, dtype=np.intp)


def euler_verify(va: VoltageAssignment, work=None):
    """(V', E', F', genus) of the derived map, with the covering counts and
    branching orders verified along the way.

    Every count runs on the full derived map.  Vertices, edges and faces are
    the cycles of sigma', alpha' and phi', counted as the darts that are
    their cycle's least point (linalg.Labeller.cycles, whose early stop is
    exact).  Connectivity is one orbit of <sigma', alpha'>, which is
    <phi', alpha'> since sigma' = phi' alpha'^-1: the face labels are joined
    along alpha' alone (linalg.Labeller.join), so the hooking starts from
    one label per face instead of one per dart.

    The counts run in phases through one labeller and one permutation
    buffer, so one derived permutation is alive at a time.  phi' = sigma'
    alpha' is alpha's voltages lifted onto sigma alpha, as sigma' carries
    none; its cycles consume it, and the spent buffer counts each face's
    length at its least dart.  Then alpha' is lifted into the buffer,
    joined along and consumed by its cycles, and last sigma'.  work, from
    euler_buffers, lends its first darts to the call, so a census makes the
    buffers once for its largest covering; without it the call makes its
    own."""
    dm = va.dart_map
    p, c = va.p, va.c
    size = p**c
    total = dm.n_darts * size
    if total > DART_BUDGET:
        raise ValueError(f"derived map needs {total} darts, budget {DART_BUDGET}")
    labeller, perm = work or euler_buffers(total)
    if perm.size < total:
        raise ValueError(f"derived map needs {total} darts, buffers hold {perm.size}")
    labeller, perm = labeller.view(total), perm[:total]

    phi = np.asarray(dm.sigma)[np.asarray(dm.alpha)]
    faces = labeller.cycles(_lift(phi, va.beta, p, c, out=perm))
    f_count = labeller.count(faces)
    perm.fill(0)
    np.add.at(perm, faces, 1)
    lengths_ok = bool((perm[labeller.flags] == dm.n * p).all())
    orbit_count = labeller.count(labeller.join([_lift(dm.alpha, va.beta, p, c, out=perm)]))
    e_count = labeller.count(labeller.cycles(perm))
    v_count = labeller.count(labeller.cycles(_lift(dm.sigma, None, p, c, out=perm)))

    verify(v_count == dm.V * size, f"derived map has {v_count} vertices, not {dm.V * size}")
    verify(e_count == dm.E * size, f"derived map has {e_count} edges, not {dm.E * size}")
    verify(f_count * p == dm.F * size, "face fibres must merge in groups of p")
    verify(lengths_ok, "every derived face has length n*p")
    verify(orbit_count == 1, "derived map must be connected")

    euler = v_count - e_count + f_count
    verify(euler % 2 == 0 and euler <= 2, f"derived map has Euler characteristic {euler}")
    return v_count, e_count, f_count, (2 - euler) // 2
