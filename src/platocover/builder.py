"""Derived covering maps from voltage assignments.

For a face-branched covering given by a submodule L, darts of the base map
are labeled with vectors in K = Q/L so that each face boundary sums to the
face's monodromy image.  The derived map on darts (d, k) then realizes the
covering combinatorially, and its Euler characteristic recomputes the genus
independently of the Riemann-Hurwitz bookkeeping in the census.

The derived dart (d, k) is d * |K| + index(k), so the fibre over a base
dart d is the block of |K| darts from d * |K|.  Every derived permutation
is one _lift of a base permutation: sigma' is sigma with k kept, alpha' is
alpha lifted by the voltages, and phi' = sigma' alpha' is sigma alpha lifted
by them, since sigma' carries none.  A lift covers its base permutation: it
sends the fibre over d onto the fibre over base(d) (Gross-Tucker, ch. 2).
So each of its cycles runs through the fibres over one base cycle
d0 -> ... -> d_(l-1), back in the fibre over d0 every l steps, where its
points form one cycle of the first-return map R of that fibre.  The cycles
are counted as R's, by walking only the points over the base cycles' least
darts once round their base cycle; with d0 the least dart of its base
cycle, each derived cycle's least point lies over d0 and is the least point
of its R-cycle.  The R labels, scattered back over the walks, label every
derived face, and connectivity, one orbit of <sigma', alpha'> = <phi',
alpha'>, joins those face labels along alpha' alone (linalg.Labeller.join).

The counts share one linalg.Labeller and one intp permutation buffer, from
euler_buffers, which a census makes once for its largest covering and lends
to every euler_verify call; the walks fill the labeller's index buffer, R
takes the spent permutation buffer, and no other array of N entries is made.
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

    # face f's equation sums the edge values along its boundary, each dart
    # d the value of its edge with sign +1 where d is the edge's first dart
    faces, edge_of = dm.face_orbits, dm.edge_of
    sign = np.where(dm.edge_dart[edge_of] == np.arange(dm.n_darts), 1, -1)
    rows = zeros((len(faces), dm.E), p)
    np.add.at(rows, (np.arange(len(faces))[:, None], edge_of[faces]), sign[faces])
    # the right-hand sides: each face's puncture class in K = Q/L, its
    # residue against L on the non-pivot coordinates
    free = [j for j in range(module.dim) if j not in L.pivots]
    rhs = reduce_rows(L.basis, L.pivots, module.projection, p)[:, free]

    # on the sphere the face rows have rank F - 1, their one relation being
    # that they sum to 0, as the monodromies do; the non-pivot edges, a
    # spanning tree, carry 0, and any solution serves, since two differ by a
    # coboundary and give isomorphic derived maps (Gross-Tucker, ch. 2)
    reduced, pivots = rref(np.concatenate([rows, rhs], axis=1), p)
    verify(not pivots or pivots[-1] < dm.E, "the face system has a pivot among its right-hand sides")
    verify(len(pivots) == dm.F - 1, f"the face system has rank {len(pivots)}, not F - 1 = {dm.F - 1}")

    values = zeros((dm.E, c), p)
    values[pivots] = reduced[:, dm.E:]
    beta = mod(sign[:, None] * values[edge_of], p)
    verify(np.array_equal(mod(beta[faces].sum(axis=1), p), rhs),
           "the voltages around a face miss its monodromy")

    return VoltageAssignment(dart_map=dm, p=p, c=c, beta=beta)


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
    high_sum = digit_sum(base[:, None] * p**c, reversed(range(low, c)))
    low_sum = digit_sum(np.zeros((n, 1), dtype=np.intp), reversed(range(low)))
    np.add(high_sum[:, :, None], low_sum[:, None, :], out=out.reshape(n, p**(c - low), p**low))
    return out


def euler_buffers(darts: int):
    """A labeller and an intp permutation buffer on range(darts), for
    euler_verify calls on derived maps of at most that many darts."""
    return Labeller(darts), np.empty(darts, dtype=np.intp)


def _fibre_cycles(perm, base, starts, size: int, labeller, label: bool = False):
    """(count, lengths): the number of cycles of the derived permutation
    perm, which lifts the base permutation base, and with label the
    (shortest, longest) cycle length, each cycle's least point then left
    on every one of its darts in labeller.labels (lengths is None without
    label).  perm is consumed.

    starts holds the least dart of every base cycle, all of one length
    l = len(base) / len(starts) >= 2, as build_map verifies.  The M = N / l
    points over starts are walked l steps along perm, step t into chunk t of
    labeller.index, each chunk verified to lie in the fibres over the base
    walk's darts.  The last chunk, back over starts, is the first-return map
    R; it is moved into perm[:M] on R's own points j * |K| + k, standing for
    starts[j] * |K| + k, and verified to be onto.  As every fibre holds |K|
    darts, that holds exactly when perm is a bijection, and then the chunks
    hold every derived dart once.  R's cycles are labelled on a view of the
    labeller with perm[M:2M] as its index buffer."""
    cycles = len(starts)
    steps = len(base) // cycles
    m = cycles * size
    walks = labeller.index.reshape(steps, cycles, size)
    darts = starts
    np.take(perm.reshape(-1, size), darts, axis=0, out=walks[0], mode="clip")
    for t in range(steps):
        if t:
            np.take(perm, walks[t - 1], out=walks[t], mode="clip")
        darts = base[darts]
        low = darts * size
        verify(bool((walks[t].min(axis=1) >= low).all() and (walks[t].max(axis=1) < low + size).all()),
               "the derived permutation leaves the fibres over its base cycle")

    # the walks close over starts, and R's point j * |K| + k stands for the
    # dart starts[j] * |K| + k
    shift = (darts - np.arange(cycles)) * size
    ret = labeller.view(m)
    ret.index = perm[m:2 * m]  # labeller.index still holds the walks
    np.subtract(walks[-1], shift[:, None], out=perm[:m].reshape(cycles, size))
    ret.flags.fill(False)
    ret.flags[perm[:m]] = True
    verify(bool(ret.flags.all()), "some derived dart lies on no walk from the fibres over the least darts")
    labels = ret.cycles(perm[:m])
    count = ret.count(labels)
    if not label:
        return count, None

    # each R-cycle's length at its least point, the roots ret.flags marks;
    # a scalar of buf's own dtype keeps np.add.at on its fast path (a
    # Python int took 17 ms against 0.6 ms on 292,820 int32 points)
    ret.buf.fill(0)
    np.add.at(ret.buf, labels, ret.buf.dtype.type(steps))
    lengths = int(ret.buf.min(where=ret.flags, initial=len(perm))), int(ret.buf.max())
    np.add(labels.reshape(cycles, size), shift[:, None], out=ret.buf.reshape(cycles, size))
    for walk in walks:
        np.put(labeller.labels, walk, ret.buf)
    return count, lengths


def _derived_counts(va: VoltageAssignment, labeller, perm):
    """(V', E', F', (shortest, longest) face, orbits of <sigma', alpha'>) of
    the derived map, counted in a labeller and an intp permutation buffer on
    exactly its N darts."""
    dm = va.dart_map
    p, c = va.p, va.c
    size = p**c
    phi = dm.sigma[dm.alpha]
    faces, lengths = _fibre_cycles(_lift(phi, va.beta, p, c, out=perm), phi, dm.face_dart, size,
                                   labeller, label=True)
    orbits = labeller.count(labeller.join([_lift(dm.alpha, va.beta, p, c, out=perm)]))
    edges, _ = _fibre_cycles(perm, dm.alpha, dm.edge_dart, size, labeller)
    vertices, _ = _fibre_cycles(_lift(dm.sigma, None, p, c, out=perm), dm.sigma, dm.vertex_dart, size,
                                labeller)
    return vertices, edges, faces, lengths, orbits


def euler_verify(va: VoltageAssignment, work=None):
    """(V', E', F', genus) of the derived map, with the covering counts and
    branching orders verified along the way.

    Every count runs on the full derived map, in phases through one
    labeller and one permutation buffer, so one derived permutation is
    alive at a time.  phi' is lifted, and its face cycles are counted by
    first return to the fibres over the base faces' least darts (see the
    module docstring), which also checks that phi' covers phi dart by dart
    and is a bijection; each face's length is counted at its least point.
    Then alpha' is lifted into the buffer, the face labels are joined along
    it for connectivity, and its edge cycles are counted the same way; last
    sigma' and its vertex cycles.  work, from euler_buffers, lends its first
    N darts to the call, so a census makes the buffers once for its largest
    covering; without it the call makes its own."""
    dm = va.dart_map
    p, c = va.p, va.c
    size = p**c
    total = dm.n_darts * size
    if total > DART_BUDGET:
        raise ValueError(f"derived map needs {total} darts, budget {DART_BUDGET}")
    labeller, perm = work or euler_buffers(total)
    held = min(perm.size, labeller.points.size)
    if held < total:
        raise ValueError(f"derived map needs {total} darts, buffers hold {held}")
    v_count, e_count, f_count, lengths, orbit_count = _derived_counts(va, labeller.view(total),
                                                                      perm[:total])

    verify(v_count == dm.V * size, f"derived map has {v_count} vertices, not {dm.V * size}")
    verify(e_count == dm.E * size, f"derived map has {e_count} edges, not {dm.E * size}")
    verify(f_count * p == dm.F * size, "face fibres must merge in groups of p")
    verify(lengths == (dm.n * p, dm.n * p), "every derived face has length n*p")
    verify(orbit_count == 1, "derived map must be connected")

    euler = v_count - e_count + f_count
    verify(euler % 2 == 0 and euler <= 2, f"derived map has Euler characteristic {euler}")
    return v_count, e_count, f_count, (2 - euler) // 2
