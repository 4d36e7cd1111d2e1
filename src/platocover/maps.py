"""Dart models of the Platonic maps and their automorphism groups.

A map is stored as a pair of permutations of its darts: sigma rotates a dart
counterclockwise about its vertex, alpha reverses it.  Vertices, edges and
faces are the orbits of sigma, alpha and sigma∘alpha.  The rotation group
acts regularly on darts, so its elements are indexed by the image of dart 0,
and all of them come from one vectorised propagation of the candidate images
of dart 0 through the rotation system (one row per candidate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import verify
from .linalg import cycle_labels, joint_orbit_count, label_orbits, orbit_labels

# Counterclockwise vertex rotations viewed from outside the solid, computed
# once from coordinate models and frozen.
ROTATIONS: dict[str, list[list[int]]] = {
    "tetrahedron": [[3, 1, 2], [2, 0, 3], [0, 1, 3], [1, 0, 2]],
    "cube": [
        [2, 1, 4], [0, 3, 5], [3, 0, 6], [1, 2, 7],
        [6, 0, 5], [4, 1, 7], [7, 2, 4], [5, 3, 6],
    ],
    "octahedron": [
        [5, 2, 4, 3], [4, 2, 5, 3], [4, 0, 5, 1],
        [5, 0, 4, 1], [3, 0, 2, 1], [2, 0, 3, 1],
    ],
    "dodecahedron": [
        [8, 16, 12], [12, 17, 9], [13, 16, 10], [11, 17, 13],
        [18, 8, 14], [14, 9, 19], [15, 10, 18], [19, 11, 15],
        [10, 0, 4], [5, 1, 11], [6, 2, 8], [9, 3, 7],
        [0, 1, 14], [3, 2, 15], [4, 12, 5], [7, 13, 6],
        [17, 0, 2], [3, 1, 16], [6, 4, 19], [18, 5, 7],
    ],
    "icosahedron": [
        [10, 2, 8, 4, 6], [6, 4, 9, 3, 11], [7, 5, 8, 0, 10],
        [11, 1, 9, 5, 7], [0, 8, 9, 1, 6], [3, 9, 8, 2, 7],
        [10, 0, 4, 1, 11], [11, 3, 5, 2, 10], [2, 5, 9, 4, 0],
        [1, 4, 8, 5, 3], [7, 2, 0, 6, 11], [6, 1, 3, 7, 10],
    ],
}

SOLID_TYPES = {
    "tetrahedron": (3, 3),
    "cube": (4, 3),
    "octahedron": (3, 4),
    "dodecahedron": (5, 3),
    "icosahedron": (3, 5),
}


@dataclass(frozen=True)
class MapFamily:
    """A Platonic map family; (n, m) is the Coxeter symbol {n, m}."""

    tag: str
    n: int
    m: int
    param: int = 0

    @property
    def name(self) -> str:
        if self.param:
            return f"{self.tag}({self.param})"
        return self.tag


def family(tag: str, param: int | None = None) -> MapFamily:
    if tag in SOLID_TYPES:
        if param is not None:
            raise ValueError(f"{tag} takes no parameter")
        n, m = SOLID_TYPES[tag]
        return MapFamily(tag=tag, n=n, m=m)
    if tag not in ("dihedron", "hosohedron"):
        raise ValueError(f"unknown map family {tag!r}")
    if param is None:
        raise ValueError(f"{tag} requires a parameter, as in {tag}:5")
    if param < 3:
        raise ValueError(f"{tag} parameter must be at least 3")
    if tag == "dihedron":
        return MapFamily(tag=tag, n=param, m=2, param=param)
    return MapFamily(tag=tag, n=2, m=param, param=param)


def parse_family(text: str) -> MapFamily:
    """Parse "tetrahedron" or "hosohedron:13" style names."""
    if ":" in text:
        tag, _, num = text.partition(":")
        return family(tag, int(num))
    return family(text)


@dataclass(frozen=True)
class DartMap:
    family: MapFamily
    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    vertex_of: tuple[int, ...]
    edge_of: tuple[int, ...]
    face_of: tuple[int, ...]
    vertex_dart: tuple[int, ...]
    edge_dart: tuple[int, ...]
    face_dart: tuple[int, ...]
    # each face's boundary from face_dart along phi
    face_orbits: tuple[tuple[int, ...], ...]

    @property
    def n_darts(self) -> int:
        return len(self.sigma)

    @property
    def V(self) -> int:
        return len(self.vertex_dart)

    @property
    def E(self) -> int:
        return len(self.edge_dart)

    @property
    def F(self) -> int:
        return len(self.face_dart)

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def m(self) -> int:
        return self.family.m


def _cycles(perm: list[int], length: int, message: str) -> tuple[np.ndarray, np.ndarray]:
    """(index, walks): the index of each dart's cycle, cycles in order of
    their least dart (linalg.cycle_labels), and each cycle walked along perm
    from that dart, one row of the given length per cycle.  That every
    cycle closes after exactly that many steps is verified, with the given
    message."""
    perm = np.asarray(perm, dtype=np.intp)
    labels = cycle_labels(perm)
    least = np.flatnonzero(labels == np.arange(len(perm)))
    walks = [least]
    for _ in range(length - 1):
        walks.append(perm[walks[-1]])
    verify(len(least) * length == len(perm) and (perm[walks[-1]] == least).all(), message)
    return np.searchsorted(least, labels), np.stack(walks, axis=1)


def build_map(fam: MapFamily) -> DartMap:
    if fam.tag in SOLID_TYPES:
        rot = ROTATIONS[fam.tag]
        m = fam.m
        sigma = [v * m + (s + 1) % m for v in range(len(rot)) for s in range(m)]
        alpha = []
        for v in range(len(rot)):
            for s in range(m):
                w = rot[v][s]
                alpha.append(w * m + rot[w].index(v))
    elif fam.tag == "hosohedron":
        # two poles joined by param edges; alpha pairs slot j of pole 0 with
        # slot param-1-j of pole 1 so both rotations are counterclockwise
        k = fam.param
        sigma = [(j + 1) % k for j in range(k)] + [k + (j + 1) % k for j in range(k)]
        alpha = [k + (k - 1 - j) for j in range(k)] + [k - 1 - j for j in range(k)]
    elif fam.tag == "dihedron":
        # polygon boundary: vertex i carries darts 2i (toward i+1) and
        # 2i+1 (toward i-1)
        k = fam.param
        n_darts = 2 * k
        sigma = [0] * n_darts
        alpha = [0] * n_darts
        for i in range(k):
            sigma[2 * i] = 2 * i + 1
            sigma[2 * i + 1] = 2 * i
            alpha[2 * i] = 2 * ((i + 1) % k) + 1
            alpha[2 * ((i + 1) % k) + 1] = 2 * i
    else:
        raise ValueError(f"unknown map family {fam.tag!r}")

    vertex_of, vertex_orbits = _cycles(sigma, fam.m, f"a vertex does not have degree {fam.m}")
    edge_of, edges = _cycles(alpha, 2, "alpha is not a fixed-point-free involution")
    face_of, face_orbits = _cycles(np.asarray(sigma)[alpha], fam.n,
                                   f"a face does not have {fam.n} sides")
    verify(len(vertex_orbits) - len(edges) + len(face_orbits) == 2, "not a sphere")
    verify(joint_orbit_count(np.asarray(sigma), np.asarray(alpha)) == 1, "the map is not connected")

    return DartMap(
        family=fam,
        sigma=tuple(sigma),
        alpha=tuple(alpha),
        vertex_of=tuple(vertex_of.tolist()),
        edge_of=tuple(edge_of.tolist()),
        face_of=tuple(face_of.tolist()),
        vertex_dart=tuple(vertex_orbits[:, 0].tolist()),
        edge_dart=tuple(edges[:, 0].tolist()),
        face_dart=tuple(face_orbits[:, 0].tolist()),
        face_orbits=tuple(map(tuple, face_orbits.tolist())),
    )


def _automorphisms(sigma: np.ndarray, alpha: np.ndarray, sigma_img: np.ndarray) -> np.ndarray:
    """Every dart permutation psi with psi∘sigma = sigma_img∘psi and
    psi∘alpha = alpha∘psi, one row each, in the order of the image of dart
    0: the rotations for sigma_img = sigma, the reversing automorphisms for
    its inverse.

    Such a psi is fixed by psi(0), so one walk along a spanning tree of the
    dart graph from dart 0 extends all n candidates 0 ↦ t at once, and each
    row is then checked on every dart.  A row that passes is a permutation:
    its image is closed under sigma_img and alpha, which act transitively
    because the map is connected."""
    n = len(sigma)
    images = np.empty((n, n), dtype=np.intp)  # images[d, t]: where row t sends d
    images[0] = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        d = stack.pop()
        for src, img in ((sigma[d], sigma_img), (alpha[d], alpha)):
            if not seen[src]:
                seen[src] = True
                images[src] = img[images[d]]
                stack.append(src)
    ok = (images[sigma] == sigma_img[images]).all(axis=0) & (images[alpha] == alpha[images]).all(axis=0)
    return np.ascontiguousarray(images[:, ok].T)


@dataclass(frozen=True)
class ConjClass:
    members: tuple[int, ...]
    rep: int
    rep_order: int

    @property
    def size(self) -> int:
        return len(self.members)


class GroupData:
    """The rotation group G of a Platonic map, with its reflection coset.

    Elements are indexed by the image of dart 0: row t of dart_perms is the
    rotation taking dart 0 to t.  Composition is read left to right,
    (g*h)(d) = h(g(d)), so mult(i, j) = dart_perms[j, i].  The actions on
    vertices, edges and faces are (|G|, count) arrays (class_perms), and the
    reflection's and the central reversing element's are single rows.
    """

    def __init__(self, dart_map: DartMap):
        self.map = dm = dart_map
        sigma = np.asarray(dm.sigma, dtype=np.intp)
        alpha = np.asarray(dm.alpha, dtype=np.intp)
        self.order = dm.n_darts
        self.dart_perms = _automorphisms(sigma, alpha, sigma)
        verify(len(self.dart_perms) == self.order, "rotation system is not orientably regular")
        # row i sends its inverse to dart 0, the least entry of the row
        self.inverse = self.dart_perms.argmin(axis=1)

        self.gen_x = dm.sigma[0]
        self.gen_y = dm.alpha[0]
        xy = self.mult(self.gen_x, self.gen_y)
        self.gen_z = self.inverse_of(xy)
        for gen, order, name in ((self.gen_x, dm.m, "x"), (self.gen_y, 2, "y"), (self.gen_z, dm.n, "z")):
            verify(self.element_order(gen) == order, f"{name} does not have order {order}")
        verify(self.mult(xy, self.gen_z) == 0, "xyz is not the identity")

        self.actions = self._project(self.dart_perms)
        verify(self.actions["faces"][self.gen_z, dm.face_of[0]] == dm.face_of[0],
               "z does not fix the face of dart 0")
        verify(self.actions["vertices"][self.gen_x, dm.vertex_of[0]] == dm.vertex_of[0],
               "x does not fix the vertex of dart 0")

        # conjugacy classes: orbits of G under conjugation by the generators,
        # g -> h^-1 g h, in order of their least member
        conjugations = [self.dart_perms[h][self.dart_perms[:, self.inverse[h]]]
                        for h in (self.gen_x, self.gen_y)]
        labels = orbit_labels(conjugations)
        self.class_of = np.unique(labels, return_inverse=True)[1]
        self.classes = [ConjClass(members=members, rep=members[0],
                                  rep_order=self.element_order(members[0]))
                        for members in label_orbits(labels)]

        self._build_reflection(sigma, alpha)

    # -- group arithmetic ---------------------------------------------------

    def mult(self, i: int, j: int) -> int:
        return int(self.dart_perms[j, i])

    def inverse_of(self, i: int) -> int:
        return int(self.inverse[i])

    def cyclic(self, i: int) -> list[int]:
        """The powers 1, g, g^2, ... of element i.  g^(k+1) = mult(g^k, g)
        is row i at g^k, so they are the cycle of dart 0 under row i."""
        row = self.dart_perms[i].tolist()
        out = [0]
        while row[out[-1]] != 0:
            out.append(row[out[-1]])
        return out

    def element_order(self, i: int) -> int:
        return len(self.cyclic(i))

    def power(self, i: int, k: int) -> int:
        powers = self.cyclic(i)
        return powers[k % len(powers)]

    # -- actions ------------------------------------------------------------

    def _project(self, perms: np.ndarray, reversing: bool = False) -> dict[str, np.ndarray]:
        """Vertex, edge and face actions of a dart permutation, or of a stack
        of them along the last axis, each verified to be a permutation.  The
        face left of a dart maps to the face left of the reversed image dart,
        so a reversing permutation's face projection composes with alpha."""
        dm = self.map
        face_images = np.asarray(dm.alpha)[perms] if reversing else perms
        out = {
            "vertices": np.asarray(dm.vertex_of)[perms[..., dm.vertex_dart]],
            "edges": np.asarray(dm.edge_of)[perms[..., dm.edge_dart]],
            "faces": np.asarray(dm.face_of)[face_images[..., dm.face_dart]],
        }
        for bc, action in out.items():
            verify((np.sort(action, axis=-1) == np.arange(action.shape[-1])).all(),
                   f"a dart permutation does not permute the {bc}")
        return out

    def class_perms(self, branch_class: str) -> np.ndarray:
        return self.actions[branch_class]

    def reflection_class_perm(self, branch_class: str) -> np.ndarray:
        return self.reflection[branch_class]

    # -- the reflection coset -----------------------------------------------

    def _build_reflection(self, sigma: np.ndarray, alpha: np.ndarray) -> None:
        """The reflection fixing dart 0, its actions, and the
        orientation-reversing element commuting with all of G, if any."""
        dm = self.map
        if dm.m == 2:
            # dihedron: sigma is an involution, so dart permutations cannot
            # distinguish orientation; use the equatorial reflection, which
            # fixes every vertex and edge, swaps the two faces, and is
            # central in the full automorphism group
            self.reflection_dart = None
            self.reflection = {"vertices": np.arange(dm.V), "edges": np.arange(dm.E),
                               "faces": np.array([1, 0])}
            self.central_reversing = {**self.reflection, "darts": None}
            return
        reversing = _automorphisms(sigma, alpha, np.argsort(sigma))
        verify(len(reversing) > 0, "map is not reflexible")
        refl = self.reflection_dart = reversing[0]
        self.reflection = self._project(refl, reversing=True)
        # reflection squared is orientation-preserving, hence an element of G
        verify(np.array_equal(self.dart_perms[refl[refl[0]]], refl[refl]),
               "the reflection squared is not a rotation")

        # the coset G·refl in group order, and the first of its rows that
        # commutes with x, z and the reflection
        coset = self.dart_perms[:, refl]
        central = np.logical_and.reduce([(h[coset] == coset[:, h]).all(axis=1)
                                         for h in (self.dart_perms[self.gen_x],
                                                   self.dart_perms[self.gen_z], refl)])
        self.central_reversing = None
        if central.any():
            darts = coset[central.argmax()]
            self.central_reversing = {**self._project(darts, reversing=True), "darts": darts}


def build_group(dart_map: DartMap) -> GroupData:
    return GroupData(dart_map)


def stabilizer_H(group: GroupData, branch_class: str) -> list[int]:
    """The designated cyclic stabilizer: ⟨x⟩ for vertices, ⟨y⟩ for edges,
    ⟨z⟩ for faces."""
    gen = {
        "vertices": group.gen_x,
        "edges": group.gen_y,
        "faces": group.gen_z,
    }[branch_class]
    return group.cyclic(gen)
