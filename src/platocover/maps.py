"""Dart models of the Platonic maps and their automorphism groups.

A map is stored as a pair of permutations of its darts: sigma rotates a dart
counterclockwise about its vertex, alpha reverses it.  Vertices, edges and
faces are the orbits of sigma, alpha and sigma∘alpha.  The rotation group is
generated by propagating candidate images of the base dart 0 through the
rotation system; it acts regularly on darts, so elements are indexed by the
image of dart 0.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    # the darts at each vertex from vertex_dart along sigma, and each face's
    # boundary from face_dart along phi
    vertex_orbits: tuple[tuple[int, ...], ...]
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

    def phi(self, d: int) -> int:
        """One step along the face boundary: sigma after alpha."""
        return self.sigma[self.alpha[d]]


def _orbits_of(step, n_darts: int) -> list[tuple[int, ...]]:
    seen = [False] * n_darts
    out = []
    for d in range(n_darts):
        if seen[d]:
            continue
        orbit = [d]
        seen[d] = True
        e = step(d)
        while e != d:
            orbit.append(e)
            seen[e] = True
            e = step(e)
        out.append(tuple(orbit))
    return out


def build_map(fam: MapFamily) -> DartMap:
    if fam.tag in SOLID_TYPES:
        rot = ROTATIONS[fam.tag]
        m = fam.m
        n_darts = len(rot) * m
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
        n_darts = 2 * k
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

    assert all(alpha[alpha[d]] == d and alpha[d] != d for d in range(n_darts))

    vertex_orbits = _orbits_of(lambda d: sigma[d], n_darts)
    edge_orbits = _orbits_of(lambda d: alpha[d], n_darts)
    face_orbits = _orbits_of(lambda d: sigma[alpha[d]], n_darts)

    def labels(orbits):
        of = [0] * n_darts
        rep = []
        for i, orbit in enumerate(orbits):
            rep.append(orbit[0])
            for d in orbit:
                of[d] = i
        return tuple(of), tuple(rep)

    vertex_of, vertex_dart = labels(vertex_orbits)
    edge_of, edge_dart = labels(edge_orbits)
    face_of, face_dart = labels(face_orbits)

    V, E, F = len(vertex_orbits), len(edge_orbits), len(face_orbits)
    assert V - E + F == 2, "not a sphere"
    assert all(len(o) == fam.m for o in vertex_orbits)
    assert all(len(o) == fam.n for o in face_orbits)
    assert _connected(sigma, alpha)

    return DartMap(
        family=fam,
        sigma=tuple(sigma),
        alpha=tuple(alpha),
        vertex_of=vertex_of,
        edge_of=edge_of,
        face_of=face_of,
        vertex_dart=vertex_dart,
        edge_dart=edge_dart,
        face_dart=face_dart,
        vertex_orbits=tuple(vertex_orbits),
        face_orbits=tuple(face_orbits),
    )


def _connected(sigma, alpha) -> bool:
    n = len(sigma)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        d = stack.pop()
        for e in (sigma[d], alpha[d]):
            if not seen[e]:
                seen[e] = True
                count += 1
                stack.append(e)
    return count == n


def _propagate(sigma, alpha, target: int, reverse: bool):
    """Extend dart 0 ↦ target to a full automorphism, or return None.

    Orientation-preserving automorphisms commute with sigma and alpha;
    orientation-reversing ones conjugate sigma to its inverse.
    """
    n = len(sigma)
    if reverse:
        sigma_img = [0] * n
        for d in range(n):
            sigma_img[sigma[d]] = d
    else:
        sigma_img = sigma
    psi = [-1] * n
    psi[0] = target
    stack = [0]
    while stack:
        d = stack.pop()
        for src, img in ((sigma[d], sigma_img[psi[d]]), (alpha[d], alpha[psi[d]])):
            if psi[src] == -1:
                psi[src] = img
                stack.append(src)
            elif psi[src] != img:
                return None
    if sorted(psi) != list(range(n)):
        return None
    return tuple(psi)


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

    Elements are indexed by the image of dart 0; composition is read left to
    right, (g*h)(d) = h(g(d)), so mult(i, j) = dart_perms[j][i].
    """

    def __init__(self, dart_map: DartMap):
        self.map = dart_map
        sigma, alpha = dart_map.sigma, dart_map.alpha
        n_darts = dart_map.n_darts

        perms = []
        for t in range(n_darts):
            psi = _propagate(sigma, alpha, t, reverse=False)
            if psi is None:
                raise AssertionError("rotation system is not orientably regular")
            perms.append(psi)
        self.dart_perms = perms
        self.order = n_darts
        assert self.dart_perms[0] == tuple(range(n_darts))

        self.gen_x = sigma[0]
        self.gen_y = alpha[0]
        xy = self.mult(self.gen_x, self.gen_y)
        self.gen_z = self.inverse_of(xy)

        m, n = dart_map.m, dart_map.n
        assert self.element_order(self.gen_x) == m
        assert self.element_order(self.gen_y) == 2
        assert self.element_order(self.gen_z) == n
        assert self.mult(xy, self.gen_z) == 0

        self._project_actions()
        assert self.face_perms[self.gen_z][dart_map.face_of[0]] == dart_map.face_of[0]
        assert self.vertex_perms[self.gen_x][dart_map.vertex_of[0]] == dart_map.vertex_of[0]

        self.inverse = [perm.index(0) for perm in perms]
        self._build_classes()
        self._build_reflection()

    # -- group arithmetic ---------------------------------------------------

    def mult(self, i: int, j: int) -> int:
        return self.dart_perms[j][i]

    def inverse_of(self, i: int) -> int:
        return self.dart_perms[i].index(0)

    def element_order(self, i: int) -> int:
        k, acc = 1, i
        while acc != 0:
            acc = self.mult(acc, i)
            k += 1
        return k

    def power(self, i: int, k: int) -> int:
        acc = 0
        for _ in range(k % self.element_order(i)):
            acc = self.mult(acc, i)
        return acc

    def cyclic(self, i: int) -> list[int]:
        out = [0]
        acc = i
        while acc != 0:
            out.append(acc)
            acc = self.mult(acc, i)
        return out

    # -- actions ------------------------------------------------------------

    def _project_actions(self) -> None:
        dm = self.map

        def project(perm, of, rep):
            return tuple(of[perm[d]] for d in rep)

        self.vertex_perms = [project(p, dm.vertex_of, dm.vertex_dart) for p in self.dart_perms]
        self.edge_perms = [project(p, dm.edge_of, dm.edge_dart) for p in self.dart_perms]
        self.face_perms = [project(p, dm.face_of, dm.face_dart) for p in self.dart_perms]

    def class_perms(self, branch_class: str):
        return {
            "vertices": self.vertex_perms,
            "edges": self.edge_perms,
            "faces": self.face_perms,
        }[branch_class]

    # -- conjugacy classes --------------------------------------------------

    def _build_classes(self) -> None:
        self.class_of = [-1] * self.order
        classes = []
        gens = (self.gen_x, self.gen_y)
        gen_invs = tuple(self.inverse[g] for g in gens)
        for start in range(self.order):
            if self.class_of[start] != -1:
                continue
            members = []
            stack = [start]
            cid = len(classes)
            self.class_of[start] = cid
            while stack:
                g = stack.pop()
                members.append(g)
                for h, hinv in zip(gens, gen_invs):
                    c = self.mult(self.mult(hinv, g), h)
                    if self.class_of[c] == -1:
                        self.class_of[c] = cid
                        stack.append(c)
            members.sort()
            classes.append(
                ConjClass(members=tuple(members), rep=members[0], rep_order=self.element_order(members[0]))
            )
        self.classes = classes

    # -- the reflection coset -----------------------------------------------

    def _build_reflection(self) -> None:
        dm = self.map
        if dm.m == 2:
            # dihedron: sigma is an involution, so dart permutations cannot
            # distinguish orientation; use the equatorial reflection, which
            # fixes every vertex and edge, swaps the two faces, and is
            # central in the full automorphism group
            self.reflection_dart = None
            self.reflection_vertex = tuple(range(dm.V))
            self.reflection_edge = tuple(range(dm.E))
            self.reflection_face = (1, 0)
            self.central_reversing = {
                "vertices": self.reflection_vertex,
                "edges": self.reflection_edge,
                "faces": self.reflection_face,
                "darts": None,
            }
            return
        refl = None
        for t in range(dm.n_darts):
            psi = _propagate(dm.sigma, dm.alpha, t, reverse=True)
            if psi is not None:
                refl = psi
                break
        assert refl is not None, "map is not reflexible"
        self.reflection_dart = refl
        v, e, f = self._project_reversing(refl)
        self.reflection_vertex = v
        self.reflection_edge = e
        self.reflection_face = f

        # reflection squared is orientation-preserving, hence an element of G
        rr = tuple(refl[refl[d]] for d in range(dm.n_darts))
        assert rr in set(self.dart_perms)

        self.central_reversing = self._find_central_reversing()

    def reflection_class_perm(self, branch_class: str):
        return {
            "vertices": self.reflection_vertex,
            "edges": self.reflection_edge,
            "faces": self.reflection_face,
        }[branch_class]

    def _project_reversing(self, perm):
        """Vertex, edge and face actions of an orientation-reversing dart
        permutation.  The face left of a dart maps to the face left of the
        reversed image dart, so the face projection composes with alpha."""
        dm = self.map
        v = tuple(dm.vertex_of[perm[d]] for d in dm.vertex_dart)
        e = tuple(dm.edge_of[perm[d]] for d in dm.edge_dart)
        f = tuple(dm.face_of[dm.alpha[perm[d]]] for d in dm.face_dart)
        for part, count in ((v, dm.V), (e, dm.E), (f, dm.F)):
            assert sorted(part) == list(range(count))
        return v, e, f

    def _find_central_reversing(self):
        """The orientation-reversing element commuting with all of A, if any."""
        dm = self.map
        gens = [self.dart_perms[self.gen_x], self.dart_perms[self.gen_z], self.reflection_dart]
        found = None
        for g in range(self.order):
            perm = self.dart_perms[g]
            cand = tuple(perm[self.reflection_dart[d]] for d in range(dm.n_darts))
            if all(
                tuple(h[cand[d]] for d in range(dm.n_darts))
                == tuple(cand[h[d]] for d in range(dm.n_darts))
                for h in gens
            ):
                found = cand
                break
        if found is None:
            return None
        v, e, f = self._project_reversing(found)
        return {"vertices": v, "edges": e, "faces": f, "darts": found}


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
