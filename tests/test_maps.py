"""Map construction and rotation group tests."""

import dataclasses

import numpy as np
import pytest

from platocover.maps import build_group, build_map, family, parse_family, stabilizer_H
from reference import GROUP_LAYER_MAPS, reference_group, run_python, walked_orbits

COUNTS = {
    "tetrahedron": (4, 6, 4),
    "cube": (8, 12, 6),
    "octahedron": (6, 12, 8),
    "dodecahedron": (20, 30, 12),
    "icosahedron": (12, 30, 20),
}


@pytest.mark.parametrize("tag", sorted(COUNTS))
def test_solid_counts(tag):
    dm = build_map(family(tag))
    assert (dm.V, dm.E, dm.F) == COUNTS[tag]
    assert dm.V - dm.E + dm.F == 2


def test_parametric_counts():
    dm = build_map(family("hosohedron", 13))
    assert (dm.V, dm.E, dm.F) == (2, 13, 13)
    dm = build_map(family("dihedron", 7))
    assert (dm.V, dm.E, dm.F) == (7, 7, 2)


def test_parameter_validation():
    with pytest.raises(ValueError):
        family("dihedron", 2)
    with pytest.raises(ValueError):
        family("hosohedron", 1)
    with pytest.raises(ValueError):
        family("simplex")


def test_parse_family():
    assert parse_family("cube").tag == "cube"
    fam = parse_family("hosohedron:95")
    assert fam.tag == "hosohedron" and fam.param == 95
    assert fam.name == "hosohedron(95)"


ALL_FAMILIES = [
    family("tetrahedron"),
    family("cube"),
    family("octahedron"),
    family("dodecahedron"),
    family("icosahedron"),
    family("dihedron", 5),
    family("hosohedron", 5),
    family("hosohedron", 6),
]


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
def test_tables_are_read_only_intp_arrays(fam):
    # build_map makes every table of the map once, and no caller may write
    # to one
    dm = build_map(fam)
    tables = [field.name for field in dataclasses.fields(dm) if field.name != "family"]
    assert len(tables) == 9
    for name in tables:
        table = getattr(dm, name)
        assert isinstance(table, np.ndarray) and table.dtype == np.intp, name
        assert not table.flags.writeable, name
    assert dm.face_orbits.shape == (dm.F, dm.n)
    with pytest.raises(ValueError):
        dm.sigma[0] = dm.sigma[1]


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
def test_group_structure(fam):
    dm = build_map(fam)
    g = build_group(dm)
    assert g.order == 2 * dm.E
    # presentation relations
    assert g.power(g.gen_x, dm.m) == 0
    assert g.power(g.gen_y, 2) == 0
    assert g.power(g.gen_z, dm.n) == 0
    assert g.mult(g.mult(g.gen_x, g.gen_y), g.gen_z) == 0
    # regular dart action: distinct permutations, one per target
    assert len(np.unique(g.dart_perms, axis=0)) == g.order
    # transitivity with multiplying stabilizer orders
    for cls, stab_order in (("vertices", dm.m), ("edges", 2), ("faces", dm.n)):
        assert len(stabilizer_H(g, cls)) == stab_order
        images = {g.actions[cls][e][0] for e in range(g.order)}
        assert len(images) == g.order // stab_order


@pytest.mark.parametrize(
    "tag,sizes",
    [
        ("tetrahedron", [1, 3, 4, 4]),
        ("cube", [1, 3, 6, 6, 8]),
        ("octahedron", [1, 3, 6, 6, 8]),
        ("dodecahedron", [1, 12, 12, 15, 20]),
        ("icosahedron", [1, 12, 12, 15, 20]),
    ],
)
def test_class_sizes(tag, sizes):
    g = build_group(build_map(family(tag)))
    assert sorted(c.size for c in g.classes) == sizes


def test_dihedral_class_count():
    # D_n for odd n has (n+3)/2 classes
    g = build_group(build_map(family("hosohedron", 5)))
    assert len(g.classes) == 4
    g = build_group(build_map(family("hosohedron", 6)))
    assert len(g.classes) == 6


def test_dihedron_reflection():
    g = build_group(build_map(family("dihedron", 5)))
    assert g.reflection_dart.tolist() == list(range(10))
    assert g.reflection["vertices"].tolist() == list(range(5))
    assert g.reflection["faces"].tolist() == [1, 0]
    assert g.central_reversing is not None


def test_reflection_properties():
    for fam in ALL_FAMILIES:
        if fam.m == 2:
            continue
        g = build_group(build_map(fam))
        refl = g.reflection_dart
        n = len(refl)
        assert sorted(refl) == list(range(n))
        perms = {tuple(row) for row in g.dart_perms.tolist()}
        assert tuple(refl.tolist()) not in perms
        # reflection normalizes G: conjugate of a generator stays in G
        refl_inv = [0] * n
        for d in range(n):
            refl_inv[refl[d]] = d
        for gen in (g.gen_x, g.gen_z):
            p = g.dart_perms[gen]
            conj = tuple(refl[p[refl_inv[d]]] for d in range(n))
            assert conj in perms


def test_central_reversing_presence():
    expected = {
        "tetrahedron": False,
        "cube": True,
        "octahedron": True,
        "dodecahedron": True,
        "icosahedron": True,
    }
    for tag, present in expected.items():
        g = build_group(build_map(family(tag)))
        assert (g.central_reversing is not None) == present
        if present:
            c = g.central_reversing["darts"]
            assert tuple(c.tolist()) not in {tuple(row) for row in g.dart_perms.tolist()}


def test_generator_z_rotates_base_face():
    for fam in ALL_FAMILIES:
        dm = build_map(fam)
        g = build_group(dm)
        zperm = g.dart_perms[g.gen_z]
        base_face = dm.face_of[0]
        assert dm.face_of[zperm[0]] == base_face
        # one step along the face boundary, against phi
        assert dm.sigma[dm.alpha[zperm[0]]] == 0


def test_duality_exchanges_vertices_and_faces():
    # {4,3} and {3,4} have the same group with vertex and face actions
    # swapped; compare fixed-point count multisets
    def profile(tag):
        g = build_group(build_map(family(tag)))
        vfix = sorted(sum(p[i] == i for i in range(len(p))) for p in g.actions["vertices"])
        ffix = sorted(sum(p[i] == i for i in range(len(p))) for p in g.actions["faces"])
        efix = sorted(sum(p[i] == i for i in range(len(p))) for p in g.actions["edges"])
        return vfix, efix, ffix

    for pair in (("cube", "octahedron"), ("dodecahedron", "icosahedron")):
        v1, e1, f1 = profile(pair[0])
        v2, e2, f2 = profile(pair[1])
        assert v1 == f2 and f1 == v2 and e1 == e2


def test_cycles_walk_from_their_least_dart():
    # vertices, edges and faces are the cycles of sigma, alpha and phi, each
    # numbered in order of its least dart, and each face is walked from it,
    # against a walk from each unvisited dart
    for spec in GROUP_LAYER_MAPS:
        dm = build_map(family(*spec))
        sigma, alpha = dm.sigma.tolist(), dm.alpha.tolist()
        phi = [sigma[a] for a in alpha]
        for perm, of, first, walks in ((sigma, dm.vertex_of, dm.vertex_dart, None),
                                       (alpha, dm.edge_of, dm.edge_dart, None),
                                       (phi, dm.face_of, dm.face_dart, dm.face_orbits)):
            orbits = walked_orbits(dm.n_darts, [perm.__getitem__])
            index = {d: i for i, orbit in enumerate(orbits) for d in orbit}
            assert first.tolist() == [orbit[0] for orbit in orbits], dm.family.name
            assert of.tolist() == [index[d] for d in range(dm.n_darts)], dm.family.name
            expected = []
            for d in first.tolist():
                walk = [d]
                while perm[walk[-1]] != d:
                    walk.append(perm[walk[-1]])
                expected.append(walk)
            assert walks is None or walks.tolist() == expected, dm.family.name


REFERENCE_FAMILIES = ALL_FAMILIES + [
    family("hosohedron", 95),
    family("hosohedron", 8),
    family("dihedron", 7),
]


@pytest.mark.parametrize("fam", REFERENCE_FAMILIES, ids=lambda f: f.name)
def test_group_matches_per_target_reference(fam):
    # one vectorised propagation and orbit labels against one propagation
    # per target dart and a search per conjugacy class
    dm = build_map(fam)
    g = build_group(dm)
    ref = reference_group(dm)
    assert g.dart_perms.tolist() == [list(perm) for perm in ref.dart_perms]
    assert g.inverse.tolist() == ref.inverse
    assert g.class_of.tolist() == ref.class_of
    assert [(c.members, c.rep, c.rep_order) for c in g.classes] == ref.classes
    for bc in ("vertices", "edges", "faces"):
        assert g.actions[bc].tolist() == [list(a) for a in ref.actions[bc]]
        assert g.reflection[bc].tolist() == list(ref.reflection[bc])
    if ref.reflection_dart is None:
        assert g.reflection_dart is None
    else:
        assert g.reflection_dart.tolist() == list(ref.reflection_dart)
    assert (g.central_reversing is None) == (ref.central is None)
    if ref.central is not None:
        assert g.central_reversing.keys() == ref.central.keys()
        for key, value in ref.central.items():
            got = g.central_reversing[key]
            assert got is None if value is None else got.tolist() == list(value)


def test_first_central_row_in_group_order():
    # the reversing coset of hosohedron:8 has two central rows, the two
    # equatorial reflections' products with the half turn; the first in
    # group order is the central element
    g = build_group(build_map(family("hosohedron", 8)))
    coset = g.dart_perms[:, g.reflection_dart]
    gens = [g.dart_perms[g.gen_x], g.dart_perms[g.gen_z], g.reflection_dart]
    central = [i for i, row in enumerate(coset)
               if all(np.array_equal(h[row], row[h]) for h in gens)]
    assert len(central) == 2
    assert g.central_reversing["darts"].tolist() == coset[central[0]].tolist()
    assert coset[central[0]].tolist() != coset[central[1]].tolist()


# a cube whose rotation at vertex 0 is reversed, which no rotation of the
# cube's darts respects, and a cube passed off as the octahedron {3, 4},
# whose x has order 3, not 4
BROKEN_GROUPS = """
import dataclasses
import sys
from platocover.errors import VerificationError
from platocover.maps import build_group, build_map, family

dm = build_map(family("cube"))
sigma = dm.sigma.copy()
sigma[:3] = 2, 0, 1
cases = {
    "not orientably regular": dataclasses.replace(dm, sigma=sigma),
    "x does not have order 4": dataclasses.replace(dm, family=family("octahedron")),
}
print("asserts", "on" if __debug__ else "off")
for message, broken in cases.items():
    try:
        build_group(broken)
    except VerificationError as exc:
        print("raised" if message in str(exc) else f"wrong message: {exc}")
"""


@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
def test_group_checks_survive_optimize(flags, asserts):
    proc = run_python([*flags, "-c", BROKEN_GROUPS], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n", 1) == [f"asserts {asserts}", "raised\nraised\n"]
