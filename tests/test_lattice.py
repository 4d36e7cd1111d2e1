"""Submodule lattices and covering censuses against published counts."""

import hashlib
import json
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platocover import cli
from platocover import lattice as lattice_module
from platocover.decompose import decompose_module
from platocover.homology import Subspace, _key_width, build_homology, pack_rows
from platocover.lattice import (
    Lattice,
    census,
    component_menus,
    describe_covering,
    e_subspaces,
    enumerate_submodules,
    gaussian_binomial,
    subspace_count,
)
from platocover.linalg import dtype_for
from platocover.maps import build_group, build_map, family, parse_family
from reference import named_submodules, reference_descriptors


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(2, 1, 5) == 6
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(5, 5, 7) == 1
    assert gaussian_binomial(2, 3, 5) == 0
    # q -> 1 degenerates to binomial coefficients
    assert subspace_count(2, 5) == 8
    assert subspace_count(3, 3) == 28


def test_e_subspace_enumeration_shapes():
    # multiplicity one has no free entry, so no element of F_(7^12) is listed
    for m, s, p, total in [(2, 1, 5, 8), (3, 1, 3, 28), (2, 2, 3, 12), (1, 12, 7, 2)]:
        stacks = e_subspaces(m, s, p)
        assert [stack.shape[1:] for stack in stacks] == [(k, m, s) for k in range(m + 1)]
        assert [len(stack) for stack in stacks] == [gaussian_binomial(m, k, p**s) for k in range(m + 1)]
        assert sum(map(len, stacks)) == total
        for k, stack in enumerate(stacks):
            # in RREF over E: each row's first nonzero coordinate is the
            # identity's and every other row is zero in that column
            flat = stack.reshape(len(stack), k, m * s)
            pivots = (flat != 0).argmax(axis=2)
            assert (pivots % s == 0).all() and (np.diff(pivots, axis=1) > 0).all()
            columns = np.take_along_axis(flat, np.repeat(pivots[:, None, :], k, axis=1), axis=2)
            assert (columns == np.eye(k, dtype=int)).all()
            # distinct, and in lexicographic order within each set of pivots
            rows = [tuple(row) for row in flat.reshape(len(stack), -1).tolist()]
            assert len(set(rows)) == len(rows)
            for piv in set(map(tuple, pivots.tolist())):
                same = [row for row, q in zip(rows, pivots.tolist()) if tuple(q) == piv]
                assert same == sorted(same)


def face_census(tag, p, param=None):
    return census(family(tag, param), ["faces"], p)


def test_face_census_counts_match_published_table():
    assert face_census("tetrahedron", 5).dimension_multiset == [3]
    assert face_census("cube", 5).dimension_multiset == [2, 3, 5]
    assert face_census("octahedron", 5).dimension_multiset == [1, 3, 3, 4, 4, 6, 7]
    assert face_census("dodecahedron", 11).dimension_multiset == [3, 3, 5, 6, 8, 8, 11]
    assert face_census("dodecahedron", 7).dimension_multiset == [5, 6, 11]
    assert face_census("dihedron", 5, 3).dimension_multiset == [1]


def test_icosahedron_census_both_congruence_classes():
    c = face_census("icosahedron", 11)
    assert (c.total, c.regular_count, c.chiral_count) == (8 * 11 + 23, 31, 8 * 10)
    c = face_census("icosahedron", 7)
    assert (c.total, c.regular_count, c.chiral_count) == (4 * 7 + 11, 15, 4 * 6)


def test_quoted_genera():
    c = face_census("tetrahedron", 5)
    assert (c.coverings[0].c, c.coverings[0].genus) == (3, 76)
    c = face_census("cube", 5)
    assert (c.coverings[0].c, c.coverings[0].genus) == (2, 36)
    c = face_census("cube", 7)
    assert (c.coverings[0].c, c.coverings[0].genus) == (2, 78)
    for p, g in [(5, 12), (7, 18), (11, 30)]:
        c = face_census("octahedron", p)
        first = c.coverings[0]
        assert (first.c, first.genus) == (1, g)


def test_face_genus_closed_form():
    for tag, p, param in [
        ("tetrahedron", 7, None),
        ("cube", 5, None),
        ("octahedron", 7, None),
        ("dodecahedron", 11, None),
        ("icosahedron", 7, None),
        ("hosohedron", 5, 4),
        ("dihedron", 7, 5),
    ]:
        c = face_census(tag, p, param)
        f = build_map(family(tag, param)).F
        for d in c.coverings:
            assert d.genus == (f // 2 - 1) * p**d.c - (f // 2) * p ** (d.c - 1) + 1


def test_hosohedron_genus_closed_form():
    for n, p in [(3, 5), (4, 3), (13, 5), (95, 7)]:
        c = face_census("hosohedron", p, n)
        assert c.total == 2 ** len(c.components) - 1
        for d in c.coverings:
            assert d.genus == 1 + p ** (d.c - 1) * (n * (p - 1) - 2 * p) // 2


def test_hosohedron_quoted_values():
    c = face_census("hosohedron", 5, 3)
    assert c.total == 1
    d = c.coverings[0]
    assert (d.genus, d.type_string) == (6, "{10,3}")
    c = face_census("hosohedron", 3, 4)
    assert [(d.c, d.genus) for d in c.coverings] == [(1, 2), (2, 4), (3, 10)]


def test_hosohedron_13_congruence_sweep():
    expected = {
        53: (63, [2] * 6 + [4] * 15 + [6] * 20 + [8] * 15 + [10] * 6 + [12]),
        3: (3, [6, 6, 12]),
        17: (3, [6, 6, 12]),
        5: (7, [4, 4, 4, 8, 8, 8, 12]),
        41: (1, [12]),
    }
    for p, (count, dims) in expected.items():
        c = face_census("hosohedron", p, 13)
        assert c.total == count, p
        assert c.dimension_multiset == dims, p


def test_hosohedron_95():
    c = face_census("hosohedron", 7, 95)
    assert c.total == 127
    by_c = Counter(c.dimension_multiset)
    assert min(by_c) == 4 and by_c[4] == 1
    assert by_c[6] == 3


def test_mixed_branching_tetrahedron():
    for p in (5, 7):
        c = census(family("tetrahedron"), ["vertices", "faces"], p)
        assert c.total == 2 * p + 5
        assert Counter(c.dimension_multiset) == Counter(
            {1: 1, 3: p + 1, 4: p + 1, 6: 1, 7: 1}
        )
        assert c.regular_count == c.total
        first = c.coverings[0]
        assert first.c == 1
        assert first.type_string == "{%d,%d}" % (3 * p, 3 * p)
        assert first.genus == 3 * (p - 1)


def test_mixed_branching_cube_octahedron():
    for tag in ("cube", "octahedron"):
        for p in (5, 7):
            c = census(family(tag), ["vertices", "faces"], p)
            assert c.total == 16 * p + 47, (tag, p)


def test_edge_branching_tetrahedron():
    c = census(family("tetrahedron"), ["edges"], 7)
    assert c.dimension_multiset == [1, 1, 2, 3, 4, 4, 5]
    chiral_cs = sorted(d.c for d in c.coverings if not d.regular)
    assert chiral_cs == [1, 1, 4, 4]
    for d in c.coverings:
        if not d.regular:
            mate = c.coverings[d.mate_index]
            assert mate.mate_index == c.coverings.index(d)
            assert (mate.c, mate.genus, mate.cover_type) == (d.c, d.genus, d.cover_type)
    c = census(family("tetrahedron"), ["edges"], 5)
    assert c.dimension_multiset == [2, 3, 5]
    assert c.chiral_count == 0
    for d in c.coverings:
        assert d.cover_type == (3, 2 * 5, 3)
        assert d.type_string == "(3,10,3)"


def test_full_branching_tetrahedron():
    c = census(family("tetrahedron"), ["vertices", "edges", "faces"], 5)
    pure = [d for d in c.coverings if d.character == {"chi1": 1}]
    assert len(pure) == 5 + 1
    for d in pure:
        assert d.c == 1


def test_character_degrees_sum_to_codimension():
    c = census(family("octahedron"), ["vertices", "faces"], 5)
    deg = {comp.label: comp.irreducible_dim for comp in c.components}
    for d in c.coverings:
        assert sum(deg[lab] * mult for lab, mult in d.character.items()) == d.c


def test_named_submodules_appear_in_lattice():
    group = build_group(build_map(family("octahedron")))
    module = build_homology(group, ["faces"], 5)
    named = named_submodules(module, group)
    lattice = enumerate_submodules(decompose_module(module), module)
    submodules = set(map(lattice.key, range(len(lattice))))
    for name in ("Qb", "Qa", "Qa'&Qb'", "Qb'"):
        assert named[name].key() in submodules, name


def test_duality_of_censuses():
    pairs = [
        ("cube", "octahedron", 5, None),
        ("tetrahedron", "tetrahedron", 7, None),
        ("dodecahedron", "icosahedron", 11, None),
        ("dihedron", "hosohedron", 5, 3),
    ]
    for face_tag, vertex_tag, p, param in pairs:
        a = census(family(face_tag, param), ["faces"], p)
        b = census(family(vertex_tag, param), ["vertices"], p)
        key_a = sorted(
            (d.c, d.genus, d.character_string, d.regular, d.cover_type) for d in a.coverings
        )
        key_b = sorted(
            (d.c, d.genus, d.character_string, d.regular, d.cover_type[::-1])
            for d in b.coverings
        )
        assert key_a == key_b, (face_tag, vertex_tag)


def test_lambda_labels_identify_chiral_lines():
    c = face_census("icosahedron", 11)
    fixed = {"1", str(11 - 1)}
    for d in c.coverings:
        lines = [ch.lam for ch in d.choices if ch.component.label == "chi4" and ch.k == 1]
        if not lines:
            continue
        lam = lines[0]
        if lam in fixed:
            assert d.regular, lam
        else:
            assert not d.regular, lam


def test_containment_is_monotone():
    c = face_census("octahedron", 5)
    items = [(d.L, d) for d in c.coverings]
    for L1, d1 in items:
        for L2, d2 in items:
            if L2.contains_space(L1):
                assert d1.c >= d2.c
                assert d1.genus >= d2.genus


def test_effective_branch_drops_swallowed_classes():
    # a class is swallowed exactly when all of its puncture vectors lie in L
    c = census(family("tetrahedron"), ["vertices", "faces"], 5)
    mod = c.module
    for d in c.coverings:
        for bc in c.branch_classes:
            rows = [
                mod.projection[i]
                for i, (cls, _) in enumerate(mod.punctures)
                if cls == bc
            ]
            inside = [d.L.contains(r) for r in rows]
            if bc in d.effective_branch:
                assert not any(inside)
            else:
                assert all(inside)
    dropped = [d for d in c.coverings if d.effective_branch != c.branch_classes]
    assert dropped, "some covering must swallow a class"


def test_census_is_sorted_and_stable():
    c = face_census("icosahedron", 7)
    keys = [(d.c, d.genus, d.character_string, d.key) for d in c.coverings]
    assert keys == sorted(keys)
    again = face_census("icosahedron", 7)
    assert [d.L.key() for d in c.coverings] == [d.L.key() for d in again.coverings]


@pytest.mark.parametrize(
    "name, branch, p",
    [("icosahedron", ("faces",), 11), ("tetrahedron", ("vertices", "edges"), 7)],
)
def test_census_order_matches_nested_tuple_key(name, branch, p):
    # both cases have many coverings sharing (c, genus, character), so the
    # order inside those ties rests on the packed key alone
    c = census(name, branch, p)
    ties = Counter((d.c, d.genus, d.character_string) for d in c.coverings)
    assert max(ties.values()) > 1

    def tuple_key(d):
        return (d.c, d.genus, d.character_string, tuple(map(tuple, d.L.basis.tolist())))

    assert c.coverings == sorted(c.coverings, key=tuple_key)
    zero = Subspace.zero(p, c.module.dim)
    for d in c.coverings:
        total = zero
        for ch in d.choices:
            total = total.add(ch.block)
        assert d.L == total and d.L.pivots == total.pivots
        assert d.L.basis.tolist() == total.basis.tolist()


@pytest.mark.parametrize(
    "name, branch, p",
    [
        ("cube", ("vertices", "edges"), 7),  # chi4 has multiplicity 3
        ("hosohedron:6", ("vertices", "faces"), 5),
    ],
)
def test_walk_matches_depth_first_reference(name, branch, p):
    # enumerate_submodules reorders the menus and merges each in batches; a
    # plain depth-first walk of Subspace.add over the menus in component
    # order must give the same submodules with the same choices (the census
    # order test above checks the same on its two cases)
    module = build_homology(build_group(build_map(parse_family(name))), branch, p)
    components = decompose_module(module)
    menus = [[ch for stack, _, _ in menu for ch in stack]
             for menu in component_menus(components, module)]
    reference = []

    def walk(depth, L, idents):
        if depth == len(menus):
            reference.append((L.key(), idents))
            return
        for ch in menus[depth]:
            walk(depth + 1, L.add(ch.block), idents + (ch.ident,))

    walk(0, Subspace.zero(p, module.dim), ())
    lattice = enumerate_submodules(components, module)
    got = [(lattice.key(i), tuple(row)) for i, row in enumerate(lattice.idents.tolist())]
    assert len(got) == len(reference) == len({key for key, _ in got})
    assert sorted(got) == sorted(reference)


def sorted_walk(components, module):
    lattice = enumerate_submodules(components, module)
    return sorted(zip(map(lattice.key, range(len(lattice))), map(tuple, lattice.idents.tolist())))


@pytest.mark.parametrize(
    "name, branch, p, entries, splits",
    [
        ("cube", ("vertices", "edges"), 7, 1000, True),  # chunks of 2 to 52 sums
        # every menu has a single choice per rank, so each merge is one sum
        # and no chunk size can split it
        ("hosohedron:6", ("vertices", "faces"), 5, 1, False),
    ],
)
def test_walk_does_not_depend_on_the_chunk(name, branch, p, entries, splits):
    # the same cases as the depth-first reference above, with the merges
    # cut into far smaller chunks than the walk's default
    module = build_homology(build_group(build_map(parse_family(name))), branch, p)
    components = decompose_module(module)
    merges = []

    def counted(*args):
        merges.append(None)
        return merge(*args)

    merge = lattice_module.merge_direct_sums
    with mock.patch.object(lattice_module, "merge_direct_sums", counted):
        whole = sorted_walk(components, module)
        calls = len(merges)
        with mock.patch.object(lattice_module, "_MERGE_ENTRIES", entries):
            chunked = sorted_walk(components, module)
    assert (len(merges) - calls > calls) == splits
    assert chunked == whole


FIXTURES = sorted((Path(cli.__file__).resolve().parent / "fixtures").glob("*.json"))


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda path: path.stem)
def test_predicted_counts_match_the_fixtures(fixture):
    # the committed coverings, plus the full module, counted by codimension
    spec = json.loads(fixture.read_text())
    module = build_homology(build_group(build_map(parse_family(spec["args"]["map"]))),
                            spec["args"]["branch"], spec["args"]["prime"])
    counts = Counter(cov["c"] for cov in spec["expected"]["coverings"]) + Counter({0: 1})
    predicted = lattice_module._check_lattice_size(decompose_module(module), module.p)
    assert predicted == [counts[module.dim - r] for r in range(module.dim + 1)]


def test_predicted_counts_match_the_walk():
    # every submodule's dimension read from its choices, not from where the
    # walk stored its key
    module = build_homology(build_group(build_map(family("dodecahedron"))),
                            ("vertices", "faces"), 7)
    components = decompose_module(module)
    lattice = enumerate_submodules(components, module)
    dims = np.array([ch.block.dim for ch in lattice.choices])
    found = np.bincount(dims[lattice.idents].sum(axis=1), minlength=module.dim + 1)
    assert lattice_module._check_lattice_size(components, module.p) == found.tolist()
    assert np.diff(lattice.starts).tolist() == found.tolist()
    for r, rows in enumerate(lattice.keys):
        assert rows.shape == (found[r], r * module.dim * _key_width(module.p))


@pytest.mark.parametrize("p, width", [(7, 1), (257, 2), (2**31 - 1, 4), (2**89 - 1, 12)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_byte_string_argsort_orders_as_the_key(p, width, data):
    # packed RREF stacks of one shape, drawn with entries at the byte
    # boundaries so that many keys share a prefix
    n = data.draw(st.integers(1, 5), label="ambient")
    r = data.draw(st.integers(1, n), label="rank")
    entries = st.one_of(st.sampled_from([v for v in (0, 1, 127, 128, 255, 256, p - 1) if v < p]),
                        st.integers(0, p - 1))
    bases = []
    for _ in range(data.draw(st.integers(1, 12), label="batch")):
        pivots = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=r, max_size=r)))
        basis = [[0] * n for _ in range(r)]
        for i, piv in enumerate(pivots):
            basis[i][piv] = 1
            for j in range(piv + 1, n):
                if j not in pivots:
                    basis[i][j] = data.draw(entries)
        bases.append(basis)
    spaces = [Subspace(basis, p, n) for basis in bases]
    assert [s.basis.tolist() for s in spaces] == bases
    packed = pack_rows(np.array(bases, dtype=dtype_for(p)), p)
    assert len(packed) == len(bases) * r * n * width
    keys = [np.empty((0, k * n * width), dtype=np.uint8) for k in range(r)]
    keys.append(np.frombuffer(packed, dtype=np.uint8).reshape(len(bases), -1))
    lattice = Lattice(n, keys, np.array([0] * (r + 1) + [len(bases)]), np.zeros((len(bases), 0)), [])
    assert [lattice.key(i) for i in range(len(bases))] == [s.key() for s in spaces]
    order = lattice.key_order(r).tolist()
    assert sorted(order) == list(range(len(bases)))
    assert [spaces[i].key() for i in order] == sorted(s.key() for s in spaces)


def test_walk_memory_stays_bounded():
    # the walk holds one chunk of at most _MERGE_ENTRIES entries per level
    # next to the keys, not the merged bases of a whole level
    module = build_homology(build_group(build_map(family("dodecahedron"))),
                            ("vertices", "faces"), 7)
    components = decompose_module(module)
    tracemalloc.start()
    try:
        lattice = enumerate_submodules(components, module)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lattice) == 10400
    assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_mixed_dodecahedral_count_and_asymptotic_ratio():
    # one full census pins the inert-case count; the dual and larger primes
    # are counted from the decomposition alone
    p = 7
    cen = census(family("dodecahedron"), ["vertices", "faces"], p)
    assert cen.total == 2 * (p**2 + 3) * (p + 3) ** 2 - 1 == 10399
    # the exact text `classify --format json` prints for this census
    text = json.dumps(cli.census_payload(cen), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b3e6766e7fa7ed73dacad200ca3514b14d158abb60e17de07d40ddada2023beb")

    def lattice_size(name, p):
        group = build_group(build_map(family(name)))
        module = build_homology(group, ("vertices", "faces"), p)
        comps = decompose_module(module)
        total = 1
        for c in comps:
            total *= subspace_count(c.multiplicity, p**c.endo_degree)
        return total

    ratios = {}
    for p in (7, 13):  # p = +-2 mod 5
        sizes = {lattice_size(name, p) for name in ("dodecahedron", "icosahedron")}
        assert sizes == {2 * (p**2 + 3) * (p + 3) ** 2}
        ratios[p] = (sizes.pop() - 1) / (2 * p**4)
    for p in (11, 19):  # p = +-1 mod 5
        sizes = {lattice_size(name, p) for name in ("dodecahedron", "icosahedron")}
        assert sizes == {2 * (p + 3) ** 4}
        ratios[p] = (sizes.pop() - 1) / (2 * p**4)
    assert 1 < ratios[13] < ratios[7] < 2.5
    assert 1 < ratios[19] < ratios[11] < 3


@pytest.mark.parametrize(
    "name, branch, p, total, chiral",
    [
        ("tetrahedron", ("vertices", "edges"), 7, 79, 40),  # idempotent backend
        ("hosohedron:6", ("vertices", "faces"), 5, 31, 0),  # dihedral backend
    ],
)
def test_factored_descriptors_match_direct_reference(name, branch, p, total, chiral):
    # the branch set, regularity and mate come from per-choice tables; redo
    # them from L itself
    c = census(name, branch, p)
    mod = c.module
    assert (c.total, c.chiral_count) == (total, chiral)
    for d in c.coverings:
        effective = tuple(
            bc
            for bc in c.branch_classes
            if not all(
                d.L.contains(mod.projection[i])
                for i, (cls, _) in enumerate(mod.punctures)
                if cls == bc
            )
        )
        assert d.effective_branch == effective
        mirrored = d.L.image(mod.reflection_matrix)
        assert d.regular == (mirrored == d.L)
        if not d.regular:
            assert c.coverings[d.mate_index].L == mirrored
    assert any(d.effective_branch != c.branch_classes for d in c.coverings)


@pytest.mark.parametrize(
    "name, branch, p, total, chiral",
    [
        ("tetrahedron", ("vertices", "edges"), 7, 79, 40),
        ("hosohedron:6", ("vertices", "faces"), 5, 31, 0),
        ("icosahedron", ("faces",), 11, 111, 80),
        ("cube", ("vertices", "edges"), 7, 9279, 7680),  # chi4 has multiplicity 3
        ("dodecahedron", ("vertices", "faces"), 7, 10399, 6240),
    ],
)
def test_descriptors_match_per_submodule_reference(name, branch, p, total, chiral):
    # one pass over the ident array must give every field, the mate
    # included, that describing each submodule from its own choices gives
    module = build_homology(build_group(build_map(parse_family(name))), branch, p)
    lattice = enumerate_submodules(decompose_module(module), module)
    got = describe_covering(lattice, module).descriptors()
    want = reference_descriptors(lattice, module)
    assert (len(got), sum(not d.regular for d in got)) == (total, chiral)
    assert len(want) == total
    for d, r in zip(got, want):
        assert d == r
        assert list(d.character.items()) == list(r.character.items())
