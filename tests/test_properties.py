"""Structural property suites, each class runnable on its own."""

import numpy as np

from platocover.chartab import (
    dihedral_table,
    table_A4,
    table_A5,
    table_S4,
)
from platocover.decompose import decompose_module
from platocover.homology import build_homology
from platocover.lattice import census
from platocover.linalg import identity, mat_mul, rref
from platocover.maps import build_group, build_map, family, parse_family
from reference import verify_orthogonality


def _module(name, branch, p):
    group = build_group(build_map(parse_family(name)))
    return build_homology(group, branch, p)


class TestIdempotentIdentities:
    CASES = [
        ("tetrahedron", ("faces",), 5),
        ("cube", ("faces",), 7),
        ("icosahedron", ("faces",), 7),  # Galois-merged pair
        ("tetrahedron", ("vertices", "faces"), 5),
        ("hosohedron:13", ("faces",), 5),  # xi1+xi5 and friends, merged
        ("dihedron:6", ("vertices", "edges", "faces"), 5),  # chi3 and chi4
    ]

    def test_projectors_resolve_identity(self):
        for name, branch, p in self.CASES:
            module = _module(name, branch, p)
            comps = decompose_module(module)
            total = sum(c.projector for c in comps) % p
            assert np.array_equal(total, identity(module.dim, p)), name

    def test_projectors_idempotent_and_orthogonal(self):
        for name, branch, p in self.CASES:
            module = _module(name, branch, p)
            comps = decompose_module(module)
            for i, a in enumerate(comps):
                assert np.array_equal(mat_mul(a.projector, a.projector, p), a.projector)
                for b in comps[i + 1:]:
                    prod = mat_mul(a.projector, b.projector, p)
                    assert not prod.any(), (name, a.label, b.label)

    def test_projectors_central(self):
        for name, branch, p in self.CASES:
            module = _module(name, branch, p)
            group = module.group
            for comp in decompose_module(module):
                for g in (group.gen_x, group.gen_y, group.gen_z):
                    left = mat_mul(module.matrices[g], comp.projector, p)
                    right = mat_mul(comp.projector, module.matrices[g], p)
                    assert np.array_equal(left, right), (name, comp.label)


class TestRrefCanonicity:
    def _samples(self, p):
        rng = np.random.RandomState(20260817 % p + p)
        return [rng.randint(0, p, size=(r, c)) for r, c in
                [(3, 5), (5, 5), (6, 4), (4, 9), (1, 3), (5, 2)]]

    def test_idempotent(self):
        for p in (3, 5, 13):
            for mat in self._samples(p):
                r1, piv1 = rref(mat, p)
                r2, piv2 = rref(r1, p)
                assert np.array_equal(r1, r2) and piv1 == piv2

    def test_invariant_under_row_operations(self):
        for p in (3, 7):
            for mat in self._samples(p):
                r1, piv1 = rref(mat, p)
                shuffled = mat[::-1].copy()
                shuffled[0] = shuffled[0] * (p - 1) % p
                if shuffled.shape[0] > 1:
                    shuffled[1] = (shuffled[1] + 2 * shuffled[0]) % p
                r2, piv2 = rref(shuffled, p)
                assert np.array_equal(r1, r2) and piv1 == piv2

    def test_pivot_structure(self):
        for p in (3, 5, 13):
            for mat in self._samples(p):
                r, pivots = rref(mat, p)
                assert pivots == sorted(pivots)
                for i, col in enumerate(pivots):
                    unit = np.zeros(r.shape[0], dtype=r.dtype)
                    unit[i] = 1
                    assert r[:, col].tolist() == unit.tolist()
                    assert not r[i, :col].any()


class TestRowOrthogonality:
    def test_rational_tables(self):
        verify_orthogonality(table_A4())
        verify_orthogonality(table_S4())
        verify_orthogonality(table_A5())

    def test_dihedral_tables_both_parities(self):
        for n in (3, 4, 5, 6, 9, 10, 13):
            verify_orthogonality(dihedral_table(n))


class TestCensusDuality:
    PAIRS = [
        ("cube", "octahedron", 7, None),
        ("tetrahedron", "tetrahedron", 13, None),
        ("dodecahedron", "icosahedron", 11, None),
        ("dihedron", "hosohedron", 7, 3),
    ]

    def test_face_census_matches_dual_vertex_census(self):
        for face_tag, vertex_tag, p, param in self.PAIRS:
            a = census(family(face_tag, param), ("faces",), p)
            b = census(family(vertex_tag, param), ("vertices",), p)
            key_a = sorted((d.c, d.genus, d.character_string, d.regular,
                            d.cover_type) for d in a.coverings)
            key_b = sorted((d.c, d.genus, d.character_string, d.regular,
                            d.cover_type[::-1]) for d in b.coverings)
            assert key_a == key_b, (face_tag, vertex_tag)


class TestChiralityInvolution:
    CASES = [
        ("tetrahedron", ("edges",), 7),
        ("tetrahedron", ("edges",), 13),
        ("icosahedron", ("faces",), 11),
    ]

    def test_mirror_is_fixed_point_free_involution_on_chirals(self):
        for name, branch, p in self.CASES:
            cen = census(name, branch, p)
            chiral = [d for d in cen.coverings if not d.regular]
            assert chiral, (name, p)
            for d in chiral:
                mate = cen.coverings[d.mate_index]
                assert mate.L != d.L
                assert mate.mate_index == cen.coverings.index(d)
                mirrored = d.L.image(cen.module.reflection_matrix)
                assert mirrored == mate.L
                assert (d.c, d.genus, d.cover_type) == (mate.c, mate.genus, mate.cover_type)

    def test_regular_coverings_are_mirror_fixed(self):
        for name, branch, p in self.CASES:
            cen = census(name, branch, p)
            for d in cen.coverings:
                if d.regular:
                    assert d.L.image(cen.module.reflection_matrix) == d.L
