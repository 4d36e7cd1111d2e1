"""Isotypic decomposition against independently known module structures."""

from fractions import Fraction

import numpy as np
import pytest

from platocover.chartab import (
    CharacterTable,
    QuadValue,
    dihedral_generators,
    dihedral_table,
    table_for_group,
)
from platocover.decompose import (
    decompose_idempotent,
    decompose_module,
    _endo_field,
    _restrictions,
    _verify_decomposition,
)
from platocover.errors import VerificationError
from platocover.gf import coset_orbits, factor_xn_minus_1, poly_mul
from platocover.homology import Subspace, build_homology, named_submodules
from platocover.linalg import identity, left_kernel, mat_mul
from platocover.maps import build_group, build_map, family


def module_for(tag, branch, p, param=None):
    group = build_group(build_map(family(tag, param)))
    return build_homology(group, branch, p), group


def by_label(comps):
    return {c.label: c for c in comps}


def profile(comps):
    return sorted((c.label, c.irreducible_dim, c.multiplicity, c.endo_degree) for c in comps)


def test_octahedron_faces_components():
    mod, group = module_for("octahedron", ["faces"], 5)
    comps = by_label(decompose_module(mod))
    assert profile(comps.values()) == [
        ("chi2", 1, 1, 1),
        ("chi4", 3, 1, 1),
        ("chi5", 3, 1, 1),
    ]
    named = named_submodules(mod, group)
    assert comps["chi2"].subspace == named["Qb"]
    assert {comps["chi4"].subspace, comps["chi5"].subspace} == {
        named["Qa"],
        named["Qa'&Qb'"],
    }


def test_tetrahedron_faces_single_component():
    mod, _ = module_for("tetrahedron", ["faces"], 5)
    comps = decompose_module(mod)
    assert profile(comps) == [("chi4", 3, 1, 1)]
    assert comps[0].subspace.dim == mod.dim


def test_icosahedron_faces_split_prime():
    mod, _ = module_for("icosahedron", ["faces"], 11)
    assert profile(decompose_module(mod)) == [
        ("chi2", 3, 1, 1),
        ("chi3", 3, 1, 1),
        ("chi4", 4, 2, 1),
        ("chi5", 5, 1, 1),
    ]


def test_icosahedron_faces_inert_prime():
    mod, _ = module_for("icosahedron", ["faces"], 7)
    assert profile(decompose_module(mod)) == [
        ("chi2+chi3", 6, 1, 2),
        ("chi4", 4, 2, 1),
        ("chi5", 5, 1, 1),
    ]


def test_dodecahedron_faces_both_prime_kinds():
    mod, _ = module_for("dodecahedron", ["faces"], 7)
    assert profile(decompose_module(mod)) == [
        ("chi2+chi3", 6, 1, 2),
        ("chi5", 5, 1, 1),
    ]
    mod, _ = module_for("dodecahedron", ["faces"], 11)
    assert profile(decompose_module(mod)) == [
        ("chi2", 3, 1, 1),
        ("chi3", 3, 1, 1),
        ("chi5", 5, 1, 1),
    ]


def test_tetrahedron_edges_split_and_merged():
    mod, _ = module_for("tetrahedron", ["edges"], 7)
    assert profile(decompose_module(mod)) == [
        ("chi2", 1, 1, 1),
        ("chi3", 1, 1, 1),
        ("chi4", 3, 1, 1),
    ]
    mod, _ = module_for("tetrahedron", ["edges"], 5)
    assert profile(decompose_module(mod)) == [
        ("chi2+chi3", 2, 1, 2),
        ("chi4", 3, 1, 1),
    ]


def test_mixed_branch_multiplicities():
    mod, _ = module_for("tetrahedron", ["vertices", "faces"], 5)
    assert profile(decompose_module(mod)) == [
        ("chi1", 1, 1, 1),
        ("chi4", 3, 2, 1),
    ]
    mod, _ = module_for("tetrahedron", ["vertices", "edges", "faces"], 7)
    assert profile(decompose_module(mod)) == [
        ("chi1", 1, 2, 1),
        ("chi2", 1, 1, 1),
        ("chi3", 1, 1, 1),
        ("chi4", 3, 3, 1),
    ]


def test_cube_vertices_faces():
    mod, _ = module_for("cube", ["vertices", "faces"], 5)
    assert profile(decompose_module(mod)) == [
        ("chi1", 1, 1, 1),
        ("chi2", 1, 1, 1),
        ("chi3", 2, 1, 1),
        ("chi4", 3, 1, 1),
        ("chi5", 3, 2, 1),
    ]


def test_dodecahedron_vertices_faces():
    mod, _ = module_for("dodecahedron", ["vertices", "faces"], 7)
    assert profile(decompose_module(mod)) == [
        ("chi1", 1, 1, 1),
        ("chi2+chi3", 6, 2, 2),
        ("chi4", 4, 2, 1),
        ("chi5", 5, 2, 1),
    ]


def test_hosohedron_small():
    mod, _ = module_for("hosohedron", ["faces"], 5, 3)
    assert profile(decompose_module(mod)) == [("xi1", 2, 1, 1)]
    mod, _ = module_for("hosohedron", ["faces"], 5, 4)
    assert profile(decompose_module(mod)) == [
        ("chi3", 1, 1, 1),
        ("xi1", 2, 1, 1),
    ]


def test_hosohedron_95():
    mod, _ = module_for("hosohedron", ["faces"], 7, 95)
    comps = decompose_module(mod)
    dims = sorted(c.subspace.dim for c in comps)
    assert dims == [4, 6, 6, 6, 24, 24, 24]
    assert sorted(c.endo_degree for c in comps) == [2, 3, 3, 3, 12, 12, 12]
    assert all(c.multiplicity == 1 for c in comps)
    firsts = sorted(c.labels[0] for c in comps)
    assert firsts == ["xi1", "xi10", "xi19", "xi2", "xi20", "xi4", "xi5"]


def test_hosohedron_self_paired_multiplicity_two():
    # ord_5(3) = 4 and -1 lies in <3> mod 5, so xi1 and xi2 merge into one
    # self-paired component; vertices+edges+faces gives it multiplicity 2
    mod, _ = module_for("hosohedron", ["vertices", "edges", "faces"], 3, 5)
    assert profile(decompose_module(mod)) == [
        ("chi1", 1, 2, 1),
        ("chi2", 1, 1, 1),
        ("xi1+xi2", 4, 2, 2),
    ]


def test_dihedron_faces():
    mod, _ = module_for("dihedron", ["faces"], 5, 3)
    assert profile(decompose_module(mod)) == [("chi2", 1, 1, 1)]


def test_components_are_independent_and_fill():
    for tag, branch, p, param in [
        ("cube", ["vertices", "faces"], 5, None),
        ("icosahedron", ["faces"], 7, None),
        ("hosohedron", ["vertices", "faces"], 5, 4),
    ]:
        mod, _ = module_for(tag, branch, p, param)
        comps = decompose_module(mod)
        total = Subspace.zero(p, mod.dim)
        for c in comps:
            assert total.intersect(c.subspace).dim == 0
            total = total.add(c.subspace)
        assert total.dim == mod.dim


def test_seeds_are_irreducible_copies():
    # hosohedron:7 edges+faces at p = 11 has xi1+xi2+xi3 with d = 6, m = 2, s = 3
    for tag, branch, p, param in [
        ("dodecahedron", ["vertices", "faces"], 11, None),
        ("hosohedron", ["edges", "faces"], 11, 7),
    ]:
        mod, _ = module_for(tag, branch, p, param)
        for c in decompose_module(mod):
            assert c.seed.dim == c.irreducible_dim
            assert c.subspace.contains_space(c.seed)
            assert mod.invariant_under_group(c.seed)
            assert len(c.hom_basis) == c.multiplicity


def test_adapted_hom_basis_uses_central_element():
    mod, _ = module_for("icosahedron", ["faces"], 11)
    comps = by_label(decompose_module(mod))
    c = comps["chi4"]
    expected = mat_mul(c.hom_basis[0], mod.central_matrix, mod.p)
    assert c.hom_basis[1].tolist() == expected.tolist()


def _d3_table() -> CharacterTable:
    q = lambda x: QuadValue(Fraction(x), Fraction(0), 1)
    return CharacterTable(
        name="D3-by-hand",
        kind="dihedral",
        col_labels=("e", "a", "b"),
        col_sizes=(1, 2, 3),
        col_orders=(1, 3, 2),
        row_names=("chi1", "chi2", "xi1"),
        rows=(
            (q(1), q(1), q(1)),
            (q(1), q(1), q(-1)),
            (q(2), q(-1), q(0)),
        ),
        col_spec=(("rot", 0), ("rot", 1), ("refl", 0)),
    )


def test_dihedral_backend_matches_idempotents():
    # hosohedron(3) has group D3; the generated cyclotomic table and a
    # hand-entered rational one must produce the same components
    group = build_group(build_map(family("hosohedron", 3)))
    mod = build_homology(group, ["vertices", "edges", "faces"], 5)
    from_generated = decompose_idempotent(mod, group, dihedral_table(3))
    from_hand = decompose_idempotent(mod, group, _d3_table())
    key = lambda comps: [
        (c.subspace.key(), c.label, c.irreducible_dim, c.multiplicity, c.endo_degree)
        for c in comps
    ]
    assert key(from_generated) == key(from_hand)


def _poly_at(coeffs, A, p):
    """sum_i coeffs[i] A^i by Horner's rule."""
    out = np.zeros_like(A)
    for c in reversed(coeffs):
        out = (mat_mul(out, A, p) + c * identity(A.shape[0], p)) % p
    return out


def _kernel_components(mod, group, n):
    """Reference split of a dihedral module, independent of the character
    table: for each coset orbit delta of exponents, the left kernel of
    f_delta(A) at the rotation a, f_delta the product of the factors of
    x^n - 1 over the Frobenius orbits inside delta; the flip b refines the
    one-dimensional orbits {0} and {n/2}.  (labels, subspace) pairs in the
    order of the least exponent."""
    p = mod.p
    a, b = dihedral_generators(group)
    A, B = mod.matrices[a], mod.matrices[b]
    flip = [Subspace(left_kernel((B - eig * identity(mod.dim, p)) % p, p), p, mod.dim)
            for eig in (1, p - 1)]
    factors = factor_xn_minus_1(n, p)
    out = []
    for delta in coset_orbits(n, p):
        f = [1]
        for orbit, g in factors:
            if set(orbit.members) <= set(delta.members):
                f = poly_mul(f, g, p)
        space = Subspace(left_kernel(_poly_at(f, A, p), p), p, mod.dim)
        if delta.members in ((0,), (n // 2,)):
            names = ("chi1", "chi2") if delta.members == (0,) else ("chi3", "chi4")
            out += [((name,), space.intersect(eig)) for name, eig in zip(names, flip)]
        else:
            ks = sorted({min(r, n - r) for r in delta.members})
            out.append((tuple(f"xi{k}" for k in ks), space))
    return [(labels, space) for labels, space in out if space.dim]


@pytest.mark.parametrize("tag, param, branch, p", [
    ("hosohedron", 95, ["faces"], 7),
    ("hosohedron", 13, ["faces"], 5),
    ("hosohedron", 5, ["vertices", "edges", "faces"], 3),  # self-paired merge, m = 2
    ("dihedron", 6, ["vertices", "edges", "faces"], 5),  # chi3 and chi4 present
])
def test_idempotents_match_kernel_split(tag, param, branch, p):
    mod, group = module_for(tag, branch, p, param)
    got = [(c.labels, c.subspace) for c in decompose_module(mod)]
    assert got == _kernel_components(mod, group, param)


def test_dispatch_picks_backend():
    mod, group = module_for("cube", ["faces"], 7)
    table = table_for_group(group)
    assert profile(decompose_module(mod)) == profile(decompose_idempotent(mod, group, table))


def test_overlapping_components_raise_verification_error():
    # the lattice relies on this check for every sum of blocks, so it must
    # raise explicitly rather than assert
    mod, _ = module_for("octahedron", ["faces"], 5)
    comps = decompose_module(mod)
    with pytest.raises(VerificationError, match="overlap"):
        _verify_decomposition(comps + comps[:1], mod)


def _kronecker_commutant(restrictions, p):
    """Reference: every T with T R = R T for the given R, by solving the
    d^2-unknown linear system (I kron R^T - R kron I) vec(T) = 0."""
    d = restrictions[0].shape[0]
    blocks = [(np.kron(identity(d, p), r.T) - np.kron(r, identity(d, p))) % p
              for r in restrictions]
    return Subspace(left_kernel(np.vstack(blocks).T, p), p, d * d)


@pytest.mark.parametrize("tag, param, branch, p, merged", [
    ("icosahedron", None, ["faces"], 7, "chi2+chi3"),
    ("hosohedron", 5, ["vertices", "edges", "faces"], 3, "xi1+xi2"),
    ("hosohedron", 13, ["faces"], 5, "xi1+xi5"),
    ("dodecahedron", None, ["vertices", "faces"], 7, "chi2+chi3"),
])
def test_endo_field_spans_the_whole_commutant(tag, param, branch, p, merged):
    mod, group = module_for(tag, branch, p, param)
    comps = by_label(decompose_module(mod))
    assert comps[merged].endo_degree == 2
    for c in comps.values():
        d = c.seed.dim
        restr = _restrictions(c.seed, mod)
        basis = _endo_field(restr, group, p)
        assert basis[0].tolist() == identity(d, p).tolist()
        span = Subspace(np.vstack([t.reshape(1, -1) for t in basis]), p, d * d)
        assert span.dim == len(basis) == c.endo_degree
        gens = [restr[group.gen_x], restr[group.gen_z]]
        assert span == _kronecker_commutant(gens, p), c.label


def test_reducible_seed_raises_verification_error():
    # the component U+U is invariant, and its class sums still form the
    # field F_49, so only the double centralizer count rejects it
    mod, group = module_for("dodecahedron", ["vertices", "faces"], 7)
    c = by_label(decompose_module(mod))["chi2+chi3"]
    assert c.multiplicity == 2 and c.endo_degree == 2
    with pytest.raises(VerificationError, match="not irreducible"):
        _endo_field(_restrictions(c.subspace, mod), group, mod.p)
