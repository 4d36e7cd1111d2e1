"""Isotypic decomposition against independently known module structures."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from platocover.chartab import (
    CharacterTable,
    CycValue,
    dihedral_table,
    match_classes,
    p_power_orbits,
    table_for_group,
)
from platocover.decompose import (
    decompose_idempotent,
    decompose_module,
    _class_values_mod_p,
    _endo_field,
    _hom_space,
    _minimal_blocks,
    _restrictions,
    _verify_decomposition,
)
from platocover.errors import VerificationError
from platocover.gf import coset_orbits, factor_xn_minus_1, is_prime, poly_mul
from platocover.homology import Subspace, build_homology
from platocover.linalg import identity, mat_mul, rref, zeros
from platocover.maps import build_group, build_map, family
from reference import (GROUP_LAYER_MAPS, dihedral_generators, intersect, left_kernel,
                       named_submodules, orbital_graph_components, summed_values_mod_p,
                       union_find_blocks)


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


def test_hosohedron_95_memory_stays_bounded():
    # the float64 products convert their factors chunk by chunk and the
    # restrictions gather their pivot columns chunk by chunk, so no copy of
    # the whole (190, 94, 94) stack of group matrices, 13.4 MiB in int64 or
    # float64, or of its pivot columns is made; with a float64 copy of each
    # whole factor the peak was 15.4 MiB
    mod, _ = module_for("hosohedron", ["faces"], 7, 95)
    tracemalloc.start()
    try:
        decompose_module(mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"{peak / 2**20:.2f} MiB"


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
            assert intersect(total, c.subspace).dim == 0
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
            assert mod.invariant_under_group(c.seed.basis, c.seed.pivots)
            assert len(c.hom_basis) == c.multiplicity


def test_adapted_hom_basis_uses_central_element():
    mod, _ = module_for("icosahedron", ["faces"], 11)
    comps = by_label(decompose_module(mod))
    c = comps["chi4"]
    expected = mat_mul(c.hom_basis[0], mod.central_matrix, mod.p)
    assert c.hom_basis[1].tolist() == expected.tolist()


def test_minimal_blocks_are_the_orbital_graph_components():
    # the finest block system joining points 0 and j, from the orbits of
    # left multiplication by <G_0, g>, against the components of the
    # orbital graph {g(0), g(j)} and a union-find closing {0, j} under x and z
    for spec in GROUP_LAYER_MAPS:
        group = build_group(build_map(family(*spec)))
        for bc in ("vertices", "edges", "faces"):
            perms = group.class_perms(bc)
            gens = perms[[group.gen_x, group.gen_z]].tolist()
            for j in range(1, perms.shape[1]):
                blocks = _minimal_blocks(group, perms, j)
                assert blocks == orbital_graph_components(perms, j), (spec, bc, j)
                assert blocks == union_find_blocks(gens, perms.shape[1], 0, j), (spec, bc, j)


def _d3_table() -> CharacterTable:
    q = lambda x: CycValue.integer(x, 1)
    return CharacterTable(
        name="D3-by-hand",
        col_labels=("e", "a", "b"),
        col_sizes=(1, 2, 3),
        col_orders=(1, 3, 2),
        col_words=([], [(3, 1)], [(2, 1)]),
        row_names=("chi1", "chi2", "xi1"),
        rows=(
            (q(1), q(1), q(1)),
            (q(1), q(1), q(-1)),
            (q(2), q(-1), q(0)),
        ),
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


@pytest.mark.parametrize("tag, param", [
    *(("hosohedron", n) for n in range(3, 13)), ("hosohedron", 19), ("hosohedron", 95),
    ("tetrahedron", None), ("cube", None), ("dodecahedron", None),
])
def test_class_values_match_the_per_value_reduction(tag, param):
    # every p-power orbit, whose sums lie in F_p, and every single row,
    # whose values need not, against sums folded value by value and reduced
    # one by one
    group = build_group(build_map(family(tag, param)))
    table = table_for_group(group)
    matching = match_classes(table, group)
    for p in (3, 5, 7, 11, 13):
        if group.order % p == 0:
            continue
        orbits = p_power_orbits(table, group, matching, p) + [(r,) for r in range(len(table.rows))]
        values, in_prime_field = _class_values_mod_p(table, orbits, p)
        _assert_class_values(table, orbits, p)


@pytest.mark.parametrize("p", [33554509, 33554473, 2**31 - 1])
def test_class_values_match_past_the_int64_bound(p):
    # primes past linalg.dtype_for's int64 bound, where the images are
    # Python ints: D_5 reads its values in F_(p^2) at 33554509 and in
    # F_(p^4) at 33554473 and at 2^31 - 1, where no x^4 + c is irreducible
    group = build_group(build_map(family("hosohedron", 5)))
    table = table_for_group(group)
    orbits = (p_power_orbits(table, group, match_classes(table, group), p)
              + [(r,) for r in range(len(table.rows))])
    _assert_class_values(table, orbits, p)


@pytest.mark.parametrize("tag", ["tetrahedron", "dodecahedron"])
def test_solid_values_follow_the_even_root_at_every_prime_below_400(tag):
    # sqrt(-3) and sqrt(5) go to their even roots wherever they lie in F_p,
    # whichever primitive root of unity the reduction starts from; the
    # first one gf finds sends them to the odd root at 12 of the 37 split
    # primes for A4, 13 the first, and at 16 of the 34 for A5, 29 the first
    group = build_group(build_map(family(tag)))
    table = table_for_group(group)
    rows = [(r,) for r in range(len(table.rows))]
    for p in range(7, 400, 2):
        if is_prime(p) and group.order % p:
            _assert_class_values(table, rows, p)


def _assert_class_values(table, orbits, p):
    values, in_prime_field = _class_values_mod_p(table, orbits, p)
    assert in_prime_field.dtype == bool
    for rows, got, valued in zip(orbits, values.tolist(), in_prime_field.tolist()):
        expected = summed_values_mod_p(table, rows, p)
        assert valued is (None not in expected)
        if valued:
            assert got == expected


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
            out += [((name,), intersect(space, eig)) for name, eig in zip(names, flip)]
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
    # the face permutation module of S4 is 1 + E + T, and Q drops the
    # trivial summand
    mod, _ = module_for("cube", ["faces"], 7)
    assert profile(decompose_module(mod)) == [("chi3", 2, 1, 1), ("chi5", 3, 1, 1)]


def test_overlapping_components_raise_verification_error():
    # the lattice relies on this check for every sum of blocks, so it must
    # raise explicitly rather than assert
    mod, _ = module_for("octahedron", ["faces"], 5)
    comps = decompose_module(mod)
    with pytest.raises(VerificationError, match="overlap"):
        _verify_decomposition(comps + comps[:1], mod)


def test_missing_component_raises_verification_error():
    mod, _ = module_for("octahedron", ["faces"], 5)
    comps = decompose_module(mod)
    assert len(comps) > 1
    with pytest.raises(VerificationError, match="do not span Q"):
        _verify_decomposition(comps[1:], mod)


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


@pytest.mark.parametrize("extra, message", [
    ([[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]]], "not commutative"),
    ([[[1, 0, 0], [0, 0, 0], [0, 0, 0]]], "not invertible"),
    ([[[1, 0, 0], [0, 2, 0], [0, 0, 3]]], "does not commute with the group"),
])
def test_endo_field_rejects_a_bad_class_sum(extra, message):
    # cube faces at p = 5: chi5 has d = 3 and s = 1, so its class sums are
    # scalars; each extra element is a class of its own, whose sum joins the
    # basis: two that do not commute, one singular, or one invertible that
    # commutes with the scalars but not with the generators
    mod, group = module_for("cube", ["faces"], 5)
    restr = _restrictions(by_label(decompose_module(mod))["chi5"].seed, mod)
    extra = np.array(extra, dtype=restr.dtype)
    mutated = SimpleNamespace(
        class_of=np.concatenate([group.class_of, len(group.classes) + np.arange(len(extra))]),
        classes=group.classes + [None] * len(extra), gen_x=group.gen_x, gen_z=group.gen_z)
    with pytest.raises(VerificationError, match=message):
        _endo_field(np.concatenate([restr, extra]), mutated, mod.p)


def _kronecker_hom(restr, mod, group):
    """Reference: every X with R_g X = X A_g for the generators, by solving
    the linear system in the d * dim unknowns of vec(X)."""
    p, n = mod.p, mod.dim
    d = restr.shape[1]
    blocks = [(np.kron(restr[g], identity(n, p)) - np.kron(identity(d, p), mod.matrices[g].T)) % p
              for g in (group.gen_x, group.gen_z)]
    return Subspace(left_kernel(np.vstack(blocks).T, p), p, d * n)


@pytest.mark.parametrize("tag, param, branch, p", [
    ("icosahedron", None, ["faces"], 11),  # chi4: d = 4, m = 2
    ("dodecahedron", None, ["vertices", "faces"], 7),  # chi2+chi3: d = 6, m = 2, s = 2
    ("hosohedron", 7, ["edges", "faces"], 11),  # xi1+xi2+xi3: d = 6, m = 2, s = 3
    ("cube", None, ["vertices", "edges"], 7),  # m = 3
])
def test_group_average_hom_space_matches_kronecker_solve(tag, param, branch, p):
    mod, group = module_for(tag, branch, p, param)
    comps = decompose_module(mod)
    assert max(c.multiplicity for c in comps) >= 2
    for c in comps:
        restr = _restrictions(c.seed, mod)
        sols = _hom_space(restr, mod)
        assert sols.shape[0] == c.multiplicity * c.endo_degree, c.label
        assert Subspace(sols, p, sols.shape[1]) == _kronecker_hom(restr, mod, group), c.label


def _inverse(mat, p):
    n = mat.shape[0]
    reduced, pivots = rref(np.concatenate([mat, identity(n, p)], axis=1), p)
    assert pivots == list(range(n))
    return reduced[:, n:]


@pytest.mark.parametrize("tag, param, branch, p", [
    ("tetrahedron", None, ["vertices", "edges", "faces"], 7),
    ("dodecahedron", None, ["vertices", "faces"], 7),
    ("hosohedron", 13, ["vertices", "edges", "faces"], 3),
    ("dihedron", 6, ["vertices", "edges", "faces"], 5),
])
def test_puncture_projections_match_stacked_basis_inverse(tag, param, branch, p):
    # reference: coordinates of every puncture class in the stacked component
    # bases, cut into one block per component
    mod, _ = module_for(tag, branch, p, param)
    comps = decompose_module(mod)
    stacked = np.vstack([c.subspace.basis for c in comps])
    coords = mat_mul(mod.projection, _inverse(stacked, p), p)
    start = 0
    for c in comps:
        stop = start + c.subspace.dim
        expected = mat_mul(coords[:, start:stop], c.subspace.basis, p)
        assert c.punctures.tolist() == expected.tolist(), c.label
        start = stop


def _row_by_row(mod, perm_of_class):
    """Reference: the matrix of a puncture permutation, row by row: row i is
    the class of the image of puncture i, a unit vector or, for the dropped
    puncture, the constant row p - 1."""
    tau, offset = [], 0
    for bc in mod.branch_classes:
        perm = perm_of_class(bc)
        tau.extend(offset + t for t in perm)
        offset += len(perm)
    out = zeros((mod.dim, mod.dim), mod.p)
    for i in range(mod.dim):
        if tau[i] < mod.dim:
            out[i, tau[i]] = 1
        else:
            out[i, :] = mod.p - 1
    return out


@pytest.mark.parametrize("tag, param, branch, p", [
    ("icosahedron", None, ["vertices", "faces"], 7),
    ("dihedron", 6, ["vertices", "edges", "faces"], 5),
    ("hosohedron", 13, ["vertices", "edges", "faces"], 3),
])
def test_stacked_matrices_match_row_by_row_construction(tag, param, branch, p):
    mod, group = module_for(tag, branch, p, param)
    assert mod.matrices.shape == (group.order, mod.dim, mod.dim)
    for g in range(group.order):
        expected = _row_by_row(mod, lambda bc: group.class_perms(bc)[g])
        assert mod.matrices[g].tolist() == expected.tolist()
    expected = _row_by_row(mod, group.reflection_class_perm)
    assert mod.reflection_matrix.tolist() == expected.tolist()
    expected = _row_by_row(mod, lambda bc: group.central_reversing[bc])
    assert mod.central_matrix.tolist() == expected.tolist()
