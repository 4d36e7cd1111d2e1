"""Isotypic decomposition of the homology module.

Two backends produce the same component data.  For A4, S4 and A5 the central
idempotents of the group algebra are reduced mod p, with algebraically
conjugate character pairs merged into one rational idempotent when the
relevant square root is missing from F_p.  For dihedral groups the module is
split as kernels of the factors of x^n - 1 evaluated at the rotation
generator, with the two one-dimensional eigenvalue orbits refined by the
flip generator.

Every component is then equipped with a seed irreducible W, its endomorphism
field E = F_{p^s} (a basis of commuting matrices on W), and an E-basis of
the equivariant maps W -> Q.  These are the ingredients the submodule
lattice is enumerated from.

E is the span of the class sums of G restricted to W: the centre of F_pG
maps onto the centre of End_E(W), which is E (Wedderburn).  The span is
checked to be a commutative ring of units commuting with the generators,
and to be all of End_G(W) by the double centralizer count
dim span{R_g} * s = d^2, which fails for a reducible W.

The consistency checks raise VerificationError, so they hold under
``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import chartab
from .chartab import CharacterTable, dihedral_generators, match_classes, table_for_group
from .errors import verify
from .gf import coset_orbits, factor_xn_minus_1, poly_mul, sqrt_mod_p
from .homology import HomologyModule, Subspace
from .linalg import as_matrix, identity, left_kernel, mat_mul, poly_at_matrix, rref, zeros
from .maps import GroupData, stabilizer_H


@dataclass
class IsotypicComponent:
    labels: tuple[str, ...]
    subspace: Subspace
    irreducible_dim: int
    multiplicity: int
    endo_degree: int = 0
    seed: Subspace | None = None
    hom_basis: list = field(default_factory=list)
    commutant: list = field(default_factory=list)
    projector: np.ndarray | None = None

    @property
    def label(self) -> str:
        return "+".join(self.labels)


def spin(module: HomologyModule, vectors, gens) -> Subspace:
    """The smallest subspace containing the given row vectors and invariant
    under the given generator matrices."""
    p = module.p
    space = Subspace(as_matrix(vectors, p, width=module.dim), p, module.dim)
    while True:
        grown = space
        for A in gens:
            grown = grown.add(grown.image(A))
        if grown.dim == space.dim:
            return space
        space = grown


# ---------------------------------------------------------------------------
# idempotent backend

def _class_values_mod_p(table: CharacterTable, rows, p: int):
    """Values of the (possibly merged) character per table column, in F_p;
    None when an irrational value does not reduce."""
    out = []
    for col in range(table.n_cols):
        total = None
        for r in rows:
            v = table.rows[r][col]
            total = v if total is None else total + v
        out.append(total.mod_p(p))
    return out


def _idempotent_matrix(module: HomologyModule, values_by_class, degree: int) -> np.ndarray:
    group = module.group
    p = module.p
    acc = zeros((module.dim, module.dim), p)
    for g in range(group.order):
        coeff = values_by_class[group.class_of[group.inverse[g]]]
        if coeff:
            acc = (acc + coeff * module.matrices[g]) % p
    scale = degree * pow(group.order, -1, p) % p
    return (scale * acc) % p


def decompose_idempotent(
    module: HomologyModule, group: GroupData, table: CharacterTable
) -> list[IsotypicComponent]:
    p = module.p
    matching = match_classes(table, group)
    col_of = chartab.column_of_class(matching)
    expected = chartab.homology_character(group, table, matching, list(module.branch_classes))

    merged_partner = {}
    for i, j, d in table.galois_pairs:
        if sqrt_mod_p(d % p, p) is None:
            merged_partner[i] = j
            merged_partner[j] = i

    components: list[IsotypicComponent] = []
    idempotents: list[np.ndarray] = []
    done = set()
    for r, name in enumerate(table.row_names):
        if r in done:
            continue
        if r in merged_partner:
            rows = (r, merged_partner[r])
            done.update(rows)
        else:
            rows = (r,)
            done.add(r)
        labels = tuple(table.row_names[i] for i in rows)
        assert len({table.degree(i) for i in rows}) == 1
        degree = sum(table.degree(i) for i in rows)
        values = _class_values_mod_p(table, rows, p)
        assert all(v is not None for v in values), "merged values must be rational"
        by_class = [0] * len(group.classes)
        for col, cid in enumerate(matching):
            by_class[cid] = values[col]
        # the scale is the individual degree even for a merged pair: the
        # merged idempotent is the sum of the two ordinary ones
        e = _idempotent_matrix(module, by_class, table.degree(rows[0]))
        comp_space = Subspace(e, p, module.dim)
        mult = expected.get(table.row_names[rows[0]], 0)
        assert all(expected.get(table.row_names[i], 0) == mult for i in rows)
        verify(comp_space.dim == degree * mult,
               f"{'+'.join(labels)}: dimension {comp_space.dim} is not {degree} times {mult}")
        if mult == 0:
            continue

        verify(mat_mul(e, e, p).tolist() == e.tolist(), f"{'+'.join(labels)}: e is not idempotent")
        verify(module.invariant_under_group(comp_space), f"{'+'.join(labels)}: not invariant")
        # trace of g on the isotypic equals multiplicity times character value
        for cid, cls in enumerate(group.classes):
            tr = int(np.trace(mat_mul(module.matrices[cls.rep], e, p))) % p
            chi_g = values[col_of[cid]]
            verify(tr == mult * chi_g % p, f"{'+'.join(labels)}: trace on class {cid} "
                   "is not the multiplicity times the character")

        components.append(
            IsotypicComponent(
                labels=labels,
                subspace=comp_space,
                irreducible_dim=degree,
                multiplicity=mult,
                projector=e,
            )
        )
        idempotents.append(e)

    total = zeros((module.dim, module.dim), p)
    for e in idempotents:
        total = (total + e) % p
    verify(total.tolist() == identity(module.dim, p).tolist(), "the idempotents do not sum to 1")
    for i in range(len(idempotents)):
        for j in range(i + 1, len(idempotents)):
            verify(not mat_mul(idempotents[i], idempotents[j], p).any(),
                   "two idempotents are not orthogonal")

    for comp in components:
        _endo_and_hom(comp, module, group, table, matching)
    _verify_decomposition(components, module)
    return components


# ---------------------------------------------------------------------------
# dihedral backend

def decompose_dihedral(module: HomologyModule, group: GroupData, n: int) -> list[IsotypicComponent]:
    p = module.p
    a_elem, b_elem = dihedral_generators(group)
    A = module.matrices[a_elem]
    B = module.matrices[b_elem]
    factor_of = {orbit.members: f for orbit, f in factor_xn_minus_1(n, p)}

    components: list[IsotypicComponent] = []
    for delta in coset_orbits(n, p):
        f_delta = [1]
        gammas = [g for g in factor_of if set(g) <= set(delta.members)]
        gammas.sort()
        assert sum(len(g) for g in gammas) == delta.size
        for g in gammas:
            f_delta = poly_mul(f_delta, factor_of[g], p)
        kernel = left_kernel(poly_at_matrix(f_delta, A, p), p)
        space = Subspace(kernel, p, module.dim)
        if space.dim == 0:
            continue

        if delta.members in ((0,), (n // 2,) if n % 2 == 0 else ()):
            # one-dimensional eigenvalue orbits: refine by the flip
            a_sign = "+" if delta.members == (0,) else "-"
            for b_sign, b_eig in (("+", 1), ("-", p - 1)):
                eig = Subspace(left_kernel((B - b_eig * identity(module.dim, p)) % p, p), p, module.dim)
                part = space.intersect(eig)
                if part.dim == 0:
                    continue
                label = {
                    ("+", "+"): "chi1",
                    ("+", "-"): "chi2",
                    ("-", "+"): "chi3",
                    ("-", "-"): "chi4",
                }[(a_sign, b_sign)]
                components.append(
                    IsotypicComponent(
                        labels=(label,),
                        subspace=part,
                        irreducible_dim=1,
                        multiplicity=part.dim,
                    )
                )
        else:
            ks = sorted({min(r, n - r) for r in delta.members})
            labels = tuple(f"xi{k}" for k in ks)
            d = delta.size
            assert space.dim % d == 0
            components.append(
                IsotypicComponent(
                    labels=labels,
                    subspace=space,
                    irreducible_dim=d,
                    multiplicity=space.dim // d,
                )
            )

    table = chartab.dihedral_table(n)
    matching = match_classes(table, group)
    expected = chartab.homology_character(group, table, matching, list(module.branch_classes))
    seen = {}
    for comp in components:
        for lab in comp.labels:
            seen[lab] = seen.get(lab, 0) + comp.multiplicity
    verify(seen == expected, f"kernel multiplicities {seen} differ from the character's {expected}")

    for comp in components:
        _endo_and_hom_dihedral(comp, module, group, n, factor_of)
    _verify_decomposition(components, module)
    return components


def decompose_module(module: HomologyModule) -> list[IsotypicComponent]:
    group = module.group
    tag = group.map.family.tag
    if tag in ("dihedron", "hosohedron"):
        return decompose_dihedral(module, group, group.map.family.param)
    return decompose_idempotent(module, group, table_for_group(group))


def _verify_decomposition(components: list[IsotypicComponent], module: HomologyModule) -> None:
    """Check that Q is the direct sum of the components.  The lattice checks
    its blocks one component at a time and relies on this for every sum, so
    it raises VerificationError rather than asserting."""
    total = Subspace.zero(module.p, module.dim)
    for comp in components:
        verify(comp.subspace.dim == comp.irreducible_dim * comp.multiplicity,
               f"{comp.label}: dimension is not irreducible dimension times multiplicity")
        before = total.dim
        total = total.add(comp.subspace)
        verify(total.dim == before + comp.subspace.dim, "components overlap")
    verify(total.dim == module.dim, "the components do not span Q")


# ---------------------------------------------------------------------------
# seeds, endomorphism fields, hom spaces

def _restrictions(space: Subspace, module: HomologyModule, elements) -> list[np.ndarray]:
    """Matrices R_g with B A_g = R_g B for the subspace basis B."""
    out = []
    for g in elements:
        moved = mat_mul(space.basis, module.matrices[g], module.p)
        r = moved[:, list(space.pivots)]
        verify(mat_mul(r, space.basis, module.p).tolist() == moved.tolist(),
               "the seed is not invariant")
        out.append(r)
    return out


def _endo_field(seed: Subspace, module: HomologyModule, group: GroupData) -> list[np.ndarray]:
    """Basis of E = End_G(W) for the irreducible seed W, identity first.

    The centre of F_pG maps onto the centre of its image End_E(W), which is
    E, so E is spanned by the class sums restricted to W.  That span is
    checked to be a field (commutative, nonzero basis elements invertible)
    and all of the commutant: with A = span{R_g}, the double centralizer
    theorem gives dim A * s = d^2 exactly when W is irreducible, which also
    rejects a reducible seed such as U+U."""
    p = module.p
    d = seed.dim
    _restrictions(seed, module, (group.gen_x, group.gen_z))
    # invariant under the generators, so under G: R_g is the pivot columns of B A_g
    cols = list(seed.pivots)
    restr = [mat_mul(seed.basis, a[:, cols], p) for a in module.matrices]
    sums = [identity(d, p)] + [sum(restr[g] for g in cls.members) % p for cls in group.classes]
    _, independent = rref(np.vstack([t.reshape(1, -1) for t in sums]).T, p)
    basis = [sums[i] for i in independent]
    s = len(basis)

    verify(independent[0] == 0, "the identity must come first in the endomorphism basis")
    for t in basis:
        for u in basis:
            verify(mat_mul(t, u, p).tolist() == mat_mul(u, t, p).tolist(),
                   "the endomorphism ring is not commutative")
    verify(all(rref(t, p)[1] == list(range(d)) for t in basis[1:]),
           "a nonzero endomorphism is not invertible")
    for g in (group.gen_x, group.gen_z):
        r = restr[g]
        verify(all(mat_mul(t, r, p).tolist() == mat_mul(r, t, p).tolist() for t in basis),
               "a class sum does not commute with the group")
    image = Subspace(np.vstack([r.reshape(1, -1) for r in restr]), p, d * d)
    verify(image.dim * s == d * d,
           f"the seed is not irreducible: rank {image.dim} of the group image, "
           f"field degree {s}, dimension {d}")
    return basis


def _hom_space(restrictions, module: HomologyModule, gens) -> np.ndarray:
    """All X with R_g X = X A_g, as vec rows."""
    p = module.p
    d = restrictions[0].shape[0]
    N = module.dim
    blocks = []
    for r, g in zip(restrictions, gens):
        A = module.matrices[g]
        m = np.kron(r, identity(N, p)) - np.kron(identity(d, p), A.T)
        blocks.append(m % p)
    system = np.vstack(blocks)
    return left_kernel(system.T, p)


def _e_basis_of_hom(sols, commutant, comp, module) -> list[np.ndarray]:
    """Greedy E-basis of the hom space from its F_p-basis."""
    p = module.p
    d = comp.seed.dim
    N = module.dim
    basis = []
    tracker = Subspace.zero(p, d * N)
    for row in sols:
        if tracker.contains(row):
            continue
        x = row.reshape(d, N)
        basis.append(x)
        images = [mat_mul(t, x, p).reshape(-1) for t in commutant]
        tracker = tracker.add(Subspace(as_matrix(images, p), p, d * N))
    verify(len(basis) * len(commutant) == sols.shape[0],
           f"{comp.label}: the hom space is not free over the endomorphism field")
    return basis


def _finish_component(comp, module, group, seed: Subspace) -> None:
    p = module.p
    gens = [group.gen_x, group.gen_z]
    comp.seed = seed
    verify(comp.subspace.contains_space(seed), f"{comp.label}: the seed leaves the component")
    restr = _restrictions(seed, module, gens)
    comp.commutant = _endo_field(seed, module, group)
    comp.endo_degree = len(comp.commutant)

    if comp.multiplicity == 1 and seed == comp.subspace:
        comp.hom_basis = [seed.basis]
    else:
        sols = _hom_space(restr, module, gens)
        verify(sols.shape[0] == comp.multiplicity * comp.endo_degree,
               f"{comp.label}: the hom space has the wrong dimension")
        comp.hom_basis = _e_basis_of_hom(sols, comp.commutant, comp, module)
        verify(len(comp.hom_basis) == comp.multiplicity,
               f"{comp.label}: the hom basis has the wrong length")

    if comp.multiplicity == 2 and module.central_matrix is not None:
        x1 = comp.hom_basis[0]
        partner = mat_mul(x1, module.central_matrix, p)
        images = [mat_mul(t, x1, p).reshape(-1) for t in comp.commutant]
        e_span = Subspace(as_matrix(images, p), p, x1.size)
        if not e_span.contains(partner.reshape(-1)):
            comp.hom_basis = [x1, partner]

    for x in comp.hom_basis:
        for r, g in zip(restr, gens):
            verify(mat_mul(r, x, p).tolist() == mat_mul(x, module.matrices[g], p).tolist(),
                   f"{comp.label}: a hom basis map is not equivariant")
        verify(comp.subspace.contains_space(Subspace(x, p, module.dim)),
               f"{comp.label}: a hom basis map leaves the component")


def _endo_and_hom(comp, module, group, table, matching) -> None:
    seed = _find_seed_idempotent(comp, module, group, table, matching)
    _finish_component(comp, module, group, seed)


def _find_seed_idempotent(comp, module, group, table, matching) -> Subspace:
    p = module.p
    if comp.multiplicity == 1:
        return comp.subspace
    if comp.irreducible_dim == 1:
        # scalar action on the whole isotypic: any vector spans a copy
        return Subspace(comp.subspace.basis[:1], p, module.dim)
    gen_mats = [module.matrices[group.gen_x], module.matrices[group.gen_z]]

    # a branch class carrying the character with multiplicity one embeds its
    # own isotypic part as a single irreducible
    for bc in module.branch_classes:
        H = stabilizer_H(group, bc)
        mults = {
            table.row_names[r]: chartab.multiplicity_by_H_average(table, r, H, group, matching)
            for r in range(len(table.rows))
        }
        if all(mults.get(lab, 0) == 1 for lab in comp.labels):
            rows = [
                module.puncture_class(i)
                for i, (cls, _) in enumerate(module.punctures)
                if cls == bc
            ]
            block_image = Subspace(as_matrix(rows, p), p, module.dim)
            w = comp.subspace.intersect(block_image)
            if w.dim == comp.irreducible_dim:
                return w

    # sums over a block system project into one irreducible
    for bc in module.branch_classes:
        count = len(group.class_perms(bc)[0])
        offset = module.punctures.index((bc, 0))
        gens = [group.class_perms(bc)[group.gen_x], group.class_perms(bc)[group.gen_z]]
        seen = set()
        for other in range(1, count):
            blocks = _minimal_blocks(gens, count, 0, other)
            key = tuple(sorted(map(tuple, blocks)))
            if key in seen or len(blocks) == 1:
                continue
            seen.add(key)
            for block in blocks:
                total = zeros((module.dim,), p)
                for i in block:
                    total = (total + module.puncture_class(offset + i)) % p
                projected = mat_mul(total.reshape(1, -1), comp.projector, p)
                if not projected.any():
                    continue
                w = spin(module, projected, gen_mats)
                if w.dim == comp.irreducible_dim:
                    return w

    # last resort: projections of standard basis vectors
    for i in range(module.dim):
        v = zeros((1, module.dim), p)
        v[0, i] = 1
        projected = mat_mul(v, comp.projector, p)
        if not projected.any():
            continue
        w = spin(module, projected, gen_mats)
        if w.dim == comp.irreducible_dim:
            return w
    raise AssertionError(f"no irreducible seed found for {comp.labels}")


def _minimal_blocks(gens, count: int, i: int, j: int) -> list[tuple[int, ...]]:
    """Finest G-invariant partition with i and j in one class."""
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack = [(i, j)]
    while stack:
        x, y = stack.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for g in gens:
            stack.append((g[x], g[y]))
    classes: dict[int, list[int]] = {}
    for x in range(count):
        classes.setdefault(find(x), []).append(x)
    return [tuple(sorted(v)) for v in classes.values()]


def _endo_and_hom_dihedral(comp, module, group, n, factor_of) -> None:
    seed = _find_seed_dihedral(comp, module, group, n, factor_of)
    _finish_component(comp, module, group, seed)
    # endo degree: e for a pair of Frobenius orbits, e/2 for a self-paired
    # one, 1 for the eigenvalue components
    if comp.irreducible_dim == 1:
        expected = 1
    else:
        gammas = [g for g in factor_of if set(g) <= set(_delta_of(comp, n))]
        e = len(gammas[0])
        expected = e if len(gammas) == 2 else e // 2
    verify(comp.endo_degree == expected,
           f"{comp.label}: endomorphism degree {comp.endo_degree}, expected {expected}")


def _delta_of(comp, n: int):
    ks = [int(lab[2:]) for lab in comp.labels if lab.startswith("xi")]
    members = set()
    for k in ks:
        members.add(k)
        members.add((n - k) % n)
    return tuple(sorted(members))


def _find_seed_dihedral(comp, module, group, n, factor_of) -> Subspace:
    p = module.p
    if comp.multiplicity == 1:
        return comp.subspace
    if comp.irreducible_dim == 1:
        return Subspace(comp.subspace.basis[:1], p, module.dim)

    a_elem, b_elem = dihedral_generators(group)
    A = module.matrices[a_elem]
    B = module.matrices[b_elem]
    delta = _delta_of(comp, n)
    gammas = sorted(g for g in factor_of if set(g) <= set(delta))
    gamma = gammas[0]
    kernel = left_kernel(poly_at_matrix(factor_of[gamma], A, p), p)
    v = kernel[0]
    if len(gammas) == 2:
        # paired orbits: v generates one e-dimensional half, the flip the other
        w = spin(module, v, [A])
        w = w.add(w.image(B))
    else:
        # self-paired: symmetrize so the flip preserves the a-span
        vb = mat_mul(v.reshape(1, -1), B, p)[0]
        sym = (v + vb) % p
        if not sym.any():
            sym = (v - vb) % p
        assert sym.any()
        w = spin(module, sym, [A])
        assert w.image(B) == w
    verify(w.dim == comp.irreducible_dim, f"{comp.label}: the seed has the wrong dimension")
    return w
