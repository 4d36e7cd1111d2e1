"""Isotypic decomposition of the homology module.

One backend serves every rotation group.  The rows of the character table
merge into the orbits of the p-power map chi -> (g -> chi(g^p))
(``chartab.p_power_orbits``): the conjugate pairs of A4 and A5 where F_p
lacks the square root, and for D_n the coset orbits of the exponents of the
rotation's eigenvalues.  Each orbit sums to an F_p-valued irreducible
character, whose central idempotent mod p projects Q onto its isotypic
component.  Each idempotent is checked to be idempotent, with an invariant
image of the predicted dimension and class traces, and the idempotents to be
orthogonal and to sum to 1.  The orbit length is the degree s of the
endomorphism field E = F_{p^s}, which the field found below must match.

The components then go through one tail.  It checks that Q is the direct sum
of the components, stores on each component the projection of every puncture
class (``comp.punctures``: the puncture classes times the component's central
idempotent, which projects onto it along the others; the lattice reads them to
tell which branch classes a block swallows), and equips each component with a
seed irreducible W, its endomorphism field E (a basis of commuting matrices on
W), and an E-basis of the equivariant maps W -> Q.  These are the ingredients
the submodule lattice is enumerated from.  Every sum over G is one contraction
over the stacked group matrices of the module.

The seed search is the same for every group.  Q is a quotient of the
permutation modules on the branch points, so the projection of a puncture
with stabilizer H spins to a quotient of Ind_H^G 1, which is a single
irreducible copy whenever the character has multiplicity one there.  The
search spins the projection of the first puncture of each branch class, then
the projected sums over the blocks of each minimal block system (the
punctures of a coarser permutation module), and takes the first spin of the
irreducible dimension.

E is the span of the class sums of G restricted to W: the centre of F_pG
maps onto the centre of End_E(W), which is E (Wedderburn).  The span is
checked to be a commutative ring of units commuting with the generators,
and to be all of End_G(W) by the double centralizer count
dim span{R_g} * s = d^2, which fails for a reducible W.  The equivariant maps
W -> Q are spanned by the group averages sum_g R_{g^-1}[:, 0] (v A_g) over v
in Q; their dimension, their freeness over E and the equivariance of the
chosen basis are checked.

The consistency checks raise VerificationError, so they hold under
``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import chartab
from .chartab import CharacterTable, match_classes, table_for_group
from .errors import VerificationError, verify
from .homology import HomologyModule, Subspace
from .linalg import as_matrix, eliminate, identity, mat_mul, rref, zeros
from .maps import GroupData


@dataclass
class IsotypicComponent:
    labels: tuple[str, ...]
    subspace: Subspace
    irreducible_dim: int
    multiplicity: int
    endo_degree: int  # the number of merged characters, checked against the field found
    seed: Subspace | None = None
    hom_basis: list = field(default_factory=list)
    commutant: list = field(default_factory=list)
    projector: np.ndarray | None = None
    # row i is the projection of puncture class i into the component
    punctures: np.ndarray | None = field(default=None, repr=False)

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
# central idempotents

def _class_values_mod_p(table: CharacterTable, rows, p: int):
    """Values of the summed characters per table column, in F_p; None when a
    value does not reduce into the prime field."""
    first, rest = table.rows[rows[0]], [table.rows[r] for r in rows[1:]]
    return [sum((row[col] for row in rest), first[col]).mod_p(p) for col in range(table.n_cols)]


def _idempotent_matrix(module: HomologyModule, values_by_class, degree: int) -> np.ndarray:
    """(degree / |G|) sum_g chi(g^-1) A_g, as one product of the scaled
    coefficients with the stacked group matrices."""
    group = module.group
    p = module.p
    scale = degree * pow(group.order, -1, p) % p
    coeffs = np.asarray(values_by_class, dtype=module.dtype)[group.class_of[group.inverse]] * scale % p
    return mat_mul(coeffs, module.matrices.reshape(group.order, -1), p).reshape(module.dim, module.dim)


def decompose_idempotent(
    module: HomologyModule, group: GroupData, table: CharacterTable
) -> list[IsotypicComponent]:
    p = module.p
    matching = match_classes(table, group)
    col_of = chartab.column_of_class(matching)
    expected = chartab.homology_character(group, table, matching, list(module.branch_classes))

    components: list[IsotypicComponent] = []
    for rows in chartab.p_power_orbits(table, group, matching, p):
        labels = tuple(table.row_names[i] for i in rows)
        label = "+".join(labels)
        values = _class_values_mod_p(table, rows, p)
        verify(None not in values, f"{label}: the summed character is not F_p-valued")
        mults = {expected.get(table.row_names[i], 0) for i in rows}
        verify(len(mults) == 1,
               f"{label}: the merged characters have multiplicities {sorted(mults)}")
        mult = mults.pop()
        # the p-power map fixes the identity class, so the merged characters
        # share one degree; the idempotent of the orbit is the sum of theirs
        degree = table.degree(rows[0])
        by_class = [values[col_of[cid]] for cid in range(len(group.classes))]
        e = _idempotent_matrix(module, by_class, degree)
        comp_space = Subspace(e, p, module.dim)
        dim = degree * len(rows)
        verify(comp_space.dim == dim * mult,
               f"{label}: dimension {comp_space.dim} is not {dim} times {mult}")
        if mult == 0:
            continue

        verify(mat_mul(e, e, p).tolist() == e.tolist(), f"{label}: e is not idempotent")
        verify(module.invariant_under_group(comp_space.basis, comp_space.pivots),
               f"{label}: not invariant")
        # trace of g on the isotypic equals multiplicity times character
        # value; tr(A_g e) summed elementwise, as a matrix product per class
        # costs far more, and reduced first so the int64 sum cannot overflow
        for cid, cls in enumerate(group.classes):
            tr = int((module.matrices[cls.rep] * e.T % p).sum()) % p
            verify(tr == mult * values[col_of[cid]] % p,
                   f"{label}: trace on class {cid} is not the multiplicity times the character")

        components.append(
            IsotypicComponent(
                labels=labels,
                subspace=comp_space,
                irreducible_dim=dim,
                multiplicity=mult,
                endo_degree=len(rows),
                projector=e,
            )
        )

    total = zeros((module.dim, module.dim), p)
    for comp in components:
        total = (total + comp.projector) % p
    verify(total.tolist() == identity(module.dim, p).tolist(), "the idempotents do not sum to 1")
    for i, a in enumerate(components):
        for b in components[i + 1:]:
            verify(not mat_mul(a.projector, b.projector, p).any(),
                   "two idempotents are not orthogonal")

    return _finish_decomposition(components, module)


def decompose_module(module: HomologyModule) -> list[IsotypicComponent]:
    group = module.group
    return decompose_idempotent(module, group, table_for_group(group))


def _verify_decomposition(components: list[IsotypicComponent], module: HomologyModule) -> None:
    """Check that Q is the direct sum of the components.  The lattice checks
    its blocks one component at a time and relies on this for every sum, so
    it raises VerificationError rather than asserting."""
    for comp in components:
        verify(comp.subspace.dim == comp.irreducible_dim * comp.multiplicity,
               f"{comp.label}: dimension is not irreducible dimension times multiplicity")
    dims = sum(comp.subspace.dim for comp in components)
    _, pivots = rref(np.vstack([comp.subspace.basis for comp in components]), module.p)
    verify(len(pivots) == dims, "components overlap")
    verify(dims == module.dim, "the components do not span Q")


def _finish_decomposition(
    components: list[IsotypicComponent], module: HomologyModule
) -> list[IsotypicComponent]:
    """The tail once Q is split into labelled components: check the direct
    sum, store each component's puncture projections, and equip each
    component with its seed, endomorphism field and hom basis."""
    _verify_decomposition(components, module)
    for comp in components:
        # the central idempotent projects onto its component along the others
        comp.punctures = mat_mul(module.projection, comp.projector, module.p)
        _finish_component(comp, module, _find_seed(comp, module))
    return components


# ---------------------------------------------------------------------------
# seeds, endomorphism fields, hom spaces

def _restrictions(space: Subspace, module: HomologyModule) -> np.ndarray:
    """The matrices R_g with B A_g = R_g B for the subspace basis B, stacked
    in group order.  B is in RREF, so R_g is the pivot columns of B A_g once
    the space is checked invariant under the generators, hence under G.  The
    product gathers those columns of the group matrices chunk by chunk, so
    no copy of the whole stack's pivot columns is made."""
    verify(module.invariant_under_group(space.basis, space.pivots), "the seed is not invariant")
    return mat_mul(space.basis, module.matrices, module.p, columns=space.pivots)


def _endo_field(restr: np.ndarray, group: GroupData, p: int) -> list[np.ndarray]:
    """Basis of E = End_G(W) for the irreducible seed W, identity first, from
    the restrictions R_g of every group element to W.

    The centre of F_pG maps onto the centre of its image End_E(W), which is
    E, so E is spanned by the class sums restricted to W.  That span is
    checked to be a field (commutative, nonzero basis elements invertible)
    and all of the commutant: with A = span{R_g}, the double centralizer
    theorem gives dim A * s = d^2 exactly when W is irreducible, which also
    rejects a reducible seed such as U+U."""
    d = restr.shape[1]
    flat = restr.reshape(len(restr), d * d)
    members = (group.class_of == np.arange(len(group.classes))[:, None]).astype(restr.dtype)
    sums = np.concatenate([identity(d, p)[None], mat_mul(members, flat, p).reshape(-1, d, d)])
    _, independent = rref(sums.reshape(len(sums), -1).T, p)
    basis = sums[independent]
    s = len(basis)

    verify(independent[0] == 0, "the identity must come first in the endomorphism basis")
    products = mat_mul(basis[:, None], basis, p)
    verify((products == products.transpose(1, 0, 2, 3)).all(),
           "the endomorphism ring is not commutative")
    del products  # s^2 d^2 entries, not to be held while the group image is row reduced
    verify((eliminate(basis[1:].copy(), p) < d).all(), "a nonzero endomorphism is not invertible")
    gens = restr[[group.gen_x, group.gen_z]]
    verify((mat_mul(basis[:, None], gens, p) == mat_mul(gens, basis[:, None], p)).all(),
           "a class sum does not commute with the group")
    image = Subspace(flat, p, d * d)
    verify(image.dim * s == d * d,
           f"the seed is not irreducible: rank {image.dim} of the group image, "
           f"field degree {s}, dimension {d}")
    return list(basis)


def _hom_space(restr: np.ndarray, module: HomologyModule) -> np.ndarray:
    """RREF basis of Hom_G(W, Q) for the irreducible seed W, as vec rows of
    the d x dim matrices X with R_g X = X A_g.

    The group average X_v = sum_g R_{g^-1}[:, 0] (v A_g) is equivariant for
    every v in Q, and these span the hom space: averaging maps onto it, and
    the first coordinate function generates the dual of W, so averaging any
    X reduces to averaging ones whose only nonzero row is the first.  Over
    the basis v = e_i the averages are one product of those first columns
    with the stacked group matrices."""
    p = module.p
    first = restr[module.group.inverse, :, 0]
    averages = mat_mul(first.T, module.matrices.transpose(1, 0, 2), p)
    return rref(averages.reshape(module.dim, -1), p)[0]


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


def _finish_component(comp: IsotypicComponent, module: HomologyModule, seed: Subspace) -> None:
    p = module.p
    group = module.group
    comp.seed = seed
    verify(comp.subspace.contains_space(seed), f"{comp.label}: the seed leaves the component")
    restr = _restrictions(seed, module)
    comp.commutant = _endo_field(restr, group, p)
    verify(comp.endo_degree == len(comp.commutant),
           f"{comp.label}: endomorphism degree {len(comp.commutant)}, expected {comp.endo_degree}")

    if comp.multiplicity == 1 and seed == comp.subspace:
        comp.hom_basis = [seed.basis]
    else:
        sols = _hom_space(restr, module)
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
        for g in (group.gen_x, group.gen_z):
            verify(mat_mul(restr[g], x, p).tolist() == mat_mul(x, module.matrices[g], p).tolist(),
                   f"{comp.label}: a hom basis map is not equivariant")
        verify(comp.subspace.contains_space(Subspace(x, p, module.dim)),
               f"{comp.label}: a hom basis map leaves the component")


def _find_seed(comp: IsotypicComponent, module: HomologyModule) -> Subspace:
    """An irreducible copy inside the component: the first candidate from
    _seed_vectors that spins to the irreducible dimension."""
    p = module.p
    if comp.multiplicity == 1:
        return comp.subspace
    if comp.irreducible_dim == 1:
        # scalar action on the whole isotypic: any vector spans a copy
        return Subspace(comp.subspace.basis[:1], p, module.dim)
    group = module.group
    gens = [module.matrices[group.gen_x], module.matrices[group.gen_z]]
    for v in _seed_vectors(comp, module):
        if v.any():
            w = spin(module, v, gens)
            if w.dim == comp.irreducible_dim:
                return w
    raise VerificationError(f"{comp.label}: no puncture projection spins to an irreducible copy")


def _seed_vectors(comp: IsotypicComponent, module: HomologyModule):
    """The projection of the first puncture of each branch class, then the
    projected sums over the blocks of each minimal block system."""
    group = module.group
    offsets = [module.punctures.index((bc, 0)) for bc in module.branch_classes]
    for offset in offsets:
        yield comp.punctures[offset]
    for bc, offset in zip(module.branch_classes, offsets):
        perms = group.class_perms(bc)
        count = perms.shape[1]
        gens = perms[[group.gen_x, group.gen_z]].tolist()
        seen = set()
        for other in range(1, count):
            blocks = _minimal_blocks(gens, count, 0, other)
            key = tuple(sorted(blocks))
            if key in seen or len(blocks) == 1:
                continue
            seen.add(key)
            for block in blocks:
                yield comp.punctures[[offset + i for i in block]].sum(axis=0) % module.p


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
