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
The work is per census, not per orbit: every table holds values in Z[zeta_n],
so the character values of every orbit reduce mod p by one product with the
powers of a primitive n-th root of unity, whose choice follows the table's
Gauss sum (``chartab.CharacterTable.gauss_sum``), every idempotent is one
slice of one product with the group matrices, their images go into RREF by
one elimination of the stack, and every class trace is one slice of one
more product.

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
with stabilizer H generates a quotient of Ind_H^G 1, which is a single
irreducible copy whenever the character has multiplicity one there.  The
candidates are the projection of the first puncture of each branch class,
then the projected sums over the blocks of each minimal block system (the
punctures of a coarser permutation module).  The submodule a candidate
generates is the RREF of its images under every group matrix, one product
and one elimination, and the seed is the first of the irreducible
dimension.

E is the span of the class sums of G restricted to W: the centre of F_pG
maps onto the centre of End_E(W), which is E (Wedderburn).  The span is
checked to be a commutative ring of units commuting with the generators,
and to be all of End_G(W) by the double centralizer count
dim span{R_g} * s = d^2, which fails for a reducible W.  The equivariant maps
W -> Q are spanned by the group averages sum_g R_{g^-1}[:, 0] (v A_g) over v
in Q; their dimension, their freeness over E and the equivariance of the
chosen basis are checked.  The E-basis is read off one elimination of the
E-multiples of every F_p-basis row, in row order.

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
from .gf import first_root_of_unity, root_of_unity
from .linalg import (as_matrix, echelon, eliminate, identity, label_orbits, mat_mul, mod,
                     orbit_labels, rref)
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


# ---------------------------------------------------------------------------
# central idempotents

def _class_values_mod_p(table: CharacterTable, orbits, p: int):
    """Each orbit's summed character per table column, reduced into F_p,
    as an (orbits, columns) array, and per orbit whether every value lies
    in F_p.

    The values are summed over each orbit as coefficient rows in Z[zeta_n],
    which one product with the (n, e) powers of a primitive n-th root of
    unity w sends to F_{p^e}; a value lies in F_p when its image has no
    coordinate past the first.  A table with a Gauss sum sqrt(d) takes the
    first root gf finds and, where that sends sqrt(d) to an odd root in
    F_p, its square: zeta -> zeta^2 negates sqrt(d), as 2 is not a square
    mod 3 or mod 5.  The others take the w of gf.root_of_unity."""
    n = table.rows[0][0].n
    if table.gauss_sum is None:
        field, powers = root_of_unity(n, p)
    else:
        field, powers = first_root_of_unity(n, p)
        root = mat_mul(as_matrix(table.gauss_sum.coeffs, p), powers, p)[0]
        if not (root[1:] != 0).any() and root[0] % 2:
            powers = powers[2 * np.arange(n) % n]
    # one coefficient row per distinct entry
    distinct: dict = {}
    index = np.array([[distinct.setdefault(v, len(distinct)) for v in row] for row in table.rows])
    coeffs = np.array([v.coeffs for v in distinct], dtype=np.int64)
    sums = np.stack([coeffs[index[list(rows)]].sum(axis=0) for rows in orbits])
    images = mat_mul(as_matrix(sums.reshape(-1, n), p), powers, p)
    images = images.reshape(len(orbits), table.n_cols, field.e)
    # compared before reducing: .any() of a dtype=object array may hand back
    # an entry rather than a bool on older numpy
    return images[..., 0], ~(images[..., 1:] != 0).any(axis=(1, 2))


def _idempotents(module: HomologyModule, values_by_class: np.ndarray, degrees) -> np.ndarray:
    """(degree / |G|) sum_g chi(g^-1) A_g for each row chi of values_by_class
    (orbits, classes), as one product of the scaled coefficient stack with
    the group matrices; (orbits, dim, dim).  The product is stacked over the
    rows of the group matrices, so they are converted chunk by chunk."""
    group = module.group
    p = module.p
    scale = np.array([d * pow(group.order, -1, p) % p for d in degrees], dtype=module.dtype)
    values = np.asarray(values_by_class, dtype=module.dtype)
    coeffs = mod(values[:, group.class_of[group.inverse]] * scale[:, None], p)
    stack = mat_mul(coeffs, module.matrices.transpose(1, 0, 2), p)
    return np.ascontiguousarray(stack.transpose(1, 0, 2))


def _class_traces(module: HomologyModule, idempotents: np.ndarray) -> np.ndarray:
    """tr(A_g e) for each idempotent e of the stack and the representative g
    of each class, (idempotents, classes).  The trace is the sum over i of
    row i of A_g times column i of e, so the product is stacked over i and
    each inner length is dim."""
    reps = [cls.rep for cls in module.group.classes]
    rows = mat_mul(idempotents.transpose(2, 0, 1), module.matrices.transpose(1, 2, 0), module.p,
                   columns=reps)
    return mod(rows.sum(axis=0), module.p)


def decompose_idempotent(
    module: HomologyModule, group: GroupData, table: CharacterTable
) -> list[IsotypicComponent]:
    return _finish_decomposition(_isotypic_components(module, group, table), module)


def _isotypic_components(
    module: HomologyModule, group: GroupData, table: CharacterTable
) -> list[IsotypicComponent]:
    """The components cut out by the central idempotents of the orbits,
    with every idempotent checked."""
    p = module.p
    matching = match_classes(table, group)
    expected = chartab.homology_character(group, table, matching, list(module.branch_classes))
    orbits = chartab.p_power_orbits(table, group, matching, p)
    labels = [tuple(table.row_names[i] for i in rows) for rows in orbits]
    values, in_prime_field = _class_values_mod_p(table, orbits, p)

    mults, degrees = [], []
    for rows, names, valued in zip(orbits, labels, in_prime_field):
        label = "+".join(names)
        verify(valued, f"{label}: the summed character is not F_p-valued")
        found = {expected.get(table.row_names[i], 0) for i in rows}
        verify(len(found) == 1, f"{label}: the merged characters have multiplicities {sorted(found)}")
        mults.append(found.pop())
        # the p-power map fixes the identity class, so the merged characters
        # share one degree; the idempotent of the orbit is the sum of theirs
        degrees.append(table.degree(rows[0]))
    by_class = values[:, np.argsort(matching)]
    idempotents = _idempotents(module, by_class, degrees)
    echelons = idempotents.copy()
    pivots = eliminate(echelons, p)

    components: list[IsotypicComponent] = []
    kept = []
    for o, (rows, names, mult) in enumerate(zip(orbits, labels, mults)):
        label = "+".join(names)
        basis, basis_pivots = echelon(echelons[o], pivots[o])
        dim = degrees[o] * len(rows)
        verify(len(basis) == dim * mult, f"{label}: dimension {len(basis)} is not {dim} times {mult}")
        if mult == 0:
            continue
        comp_space = Subspace(basis, p, module.dim, _pivots=basis_pivots)
        verify(module.invariant_under_group(comp_space.basis, comp_space.pivots),
               f"{label}: not invariant")
        kept.append(o)
        components.append(
            IsotypicComponent(
                labels=names,
                subspace=comp_space,
                irreducible_dim=dim,
                multiplicity=mult,
                endo_degree=len(rows),
                projector=idempotents[o],
            )
        )

    projectors = idempotents[kept]
    # trace of g on the isotypic equals multiplicity times character value
    wrong = _class_traces(module, projectors) != mod(np.array(mults)[kept, None] * by_class[kept], p)
    for comp, classes in zip(components, wrong):
        verify(not classes.any(), f"{comp.label}: trace on class {classes.argmax()} is not the "
                                  "multiplicity times the character")
    verify((mod(projectors.sum(axis=0), p) == identity(module.dim, p)).all(),
           "the idempotents do not sum to 1")
    # e_i e_j is e_i for j = i and 0 otherwise: e_i times every e_j side by side
    columns = projectors.transpose(1, 0, 2).reshape(module.dim, -1)
    for i, comp in enumerate(components):
        blocks = mat_mul(comp.projector, columns, p).reshape(module.dim, len(kept), module.dim)
        verify((blocks[:, i] == comp.projector).all(), f"{comp.label}: e is not idempotent")
        blocks[:, i] = 0
        verify(not blocks.any(), "two idempotents are not orthogonal")
    return components


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


def _e_multiples(commutant, maps: np.ndarray, p: int) -> np.ndarray:
    """t x for every element t of the E-basis, identity first, and every map
    x of a (k, d, N) stack, as one (k, s, d*N) product."""
    basis = np.stack(commutant)
    return mat_mul(basis, maps[:, None], p).reshape(len(maps), len(basis), -1)


def _e_basis_of_hom(sols, commutant, comp, module) -> list[np.ndarray]:
    """E-basis of the hom space from its F_p-basis: the rows whose identity
    multiple gets a pivot when the E-multiples of every row, in row order,
    go through one elimination.  Such a row leaves the span of the multiples
    before it, which is the E-span of the rows kept before it, since every
    row not kept lies in that E-span."""
    p = module.p
    maps = sols.reshape(len(sols), comp.seed.dim, module.dim)
    stack = _e_multiples(commutant, maps, p).reshape(1, -1, sols.shape[1])
    kept = eliminate(stack, p)[0, ::len(commutant)] < sols.shape[1]
    verify(np.count_nonzero(kept) * len(commutant) == len(sols),
           f"{comp.label}: the hom space is not free over the endomorphism field")
    return list(maps[kept])


def _finish_component(comp: IsotypicComponent, module: HomologyModule, seed: Subspace) -> None:
    p = module.p
    group = module.group
    comp.seed = seed
    verify(comp.subspace.contains_space(seed), f"{comp.label}: the seed leaves the component")
    restr = _restrictions(seed, module)
    comp.commutant = _endo_field(restr, group, p)
    verify(comp.endo_degree == len(comp.commutant),
           f"{comp.label}: endomorphism degree {len(comp.commutant)}, expected {comp.endo_degree}")

    if comp.multiplicity == 1:
        # what _hom_space gives, without its solve: hosohedron:95 p=7 runs 1.4x longer without it
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
        # a second E-direction when it gets a pivot after the E-multiples of x1
        stack = np.concatenate([_e_multiples(comp.commutant, x1[None], p)[0], partner.reshape(1, -1)])
        if eliminate(stack[None], p)[0, -1] < x1.size:
            comp.hom_basis = [x1, partner]

    for x in comp.hom_basis:
        for g in (group.gen_x, group.gen_z):
            verify(mat_mul(restr[g], x, p).tolist() == mat_mul(x, module.matrices[g], p).tolist(),
                   f"{comp.label}: a hom basis map is not equivariant")
        verify(comp.subspace.contains_space(Subspace(x, p, module.dim)),
               f"{comp.label}: a hom basis map leaves the component")


def _find_seed(comp: IsotypicComponent, module: HomologyModule) -> Subspace:
    """An irreducible copy inside the component: the first candidate from
    _seed_vectors whose submodule has the irreducible dimension.  The
    submodule a vector v generates is the row space of its images v A_g
    under every group element: one product with the stacked group matrices,
    put in RREF by one elimination."""
    p, dim = module.p, module.dim
    if comp.multiplicity == 1:
        return comp.subspace
    for v in _seed_vectors(comp, module):
        images = mat_mul(v, module.matrices, p)[None]
        pivots = eliminate(images, p)[0]
        if np.count_nonzero(pivots < dim) == comp.irreducible_dim:
            basis, basis_pivots = echelon(images[0], pivots)
            return Subspace(basis, p, dim, _pivots=basis_pivots)
    raise VerificationError(f"{comp.label}: no puncture projection generates an irreducible copy")


def _seed_vectors(comp: IsotypicComponent, module: HomologyModule):
    """The projection of the first puncture of each branch class, then the
    projected sums over the blocks of each minimal block system."""
    group = module.group
    offsets = [module.punctures.index((bc, 0)) for bc in module.branch_classes]
    for offset in offsets:
        yield comp.punctures[offset]
    for bc, offset in zip(module.branch_classes, offsets):
        perms = group.actions[bc]
        seen = set()
        for other in range(1, perms.shape[1]):
            blocks = _minimal_blocks(group, perms, other)
            key = tuple(blocks)
            if key in seen or len(blocks) == 1:
                continue
            seen.add(key)
            for block in blocks:
                yield comp.punctures[[offset + i for i in block]].sum(axis=0) % module.p


def _minimal_blocks(group: GroupData, perms: np.ndarray, j: int) -> list[tuple[int, ...]]:
    """The finest G-invariant partition of the points of perms, a (|G|,
    count) action, with 0 and j in one block, its blocks in order of their
    least point.

    The block of 0 is its orbit under K = <G_0, g>, for any g taking 0 to j,
    and K is that block's setwise stabilizer (Dixon and Mortimer,
    "Permutation Groups", Theorem 1.5A).  So the elements taking 0 into one
    block form one orbit of left multiplication by K, h -> k*h, which is the
    column dart_perms[:, k], and each point takes the label of that orbit."""
    image = perms[:, 0]
    movers = np.flatnonzero(image == 0).tolist() + [int(np.argmax(image == j))]
    labels = np.empty(perms.shape[1], dtype=np.intp)
    labels[image] = orbit_labels(group.dart_perms[:, movers].T)
    return sorted(label_orbits(labels))
