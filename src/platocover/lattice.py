"""Submodule lattice enumeration and the covering census.

Submodules of an isotypic component with multiplicity m over the endomorphism
field E = F_{p^s} correspond to E-subspaces of E^m; the full lattice is the
set of direct sums of one choice per component.  Each submodule L yields a
covering descriptor: codimension, effective branch set, map type, genus,
the character of Q/L, and regularity under the reflection.

Everything but L itself is fixed by the choices, so the checks and flags are
tabulated once per choice: each block's dimension and invariance, which
branch classes it swallows, and which choice the reflection maps it onto.
The lattice is walked depth-first over the menus in ascending size, so the
largest menu comes last.  Each partial sum on the path is merged with the
whole next menu at once, by one batched direct-sum merge
(linalg.merge_direct_sums) per block rank; at the last menu the merged bases
are packed straight into keys.  Each L is kept only as its packed key
(Subspace.key), which sorts exactly as the nested tuples of its basis rows.
The descriptor is assembled from the tables and rebuilds L from the key,
with no row reduction, only when a reader asks for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .decompose import IsotypicComponent, decompose_module
from .errors import verify
from .homology import BRANCH_ORDER, HomologyModule, Subspace, build_homology, pack_rows
from .linalg import mat_mul, merge_direct_sums, reduce_rows, zeros
from .maps import MapFamily, build_group, build_map, parse_family

# enumerating E-subspaces of E^m touches all q = p^s field elements; every
# multiplicity >= 2 component in scope has a tiny endomorphism field
_FIELD_CAP = 1 << 14
# every submodule is listed; the largest lattice in scope is dodecahedron
# vertices,faces at p = 11 with 76,832 submodules
_LATTICE_CAP = 1 << 18
# the group is held as |G| dart permutations of |G| darts and Q's action as
# |G| matrices of dim^2 entries; the largest case in scope, hosohedron:95
# faces, needs 190 * (190 + 94^2) = 1,714,940 entries.  Under the cap |G|
# and dim stay below linalg._DIM_CAP, which keeps the sums over the stacked
# group matrices exact
_ACTION_CAP = 1 << 23


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subspace_count(m: int, q: int) -> int:
    return sum(gaussian_binomial(m, k, q) for k in range(m + 1))


@dataclass(eq=False)
class ComponentChoice:
    component: IsotypicComponent
    k: int
    lam: str | None  # projective label for a line in a multiplicity-2 component
    ident: int  # position in the concatenated menus of all components
    block: Subspace = field(repr=False)
    swallowed: tuple[str, ...] = ()  # branch classes whose punctures all project into block
    mirror: int | None = None  # ident of the choice whose block is block's reflection


@dataclass
class CoveringDescriptor:
    branch_classes: tuple[str, ...]
    p: int
    key: tuple  # Subspace.key() of L
    c: int
    effective_branch: tuple[str, ...]
    cover_type: tuple[int, int, int]
    genus: int
    character: dict[str, int]
    regular: bool
    choices: tuple[ComponentChoice, ...]
    mate_key: tuple | None = None  # ident of the mirrored combination, for chirals
    mate_index: int | None = None

    @property
    def L(self) -> Subspace:
        """The submodule, rebuilt from its key with no row reduction."""
        return Subspace.from_key(self.key, self.p)

    @property
    def ident(self) -> tuple:
        """The choice idents of the combination, in component order."""
        return tuple(ch.ident for ch in self.choices)

    @property
    def type_string(self) -> str:
        x_ord, y_ord, z_ord = self.cover_type
        if y_ord == 2:
            return "{%d,%d}" % (z_ord, x_ord)
        return "(%d,%d,%d)" % (x_ord, y_ord, z_ord)

    @property
    def character_string(self) -> str:
        parts = []
        for label, mult in sorted(self.character.items()):
            parts.append(label if mult == 1 else f"{mult}*{label}")
        return "+".join(parts) if parts else "0"

    def sort_key(self) -> tuple:
        return (self.c, self.genus, self.character_string, self.key)


def _field_elements(s: int, p: int):
    """Coordinate vectors of F_{p^s} in lexicographic order, zero first."""
    return list(itertools.product(range(p), repeat=s))


def _coord_matrix(coords, commutant, p: int) -> np.ndarray:
    d = commutant[0].shape[0]
    out = zeros((d, d), p)
    for c, t in zip(coords, commutant):
        if c:
            out = (out + c * t) % p
    return out


def e_subspaces(m: int, s: int, p: int):
    """All E-subspaces of E^m as canonical RREF row tuples over E.

    Each row is an m-tuple of coordinate vectors of length s; pivot entries
    are the field identity, entries above pivots vanish.
    """
    q = p**s
    one = tuple([1] + [0] * (s - 1))
    zero = tuple([0] * s)
    if m == 1:
        # only the zero subspace and the full line; no field enumeration,
        # which matters when E is large
        return [(0, ()), (1, ((one,),))]
    _check_field(m, s, p)
    elements = _field_elements(s, p)
    out = [(0, ())]
    for k in range(1, m + 1):
        for pivots in itertools.combinations(range(m), k):
            free = [
                (i, j)
                for i in range(k)
                for j in range(m)
                if j > pivots[i] and j not in pivots
            ]
            for assignment in itertools.product(elements, repeat=len(free)):
                rows = [[zero] * m for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = one
                for (i, j), val in zip(free, assignment):
                    rows[i][j] = val
                out.append((k, tuple(tuple(r) for r in rows)))
    assert len(out) == subspace_count(m, q)
    return out


def _check_field(m: int, s: int, p: int) -> None:
    if m > 1 and p**s > _FIELD_CAP:
        raise ValueError(f"endomorphism field of {p}^{s} = {p**s} elements exceeds the "
                         f"enumeration cap of {_FIELD_CAP}")


def _check_lattice_size(components: list[IsotypicComponent], p: int) -> None:
    """Reject, before any menu is built, a field or a lattice too large to
    enumerate; the lattice size is the product of the menu sizes."""
    size = 1
    for comp in components:
        _check_field(comp.multiplicity, comp.endo_degree, p)
        size *= subspace_count(comp.multiplicity, p**comp.endo_degree)
    if size > _LATTICE_CAP:
        raise ValueError(f"the lattice has {size} submodules, over the enumeration cap "
                         f"of {_LATTICE_CAP}")


def _check_map_size(fam: MapFamily, branch_classes) -> None:
    """Reject, before the map is built, a group or an action on Q too large
    to hold.  The map {n, m} has |G| = 4nm / (2n + 2m - nm) darts, and |G|/m
    vertices, |G|/2 edges and |G|/n faces."""
    order = 4 * fam.n * fam.m // (2 * (fam.n + fam.m) - fam.n * fam.m)
    count = {"vertices": order // fam.m, "edges": order // 2, "faces": order // fam.n}
    dim = sum(count[bc] for bc in BRANCH_ORDER if bc in branch_classes) - 1
    entries = order * (order + dim * dim)
    if entries > _ACTION_CAP:
        raise ValueError(f"{fam.name} branched at {','.join(branch_classes)} needs {entries} "
                         f"entries for its group and its action on Q, over the cap of "
                         f"{_ACTION_CAP}")


def _lambda_label(rows, s: int) -> str | None:
    """Projective parameter of a line in E^2, with the first hom basis
    element at infinity."""
    if len(rows) != 1:
        return None
    row = rows[0]
    one = tuple([1] + [0] * (s - 1))
    if row[0] == one:
        lam = row[1]
    else:
        assert row[0] == tuple([0] * s)
        return "inf"
    if s == 1:
        return str(lam[0])
    return "(" + ",".join(map(str, lam)) + ")"


def _choice_block(comp: IsotypicComponent, rows, module: HomologyModule) -> Subspace:
    """The submodule picked inside one component by RREF rows over E."""
    p = module.p
    if not rows:
        return Subspace.zero(p, module.dim)
    blocks = []
    for row in rows:
        psi = zeros(comp.hom_basis[0].shape, p)
        for coords, x in zip(row, comp.hom_basis):
            if any(coords):
                psi = (psi + mat_mul(_coord_matrix(coords, comp.commutant, p), x, p)) % p
        blocks.append(psi)
    return Subspace(np.vstack(blocks), p, module.dim)


def component_menus(
    components: list[IsotypicComponent], module: HomologyModule
) -> list[list[ComponentChoice]]:
    """Every choice of every component with its block, checks and flags.

    Everything a covering descriptor needs beyond L is fixed per choice, so
    it is worked out here once per choice rather than once per submodule.
    """
    menus = []
    idents = itertools.count()
    for comp in components:
        menu = []
        for k, rows in e_subspaces(comp.multiplicity, comp.endo_degree, module.p):
            lam = _lambda_label(rows, comp.endo_degree) if comp.multiplicity == 2 else None
            block = _choice_block(comp, rows, module)
            verify(block.dim == k * comp.irreducible_dim,
                   f"{comp.label}: a choice of E-rank {k} has dimension {block.dim}")
            verify(module.invariant_under_group(block), f"{comp.label}: a choice is not invariant")
            menu.append(ComponentChoice(comp, k, lam, next(idents), block))
        verify(len({ch.block.key() for ch in menu}) == len(menu),
               f"{comp.label}: two choices give the same submodule")
        verify(menu[-1].k == comp.multiplicity and menu[-1].block == comp.subspace,
               f"{comp.label}: the full choice does not rebuild the component")
        menus.append(menu)
    _mark_swallowed(menus, components, module)
    _pair_mirrors(menus, components, module)
    return menus


def _mark_swallowed(menus, components, module: HomologyModule) -> None:
    """Record on each choice the branch classes whose punctures all project
    into its block.  Q is the direct sum of the components, so a puncture lies
    in L = sum of blocks exactly when each of its projections, stored on the
    component by decompose, lies in its block."""
    p = module.p
    rows_of = {
        bc: [i for i, (cls, _) in enumerate(module.punctures) if cls == bc]
        for bc in module.branch_classes
    }
    for comp, menu in zip(components, menus):
        for bc, rows in rows_of.items():
            for ch in menu:
                residue = reduce_rows(ch.block.basis, ch.block.pivots, comp.punctures[rows], p)
                inside = {not row.any() for row in residue}
                verify(len(inside) == 1, "branch effectiveness must be constant on an orbit")
                if inside.pop():
                    ch.swallowed += (bc,)


def _pair_mirrors(menus, components, module: HomologyModule) -> None:
    """Point each choice at the choice its block is mapped onto by the
    reflection, which permutes the components.  All zero blocks are equal, so
    a zero choice goes to the zero choice of its component's mirror."""
    R = module.reflection_matrix
    comp_of = {comp.subspace.key(): j for j, comp in enumerate(components)}
    for comp, menu in zip(components, menus):
        j = comp_of.get(comp.subspace.image(R).key())
        verify(j is not None, f"the reflection maps {comp.label} onto no component")
        targets = {ch.block.key(): ch.ident for ch in menus[j] if ch.k}
        for ch in menu:
            if ch.k == 0:
                ch.mirror = menus[j][0].ident
                continue
            ch.mirror = targets.get(ch.block.image(R).key())
            verify(ch.mirror is not None,
                   f"the reflection maps a choice of {comp.label} onto no choice "
                   f"of {components[j].label}")


def enumerate_submodules(
    components: list[IsotypicComponent], module: HomologyModule
) -> list[tuple[tuple, tuple[ComponentChoice, ...]]]:
    """Every G-invariant submodule of Q as its key, with its per-component
    coordinates.

    Every block is checked invariant, of the right dimension and distinct
    within its component, and the components form a direct sum, so every sum
    of blocks is a distinct submodule of the expected dimension.  The menus
    are walked depth-first: each partial sum on the current path is merged
    with the whole next menu in one batch per block rank, which checks again
    that each of those sums is direct, and only the path's partial sums and
    the current batches are held.  At the last menu the merged bases are
    packed straight into keys.
    """
    _check_lattice_size(components, module.p)
    menus = component_menus(components, module)
    p, dim = module.p, module.dim
    # the smallest menus go first and the largest last, so the merges above
    # the last level, one batch per prefix and block rank, number only the
    # product of the smaller menus, and each last batch is the largest menu
    order = sorted(range(len(menus)), key=lambda i: len(menus[i]))
    position = [order.index(i) for i in range(len(menus))]
    stacks = []
    for i in order:
        by_rank = {}
        for ch in menus[i]:
            by_rank.setdefault(ch.k, []).append(ch)
        stacks.append([(group, np.stack([ch.block.basis for ch in group]))
                       for group in by_rank.values()])
    last = len(order) - 1
    out = []

    def walk(depth: int, L: Subspace, picks: tuple) -> None:
        for group, blocks in stacks[depth]:
            bases, pivots = merge_direct_sums(L.basis, L.pivots, blocks, p)
            if depth == last:
                packed = pack_rows(bases, p)
                size = len(packed) // len(group)
                for b, ch in enumerate(group):
                    combo = picks + (ch,)
                    out.append(((dim, packed[b * size:(b + 1) * size]),
                                tuple(combo[n] for n in position)))
            else:
                for b, ch in enumerate(group):
                    walk(depth + 1, Subspace(bases[b], p, dim, _pivots=pivots[b].tolist()),
                         picks + (ch,))

    walk(0, Subspace.zero(p, dim), ())
    return out


def describe_covering(
    key: tuple,
    module: HomologyModule,
    choices: tuple[ComponentChoice, ...],
) -> CoveringDescriptor:
    """The descriptor of the covering given by L = the sum of the choices'
    blocks, with key = L.key(), assembled from the per-choice tables."""
    group = module.group
    p = module.p
    c = module.dim - sum(ch.block.dim for ch in choices)
    assert c > 0, "the full module is not a proper submodule"

    effective = tuple(
        bc for bc in module.branch_classes if not all(bc in ch.swallowed for ch in choices)
    )
    B = sum(group.class_perms(bc).shape[1] for bc in effective)

    genus = 1 - p**c + (p - 1) * p ** (c - 1) * B // 2
    assert genus >= 0

    dm = group.map
    cover_type = (
        dm.m * (p if "vertices" in effective else 1),
        2 * (p if "edges" in effective else 1),
        dm.n * (p if "faces" in effective else 1),
    )

    character = {}
    for ch in choices:
        rem = ch.component.multiplicity - ch.k
        if rem:
            character[ch.component.label] = rem

    ident = tuple(ch.ident for ch in choices)
    mirrored = tuple(sorted(ch.mirror for ch in choices))
    regular = mirrored == ident

    return CoveringDescriptor(
        branch_classes=module.branch_classes,
        p=p,
        key=key,
        c=c,
        effective_branch=effective,
        cover_type=cover_type,
        genus=genus,
        character=character,
        regular=regular,
        choices=choices,
        mate_key=None if regular else mirrored,
    )


@dataclass
class Census:
    family: MapFamily
    branch_classes: tuple[str, ...]
    p: int
    coverings: list[CoveringDescriptor]
    components: list[IsotypicComponent]
    module: HomologyModule = field(repr=False)

    @property
    def total(self) -> int:
        return len(self.coverings)

    @property
    def regular_count(self) -> int:
        return sum(1 for d in self.coverings if d.regular)

    @property
    def chiral_count(self) -> int:
        return sum(1 for d in self.coverings if not d.regular)

    @property
    def dimension_multiset(self) -> list[int]:
        return sorted(d.c for d in self.coverings)


def census(fam: MapFamily | str, branch_classes, p: int) -> Census:
    if isinstance(fam, str):
        fam = parse_family(fam)
    _check_map_size(fam, branch_classes)
    group = build_group(build_map(fam))
    module = build_homology(group, branch_classes, p)
    components = decompose_module(module)
    submodules = enumerate_submodules(components, module)

    coverings = []
    for key, combo in submodules:
        if all(ch.k == ch.component.multiplicity for ch in combo):
            continue  # the full module
        coverings.append(describe_covering(key, module, combo))
    coverings.sort(key=lambda d: d.sort_key())

    index_of = {d.ident: i for i, d in enumerate(coverings)}
    for i, d in enumerate(coverings):
        if d.regular:
            continue
        j = index_of.get(d.mate_key)
        verify(j is not None and j != i and coverings[j].mate_key == d.ident,
               "chirality must be an involution")
        mate = coverings[j]
        verify((mate.c, mate.genus, mate.cover_type) == (d.c, d.genus, d.cover_type),
               "a chiral pair must share codimension, genus and type")
        d.mate_index = j

    return Census(
        family=fam,
        branch_classes=module.branch_classes,
        p=p,
        coverings=coverings,
        components=components,
        module=module,
    )
