"""Submodule lattice enumeration and the covering census.

Submodules of an isotypic component with multiplicity m over the endomorphism
field E = F_{p^s} correspond to E-subspaces of E^m; the full lattice is the
set of direct sums of one choice per component, so the submodules of each
dimension number a coefficient of the product over components of
sum_k [m k]_{p^s} x^(k d).  Each submodule L yields a covering descriptor:
codimension, effective branch set, map type, genus, the character of Q/L,
and regularity under the reflection.

Everything but L itself is fixed by the choices, so the checks and flags are
tabulated once per stack of choices of one E-rank in one component: each
block's dimension and invariance, which branch classes it swallows, and which
choice the reflection maps it onto.  The lattice is walked over the menus in
ascending size, so the largest menu comes last, and over stacks of partial
sums of one rank rather than single ones: each stack is merged with each
rank stack of the next menu by batched direct-sum merges
(linalg.merge_direct_sums) in chunks of bounded size.  Each L is kept only
as its packed key (Subspace.key), a row of bytes in its dimension's array
that sorts as the nested tuples of its basis rows, next to its row of choice
idents.  One pass over those rows reads every covering from the per-choice
tables into columns; a descriptor object, and L rebuilt from its key with no
row reduction, are made only when a reader asks for them.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .decompose import IsotypicComponent, decompose_module
from .errors import verify
from .homology import BRANCH_ORDER, HomologyModule, Subspace, _key_width, build_homology, pack_rows
from .linalg import dtype_for, mat_mul, merge_direct_sums, reduce_rows, zeros
from .maps import MapFamily, build_group, build_map, parse_family

# enumerating E-subspaces of E^m touches all q = p^s field elements; every
# multiplicity >= 2 component in scope has a tiny endomorphism field
_FIELD_CAP = 1 << 14
# every submodule is listed; the largest lattice in scope is dodecahedron
# vertices,faces at p = 11 with 76,832 submodules
_LATTICE_CAP = 1 << 18
# the walk merges the sums of prefixes and blocks in chunks of at most this
# many entries (1 MiB of int64); on dodecahedron vertices,faces at p = 7,
# chunks of 2^17 to 2^18 entries walk fastest, and the smaller one holds
# the least memory
_MERGE_ENTRIES = 1 << 17
# the group is held as |G| dart permutations of |G| darts and Q's action as
# |G| matrices of dim^2 entries; the largest case in scope, hosohedron:95
# faces, needs 190 * (190 + 94^2) = 1,714,940 entries.  Under the cap |G|
# and dim stay below linalg._DIM_CAP, the longest product linalg takes
# exactly in int64
_ACTION_CAP = 1 << 23
# homology_character sums the dihedral table's entries coefficient by
# coefficient, about 50 ns each: hosohedron:300 branched at vertices, 153
# rows summed over 300 rotations in entries of 300 coefficients, took 0.7 s.
# The largest case in scope, hosohedron:95 at every class, needs 50 * 95 *
# 99 = 470,250 sums
_TABLE_CAP = 1 << 24


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    verify(num % den == 0, f"the Gaussian binomial [{m} {k}]_{q} is not an integer")
    return num // den


def subspace_count(m: int, q: int) -> int:
    return sum(gaussian_binomial(m, k, q) for k in range(m + 1))


@dataclass(eq=False)
class ComponentChoice:
    component: IsotypicComponent
    k: int
    lam: str | None  # projective label for a line in a multiplicity-2 component
    ident: int  # position in the concatenated menus of all components
    block: Subspace = field(repr=False)  # a view on the choice's row of its rank stack
    swallowed: int = 0  # bit b: every puncture of module.branch_classes[b] projects into block
    mirror: int | None = None  # ident of the choice whose block is block's reflection


@dataclass
class Lattice:
    """Every submodule of Q by dimension: those of dimension r are positions
    starts[r] to starts[r + 1], each with the packed part of its key as one
    uint8 row of keys[r] and the idents of its choices in component order as
    one row of idents; choices[i] is the choice with ident i."""
    ambient: int
    keys: list[np.ndarray]
    starts: np.ndarray
    idents: np.ndarray  # (submodules, components)
    choices: list[ComponentChoice]

    def __len__(self) -> int:
        return len(self.idents)

    def key(self, pos: int) -> tuple:
        """Subspace.key() of the submodule at position pos."""
        r = int(np.searchsorted(self.starts, pos, side="right")) - 1
        return (self.ambient, self.keys[r][pos - self.starts[r]].tobytes())

    def key_order(self, r: int) -> np.ndarray:
        """The positions of dimension r in key order, by one argsort of the
        rows of keys[r] each viewed as a single byte string."""
        rows = self.keys[r]
        if not rows.shape[1]:  # the zero submodule alone, with an empty key
            return self.starts[r] + np.arange(len(rows))
        return self.starts[r] + np.argsort(rows.view(f"V{rows.shape[1]}")[:, 0])


@dataclass
class CoveringDescriptor:
    p: int
    key: tuple  # Subspace.key() of L
    c: int
    effective_branch: tuple[str, ...]
    cover_type: tuple[int, int, int]
    genus: int
    character: Mapping[str, int]  # read-only, shared by the coverings with this character
    regular: bool
    choices: tuple[ComponentChoice, ...]
    mate_index: int | None = None

    @property
    def L(self) -> Subspace:
        """The submodule, rebuilt from its key with no row reduction."""
        return Subspace.from_key(self.key, self.p)

    @property
    def type_string(self) -> str:
        x_ord, y_ord, z_ord = self.cover_type
        if y_ord == 2:
            return "{%d,%d}" % (z_ord, x_ord)
        return "(%d,%d,%d)" % (x_ord, y_ord, z_ord)

    @property
    def character_string(self) -> str:
        return _character_string(self.character)


def _character_string(character: Mapping[str, int]) -> str:
    parts = []
    for label, mult in sorted(character.items()):
        parts.append(label if mult == 1 else f"{mult}*{label}")
    return "+".join(parts) if parts else "0"


def e_subspaces(m: int, s: int, p: int) -> list[np.ndarray]:
    """All E-subspaces of E^m in RREF over E, one (count, k, m, s) array of
    coordinates per E-rank k: pivot entries are the identity, and for each
    set of pivot columns the free entries run through E in lexicographic
    order, so no field element is listed where none is free."""
    _check_field(m, s, p)
    out = []
    for k in range(m + 1):
        stacks = []
        for pivots in itertools.combinations(range(m), k):
            free = [(i, j) for i in range(k) for j in range(m) if j > pivots[i] and j not in pivots]
            values = np.array(list(itertools.product(range(p), repeat=len(free) * s)), dtype=dtype_for(p))
            rows = np.zeros((len(values), k, m, s), dtype=dtype_for(p))
            rows[:, range(k), pivots, 0] = 1
            rows[:, [i for i, _ in free], [j for _, j in free]] = values.reshape(len(values), len(free), s)
            stacks.append(rows)
        out.append(np.concatenate(stacks))
    listed, count = sum(map(len, out)), subspace_count(m, p**s)
    verify(listed == count, f"{listed} E-subspaces of E^{m} listed, the Gaussian binomials count {count}")
    return out


def _check_field(m: int, s: int, p: int) -> None:
    if m > 1 and p**s > _FIELD_CAP:
        raise ValueError(f"endomorphism field of {p}^{s} = {p**s} elements exceeds the "
                         f"enumeration cap of {_FIELD_CAP}")


def _check_lattice_size(components: list[IsotypicComponent], p: int) -> list[int]:
    """The number of submodules of each dimension, the coefficients of the
    product over components of sum_k [m k]_{p^s} x^(k d); a field or a
    lattice too large to enumerate is rejected before any menu is built."""
    counts = [1]
    for comp in components:
        m, s, d = comp.multiplicity, comp.endo_degree, comp.irreducible_dim
        _check_field(m, s, p)
        product = [0] * (len(counts) + m * d)
        for (i, count), k in itertools.product(enumerate(counts), range(m + 1)):
            product[i + k * d] += count * gaussian_binomial(m, k, p**s)
        counts = product
    if sum(counts) > _LATTICE_CAP:
        raise ValueError(f"the lattice has {sum(counts)} submodules, over the enumeration cap "
                         f"of {_LATTICE_CAP}")
    return counts


def _check_map_size(fam: MapFamily, branch_classes) -> None:
    """Reject, before the map is built, a group, an action on Q or a
    character table too large to hold or sum.  The map {n, m} has |G| =
    4nm / (2n + 2m - nm) darts, and |G|/m vertices, |G|/2 edges and |G|/n
    faces.  The table of D_k, for a hosohedron or dihedron with parameter
    k, has at most k/2 + 3 rows of entries with k coefficients, and each
    row is summed over the stabilizer of every branched class."""
    order = 4 * fam.n * fam.m // (2 * (fam.n + fam.m) - fam.n * fam.m)
    count = {"vertices": order // fam.m, "edges": order // 2, "faces": order // fam.n}
    classes = [bc for bc in BRANCH_ORDER if bc in branch_classes]
    dim = sum(count[bc] for bc in classes) - 1
    entries = order * (order + dim * dim)
    if entries > _ACTION_CAP:
        raise ValueError(f"{fam.name} branched at {','.join(branch_classes)} needs {entries} "
                         f"entries for its group and its action on Q, over the cap of "
                         f"{_ACTION_CAP}")
    k = fam.param
    sums = (k // 2 + 3) * k * sum(order // count[bc] for bc in classes)
    if sums > _TABLE_CAP:
        raise ValueError(f"{fam.name} branched at {','.join(branch_classes)} needs {sums} "
                         f"coefficient sums for its character table, over the cap of {_TABLE_CAP}")


def _lambda_label(row: np.ndarray) -> str:
    """Projective parameter of the line in E^2 spanned by one E-row, (2, s)
    coordinates, with the first hom basis element at infinity."""
    first, lam = row.tolist()
    if not any(first):
        return "inf"
    verify(first == [1] + [0] * (len(first) - 1), "a line in E^2 has a first coordinate neither 0 nor 1")
    return str(lam[0]) if len(lam) == 1 else "(" + ",".join(map(str, lam)) + ")"


def _rref_stack(blocks: np.ndarray, p: int):
    """(bases, pivots) of each block of a (batch, r, n) stack in RREF, by
    one merge with a stack of empty prefixes, which verifies rank r."""
    batch, _, n = blocks.shape
    return merge_direct_sums(zeros((batch, 0, n), p), np.zeros((batch, 0), dtype=np.int64), blocks, p)


def component_menus(
    components: list[IsotypicComponent], module: HomologyModule
) -> list[list[tuple[list[ComponentChoice], np.ndarray, np.ndarray]]]:
    """Every choice of every component, as one stack per E-rank k: for each
    component a list of (choices, bases, pivots), bases (len(choices),
    k*d, dim) the RREF blocks in the order of choices and pivots their pivot
    columns.

    Everything a covering descriptor needs beyond L is fixed per choice, so
    it is worked out here once per stack rather than once per submodule.
    One merge with an empty prefix puts each stack in RREF and verifies
    that every block has rank k*d; the blocks are checked invariant, distinct
    within their component, and the full choice to rebuild its component.
    Q is the direct sum of the components, so a puncture lies in L = sum of
    blocks exactly when each of its projections (stored on the component by
    decompose) lies in its block: each choice records as a bitmask the
    branch classes all of whose punctures project into its block.  The
    reflection permutes the components, and each choice records the ident
    of the choice its block is mapped onto."""
    p, dim = module.p, module.dim
    puncture_rows = [[i for i, (cls, _) in enumerate(module.punctures) if cls == bc]
                     for bc in module.branch_classes]
    idents = itertools.count()
    menus, ident_of = [], []
    for comp in components:
        d, m, s = comp.irreducible_dim, comp.multiplicity, comp.endo_degree
        # the block of an E-row (c_jt) stacks the rows of sum c_jt t x_j over
        # the commutant basis t and the hom basis x_j
        products = np.stack([mat_mul(t, x, p) for x in comp.hom_basis for t in comp.commutant])
        products = products.reshape(m * s, d * dim)
        menu, ident_of_key = [], {}
        for k, coords in enumerate(e_subspaces(m, s, p)):
            raw = mat_mul(coords.reshape(len(coords), k, m * s), products, p)
            bases, pivots = _rref_stack(raw.reshape(len(coords), k * d, dim), p)
            verify(module.invariant_under_group(bases, pivots), f"{comp.label}: a choice is not invariant")
            swallowed = np.zeros(len(coords), dtype=np.int64)
            for bit, punctures in enumerate(puncture_rows):
                inside = ~reduce_rows(bases, pivots, comp.punctures[punctures], p).any(axis=-1)
                verify((inside.all(axis=1) == inside.any(axis=1)).all(),
                       "branch effectiveness must be constant on an orbit")
                swallowed |= inside[:, 0].astype(np.int64) << bit
            choices = [
                ComponentChoice(comp, k, _lambda_label(c[0]) if (m, k) == (2, 1) else None, next(idents),
                                Subspace(basis, p, dim, _pivots=piv.tolist()), int(mask))
                for c, basis, piv, mask in zip(coords, bases, pivots, swallowed)
            ]
            ident_of_key.update((ch.block.key(), ch.ident) for ch in choices)
            menu.append((choices, bases, pivots))
        verify(len(ident_of_key) == sum(len(choices) for choices, _, _ in menu),
               f"{comp.label}: two choices give the same submodule")
        full = menu[-1][0][0]
        verify(full.k == m and full.block == comp.subspace,
               f"{comp.label}: the full choice does not rebuild the component")
        menus.append(menu)
        ident_of.append(ident_of_key)

    R = module.reflection_matrix
    comp_of = {comp.subspace.key(): j for j, comp in enumerate(components)}
    for comp, menu in zip(components, menus):
        images = [(choices, [Subspace(b, p, dim, _pivots=piv).key()
                             for b, piv in zip(*_rref_stack(mat_mul(bases, R, p), p))])
                  for choices, bases, _ in menu]
        j = comp_of.get(images[-1][1][0])  # the image of the full choice
        verify(j is not None, f"the reflection maps {comp.label} onto no component")
        for choices, keys in images:
            for ch, key in zip(choices, keys):
                ch.mirror = ident_of[j].get(key)
                verify(ch.mirror is not None,
                       f"the reflection maps a choice of {comp.label} onto no choice "
                       f"of {components[j].label}")
    return menus


def enumerate_submodules(components: list[IsotypicComponent], module: HomologyModule) -> Lattice:
    """Every G-invariant submodule of Q as its key, with its choices.

    Every block is checked invariant, of the right dimension and distinct
    within its component, and the components form a direct sum, so every sum
    of blocks is a distinct submodule of the expected dimension.  The menus
    are walked over stacks of same-rank prefixes: the product of a prefix
    stack with each rank stack of the next menu is merged in chunks of at
    most _MERGE_ENTRIES entries, which checks again that each of those sums
    is direct, and each chunk is walked on to the next menu before the next
    chunk is merged, so only one chunk per level is held.  The rank-0
    choice passes the prefix stack on unmerged.  At the last menu each chunk,
    all of one dimension r, fills the next rows of keys[r] and of the ident
    table, allocated at the predicted sizes and verified filled exactly.
    """
    counts = _check_lattice_size(components, module.p)
    menus = component_menus(components, module)
    p, dim = module.p, module.dim
    choices = [ch for menu in menus for stack, _, _ in menu for ch in stack]
    # the smallest menus go first and the largest last, so the merges above
    # the last level number only the product of the smaller menus
    order = sorted(range(len(menus)), key=lambda i: sum(len(stack) for stack, _, _ in menus[i]))
    stacks = [[(np.array([ch.ident for ch in stack]), bases) for stack, bases, _ in menus[i]]
              for i in order]
    last = len(order) - 1
    keys = [np.empty((count, r * dim * _key_width(p)), dtype=np.uint8) for r, count in enumerate(counts)]
    starts = np.cumsum([0, *counts])
    table = np.empty((starts[-1], len(menus)), dtype=np.int64)
    filled = [0] * len(counts)

    def walk(depth: int, bases: np.ndarray, pivots: np.ndarray, picks: np.ndarray) -> None:
        """picks (len(bases), depth): the idents of each prefix's choices."""
        prefixes, r0, n = bases.shape
        if depth > last:
            lo, hi = filled[r0], filled[r0] + prefixes
            verify(hi <= counts[r0], f"the walk finds more than the {counts[r0]} submodules of "
                                     f"dimension {r0} the Gaussian binomials predict")
            keys[r0][lo:hi] = np.frombuffer(pack_rows(bases, p), dtype=np.uint8).reshape(prefixes, -1)
            table[starts[r0] + lo:starts[r0] + hi, order] = picks  # picks[:, i] is component order[i]
            filled[r0] = hi
            return
        for idents, blocks in stacks[depth]:
            size, r = blocks.shape[:2]
            if r == 0:
                walk(depth + 1, bases, pivots, np.column_stack([picks, np.repeat(idents, prefixes)]))
                continue
            step = max(1, _MERGE_ENTRIES // ((r0 + r) * n))
            for start in range(0, prefixes * size, step):
                prefix, block = np.divmod(np.arange(start, min(start + step, prefixes * size)), size)
                merged, merged_pivots = merge_direct_sums(bases[prefix], pivots[prefix], blocks[block], p)
                walk(depth + 1, merged, merged_pivots, np.column_stack([picks[prefix], idents[block]]))

    walk(0, zeros((1, 0, dim), p), np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64))
    verify(filled == counts, f"the walk found {filled} submodules by dimension, the Gaussian "
                             f"binomials predict {counts}")
    return Lattice(dim, keys, starts, table, choices)


@dataclass(eq=False)
class CoveringColumns:
    """The coverings of a census in output order, one entry per covering in
    each array: the index of its submodule in the lattice, its row of kinds
    (c, effective branch set, type, genus), its row of characters, and its
    mate, which is itself for a regular covering."""
    p: int
    lattice: Lattice = field(repr=False)
    submodule: np.ndarray
    kind: np.ndarray
    character: np.ndarray
    mate: np.ndarray
    kinds: list[tuple[int, tuple[str, ...], tuple[int, int, int], int]]
    characters: list[Mapping[str, int]]

    def __len__(self) -> int:
        return len(self.submodule)

    @property
    def regular(self) -> np.ndarray:
        return self.mate == np.arange(len(self))

    def descriptors(self) -> list[CoveringDescriptor]:
        lattice, choices = self.lattice, self.lattice.choices
        return [
            CoveringDescriptor(self.p, lattice.key(pos), *self.kinds[k], self.characters[h], j == i,
                               tuple(choices[x] for x in lattice.idents[pos].tolist()),
                               None if j == i else j)
            for i, (pos, k, h, j) in enumerate(zip(
                self.submodule.tolist(), self.kind.tolist(), self.character.tolist(),
                self.mate.tolist()))
        ]


def describe_covering(lattice: Lattice, module: HomologyModule) -> CoveringColumns:
    """The coverings, one per proper submodule of the lattice, as columns
    sorted by (c, genus, character, key) with chiral mates paired.

    Everything but L is fixed by the choices, so each field is read from
    per-choice tables through the ident array: c from the block dimensions,
    the swallowed classes as the AND of the choices' bitmasks, the mate
    from the sorted mirror idents.  The branch set, type and genus are
    worked out once per distinct (c, swallowed mask), the character once
    per distinct row of remainders m - k."""
    group, p, dm = module.group, module.p, module.group.map
    choices = lattice.choices
    dims, masks, remainders, mirrors = np.array(
        [(ch.block.dim, ch.swallowed, ch.component.multiplicity - ch.k, ch.mirror)
         for ch in choices]).T
    starts = [ch.ident for i, ch in enumerate(choices)
              if i == 0 or ch.component is not choices[i - 1].component]
    labels = [choices[i].component.label for i in starts]

    # the proper submodules, codimension ascending and each dimension in key order
    proper = np.concatenate([lattice.key_order(r) for r in reversed(range(module.dim))])
    idents = lattice.idents[proper]
    c = module.dim - dims[idents].sum(axis=1)
    verify(c.all() and len(proper) == len(lattice) - 1, "the full module is not alone in codimension 0")
    swallowed = np.bitwise_and.reduce(masks[idents], axis=1)

    kinds = []  # (c, effective branch set, type, genus) per distinct (c, swallowed mask)
    pairs, kind_of = np.unique(np.column_stack([c, swallowed]), axis=0, return_inverse=True)
    for cc, mask in pairs.tolist():
        effective = tuple(bc for b, bc in enumerate(module.branch_classes) if not mask >> b & 1)
        B = sum(group.actions[bc].shape[1] for bc in effective)
        genus = 1 - p**cc + (p - 1) * p ** (cc - 1) * B // 2
        verify(genus >= 0, f"a covering of codimension {cc} has negative genus {genus}")
        cover_type = (
            dm.m * (p if "vertices" in effective else 1),
            2 * (p if "edges" in effective else 1),
            dm.n * (p if "faces" in effective else 1),
        )
        kinds.append((cc, effective, cover_type, genus))
    rems, character_of = np.unique(remainders[idents], axis=0, return_inverse=True)
    characters = [MappingProxyType({label: r for label, r in zip(labels, row) if r})
                  for row in rems.tolist()]
    strings = [_character_string(ch) for ch in characters]

    kind_of, character_of = kind_of.reshape(-1), character_of.reshape(-1)
    # c is constant within a dimension, so a stable sort by the ranks of
    # (c, genus), which can pass int64, and of the strings keeps key order
    ranks = {cg: i for i, cg in enumerate(sorted({(cc, genus) for cc, _, _, genus in kinds}))}
    kind_rank = np.array([ranks[cc, genus] for cc, _, _, genus in kinds])
    string_rank = np.unique(strings, return_inverse=True)[1]
    order = np.lexsort((string_rank[character_of], kind_rank[kind_of]))
    idents, kind_of, character_of = idents[order], kind_of[order], character_of[order]

    # a row of idents, one per component in component order, is one number
    # in the mixed radix of the menu sizes, and so is its row of mirrors
    # once sorted, since the reflection permutes the components
    sizes = np.diff(starts + [len(choices)])
    position = np.full(len(lattice), -1)
    position[np.ravel_multi_index((idents - starts).T, sizes)] = np.arange(len(order))
    mate = position[np.ravel_multi_index((np.sort(mirrors[idents], axis=1) - starts).T, sizes)]
    at = np.arange(len(order))
    verify((mate >= 0).all() and (mate[mate] == at).all(), "chirality must be an involution")
    verify((kind_of[mate] == kind_of).all(), "a chiral pair must share codimension, genus and type")
    return CoveringColumns(p, lattice, proper[order], kind_of, character_of, mate, kinds, characters)


@dataclass
class Census:
    family: MapFamily
    branch_classes: tuple[str, ...]
    p: int
    columns: CoveringColumns
    components: list[IsotypicComponent]
    module: HomologyModule = field(repr=False)

    @cached_property
    def coverings(self) -> list[CoveringDescriptor]:
        """One descriptor per covering, built on first read."""
        return self.columns.descriptors()

    @property
    def total(self) -> int:
        return len(self.columns)

    @property
    def regular_count(self) -> int:
        return int(self.columns.regular.sum())

    @property
    def chiral_count(self) -> int:
        return self.total - self.regular_count

    @property
    def dimension_multiset(self) -> list[int]:
        c = np.array([kind[0] for kind in self.columns.kinds])
        return np.sort(c[self.columns.kind]).tolist()


def census(fam: MapFamily | str, branch_classes, p: int) -> Census:
    if isinstance(fam, str):
        fam = parse_family(fam)
    _check_map_size(fam, branch_classes)
    group = build_group(build_map(fam))
    module = build_homology(group, branch_classes, p)
    components = decompose_module(module)
    submodules = enumerate_submodules(components, module)

    return Census(
        family=fam,
        branch_classes=module.branch_classes,
        p=p,
        columns=describe_covering(submodules, module),
        components=components,
        module=module,
    )
