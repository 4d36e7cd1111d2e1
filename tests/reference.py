"""Test-side reference code: the slow, direct constructions that the
library's vectorised ones are compared against, and helpers only tests use.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import platocover

from platocover.chartab import CycValue, column_of_class
from platocover.gf import _counter_residues, _irreducible, root_of_unity
from platocover.homology import HomologyModule, Subspace
from platocover.lattice import CoveringDescriptor, Lattice
from platocover.linalg import Labeller, as_matrix, dtype_for, mat_mul, rref, zeros
from platocover.maps import DartMap, GroupData

BRANCH_CLASSES = ("vertices", "edges", "faces")

# (tag, parameter) of the maps the group-layer references run on: the five
# solids and the hosohedra and dihedra with 3 to 40 and 95 sides
GROUP_LAYER_MAPS = [(tag, None) for tag in ("tetrahedron", "cube", "octahedron", "dodecahedron",
                                            "icosahedron")] + [
    (tag, n) for tag in ("hosohedron", "dihedron") for n in (*range(3, 41), 95)]


# ---------------------------------------------------------------------------
# kernels and intersections


def left_kernel(mat, p: int) -> np.ndarray:
    """RREF basis of {v : v @ mat == 0}."""
    a = np.array(mat, dtype=dtype_for(p)) % p
    nrows = a.shape[0]
    r, pivots = rref(a.T, p)
    free = [j for j in range(nrows) if j not in pivots]
    if not free:
        return zeros((0, nrows), p)
    out = zeros((len(free), nrows), p)
    for k, j in enumerate(free):
        out[k, j] = 1
        for i, c in enumerate(pivots):
            out[k, c] = (-int(r[i, j])) % p
    basis, _ = rref(out, p)
    return basis


def intersect(U: Subspace, W: Subspace) -> Subspace:
    """Left-kernel construction: pairs (a, b) with a·U + b·W = 0 give
    intersection vectors a·U."""
    assert U.ambient == W.ambient
    if U.dim == 0 or W.dim == 0:
        return Subspace.zero(U.p, U.ambient)
    kern = left_kernel(np.vstack([U.basis, W.basis]), U.p)
    if kern.shape[0] == 0:
        return Subspace.zero(U.p, U.ambient)
    out = Subspace(mat_mul(kern[:, :U.dim], U.basis, U.p), U.p, U.ambient)
    assert out.dim == U.dim + W.dim - U.add(W).dim
    return out


def spin(module: HomologyModule, vectors, gens) -> Subspace:
    """The smallest subspace containing the given row vectors and invariant
    under the given generator matrices, closed under them one sum at a
    time."""
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
# the rotation group, one propagation per target and classes by search


def propagate(sigma, alpha, target: int, reverse: bool):
    """Extend dart 0 ↦ target to a full automorphism, or return None.

    Orientation-preserving automorphisms commute with sigma and alpha;
    orientation-reversing ones conjugate sigma to its inverse."""
    n = len(sigma)
    if reverse:
        sigma_img = [0] * n
        for d in range(n):
            sigma_img[sigma[d]] = d
    else:
        sigma_img = sigma
    psi = [-1] * n
    psi[0] = target
    stack = [0]
    while stack:
        d = stack.pop()
        for src, img in ((sigma[d], sigma_img[psi[d]]), (alpha[d], alpha[psi[d]])):
            if psi[src] == -1:
                psi[src] = img
                stack.append(src)
            elif psi[src] != img:
                return None
    if sorted(psi) != list(range(n)):
        return None
    return tuple(psi)


def _project(dm: DartMap, perm, reversing: bool) -> dict[str, tuple[int, ...]]:
    faces = [dm.alpha[perm[d]] if reversing else perm[d] for d in dm.face_dart]
    return {
        "vertices": tuple(dm.vertex_of[perm[d]] for d in dm.vertex_dart),
        "edges": tuple(dm.edge_of[perm[d]] for d in dm.edge_dart),
        "faces": tuple(dm.face_of[d] for d in faces),
    }


def reference_group(dm: DartMap) -> SimpleNamespace:
    """The rotation group as tuples: one propagation per target dart,
    conjugacy classes by a search from each unclassified element, the
    reflection as the first reversing propagation and the central reversing
    element as the first commuting member of the coset, in group order."""
    n = dm.n_darts
    perms = [propagate(dm.sigma, dm.alpha, t, reverse=False) for t in range(n)]
    assert None not in perms

    def mult(i, j):
        return perms[j][i]

    def element_order(i):
        k, acc = 1, i
        while acc != 0:
            acc = mult(acc, i)
            k += 1
        return k

    inverse = [perm.index(0) for perm in perms]
    gens = (dm.sigma[0], dm.alpha[0])
    class_of = [-1] * n
    classes = []
    for start in range(n):
        if class_of[start] != -1:
            continue
        members, stack = [], [start]
        class_of[start] = len(classes)
        while stack:
            g = stack.pop()
            members.append(g)
            for h in gens:
                c = mult(mult(inverse[h], g), h)
                if class_of[c] == -1:
                    class_of[c] = len(classes)
                    stack.append(c)
        members.sort()
        classes.append((tuple(members), members[0], element_order(members[0])))

    actions = {bc: [] for bc in BRANCH_CLASSES}
    for perm in perms:
        for bc, action in _project(dm, perm, reversing=False).items():
            actions[bc].append(action)

    if dm.m == 2:
        reflection = {"vertices": tuple(range(dm.V)), "edges": tuple(range(dm.E)), "faces": (1, 0)}
        return SimpleNamespace(dart_perms=perms, inverse=inverse, class_of=class_of,
                               classes=classes, actions=actions, reflection_dart=None,
                               reflection=reflection, central={**reflection, "darts": None})

    refl = next(psi for t in range(n)
                if (psi := propagate(dm.sigma, dm.alpha, t, reverse=True)) is not None)
    z = perms[inverse[mult(gens[0], gens[1])]]
    central = None
    for perm in perms:
        cand = tuple(perm[refl[d]] for d in range(n))
        if all(tuple(h[cand[d]] for d in range(n)) == tuple(cand[h[d]] for d in range(n))
               for h in (perms[gens[0]], z, refl)):
            central = {**_project(dm, cand, reversing=True), "darts": cand}
            break
    return SimpleNamespace(dart_perms=perms, inverse=inverse, class_of=class_of,
                           classes=classes, actions=actions, reflection_dart=refl,
                           reflection=_project(dm, refl, reversing=True), central=central)


# ---------------------------------------------------------------------------
# derived maps, one digit of k at a time


def k_encoding(p: int, c: int):
    """Row i of the returned table is the vector whose digit expansion against
    powers = (1, p, ..., p^(c-1)) equals i."""
    powers = p ** np.arange(c, dtype=np.int64)
    k_vectors = np.arange(p**c, dtype=np.int64)[:, None] // powers % p
    return k_vectors, powers


def reference_derived_permutations(va):
    """sigma' and alpha' on the darts (d, k), indexed d * |K| + index(k),
    with the index of k + beta(d) accumulated one coordinate at a time over
    (darts, p^c) arrays."""
    dm = va.dart_map
    p, c = va.p, va.c
    size = p**c
    k_vectors, powers = k_encoding(p, c)

    sigma = np.asarray(dm.sigma, dtype=np.int64)
    alpha = np.asarray(dm.alpha, dtype=np.int64)
    ks = np.arange(size, dtype=np.int64)

    sigma_big = (sigma[:, None] * size + ks[None, :]).ravel()
    beta = np.asarray(va.beta, dtype=np.int64)
    shifted = np.zeros((len(alpha), size), dtype=np.int64)
    for j in range(c):
        digit = k_vectors[None, :, j] + beta[:, j, None]
        digit %= p
        digit *= powers[j]
        shifted += digit
    alpha_big = (alpha[:, None] * size + shifted).ravel()
    return sigma_big, alpha_big


def reference_derived_counts(va):
    """(V', E', F', (shortest, longest) face, orbits of <sigma', alpha'>) of
    the derived map, every count by min-label doubling over all N darts of
    the digit loop's permutations: the cycles of phi' = sigma' alpha',
    alpha' and sigma' (linalg.Labeller.cycles), each face's length counted
    at its least dart over N entries, and the face labels joined along
    alpha' (Labeller.join)."""
    sigma, alpha = (perm.astype(np.intp) for perm in reference_derived_permutations(va))
    labeller = Labeller(len(sigma))
    faces = labeller.cycles(sigma[alpha])
    f_count = labeller.count(faces)
    lengths = np.bincount(faces, minlength=len(sigma))[labeller.flags]
    orbits = labeller.count(labeller.join([alpha]))
    e_count = labeller.count(labeller.cycles(alpha))
    v_count = labeller.count(labeller.cycles(sigma))
    return v_count, e_count, f_count, (int(lengths.min()), int(lengths.max())), orbits


# ---------------------------------------------------------------------------
# orbits by walking


def walked_orbits(n: int, generators) -> list[tuple[int, ...]]:
    """Orbits on range(n) of the group generated by the given functions,
    each sorted, in order of their least member."""
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = set()
        stack = [start]
        while stack:
            r = stack.pop()
            if r in orbit:
                continue
            orbit.add(r)
            seen[r] = True
            for g in generators:
                stack.append(g(r))
        out.append(tuple(sorted(orbit)))
    return out


def walked_p_power_orbits(table, group: GroupData, matching: list[int], p: int):
    """Orbits of the table's rows under the p-power map, each sorted, in
    order of their first row, by walking each row's cycle."""
    col_of = column_of_class(matching)
    image_col = [col_of[group.class_of[group.power(group.classes[cid].rep, p)]] for cid in matching]
    row_of = {tuple(row): r for r, row in enumerate(table.rows)}
    image = [row_of.get(tuple(row[col] for col in image_col)) for row in table.rows]
    orbits, seen = [], set()
    for r in range(len(table.rows)):
        orbit = []
        while r not in seen:
            seen.add(r)
            orbit.append(r)
            r = image[r]
        if orbit:
            orbits.append(tuple(sorted(orbit)))
    return orbits


# ---------------------------------------------------------------------------
# the first irreducible by search alone


def first_irreducible_by_search(p: int, e: int) -> list[int]:
    """The first monic irreducible of degree e in counter order, by Ben-Or's
    test on every candidate from counter 0, in blocks of 64."""
    for start in range(0, p**e, 64):
        lower = _counter_residues(range(start, min(start + 64, p**e)), p, e)
        found = _irreducible(lower, p)
        if found.any():
            return lower[found.argmax()].tolist() + [1]
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")


# ---------------------------------------------------------------------------
# block systems and class matching by direct rules


def union_find_blocks(gens, count: int, i: int, j: int) -> list[tuple[int, ...]]:
    """The finest partition of range(count) invariant under the given
    permutation lists with i and j in one class, by union-find: each merged
    pair pushes its images under every generator.  Blocks sorted, in order
    of their least point."""
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


def orbital_graph_components(perms, j: int) -> list[tuple[int, ...]]:
    """The components of the orbital graph with edges {g(0), g(j)} for every
    row g of the (|G|, count) action perms, which are the blocks of the
    finest block system joining 0 and j; sorted, in order of least point."""
    count = perms.shape[1]
    adjacent = [[] for _ in range(count)]
    for a, b in zip(perms[:, 0].tolist(), perms[:, j].tolist()):
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = [False] * count
    out = []
    for start in range(count):
        if seen[start]:
            continue
        seen[start] = True
        members, stack = [], [start]
        while stack:
            r = stack.pop()
            members.append(r)
            for s in adjacent[r]:
                if not seen[s]:
                    seen[s] = True
                    stack.append(s)
        out.append(tuple(sorted(members)))
    return out


def dihedral_generators(group: GroupData) -> tuple[int, int]:
    """(a, b) with a the order-n rotation among {x, z} and b the other, an
    order-2 flip outside <a>."""
    n = group.map.family.param
    a, b = (group.gen_x, group.gen_z) if group.element_order(group.gen_x) == n else (
        group.gen_z, group.gen_x)
    assert group.element_order(a) == n and group.element_order(b) == 2
    assert b not in set(group.cyclic(a))
    return a, b


def signature_matching(table, group: GroupData) -> list[int]:
    """Group class index for each table column without column words.
    Dihedral columns 1, r_k, f and f' are read by label as a^0, a^k, b and ba.
    Other columns go to the class of the same size and element order, and
    of an algebraically conjugate pair of columns the first goes to the
    class of the designated generator, z when it has the pair's order and x
    otherwise."""
    if table.name.startswith("D"):
        a, b = dihedral_generators(group)
        named = {"f": b, "f'": group.mult(b, a)}
        return [int(group.class_of[named[label] if label in named
                                   else group.power(a, int(label[1:] or 0))])
                for label in table.col_labels]
    sig_cols: dict[tuple[int, int], list[int]] = {}
    for col in range(table.n_cols):
        sig_cols.setdefault((table.col_sizes[col], table.col_orders[col]), []).append(col)
    sig_classes: dict[tuple[int, int], list[int]] = {}
    for cid, cls in enumerate(group.classes):
        sig_classes.setdefault((cls.size, cls.rep_order), []).append(cid)
    assert {k: len(v) for k, v in sig_cols.items()} == {k: len(v) for k, v in sig_classes.items()}
    out = [-1] * table.n_cols
    for (size, order), cols in sig_cols.items():
        classes = sig_classes[size, order]
        if len(cols) == 1:
            out[cols[0]] = classes[0]
            continue
        assert len(cols) == 2
        designated = group.gen_z if group.element_order(group.gen_z) == order else group.gen_x
        plus = int(group.class_of[designated])
        assert plus in classes
        out[cols[0]] = plus
        out[cols[1]] = classes[1] if classes[0] == plus else classes[0]
    return out


# ---------------------------------------------------------------------------
# characters


def verify_orthogonality(table) -> None:
    order = sum(table.col_sizes)
    for i in range(len(table.rows)):
        for j in range(i, len(table.rows)):
            total = None
            for col in range(table.n_cols):
                term = (table.rows[i][col] * table.rows[j][col].conj()).times(table.col_sizes[col])
                total = term if total is None else total + term
            value = total.as_integer()
            expected = order if i == j else 0
            assert value == expected, (table.name, i, j, value)


def cyc_value_mod_p(value: CycValue, p: int):
    """Image in F_p of a value in Z[zeta_n] with zeta sent to the w of
    gf.root_of_unity, coefficient by coefficient, or None when the image
    lies outside the prime field."""
    field, powers = root_of_unity(value.n, p)
    image = [0] * field.e
    for c, w in zip(value.coeffs, powers.tolist()):
        if c:
            for i, x in enumerate(w):
                image[i] += c * x
    if any(x % p for x in image[1:]):
        return None
    return image[0] % p


# the tables whose irrational values lie in Q(sqrt d), by name, with d
QUADRATIC_TABLES = {"A4": -3, "A5": 5}


def quadratic_value_mod_p(value: CycValue, d: int, p: int):
    """Image in F_p of a value of Q(sqrt d) in Z[zeta_|d|], |d| = 3 or 5,
    with sqrt d sent to its even root mod p, found by scanning F_p; None
    when the value is irrational and d is not a square mod p.

    With R the nonzero squares mod |d| and N the rest, the periods
    eta_R = sum_R zeta^r and eta_N = sum_N zeta^r add up to -1 and differ by
    sqrt d, so c_0 + c_R eta_R + c_N eta_N = a + b sqrt d with
    2a = 2c_0 - c_R - c_N and 2b = c_R - c_N."""
    n = value.n
    assert n == abs(d)
    squares = {k * k % n for k in range(1, n)}
    sides = [{value.coeffs[k] for k in range(1, n) if (k in squares) is side}
             for side in (True, False)]
    assert all(len(side) == 1 for side in sides), f"{value} is not in Q(sqrt {d})"
    c_r, c_n = (side.pop() for side in sides)
    twice_a, twice_b = 2 * value.coeffs[0] - c_r - c_n, c_r - c_n
    half = pow(2, -1, p)
    if not twice_b:
        return twice_a * half % p
    roots = [x for x in range(0, p, 2) if (x * x - d) % p == 0]
    return (twice_a + twice_b * roots[0]) * half % p if roots else None


def summed_values_mod_p(table, rows, p: int) -> list:
    """The summed characters of the given table rows per column, each sum
    folded value by value and reduced on its own, through the even root of
    d for A4 and A5 and through the w of gf.root_of_unity otherwise; None
    where a value does not reduce into F_p."""
    d = QUADRATIC_TABLES.get(table.name)
    out = []
    for col in range(table.n_cols):
        total = sum((table.rows[r][col] for r in rows[1:]), table.rows[rows[0]][col])
        out.append(cyc_value_mod_p(total, p) if d is None else quadratic_value_mod_p(total, d, p))
    return out


def permutation_character(group: GroupData, branch_class: str) -> list[int]:
    """Fixed-point count of each conjugacy class acting on the given
    puncture class, indexed by group class id."""
    perms = group.actions[branch_class]
    out = []
    for cls in group.classes:
        perm = perms[cls.rep]
        out.append(sum(1 for i, img in enumerate(perm) if img == i))
    return out


def multiplicity_by_inner_product(table, row: int, pi: list[int], group: GroupData,
                                  matching: list[int]) -> int:
    total = None
    for col, cid in enumerate(matching):
        term = table.rows[row][col].conj().times(pi[cid] * group.classes[cid].size)
        total = term if total is None else total + term
    value = total.as_integer()
    assert value is not None and value % group.order == 0
    return value // group.order


# ---------------------------------------------------------------------------
# combinatorially defined submodules


def _face_two_coloring(group: GroupData) -> list[int] | None:
    """Proper 2-coloring of faces under edge-adjacency, or None."""
    dm = group.map
    adj: list[set[int]] = [set() for _ in range(dm.F)]
    for d in range(dm.n_darts):
        f1, f2 = dm.face_of[d], dm.face_of[dm.alpha[d]]
        if f1 != f2:
            adj[f1].add(f2)
            adj[f2].add(f1)
    color = [-1] * dm.F
    color[0] = 0
    stack = [0]
    while stack:
        f = stack.pop()
        for nb in adj[f]:
            if color[nb] == -1:
                color[nb] = 1 - color[f]
                stack.append(nb)
            elif color[nb] == color[f]:
                return None
    return color


def named_submodules(module: HomologyModule, group: GroupData) -> dict[str, Subspace]:
    """The combinatorially defined submodules: the sum-zero image when it is
    proper, antipodal sum/difference modules, and the octahedron's bipartite
    family."""
    p, N = module.p, module.N
    proj = module.projection
    out: dict[str, Subspace] = {}

    def image_of_rows(rows) -> Subspace:
        return Subspace(mat_mul(as_matrix(rows, p, width=N), proj, p), p, module.dim)

    if N % p == 0:
        sum_zero = [[0] * i + [1, p - 1] + [0] * (N - 2 - i) for i in range(N - 1)]
        out["Q1"] = image_of_rows(sum_zero)
        assert out["Q1"].dim == N - 2

    if group.central_reversing is not None and len(module.branch_classes) == 1:
        bc = module.branch_classes[0]
        pairing = group.central_reversing[bc]
        if all(pairing[pairing[i]] == i and pairing[i] != i for i in range(N)):
            sums, diffs = [], []
            for i in range(N):
                if i < pairing[i]:
                    row = [0] * N
                    row[i] = 1
                    row[pairing[i]] = 1
                    sums.append(row)
                    row = [0] * N
                    row[i] = 1
                    row[pairing[i]] = p - 1
                    diffs.append(row)
            out["Qa"] = image_of_rows(sums)
            out["Qa'"] = image_of_rows(diffs)
            assert out["Qa"].dim == N // 2 - 1
            assert out["Qa'"].dim == N // 2
            assert intersect(out["Qa"], out["Qa'"]).dim == 0
            assert out["Qa"].add(out["Qa'"]).dim == module.dim

    if (
        group.map.family.tag == "octahedron"
        and module.branch_classes == ("faces",)
    ):
        color = _face_two_coloring(group)
        assert color is not None
        white = [1 if color[i] == 0 else 0 for i in range(N)]
        black = [1 if color[i] == 1 else 0 for i in range(N)]
        out["Qb"] = image_of_rows([white, black])
        assert out["Qb"].dim == 1
        # elements with equal monochrome coordinate sums: kernel of the
        # signed-color functional
        functional = as_matrix(
            [[1 if color[i] == 0 else p - 1 for i in range(N)]], p
        )
        basis = left_kernel(functional.T, p)
        out["Qb'"] = image_of_rows(basis)
        assert out["Qb'"].dim == N - 2
        out["Qa'&Qb'"] = intersect(out["Qa'"], out["Qb'"])
        assert out["Qa'&Qb'"].dim == 3

    for space in out.values():
        assert module.invariant_under_group(space.basis, space.pivots)
    return out


# ---------------------------------------------------------------------------
# covering descriptors, one submodule at a time


def reference_descriptors(lattice: Lattice, module: HomologyModule) -> list[CoveringDescriptor]:
    """The coverings of a lattice described one submodule at a time from its
    own choices, then sorted by (c, genus, character, key), each chiral one
    paired with the covering whose idents are its sorted mirror idents."""
    group, p, dm = module.group, module.p, module.group.map
    rows = []
    for pos, ident in enumerate(map(tuple, lattice.idents.tolist())):
        choices = tuple(lattice.choices[i] for i in ident)
        if all(ch.k == ch.component.multiplicity for ch in choices):
            continue  # the full module
        c = module.dim - sum(ch.block.dim for ch in choices)
        assert c > 0
        effective = tuple(bc for b, bc in enumerate(module.branch_classes)
                          if not all(ch.swallowed >> b & 1 for ch in choices))
        B = sum(group.actions[bc].shape[1] for bc in effective)
        genus = 1 - p**c + (p - 1) * p ** (c - 1) * B // 2
        assert genus >= 0
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
        mirrored = tuple(sorted(ch.mirror for ch in choices))
        d = CoveringDescriptor(p, lattice.key(pos), c, effective, cover_type, genus, character,
                               mirrored == ident, choices)
        rows.append((d, ident, mirrored))
    rows.sort(key=lambda row: (row[0].c, row[0].genus, row[0].character_string, row[0].key))
    index_of = {ident: i for i, (_, ident, _) in enumerate(rows)}
    for i, (d, ident, mirrored) in enumerate(rows):
        if d.regular:
            continue
        j = index_of[mirrored]
        mate = rows[j][0]
        assert j != i and rows[j][2] == ident, "chirality must be an involution"
        assert (mate.c, mate.genus, mate.cover_type) == (d.c, d.genus, d.cover_type)
        d.mate_index = j
    return [d for d, _, _ in rows]


# ---------------------------------------------------------------------------
# subprocesses


def run_python(args, timeout=120, **kwargs) -> subprocess.CompletedProcess:
    """This interpreter run with args and platocover's source tree on
    PYTHONPATH, its output captured as text."""
    env = {**os.environ, "PYTHONPATH": str(Path(platocover.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, **kwargs)
