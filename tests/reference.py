"""Test-side reference code: the slow, direct constructions that the
library's vectorised ones are compared against, and helpers only tests use.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from types import SimpleNamespace

from platocover.chartab import column_of_class
from platocover.homology import HomologyModule, Subspace
from platocover.linalg import as_matrix, left_kernel, mat_mul
from platocover.maps import DartMap, GroupData

BRANCH_CLASSES = ("vertices", "edges", "faces")


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


def permutation_character(group: GroupData, branch_class: str) -> list[int]:
    """Fixed-point count of each conjugacy class acting on the given
    puncture class, indexed by group class id."""
    perms = group.class_perms(branch_class)
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
            assert out["Qa"].intersect(out["Qa'"]).dim == 0
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
        out["Qa'&Qb'"] = out["Qa'"].intersect(out["Qb'"])
        assert out["Qa'&Qb'"].dim == 3

    for space in out.values():
        assert module.invariant_under_group(space)
    return out
