"""Ordinary character tables and permutation-character decomposition.

Every table holds values in one cyclotomic ring Z[x]/(x^n - 1): A4, S4 and
A5 are hard-coded over n = 3, 1 and 5, and the dihedral tables are
generated.  All arithmetic is exact: orthogonality and multiplicity checks
never touch floating point.

Over F_p, p not dividing |G|, the irreducible characters are the sums over
the orbits of the p-power map chi -> (g -> chi(g^p)) (``p_power_orbits``):
the conjugate pairs of A4 (p = 2 mod 3) and A5 (p = +-2 mod 5), and for D_n
the xi_k with k in one orbit of <p, -1> on Z_n.  ``decompose`` reduces the
summed coefficient rows of every table mod p with one product.  The values
of A4 and A5 reduce with sqrt(d) sent to its even root, which the table's
Gauss sum (``CharacterTable.gauss_sum``) fixes; dihedral values reduce with
zeta_n sent to the w of ``gf.root_of_unity``, the same w that labels the
factors of x^n - 1.

Class matching.  Every column names one element of its class by a word in
the generators (``col_words``): a list of factors (generator, exponent),
multiplied left to right, where the generator is y or an element order, read
as z when z has that order and x otherwise.  So the paper's conventions are
table data: A4's "3" is z and "3'" is z^2, A5's "5" and "5'" are the order-5
generator and its square, and D_n's columns are the powers of its order-n
rotation a, the other generator b, of order 2, and ba.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import verify
from .gf import cyclotomic_polynomial, poly_divmod
from .linalg import label_orbits, orbit_labels
from .maps import GroupData, stabilizer_H


@dataclass(frozen=True)
class CycValue:
    """Element of Z[zeta_n] stored as integer coefficients on 1..zeta^{n-1}."""

    n: int
    coeffs: tuple[int, ...]

    @staticmethod
    def integer(c: int, n: int) -> "CycValue":
        return CycValue(n, (c,) + (0,) * (n - 1))

    def _check_order(self, other: "CycValue") -> None:
        if self.n != other.n:
            raise ValueError(f"values in Q(zeta_{self.n}) and Q(zeta_{other.n}) do not combine")

    def __add__(self, other: "CycValue") -> "CycValue":
        self._check_order(other)
        return CycValue(self.n, tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __mul__(self, other: "CycValue") -> "CycValue":
        self._check_order(other)
        out = [0] * self.n
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs):
                out[(i + j) % self.n] += x * y
        return CycValue(self.n, tuple(out))

    def times(self, k: int) -> "CycValue":
        return CycValue(self.n, tuple(x * k for x in self.coeffs))

    def conj(self) -> "CycValue":
        return CycValue(self.n, tuple(self.coeffs[(-i) % self.n] for i in range(self.n)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # a table's rows share their value objects and are hashed whole
        return hash((self.n, self.coeffs))

    def as_integer(self):
        """The rational integer this value equals, or None.

        Coordinates in the power basis are the remainder mod the n-th
        cyclotomic polynomial, computed exactly over Z."""
        if not any(self.coeffs[1:]):
            return self.coeffs[0]
        phi = list(cyclotomic_polynomial(self.n))
        _, rem = poly_divmod(list(self.coeffs), phi)
        if any(rem[1:]):
            return None
        return rem[0] if rem else 0


@dataclass
class CharacterTable:
    name: str
    col_labels: list[str]
    col_sizes: list[int]
    col_orders: list[int]
    col_words: list[list[tuple[str | int, int]]]  # an element of each column's class
    row_names: list[str]
    rows: list[list[CycValue]]
    # sqrt(d) for a table whose irrational values lie in Q(sqrt d): its
    # values reduce mod p with sqrt(d) sent to its even root, for any
    # primitive root of unity.  The others reduce through the w of
    # gf.root_of_unity, which also labels the factors of x^n - 1
    gauss_sum: CycValue | None = None

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def degree(self, i: int) -> int:
        v = self.rows[i][0]
        deg = v.as_integer()
        verify(deg is not None and deg > 0, f"{self.name}: row {i} has no positive degree")
        return deg


def _values(n: int, *rows) -> list[list[CycValue]]:
    """Table rows in Z[zeta_n] from rows of coefficient tuples and ints."""
    return [[CycValue(n, v) if isinstance(v, tuple) else CycValue.integer(v, n) for v in row]
            for row in rows]


def table_A4() -> CharacterTable:
    # omega = zeta_3, omega-bar = zeta_3^2
    omega, omega_bar = (0, 1, 0), (0, 0, 1)
    return CharacterTable(
        name="A4",
        col_labels=["1", "2^2", "3", "3'"],
        col_sizes=[1, 3, 4, 4],
        col_orders=[1, 2, 3, 3],
        col_words=[[], [("y", 1)], [(3, 1)], [(3, 2)]],
        row_names=["chi1", "chi2", "chi3", "chi4"],
        rows=_values(3, [1, 1, 1, 1], [1, 1, omega, omega_bar], [1, 1, omega_bar, omega],
                     [3, -1, 0, 0]),
        gauss_sum=CycValue(3, (1, 2, 0)),  # sqrt(-3) = 1 + 2 zeta_3
    )


def table_S4() -> CharacterTable:
    return CharacterTable(
        name="S4",
        col_labels=["1", "2", "2^2", "3", "4"],
        col_sizes=[1, 6, 3, 8, 6],
        col_orders=[1, 2, 2, 3, 4],
        col_words=[[], [("y", 1)], [(4, 2)], [(3, 1)], [(4, 1)]],
        row_names=["chi1", "chi2", "chi3", "chi4", "chi5"],
        rows=_values(1, [1, 1, 1, 1, 1], [1, -1, 1, 1, -1], [2, 0, 2, -1, 0], [3, 1, -1, 0, -1],
                     [3, -1, -1, 0, 1]),
    )


def table_A5() -> CharacterTable:
    # the golden ratios lambda = (1 + sqrt 5)/2 and mu = (1 - sqrt 5)/2
    lam, mu = (1, 1, 0, 0, 1), (1, 0, 1, 1, 0)
    return CharacterTable(
        name="A5",
        col_labels=["1", "2^2", "3", "5", "5'"],
        col_sizes=[1, 15, 20, 12, 12],
        col_orders=[1, 2, 3, 5, 5],
        col_words=[[], [("y", 1)], [(3, 1)], [(5, 1)], [(5, 2)]],
        row_names=["chi1", "chi2", "chi3", "chi4", "chi5"],
        rows=_values(5, [1, 1, 1, 1, 1], [3, -1, 0, lam, mu], [3, -1, 0, mu, lam],
                     [4, 0, 1, -1, -1], [5, 1, -1, 0, 0]),
        gauss_sum=CycValue(5, (0, 1, -1, -1, 1)),  # sqrt(5)
    )


def dihedral_table(n: int) -> CharacterTable:
    """Character table of D_n, columns indexed by rotation exponent and
    flip parity; two-dimensional characters xi_k have cyclotomic entries."""
    if n < 3:
        raise ValueError(f"D_{n} is not a dihedral group of order 2n with n >= 3")

    # one value object per distinct entry: the integers, and zeta^r + zeta^-r
    # for each residue r, its coefficient tuple written directly
    cint = {c: CycValue.integer(c, n) for c in (-1, 0, 1)}
    alpha = []
    for r in range(n):
        coeffs = [0] * n
        coeffs[r] += 1
        coeffs[-r % n] += 1
        alpha.append(CycValue(n, tuple(coeffs)))

    # the rotations a^k for k <= n/2, then the flips: b, and for even n ba,
    # the other class
    rot = range(n // 2 + 1)
    flips = [[(2, 1)]] if n % 2 else [[(2, 1)], [(2, 1), (n, 1)]]

    def row(rot_value, flip_values):
        return [rot_value(k) for k in rot] + [cint[v] for v in flip_values[:len(flips)]]

    # rows in the order of the least exponent k of the eigenvalues zeta^k of
    # the rotation: chi1, chi2 (k = 0), xi1, xi2, ..., chi3, chi4 (k = n/2)
    row_names = ["chi1", "chi2"]
    rows = [row(lambda k: cint[1], [1, 1]), row(lambda k: cint[1], [-1, -1])]
    for j in range(1, (n + 1) // 2):
        row_names.append(f"xi{j}")
        rows.append(row(lambda k, j=j: alpha[j * k % n], [0, 0]))
    if n % 2 == 0:
        row_names += ["chi3", "chi4"]
        rows += [row(lambda k: cint[(-1) ** k], [1, -1]), row(lambda k: cint[(-1) ** k], [-1, 1])]

    return CharacterTable(
        name=f"D{n}",
        col_labels=["1"] + [f"r{k}" for k in rot[1:]] + ["f", "f'"][:len(flips)],
        col_sizes=[1 if 2 * k % n == 0 else 2 for k in rot] + [n // len(flips)] * len(flips),
        col_orders=[n // math.gcd(k, n) for k in rot] + [2] * len(flips),
        col_words=[[(n, k)] for k in rot] + flips,
        row_names=row_names,
        rows=rows,
    )


def table_for_group(group: GroupData) -> CharacterTable:
    tag = group.map.family.tag
    if tag == "tetrahedron":
        return table_A4()
    if tag in ("cube", "octahedron"):
        return table_S4()
    if tag in ("dodecahedron", "icosahedron"):
        return table_A5()
    return dihedral_table(group.map.family.param)


def _element(group: GroupData, word) -> int:
    """The element a column word names: its factors gen^k multiplied left
    to right, gen y, or the generator of that order, z when it has it and
    x otherwise."""
    out = 0
    for gen, k in word:
        if gen == "y":
            g = group.gen_y
        elif group.element_order(group.gen_z) == gen:
            g = group.gen_z
        else:
            g = group.gen_x
        out = group.mult(out, group.power(g, k))
    return out


def match_classes(table: CharacterTable, group: GroupData) -> list[int]:
    """Group class index for each table column: the class of the element
    its word names."""
    out = [int(group.class_of[_element(group, word)]) for word in table.col_words]
    verify(sorted(out) == list(range(len(group.classes))),
           f"the columns of {table.name} do not match the classes one to one")
    verify(all((group.classes[cid].size, group.classes[cid].rep_order)
               == (table.col_sizes[col], table.col_orders[col]) for col, cid in enumerate(out)),
           f"a column of {table.name} and its class differ in size or element order")
    return out


def column_of_class(matching: list[int]) -> dict[int, int]:
    return {cid: col for col, cid in enumerate(matching)}


def p_power_orbits(table: CharacterTable, group: GroupData, matching: list[int], p: int):
    """Orbits of the rows under the p-power map chi -> (g -> chi(g^p)), each
    a sorted tuple of row indices, in order of their first row.

    For p not dividing |G| an orbit sums to the character of one irreducible
    F_pG-module, and the orbit's length is the degree of its endomorphism
    field over F_p (all Schur indices here are 1)."""
    col_of = column_of_class(matching)
    image_col = [col_of[group.class_of[group.power(group.classes[cid].rep, p)]] for cid in matching]
    row_of = {tuple(row): r for r, row in enumerate(table.rows)}
    image = [row_of.get(tuple(row[col] for col in image_col)) for row in table.rows]
    verify(None not in image and len(set(image)) == len(image),
           f"the {p}-power map does not permute the rows of {table.name}")
    return label_orbits(orbit_labels([np.array(image)]))


def multiplicity_by_H_average(
    table: CharacterTable, row: int, H: list[int], group: GroupData, matching: list[int]
) -> int:
    """(1/|H|) * sum over H of chi(h): the multiplicity of chi in the
    permutation character of G on G/H."""
    col_of = column_of_class(matching)
    total = None
    for h in H:
        v = table.rows[row][col_of[group.class_of[h]]]
        total = v if total is None else total + v
    value = total.as_integer()
    verify(value is not None and value % len(H) == 0, "class matching is inconsistent")
    mult = value // len(H)
    verify(mult >= 0, "a multiplicity is negative")
    return mult


def homology_character(
    group: GroupData, table: CharacterTable, matching: list[int], branch_classes: list[str]
) -> dict[str, int]:
    """Multiplicities of each irreducible in the homology character: the sum
    of the branch permutation characters minus one principal character."""
    mults = {name: 0 for name in table.row_names}
    for bc in branch_classes:
        H = stabilizer_H(group, bc)
        for i, name in enumerate(table.row_names):
            mults[name] += multiplicity_by_H_average(table, i, H, group, matching)
    mults["chi1"] -= 1
    verify(all(v >= 0 for v in mults.values()), "the homology character has a negative multiplicity")
    total_dim = sum(table.degree(i) * mults[name] for i, name in enumerate(table.row_names))
    n_punctures = sum(group.actions[bc].shape[1] for bc in branch_classes)
    verify(total_dim == n_punctures - 1,
           f"the homology character has degree {total_dim}, not {n_punctures - 1}")
    return {name: v for name, v in mults.items() if v}
