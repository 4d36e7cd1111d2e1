"""Ordinary character tables and permutation-character decomposition.

Tables for A4, S4 and A5 are hard-coded with exact quadratic-irrational
entries; dihedral tables are generated with entries in the cyclotomic ring
Z[x]/(x^n - 1).  All arithmetic is exact: orthogonality and multiplicity
checks never touch floating point.

Over F_p, p not dividing |G|, the irreducible characters are the sums over
the orbits of the p-power map chi -> (g -> chi(g^p)) (``p_power_orbits``):
the conjugate pairs of A4 (p = 2 mod 3) and A5 (p = +-2 mod 5), and for D_n
the xi_k with k in one orbit of <p, -1> on Z_n.  Values reduce mod p with
sqrt(d) sent to its even root and zeta_n to the w of ``gf.root_of_unity``,
the same w that labels the factors of x^n - 1.

Class-matching conventions.  The two algebraically conjugate classes of A4
(3-cycles) and A5 (5-cycles) cannot be told apart by size and element order;
the class containing the designated generator (z when its order matches the
ambiguous order, else x) is matched to the first of the two table columns.
Dihedral columns are matched through explicit powers of the designated
rotation a and flip b.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import verify
from .gf import cyclotomic_polynomial, poly_divmod, root_of_unity, sqrt_mod_p
from .maps import GroupData, stabilizer_H


@dataclass(frozen=True)
class QuadValue:
    """Exact a + b*sqrt(d); d = 1 encodes a rational value."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def rational(a, d: int = 1) -> "QuadValue":
        return QuadValue(Fraction(a), Fraction(0), d)

    def __add__(self, other: "QuadValue") -> "QuadValue":
        d = self.d if self.b else other.d
        assert not (self.b and other.b and self.d != other.d)
        return QuadValue(self.a + other.a, self.b + other.b, d)

    def __mul__(self, other: "QuadValue") -> "QuadValue":
        d = self.d if self.b else other.d
        assert not (self.b and other.b and self.d != other.d)
        return QuadValue(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    def times(self, k: int) -> "QuadValue":
        return QuadValue(self.a * k, self.b * k, self.d)

    def conj(self) -> "QuadValue":
        """Complex conjugate: nontrivial only for imaginary quadratics."""
        if self.d < 0:
            return QuadValue(self.a, -self.b, self.d)
        return self

    def galois(self) -> "QuadValue":
        return QuadValue(self.a, -self.b, self.d)

    def as_integer(self):
        if self.b != 0 or self.a.denominator != 1:
            return None
        return int(self.a)

    def mod_p(self, p: int):
        """Image in F_p, or None when sqrt(d) does not exist mod p."""
        if self.b == 0:
            return self.a.numerator * pow(self.a.denominator, -1, p) % p
        s = sqrt_mod_p(self.d % p, p)
        if s is None:
            return None
        num = self.a.numerator * self.b.denominator + self.b.numerator * self.a.denominator * s
        den = self.a.denominator * self.b.denominator
        return num * pow(den, -1, p) % p


@dataclass(frozen=True)
class CycValue:
    """Element of Z[zeta_n] stored as integer coefficients on 1..zeta^{n-1}."""

    n: int
    coeffs: tuple[int, ...]

    @staticmethod
    def integer(c: int, n: int) -> "CycValue":
        return CycValue(n, (c,) + (0,) * (n - 1))

    @staticmethod
    def zeta_power(k: int, n: int) -> "CycValue":
        coeffs = [0] * n
        coeffs[k % n] = 1
        return CycValue(n, tuple(coeffs))

    def __add__(self, other: "CycValue") -> "CycValue":
        assert self.n == other.n
        return CycValue(self.n, tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __mul__(self, other: "CycValue") -> "CycValue":
        assert self.n == other.n
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

    def as_integer(self):
        """The rational integer this value equals, or None.

        Coordinates in the power basis are the remainder mod the n-th
        cyclotomic polynomial, computed exactly over Z."""
        phi = list(cyclotomic_polynomial(self.n))
        _, rem = poly_divmod(list(self.coeffs), phi)
        if any(rem[1:]):
            return None
        return rem[0] if rem else 0

    def mod_p(self, p: int):
        """Image in F_p with zeta sent to the root w of gf.root_of_unity, or
        None when the image lies outside the prime field."""
        field, powers = root_of_unity(self.n, p)
        image = [0] * field.e
        for c, w in zip(self.coeffs, powers):
            if c:
                for i, x in enumerate(w):
                    image[i] += c * x
        if any(x % p for x in image[1:]):
            return None
        return image[0] % p


def _alpha(j: int, k: int, n: int) -> CycValue:
    return CycValue.zeta_power(j * k, n) + CycValue.zeta_power(-j * k, n)


@dataclass
class CharacterTable:
    name: str
    kind: str  # "signature" or "dihedral"
    col_labels: list[str]
    col_sizes: list[int]
    col_orders: list[int]
    row_names: list[str]
    rows: list[list]
    col_spec: list | None = None  # dihedral only: ("rot", k) / ("refl", parity)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def degree(self, i: int) -> int:
        v = self.rows[i][0]
        deg = v.as_integer()
        assert deg is not None and deg > 0
        return deg


_OMEGA = QuadValue(Fraction(-1, 2), Fraction(1, 2), -3)
_OMEGA_BAR = _OMEGA.galois()
_LAMBDA = QuadValue(Fraction(1, 2), Fraction(1, 2), 5)
_MU = _LAMBDA.galois()


def _q(x, d=1):
    return QuadValue.rational(x, d)


def table_A4() -> CharacterTable:
    d = -3
    return CharacterTable(
        name="A4",
        kind="signature",
        col_labels=["1", "2^2", "3", "3'"],
        col_sizes=[1, 3, 4, 4],
        col_orders=[1, 2, 3, 3],
        row_names=["chi1", "chi2", "chi3", "chi4"],
        rows=[
            [_q(1, d), _q(1, d), _q(1, d), _q(1, d)],
            [_q(1, d), _q(1, d), _OMEGA, _OMEGA_BAR],
            [_q(1, d), _q(1, d), _OMEGA_BAR, _OMEGA],
            [_q(3, d), _q(-1, d), _q(0, d), _q(0, d)],
        ],
    )


def table_S4() -> CharacterTable:
    return CharacterTable(
        name="S4",
        kind="signature",
        col_labels=["1", "2", "2^2", "3", "4"],
        col_sizes=[1, 6, 3, 8, 6],
        col_orders=[1, 2, 2, 3, 4],
        row_names=["chi1", "chi2", "chi3", "chi4", "chi5"],
        rows=[
            [_q(1), _q(1), _q(1), _q(1), _q(1)],
            [_q(1), _q(-1), _q(1), _q(1), _q(-1)],
            [_q(2), _q(0), _q(2), _q(-1), _q(0)],
            [_q(3), _q(1), _q(-1), _q(0), _q(-1)],
            [_q(3), _q(-1), _q(-1), _q(0), _q(1)],
        ],
    )


def table_A5() -> CharacterTable:
    d = 5
    return CharacterTable(
        name="A5",
        kind="signature",
        col_labels=["1", "2^2", "3", "5", "5'"],
        col_sizes=[1, 15, 20, 12, 12],
        col_orders=[1, 2, 3, 5, 5],
        row_names=["chi1", "chi2", "chi3", "chi4", "chi5"],
        rows=[
            [_q(1, d), _q(1, d), _q(1, d), _q(1, d), _q(1, d)],
            [_q(3, d), _q(-1, d), _q(0, d), _LAMBDA, _MU],
            [_q(3, d), _q(-1, d), _q(0, d), _MU, _LAMBDA],
            [_q(4, d), _q(0, d), _q(1, d), _q(-1, d), _q(-1, d)],
            [_q(5, d), _q(1, d), _q(-1, d), _q(0, d), _q(0, d)],
        ],
    )


def dihedral_table(n: int) -> CharacterTable:
    """Character table of D_n, columns indexed by rotation exponent and
    flip parity; two-dimensional characters xi_k have cyclotomic entries."""
    assert n >= 3

    def cint(c):
        return CycValue.integer(c, n)

    spec: list = [("rot", 0)]
    labels, sizes, orders = ["1"], [1], [1]
    half = n // 2
    for k in range(1, (n + 1) // 2):
        spec.append(("rot", k))
        labels.append(f"r{k}")
        sizes.append(2)
        orders.append(n // math.gcd(k, n))
    if n % 2 == 0:
        spec.append(("rot", half))
        labels.append(f"r{half}")
        sizes.append(1)
        orders.append(2)
    if n % 2 == 1:
        spec.append(("refl", 0))
        labels.append("f")
        sizes.append(n)
        orders.append(2)
    else:
        spec.append(("refl", 0))
        spec.append(("refl", 1))
        labels.extend(["f", "f'"])
        sizes.extend([half, half])
        orders.extend([2, 2])

    rows: list[list] = []
    row_names: list[str] = []

    def build_row(rot_value, refl_values):
        row = []
        for tag in spec:
            if tag[0] == "rot":
                row.append(rot_value(tag[1]))
            else:
                row.append(refl_values[tag[1]])
        return row

    # rows in the order of the least exponent k of the eigenvalues zeta^k of
    # the rotation: chi1, chi2 (k = 0), xi1, xi2, ..., chi3, chi4 (k = n/2)
    row_names.append("chi1")
    rows.append(build_row(lambda j: cint(1), [cint(1), cint(1)]))
    row_names.append("chi2")
    rows.append(build_row(lambda j: cint(1), [cint(-1), cint(-1)]))
    for k in range(1, (n + 1) // 2 if n % 2 else half):
        row_names.append(f"xi{k}")
        rows.append(build_row(lambda j, k=k: _alpha(j, k, n), [cint(0), cint(0)]))
    if n % 2 == 0:
        row_names.append("chi3")
        rows.append(build_row(lambda j: cint((-1) ** j), [cint(1), cint(-1)]))
        row_names.append("chi4")
        rows.append(build_row(lambda j: cint((-1) ** j), [cint(-1), cint(1)]))

    return CharacterTable(
        name=f"D{n}",
        kind="dihedral",
        col_labels=labels,
        col_sizes=sizes,
        col_orders=orders,
        row_names=row_names,
        rows=rows,
        col_spec=spec,
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


def dihedral_generators(group: GroupData) -> tuple[int, int]:
    """(a, b) with a the designated order-n rotation among {x, z} and b the
    other, an order-2 flip outside <a>."""
    n = group.map.family.param
    ox = group.element_order(group.gen_x)
    if ox == n:
        a, b = group.gen_x, group.gen_z
    else:
        a, b = group.gen_z, group.gen_x
    assert group.element_order(a) == n and group.element_order(b) == 2
    assert b not in set(group.cyclic(a))
    return a, b


def match_classes(table: CharacterTable, group: GroupData) -> list[int]:
    """Group class index for each table column."""
    if table.kind == "dihedral":
        a, b = dihedral_generators(group)
        out = []
        for tag in table.col_spec:
            if tag[0] == "rot":
                out.append(group.class_of[group.power(a, tag[1])])
            elif tag[1] == 0:
                out.append(group.class_of[b])
            else:
                out.append(group.class_of[group.mult(b, a)])
        assert sorted(out) == list(range(len(group.classes)))
        for col, cid in enumerate(out):
            assert group.classes[cid].size == table.col_sizes[col]
        return out

    sig_cols: dict[tuple[int, int], list[int]] = {}
    for col in range(table.n_cols):
        sig_cols.setdefault((table.col_sizes[col], table.col_orders[col]), []).append(col)
    sig_classes: dict[tuple[int, int], list[int]] = {}
    for cid, cls in enumerate(group.classes):
        sig_classes.setdefault((cls.size, cls.rep_order), []).append(cid)
    assert {k: len(v) for k, v in sig_cols.items()} == {
        k: len(v) for k, v in sig_classes.items()
    }, "table does not fit this group"

    out = [-1] * table.n_cols
    for sig, cols in sig_cols.items():
        classes = sig_classes[sig]
        if len(cols) == 1:
            out[cols[0]] = classes[0]
            continue
        assert len(cols) == 2, "only algebraically conjugate pairs expected"
        order = sig[1]
        if group.element_order(group.gen_z) == order:
            designated = group.gen_z
        else:
            designated = group.gen_x
        assert group.element_order(designated) == order
        plus = group.class_of[designated]
        assert plus in classes
        out[cols[0]] = plus
        out[cols[1]] = classes[1] if classes[0] == plus else classes[0]
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


def verify_orthogonality(table: CharacterTable) -> None:
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
    assert value is not None and value % len(H) == 0, "class matching is inconsistent"
    mult = value // len(H)
    assert mult >= 0
    return mult


def multiplicity_by_inner_product(
    table: CharacterTable, row: int, pi: list[int], group: GroupData, matching: list[int]
) -> int:
    total = None
    for col, cid in enumerate(matching):
        term = table.rows[row][col].conj().times(pi[cid] * group.classes[cid].size)
        total = term if total is None else total + term
    value = total.as_integer()
    assert value is not None and value % group.order == 0
    return value // group.order


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
    assert all(v >= 0 for v in mults.values())
    total_dim = sum(table.degree(i) * mults[name] for i, name in enumerate(table.row_names))
    n_punctures = sum(len(group.class_perms(bc)[0]) for bc in branch_classes)
    assert total_dim == n_punctures - 1
    return {name: v for name, v in mults.items() if v}
