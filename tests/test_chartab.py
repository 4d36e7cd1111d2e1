"""Character table and permutation character tests."""

import dataclasses

import pytest

from platocover.chartab import (
    CycValue,
    dihedral_table,
    homology_character,
    match_classes,
    multiplicity_by_H_average,
    p_power_orbits,
    table_A4,
    table_A5,
    table_S4,
    table_for_group,
)
from platocover.decompose import _class_values_mod_p
from platocover.errors import VerificationError
from platocover.maps import build_group, build_map, family, stabilizer_H
from reference import (
    GROUP_LAYER_MAPS,
    dihedral_generators,
    multiplicity_by_inner_product,
    permutation_character,
    signature_matching,
    verify_orthogonality,
    walked_p_power_orbits,
)


def group_for(tag, param=None):
    return build_group(build_map(family(tag, param)))


class TestValues:
    def test_quad_arithmetic(self):
        # A5's golden ratios lambda and mu in Z[zeta_5]: lambda * mu = -1,
        # lambda + mu = 1, and lambda satisfies t^2 = t + 1
        lam, mu = table_A5().rows[1][3:]
        assert (lam * mu).as_integer() == -1
        assert (lam + mu).as_integer() == 1
        assert (lam * lam + lam.times(-1)).as_integer() == 1
        # the Gauss sums are omega - omega-bar and lambda - mu, of square d
        omega, omega_bar = table_A4().rows[1][2:]
        for table, d, plus, minus in ((table_A4(), -3, omega, omega_bar), (table_A5(), 5, lam, mu)):
            assert (table.gauss_sum * table.gauss_sum).as_integer() == d
            assert (plus + minus.times(-1) + table.gauss_sum.times(-1)).as_integer() == 0
        assert table_S4().gauss_sum is None and dihedral_table(5).gauss_sum is None

    def test_quad_mod_p(self):
        # sqrt(-3) goes to its even root 2 mod 7, so omega = (-1 + 2)/2 = 4,
        # and sqrt(5) to 4 mod 11, so lambda = (1 + 4)/2 = 8 and mu = 4
        values, in_prime_field = _class_values_mod_p(table_A4(), [(1,), (2,)], 7)
        assert values[:, 2:].tolist() == [[4, 2], [2, 4]] and in_prime_field.all()
        values, in_prime_field = _class_values_mod_p(table_A5(), [(1,), (2,)], 11)
        assert values[:, 3:].tolist() == [[8, 4], [4, 8]] and in_prime_field.all()
        # 5 is not a square mod 7: lambda leaves F_7, lambda + mu = 1 does not
        values, in_prime_field = _class_values_mod_p(table_A5(), [(1,), (1, 2)], 7)
        assert in_prime_field.tolist() == [False, True] and values[1, 3:].tolist() == [1, 1]

    def test_cyc_value(self):
        # zeta_5 + zeta_5^4 + zeta_5^2 + zeta_5^3 = -1
        n = 5
        zeta = [CycValue(n, tuple(int(i == k) for i in range(n))) for k in range(n)]
        total = zeta[1]
        for k in (2, 3, 4):
            total = total + zeta[k]
        assert total.as_integer() == -1
        assert zeta[1].as_integer() is None
        assert CycValue.integer(7, n).as_integer() == 7


class TestOrthogonality:
    @pytest.mark.parametrize("table", [table_A4(), table_S4(), table_A5()], ids=lambda t: t.name)
    def test_solid_tables(self, table):
        verify_orthogonality(table)
        assert sum(table.degree(i) ** 2 for i in range(len(table.rows))) == sum(table.col_sizes)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12])
    def test_dihedral_tables(self, n):
        table = dihedral_table(n)
        verify_orthogonality(table)
        assert sum(table.degree(i) ** 2 for i in range(len(table.rows))) == 2 * n


class TestMatching:
    def test_signature_tables_fit(self):
        for tag in ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"):
            g = group_for(tag)
            table = table_for_group(g)
            matching = match_classes(table, g)
            assert sorted(matching) == list(range(len(g.classes)))
            for col, cid in enumerate(matching):
                assert g.classes[cid].size == table.col_sizes[col]
                assert g.classes[cid].rep_order == table.col_orders[col]

    def test_designated_class_convention(self):
        # tetrahedron: z has order 3, its class is the first order-3 column
        g = group_for("tetrahedron")
        table = table_A4()
        matching = match_classes(table, g)
        assert matching[2] == g.class_of[g.gen_z]
        # icosahedron: z has order 3 but the ambiguous classes have order 5,
        # so x is designated
        g = group_for("icosahedron")
        table = table_A5()
        matching = match_classes(table, g)
        assert matching[3] == g.class_of[g.gen_x]

    def test_dihedral_matching(self):
        for param in (5, 6, 95):
            g = group_for("hosohedron", param)
            table = dihedral_table(param)
            matching = match_classes(table, g)
            assert sorted(matching) == list(range(len(g.classes)))
        g = group_for("dihedron", 7)
        a, b = dihedral_generators(g)
        assert g.element_order(a) == 7 and g.element_order(b) == 2
        match_classes(dihedral_table(7), g)


    def test_column_words_match_the_signature_rule(self):
        # one word per column against matching by size and element order,
        # the conjugate pairs by the designated generator, and the dihedral
        # columns by the powers of a and the flips b and ba
        for spec in GROUP_LAYER_MAPS:
            g = group_for(*spec)
            table = table_for_group(g)
            assert match_classes(table, g) == signature_matching(table, g), spec

    @pytest.mark.parametrize("words, message", [
        ([[], [(3, 1)], [("y", 1)], [(3, 2)]], "differ in size or element order"),
        ([[], [("y", 1)], [(3, 1)], [(3, 1)]], "one to one"),
    ])
    def test_words_that_miss_their_classes_raise(self, words, message):
        table = dataclasses.replace(table_A4(), col_words=words)
        with pytest.raises(VerificationError, match=message):
            match_classes(table, group_for("tetrahedron"))


def decompose(tag, branch_class, param=None):
    g = group_for(tag, param)
    table = table_for_group(g)
    matching = match_classes(table, g)
    pi = permutation_character(g, branch_class)
    H = stabilizer_H(g, branch_class)
    out = {}
    for i, name in enumerate(table.row_names):
        m = multiplicity_by_H_average(table, i, H, g, matching)
        assert m == multiplicity_by_inner_product(table, i, pi, g, matching)
        if m:
            out[name] = m
    return out


class TestPermutationCharacters:
    def test_faces(self):
        assert decompose("tetrahedron", "faces") == {"chi1": 1, "chi4": 1}
        assert decompose("cube", "faces") == {"chi1": 1, "chi3": 1, "chi5": 1}
        assert decompose("octahedron", "faces") == {"chi1": 1, "chi2": 1, "chi4": 1, "chi5": 1}
        assert decompose("dodecahedron", "faces") == {"chi1": 1, "chi2": 1, "chi3": 1, "chi5": 1}
        assert decompose("icosahedron", "faces") == {
            "chi1": 1, "chi2": 1, "chi3": 1, "chi4": 2, "chi5": 1,
        }

    def test_vertices_matches_dual_faces(self):
        assert decompose("cube", "vertices") == decompose("octahedron", "faces")
        assert decompose("dodecahedron", "vertices") == decompose("icosahedron", "faces")

    def test_edges(self):
        assert decompose("tetrahedron", "edges") == {"chi1": 1, "chi2": 1, "chi3": 1, "chi4": 1}
        for tag in ("cube", "octahedron"):
            assert decompose(tag, "edges") == {"chi1": 1, "chi3": 1, "chi4": 2, "chi5": 1}
        for tag in ("dodecahedron", "icosahedron"):
            assert decompose(tag, "edges") == {
                "chi1": 1, "chi2": 1, "chi3": 1, "chi4": 2, "chi5": 3,
            }

    def test_trivial_multiplicity_is_one(self):
        for tag, bc in (("cube", "vertices"), ("icosahedron", "edges"), ("tetrahedron", "faces")):
            assert decompose(tag, bc)["chi1"] == 1

    def test_degree_sum_equals_class_size(self):
        g = group_for("dodecahedron")
        table = table_for_group(g)
        matching = match_classes(table, g)
        for bc, count in (("vertices", 20), ("edges", 30), ("faces", 12)):
            H = stabilizer_H(g, bc)
            total = sum(
                table.degree(i) * multiplicity_by_H_average(table, i, H, g, matching)
                for i in range(len(table.rows))
            )
            assert total == count


class TestHomologyCharacter:
    def cases(self):
        return [
            ("octahedron", ["faces"], {"chi2": 1, "chi4": 1, "chi5": 1}),
            ("tetrahedron", ["vertices", "faces"], {"chi1": 1, "chi4": 2}),
            ("tetrahedron", ["edges"], {"chi2": 1, "chi3": 1, "chi4": 1}),
            (
                "tetrahedron",
                ["vertices", "edges", "faces"],
                {"chi1": 2, "chi2": 1, "chi3": 1, "chi4": 3},
            ),
        ]

    def test_known_decompositions(self):
        for tag, branches, expected in self.cases():
            g = group_for(tag)
            table = table_for_group(g)
            matching = match_classes(table, g)
            assert homology_character(g, table, matching, branches) == expected

    def test_hosohedron_faces(self):
        g = group_for("hosohedron", 4)
        table = table_for_group(g)
        matching = match_classes(table, g)
        chi = homology_character(g, table, matching, ["faces"])
        assert chi == {"chi3": 1, "xi1": 1}
        g = group_for("hosohedron", 3)
        table = table_for_group(g)
        matching = match_classes(table, g)
        assert homology_character(g, table, matching, ["faces"]) == {"xi1": 1}


@pytest.mark.parametrize("tag, param", [
    ("tetrahedron", None), ("cube", None), ("dodecahedron", None),
    ("hosohedron", 5), ("hosohedron", 8), ("dihedron", 7), ("hosohedron", 95),
])
def test_p_power_orbits_match_walk(tag, param):
    # cycle labels against a walk along each row's cycle, at primes that
    # split, pair or merge the table's rows
    g = group_for(tag, param)
    table = table_for_group(g)
    matching = match_classes(table, g)
    for p in (3, 5, 7, 11, 13, 19, 29, 31, 101):
        if g.order % p:
            assert p_power_orbits(table, g, matching, p) == walked_p_power_orbits(table, g, matching, p)


def test_values_of_different_fields_do_not_combine():
    # raised explicitly, so the checks also hold under python -O
    for op in (CycValue.__add__, CycValue.__mul__):
        with pytest.raises(ValueError, match="do not combine"):
            op(CycValue(5, (0, 1, 0, 0, 0)), CycValue(7, (0, 1, 0, 0, 0, 0, 0)))
    with pytest.raises(ValueError, match="D_2"):
        dihedral_table(2)
