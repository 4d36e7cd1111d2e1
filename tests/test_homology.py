"""Homology module and subspace algebra tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platocover.errors import EvenPrimeUnsupported, ModularCaseUnsupported
from platocover.homology import Subspace, build_homology
from platocover.linalg import mat_mul
from platocover.maps import build_group, build_map, family
from reference import intersect, named_submodules, run_python


def group_for(tag, param=None):
    return build_group(build_map(family(tag, param)))


def nested_key(s):
    """The reference order for keys: ambient, then the basis rows as nested
    integer tuples."""
    return (s.ambient, tuple(map(tuple, s.basis.tolist())))


@st.composite
def subspaces(draw):
    """Random subspaces of mixed dimension over one prime, most of them in
    one ambient so that their keys meet; 2^31 - 1 is past the int64 bound, so
    its bases hold Python ints."""
    p = draw(st.sampled_from((3, 7, 2**31 - 1)))
    ambients = st.integers(2, 4) | st.just(draw(st.integers(2, 4)))
    out = []
    for _ in range(draw(st.integers(2, 16))):
        ambient = draw(ambients)
        row = st.lists(st.integers(0, p - 1), min_size=ambient, max_size=ambient)
        rows = draw(st.lists(row, max_size=ambient))
        out.append(Subspace(rows, p, ambient) if rows else Subspace.zero(p, ambient))
    return p, out


class TestSubspace:
    def test_canonical_equality(self):
        p = 5
        s1 = Subspace([[1, 2, 0], [0, 0, 1]], p, 3)
        s2 = Subspace([[2, 4, 1], [0, 0, 3]], p, 3)
        assert s1 == s2 and s1.key() == s2.key()
        assert s1.dim == 2

    def test_contains(self):
        p = 7
        s = Subspace([[1, 0, 3], [0, 1, 5]], p, 3)
        assert s.contains([2, 3, 6 + 15])
        assert not s.contains([0, 0, 1])
        assert s.contains([0, 0, 0])

    def test_zero_and_full(self):
        p = 5
        z = Subspace.zero(p, 4)
        f = Subspace.full(p, 4)
        s = Subspace([[1, 1, 1, 1]], p, 4)
        assert z.dim == 0 and f.dim == 4
        assert s.add(z) == s
        assert intersect(s, s) == s
        assert f.contains_space(s) and s.contains_space(z)

    def test_dimension_formula_randomized(self):
        rng = random.Random(11)
        p = 5
        for _ in range(40):
            amb = rng.randrange(2, 7)
            a = Subspace(
                [[rng.randrange(p) for _ in range(amb)] for _ in range(rng.randrange(1, amb + 1))],
                p,
                amb,
            )
            b = Subspace(
                [[rng.randrange(p) for _ in range(amb)] for _ in range(rng.randrange(1, amb + 1))],
                p,
                amb,
            )
            assert a.add(b).dim + intersect(a, b).dim == a.dim + b.dim

    @settings(max_examples=120, deadline=None)
    @given(subspaces())
    def test_packed_key_sorts_as_nested_tuples(self, case):
        _, spaces = case
        assert sorted(spaces, key=Subspace.key) == sorted(spaces, key=nested_key)
        assert len({s.key() for s in spaces}) == len({nested_key(s) for s in spaces})

    @settings(max_examples=120, deadline=None)
    @given(subspaces())
    def test_from_key_round_trip(self, case):
        p, spaces = case
        for s in spaces:
            back = Subspace.from_key(s.key(), p)
            assert back == s and back.pivots == s.pivots
            assert back.basis.dtype == s.basis.dtype
            assert back.basis.tolist() == s.basis.tolist()

    def test_packed_key_beyond_64_bits(self):
        # entries of 2^89 - 1 need 12 bytes, past every fixed-width integer
        p = 2**89 - 1
        a = Subspace([[1, p - 1, 0], [0, 0, 1]], p, 3)
        b = Subspace([[1, 2**64, 5]], p, 3)
        c = Subspace([[1, 2**64, 0], [0, 0, 1]], p, 3)
        assert len(a.key()[1]) == 2 * 3 * 12
        assert sorted([a, b, c], key=Subspace.key) == sorted([a, b, c], key=nested_key)
        for s in (a, b, c):
            back = Subspace.from_key(s.key(), p)
            assert back == s and back.pivots == s.pivots
            assert back.basis.tolist() == s.basis.tolist()

    def test_vouched_basis_of_the_wrong_width_raises(self):
        # explicit raises, so they hold under python -O too
        with pytest.raises(ValueError, match="ambient dimension 3"):
            Subspace(np.eye(2, dtype=np.int64), 5, 3, _pivots=[0, 1])
        with pytest.raises(ValueError, match="ambient dimension 3"):
            Subspace(np.ones(3, dtype=np.int64), 5, 3, _pivots=[0])

    def test_sum_of_different_ambients_raises(self):
        with pytest.raises(ValueError, match="ambients 3 and 4"):
            Subspace.full(5, 3).add(Subspace.zero(5, 4))

    def test_image(self):
        p = 5
        s = Subspace([[1, 0], [0, 1]], p, 2)
        m = np.array([[1, 2, 3], [0, 1, 4]])
        assert s.image(m).dim == 2
        assert s.image(m).ambient == 3


class TestBuildHomology:
    def test_dimensions(self):
        assert build_homology(group_for("tetrahedron"), ["faces"], 5).dim == 3
        assert build_homology(group_for("icosahedron"), ["faces"], 7).dim == 19
        assert build_homology(group_for("tetrahedron"), ["vertices", "faces"], 5).dim == 7
        assert build_homology(group_for("hosohedron", 95), ["faces"], 7).dim == 94

    def test_rejections(self):
        with pytest.raises(EvenPrimeUnsupported):
            build_homology(group_for("tetrahedron"), ["faces"], 2)
        with pytest.raises(ModularCaseUnsupported):
            build_homology(group_for("tetrahedron"), ["faces"], 3)
        with pytest.raises(ModularCaseUnsupported):
            build_homology(group_for("dodecahedron"), ["faces"], 5)
        with pytest.raises(ValueError):
            build_homology(group_for("cube"), ["faces"], 15)

    @pytest.mark.parametrize("branch, message", [
        (["faces", "corners"], "unknown branch classes 'corners'"),
        (["vertex", "face"], "unknown branch classes 'vertex', 'face'"),
        ([], "empty branch classes"),
    ])
    def test_bad_branch_classes(self, branch, message):
        with pytest.raises(ValueError, match=message):
            build_homology(group_for("cube"), branch, 5)

    @pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
    def test_bad_branch_classes_under_optimize(self, flags, asserts):
        # explicit raises, so under -O an unknown class is not dropped and an
        # empty list does not go on to build a module of dimension -1
        script = (
            "from platocover.homology import build_homology\n"
            "from platocover.maps import build_group, build_map, parse_family\n"
            "group = build_group(build_map(parse_family('cube')))\n"
            "print('asserts', 'on' if __debug__ else 'off')\n"
            "for branch in (['faces', 'corners'], []):\n"
            "    try:\n"
            "        build_homology(group, branch, 5)\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        proc = run_python([*flags, "-c", script])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 and lines[0] == f"asserts {asserts}"
        assert lines[1].startswith("ValueError unknown branch classes 'corners'")
        assert lines[2].startswith("ValueError empty branch classes")

    def test_homomorphism_sampled(self):
        mod = build_homology(group_for("cube"), ["faces"], 5)
        g = mod.group
        rng = random.Random(3)
        for _ in range(25):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            prod = mat_mul(mod.matrices[i], mod.matrices[j], mod.p)
            assert prod.tolist() == mod.matrices[g.mult(i, j)].tolist()

    def test_power_matches_repeated_products(self):
        # the presentation check raises x and z to their orders by squaring
        mod = build_homology(group_for("hosohedron", 13), ["faces"], 5)
        x = mod.matrices[mod.group.gen_x]
        expected = np.eye(mod.dim, dtype=mod.dtype)
        for k in range(15):
            assert mod._power(x, k).tolist() == expected.tolist()
            expected = mat_mul(expected, x, mod.p)

    def test_class_vector_is_invariant(self):
        mod = build_homology(group_for("tetrahedron"), ["vertices", "faces"], 5)
        for bc in ("vertices", "faces"):
            rows = [i for i, (cls, _) in enumerate(mod.punctures) if cls == bc]
            v = mod.projection[rows].sum(axis=0, keepdims=True) % mod.p
            for gen in (mod.group.gen_x, mod.group.gen_z):
                img = mat_mul(v, mod.matrices[gen], mod.p)
                assert img.tolist() == v.tolist()

    def test_invariance_of_a_stack_is_invariance_of_each_basis(self):
        # octahedron faces at p = 7: Qa and Qa'&Qb' are invariant and of
        # dimension 3, the span of the first three coordinates is not; the
        # reference maps each space by every group matrix
        mod = build_homology(group_for("octahedron"), ["faces"], 7)
        named = named_submodules(mod, mod.group)
        spaces = [named["Qa"], Subspace(np.eye(3, mod.dim, dtype=mod.dtype), mod.p, mod.dim),
                  named["Qa'&Qb'"]]
        verdicts = [mod.invariant_under_group(s.basis, s.pivots) for s in spaces]
        assert verdicts == [all(s.contains_space(s.image(A)) for A in mod.matrices) for s in spaces]
        assert verdicts == [True, False, True]
        bases = np.stack([s.basis for s in spaces])
        pivots = np.array([s.pivots for s in spaces])
        assert not mod.invariant_under_group(bases, pivots)
        assert mod.invariant_under_group(bases[[0, 2]], pivots[[0, 2]])

    def test_puncture_classes_sum_to_zero(self):
        mod = build_homology(group_for("octahedron"), ["faces"], 7)
        total = sum(mod.projection[i] for i in range(mod.N)) % mod.p
        assert not total.any()

    def test_reflection_normalizes(self):
        mod = build_homology(group_for("cube"), ["faces"], 5)
        r = mod.reflection_matrix
        group_mats = {m.tobytes() for m in mod.matrices}
        rr = mat_mul(r, r, mod.p)
        assert rr.tobytes() in group_mats


class TestNamedSubmodules:
    def test_octahedron_family(self):
        g = group_for("octahedron")
        mod = build_homology(g, ["faces"], 5)
        named = named_submodules(mod, g)
        assert named["Qa"].dim == 3
        assert named["Qa'"].dim == 4
        assert named["Qb"].dim == 1
        assert named["Qb'"].dim == 6
        assert named["Qa'&Qb'"].dim == 3
        # Q = Qb + Qa + (Qa' n Qb') as a direct sum
        total = named["Qb"].add(named["Qa"]).add(named["Qa'&Qb'"])
        assert total.dim == mod.dim

    def test_cube_antipodal_split(self):
        g = group_for("cube")
        mod = build_homology(g, ["faces"], 5)
        named = named_submodules(mod, g)
        assert named["Qa"].dim == 2
        assert named["Qa'"].dim == 3
        assert named["Qa"].add(named["Qa'"]).dim == 5

    def test_tetrahedron_has_no_antipodal(self):
        g = group_for("tetrahedron")
        mod = build_homology(g, ["faces"], 5)
        named = named_submodules(mod, g)
        assert "Qa" not in named

    def test_sum_zero_image_when_p_divides(self):
        # cube vertices+faces: N = 14, p = 7
        g = group_for("cube")
        mod = build_homology(g, ["vertices", "faces"], 7)
        named = named_submodules(mod, g)
        assert named["Q1"].dim == 12
        g2 = group_for("cube")
        mod2 = build_homology(g2, ["faces"], 5)
        assert "Q1" not in named_submodules(mod2, g2)
