"""The ten acceptance gates. Each test covers one criterion, checks exact
integer equalities, and prints one PASS line (visible under pytest -s)."""

import importlib.util
import pathlib
from collections import Counter
from functools import lru_cache

from platocover.builder import DART_BUDGET, euler_verify, solve_voltages
from platocover.gf import coset_orbits, factor_xn_minus_1, poly_mul
from platocover.homology import Subspace
from platocover.lattice import census
from platocover.oracle import brute_force_submodules


@lru_cache(maxsize=None)
def _census(name, branch, p):
    return census(name, branch, p)


def _summary(cen):
    return (cen.total, cen.regular_count, cen.chiral_count, cen.dimension_multiset)


def _report(k, text):
    print(f"ACCEPTANCE {k:02d} PASS: {text}")


# every face-branched census the gates touch; criterion 2 sweeps them all
FACE_CASES = (
    [("tetrahedron", p) for p in (5, 7)]
    + [("cube", p) for p in (5, 7)]
    + [("octahedron", p) for p in (5, 7, 11)]
    + [("dodecahedron", p) for p in (11, 19, 7, 13)]
    + [("icosahedron", p) for p in (11, 19, 7, 13)]
    + [("dihedron:5", p) for p in (3, 7)]
    + [("dihedron:6", p) for p in (5, 7)]
    + [("hosohedron:3", p) for p in (5, 7)]
    + [("hosohedron:4", p) for p in (3, 5)]
    + [("hosohedron:8", p) for p in (5, 7)]
    + [("hosohedron:13", p) for p in (53, 3, 17, 5, 41)]
    + [("hosohedron:95", 7)]
)


def test_criterion_01_face_censuses_match_the_classification():
    for p in (5, 7):
        assert _summary(_census("tetrahedron", ("faces",), p))[3] == [3]
        assert _summary(_census("cube", ("faces",), p))[3] == [2, 3, 5]
        assert _summary(_census("octahedron", ("faces",), p))[3] == [1, 3, 3, 4, 4, 6, 7]
    for p in (11, 19):  # p = +-1 mod 5
        assert _summary(_census("dodecahedron", ("faces",), p))[3] == [3, 3, 5, 6, 8, 8, 11]
        total, regular, chiral, _ = _summary(_census("icosahedron", ("faces",), p))
        assert (total, regular, chiral) == (8 * p + 23, 31, 8 * (p - 1))
    for p in (7, 13):  # p = +-2 mod 5
        assert _summary(_census("dodecahedron", ("faces",), p))[3] == [5, 6, 11]
        total, regular, chiral, _ = _summary(_census("icosahedron", ("faces",), p))
        assert (total, regular, chiral) == (4 * p + 11, 15, 4 * (p - 1))
    for name in ("dihedron:5", "dihedron:6"):
        for p in (3, 7) if name.endswith("5") else (5, 7):
            assert _summary(_census(name, ("faces",), p))[:2] == (1, 1)
            assert _summary(_census(name, ("faces",), p))[3] == [1]
    for l, primes in ((3, (5, 7)), (4, (3, 5)), (8, (5, 7)), (13, (53, 3, 17, 5, 41))):
        for p in primes:
            nu = len(coset_orbits(l, p)) - 1
            assert _census(f"hosohedron:{l}", ("faces",), p).total == 2**nu - 1, (l, p)
    _report(1, "face censuses reproduce the classification at two primes per case")


def test_criterion_02_genus_closed_form_every_descriptor():
    checked = 0
    for name, p in FACE_CASES:
        cen = _census(name, ("faces",), p)
        f = cen.module.group.map.F
        n_faces = f
        for d in cen.coverings:
            assert 2 * d.genus == (f - 2) * p**d.c - f * p ** (d.c - 1) + 2, (name, p, d.c)
            if name.startswith("hosohedron"):
                expect = 1 + p ** (d.c - 1) * (n_faces * (p - 1) - 2 * p) // 2
                assert d.genus == expect, (name, p, d.c)
            checked += 1
    _report(2, f"genus closed form holds for all {checked} face-branched descriptors")


def test_criterion_03_quoted_genera():
    tetra = _census("tetrahedron", ("faces",), 5)
    assert [(d.c, d.genus) for d in tetra.coverings] == [(3, 76)]
    for p, genus in ((5, 36), (7, 78)):
        cube = _census("cube", ("faces",), p)
        assert [d.genus for d in cube.coverings if d.c == 2] == [genus]
    for p, genus in ((5, 12), (7, 18), (11, 30)):
        octa = _census("octahedron", ("faces",), p)
        assert {d.genus for d in octa.coverings if d.c == 1} == {genus}
    hoso3 = _census("hosohedron:3", ("faces",), 5)
    assert len(hoso3.coverings) == 1
    assert (hoso3.coverings[0].genus, hoso3.coverings[0].type_string) == (6, "{10,3}")
    hoso4 = _census("hosohedron:4", ("faces",), 3)
    assert [(d.c, d.genus) for d in hoso4.coverings] == [(1, 2), (2, 4), (3, 10)]
    _report(3, "all individually quoted genera reproduced")


def test_criterion_04_hosohedron_95_end_to_end():
    orbits = coset_orbits(95, 7)
    assert sorted(o.size for o in orbits) == [1, 4, 6, 6, 6, 24, 24, 24]
    nu = len(orbits) - 1
    assert nu == 7

    factors = factor_xn_minus_1(95, 7)
    product = [1]
    for _, poly in factors:
        product = poly_mul(product, poly, 7)
    target = [6] + [0] * 94 + [1]
    assert list(product) == target, "factor product must recover x^95 - 1"

    cen = _census("hosohedron:95", ("faces",), 7)
    assert cen.total == 2**7 - 1 == 127
    dims = Counter(cen.dimension_multiset)
    assert min(dims) == 4 and dims[4] == 1
    assert dims[6] == 3
    _report(4, "n=95 p=7: orbits, factor product, nu=7, 127 coverings, c=4 x1, c=6 x3")


def test_criterion_05_hosohedron_13_congruence_sweep():
    expected = {
        53: [2] * 6 + [4] * 15 + [6] * 20 + [8] * 15 + [10] * 6 + [12],
        3: [6, 6, 12],
        17: [6, 6, 12],
        5: [4, 4, 4, 8, 8, 8, 12],
        41: [12],
    }
    for p, dims in expected.items():
        cen = _census("hosohedron:13", ("faces",), p)
        assert cen.dimension_multiset == dims, p
        assert cen.total == len(dims)
    assert [len(v) for v in expected.values()] == [63, 3, 3, 7, 1]
    _report(5, "n=13 sweep: 63/3/3/7/1 coverings with stated dimension multisets")


def test_criterion_06_mixed_vertex_face_branching():
    for p in (5, 7):
        tetra = _census("tetrahedron", ("vertices", "faces"), p)
        assert tetra.total == 2 * p + 5
        assert Counter(d.c for d in tetra.coverings) == {
            1: 1, 3: p + 1, 4: p + 1, 6: 1, 7: 1}
        first = [d for d in tetra.coverings if d.c == 1][0]
        assert first.type_string == "{%d,%d}" % (3 * p, 3 * p)
        assert first.genus == 3 * (p - 1)
        for name in ("cube", "octahedron"):
            cen = _census(name, ("vertices", "faces"), p)
            assert cen.total == 16 * p + 47, (name, p)
    _report(6, "mixed {V,F}: 2p+5 (tetra) and 16p+47 (cube, octa) at p=5,7")


def test_criterion_07_edge_and_full_branching():
    for p in (7, 13):  # p = 1 mod 3: splitting case
        cen = _census("tetrahedron", ("edges",), p)
        assert cen.dimension_multiset == [1, 1, 2, 3, 4, 4, 5]
        assert sorted(d.c for d in cen.coverings if not d.regular) == [1, 1, 4, 4]
    for p in (5, 11):  # p = 2 mod 3: inert case
        cen = _census("tetrahedron", ("edges",), p)
        assert cen.dimension_multiset == [2, 3, 5]
        assert cen.chiral_count == 0

    # per ordinary irreducible: chi1 twice, chi2 and chi3 once, chi4 three
    # times (degrees 1, 1, 1, 3); chi2 and chi3 live in one merged component
    # at p = 5
    full = _census("tetrahedron", ("vertices", "edges", "faces"), 5)
    content = Counter()
    for comp in full.components:
        for label in comp.labels:
            content[label] += comp.multiplicity
            assert comp.irreducible_dim // len(comp.labels) == (3 if label == "chi4" else 1)
    assert content == {"chi1": 2, "chi2": 1, "chi3": 1, "chi4": 3}
    # the central cyclic coverings: one line inside the two-dimensional
    # chi1 component, p + 1 of them
    pure = [d for d in full.coverings if set(d.character) == {"chi1"} and d.c == 1]
    assert len(pure) == 5 + 1
    _report(7, "edge censuses (both residues) and full-branching character profile")


def test_criterion_08_oracle_equivalence():
    cases = [
        ("tetrahedron", ("faces",), 5),
        ("cube", ("faces",), 5),
        ("octahedron", ("faces",), 5),
        ("tetrahedron", ("edges",), 5),
        ("tetrahedron", ("edges",), 7),
    ]
    for l in range(3, 9):
        for p in (5, 7):
            if (2 * l) % p == 0:
                continue  # p divides the group order
            cases.append((f"hosohedron:{l}", ("faces",), p))
    for name, branch, p in cases:
        cen = _census(name, branch, p)
        expected = {d.L.key() for d in cen.coverings}
        expected.add(Subspace.zero(p, cen.module.dim).key())
        expected.add(Subspace.full(p, cen.module.dim).key())
        got = {s.key() for s in brute_force_submodules(cen.module)}
        assert got == expected, (name, branch, p)
    _report(8, f"brute force agrees with the lattice on {len(cases)} modules")


def test_criterion_09_euler_cross_check():
    # dodecahedron and icosahedron use p=11: p=5 divides |A5|
    cases = [("tetrahedron", 5), ("cube", 5), ("octahedron", 5),
             ("dodecahedron", 11), ("icosahedron", 11)]
    verified = []
    for name, p in cases:
        cen = _census(name, ("faces",), p)
        n_darts = cen.module.group.map.n_darts
        done = 0
        for d in cen.coverings:
            if n_darts * p**d.c > DART_BUDGET:
                continue
            va = solve_voltages(cen.module, d.L)
            _, _, _, genus = euler_verify(va)
            assert genus == d.genus, (name, p, d.c)
            done += 1
        assert done > 0, name
        verified.append(f"{name}:{done}")
    _report(9, "derived-map genus equals census genus (" + ", ".join(verified) + ")")


def test_criterion_10_property_suites_standalone():
    path = pathlib.Path(__file__).with_name("test_properties.py")
    spec = importlib.util.spec_from_file_location("property_suites", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    groups = ["TestIdempotentIdentities", "TestRrefCanonicity",
              "TestRowOrthogonality", "TestCensusDuality", "TestChiralityInvolution"]
    for group in groups:
        cls = getattr(mod, group)
        methods = [m for m in dir(cls) if m.startswith("test_")]
        assert methods, group
        getattr(cls(), methods[0])()
    _report(10, "five property suites present and independently runnable")
