"""Derived-map construction and independent Euler-characteristic checks."""

import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from platocover.builder import (
    DART_BUDGET,
    VoltageAssignment,
    _derived_counts,
    _lift,
    derived_permutations,
    euler_buffers,
    euler_verify,
    solve_voltages,
)
from platocover.errors import VerificationError
from platocover.homology import Subspace, build_homology
from platocover.lattice import census
from platocover.linalg import Labeller, joint_orbit_count
from platocover.maps import build_group, build_map, parse_family
from reference import (
    k_encoding,
    reference_derived_counts,
    reference_derived_permutations,
    run_python,
)


def _module(name, p):
    group = build_group(build_map(parse_family(name)))
    return group, build_homology(group, ("faces",), p)


def test_tetrahedron_full_cover_genus_76():
    cen = census("tetrahedron", ("faces",), 5)
    assert cen.total == 1
    cov = cen.coverings[0]
    assert cov.c == 3
    va = solve_voltages(cen.module, cov.L)
    v, e, f, genus = euler_verify(va)
    assert (v, e, f) == (4 * 125, 6 * 125, 4 * 25)
    assert genus == 76 == cov.genus


def test_cube_and_octahedron_examples():
    cen = census("cube", ("faces",), 5)
    two = [cov for cov in cen.coverings if cov.c == 2]
    assert len(two) == 1 and two[0].genus == 36
    _, _, _, genus = euler_verify(solve_voltages(cen.module, two[0].L))
    assert genus == 36

    cen = census("octahedron", ("faces",), 5)
    ones = [cov for cov in cen.coverings if cov.c == 1]
    assert {cov.genus for cov in ones} == {12}
    for cov in ones:
        _, _, _, genus = euler_verify(solve_voltages(cen.module, cov.L))
        assert genus == 12


def test_small_censuses_match_throughout():
    for name, p in [("dihedron:5", 3), ("hosohedron:3", 5), ("tetrahedron", 7)]:
        cen = census(name, ("faces",), p)
        for cov in cen.coverings:
            va = solve_voltages(cen.module, cov.L)
            _, _, _, genus = euler_verify(va)
            assert genus == cov.genus, (name, p, cov.c)


def test_voltage_shape_and_antisymmetry():
    cen = census("cube", ("faces",), 5)
    cov = min(cen.coverings, key=lambda cv: cv.c)
    va = solve_voltages(cen.module, cov.L)
    dm = va.dart_map
    assert va.beta.shape == (dm.n_darts, cov.c)
    for d in range(dm.n_darts):
        back = (-va.beta[d]) % va.p
        assert va.beta[dm.alpha[d]].tolist() == back.tolist()
    total = va.monodromy.sum(axis=0) % va.p
    assert not total.any()


def test_translation_action_commutes_with_derived_map():
    cen = census("tetrahedron", ("faces",), 5)
    cov = cen.coverings[0]
    va = solve_voltages(cen.module, cov.L)
    sigma_big, alpha_big = derived_permutations(va)

    k_vectors, powers = k_encoding(va.p, va.c)
    size = va.p**va.c
    t = np.zeros(va.c, dtype=np.int64)
    t[0] = 1
    shifted = ((k_vectors + t) % va.p) @ powers
    n_base = va.dart_map.n_darts
    t_big = (np.arange(n_base, dtype=np.int64)[:, None] * size + shifted[None, :]).ravel()

    assert np.array_equal(t_big[sigma_big], sigma_big[t_big])
    assert np.array_equal(t_big[alpha_big], alpha_big[t_big])


def test_dart_budget_is_enforced():
    group, module = _module("octahedron", 5)
    full = Subspace.zero(5, module.dim)
    va = solve_voltages(module, full)
    with pytest.raises(ValueError, match="budget"):
        euler_verify(va)


def test_rejects_non_face_branching():
    group = build_group(build_map(parse_family("tetrahedron")))
    module = build_homology(group, ("vertices", "faces"), 5)
    target = Subspace.zero(5, module.dim)
    with pytest.raises(ValueError, match="faces-only"):
        solve_voltages(module, target)


# calls solve_voltages with vertex and face branching, or with L = Q, on the
# cube at p = 5, and reports what it raised
BAD_VOLTAGE_INPUT = """
import sys
from platocover.builder import solve_voltages
from platocover.homology import Subspace, build_homology
from platocover.maps import build_group, build_map, parse_family

group = build_group(build_map(parse_family("cube")))
if sys.argv[1] == "branching":
    module = build_homology(group, ("vertices", "faces"), 5)
    L = Subspace.zero(5, module.dim)
else:
    module = build_homology(group, ("faces",), 5)
    L = Subspace.full(5, module.dim)
print("asserts", "on" if __debug__ else "off")
try:
    solve_voltages(module, L)
except Exception as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("case, message", [
    ("branching", "ValueError voltage construction needs faces-only branching, not vertices,faces"),
    ("full", "ValueError L must be a proper submodule of Q (dimension 5); "
               "got dimension 5 in ambient 5"),
])
@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
def test_bad_voltage_input_raises_value_error(flags, asserts, case, message):
    # explicit raises, so under -O the call does not go on to build a map
    proc = run_python([*flags, "-c", BAD_VOLTAGE_INPUT, case])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"asserts {asserts}", message]


def test_disconnected_derived_map_is_rejected():
    # a valid c = 1 assignment embedded into c = 2 and c = 3 as (beta, 0)
    # and (beta, 0, 0): the derived map is p or p^2 disjoint copies of the
    # c = 1 covering, so V', E', F' and the face lengths all come out right
    # and only connectivity can catch it; the face cycles joined along
    # alpha' count the copies, as the orbits of <sigma', alpha'> do
    cen = census("octahedron", ("faces",), 5)
    cov = next(cv for cv in cen.coverings if cv.c == 1)
    va = solve_voltages(cen.module, cov.L)
    assert euler_verify(va)[3] == 12

    def pad(a, zeros):
        return np.concatenate([a] + [np.zeros_like(a)] * zeros, axis=1)

    for zeros in (1, 2):
        split = VoltageAssignment(dart_map=va.dart_map, p=va.p, c=1 + zeros,
                                  beta=pad(va.beta, zeros), monodromy=pad(va.monodromy, zeros))
        sigma_big, alpha_big = derived_permutations(split)
        labeller = Labeller(sigma_big.size)
        labeller.cycles(sigma_big[alpha_big])
        assert labeller.count(labeller.join([alpha_big])) == va.p**zeros
        assert joint_orbit_count(sigma_big, alpha_big) == va.p**zeros
        with pytest.raises(VerificationError, match="connected"):
            euler_verify(split)


@pytest.mark.parametrize("name, p", [("tetrahedron", 5), ("cube", 5), ("octahedron", 5),
                                     ("dihedron:5", 3)])
def test_coboundary_leaves_the_counts(name, p):
    # voltages that differ by a coboundary f(head) - f(tail), for any map f
    # from the vertices to K, meet the same face sums and give isomorphic
    # derived maps, which is why solve_voltages may take any solution of
    # the face system: euler_verify counts the same on both
    rng = np.random.default_rng(25)
    cen = census(name, ("faces",), p)
    for cov in cen.coverings:
        va = solve_voltages(cen.module, cov.L)
        dm = va.dart_map
        if dm.n_darts * p**va.c > DART_BUDGET:
            continue
        f = rng.integers(0, p, size=(dm.V, va.c))
        tail = np.array(dm.vertex_of)
        shifted = VoltageAssignment(dart_map=dm, p=p, c=va.c, monodromy=va.monodromy,
                                    beta=(va.beta + f[tail[np.array(dm.alpha)]] - f[tail]) % p)
        assert (shifted.beta != va.beta).any()
        faces = np.array(dm.face_orbits)
        assert np.array_equal(shifted.beta[faces].sum(axis=1) % p, va.monodromy)
        counts = euler_verify(va)
        assert counts[3] == cov.genus and euler_verify(shifted) == counts


# breaks one check of the voltage construction at a time on the cube at
# p = 5 and reports what each raised: a base map with a face too many for
# the rank of its face system, puncture classes that do not sum to 0, so
# that no voltages meet them, and rows of the wrong width for
# linalg.as_matrix
BROKEN_CONSTRUCTION = """
import dataclasses
from platocover.builder import solve_voltages
from platocover.errors import VerificationError
from platocover.homology import Subspace, build_homology
from platocover.linalg import as_matrix
from platocover.maps import build_group, build_map, parse_family

dm = build_map(parse_family("cube"))
module = build_homology(build_group(dm), ("faces",), 5)
print("asserts", "on" if __debug__ else "off")
module.group.map = dataclasses.replace(dm, face_dart=dm.face_dart + (0,))
try:
    solve_voltages(module, Subspace.zero(5, module.dim))
except VerificationError as exc:
    print(type(exc).__name__, exc)
module.group.map = dm
module.projection = module.projection.copy()
module.projection[-1] = 0
try:
    solve_voltages(module, Subspace.zero(5, module.dim))
except VerificationError as exc:
    print(type(exc).__name__, exc)
try:
    as_matrix([[1, 2, 3]], 5, width=4)
except ValueError as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
def test_construction_checks_survive_optimize(flags, asserts):
    proc = run_python([*flags, "-c", BROKEN_CONSTRUCTION])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"asserts {asserts}",
        "VerificationError the face system has rank 5, not F - 1 = 6",
        "VerificationError the face system has a pivot among its right-hand sides",
        "ValueError rows of width 3, expected 4",
    ]


# ---------------------------------------------------------------------------
# derived_permutations lifts sigma and alpha in one broadcast pass each; the
# digit-by-digit loop in tests/reference.py must give the same arrays, and
# alpha's voltages lifted onto sigma alpha must give phi' = sigma' alpha'


def assert_matches_digit_loop(va):
    sigma_big, alpha_big = derived_permutations(va)
    expected_sigma, expected_alpha = reference_derived_permutations(va)
    assert np.array_equal(sigma_big, expected_sigma)
    assert np.array_equal(alpha_big, expected_alpha)
    phi = np.asarray(va.dart_map.sigma)[np.asarray(va.dart_map.alpha)]
    assert np.array_equal(_lift(phi, va.beta, va.p, va.c), sigma_big[alpha_big])


@pytest.mark.parametrize("name, p", [("tetrahedron", 5), ("tetrahedron", 7), ("octahedron", 5)])
def test_derived_permutations_match_the_digit_loop(name, p):
    cen = census(name, ("faces",), p)
    for cov in cen.coverings:
        if cen.module.group.map.n_darts * p**cov.c <= DART_BUDGET:
            assert_matches_digit_loop(solve_voltages(cen.module, cov.L))


@pytest.fixture(scope="module")
def icosahedron_p11():
    return census("icosahedron", ("faces",), 11)


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_icosahedron_derived_permutations_match_the_digit_loop(icosahedron_p11, c):
    # the census at p = 11 has coverings with c = 3 and 4 only; for c = 1, 2
    # the quotient is by the span of the last dim - c coordinate vectors,
    # which solve_voltages accepts as any proper subspace
    module = icosahedron_p11.module
    L = next((cov.L for cov in icosahedron_p11.coverings if cov.c == c),
             Subspace(np.eye(module.dim, dtype=np.int64)[c:], 11, module.dim))
    assert_matches_digit_loop(solve_voltages(module, L))


@cache
def _dart_map(name):
    return build_map(parse_family(name))


@st.composite
def voltage_assignments(draw):
    dm = _dart_map(draw(st.sampled_from(["tetrahedron", "cube", "dihedron:3", "hosohedron:4"])))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    c = draw(st.integers(1, 3))
    beta = draw(arrays(np.int64, (dm.n_darts, c), elements=st.integers(0, p - 1)))
    return VoltageAssignment(dart_map=dm, p=p, c=c, beta=beta,
                             monodromy=np.zeros((dm.F, c), dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(voltage_assignments())
def test_derived_permutations_match_the_digit_loop_on_drawn_voltages(va):
    assert_matches_digit_loop(va)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_euler_verify_peak_memory_per_dart(icosahedron_p11):
    # the largest verified covering of the benchmark: 60 * 11^4 = 878,460
    # derived darts; its one labeller and one permutation buffer stay
    # within 32 bytes per derived dart, and a call on buffers lent by the
    # census allocates at most 1 byte per derived dart
    cov = next(cov for cov in icosahedron_p11.coverings if cov.c == 4)
    va = solve_voltages(icosahedron_p11.module, cov.L)
    darts = va.dart_map.n_darts * va.p**va.c
    assert darts == 878_460
    result, peak = _peak_bytes(lambda: euler_verify(va))
    assert result[3] == cov.genus
    assert peak <= 32 * darts, f"{peak / darts:.1f} bytes per derived dart"
    work = euler_buffers(darts)
    lent, peak = _peak_bytes(lambda: euler_verify(va, work))
    assert lent == result
    assert peak <= darts, f"{peak / darts:.2f} bytes per derived dart with lent buffers"


def test_lent_buffers_match_fresh_ones(icosahedron_p11):
    # every verified covering through one set of buffers, a c = 4 one first,
    # so the c = 3 ones count on views of larger buffers holding the
    # previous call's contents
    module = icosahedron_p11.module
    coverings = sorted((cov for cov in icosahedron_p11.coverings
                        if module.group.map.n_darts * 11**cov.c <= DART_BUDGET),
                       key=lambda cov: -cov.c)
    assert [cov.c for cov in coverings] == [4] * 12 + [3] * 2
    work = euler_buffers(module.group.map.n_darts * 11**4)
    for cov in coverings:
        va = solve_voltages(module, cov.L)
        lent = euler_verify(va, work)
        assert lent == euler_verify(va)
        assert lent[3] == cov.genus


def test_buffers_too_small_are_rejected():
    cen = census("cube", ("faces",), 5)
    cov = max(cen.coverings, key=lambda cv: cv.c)
    va = solve_voltages(cen.module, cov.L)
    darts = va.dart_map.n_darts * 5**cov.c
    assert euler_verify(va, euler_buffers(darts)) == euler_verify(va)
    with pytest.raises(ValueError, match="buffers hold"):
        euler_verify(va, euler_buffers(darts - 1))
    # a labeller smaller than a large enough permutation buffer
    for held in (darts // 2, darts - 1):
        with pytest.raises(ValueError, match=f"buffers hold {held}$"):
            euler_verify(va, (Labeller(held), np.empty(darts, dtype=np.intp)))


# ---------------------------------------------------------------------------
# euler_verify counts each derived permutation's cycles by first return to
# the fibres over the base cycles' least darts; tests/reference.py counts
# them, the face lengths and the connectivity by doubling over all N darts


@pytest.mark.parametrize("name, p", [("tetrahedron", 7), ("cube", 5), ("octahedron", 5),
                                     ("hosohedron:6", 5), ("dihedron:5", 3), ("icosahedron", 11)])
def test_euler_verify_matches_the_full_map_count(name, p):
    cen = census(name, ("faces",), p)
    dm = cen.module.group.map
    checked = [cov for cov in cen.coverings if dm.n_darts * p**cov.c <= DART_BUDGET]
    assert checked
    for cov in checked:
        va = solve_voltages(cen.module, cov.L)
        counts = reference_derived_counts(va)
        assert _derived_counts(va, *euler_buffers(dm.n_darts * p**cov.c)) == counts
        v, e, f, lengths, orbits = counts
        assert lengths == (dm.n * p, dm.n * p) and orbits == 1
        assert euler_verify(va) == (v, e, f, cov.genus) and v - e + f == 2 - 2 * cov.genus


@settings(max_examples=80, deadline=None)
@given(voltage_assignments())
def test_derived_counts_match_the_full_map_count_on_drawn_voltages(va):
    # drawn voltages need not be antisymmetric nor meet any face sums, so
    # the derived map may have short faces, edge cycles longer than 2 and
    # several components; every lift still covers its base permutation
    darts = va.dart_map.n_darts * va.p**va.c
    assert _derived_counts(va, *euler_buffers(darts)) == reference_derived_counts(va)


# breaks one derived permutation at a time in euler_verify on the cube at
# p = 5 and reports what each raised: phi' with the targets of two darts
# over different base darts swapped, so that a walk leaves the fibres over
# its base face, and alpha' sending two darts of one fibre to one target,
# so that some derived dart lies on no walk
BROKEN_LIFTS = """
from platocover import builder
from platocover.errors import VerificationError
from platocover.lattice import census

cen = census("cube", ("faces",), 5)
va = builder.solve_voltages(cen.module, max(cen.coverings, key=lambda cv: cv.c).L)
size = 5**va.c
lift = builder._lift
print("asserts", "on" if __debug__ else "off")


def swap_across_fibres(out):
    out[[0, size]] = out[[size, 0]]


def send_two_to_one(out):
    out[1] = out[0]


# euler_verify lifts phi', then alpha', then sigma'
for broken, damage in ((1, swap_across_fibres), (2, send_two_to_one)):
    lifts = []

    def broken_lift(*args, **kwargs):
        lifts.append(lift(*args, **kwargs))
        if len(lifts) == broken:
            damage(lifts[-1])
        return lifts[-1]

    builder._lift = broken_lift
    try:
        builder.euler_verify(va)
    except VerificationError as exc:
        print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
def test_broken_lifts_are_rejected_under_optimize(flags, asserts):
    proc = run_python([*flags, "-c", BROKEN_LIFTS])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"asserts {asserts}",
        "VerificationError the derived permutation leaves the fibres over its base cycle",
        "VerificationError some derived dart lies on no walk from the fibres over the least darts",
    ]
