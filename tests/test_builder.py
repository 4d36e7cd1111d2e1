"""Derived-map construction and independent Euler-characteristic checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from platocover.builder import (
    VoltageAssignment,
    derived_permutations,
    euler_verify,
    k_encoding,
    solve_voltages,
)
from platocover.errors import VerificationError
from platocover.homology import Subspace, build_homology
from platocover.lattice import census
from platocover.maps import build_group, build_map, parse_family


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
    root = Path(solve_voltages.__code__.co_filename).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", BAD_VOLTAGE_INPUT, case],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"asserts {asserts}", message]


def test_disconnected_derived_map_is_rejected():
    # a valid c = 1 assignment embedded into c = 2 as (beta, 0): the derived
    # map is p disjoint copies of the c = 1 covering, so V', E', F' and the
    # face lengths all come out right and only connectivity can catch it
    cen = census("octahedron", ("faces",), 5)
    cov = next(cv for cv in cen.coverings if cv.c == 1)
    va = solve_voltages(cen.module, cov.L)
    assert euler_verify(va)[3] == 12

    def pad(a):
        return np.concatenate([a, np.zeros_like(a)], axis=1)

    split = VoltageAssignment(dart_map=va.dart_map, p=va.p, c=2,
                              beta=pad(va.beta), monodromy=pad(va.monodromy))
    with pytest.raises(VerificationError, match="connected"):
        euler_verify(split)
