"""Brute-force submodule search against the structured enumeration."""

import pytest

from platocover.decompose import decompose_module
from platocover.homology import build_homology
from platocover.lattice import enumerate_submodules
from platocover.maps import build_group, build_map, parse_family
from platocover.oracle import brute_force_submodules


def _module(name, branch, p):
    group = build_group(build_map(parse_family(name)))
    return build_homology(group, branch, p)


def _enumerated_keys(module):
    components = decompose_module(module)
    return sorted(L.key() for L, _ in enumerate_submodules(components, module))


def test_tetrahedron_faces_has_only_trivial_submodules():
    module = _module("tetrahedron", ("faces",), 5)
    spaces = brute_force_submodules(module)
    assert [s.dim for s in spaces] == [0, 3]


def test_cube_faces_chain():
    module = _module("cube", ("faces",), 5)
    spaces = brute_force_submodules(module)
    assert [s.dim for s in spaces] == [0, 2, 3, 5]


def test_hosohedron4_count():
    module = _module("hosohedron:4", ("faces",), 3)
    spaces = brute_force_submodules(module)
    assert [s.dim for s in spaces] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "name,branch,p",
    [
        ("tetrahedron", ("faces",), 5),
        ("cube", ("faces",), 5),
        ("octahedron", ("faces",), 5),
        ("hosohedron:3", ("faces",), 5),
        ("tetrahedron", ("edges",), 5),
        ("tetrahedron", ("vertices", "faces"), 5),
        ("dihedron:5", ("faces",), 7),
        # xi1 has d = 2 and m = 2 over paired Frobenius orbits {1} and {2}
        ("hosohedron:3", ("edges", "faces"), 7),
    ],
)
def test_matches_structured_enumeration(name, branch, p):
    module = _module(name, branch, p)
    spaces = brute_force_submodules(module)
    assert sorted(s.key() for s in spaces) == _enumerated_keys(module)


def test_budget_guard():
    module = _module("dodecahedron", ("faces",), 11)
    with pytest.raises(ValueError, match="budget"):
        brute_force_submodules(module)
