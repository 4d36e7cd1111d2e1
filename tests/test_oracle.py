"""Brute-force submodule search against the structured enumeration."""

import ast
import inspect

import pytest

from platocover import oracle
from platocover.decompose import decompose_module, spin
from platocover.homology import build_homology
from platocover.lattice import enumerate_submodules
from platocover.maps import build_group, build_map, parse_family
from platocover.oracle import brute_force_submodules, cyclic_submodules


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


@pytest.mark.parametrize("name", ["cube", "octahedron"])
def test_cyclic_submodules_match_spin(name):
    # the oracle builds each cyclic submodule as the row space of the
    # vector's images under every group matrix; decompose.spin closes the
    # vector under the two generators instead, and must agree
    module = _module(name, ("faces",), 5)
    group = module.group
    gens = [module.matrices[group.gen_x], module.matrices[group.gen_z]]
    vectors, spaces = cyclic_submodules(module)
    assert len(vectors) == len(spaces) > 0
    assert spaces == [spin(module, v, gens) for v in vectors]


def test_oracle_shares_no_code_with_decompose():
    tree = ast.parse(inspect.getsource(oracle))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not any(name and name.split(".")[-1] == "decompose" for name in imported)
