"""Brute-force submodule search against the structured enumeration."""

import ast
import inspect

import numpy as np
import pytest

from platocover import oracle
from platocover.decompose import decompose_module
from platocover.homology import build_homology
from platocover.lattice import enumerate_submodules
from platocover.maps import build_group, build_map, parse_family
from platocover.oracle import brute_force_submodules, cyclic_submodules
from reference import spin


def _module(name, branch, p):
    group = build_group(build_map(parse_family(name)))
    return build_homology(group, branch, p)


def _enumerated_keys(module):
    components = decompose_module(module)
    return sorted(enumerate_submodules(components, module).keys)


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


@pytest.mark.parametrize("name, p", [
    # digits above 127, which a signed byte wraps
    ("tetrahedron", 131),
    # dim * (p-1)^2 = 4,294,705,152 >= 2^31, which int32 products overflow
    ("dihedron:3", 65537),
])
def test_linear_permutation_is_a_permutation(name, p):
    module = _module(name, ("faces",), p)
    size = p**module.dim
    digits = oracle._all_digits(size, module.dim, p)
    group = module.group
    for matrix in (module.matrices[group.gen_x], module.matrices[group.gen_z],
                   np.eye(module.dim, dtype=np.int64) * (p - 1)):
        perm = oracle._linear_permutation(digits, matrix, p)
        assert np.array_equal(np.sort(perm), np.arange(size))


@pytest.mark.parametrize("name", ["cube", "octahedron"])
def test_cyclic_submodules_match_spin(name):
    # the oracle builds each cyclic submodule as the row space of the
    # vector's images under every group matrix; the reference spin closes
    # the vector under the two generators one sum at a time, and must agree
    module = _module(name, ("faces",), 5)
    group = module.group
    gens = [module.matrices[group.gen_x], module.matrices[group.gen_z]]
    vectors, spaces = cyclic_submodules(module)
    assert len(vectors) == len(spaces) > 0
    assert spaces == [spin(module, v, gens) for v in vectors]


@pytest.mark.parametrize("name", ["cube", "octahedron"])
def test_cyclic_submodules_do_not_depend_on_the_chunk(name, monkeypatch):
    # all representatives fit one chunk by default; a chunk of three
    # representatives' images splits them into many stacks, which must give
    # the same spaces
    module = _module(name, ("faces",), 5)
    vectors, spaces = cyclic_submodules(module)
    images = len(module.matrices) * module.dim
    assert len(vectors) <= oracle._CHUNK // images
    monkeypatch.setattr(oracle, "_CHUNK", 3 * images)
    split_vectors, split_spaces = cyclic_submodules(module)
    assert len(vectors) > 3
    assert np.array_equal(split_vectors, vectors)
    assert [s.key() for s in split_spaces] == [s.key() for s in spaces]
    assert [s.pivots for s in split_spaces] == [s.pivots for s in spaces]


def test_oracle_shares_no_code_with_decompose():
    tree = ast.parse(inspect.getsource(oracle))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not any(name and name.split(".")[-1] == "decompose" for name in imported)
