"""Command-line behavior: output formats, exit codes, fixture suite."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from platocover import cli, lattice, linalg
from platocover.lattice import census
from platocover.linalg import dtype_for


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_output(capsys):
    code, out, _ = run(["classify", "--map", "octahedron", "--prime", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["#", "c", "type", "genus", "character", "symmetry"]
    assert len(lines) == 1 + 7 + 1
    assert lines[-1] == "7 coverings, 7 regular, 0 chiral, dims {1, 3^2, 4^2, 6, 7}"


def test_chiral_rows_name_their_mates(capsys):
    code, out, _ = run(["classify", "--map", "tetrahedron", "--prime", "7",
                        "--branch", "edges"], capsys)
    assert code == 0
    assert "chiral (mate #" in out
    assert out.strip().splitlines()[-1].startswith("7 coverings, 3 regular, 4 chiral")


def test_json_schema_and_round_trip(capsys):
    code, out, _ = run(["classify", "--map", "dodecahedron", "--prime", "7",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["family", "n", "m", "p", "branch", "coverings", "summary"]
    assert payload["family"] == "dodecahedron"
    assert (payload["n"], payload["m"], payload["p"]) == (5, 3, 7)
    assert payload["summary"] == {"total": 3, "regular": 3, "chiral": 0,
                                  "dims": [5, 6, 11]}
    for cov in payload["coverings"]:
        assert list(cov) == ["c", "type", "genus", "character", "regular", "mate"]
    assert json.loads(json.dumps(payload)) == payload
    assert payload == cli.census_payload(census("dodecahedron", ("faces",), 7))


def test_cyclotomic_report(capsys):
    code, out, _ = run(["cyclotomic", "--n", "13", "--prime", "5"], capsys)
    assert code == 0
    assert sum("size=4" in line for line in out.splitlines()) == 3
    assert out.strip().endswith("nu = 3, coverings = 7")

    code, out, _ = run(["cyclotomic", "--n", "2", "--prime", "5"], capsys)
    assert code == 0
    assert out.strip().endswith("nu = 1, coverings = 1")

    code, out, _ = run(["cyclotomic", "--n", "95", "--prime", "7"], capsys)
    assert code == 0
    assert out.strip().endswith("nu = 7, coverings = 127")
    # the factors are listed and labelled through w, so the report pins it
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "552c05ac280a1ed56e861ad9c92f9905724c8740c284dfc44f722f9ef4554862")


def test_exit_code_modular(capsys):
    code, _, err = run(["classify", "--map", "icosahedron", "--prime", "5"], capsys)
    assert code == 2
    assert "ModularCaseUnsupported" in err


def test_exit_code_non_prime(capsys):
    code, _, err = run(["classify", "--map", "cube", "--prime", "9"], capsys)
    assert code == 2
    assert "not prime" in err


def test_exit_code_gcd(capsys):
    code, _, err = run(["cyclotomic", "--n", "10", "--prime", "5"], capsys)
    assert code == 2
    assert "gcd" in err


def test_exit_code_bad_map(capsys):
    code, _, err = run(["classify", "--map", "pyramid", "--prime", "5"], capsys)
    assert code == 2


def test_exit_code_missing_args(capsys):
    code, _, err = run(["classify"], capsys)
    assert code == 2


def test_exit_code_factorization_budget(capsys):
    # F_(5^96) needs the prime factors of 5^96 - 1, two of which lie past
    # the trial-division budget: rejected, not left to run for hours
    code, _, err = run(["classify", "--map", "hosohedron:97", "--prime", "5"], capsys)
    assert code == 2
    assert "trial divisors past the budget of 10000000" in err


def test_large_primes_are_proved_prime(capsys):
    # 2^61 - 1 by Miller-Rabin: the tetrahedron's covering is computed, and
    # the icosahedron stops at the field cap, both at once
    start = time.perf_counter()
    code, out, _ = run(["classify", "--map", "tetrahedron", "--prime", "2305843009213693951"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("1 coverings, 1 regular")
    code, _, err = run(["classify", "--map", "icosahedron", "--prime", "2305843009213693951"], capsys)
    assert code == 2
    assert "exceeds the enumeration cap of 16384" in err
    assert time.perf_counter() - start < 10


def test_exit_code_prime_past_the_primality_bound(capsys):
    code, _, err = run(["classify", "--map", "tetrahedron", "--prime", str(10**25 + 13)], capsys)
    assert code == 2
    assert "bound of the primality test" in err


def test_exit_code_internal_failure(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("forced")

    monkeypatch.setattr(cli, "census", broken)
    code, _, err = run(["classify", "--map", "cube", "--prime", "5"], capsys)
    assert code == 1
    assert "internal verification failure" in err


def test_cross_check_flags(capsys):
    code, out, _ = run(["classify", "--map", "cube", "--prime", "5",
                        "--verify-euler", "--oracle"], capsys)
    assert code == 0
    assert "euler cross-check: 3 verified, 0 skipped" in out
    assert "oracle cross-check: 4 submodules confirmed" in out


def test_verify_euler_rejects_other_branching(capsys):
    code, _, err = run(["classify", "--map", "tetrahedron", "--prime", "5",
                        "--branch", "vertices,faces", "--verify-euler"], capsys)
    assert code == 2


def test_verify_euler_rejects_other_branching_before_the_census(capsys, monkeypatch):
    # the census of this case takes seconds; the branch set alone decides
    def reached(*args, **kwargs):
        pytest.fail("the census ran before the branch set was checked")

    monkeypatch.setattr(cli, "census", reached)
    code, _, err = run(["classify", "--map", "dodecahedron", "--prime", "11",
                        "--branch", "vertices,faces", "--verify-euler"], capsys)
    assert code == 2
    assert "--verify-euler requires faces branching" in err


def test_branch_parsing():
    assert cli.parse_branch("faces") == ("faces",)
    assert cli.parse_branch("vertices, faces") == ("vertices", "faces")
    with pytest.raises(ValueError):
        cli.parse_branch("corners")
    with pytest.raises(ValueError):
        cli.parse_branch("")


def test_fixture_suite_passes(capsys):
    code, out, _ = run(["classify", "--fixtures"], capsys)
    assert code == 0
    assert "19/19 fixtures match" in out
    assert "MISMATCH" not in out


def test_fixture_mismatch_exits_1_with_a_diff(capsys, monkeypatch):
    payload = cli.census_payload

    def altered(cen):
        out = payload(cen)
        if (out["family"], out["p"]) == ("cube", 5):
            out["coverings"][0]["genus"] += 1
        return out

    monkeypatch.setattr(cli, "census_payload", altered)
    code, out, _ = run(["classify", "--fixtures"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if "MISMATCH" in line] == ["fixture cube_faces_p5.json: MISMATCH"]
    assert sum(line.startswith("  field coverings: expected") for line in lines) == 1
    assert "18/19 fixtures match" in out


# composes the reflection with a swap of two punctures, which then no longer
# normalizes the rotation group, so the census's mirror lookup must fail
CORRUPT_REFLECTION = """
import sys
from platocover import cli, lattice, linalg
from platocover.maps import GroupData

reflect = GroupData.reflection_class_perm

def swapped(self, branch_class):
    perm = list(reflect(self, branch_class))
    perm[0], perm[1] = perm[1], perm[0]
    return perm

GroupData.reflection_class_perm = swapped
print("asserts", "on" if __debug__ else "off", file=sys.stderr)
sys.exit(cli.main(["classify", "--map", "cube", "--prime", "5"]))
"""


# makes one cross-check disagree with the census: the Euler recount reports
# the genus plus one, or the brute force loses the zero submodule
BREAK_CROSS_CHECK = """
import sys
from platocover import cli, lattice, linalg

if sys.argv[1] == "--verify-euler":
    euler_verify = cli.euler_verify

    def wrong_genus(va, *args):
        v, e, f, genus = euler_verify(va, *args)
        return v, e, f, genus + 1

    cli.euler_verify = wrong_genus
else:
    brute_force = cli.brute_force_submodules
    cli.brute_force_submodules = lambda module: brute_force(module)[1:]
print("asserts", "on" if __debug__ else "off", file=sys.stderr)
sys.exit(cli.main(["classify", "--map", "cube", "--prime", "5", sys.argv[1]]))
"""


CROSS_CHECK_FAILURES = {
    "--verify-euler": "euler genus 37 != census genus 36",
    "--oracle": "brute force disagrees with the lattice enumeration",
}


@pytest.mark.parametrize("check", sorted(CROSS_CHECK_FAILURES))
@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
def test_failed_cross_check_exits_1(flags, asserts, check):
    # the verdicts raise VerificationError, so they also hold under -O
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", BREAK_CROSS_CHECK, check],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert f"asserts {asserts}" in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert "internal verification failure" in proc.stderr
    assert CROSS_CHECK_FAILURES[check] in proc.stderr


@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
def test_corrupted_reflection_exits_1(flags, asserts):
    # the check raises VerificationError itself, so it also holds under -O
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CORRUPT_REFLECTION],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert f"asserts {asserts}" in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert "internal verification failure" in proc.stderr
    assert "reflection" in proc.stderr


# adds 1 to one entry of a hom basis map, so the blocks built from it are
# no longer invariant
CORRUPT_CHOICE = """
import sys
from platocover import cli, lattice

decompose = lattice.decompose_module

def corrupted(module):
    components = decompose(module)
    x = components[-1].hom_basis[0]
    x[0, 0] = (x[0, 0] + 1) % module.p
    return components

lattice.decompose_module = corrupted
print("asserts", "on" if __debug__ else "off", file=sys.stderr)
sys.exit(cli.main(["classify", "--map", "cube", "--prime", "5"]))
"""


# swaps the classes matched to A4's columns 2^2 and 3, so the multiplicities
# read from the table are no longer integers
SWAPPED_CLASSES = """
import sys
from platocover import cli, decompose

match = decompose.match_classes

def swapped(table, group):
    out = match(table, group)
    i, j = table.col_labels.index("2^2"), table.col_labels.index("3")
    out[i], out[j] = out[j], out[i]
    return out

decompose.match_classes = swapped
print("asserts", "on" if __debug__ else "off", file=sys.stderr)
sys.exit(cli.main(["classify", "--map", "tetrahedron", "--prime", "5"]))
"""


@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
@pytest.mark.parametrize("script, message", [
    pytest.param(CORRUPT_CHOICE, "a choice is not invariant", id="choice"),
    pytest.param(SWAPPED_CLASSES, "class matching is inconsistent", id="classes"),
])
def test_corrupted_structure_exits_1(flags, asserts, script, message):
    # the checks raise VerificationError themselves, so they also hold under -O
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert f"asserts {asserts}" in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert "internal verification failure" in proc.stderr
    assert message in proc.stderr


# hands the batched merge, wherever its prefixes are not empty, a first
# block that starts with the first row of its own prefix, so that block
# meets its prefix and the sum is not direct
OVERLAPPING_BLOCK = """
import sys
from platocover import cli, lattice

merge = lattice.merge_direct_sums

def overlapping(bases, pivots, blocks, p):
    if bases.shape[1] and blocks.shape[1]:
        blocks = blocks.copy()
        blocks[0, 0] = bases[0, 0]
    return merge(bases, pivots, blocks, p)

lattice.merge_direct_sums = overlapping
print("asserts", "on" if __debug__ else "off", file=sys.stderr)
sys.exit(cli.main(["classify", "--map", "cube", "--prime", "5"]))
"""


@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
def test_overlapping_leaf_block_exits_1(flags, asserts):
    # the merge kernel checks each sum is direct with VerificationError, so
    # the check also holds under -O
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", OVERLAPPING_BLOCK],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert f"asserts {asserts}" in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert "internal verification failure" in proc.stderr
    assert "the sum is not direct" in proc.stderr


def test_exact_object_dtype_census(capsys):
    # p^2 overflows int64 here, so every matrix holds Python ints
    p = 2**31 - 1
    assert dtype_for(p) is object
    code, out, _ = run(["cyclotomic", "--n", "7", "--prime", str(p)], capsys)
    assert code == 0
    assert out.strip().endswith("nu = 3, coverings = 7")
    # 65537 is on the int64 path, but x^3 - 1 splits only over F_(p^2), so
    # the root of unity comes from a primitive element of a field of 2^32
    # elements, found past the p - 1 prime field constants
    for family, q, total in [("tetrahedron", p, 1), ("hosohedron:7", p, 7), ("dihedron:3", 65537, 1)]:
        code, out, _ = run(["classify", "--map", family, "--prime", str(q)], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1].startswith(f"{total} coverings, {total} regular")


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_field_over_enumeration_cap_exits_2(flags):
    # chi4 has multiplicity 2 over F_p, so its menu would list p + 3 choices
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    argv = ["classify", "--map", "icosahedron", "--branch", "faces", "--prime", "1000003"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "platocover.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert "1000003^1" in proc.stderr and "16384" in proc.stderr


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_lattice_over_enumeration_cap_exits_2(flags):
    # full branching of the icosahedron at p = 11 has about 7.6e16 submodules;
    # the size is known from the decomposition, before any menu is built
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    argv = ["classify", "--map", "icosahedron", "--prime", "11",
            "--branch", "vertices,edges,faces"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "platocover.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert "76312996630592512 submodules" in proc.stderr and "262144" in proc.stderr


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize("name, branch, entries", [
    ("hosohedron:1000", "faces", 2000 * (2000 + 999**2)),
    ("hosohedron:100000", "vertices", 200000 * (200000 + 1)),
])
def test_map_over_size_cap_exits_2(flags, name, branch, entries):
    # the group and Q's action would hold |G| * (|G| + dim^2) entries; the
    # size follows from the family, before the map or the group is built
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    argv = ["classify", "--map", name, "--prime", "7", "--branch", branch]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "platocover.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert f"needs {entries} entries" in proc.stderr and "8388608" in proc.stderr


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize("argv, message", [
    # the field F_(3^210) that x^211 - 1 splits in, and n-entry arrays for
    # an n in the millions, both rejected before any field is built
    (["cyclotomic", "--n", "211", "--prime", "3"],
     "211 * ord_211(3) >= 10128 powers, past the budget of 10000"),
    (["cyclotomic", "--n", "1594322", "--prime", "3"],
     "1594322 * ord_1594322(3) >= 1594322 powers, past the budget of 10000"),
    # a small field and a map under the size cap, but 723 table rows summed
    # over 1,440 rotations in entries of 1,440 coefficients
    (["classify", "--map", "hosohedron:1440", "--prime", "7", "--branch", "vertices"],
     "needs 1499212800 coefficient sums for its character table, over the cap of 16777216"),
])
def test_budget_inputs_exit_2(flags, argv, message):
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "platocover.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


def test_map_size_cap_keeps_group_sums_exact():
    # |G|^2 and dim^2 are each below the cap, so both stay within the bound
    # under which dtype_for keeps sums of |G| or dim products exact
    assert lattice._ACTION_CAP <= linalg._DIM_CAP ** 2


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize("family, message", [
    ("hosohedron", "hosohedron requires a parameter"),
    ("tetrahedron:5", "tetrahedron takes no parameter"),
])
def test_bad_map_parameter_exits_2(flags, family, message):
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    argv = ["classify", "--map", family, "--prime", "5"]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "platocover.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


def test_oracle_over_budget_exits_2_before_allocating():
    # 131^5 vectors would need about 196 GB of digits; the budget is checked
    # first, so the run fits in a 2 GiB address space
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "platocover.cli", "classify", "--map", "cube", "--prime", "131",
         "--oracle"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert "131^5 vectors exceeds the budget of 10000000" in proc.stderr


def test_trace_self_test_passes():
    # the benchmark wraps each stage under every name a platocover module
    # binds it to; a rewrite that unbinds one, or calls a kernel outside
    # every stage, fails here
    root = Path(cli.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "selftest", "trace"],
        capture_output=True, text=True, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["trace_errors"] == []
    assert result["failures"] == []
    # two cube censuses of 4 submodules each, and one describe call per census
    layers = result["layers"]
    assert layers["enumerate.submodules"] == 8
    assert layers["describe.calls"] == 2


FIXTURES = Path(cli.__file__).resolve().parent / "fixtures"


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_json_output_is_json_dumps_of_the_payload(name, capsys, monkeypatch):
    # json's own encoder is the reference for every byte of --format json;
    # tetrahedron_edges_p7 and icosahedron_faces_p11 have chiral mates
    spec = json.loads((FIXTURES / name).read_text())["args"]
    seen = []

    def recorded(*args):
        seen.append(census(*args))
        return seen[-1]

    monkeypatch.setattr(cli, "census", recorded)
    code, out, _ = run(["classify", "--map", spec["map"], "--prime", str(spec["prime"]),
                        "--branch", ",".join(spec["branch"]), "--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(cli.census_payload(seen[0]), indent=2) + "\n"


@pytest.mark.parametrize("argv, digest", [
    (["--map", "dodecahedron", "--prime", "7", "--branch", "vertices,faces"],
     "7f43b59dbc648458adc479e478bb4d67ecc698bc7d81f4efb2884f2764db4949"),
    (["--map", "icosahedron", "--prime", "11"],
     "04f6ed753315af1e5f2210d9b9ca2ced79ee6ff8f4582b67d78ff5ed098a6713"),
])
def test_table_output_is_pinned(argv, digest, capsys):
    code, out, _ = run(["classify", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_cross_check_lines_go_to_stderr(capsys):
    # stdout stays one JSON document; the table keeps the lines on stdout
    code, out, err = run(["classify", "--map", "cube", "--prime", "5", "--verify-euler",
                          "--oracle", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == cli.census_payload(census("cube", ("faces",), 5))
    assert err.splitlines() == ["euler cross-check: 3 verified, 0 skipped (dart budget)",
                                "oracle cross-check: 4 submodules confirmed"]


# makes the Gaussian binomials count one E-subspace more than the listing of
# chi4's menu (multiplicity 2) holds
MISCOUNTED_SUBSPACES = """
import sys
from platocover import cli, lattice

count = lattice.subspace_count
lattice.subspace_count = lambda m, q: count(m, q) + 1
print("asserts", "on" if __debug__ else "off", file=sys.stderr)
sys.exit(cli.main(["classify", "--map", "tetrahedron", "--prime", "5",
                   "--branch", "vertices,faces"]))
"""


@pytest.mark.parametrize("flags, asserts", [((), "on"), (("-O",), "off")])
def test_miscounted_subspaces_exit_1(flags, asserts):
    # the listing's count check raises VerificationError, so it also holds under -O
    root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", MISCOUNTED_SUBSPACES],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert f"asserts {asserts}" in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert "internal verification failure" in proc.stderr
    assert "E-subspaces of E^2 listed" in proc.stderr
