"""Command-line front end: census classification and cyclotomic reports."""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import numpy as np

from .builder import DART_BUDGET, euler_buffers, euler_verify, solve_voltages
from .errors import verify
from .gf import coset_orbits, factor_xn_minus_1, is_prime, poly_str
from .homology import BRANCH_ORDER, Subspace
from .lattice import Census, census
from .oracle import brute_force_submodules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platocover",
        description="Census of elementary abelian regular branched coverings "
        "of the Platonic maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", help="enumerate the coverings of one map")
    cl.add_argument("--map", dest="map_name",
                    help="tetrahedron|cube|octahedron|dodecahedron|icosahedron"
                    "|dihedron:N|hosohedron:N")
    cl.add_argument("--prime", type=int, help="branching exponent p")
    cl.add_argument("--branch", default="faces",
                    help="comma list drawn from vertices,edges,faces")
    cl.add_argument("--format", choices=("table", "json"), default="table")
    cl.add_argument("--verify-euler", action="store_true",
                    help="rebuild each covering as a derived map and recount "
                    "its Euler characteristic (faces branching only)")
    cl.add_argument("--oracle", action="store_true",
                    help="cross-check the lattice against brute-force search")
    cl.add_argument("--fixtures", action="store_true",
                    help="run the committed regression fixtures and diff")
    cl.set_defaults(run=run_classify)

    cy = sub.add_parser("cyclotomic",
                        help="factorization pattern of x^n - 1 mod p")
    cy.add_argument("--n", type=int, required=True)
    cy.add_argument("--prime", type=int, required=True)
    cy.set_defaults(run=run_cyclotomic)
    return parser


def parse_branch(text: str) -> tuple[str, ...]:
    parts = tuple(s.strip() for s in text.split(",") if s.strip())
    for part in parts:
        if part not in BRANCH_ORDER:
            raise ValueError(f"unknown branch class {part!r}")
    if not parts:
        raise ValueError("empty branch list")
    return parts


# -- rendering ----------------------------------------------------------------


def _covering_row(cen: Census, kind: int, character: int, regular: bool, mate) -> dict:
    """One covering of the JSON payload: the one place its fields are named."""
    c, _, cover_type, genus = cen.columns.kinds[kind]
    return {
        "c": c,
        "type": list(cover_type),
        "genus": genus,
        "character": dict(cen.columns.characters[character]),
        "regular": regular,
        "mate": mate,
    }


def _payload(cen: Census, coverings: list) -> dict:
    fam = cen.module.group.map.family
    return {
        "family": fam.name,
        "n": fam.n,
        "m": fam.m,
        "p": cen.p,
        "branch": list(cen.branch_classes),
        "coverings": coverings,
        "summary": {
            "total": cen.total,
            "regular": cen.regular_count,
            "chiral": cen.chiral_count,
            "dims": cen.dimension_multiset,
        },
    }


def census_payload(cen: Census) -> dict:
    cols = cen.columns
    return _payload(cen, [
        _covering_row(cen, k, h, j == i, None if j == i else j)
        for i, (k, h, j) in enumerate(zip(cols.kind.tolist(), cols.character.tolist(),
                                          cols.mate.tolist()))
    ])


def render_json(cen: Census) -> str:
    """The text of json.dumps(census_payload(cen), indent=2), built from the
    census's columns.

    Coverings differ in little but their mate, so each distinct row without
    its mate is encoded once by json.dumps, indented to a covering's depth
    and cut before the null of its "mate"; each covering is its row's text,
    its mate and the closing brace.  The rows go into the text of the
    payload without coverings, also encoded by json.dumps, so json chooses
    every byte of every value."""
    cols = cen.columns
    regular = cols.regular
    # one number per distinct (kind, character, regular)
    rows, row_of = np.unique((cols.kind * len(cols.characters) + cols.character) * 2 + regular,
                             return_inverse=True)
    templates = []
    for row in rows.tolist():
        kind, character = divmod(row >> 1, len(cols.characters))
        text = json.dumps(_covering_row(cen, kind, character, bool(row & 1), None), indent=2)
        verify(text.endswith('"mate": null\n}'), "a covering row does not end with its mate")
        templates.append("    " + text[:-len("null\n}")].replace("\n", "\n    "))
    head = json.dumps(_payload(cen, []), indent=2)
    mates = ["null" if r else str(j) for r, j in zip(regular.tolist(), cols.mate.tolist())]
    body = "\n    },\n".join(map(str.__add__, [templates[r] for r in row_of.reshape(-1).tolist()],
                                    mates))
    empty = '\n  "coverings": [],\n'
    verify(head.count(empty) == 1, "the payload does not hold one empty covering list")
    return head.replace(empty, '\n  "coverings": [\n' + body + '\n    }\n  ],\n')


def _dims_text(dims: list[int]) -> str:
    parts = []
    for value in sorted(set(dims)):
        k = dims.count(value)
        parts.append(f"{value}^{k}" if k > 1 else f"{value}")
    return "{" + ", ".join(parts) + "}"


def render_table(cen: Census) -> str:
    header = ("#", "c", "type", "genus", "character", "symmetry")
    rows = []
    for i, d in enumerate(cen.coverings):
        symmetry = "regular" if d.regular else f"chiral (mate #{d.mate_index + 1})"
        rows.append((str(i + 1), str(d.c), d.type_string, str(d.genus),
                     d.character_string, symmetry))
    widths = [max(len(r[j]) for r in [header, *rows]) for j in range(len(header))]
    lines = []
    for r in [header, *rows]:
        lines.append("  ".join(r[j].ljust(widths[j]) for j in range(len(header))).rstrip())
    lines.append(
        f"{cen.total} coverings, {cen.regular_count} regular, "
        f"{cen.chiral_count} chiral, dims {_dims_text(cen.dimension_multiset)}"
    )
    return "\n".join(lines)


# -- cross-checks -------------------------------------------------------------


def _euler_cross_check(cen: Census) -> str:
    darts = [cen.module.group.map.n_darts * cen.p**d.c for d in cen.coverings]
    # one set of buffers for the census, lent to each recount in turn
    work = euler_buffers(max((n for n in darts if n <= DART_BUDGET), default=0))
    checked = skipped = 0
    for d, n in zip(cen.coverings, darts):
        if n > DART_BUDGET:
            skipped += 1
            continue
        va = solve_voltages(cen.module, d.L)
        _, _, _, genus = euler_verify(va, work)
        verify(genus == d.genus, f"euler genus {genus} != census genus {d.genus}")
        checked += 1
    return f"euler cross-check: {checked} verified, {skipped} skipped (dart budget)"


def _oracle_cross_check(cen: Census) -> str:
    spaces = brute_force_submodules(cen.module)
    expected = {d.key for d in cen.coverings}
    expected.add(Subspace.full(cen.p, cen.module.dim).key())
    expected.add(Subspace.zero(cen.p, cen.module.dim).key())
    got = {s.key() for s in spaces}
    verify(got == expected, "brute force disagrees with the lattice enumeration")
    return f"oracle cross-check: {len(spaces)} submodules confirmed"


# -- commands -----------------------------------------------------------------


def run_classify(args, out=None) -> int:
    out = out or sys.stdout
    if args.fixtures:
        return run_fixtures(out)
    if args.map_name is None or args.prime is None:
        raise ValueError("classify needs --map and --prime (or --fixtures)")
    branch = parse_branch(args.branch)
    if args.verify_euler and set(branch) != {"faces"}:
        raise ValueError("--verify-euler requires faces branching")
    cen = census(args.map_name, branch, args.prime)
    extras = []
    if args.verify_euler:
        extras.append(_euler_cross_check(cen))
    if args.oracle:
        extras.append(_oracle_cross_check(cen))
    if args.format == "json":
        # the cross-check lines go to stderr, so stdout stays one JSON document
        print(render_json(cen), file=out)
        out = sys.stderr
    else:
        print(render_table(cen), file=out)
    for line in extras:
        print(line, file=out)
    return 0


def run_fixtures(out=None) -> int:
    out = out or sys.stdout
    failures = 0
    root = resources.files("platocover").joinpath("fixtures")
    entries = sorted((e for e in root.iterdir() if e.name.endswith(".json")), key=lambda e: e.name)
    if not entries:
        raise ValueError("no fixtures installed")
    for entry in entries:
        fixture = json.loads(entry.read_text())
        spec = fixture["args"]
        cen = census(spec["map"], tuple(spec["branch"]), spec["prime"])
        got = census_payload(cen)
        if got == fixture["expected"]:
            print(f"fixture {entry.name}: ok", file=out)
        else:
            failures += 1
            print(f"fixture {entry.name}: MISMATCH", file=out)
            _print_diff(fixture["expected"], got, out)
    print(f"{len(entries) - failures}/{len(entries)} fixtures match", file=out)
    return 0 if failures == 0 else 1


def _print_diff(expected: dict, got: dict, out) -> None:
    for key in expected:
        if expected.get(key) != got.get(key):
            print(f"  field {key}: expected {expected.get(key)!r}, "
                  f"got {got.get(key)!r}", file=out)


def run_cyclotomic(args, out=None) -> int:
    out = out or sys.stdout
    n, p = args.n, args.prime
    if n < 1 or not is_prime(p) or math.gcd(n, p) != 1:
        raise ValueError(f"need prime p with gcd(n, p) = 1, got n={n} p={p}")
    factors = factor_xn_minus_1(n, p)
    nu = 0
    for orbit in coset_orbits(n, p):
        polys = [poly for fo, poly in factors if set(fo.members) <= set(orbit.members)]
        if orbit.least == 0:
            label = "orbit {0}"
        else:
            nu += 1
            label = f"orbit of {orbit.least}"
        rendered = ", ".join(poly_str(poly) for poly in polys)
        print(
            f"{label}: m={orbit.m} e={orbit.e} size={orbit.size} "
            f"self_paired={'yes' if orbit.self_paired else 'no'} "
            f"factors: {rendered}",
            file=out,
        )
    print(f"nu = {nu}, coverings = {2**nu - 1}", file=out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
