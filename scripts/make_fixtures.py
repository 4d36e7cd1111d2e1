"""Regenerate the committed CLI regression fixtures.

Each case carries the headline numbers it must reproduce; generation aborts
rather than pinning a census that contradicts them.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from platocover.cli import census_payload
from platocover.lattice import census

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "platocover" / "fixtures"

# name, map, branch, p, expected (total, regular, chiral), expected dims or None
CASES = [
    ("tetrahedron_faces_p5", "tetrahedron", ["faces"], 5, (1, 1, 0), [3]),
    ("tetrahedron_faces_p7", "tetrahedron", ["faces"], 7, (1, 1, 0), [3]),
    ("cube_faces_p5", "cube", ["faces"], 5, (3, 3, 0), [2, 3, 5]),
    ("cube_faces_p7", "cube", ["faces"], 7, (3, 3, 0), [2, 3, 5]),
    ("octahedron_faces_p5", "octahedron", ["faces"], 5, (7, 7, 0), [1, 3, 3, 4, 4, 6, 7]),
    ("octahedron_faces_p7", "octahedron", ["faces"], 7, (7, 7, 0), [1, 3, 3, 4, 4, 6, 7]),
    ("octahedron_faces_p11", "octahedron", ["faces"], 11, (7, 7, 0), [1, 3, 3, 4, 4, 6, 7]),
    ("dodecahedron_faces_p11", "dodecahedron", ["faces"], 11, (7, 7, 0), [3, 3, 5, 6, 8, 8, 11]),
    ("dodecahedron_faces_p7", "dodecahedron", ["faces"], 7, (3, 3, 0), [5, 6, 11]),
    ("icosahedron_faces_p11", "icosahedron", ["faces"], 11, (111, 31, 80), None),
    ("icosahedron_faces_p13", "icosahedron", ["faces"], 13, (63, 15, 48), None),
    ("dihedron5_faces_p3", "dihedron:5", ["faces"], 3, (1, 1, 0), [1]),
    ("hosohedron3_faces_p5", "hosohedron:3", ["faces"], 5, (1, 1, 0), [2]),
    ("hosohedron4_faces_p3", "hosohedron:4", ["faces"], 3, (3, 3, 0), [1, 2, 3]),
    ("hosohedron95_faces_p7", "hosohedron:95", ["faces"], 7, (127, 127, 0), None),
    ("hosohedron13_faces_p5", "hosohedron:13", ["faces"], 5, (7, 7, 0), [4, 4, 4, 8, 8, 8, 12]),
    ("tetrahedron_vf_p5", "tetrahedron", ["vertices", "faces"], 5, (15, 15, 0), None),
    ("tetrahedron_edges_p7", "tetrahedron", ["edges"], 7, (7, 3, 4), [1, 1, 2, 3, 4, 4, 5]),
    ("tetrahedron_edges_p5", "tetrahedron", ["edges"], 5, (3, 3, 0), [2, 3, 5]),
]


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, map_name, branch, p, counts, dims in CASES:
        cen = census(map_name, tuple(branch), p)
        payload = census_payload(cen)
        got = (payload["summary"]["total"], payload["summary"]["regular"],
               payload["summary"]["chiral"])
        if got != counts:
            sys.exit(f"{name}: (total, regular, chiral) is {got}, expected {counts}")
        if dims is not None and payload["summary"]["dims"] != dims:
            sys.exit(f"{name}: dims are {payload['summary']['dims']}, expected {dims}")
        fixture = {"args": {"map": map_name, "branch": branch, "prime": p},
                   "expected": payload}
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(fixture, indent=2) + "\n")
        print(f"wrote {path.name}: {counts[0]} coverings")


if __name__ == "__main__":
    main()
