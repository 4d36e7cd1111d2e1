"""The benchmark's workloads: fixed census commands and their reference checks.

Every command is a ``platocover`` argv, expected to exit 0.  A check takes
the command's captured stdout and returns ``(coverings, error)``: the number
of coverings the output reports, and ``None`` or a one-line reason the output
is wrong.  This module uses only the standard library, so a worker can import it
before its timed import of ``platocover.cli``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "platocover" / "fixtures"

# sha256 of the stdout of `classify --map dodecahedron --prime 7 --branch
# vertices,faces --format json`, recorded from the code the benchmark was added on
DODEC_VF7_SHA256 = "b3e6766e7fa7ed73dacad200ca3514b14d158abb60e17de07d40ddada2023beb"

_TABLE_TOTAL = re.compile(r"^(\d+) coverings, ", re.MULTILINE)


def _json_total(out: str) -> tuple[dict | None, int, str | None]:
    try:
        payload = json.loads(out)
        return payload, int(payload["summary"]["total"]), None
    except (ValueError, KeyError, TypeError) as exc:
        return None, 0, f"unreadable JSON output: {exc}"


def _table_total(out: str) -> int:
    match = _TABLE_TOTAL.search(out)
    return int(match.group(1)) if match else 0


def check_fixture(name: str):
    def check(out):
        payload, total, error = _json_total(out)
        if error:
            return total, error
        if payload != json.loads((FIXTURES / name).read_text())["expected"]:
            return total, f"output differs from the fixture {name}"
        return total, None
    return check


def check_dodec_vf7(out):
    payload, total, error = _json_total(out)
    if error:
        return total, error
    p = 7
    closed_form = 2 * (p**2 + 3) * (p + 3) ** 2 - 1
    if total != closed_form or len(payload["coverings"]) != closed_form:
        return total, f"{total} coverings, the closed form gives {closed_form}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != DODEC_VF7_SHA256:
        return total, f"output digest {digest} differs from the recorded one"
    return total, None


def check_contains(*needles: str):
    def check(out):
        missing = [n for n in needles if n not in out]
        error = f"output lacks {missing}" if missing else None
        return _table_total(out), error
    return check


_DODEC = ("classify", "--map", "dodecahedron", "--prime", "7",
          "--branch", "vertices,faces", "--format", "json")
_HOSO95 = ("classify", "--map", "hosohedron:95", "--prime", "7", "--format", "json")
_CUBE = ("classify", "--map", "cube", "--prime", "5", "--format", "json")

# name -> [(argv, check)], run in this order: peak memory depends on the
# order of the commands in one process.  "selftest" is the harness's own
# small case.
WORKLOADS = {
    "lattice-dodec-vf7": [(_DODEC, check_dodec_vf7)],
    "decompose-hoso95-p7": [(_HOSO95, check_fixture("hosohedron95_faces_p7.json"))],
    "crosscheck": [
        (("classify", "--map", "icosahedron", "--prime", "11", "--verify-euler"),
         check_contains("euler cross-check: 14 verified, 97 skipped")),
        (("classify", "--map", "octahedron", "--prime", "5", "--verify-euler", "--oracle"),
         check_contains("oracle cross-check: 8 submodules confirmed")),
        (("classify", "--map", "hosohedron:8", "--prime", "5", "--verify-euler", "--oracle"),
         check_contains("oracle cross-check: 8 submodules confirmed")),
    ],
    "selftest": [
        (_CUBE, check_fixture("cube_faces_p5.json")),
        (("classify", "--map", "cube", "--prime", "5", "--verify-euler", "--oracle"),
         check_contains("euler cross-check: 3 verified, 0 skipped",
                        "oracle cross-check: 4 submodules confirmed")),
    ],
}
