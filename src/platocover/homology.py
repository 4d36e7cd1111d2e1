"""The mod-p first homology of the punctured sphere as a G-module.

Punctures are the chosen branch points, ordered vertices, then edges, then
faces.  P is the permutation module on punctures and Q = P/P_1 its quotient
by the span of the all-ones vector, realized in coordinates by dropping the
last puncture: the deleted basis vector maps to minus the sum of the others.
Vectors are rows and matrices act on the right, so A_g A_h represents g*h
under the group's left-to-right composition.

The quotient map P -> Q is one N x dim matrix (``projection``).  Row i of a
group element's matrix is the projection row of the image of puncture i, so
the whole action is one (|G|, dim, dim) array (``matrices``), one fancy index
of the projection by the stacked puncture permutations.
"""

from __future__ import annotations

import numpy as np

from .errors import EvenPrimeUnsupported, ModularCaseUnsupported, verify
from .gf import is_prime
from .linalg import as_matrix, dtype_for, mat_mul, reduce_rows, rref
from .maps import GroupData

BRANCH_ORDER = ("vertices", "edges", "faces")


def _key_width(p: int) -> int:
    """Bytes per entry in a packed key: the smallest of 1, 2, 4 and 8 that
    holds p - 1, or the exact byte length of p - 1 beyond 8."""
    nbytes = ((p - 1).bit_length() + 7) // 8
    return next((w for w in (1, 2, 4, 8) if nbytes <= w), nbytes)


def pack_rows(rows: np.ndarray, p: int) -> bytes:
    """The entries of rows, in index order, as big-endian unsigned integers
    of the width _key_width(p); a stack of bases packs to their keys'
    packed parts laid end to end."""
    width = _key_width(p)
    if width <= 8:
        return rows.astype(f">u{width}").tobytes()
    return b"".join(int(x).to_bytes(width, "big") for x in rows.flat)


class Subspace:
    """A subspace of F_p^ambient held in reduced row echelon form.

    The RREF basis is canonical, so key() identifies the subspace exactly.
    """

    __slots__ = ("p", "ambient", "basis", "pivots")

    def __init__(self, basis: np.ndarray, p: int, ambient: int, _pivots=None):
        """Row space of basis; a caller passing _pivots vouches that basis
        is already in RREF with those pivot columns."""
        self.p = p
        self.ambient = ambient
        if _pivots is None:
            basis, _pivots = rref(as_matrix(basis, p, width=ambient), p)
        if basis.shape[1:] != (ambient,):
            raise ValueError(f"a basis of shape {basis.shape} in ambient dimension {ambient}")
        self.basis = basis
        self.pivots = _pivots

    @staticmethod
    def zero(p: int, ambient: int) -> "Subspace":
        return Subspace(np.zeros((0, ambient), dtype=dtype_for(p)), p, ambient, _pivots=[])

    @staticmethod
    def full(p: int, ambient: int) -> "Subspace":
        return Subspace(np.eye(ambient, dtype=dtype_for(p)), p, ambient, _pivots=list(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def key(self) -> tuple:
        """(ambient, packed): the RREF basis, row by row, as big-endian
        unsigned entries of one width fixed by p.

        With equal widths, byte order on the packed rows is the order on
        their integer entries, and every row has ambient entries, so for one
        ambient and one p the keys sort exactly as the nested tuples of the
        basis rows: a basis that is a leading part of a longer one is a
        prefix of its key and sorts first."""
        return (self.ambient, pack_rows(self.basis, self.p))

    @staticmethod
    def from_key(key: tuple, p: int) -> "Subspace":
        """The subspace whose key() is key.  The packed rows are already in
        RREF, so each pivot is the first nonzero entry of its row and no row
        reduction runs."""
        ambient, packed = key
        width = _key_width(p)
        dim = len(packed) // (width * ambient)
        if width <= 8:
            flat = np.frombuffer(packed, dtype=f">u{width}").astype(dtype_for(p))
        else:
            flat = np.array([int.from_bytes(packed[i:i + width], "big")
                             for i in range(0, len(packed), width)], dtype=object)
        basis = flat.reshape(dim, ambient)
        pivots = (basis != 0).argmax(axis=1).tolist()
        return Subspace(basis, p, ambient, _pivots=pivots)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def contains(self, vector) -> bool:
        v = as_matrix(vector, self.p, width=self.ambient)
        residue = reduce_rows(self.basis, self.pivots, v, self.p)
        return not residue.any()

    def contains_space(self, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        residue = reduce_rows(self.basis, self.pivots, other.basis, self.p)
        return not residue.any()

    def add(self, other: "Subspace") -> "Subspace":
        """The sum: the RREF of the stacked bases."""
        if self.ambient != other.ambient:
            raise ValueError(f"sum of subspaces of ambients {self.ambient} and {other.ambient}")
        return Subspace(np.vstack([self.basis, other.basis]), self.p, self.ambient)

    def image(self, matrix: np.ndarray) -> "Subspace":
        """Row space of basis @ matrix; matrix maps this ambient to its
        column count."""
        if self.dim == 0:
            return Subspace.zero(self.p, matrix.shape[1])
        return Subspace(mat_mul(self.basis, matrix, self.p), self.p, matrix.shape[1])

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, p={self.p})"


class HomologyModule:
    """Q = P/P_1 with the full matrix action of G, the reflection, and the
    central orientation-reversing element when the map has one."""

    def __init__(self, group: GroupData, branch_classes, p: int):
        unknown = [bc for bc in branch_classes if bc not in BRANCH_ORDER]
        if unknown:
            raise ValueError(f"unknown branch classes {', '.join(map(repr, unknown))}; "
                             f"choose from {', '.join(BRANCH_ORDER)}")
        branch_classes = tuple(bc for bc in BRANCH_ORDER if bc in branch_classes)
        if not branch_classes:
            raise ValueError("empty branch classes: at least one of "
                             f"{', '.join(BRANCH_ORDER)} is required")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise EvenPrimeUnsupported("p = 2 divides every rotation group order")
        if group.order % p == 0:
            raise ModularCaseUnsupported(
                f"p = {p} divides |G| = {group.order} for {group.map.family.name}"
            )

        self.group = group
        self.p = p
        self.branch_classes = branch_classes
        self.punctures = [
            (bc, i) for bc in branch_classes for i in range(group.class_perms(bc).shape[1])
        ]
        self.N = len(self.punctures)
        self.dim = self.N - 1
        self.dtype = dtype_for(p)
        # the quotient map P -> Q: row i is the class of puncture i, the
        # identity rows and then the dropped puncture as minus their sum
        self.projection = np.vstack([np.eye(self.dim, dtype=self.dtype),
                                     np.full((1, self.dim), p - 1, dtype=self.dtype)])

        perms = self._stacked(group.class_perms)
        self.matrices = self._matrix(perms)
        self.reflection_matrix = self._matrix(self._stacked(group.reflection_class_perm))
        if group.central_reversing is not None:
            self.central_matrix = self._matrix(self._stacked(group.central_reversing.get))
        else:
            self.central_matrix = None

        self._verify_presentation(perms)

    def _stacked(self, perms_of_class) -> np.ndarray:
        """The permutation of all punctures made of perms_of_class(bc) on each
        branch class's block, along the last axis: one permutation, or one
        row per group element for a stack of them."""
        blocks, offset = [], 0
        for bc in self.branch_classes:
            block = np.asarray(perms_of_class(bc))
            blocks.append(block + offset)
            offset += block.shape[-1]
        return np.concatenate(blocks, axis=-1)

    def _matrix(self, perms) -> np.ndarray:
        """Row i of a puncture permutation's matrix is the class of the image
        of puncture i, so one fancy index builds a whole stack of them."""
        return self.projection[perms[..., :self.dim]]

    # -- sanity ---------------------------------------------------------------

    def _verify_presentation(self, perms: np.ndarray) -> None:
        """The generator matrices satisfy the group's relations and move
        every puncture class, the dropped one included, to its image's."""
        g = self.group
        dm = g.map
        x, z = self.matrices[g.gen_x], self.matrices[g.gen_z]
        ident = np.eye(self.dim, dtype=self.dtype)
        verify(self._power(x, dm.m).tolist() == ident.tolist(), f"x^{dm.m} does not act as 1 on Q")
        verify(self._power(z, dm.n).tolist() == ident.tolist(), f"z^{dm.n} does not act as 1 on Q")
        xz = mat_mul(x, z, self.p)
        verify(mat_mul(xz, xz, self.p).tolist() == ident.tolist(), "(xz)^2 does not act as 1 on Q")
        for gen in (g.gen_x, g.gen_z):
            moved = mat_mul(self.projection, self.matrices[gen], self.p)
            verify(np.array_equal(moved, self.projection[perms[gen]]),
                   "a generator matrix does not move each puncture to its image")

    def _power(self, A: np.ndarray, k: int) -> np.ndarray:
        """A^k by square and multiply."""
        out = np.eye(self.dim, dtype=self.dtype)
        while k:
            if k & 1:
                out = mat_mul(out, A, self.p)
            A = mat_mul(A, A, self.p)
            k >>= 1
        return out

    def invariant_under_group(self, basis: np.ndarray, pivots) -> bool:
        """Whether the row space of an RREF basis with the given pivot
        columns is G-invariant, or of every basis of a (batch, r, dim) stack
        with its (batch, r) pivots: the images under x and z, which generate
        G, leave no residue against their basis."""
        return not any(reduce_rows(basis, pivots, mat_mul(basis, self.matrices[gen], self.p), self.p).any()
                       for gen in (self.group.gen_x, self.group.gen_z))


def build_homology(group: GroupData, branch_classes, p: int) -> HomologyModule:
    return HomologyModule(group, branch_classes, p)

