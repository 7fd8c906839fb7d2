"""The character lattice mod 2: alternating form and cocycle.

Vectors over GF(2) are int bitmasks (bit i = coordinate of gamma_i).  The
alternating form c1 comes from the integer weighted Gram matrix
(`gammadata.gram_matrix`, the one the Fock form uses); its GF(2) rank is
r0.  The two-cocycle epsilon is bi-additive with epsilon(gamma_i, gamma_j) =
+1 for i <= j and (-1)^{c1(i,j)} otherwise.

The twisted state space of the vertex operators is the Fock space tensored
with the group algebra of the lattice mod 2, e_a e_b = epsilon(a,b) e_{a+b}.
It is never stored: since epsilon is bi-additive, a word of operators whose
masks add up to `shift` maps e^b to epsilon(shift, b) e^(b + shift) times its
sign on e^0, so the vertex checkers certify each relation on e^0 alone, and
`qtable.x_lambda_vector` carries e^(-[lambda]) to e^0 one `act` at a time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def gf2_rank(rows: Sequence[int]) -> int:
    work = list(rows)
    rank = 0
    ncols = max((r.bit_length() for r in work), default=0)
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r] >> col & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and (work[r] >> col & 1):
                work[r] ^= work[rank]
        rank += 1
    return rank


def vec_to_mask(alpha: Sequence[int]) -> int:
    mask = 0
    for i, a in enumerate(alpha):
        if a % 2:
            mask |= 1 << i
    return mask


class LatticeTwist:
    """c1, its rank r0, and the cocycle of one integer Gram matrix."""

    def __init__(self, gram: List[List[int]]):
        self.dim = len(gram)  # r + 1
        self.gram = gram
        k = self.dim
        self.c1_rows = []
        for i in range(k):
            row = 0
            for j in range(k):
                v = (self.gram[i][j] + self.gram[i][i] * self.gram[j][j]) % 2
                if i == j:
                    v = 0  # c1(a, a) = 0: <a,a>(1 + <a,a>) is even
                if v:
                    row |= 1 << j
            self.c1_rows.append(row)
        self.r0 = gf2_rank(self.c1_rows)
        # strict lower triangle of c1 drives the cocycle
        self._lower = [self.c1_rows[i] & ((1 << i) - 1) for i in range(k)]

    # -- the form and the cocycle ------------------------------------------

    def epsilon_masks(self, a: int, b: int) -> int:
        """epsilon as +-1 on GF(2) reductions, bi-additive."""
        acc = 0
        rem = a
        while rem:
            i = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            acc ^= bin(self._lower[i] & b).count("1") & 1
        return -1 if acc else 1

    def epsilon(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        return self.epsilon_masks(vec_to_mask(alpha), vec_to_mask(beta))

    # -- the full mod-2 state space used by the vertex operators ------------

    def act(self, mask: int, b: int) -> Tuple[int, int]:
        """e_alpha . e^b = epsilon(alpha, b) e^(alpha + b) on the mod-2 group algebra."""
        return self.epsilon_masks(mask, b), mask ^ b
