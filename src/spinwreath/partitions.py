"""Partitions and partition-valued functions on a finite index set.

A partition is a weakly decreasing tuple of positive ints.  A
:class:`MultiPartition` assigns one partition to each index 0..k-1 (indices
are conjugacy classes or irreducible characters of the base group, in table
order).  Enumeration order is fixed globally: weight goes to the earliest
index first, partitions per index in reverse-lexicographic order; every
matrix in the system inherits this ordering.
"""

from __future__ import annotations

from math import factorial
from typing import Dict, Iterator, List, Sequence, Tuple

Partition = Tuple[int, ...]

KIND_ALL = "P"
KIND_ODD = "OP"
KIND_STRICT = "SP"


def check_partition(parts: Sequence[int]) -> Partition:
    if not parts:
        return ()
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def partitions_of(n: int, kind: str = KIND_ALL, _max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of n in reverse-lex order ((n) first, (1,...,1) last)."""
    if n == 0:
        yield ()
        return
    hi = n if _max_part is None else min(n, _max_part)
    for first in range(hi, 0, -1):
        if kind == KIND_ODD and first % 2 == 0:
            continue
        rest_max = first - 1 if kind == KIND_STRICT else first
        for rest in partitions_of(n - first, kind, rest_max):
            yield (first,) + rest


class MultiPartition:
    """A partition-valued function on indices 0..k-1, hashable and ordered.

    Immutable, so its weight (the sum of all parts) and length (the number
    of parts) are computed once, at construction."""

    __slots__ = ("parts", "weight", "length")

    def __init__(self, parts: Sequence[Sequence[int]]):
        parts = tuple(check_partition(p) for p in parts)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "weight", sum(map(sum, parts)))
        object.__setattr__(self, "length", sum(map(len, parts)))

    def __setattr__(self, *a):
        raise AttributeError("MultiPartition is immutable")

    @staticmethod
    def empty(k: int) -> "MultiPartition":
        return MultiPartition(((),) * k)

    @staticmethod
    def single(k: int, index: int, partition: Sequence[int]) -> "MultiPartition":
        parts: List[Tuple[int, ...]] = [()] * k
        parts[index] = tuple(partition)
        return MultiPartition(parts)

    def __getitem__(self, i: int) -> Partition:
        return self.parts[i]

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPartition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"MultiPartition{self.parts!r}"

    def multiplicities(self, index: int) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for p in self.parts[index]:
            out[p] = out.get(p, 0) + 1
        return out

    def relabel(self, perm: Sequence[int]) -> "MultiPartition":
        """New multipartition with entry i taken from index perm[i]."""
        return MultiPartition(tuple(self.parts[perm[i]] for i in range(len(self.parts))))

    def to_doc(self, names: Sequence[str]) -> dict:
        return {names[i]: list(p) for i, p in enumerate(self.parts) if p}


def multipartitions(n: int, k: int, kind: str = KIND_ALL,
                    per_index_ascending: bool = False) -> Iterator[MultiPartition]:
    """All multipartitions of total weight n on k indices, canonical order:
    weight to the earliest index first, reverse-lex per index ((n) first).
    With per_index_ascending the per-index order flips ((1,..,1) first),
    which puts the identity class type first; character table columns use it."""
    def plist(w: int) -> List[Partition]:
        out = list(partitions_of(w, kind))
        return out[::-1] if per_index_ascending else out

    def gen(idx: int, remaining: int) -> Iterator[Tuple[Partition, ...]]:
        if idx == k - 1:
            for p in plist(remaining):
                yield (p,)
            return
        for w in range(remaining, -1, -1):
            for p in plist(w):
                for rest in gen(idx + 1, remaining - w):
                    yield (p,) + rest

    if k == 0:
        if n == 0:
            yield MultiPartition(())
        return
    for parts in gen(0, n):
        yield MultiPartition(parts)


def z_factor(partition: Partition) -> int:
    """prod_i m_i! * i^m_i for a single partition."""
    out = 1
    mult: Dict[int, int] = {}
    for p in partition:
        mult[p] = mult.get(p, 0) + 1
    for i, m in mult.items():
        out *= factorial(m) * i**m
    return out


def big_z(rho: MultiPartition, centralizer_orders: Sequence[int]) -> int:
    """Z_rho = prod_c m_i(c)! i^m_i(c) zeta_c^l(rho(c)); rho indexed by classes."""
    out = 1
    for ci, p in enumerate(rho.parts):
        out *= z_factor(p) * centralizer_orders[ci] ** len(p)
    return out


def dominates(a: Partition, b: Partition) -> bool:
    """a >= b in the dominance order: equal weights, and every partial sum of
    a at least the matching partial sum of b."""
    if sum(a) != sum(b):
        return False
    ta = 0
    tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta < tb:
            return False
    return True
