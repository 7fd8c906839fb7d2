"""Readable elements of the double cover, and reference spin character rows
for trivial Gamma.

`spingroup` knows one element form, `SpinLaw`'s packed (g, k, mask,
permutation index).  The tests write elements as `Element`s, (g, z^k a_I s)
with I a strictly increasing tuple and s a tuple of images, and cross to the
packed form and back with `pack` and `unpack`.  The rows come from concrete
induced products of basic spin modules on the brute-force group, by
triangular reduction; the tests compare `qtable.build_table` against them.
No command uses this module.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from spinwreath.gammadata import ConcreteGroup, GammaData
from spinwreath.partitions import MultiPartition, big_z, multipartitions, partitions_of
from spinwreath.scalars import Cyc
from spinwreath.spingroup import (Packed, SignedType, SpinLaw, basic_spin_trace,
                                  representative_of_type)

from gamma_reference import cyc_from_numerators


@dataclass(frozen=True)
class Element:
    """(g, z^k a_I s); g a tuple of ConcreteGroup element ids, s maps i to s[i]."""

    g: Tuple[int, ...]
    k: int
    I: Tuple[int, ...]
    s: Tuple[int, ...]


def pack(law: SpinLaw, x: Element) -> Packed:
    """The packed form of x under `law`."""
    return (x.g, x.k, sum(1 << i for i in x.I), law.perm_index[x.s])


def unpack(law: SpinLaw, x: Packed) -> Element:
    """The readable form of the packed x under `law`."""
    g, k, m, p = x
    return Element(g, k, tuple(i for i in range(law.n) if m >> i & 1), law.perms[p])


def _block_decompose(x: Element, blocks: List[Tuple[int, int]]) -> Optional[List[Element]]:
    """Split (g, z^k a_I s) into contiguous-block factors; None if s mixes
    blocks.

    The z power rides on the first factor; no reordering signs arise because
    the index blocks are contiguous and increasing.
    """
    out = []
    for bi, (lo, hi) in enumerate(blocks):
        size = hi - lo
        images = []
        for i in range(lo, hi):
            img = x.s[i]
            if not (lo <= img < hi):
                return None
            images.append(img - lo)
        g = tuple(x.g[lo:hi])
        I = tuple(i - lo for i in x.I if lo <= i < hi)
        k = x.k if bi == 0 else 0
        out.append(Element(g, k, I, tuple(images)))
    return out


def induced_basic_product_character(cg: ConcreteGroup, gdata: GammaData, law: SpinLaw,
                                    nu: Sequence[int],
                                    targets: List[Packed]) -> List[Cyc]:
    """The character of Ind[ L_{nu_1} (x) ... (x) L_{nu_l} ] at the target elements, normalized by
    2^(-floor(l/2)) for the type-Q pair collapses.

    The subgroup is the full block-preserving preimage; the product character
    at a block-decomposable element is the product of basic spin traces.
    """
    n = law.n
    blocks = []
    pos = 0
    for m in nu:
        blocks.append((pos, pos + m))
        pos += m
    if pos != n:
        raise ValueError("partition does not sum to n")

    block_laws: Dict[int, SpinLaw] = {m: SpinLaw(cg, m) for m in set(nu)}

    def f(h: Element) -> Optional[Cyc]:
        parts = _block_decompose(h, blocks)
        if parts is None:
            return None
        val = Cyc.rational(1)
        for bi, (lo, hi) in enumerate(blocks):
            block_law = block_laws[hi - lo]
            den, nums = basic_spin_trace(block_law, gdata, pack(block_law, parts[bi]))[0]
            val = val * cyc_from_numerators(gdata.axis, nums, den)
        return val

    subgroup_order = 1
    for m in nu:
        subgroup_order *= 2 ** (m + 1) * factorial(m) * cg.order**m
    subgroup_order //= 2 ** (len(nu) - 1)

    out = []
    conjugators = [(y, law.inv(y)) for y in law.elements()]
    for px in targets:
        total = Cyc.rational(0)
        for y, yinv in conjugators:
            val = f(unpack(law, law.mul(law.mul(y, px), yinv)))
            if val is not None:
                total = total + val
        total = total / Fraction(subgroup_order)
        total = total / Fraction(2 ** (len(nu) // 2))
        out.append(total)
    return out


def oracle_spin_rows(cg: ConcreteGroup, gdata: GammaData, n: int):
    """Irreducible spin super character rows of the double cover, computed
    from concrete induced products of basic modules by triangular reduction.

    Returns (columns, rows) where columns are the even split types in table
    order and rows map strict partitions to exact value lists.  Only the
    trivial base group is supported (the basic blocks use its one character).
    """
    if cg.order != 1:
        raise ValueError("oracle rows are implemented for the trivial base group")
    law = SpinLaw(cg, n)

    columns = list(multipartitions(n, 1, "OP", per_index_ascending=True))
    reps = {}
    for mu in columns:
        st = SignedType(mu, MultiPartition.empty(1))
        reps[mu] = representative_of_type(law, st)
    targets = [reps[mu] for mu in columns]
    zetas = gdata.centralizer_orders

    def std_inner(u: List[Cyc], v: List[Cyc]) -> Cyc:
        total = Cyc.rational(0)
        for mu, a, b in zip(columns, u, v):
            denom = Fraction(2**mu.length * big_z(mu, zetas))
            total = total + a * b / denom
        return total

    # Induced products expand into irreducibles with dominance-larger labels,
    # so extraction runs from the dominance-largest row downward.
    lambdas = sorted(partitions_of(n, "SP"), reverse=True)
    rows: dict = {}
    for lam in lambdas:
        vals = induced_basic_product_character(cg, gdata, law, lam, targets)
        for prev, pvals in rows.items():
            norm = std_inner(pvals, pvals)
            coef = std_inner(vals, pvals) / norm.as_rational()
            q = coef.as_rational()
            if q is None or q.denominator != 1:
                raise AssertionError(f"non-integer reduction coefficient {coef!r}")
            if q:
                vals = [a - b * q for a, b in zip(vals, pvals)]
        # normalize the global sign so the degree entry is positive
        ident = columns.index(MultiPartition([(1,) * n]) if n else MultiPartition.empty(1))
        dv = vals[ident].as_rational()
        if dv is None or dv == 0:
            raise AssertionError("oracle row has zero degree")
        if dv < 0:
            vals = [-a for a in vals]
        rows[lam] = vals
    return columns, rows
