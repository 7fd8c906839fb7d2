"""Concrete construction of the double cover of (Gamma x Z2)^n x| S_n.

Elements are kept in the normal form (g, z^k a_I s) with I strictly
increasing; the single normalization routine owns every sign rule of the
Pi_n relations a_i^2 = z, a_i a_j = z a_j a_i.  Everything here is oracle
machinery for small n: exact conjugacy classes, split detection, and traces
of the basic spin supermodules on the Clifford algebra L_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .gammadata import ConcreteGroup, GammaData
from .partitions import MultiPartition, big_z
from .scalars import Cyc

Perm = Tuple[int, ...]  # images, 0-based: s maps i -> s[i]


def perm_mul(s: Perm, t: Perm) -> Perm:
    """Composition s o t (t first)."""
    return tuple(s[t[i]] for i in range(len(s)))


def perm_inv(s: Perm) -> Perm:
    out = [0] * len(s)
    for i, si in enumerate(s):
        out[si] = i
    return tuple(out)


def perm_cycles(s: Perm) -> List[List[int]]:
    seen = [False] * len(s)
    cycles = []
    for start in range(len(s)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = s[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = s[j]
        cycles.append(cyc)
    return cycles


def normalize_word(indices: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Sort a product a_{i1}...a_{im} into strict normal form.

    Returns (z exponent mod 2, strictly increasing index tuple).  Each swap of
    distinct neighbours and each cancellation a_i a_i = z contributes one z.
    """
    word = list(indices)
    z = 0
    changed = True
    while changed:
        changed = False
        j = 0
        while j + 1 < len(word):
            a, b = word[j], word[j + 1]
            if a == b:
                del word[j:j + 2]
                z ^= 1
                changed = True
                if j > 0:
                    j -= 1
            elif a > b:
                word[j], word[j + 1] = b, a
                z ^= 1
                changed = True
            else:
                j += 1
    return z, tuple(word)


@dataclass(frozen=True)
class SpinElement:
    """Normal form (g, z^k a_I s); g is a tuple of ConcreteGroup element ids."""

    g: Tuple[int, ...]
    k: int
    I: Tuple[int, ...]
    s: Perm

    @property
    def parity(self) -> int:
        return len(self.I) % 2

    def __str__(self) -> str:
        return f"(g={self.g}, z^{self.k} a{list(self.I)} s={self.s})"


def identity_element(n: int) -> SpinElement:
    return SpinElement((0,) * n, 0, (), tuple(range(n)))


def multiply(cg: ConcreteGroup, x: SpinElement, y: SpinElement) -> SpinElement:
    if len(x.g) != len(y.g):
        raise ValueError("size mismatch")
    n = len(x.g)
    s_inv = perm_inv(x.s)
    g = tuple(cg.mul(x.g[i], y.g[s_inv[i]]) for i in range(n))
    z, word = normalize_word(list(x.I) + [x.s[j] for j in y.I])
    return SpinElement(g, (x.k + y.k + z) % 2, word, perm_mul(x.s, y.s))


def inverse(cg: ConcreteGroup, x: SpinElement) -> SpinElement:
    n = len(x.g)
    s_inv = perm_inv(x.s)
    g = tuple(cg.inv(x.g[x.s[i]]) for i in range(n))
    # a_I^{-1} = z^{|I|} a_{i_m} ... a_{i_1}; conjugating through s^{-1}
    # relabels each index.
    z, word = normalize_word([s_inv[i] for i in reversed(x.I)])
    return SpinElement(g, (x.k + len(x.I) + z) % 2, word, s_inv)


def times_z(x: SpinElement) -> SpinElement:
    return SpinElement(x.g, x.k ^ 1, x.I, x.s)


def all_elements(cg: ConcreteGroup, n: int) -> Iterator[SpinElement]:
    subsets = []
    for mask in range(1 << n):
        subsets.append(tuple(i for i in range(n) if mask >> i & 1))
    perms = list(_permutations(n))
    for g in product(range(cg.order), repeat=n):
        for k in (0, 1):
            for I in subsets:
                for s in perms:
                    yield SpinElement(tuple(g), k, I, s)


def _permutations(n: int) -> Iterator[Perm]:
    from itertools import permutations

    return (tuple(p) for p in permutations(range(n)))


@dataclass(frozen=True)
class SignedType:
    """The (rho+, rho-) pair of class-indexed partitions of an element."""

    rho_plus: MultiPartition
    rho_minus: MultiPartition

    @property
    def parity(self) -> int:
        return self.rho_minus.length % 2


def signed_type(cg: ConcreteGroup, x: SpinElement) -> SignedType:
    num_classes = max(cg.class_of) + 1
    plus: List[List[int]] = [[] for _ in range(num_classes)]
    minus: List[List[int]] = [[] for _ in range(num_classes)]
    iset = set(x.I)
    for cyc in perm_cycles(x.s):
        prod = 0
        for j in cyc:  # g_{j_m} ... g_{j_1} for the cycle (j_1 ... j_m)
            prod = cg.mul(x.g[j], prod)
        target = plus if len(iset & set(cyc)) % 2 == 0 else minus
        target[cg.class_of[prod]].append(len(cyc))
    plus_parts = [tuple(sorted(p, reverse=True)) for p in plus]
    minus_parts = [tuple(sorted(p, reverse=True)) for p in minus]
    return SignedType(MultiPartition(plus_parts), MultiPartition(minus_parts))


def is_split(t: SignedType) -> bool:
    """Split-class criterion: even classes need rho- empty and rho+ all odd
    parts; odd classes need rho+ empty and rho- strict of odd total length."""
    if t.parity == 0:
        if t.rho_minus.weight != 0:
            return False
        return all(p % 2 == 1 for part in t.rho_plus.parts for p in part)
    if t.rho_plus.weight != 0:
        return False
    strict = all(len(set(part)) == len(part) for part in t.rho_minus.parts)
    return strict and t.rho_minus.length % 2 == 1


def representative_of_type(cg: ConcreteGroup, n: int, t: SignedType) -> SpinElement:
    """Element (g, a_I s) of the given signed type: one Gamma-class witness at
    the first slot of each cycle; one a-generator per negative cycle."""
    class_reps: Dict[int, int] = {}
    for e in range(cg.order):
        class_reps.setdefault(cg.class_of[e], e)
    g = [0] * n
    images = list(range(n))
    I: List[int] = []
    pos = 0

    def place(ci: int, m: int, negative: bool) -> None:
        nonlocal pos
        slots = list(range(pos, pos + m))
        for a, b in zip(slots, slots[1:]):
            images[a] = b
        images[slots[-1]] = slots[0]
        g[slots[0]] = class_reps[ci]
        if negative:
            I.append(slots[0])
        pos += m

    for ci, part in enumerate(t.rho_plus.parts):
        for m in part:
            place(ci, m, False)
    for ci, part in enumerate(t.rho_minus.parts):
        for m in part:
            place(ci, m, True)
    if pos != n:
        raise ValueError("type weight does not match n")
    return SpinElement(tuple(g), 0, tuple(sorted(I)), tuple(images))


@dataclass
class OracleClass:
    representative: SpinElement
    size: int
    centralizer_order: int
    signed_type: SignedType
    parity: int
    split: bool


def enumerate_classes_bruteforce(cg: ConcreteGroup, n: int) -> List[OracleClass]:
    """Exact conjugacy classes of the double cover by orbit closure."""
    group_order = 2 ** (n + 1) * factorial(n) * cg.order**n
    if cg.order**n * 2 ** (n + 1) * factorial(n) > 10**6:
        raise ValueError(f"oracle guard exceeded: group order {group_order}")

    generators: List[SpinElement] = []
    ident = identity_element(n)
    for e in range(1, cg.order if n else 1):  # Gamma^0 has no Gamma generators
        generators.append(SpinElement((e,) + (0,) * (n - 1), 0, (), ident.s))
    for i in range(n):
        generators.append(SpinElement((0,) * n, 0, (i,), ident.s))
    for i in range(n - 1):
        images = list(range(n))
        images[i], images[i + 1] = images[i + 1], images[i]
        generators.append(SpinElement((0,) * n, 0, (), tuple(images)))
    gen_invs = [inverse(cg, h) for h in generators]

    assigned: Dict[SpinElement, int] = {}
    classes: List[OracleClass] = []
    for x in all_elements(cg, n):
        if x in assigned:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for h, hinv in zip(generators, gen_invs):
                w = multiply(cg, multiply(cg, h, y), hinv)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        idx = len(classes)
        for w in orbit:
            assigned[w] = idx
        split = times_z(x) not in orbit
        st = signed_type(cg, x)
        classes.append(OracleClass(
            representative=x,
            size=len(orbit),
            centralizer_order=group_order // len(orbit),
            signed_type=st,
            parity=st.parity,
            split=split,
        ))
    return classes


# -- basic spin supermodule traces ---------------------------------------------


def _clifford_left_mul(i: int, coeff: int, subset: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    # e_i . e_subset with {e_i, e_j} = -2 delta_ij; subset strictly increasing.
    below = sum(1 for j in subset if j < i)
    if i in subset:
        sign = -((-1) ** below)
        return coeff * sign, tuple(j for j in subset if j != i)
    sign = (-1) ** below
    pos = below
    return coeff * sign, subset[:pos] + (i,) + subset[pos:]


def clifford_action(x: SpinElement, subset: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """(a_I s).e_J on the Clifford basis: permute indices, then left-multiply."""
    images = sorted(x.s[j] for j in subset)
    seq = [x.s[j] for j in subset]
    sign = 1
    # permutation parity of the image sequence (distinct entries)
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    coeff, out = sign, tuple(images)
    for i in reversed(x.I):
        coeff, out = _clifford_left_mul(i, coeff, out)
    return coeff, out


def clifford_trace(x: SpinElement, n: int) -> int:
    total = 0
    for mask in range(1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        coeff, out = clifford_action(x, subset)
        if out == subset:
            total += coeff
    return total


def basic_spin_trace(cg: ConcreteGroup, gdata: GammaData, v_index: int,
                     n: int, x: SpinElement) -> Cyc:
    """Trace of x on V^(x)n (x) L_n for V the v_index-th irreducible of Gamma.

    The module factorizes, so the trace is the wreath-product character of
    (g, s) on V^(x)n times the Clifford trace of a_I s, times (-1)^k.
    """
    if v_index not in cg.rep_matrices:
        raise ValueError(f"character {v_index} has no realization for {cg.name}")
    val = Cyc.rational((-1) ** x.k)
    for cyc in perm_cycles(x.s):
        prod = 0
        for j in cyc:
            prod = cg.mul(x.g[j], prod)
        val = val * gdata.chars[v_index][cg.class_of[prod]]
    return val * clifford_trace(x, n)


# -- theory-side class tables ---------------------------------------------------


@dataclass
class TheoryClass:
    rho_plus: MultiPartition
    rho_minus: MultiPartition
    parity: int
    split: bool
    quotient_class_size: int
    cover_class_size: int
    cover_centralizer: int


def theory_classes(gdata: GammaData, n: int) -> List[TheoryClass]:
    """All conjugacy types of the quotient wreath product with split data."""
    from .partitions import multipartitions

    zetas = gdata.centralizer_orders
    k = gdata.num_classes
    quotient_order = 2**n * factorial(n) * gdata.order**n
    out = []
    for wp in range(n, -1, -1):
        for rp in multipartitions(wp, k):
            for rm in multipartitions(n - wp, k):
                st = SignedType(rp, rm)
                zq = (2 ** (rp.length + rm.length)
                      * big_z(rp, zetas) * big_z(rm, zetas))
                qsize = quotient_order // zq
                split = is_split(st)
                cover_size = qsize if split else 2 * qsize
                cover_centralizer = 2 * zq if split else zq
                out.append(TheoryClass(rp, rm, st.parity, split, qsize,
                                       cover_size, cover_centralizer))
    return out


# -- oracle spin character rows --------------------------------------------------


def _block_decompose(x: SpinElement, blocks: List[Tuple[int, int]]) -> Optional[List[SpinElement]]:
    """Test oracle (through `oracle_spin_rows`): split (g, z^k a_I s) into
    contiguous-block factors; None if s mixes blocks.

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
        out.append(SpinElement(g, k, I, tuple(images)))
    return out


def induced_basic_product_character(cg: ConcreteGroup, gdata: GammaData, n: int,
                                    nu: Sequence[int],
                                    elements: List[SpinElement],
                                    targets: List[SpinElement]) -> List[Cyc]:
    """Test oracle (through `oracle_spin_rows`): the character of
    Ind[ L_{nu_1} (x) ... (x) L_{nu_l} ] at the target elements, normalized by
    2^(-floor(l/2)) for the type-Q pair collapses.

    The subgroup is the full block-preserving preimage; the product character
    at a block-decomposable element is the product of basic spin traces.
    """
    blocks = []
    pos = 0
    for m in nu:
        blocks.append((pos, pos + m))
        pos += m
    if pos != n:
        raise ValueError("partition does not sum to n")

    def f(h: SpinElement) -> Optional[Cyc]:
        parts = _block_decompose(h, blocks)
        if parts is None:
            return None
        val = Cyc.rational(1)
        for bi, (lo, hi) in enumerate(blocks):
            val = val * basic_spin_trace(cg, gdata, 0, hi - lo, parts[bi])
        return val

    subgroup_order = 1
    for m in nu:
        subgroup_order *= 2 ** (m + 1) * factorial(m) * cg.order**m
    subgroup_order //= 2 ** (len(nu) - 1)

    out = []
    inverses = {x: inverse(cg, x) for x in elements}
    for x in targets:
        total = Cyc.rational(0)
        for y in elements:
            w = multiply(cg, multiply(cg, y, x), inverses[y])
            val = f(w)
            if val is not None:
                total = total + val
        total = total / Fraction(subgroup_order)
        total = total / Fraction(2 ** (len(nu) // 2))
        out.append(total)
    return out


def oracle_spin_rows(cg: ConcreteGroup, gdata: GammaData, n: int):
    """Test oracle: irreducible spin super character rows of the double cover,
    computed from concrete induced products of basic modules by triangular
    reduction; the tests compare `qtable.build_table` against it.

    Returns (columns, rows) where columns are the even split types in table
    order and rows map strict partitions to exact value lists.  Only the
    trivial base group is supported (the basic blocks use its one character).
    """
    from .partitions import multipartitions, partitions_of

    if cg.order != 1:
        raise ValueError("oracle rows are implemented for the trivial base group")
    classes = enumerate_classes_bruteforce(cg, n)
    elements = list(all_elements(cg, n))

    columns = list(multipartitions(n, 1, "OP", per_index_ascending=True))
    reps = {}
    for mu in columns:
        st = SignedType(mu, MultiPartition.empty(1))
        reps[mu] = representative_of_type(cg, n, st)
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
        vals = induced_basic_product_character(cg, gdata, n, lam, elements, targets)
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
