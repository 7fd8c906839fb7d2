"""Concrete construction of the double cover of (Gamma x Z2)^n x| S_n.

An element (g, z^k a_I s), I strictly increasing, has one form here: the
packed (g, k, mask of I, permutation index) of `SpinLaw`, the group law for
one (Gamma, n).  The law reads the z power of a product, and at z = -1 the
Clifford trace, from tables, by a closed form of the Pi_n relations a_i^2 =
z, a_i a_j = z a_j a_i (see its docstring) that the tests check against
sorting the a-word one swap at a time.  Everything here is oracle machinery
for small n: exact conjugacy classes, closed on the quotient by the central
z with k as a label (a label conflict marks a non-split class, a split one
has a z-twin), and traces of the basic spin supermodules on the Clifford
algebra L_n, for every V at once, as canonical values on Gamma's value axis.
`Cyc` remains only in the built-ins' representation matrices, which the
oracle does not read.  A law over the size guard raises before it builds a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from operator import getitem, itemgetter
from typing import Callable, Dict, Iterator, List, Set, Tuple

from .gammadata import ConcreteGroup, GammaData
from .partitions import MultiPartition, big_z
from .scalars import Coeff, axis_scalar, poly_mul

Perm = Tuple[int, ...]  # images, 0-based: s maps i -> s[i]
Packed = Tuple[Tuple[int, ...], int, int, int]  # (g, k, mask of I, permutation index)


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


class SpinLaw:
    """The group law of the double cover for one (Gamma, n), on packed elements.

    A packed element (g, k, mask, p) stands for (g, z^k a_I s) with I the set
    bits of mask and s = perms[p], perms in `itertools.permutations` order.
    The product is

        (g, z^k a_I s)(h, z^l a_J t) = (g . s(h), z^(k+l+e) a_{I ^ s(J)} st),
        e = inv(s(j_1) ... s(j_m)) + #{(i, j) in I x s(J) : i > j} + |I & s(J)|,

    with s(h)_i = h_{s^-1(i)}: the inversions of the image sequence of J plus
    the merge parity of a_I a_{s(J)}, one z for each swap of distinct
    neighbours and one for each cancellation a_i a_i = z.  The tables hold
    permutation products and inverses, the image mask and inversion parity of
    each (perm, mask), and the merge parity of each (mask, mask) pair, so a
    product is one Gamma-table lookup per slot plus three table lookups for
    k, the mask and the permutation.  A cover of order over 10^6 raises
    `ValueError` before any table is built.
    """

    def __init__(self, cg: ConcreteGroup, n: int):
        self.group_order = 2 ** (n + 1) * factorial(n) * cg.order**n
        if self.group_order > 10**6:
            raise ValueError(f"oracle guard exceeded: group order {self.group_order}")
        self.cg = cg
        self.n = n
        self.order = cg.order
        self.grow = cg.table.__getitem__  # a -> the row of a in Gamma's table
        self.ginv = cg.inverse.__getitem__
        self.perms: List[Perm] = list(permutations(range(n)))
        self.perm_index = {s: p for p, s in enumerate(self.perms)}
        # permuted[p](t) is t o perms[p], the images t[s[0]], ..., t[s[n-1]]
        # (itemgetter of one index returns a scalar, so n <= 1 composes by hand)
        self.permuted = ([itemgetter(*s) for s in self.perms] if n > 1
                         else [lambda t: t])
        columns = [list(map(self.perm_index.__getitem__, map(c, self.perms)))
                   for c in self.permuted]
        self.pmul = [list(row) for row in zip(*columns)]
        self.pinv = [row.index(0) for row in self.pmul]
        self.unpermuted = [self.permuted[q] for q in self.pinv]  # t o perms[p]^-1
        self.image = [self._image_row(s) for s in self.perms]
        full = 1 << n
        # #{(i, j) in I x J : i > j} counts, for each j in J, the i in I above it
        self.merge = [[((i & j).bit_count() + sum((i >> (b + 1)).bit_count()
                                                  for b in range(n) if j >> b & 1)) & 1
                       for j in range(full)] for i in range(full)]
        # a_I^-1 = z^|I| a_{i_m} ... a_{i_1}, and reversing costs C(|I|, 2) swaps
        self.reversal = [m.bit_count() * (m.bit_count() + 1) // 2 & 1 for m in range(full)]

    def _image_row(self, s: Perm) -> List[Tuple[int, int]]:
        """(mask of s(J), inversion parity of s(j_1) ... s(j_m)) for each mask J."""
        # above[j]: the i < j with s(i) > s(j)
        above = [sum(1 << i for i in range(j) if s[i] > s[j]) for j in range(self.n)]
        row = [(0, 0)] * (1 << self.n)
        for mask in range(1, 1 << self.n):
            top = mask.bit_length() - 1
            rest = mask ^ (1 << top)
            img, par = row[rest]
            row[mask] = (img | 1 << s[top], (par + (rest & above[top]).bit_count()) & 1)
        return row

    def mul(self, x: Packed, y: Packed) -> Packed:
        gx, kx, mx, px = x
        gy, ky, my, py = y
        img, par = self.image[px][my]
        # slot i: gx[i] times gy[s^-1(i)]
        return (tuple(map(getitem, map(self.grow, gx), self.unpermuted[px](gy))),
                kx ^ ky ^ par ^ self.merge[mx][img], mx ^ img, self.pmul[px][py])

    def inv(self, x: Packed) -> Packed:
        g, k, m, p = x
        q = self.pinv[p]
        img, par = self.image[q][m]
        # slot i: the inverse of g[s(i)]
        return (tuple(map(self.ginv, self.permuted[p](g))),
                k ^ self.reversal[m] ^ par, img, q)

    def conjugation(self, h: Packed) -> Callable[[Packed], Packed]:
        """y -> h y h^-1, as mul(mul(h, y), inv(h)).  When h's Gamma part is
        the unit, so is inv(h)'s, and the map is one pass over the tables that
        only moves y's Gamma slots, with no Gamma product.  When h is e at
        slot 0 and nothing else (mask 0, identity permutation), the map fixes
        k, the mask and s = perms[p], left-multiplies slot 0 by e and then
        right-multiplies slot s(0) by e^-1: two Gamma products."""
        hinv, mul = self.inv(h), self.mul
        g, kh, mh, ph = h
        if any(g[1:]) or any(g) and (mh or ph):
            return lambda y: mul(mul(h, y), hinv)
        if any(g):
            left, right = self.grow(g[0]), [row[self.ginv(g[0])] for row in self.cg.table]
            first = [s[0] for s in self.perms]

            def conj_slot0(y: Packed) -> Packed:
                gy, ky, my, py = y
                out = list(gy)
                out[0] = left[out[0]]
                t = first[py]
                out[t] = right[out[t]]
                return tuple(out), ky, my, py

            return conj_slot0
        _, ki, mi, pi = hinv
        image, merge, pmul, move = self.image, self.merge, self.pmul, self.unpermuted[ph]
        image_h, merge_h, pmul_h = image[ph], merge[mh], pmul[ph]

        def conj(y: Packed) -> Packed:
            gy, ky, my, py = y
            img, par = image_h[my]
            m, p = mh ^ img, pmul_h[py]
            img2, par2 = image[p][mi]
            return (move(gy), kh ^ ky ^ ki ^ par ^ par2 ^ merge_h[img] ^ merge[m][img2],
                    m ^ img2, pmul[p][pi])

        return conj

    def elements(self) -> Iterator[Packed]:
        """Every element, in the order g (lexicographic), k, mask, permutation."""
        return product(product(range(self.order), repeat=self.n), (0, 1),
                       range(1 << self.n), range(len(self.perms)))

    def clifford_trace(self, x: Packed) -> int:
        """Trace of a_I s on L_n, k left out.  s takes e_J to e_{s(j_1)} ...
        e_{s(j_m)}, which is e_K, K = s(J), times the inversion sign of that
        sequence, and e_I e_K = (-1)^e e_{I ^ K} with e the merge parity: the
        rule of `mul` at z = -1, read from the same tables."""
        _, _, mask, p = x
        merge = self.merge[mask]
        return sum(-1 if par ^ merge[img] else 1
                   for subset, (img, par) in enumerate(self.image[p]) if mask ^ img == subset)


@dataclass(frozen=True)
class SignedType:
    """The (rho+, rho-) pair of class-indexed partitions of an element."""

    rho_plus: MultiPartition
    rho_minus: MultiPartition

    @property
    def parity(self) -> int:
        return self.rho_minus.length % 2


def _cycle_classes(law: SpinLaw, x: Packed) -> List[Tuple[List[int], int]]:
    """Each cycle (j_1 ... j_m) of s with the Gamma class of g_{j_m} ... g_{j_1}."""
    g, _, _, p = x
    out = []
    for cyc in perm_cycles(law.perms[p]):
        prod = 0
        for j in cyc:
            prod = law.grow(g[j])[prod]
        out.append((cyc, law.cg.class_of[prod]))
    return out


def signed_type(law: SpinLaw, x: Packed) -> SignedType:
    num_classes = max(law.cg.class_of) + 1
    plus: List[List[int]] = [[] for _ in range(num_classes)]
    minus: List[List[int]] = [[] for _ in range(num_classes)]
    mask = x[2]
    for cyc, c in _cycle_classes(law, x):
        target = plus if sum(mask >> j & 1 for j in cyc) % 2 == 0 else minus
        target[c].append(len(cyc))
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


def representative_of_type(law: SpinLaw, t: SignedType) -> Packed:
    """Element (g, a_I s) of the given signed type: one Gamma-class witness at
    the first slot of each cycle; one a-generator per negative cycle."""
    class_reps: Dict[int, int] = {}
    for e in range(law.order):
        class_reps.setdefault(law.cg.class_of[e], e)
    n = law.n
    g = [0] * n
    images = list(range(n))
    mask = 0
    pos = 0

    def place(ci: int, m: int, negative: bool) -> None:
        nonlocal mask, pos
        slots = list(range(pos, pos + m))
        for a, b in zip(slots, slots[1:]):
            images[a] = b
        images[slots[-1]] = slots[0]
        g[slots[0]] = class_reps[ci]
        if negative:
            mask |= 1 << slots[0]
        pos += m

    for ci, part in enumerate(t.rho_plus.parts):
        for m in part:
            place(ci, m, False)
    for ci, part in enumerate(t.rho_minus.parts):
        for m in part:
            place(ci, m, True)
    if pos != n:
        raise ValueError("type weight does not match n")
    return tuple(g), 0, mask, law.perm_index[tuple(images)]


@dataclass
class OracleClass:
    representative: Packed
    size: int
    centralizer_order: int
    signed_type: SignedType
    parity: int
    split: bool


def _generating_set(cg: ConcreteGroup) -> List[int]:
    """Elements that generate Gamma: each step adds the one that, with those
    already chosen, generates the largest subgroup (the first on ties)."""

    def span(gens: List[int]) -> Set[int]:
        reached = {0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            for h in gens:
                b = cg.table[a][h]
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
        return reached

    gens: List[int] = []
    while len(span(gens)) < cg.order:
        gens.append(max(range(cg.order), key=lambda e: len(span(gens + [e]))))
    return gens


def _generators(law: SpinLaw) -> List[Packed]:
    """Generators of the double cover: generators of Gamma at the first slot,
    the first a_i, the transposition of the first two slots and the n-cycle."""
    n = law.n
    unit = (0,) * n
    generators: List[Packed] = []
    if n:  # at n = 0 there is no slot and no a_i
        generators += [((e,) + unit[1:], 0, 0, 0) for e in _generating_set(law.cg)]
        generators.append((unit, 0, 1, 0))
    if n >= 2:
        generators.append((unit, 0, 0, law.perm_index[(1, 0) + tuple(range(2, n))]))
    if n >= 3:
        generators.append((unit, 0, 0, law.perm_index[tuple(range(1, n)) + (0,)]))
    return generators


def enumerate_classes_bruteforce(law: SpinLaw) -> List[OracleClass]:
    """Exact conjugacy classes of the double cover that `law` multiplies, by
    orbit closure on the quotient by z; representatives are packed elements.

    z is central, so each class C has a z-twin z.C over the same orbit of the
    quotient (g, mask, perm).  Each orbit is closed under conjugation by
    `_generators` from its first quotient element, taken with k = 0, and
    each element reached keeps its k as a label.  An edge that reaches a
    labelled element with the other k makes the orbit non-split: one class of
    twice the orbit's size.  Otherwise the labelled set is a class and its
    z-twin another.  Classes are sorted by representative, the least
    (g, k, mask, perm) of the class: the order in which a closure over the
    whole cover in `SpinLaw.elements` order meets them.
    """
    steps = [law.conjugation(h) for h in _generators(law)]
    assigned: Set[Packed] = set()
    found: List[Tuple[Packed, int, bool]] = []  # (representative, size, split)
    for x in law.elements():  # (g, 1, m, p) comes after (g, 0, m, p): k = 0 starts
        g, k, m, p = x
        if x in assigned or (g, k ^ 1, m, p) in assigned:
            continue
        orbit = {x}
        frontier = [x]
        split = True
        while frontier:
            y = frontier.pop()
            for step in steps:
                w = step(y)
                if w not in orbit:
                    gw, kw, mw, pw = w
                    if (gw, kw ^ 1, mw, pw) in orbit:
                        split = False
                    else:
                        orbit.add(w)
                        frontier.append(w)
        assigned |= orbit
        found.append((x, len(orbit) if split else 2 * len(orbit), split))
        if split:
            found.append((min((gw, kw ^ 1, mw, pw) for gw, kw, mw, pw in orbit),
                          len(orbit), True))
    classes: List[OracleClass] = []
    for x, size, split in sorted(found):
        st = signed_type(law, x)
        classes.append(OracleClass(x, size, law.group_order // size, st, st.parity, split))
    return classes


# -- basic spin supermodule traces ---------------------------------------------


def basic_spin_trace(law: SpinLaw, gdata: GammaData, x: Packed) -> List[Tuple[int, Coeff]]:
    """Trace of x on V^(x)n (x) L_n for each irreducible V of Gamma, in the
    order of `gdata.chars`, as one canonical value on Gamma's value axis.

    The module factorizes, so the trace is the wreath-product character of
    (g, s) on V^(x)n times `SpinLaw.clifford_trace` of a_I s, times (-1)^k,
    found once for every V; when it is 0 no character value is read.  V's
    stored values are multiplied unreduced (`scalars.poly_mul`) and reduced
    once (`scalars.axis_scalar`), so the check of `classfun.basic_char`
    shares none of its kernels.
    """
    clifford = (-1) ** x[1] * law.clifford_trace(x)
    classes = [c for _, c in _cycle_classes(law, x)] if clifford else []
    out = []
    for row in gdata.chars:
        den, acc = 1, [clifford]
        for c in classes:
            d, nums = row[c]
            den, acc = den * d, poly_mul(acc, nums)
        out.append(axis_scalar(gdata.axis, acc, den))
    return out


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
