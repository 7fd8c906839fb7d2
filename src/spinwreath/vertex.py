"""Twisted vertex operators on the Fock space tensored with the mod-2 lattice.

A basis state is (lattice class mod 2, Fock monomial).  Every operator on
that space -- the component X_m(gamma), the Heisenberg generator a_m(gamma)
and the normal-ordered product :X(alpha,z)X(beta,w): -- runs on one row
engine: its Fock part is an integer row (numerators over one denominator)
per monomial, cached on the context, and its lattice part is a +-1 sign
from the cocycle (`LatticeTwist.epsilon_masks`).  X(gamma, z) = E_-(gamma, z)
E_+(gamma, z), where E_-(gamma, z) = exp(sum (2/k) a_{-k} z^k) has the q_n of
`fock.q_gen` as coefficients and E_+(gamma, z) = exp(-sum (2/k) a_k z^-k)
fixes the vacuum and satisfies

    E_+(gamma, z) a_{-n}(c) E_+(gamma, z)^-1 = a_{-n}(c) - <gamma, c>_xi z^-n.

The normal-ordered product :X(alpha,z)X(beta,w): = E_-(alpha,z)E_-(beta,w)
E_+(alpha,z)E_+(beta,w) is the same construction on two operators, and
X(gamma, z) is its one-operator case.  So one recursion builds both: for
the operators gamma_s at the indices m_s (s = 1 for X_m(gamma), s = 1, 2
for N_{a,b}(alpha, beta)), moving a_{-n}(c) past every E_+ factor gives,
with v the monomial less its first factor a_{-n}(c),

    row(a_{-n}(c) v) = a_{-n}(c) row(v) - sum_s <gamma_s, c>_xi row_s(v),

row_s the row with m_s lowered by n, down to prod_s q_{-m_s}(gamma_s) on
the vacuum; the row is zero below degree sum_s max(m_s, 0) (`_vo_row`).
The rows are exact: the recursion ends at the vacuum, so no series is
truncated.  The weighted Gram matrix is the integer one of
`gammadata.gram_matrix`, computed once per context and shared by the Fock
form and the cocycle.

The engine works on integers only, on the Fock context's monomial numbering
and factor tables (`FockContext.index`, `basis`, `removals`, `insert`,
`merge`), which `fock` owns; this module keeps neither of its own.  A row's
entries are (monomial index, integer numerator) pairs, and every cache here
keys on those indices.  The a_m rows remove or insert one factor, the
removals weighted by the context's integer pair rows
(`FockContext.pair_row`), and q_n is `fock.q_gen`'s vector, read with its
keys as they are.  An index turns back into its monomial only in a failure
witness; `x_component` applies an X layer to an index row (the character
table's X_lambda vectors, `qtable.x_lambda_vector`).

Every relation checker -- Clifford, OPE, X parity, the primary-field
commutator and the affine families -- is a generator of instances
(params, terms), each term a coefficient times a word of layers, and one
loop, `certify_instances`, checks that every instance's terms sum to zero
on every basis vector up to a degree bound and reports the first witness
on failure.  It checks a whole panel of monomials at once: a word's rows
on every panel monomial form one integer block over one denominator,
built by applying the word's layers to the panel one layer at a time, and
an instance is one sum of its terms' blocks.  Each word is built once per
family and kept in `Blocks` as (shift, sign, block): the sum of its layer
masks, its cocycle sign chain on coset 0 and its block.  Each instance's
verdict -- pass, or the witness -- is kept there too, keyed by its terms'
(shift, signed coefficient, block), a pass in any order of the terms.  The
affine check runs its index sets family by family, so one family's words
and verdicts serve every index set, and are dropped when the family ends;
its X and H layers are interned per context, so equal layers are one tuple.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .fock import VACUUM, FockContext, q_gen
from .fock import create  # noqa: F401  kept: perfbench/test_perfbench.py checks vertex.create
from .gammadata import GammaData, VirtualChar
from .lattice import LatticeTwist, vec_to_mask

IntVec = Tuple[int, ...]
_LOG = logging.getLogger(__name__)


class TwistContext:
    """Fock context plus lattice twist for one (Gamma, xi) pair, both on the
    Fock context's integer Gram matrix.

    Its one cache, of layer rows, keys on the layer, then on the Fock
    context's monomial numbering (`FockContext.index`): X and N rows alike
    are built by the factor recursion from rows kept there.  Its X and H
    layers are interned (`_layer`), so equal layers are one tuple."""

    def __init__(self, gamma: GammaData, xi: VirtualChar):
        self.gamma = gamma
        self.xi = xi
        self.fock = FockContext(gamma, xi)
        self.twist = LatticeTwist(self.fock.gram)
        self._layers: Dict[Tuple, XLayer] = {}
        self._lean_rows: Dict[Layer, Dict[int, LeanRow]] = {}

    def basis_vector(self, i: int) -> IntVec:
        return tuple(1 if t == i else 0 for t in range(self.gamma.num_classes))

    def pairing(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        """<alpha, beta>_xi, read off alpha's cached pair row (`FockContext.pair_row`)."""
        return sum(map(mul, self.fock.pair_row(alpha), beta))


# -- the row engine ----------------------------------------------------------------
#
# The vertex algebra is rational and X components carry integer character
# vectors, so every operator row is rational with small denominators.  A row
# is (denominator, ((monomial index, integer numerator), ...)) over the
# Fock context's monomial numbering (`FockContext.index`), its entries in no
# particular order and its denominator the least one; a layer names the
# operator:
#
#     ("X", m, coeffs, mask)             X_m(gamma)
#     ("H", m, coeffs, 0)                a_m(gamma)
#     ("N", a, b, alpha, beta, mask)     coefficient of z^-a w^-b in :X(alpha,z)X(beta,w):
#
# X and N rows are built by one factor recursion (`_vo_row`), an X layer
# its one-operator case; an H row inserts or removes one factor.
# `_lean_row` is the one cached way to get a layer's row on a monomial, and
# `_apply_block` the one way to apply a layer to rows: to a panel block (the
# instance engine below), or to a single index row as a one-entry panel
# (`x_component`).

IDict = Dict[int, int]
LeanRow = Tuple[int, Tuple[Tuple[int, int], ...]]  # (denominator, entries)
Layer = Tuple
XLayer = Tuple[str, int, IntVec, int]  # an X or H layer


def _least_row(den: int, acc: IDict) -> LeanRow:
    """The integer map acc over den as a row over its least denominator,
    its zero entries dropped."""
    g = gcd(den, *acc.values())
    if 0 in acc.values():
        acc = {i: v for i, v in acc.items() if v}
    if g == 1:
        return den, tuple(acc.items())
    return den // g, tuple([(i, v // g) for i, v in acc.items()])


def _vo_row(tctx: TwistContext, layer: Layer, rows: Dict[int, LeanRow], i: int) -> LeanRow:
    """The row on monomial i of E_-(gamma_1, z_1) .. E_-(gamma_k, z_k)
    E_+(gamma_1, z_1) .. E_+(gamma_k, z_k) at z_1^-m_1 .. z_k^-m_k, for the
    layer (kind, m_1 .. m_k, gamma_1 .. gamma_k, mask): an X layer (k = 1)
    or an N layer (k = 2).  On i = a_{-n}(c) v, v from
    `FockContext.removals`,

        row(i) = a_{-n}(c) row(v) - sum_s <gamma_s, c>_xi row_s(v),

    row_s the layer with m_s lowered by n, the rows on v read from the
    layer's cached rows (`rows`) or through `_lean_row` and moved up by the
    factor's `FockContext.inserts` table; on the vacuum, prod_s
    q_{-m_s}(gamma_s) (`fock.q_gen`).  The row is zero below degree
    sum_s max(m_s, 0)."""
    fock = tctx.fock
    k = len(layer) // 2 - 1
    cut = 0
    for m in layer[1:k + 1]:
        if m > 0:
            cut += m
    if fock.degrees[i] < cut:
        return 1, ()
    if i == VACUUM:
        den, row = 1, ((VACUUM, 1),)
        for s in range(1, k + 1):
            q = q_gen(fock, -layer[s], layer[s + k])
            acc = {}
            for t, x in row:
                for u, y in q.nums.items():
                    tu = fock.merge(t, u)
                    acc[tu] = acc.get(tu, 0) + x * y[0]
            den, row = _least_row(den * q.den, acc)
        return den, row
    n = fock.monos[i][0][0]
    c, _, v = fock.removals(i, n)[0]
    den, up = rows.get(v) or _lean_row(tctx, layer, v)
    moved = fock.inserts(n, c)
    acc = None
    for s in range(1, k + 1):
        p = fock.pair_row(layer[s + k])[c]
        if not p:
            continue
        dd, down = _lean_row(tctx, layer[:s] + (layer[s] - n,) + layer[s + 1:], v)
        if not down:
            continue
        lcd = den * dd // gcd(den, dd)
        f = lcd // den
        if acc is None:
            acc = {moved[t]: f * e for t, e in up}
            get = acc.get
        elif f != 1:
            for t in acc:
                acc[t] *= f
        den = lcd
        f = p * (lcd // dd)
        for t, e in down:
            acc[t] = get(t, 0) - f * e
    if acc is None:
        return den, tuple([(moved[t], e) for t, e in up])
    return _least_row(den, acc)


def _lean_row(tctx: TwistContext, layer: Layer, i: int) -> LeanRow:
    """The layer's row on monomial i, without the lattice sign; cached in
    `_lean_rows` by layer, then by monomial index."""
    rows = tctx._lean_rows.get(layer)
    if rows is None:
        rows = tctx._lean_rows[layer] = {}
    row = rows.get(i)
    if row is not None:
        return row
    kind, m = layer[0], layer[1]
    if kind != "H":
        row = _vo_row(tctx, layer, rows, i)
    elif m % 2 == 0:
        row = (1, ())
    elif m > 0:
        prow = tctx.fock.pair_row(layer[2])
        row = _least_row(2, {rest: weight * prow[j]
                             for j, weight, rest in tctx.fock.removals(i, m) if prow[j]})
    else:
        row = 1, tuple((tctx.fock.insert(i, -m, j), c) for j, c in enumerate(layer[2]) if c)
    rows[i] = row
    return row


def _layer(tctx: TwistContext, kind: str, m: int, coeffs: Sequence[int]) -> XLayer:
    """The X or H layer of index m on coeffs, interned in the context: equal
    arguments, as a list or a tuple, give the identical tuple."""
    key = (kind, m, tuple(coeffs))
    layer = tctx._layers.get(key)
    if layer is None:
        vec = tuple(int(c) for c in coeffs)
        layer = tctx._layers[key] = (kind, m, vec, vec_to_mask(vec) if kind == "X" else 0)
    return layer


def _x_layer(tctx: TwistContext, m: int, coeffs: Sequence[int]) -> XLayer:
    return _layer(tctx, "X", m, coeffs)


def _h_layer(tctx: TwistContext, m: int, coeffs: Sequence[int]) -> XLayer:
    return _layer(tctx, "H", m, coeffs)


def x_component(tctx: TwistContext, m: int, gamma_vec: Sequence[int],
                row: LeanRow) -> LeanRow:
    """The Fock part of the coefficient of z^{-m} in X(gamma, z) applied to
    an integer row on monomial indices, over its least denominator; the
    lattice sign is the caller's."""
    return _least_row(*_apply_block(tctx, _x_layer(tctx, m, gamma_vec), (row[0], dict(row[1])), 1))


def neg(vec: Sequence[int]) -> IntVec:
    return tuple(-c for c in vec)


def sign_pow(n: int) -> int:
    return -1 if n & 1 else 1


# -- reports ---------------------------------------------------------------------


@dataclass
class RelationResult:
    relation: str
    params: dict
    status: str  # "pass" | "fail"
    witness: Optional[dict] = None

    def to_doc(self) -> dict:
        doc = {"relation": self.relation, "params": self.params, "status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


# -- the instance engine: one certification loop for every checker -----------------
#
# Every checker certifies identities of the shape
#
#     sum_t coef_t * Op_{t,1} Op_{t,2} ... (v) = 0
#
# where each Op is a layer: an X component, a Heisenberg generator or a
# normal-ordered product.  A checker is a generator of instances (params,
# terms), and `certify_instances` checks them on the Fock monomials of the
# panel; `Cyc` scalars never enter.  On a basis vector (b, mono) the Fock
# part of each term is independent of the lattice class b: a layer of mask
# `mask` multiplies by epsilon(mask, cur) and moves cur to cur + mask (an H
# layer has mask 0; an N layer the mask of alpha + beta).  Since epsilon is
# bi-additive, epsilon(mask, b + s) = epsilon(mask, b) epsilon(mask, s), so a
# term whose masks add up to `shift` has the sign epsilon(shift, b) c_t on
# (b, mono), where c_t is its sign chain on (0, mono), and lands on
# b + shift.  Terms of different shifts land on different cosets; terms of
# one shift share the factor epsilon(shift, b).  So the identity holds on
# every (coset, monomial) basis vector exactly when, for every shift,
# sum c_t coef_t Fock_t(mono) = 0: one check on coset 0 covers them all.
#
# The Fock part of a term is its word's block: the word's rows on every
# panel monomial at once, one integer map (target index * panel size +
# panel position) -> numerator over one denominator.  A word's block is its
# left layer applied, through the layer's cached rows (`_lean_row`), to the
# block of the rest of the word, down to the panel itself, and its sign
# chain is the rest's extended by the left layer's mask; both are cached by
# word for one family (`Blocks`).  An instance then sums its term blocks per
# shift over one common denominator, and only a failing instance goes back
# to single monomials, to write its witness.  Its verdict is cached too, on
# its terms' (shift, signed coefficient, block): an index set that repeats
# an instance of an earlier one reads the verdict, witness included, and an
# instance whose terms are an earlier pass's in another order reads the pass.

Block = Tuple[int, IDict]  # (denominator, {target * panel size + position: numerator})
Word = Tuple[int, int, Block]  # (shift, sign chain on coset 0, block)


class Blocks(dict):
    """Word -> (shift, sign, block) on one panel, for the instances of one
    relation family (`certify_instances`): the sum of the word's layer
    masks, its exact +-1 cocycle sign chain on coset 0, and its block.
    An instance's verdict is kept on its terms' (shift, signed coefficient,
    block): a pass in `passes`, on those terms sorted, since a sum does not
    depend on their order, mapped to the order it was first seen in; a
    witness in `failures`, on the terms in order, since a witness does.
    `reused` and `verdicts_reused` count the lookups each answered,
    `reordered` the passes read for terms in another order."""

    def __init__(self) -> None:
        super().__init__()
        self.reused = 0
        self.passes: Dict[Tuple, Tuple] = {}
        self.failures: Dict[Tuple, dict] = {}
        self.verdicts_reused = 0
        self.reordered = 0


def _apply_block(tctx: TwistContext, layer: Layer, block: Block, size: int) -> Block:
    """The layer applied to a block over a panel of `size` monomials,
    without the lattice sign."""
    den, entries = block
    cached = tctx._lean_rows.get(layer)
    if cached is None:
        cached = tctx._lean_rows[layer] = {}
    lcd = 1
    out: IDict = {}
    get = out.get
    for key, num in entries.items():
        j, p = divmod(key, size)
        d, row = cached.get(j) or _lean_row(tctx, layer, j)
        if d != lcd:
            if lcd % d:
                step = d // gcd(lcd, d)
                lcd *= step
                for k in out:
                    out[k] *= step
            num *= lcd // d
        for t, e in row:
            key = t * size + p
            out[key] = get(key, 0) + num * e
    if 0 in out.values():
        out = {key: v for key, v in out.items() if v}
    return den * lcd, out


def _word(tctx: TwistContext, layers: Tuple[Layer, ...], panel: Tuple[int, ...],
          blocks: Blocks) -> Word:
    """The word's shift, sign chain and block on the panel (monomial
    indices); cached in `blocks` by word."""
    word = blocks.get(layers)
    if word is None:
        if layers:
            shift, sign, block = _word(tctx, layers[1:], panel, blocks)
            mask = layers[0][-1]
            if mask:
                sign *= tctx.twist.epsilon_masks(mask, shift)
                shift ^= mask
            word = shift, sign, _apply_block(tctx, layers[0], block, len(panel))
        else:
            size = len(panel)
            word = 0, 1, (1, {i * size + p: 1 for p, i in enumerate(panel)})
        blocks[layers] = word
    else:
        blocks.reused += 1
    return word


Term = Tuple[Fraction, Tuple[Layer, ...]]
Instance = Tuple[dict, List[Term]]
Prepared = Tuple[int, int, int, Block]
# a term as (shift, signed coefficient numerator, its denominator, block)


def _check_instance(tctx: TwistContext, terms: Sequence[Term], panel: Tuple[int, ...],
                    blocks: Blocks) -> Optional[dict]:
    """Verify sum_t coef_t * term_t = 0 on every (coset, monomial) basis
    vector, the monomials given by their indices in `panel`.

    By the bi-additivity of epsilon (see above) this is, for each shift,
    sum c_t coef_t block_t = 0 on coset 0, where c_t is the term's sign
    chain there; the blocks, cached in `blocks` by word, are summed over one
    lcm of their denominators times their coefficients'.  Returns None on
    success, else the witness of `_witness` on the first failing panel
    monomial; the verdict is kept in `blocks`, a pass for the terms in any
    order.
    """
    prepared: List[Prepared] = []
    lcd = 1
    for coef, layers in terms:
        shift, sign, block = _word(tctx, layers, panel, blocks)
        cden = coef.denominator
        prepared.append((shift, sign * coef.numerator, cden, block))
        den = block[0] * cden
        if lcd % den:
            lcd = lcm(lcd, den)
    key = tuple([(shift, num, cden, id(block)) for shift, num, cden, block in prepared])
    terms_sorted = tuple(sorted(key))
    seen = blocks.passes.get(terms_sorted)
    if seen is not None:
        blocks.verdicts_reused += 1
        blocks.reordered += seen != key
        return None
    if key in blocks.failures:
        blocks.verdicts_reused += 1
        return blocks.failures[key]
    by_shift: Dict[int, IDict] = {}
    for shift, num, cden, (den, entries) in prepared:
        scale = num * (lcd // (den * cden))
        acc = by_shift.get(shift)
        if acc is None:
            by_shift[shift] = {k: scale * n for k, n in entries.items()}
            continue
        get = acc.get
        for k, n in entries.items():
            acc[k] = get(k, 0) + scale * n
    witness = None
    if any(any(acc.values()) for acc in by_shift.values()):
        size = len(panel)
        p = min(k % size for acc in by_shift.values() for k, v in acc.items() if v)
        blocks.failures[key] = witness = _witness(tctx, prepared, panel, p)
    else:
        blocks.passes[terms_sorted] = key
    return witness


def _witness(tctx: TwistContext, prepared: Sequence[Prepared], panel: Tuple[int, ...],
             p: int) -> dict:
    """The failure witness on the panel's p-th monomial: coset 0, the first
    failing shift's first three residual monomials in sorted order, each as
    "q/den" over the lcm of the shift's nonempty terms' least row
    denominators times their coefficients' denominators; shifts in the order
    of their first term that is nonempty on the monomial."""
    size = len(panel)
    dens: Dict[int, int] = {}
    by_shift: Dict[int, Dict[int, Fraction]] = {}
    for shift, num, cden, (den, entries) in prepared:
        row = [(key // size, n) for key, n in entries.items() if key % size == p]
        if not row:
            continue
        dens[shift] = lcm(dens.get(shift, 1), den // gcd(den, *(n for _, n in row)) * cden)
        acc = by_shift.setdefault(shift, {})
        for j, n in row:
            acc[j] = acc.get(j, 0) + Fraction(num * n, cden * den)
    shift, acc = next(item for item in by_shift.items() if any(item[1].values()))
    monos = tctx.fock.monos
    worst = sorted((monos[j], q) for j, q in acc.items() if q)[:3]
    den = dens[shift]
    return {"coset": 0, "mono": list(map(list, monos[panel[p]])),
            "residual": [[list(map(list, mo)), f"{(q * den).numerator}/{den}"]
                         for mo, q in worst]}


def _x_rows_built(tctx: TwistContext) -> int:
    """The X rows in the context's row caches."""
    return sum(len(rows) for layer, rows in tctx._lean_rows.items() if layer[0] == "X")


def certify_instances(tctx: TwistContext, name: str, instances: Iterable[Instance],
                      panel: Sequence[int], pass_params: dict,
                      blocks: Optional[Blocks] = None) -> RelationResult:
    """The family `name` on the panel's monomials (indices, as
    `FockContext.basis` gives them): a "fail" result with the first failing
    instance's params and witness, else "pass" with pass_params.  A family
    with no instance or no monomial fails with the reason "no_instances", so
    a pass never rests on an empty check.  `blocks` caches word blocks and
    instance verdicts on this panel; a caller passes one in to share it
    between calls on the same panel (`affine_relation_check`), else the
    family has its own.  Logs one DEBUG line: the instances checked, the
    panel size, the blocks built, the blocks reused, the verdicts reused
    (and how many of them were passes of the terms in another order) and
    the X rows built, counted over every cached layer only at DEBUG."""
    panel = tuple(panel)
    if blocks is None:
        blocks = Blocks()
    debug = _LOG.isEnabledFor(logging.DEBUG)
    built, reused, verdicts = len(blocks), blocks.reused, blocks.verdicts_reused
    reordered, x_rows = blocks.reordered, _x_rows_built(tctx) if debug else 0
    checked = 0
    result = None
    for params, terms in instances:
        if not panel:
            break
        checked += 1
        witness = _check_instance(tctx, terms, panel, blocks)
        if witness is not None:
            result = RelationResult(name, params, "fail", witness)
            break
    if debug:
        _LOG.debug("family %s %s: %d instances on %d monomials, %d blocks built, %d reused, "
                   "%d verdicts reused (%d in another order), %d X rows built", name,
                   pass_params, checked, len(panel), len(blocks) - built,
                   blocks.reused - reused, blocks.verdicts_reused - verdicts,
                   blocks.reordered - reordered, _x_rows_built(tctx) - x_rows)
    if result is not None:
        return result
    if not checked:
        return RelationResult(name, pass_params, "fail", {"reason": "no_instances"})
    return RelationResult(name, pass_params, "pass")


# -- the relation families -----------------------------------------------------------


def hh_instances(tctx: TwistContext, index_set: Sequence[int],
                 window: int) -> Iterator[Instance]:
    """The Heisenberg relations [a_m(g_i), a_m'(g_j)] = (m/2) d_{m,-m'} <g_i, g_j>_xi
    for i, j in index_set and odd m, m' in [-window, window]; shared by the
    heisenberg suite and the affine `hh` family."""
    gram = tctx.twist.gram
    odd = [m for m in range(-window, window + 1) if m % 2]
    one = Fraction(1)
    for i in index_set:
        gi = tctx.basis_vector(i)
        for j in index_set:
            gj = tctx.basis_vector(j)
            for m in odd:
                for mp in odd:
                    hi, hj = _h_layer(tctx, m, gi), _h_layer(tctx, mp, gj)
                    terms = [(one, (hi, hj)), (-one, (hj, hi))]
                    if m == -mp and gram[i][j]:
                        terms.append((-Fraction(m, 2) * gram[i][j], ()))
                    yield {"i": i, "j": j, "m": m, "mprime": mp}, terms


def hx_instances(tctx: TwistContext, pairs: Iterable[Tuple[dict, Sequence[int], Sequence[int]]],
                 ns: Sequence[int], window: int) -> Iterator[Instance]:
    """[a_n(alpha), X_m(beta)] = <alpha, beta>_xi X_{n+m}(beta) for each
    (label, alpha, beta) in pairs, n in ns and |m| <= window; an instance's
    params are its label with n and m.  Shared by the ope suite's
    `prim_commutator` family and the affine `hx` family."""
    one = Fraction(1)
    for label, alpha, beta in pairs:
        pairing = tctx.pairing(alpha, beta)
        for n in ns:
            ha = _h_layer(tctx, n, alpha)
            for m in range(-window, window + 1):
                xm = _x_layer(tctx, m, beta)
                terms = [(one, (ha, xm)), (-one, (xm, ha))]
                if pairing:
                    terms.append((Fraction(-pairing), (_x_layer(tctx, n + m, beta),)))
                yield dict(label, n=n, m=m), terms


def parity_instances(tctx: TwistContext, gammas: Iterable[Tuple[dict, Sequence[int]]],
                     window: int) -> Iterator[Instance]:
    """X_n(-gamma) = (-1)^n X_n(gamma) for each (label, gamma) in gammas and
    |n| <= window; an instance's params are its label with n.  Shared by
    the `x_parity` families of the ope and affine suites."""
    one = Fraction(1)
    for label, gamma in gammas:
        for n in range(-window, window + 1):
            yield dict(label, n=n), [(one, (_x_layer(tctx, n, gamma),)),
                                     (Fraction(-sign_pow(n)), (_x_layer(tctx, n, neg(gamma)),))]


def _ratio_series(kappa: int, nterms: int) -> List[Fraction]:
    """Power series of ((1-u)/(1+u))^kappa in u = w/z, exact, through u^nterms:
    the |kappa|-th power of (1-u)/(1+u) = 1 + sum_k 2 (-1)^k u^k, or of its
    inverse 1 + sum_k 2 u^k when kappa < 0."""
    s = -1 if kappa >= 0 else 1
    base = [1] + [2 * s ** k for k in range(1, nterms + 1)]
    out = [1] + [0] * nterms
    for _ in range(abs(kappa)):
        out = [sum(out[i] * base[t - i] for i in range(t + 1)) for t in range(nterms + 1)]
    return [Fraction(c) for c in out]


def ope_check(tctx: TwistContext, alpha: Sequence[int], beta: Sequence[int],
              cutoff: int, max_degree: int) -> RelationResult:
    """X(alpha,z)X(beta,w) = eps(alpha,beta) :XX: ((z-w)/(z+w))^<alpha,beta>,
    coefficients compared for |m|, |m'| <= cutoff on the basis panel.

    The z^-m w^-m' coefficient is X_m(alpha) X_m'(beta) = eps sum_t s_t N_{m-t,m'+t},
    s_t the series coefficients; the N row of w-index m' + t vanishes on
    monomials of degree below it, so t <= max_degree - m' is exact."""
    av, bv = tuple(int(c) for c in alpha), tuple(int(c) for c in beta)
    eps = tctx.twist.epsilon(av, bv)
    series = _ratio_series(tctx.pairing(av, bv), max_degree + cutoff)
    mask = vec_to_mask(av) ^ vec_to_mask(bv)
    one = Fraction(1)

    def instances() -> Iterator[Instance]:
        for m in range(-cutoff, cutoff + 1):
            for mp in range(-cutoff, cutoff + 1):
                terms: List[Term] = [(one, (_x_layer(tctx, m, av), _x_layer(tctx, mp, bv)))]
                for t in range(max_degree - mp + 1):
                    if series[t]:
                        terms.append((-eps * series[t], (("N", m - t, mp + t, av, bv, mask),)))
                yield {"alpha": list(alpha), "beta": list(beta), "m": m, "mprime": mp}, terms

    return certify_instances(tctx, "ope", instances(), tctx.fock.basis(max_degree),
                             {"alpha": list(alpha), "beta": list(beta),
                              "cutoff": cutoff, "degree": max_degree})


def clifford_check(tctx: TwistContext, window: int, max_degree: int) -> List[RelationResult]:
    """The three anticommutator families at the standard weight:

        {X_n(g_i), X_n'(g_j)} = 2 (-1)^n d_ij d_{n,-n'}   (same for both negated)
        {X_n(g_i), X_n'(-g_j)} = 2 d_ij d_{n,-n'}
    """
    if tctx.xi.coeffs != VirtualChar.trivial(tctx.gamma).coeffs:
        raise ValueError("the Clifford relations are certified at the standard weight only")
    k = tctx.gamma.num_classes
    one = Fraction(1)

    def instances() -> Iterator[Instance]:
        for i in range(k):
            for j in range(k):
                for flip_i, flip_j, family in ((False, False, "same_sign"),
                                               (True, True, "same_sign"),
                                               (False, True, "mixed")):
                    vi = neg(tctx.basis_vector(i)) if flip_i else tctx.basis_vector(i)
                    vj = neg(tctx.basis_vector(j)) if flip_j else tctx.basis_vector(j)
                    for n in range(-window, window + 1):
                        for npr in range(-window, window + 1):
                            la = _x_layer(tctx, n, vi)
                            lb = _x_layer(tctx, npr, vj)
                            terms: List[Term] = [(one, (la, lb)), (one, (lb, la))]
                            if i == j and n == -npr:
                                central = 2 * sign_pow(n) if family == "same_sign" else 2
                                terms.append((Fraction(-central), ()))
                            yield {"family": family, "i": i, "j": j, "neg_i": flip_i,
                                   "neg_j": flip_j, "n": n, "nprime": npr}, terms

    return [certify_instances(tctx, "clifford", instances(), tctx.fock.basis(max_degree),
                              {"window": window, "degree": max_degree})]


def _affine_families(tctx: TwistContext, index_set: Sequence[int],
                     window: int) -> List[Tuple[str, Iterator[Instance]]]:
    """The affine families on one index set, in the order they are checked."""
    gram = tctx.twist.gram
    odd = [m for m in range(-window, window + 1) if m % 2]
    one = Fraction(1)

    def xx_instances():
        for i in index_set:
            gi = tctx.basis_vector(i)
            for n in range(-window, window + 1):
                for npr in range(-window, window + 1):
                    xa = _x_layer(tctx, n, gi)
                    xb = _x_layer(tctx, npr, neg(gi))
                    terms = [(one, (xa, xb)), (-one, (xb, xa)),
                             (Fraction(-8), (_h_layer(tctx, n + npr, gi),))]
                    if n == -npr and n:
                        terms.append((Fraction(-4 * n), ()))
                    yield {"i": i, "n": n, "nprime": npr}, terms

    def serre_instances():
        for i in index_set:
            for j in index_set:
                a = gram[i][j]
                gi, gj = tctx.basis_vector(i), tctx.basis_vector(j)
                for n in range(-window, window + 1):
                    for npr in range(-window, window + 1):
                        terms: List[Term] = []
                        rng = range(a + 1) if a >= 0 else range(-a + 1)
                        for s in rng:
                            c = Fraction(comb(a, s) if a >= 0
                                         else sign_pow(s) * comb(-a, s))
                            xa = _x_layer(tctx, n + s, gi)
                            xb = _x_layer(tctx, npr - a - s, gj)
                            terms.append((c, (xa, xb)))
                            terms.append((-c, (xb, xa)))
                        name = "nonneg" if a >= 0 else "neg"
                        yield {"i": i, "j": j, "a_ij": a, "n": n, "nprime": npr,
                               "family": name}, terms

    basis = {i: tctx.basis_vector(i) for i in index_set}
    pairs = [({"i": i, "j": j}, basis[i], basis[j]) for i in index_set for j in index_set]
    return [("hh", hh_instances(tctx, index_set, window)),
            ("hx", hx_instances(tctx, pairs, odd, window)),
            ("x_parity", parity_instances(tctx, [({"i": i}, basis[i]) for i in index_set],
                                          window)),
            ("xx_central_4n", xx_instances()), ("serre", serre_instances())]


def affine_relation_check(tctx: TwistContext, index_sets: Sequence[Sequence[int]], window: int,
                          max_degree: int) -> List[List[RelationResult]]:
    """Certify the twisted affine/toroidal presentation on each index set under
    the assignment x_n(a_i) -> X_n(gamma_i), x_n(-a_i) -> eps(i,i) X_n(-gamma_i),
    h_i(m) -> a_m(gamma_i), C -> 1, h_i(even) = 0, on every basis vector of
    Fock degree <= max_degree; one result list per index set, which stops at
    its first failing family.

    Families: h-h (`hh_instances`, which the heisenberg suite shares), h-x
    (`hx_instances`) and parity (`parity_instances`), which the ope suite's
    checkers share, the x/-x bracket, and both binomial Serre families.  The
    x/-x bracket is certified in the form

        [x_n(a_i), x_{n'}(-a_i)] = 8 h_i(n+n') + 4 n delta_{n,-n'} C,

    the central coefficient realized by the construction (8{h + n delta C}
    is inconsistent with C = 1 under the h-h normalization above).

    The index sets are checked family by family, and each family's word
    blocks are cached once for all of them and dropped when it ends: an
    index set that is a subset of an earlier one builds no block of its own.
    """
    panel = tctx.fock.basis(max_degree)
    results: List[List[RelationResult]] = []
    live = []  # (results, families, pass params) of each index set past epsilon_diag
    for index_set in index_sets:
        bad = next((i for i in index_set if tctx.twist.epsilon_masks(1 << i, 1 << i) != 1),
                   None)
        if bad is not None:
            results.append([RelationResult("epsilon_diag", {"i": bad}, "fail",
                                           {"note": "epsilon(gamma_i, gamma_i) != +1"})])
            continue
        results.append([])
        live.append((results[-1], _affine_families(tctx, index_set, window), {
            "window": window, "degree": max_degree, "indices": list(index_set)}))
    for family in zip(*(families for _, families, _ in live)):
        blocks = Blocks()
        for (out, _, params), (name, instances) in zip(live, family):
            if not out or out[-1].status == "pass":
                out.append(certify_instances(tctx, name, instances, panel, params, blocks))
    for out, _, _ in live:
        if out[-1].status == "pass":
            out.append(RelationResult(
                "h_even_zero", {"note": "only odd Heisenberg generators exist; "
                                        "h_i(2n) = 0 holds structurally"}, "pass"))
    return results
