"""Twisted vertex operators on the Fock space tensored with the mod-2 lattice.

A state is a finitely supported map (lattice class mod 2, Fock monomial) ->
scalar.  Every operator on it -- the component X_m(gamma), the Heisenberg
generator a_m(gamma) and the normal-ordered product :X(alpha,z)X(beta,w): --
runs on one row engine: its Fock part is an integer row (numerators over
one denominator) per monomial, cached on the context, and its lattice part
is the cocycle `LatticeTwist.act`.  The rows are built from the two pieces
of the construction, exp(sum (2/k) a_{-k} z^k) (the q_n of `fock.q_gen`)
and exp(-sum (2/k) a_k z^-k) (the integer ladder D_j), and they are exact:
the annihilation half contributes only finitely many degrees on a
finite-degree input, which pins the creation degree, so no series
truncation is ever involved.  Apart from reading q_n and a_m off `fock`'s
vectors once per row, `Cyc` scalars enter only where a row is applied to a
`TwistedVector`.  The relation checkers certify operator identities on
every basis vector up to a degree bound and report the first witness on
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .fock import (FockContext, FockVector, Monomial, _merge, annihilate, create,
                   mono_degree, q_gen)
from .gammadata import GammaData, VirtualChar
from .lattice import LatticeTwist, vec_to_mask
from .partitions import multipartitions
from .scalars import Cyc

IntVec = Tuple[int, ...]


class TwistContext:
    """Fock context plus lattice twist for one (Gamma, xi) pair."""

    def __init__(self, gamma: GammaData, xi: VirtualChar):
        self.gamma = gamma
        self.xi = xi
        self.fock = FockContext(gamma, xi)
        self.twist = LatticeTwist(gamma, xi)
        self._lean_rows: Dict[Tuple, Tuple] = {}
        self._pair_cache: Dict[Tuple, Tuple] = {}
        self._prow_cache: Dict[IntVec, Tuple] = {}
        self._iladder_cache: Dict[Tuple, List] = {}
        self._mono_intern: Dict[Tuple, Tuple] = {}

    def basis_vector(self, i: int) -> IntVec:
        return tuple(1 if t == i else 0 for t in range(self.gamma.num_classes))

    def pairing(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        g = self.twist.gram
        k = self.gamma.num_classes
        return sum(alpha[i] * g[i][j] * beta[j] for i in range(k) for j in range(k))


class TwistedVector:
    """Finitely supported map (coset mask, monomial) -> scalar."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: TwistContext,
                 terms: Optional[Dict[Tuple[int, Monomial], Cyc]] = None):
        self.ctx = ctx
        self.terms: Dict[Tuple[int, Monomial], Cyc] = {}
        if terms:
            for key, c in terms.items():
                c = Cyc.lift(c)
                if not c.is_zero():
                    self.terms[key] = c

    @staticmethod
    def vacuum(ctx: TwistContext, mask: int = 0) -> "TwistedVector":
        return TwistedVector(ctx, {(mask, ()): Cyc.rational(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TwistedVector") -> "TwistedVector":
        out = dict(self.terms)
        for k, c in other.terms.items():
            cur = out.get(k)
            val = c if cur is None else cur + c
            if val.is_zero():
                out.pop(k, None)
            else:
                out[k] = val
        v = TwistedVector(self.ctx)
        v.terms = out
        return v

    def __sub__(self, other: "TwistedVector") -> "TwistedVector":
        return self + other.scale(-1)

    def scale(self, c) -> "TwistedVector":
        c = Cyc.lift(c)
        if c.is_zero():
            return TwistedVector(self.ctx)
        v = TwistedVector(self.ctx)
        v.terms = {k: x * c for k, x in self.terms.items()}
        return v

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedVector):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        zero = Cyc.rational(0)
        return all(self.terms.get(k, zero) == other.terms.get(k, zero) for k in keys)

    def fock_part(self, mask: int = 0) -> FockVector:
        v = FockVector(self.ctx.fock)
        for (b, mono), c in self.terms.items():
            if b == mask:
                v.terms[mono] = c
        return v

    def cosets(self) -> List[int]:
        return sorted({b for b, _ in self.terms})

    def max_degree(self) -> int:
        return max((mono_degree(m) for _, m in self.terms), default=0)

    def __repr__(self) -> str:
        return f"TwistedVector({self.terms!r})"


# -- the row engine ----------------------------------------------------------------
#
# The vertex algebra is rational and X components carry integer character
# vectors, so every operator row is rational with small denominators.  A row
# is (denominator, ((monomial, integer numerator), ...)); a layer names the
# operator:
#
#     ("X", m, coeffs, mask)             X_m(gamma)
#     ("H", m, coeffs, 0)                a_m(gamma)
#     ("N", a, b, alpha, beta, mask)     coefficient of z^-a w^-b in :X(alpha,z)X(beta,w):
#
# `_lean_row` is the one cached way to get a layer's row on a monomial, and
# `_apply_rows` applies a layer to a `TwistedVector`, the only place where a
# row meets `Cyc` scalars.

IDict = Dict[Monomial, int]
LeanRow = Tuple[int, Tuple[Tuple[Monomial, int], ...]]  # (denominator, entries)
Layer = Tuple
XLayer = Tuple[str, int, IntVec, int]  # an X or H layer


def _intern_mono(tctx: TwistContext, mono: Monomial) -> Monomial:
    return tctx._mono_intern.setdefault(mono, mono)


def _prow(tctx: TwistContext, coeffs: IntVec) -> Tuple[int, Tuple[int, ...]]:
    """<coeffs, gamma_j>_xi as integers over a common denominator."""
    cached = tctx._prow_cache.get(coeffs)
    if cached is None:
        gram = tctx.fock.gram
        k = tctx.gamma.num_classes
        vals = [sum(coeffs[i] * gram[i][j] for i in range(k)) for j in range(k)]
        den = 1
        for v in vals:
            den = lcm(den, v.denominator)
        cached = (den, tuple(int(v * den) for v in vals))
        tctx._prow_cache[coeffs] = cached
    return cached


def _ilean_annihilate(tctx: TwistContext, den: int, vec: Iterable[Tuple[Monomial, int]],
                      n: int, coeffs: IntVec) -> Tuple[int, Iterable[Tuple[Monomial, int]]]:
    pden, prow = _prow(tctx, coeffs)
    out: IDict = {}
    for mono, num in vec:
        seen = None
        for pos, (deg, idx) in enumerate(mono):
            if deg != n:
                continue
            if seen is None:
                seen = set()
            if idx in seen:
                continue
            seen.add(idx)
            if not prow[idx]:
                continue
            mult = 0
            for f in mono:
                if f == (deg, idx):
                    mult += 1
            val = num * n * mult * prow[idx]
            mm = mono[:pos] + mono[pos + 1:]
            out[mm] = out.get(mm, 0) + val
    return den * 2 * pden, out.items()


def _normalize_ivec(den: int, vec: IDict) -> Tuple[int, IDict]:
    if not vec:
        return 1, {}
    g = den
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            return den, vec
    if g > 1:
        den //= g
        vec = {k: v // g for k, v in vec.items()}
    return den, vec


def _sum_rows(parts: Sequence[Tuple[int, int, Iterable[Tuple[Monomial, int]]]],
              scale: int = 1) -> LeanRow:
    """sum f * entries / d over the parts (f, d, entries), divided by `scale`,
    as a row over its least denominator."""
    den = 1
    for _, d, _ in parts:
        den = lcm(den, d)
    acc: IDict = {}
    for f, d, entries in parts:
        f *= den // d
        for mono, num in entries:
            acc[mono] = acc.get(mono, 0) + f * num
    den, acc = _normalize_ivec(den * scale, {mo: v for mo, v in acc.items() if v})
    return den, tuple(sorted(acc.items()))


def _ilean_ladder(tctx: TwistContext, coeffs: IntVec, mono: Monomial) -> List[LeanRow]:
    """D_j of exp(-sum (2/k) a_k z^-k) applied to mono: j D_j = sum_k -2 a_k D_{j-k}."""
    key = (coeffs, mono)
    cached = tctx._iladder_cache.get(key)
    if cached is not None:
        return cached
    ladder: List[LeanRow] = [(1, ((mono, 1),))]
    for j in range(1, mono_degree(mono) + 1):
        ladder.append(_sum_rows([(-2,) + _ilean_annihilate(tctx, *ladder[j - k], k, coeffs)
                                 for k in range(1, j + 1, 2)], j))
    tctx._iladder_cache[key] = ladder
    return ladder


def _lean_from_fock(vec: FockVector) -> LeanRow:
    entries = []
    den = 1
    for mono, c in vec.terms.items():
        q = c.as_rational()
        if q is None:
            raise ValueError("non-rational coefficient in a rational sweep")
        entries.append((mono, q))
        den = lcm(den, q.denominator)
    return den, tuple((mono, int(q * den)) for mono, q in entries)


def _q_parts(tctx: TwistContext, n: int, coeffs: IntVec, num: int, den: int,
             entries: Iterable[Tuple[Monomial, int]]) -> List[Tuple]:
    """The `_sum_rows` parts of (num/den) q_n(coeffs) * entries.

    q_n is `fock.q_gen`, read once per (n, coeffs) as a row cached beside the
    operator rows."""
    key = ("Q", n, coeffs)
    q = tctx._lean_rows.get(key)
    if q is None:
        q = tctx._lean_rows[key] = _lean_from_fock(q_gen(tctx.fock, n, coeffs))
    dq, qvec = q
    return [(num * nq, den * dq, [(_merge(mq, mo), e) for mo, e in entries])
            for mq, nq in qvec]


def _x_row_int(tctx: TwistContext, m: int, coeffs: IntVec, mono: Monomial) -> LeanRow:
    """The X_m(gamma) row on one monomial: sum_j q_{j-m}(gamma) D_j(gamma) mono."""
    ladder = _ilean_ladder(tctx, coeffs, mono)
    parts: List[Tuple] = []
    for j in range(max(0, m), len(ladder)):
        parts += _q_parts(tctx, j - m, coeffs, 1, *ladder[j])
    return _sum_rows(parts)


def _n_row(tctx: TwistContext, a: int, b: int, alpha: IntVec, beta: IntVec,
           mono: Monomial) -> LeanRow:
    """The z^-a w^-b row of :X(alpha,z)X(beta,w): on one monomial,
    sum q_{j1-a}(alpha) q_{j2-b}(beta) D_{j1}(alpha) D_{j2}(beta) mono; the
    alpha half, summed over j1, is the X_a(alpha) row."""
    xa = _x_layer(tctx, a, alpha)
    ladder = _ilean_ladder(tctx, beta, mono)
    parts: List[Tuple] = []
    for j2 in range(max(0, b), len(ladder)):
        d2, entries = ladder[j2]
        for mo, num in entries:
            dx, xrow = _lean_row(tctx, xa, mo)
            parts += _q_parts(tctx, j2 - b, beta, num, d2 * dx, xrow)
    return _sum_rows(parts)


def _lean_row(tctx: TwistContext, layer: Layer, mono: Monomial) -> LeanRow:
    """The layer's row on one monomial, without the lattice sign; cached."""
    key = (layer, mono)
    cached = tctx._lean_rows.get(key)
    if cached is not None:
        return cached
    kind, m = layer[0], layer[1]
    if kind == "X":
        den, entries = _x_row_int(tctx, m, layer[2], mono)
    elif kind == "N":
        den, entries = _n_row(tctx, m, *layer[2:5], mono)
    elif m % 2 == 0:
        den, entries = 1, ()
    else:
        base = FockVector(tctx.fock, {mono: Cyc.rational(1)})
        vec = annihilate(base, m, layer[2]) if m > 0 else create(base, -m, layer[2])
        den, entries = _lean_from_fock(vec)
    row = (den, tuple((_intern_mono(tctx, mo), num) for mo, num in entries))
    tctx._lean_rows[key] = row
    return row


def _apply_rows(tctx: TwistContext, layer: Layer, v: TwistedVector) -> TwistedVector:
    """A layer applied to v: on (b, mono) it is the cocycle sign times the
    row on mono, moved to b + mask."""
    mask = layer[-1]
    out: Dict[Tuple[int, Monomial], Cyc] = {}
    for (b, mono), c in v.terms.items():
        sign, b2 = tctx.twist.act(mask, b)
        den, entries = _lean_row(tctx, layer, mono)
        for mono2, num in entries:
            key = (b2, mono2)
            val = c * Cyc.rational(Fraction(sign * num, den))
            cur = out.get(key)
            out[key] = val if cur is None else cur + val
    w = TwistedVector(tctx)
    w.terms = {key: c for key, c in out.items() if not c.is_zero()}
    return w


def _x_layer(tctx: TwistContext, m: int, coeffs: Sequence[int]) -> XLayer:
    vec = tuple(int(c) for c in coeffs)
    return ("X", m, vec, vec_to_mask(vec))


def _h_layer(tctx: TwistContext, m: int, i: int) -> XLayer:
    return ("H", m, tctx.basis_vector(i), 0)


def x_component(tctx: TwistContext, m: int, gamma_vec: Sequence[int],
                v: TwistedVector) -> TwistedVector:
    """Coefficient of z^{-m} in X(gamma, z) applied to v."""
    return _apply_rows(tctx, _x_layer(tctx, m, gamma_vec), v)


def heis_component(tctx: TwistContext, m: int, gamma_vec: Sequence[int],
                   v: TwistedVector) -> TwistedVector:
    """a_m(gamma) on the twisted space; zero for even m (only odd generators)."""
    return _apply_rows(tctx, ("H", m, tuple(int(c) for c in gamma_vec), 0), v)


def normal_ordered_component(tctx: TwistContext, a: int, b: int,
                             alpha: Sequence[int], beta: Sequence[int],
                             v: TwistedVector) -> TwistedVector:
    """Coefficient of z^-a w^-b in :X(alpha,z) X(beta,w): applied to v."""
    av = tuple(int(c) for c in alpha)
    bv = tuple(int(c) for c in beta)
    mask = vec_to_mask(tuple(x + y for x, y in zip(av, bv)))
    return _apply_rows(tctx, ("N", a, b, av, bv, mask), v)


Operator = Callable[[TwistedVector], TwistedVector]


def X(tctx: TwistContext, m: int, gamma_vec: Sequence[int]) -> Operator:
    vec = tuple(int(c) for c in gamma_vec)
    return lambda v: x_component(tctx, m, vec, v)


def H(tctx: TwistContext, m: int, i: int) -> Operator:
    vec = tctx.basis_vector(i)
    return lambda v: heis_component(tctx, m, vec, v)


def commutator(a: Operator, b: Operator, v: TwistedVector) -> TwistedVector:
    return a(b(v)) - b(a(v))


def anticommutator(a: Operator, b: Operator, v: TwistedVector) -> TwistedVector:
    return a(b(v)) + b(a(v))


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


def _panel_monomials(tctx: TwistContext, max_degree: int) -> List[Monomial]:
    """All Fock monomials of degree <= max_degree."""
    k = tctx.gamma.num_classes
    out: List[Monomial] = []
    for d in range(max_degree + 1):
        for mp in multipartitions(d, k, "OP"):
            factors: List[Tuple[int, int]] = []
            for i, part in enumerate(mp.parts):
                factors.extend((n, i) for n in part)
            out.append(tuple(sorted(factors)))
    return out


def _basis_panel(tctx: TwistContext, max_degree: int) -> List[TwistedVector]:
    """The basis vectors (0, mono) of Fock degree <= max_degree.

    The operators reach the lattice factor only through `LatticeTwist.act`,
    so on (b, mono) a relation's two sides are epsilon(shift, b) times their
    values on (0, mono), moved to b + shift; coset 0 certifies every coset.
    """
    return [TwistedVector(tctx, {(0, mono): Cyc.rational(1)})
            for mono in _panel_monomials(tctx, max_degree)]


def _witness(v: TwistedVector, extra: dict) -> dict:
    doc = dict(extra)
    items = sorted(v.terms.items())[:3]
    doc["difference"] = [
        {"coset": b, "mono": list(map(list, mono)), "coeff": c.to_doc()}
        for (b, mono), c in items
    ]
    return doc


def x_parity_check(tctx: TwistContext, gamma_vec: Sequence[int], m_window: int,
                   max_degree: int) -> RelationResult:
    """X_m(-gamma) = (-1)^m X_m(gamma) on all basis vectors."""
    panel = _basis_panel(tctx, max_degree)
    gneg = neg(gamma_vec)
    for m in range(-m_window, m_window + 1):
        for v in panel:
            lhs = x_component(tctx, m, gneg, v)
            rhs = x_component(tctx, m, gamma_vec, v).scale(sign_pow(m))
            if lhs != rhs:
                return RelationResult("x_parity", {"gamma": list(gamma_vec), "m": m},
                                      "fail", _witness(lhs - rhs, {"vector": repr(v)}))
    return RelationResult("x_parity", {"gamma": list(gamma_vec), "window": m_window,
                                       "degree": max_degree}, "pass")


def prim_commutator_check(tctx: TwistContext, alpha: Sequence[int], beta: Sequence[int],
                          n: int, m_window: int, max_degree: int) -> RelationResult:
    """[a_n(alpha), X_m(beta)] = <alpha,beta>_xi X_{m+n}(beta)."""
    if n % 2 == 0:
        raise ValueError("Heisenberg index must be odd")
    pairing = tctx.pairing(alpha, beta)
    panel = _basis_panel(tctx, max_degree)
    a_op = lambda v: heis_component(tctx, n, alpha, v)
    for m in range(-m_window, m_window + 1):
        x_op = X(tctx, m, beta)
        for v in panel:
            lhs = commutator(a_op, x_op, v)
            rhs = x_component(tctx, m + n, beta, v).scale(pairing)
            if lhs != rhs:
                return RelationResult(
                    "prim_commutator", {"alpha": list(alpha), "beta": list(beta),
                                        "n": n, "m": m},
                    "fail", _witness(lhs - rhs, {"vector": repr(v)}))
    return RelationResult("prim_commutator",
                          {"alpha": list(alpha), "beta": list(beta), "n": n,
                           "window": m_window, "degree": max_degree}, "pass")


def _ratio_series(kappa: int, nterms: int) -> List[Fraction]:
    """Power series of ((1-u)/(1+u))^kappa in u, exact, expansion in u = w/z."""
    def poly_pow(base: List[int], e: int) -> List[Fraction]:
        out = [Fraction(1)]
        for _ in range(e):
            nxt = [Fraction(0)] * min(len(out) + 1, nterms + 1)
            for i, c in enumerate(out):
                for j, b in enumerate(base):
                    if i + j <= nterms:
                        nxt[i + j] += c * b
            out = nxt
        return out

    def series_inv(f: List[Fraction]) -> List[Fraction]:
        # 1/f with f[0] = 1
        out = [Fraction(1)] + [Fraction(0)] * nterms
        for i in range(1, nterms + 1):
            acc = Fraction(0)
            for j in range(1, min(i, len(f) - 1) + 1):
                acc += f[j] * out[i - j]
            out[i] = -acc
        return out

    def mul(f: List[Fraction], g: List[Fraction]) -> List[Fraction]:
        out = [Fraction(0)] * (nterms + 1)
        for i, c in enumerate(f[:nterms + 1]):
            if c:
                for j, b in enumerate(g[:nterms + 1 - i]):
                    if b:
                        out[i + j] += c * b
        return out

    e = abs(kappa)
    num = poly_pow([1, -1], e)
    den = poly_pow([1, 1], e)
    if kappa >= 0:
        return mul(num, series_inv(den))
    return mul(den, series_inv(num))


def ope_check(tctx: TwistContext, alpha: Sequence[int], beta: Sequence[int],
              cutoff: int, max_degree: int) -> RelationResult:
    """X(alpha,z)X(beta,w) = eps(alpha,beta) :XX: ((z-w)/(z+w))^<alpha,beta>,
    coefficients compared for |m|, |m'| <= cutoff on the basis panel."""
    kappa = tctx.pairing(alpha, beta)
    eps = tctx.twist.epsilon(alpha, beta)
    panel = _basis_panel(tctx, max_degree)
    series = _ratio_series(kappa, max_degree + 2 * cutoff + 2)
    for m in range(-cutoff, cutoff + 1):
        for mp in range(-cutoff, cutoff + 1):
            for v in panel:
                lhs = x_component(tctx, m, alpha, x_component(tctx, mp, beta, v))
                rhs = TwistedVector(tctx)
                tmax = v.max_degree() - mp
                for t in range(0, tmax + 1):
                    if t >= len(series) or not series[t]:
                        continue
                    term = normal_ordered_component(tctx, m - t, mp + t, alpha, beta, v)
                    rhs = rhs + term.scale(series[t])
                rhs = rhs.scale(eps)
                if lhs != rhs:
                    return RelationResult(
                        "ope", {"alpha": list(alpha), "beta": list(beta),
                                "m": m, "mprime": mp},
                        "fail", _witness(lhs - rhs, {"vector": repr(v)}))
    return RelationResult("ope", {"alpha": list(alpha), "beta": list(beta),
                                  "cutoff": cutoff, "degree": max_degree}, "pass")


# -- lean instance engine for the heavy operator sweeps --------------------------
#
# Every checker below certifies identities of the shape
#
#     sum_t coef_t * Op_{t,1} Op_{t,2} ... (v) = 0
#
# where each Op is an X component or a Heisenberg generator.  On a basis
# vector (b, mono) the Fock part of each term is independent of the lattice
# class b: an X layer multiplies by epsilon(mask, cur) and moves cur to
# cur + mask, a Heisenberg layer leaves cur alone.  Since epsilon is
# bi-additive, epsilon(mask, b + s) = epsilon(mask, b) epsilon(mask, s), so a
# term whose masks add up to `shift` has the sign epsilon(shift, b) c_t on
# (b, mono), where c_t is its sign chain on (0, mono), and lands on
# b + shift.  Terms of different shifts land on different cosets; terms of
# one shift share the factor epsilon(shift, b).  So the identity holds on
# every (coset, monomial) basis vector exactly when, for every shift,
# sum c_t coef_t Fock_t(mono) = 0: one check on coset 0 covers them all.
# The Fock parts are the layers' rows (`_lean_row`) composed per monomial.

def _apply_term(tctx: TwistContext, layers: Tuple[XLayer, ...], mono: Monomial) -> LeanRow:
    """The row of the composed layers on one monomial; cached."""
    if not layers:
        return 1, ((mono, 1),)
    if len(layers) == 1:
        return _lean_row(tctx, layers[0], mono)
    key = (layers, mono)
    cached = tctx._pair_cache.get(key)
    if cached is not None:
        return cached
    den0, entries0 = _apply_term(tctx, layers[1:], mono)
    result = _sum_rows([(num,) + _lean_row(tctx, layers[0], mo) for mo, num in entries0], den0)
    tctx._pair_cache[key] = result
    return result


def _term_sign(tctx: TwistContext, layers: Tuple[XLayer, ...]) -> Tuple[int, int]:
    """A term's shift (the sum of its X masks) and its exact +-1 cocycle
    sign chain on coset 0."""
    sign = 1
    cur = 0
    for kind, _, _, mask in reversed(layers):
        if kind == "X" and mask:
            sign *= tctx.twist.epsilon_masks(mask, cur)
            cur ^= mask
    return cur, sign


Term = Tuple[Fraction, Tuple[XLayer, ...]]


def _check_instance(tctx: TwistContext, terms: Sequence[Term],
                    monos: Sequence[Monomial]) -> Optional[dict]:
    """Verify sum_t coef_t * term_t = 0 on every (coset, monomial) basis vector.

    By the bi-additivity of epsilon (see above) this is, for each monomial
    and each shift, sum c_t coef_t term_t = 0 on coset 0, where c_t is the
    term's sign chain there.  Returns None on success, else a witness
    document naming coset 0.
    """
    prepared = []  # (shift, signed coef, layers)
    for coef, layers in terms:
        shift, sign = _term_sign(tctx, layers)
        prepared.append((shift, sign * coef, layers))

    for mono in monos:
        dens: Dict[int, int] = {}
        vecs = []
        for shift, coef, layers in prepared:
            den, entries = _apply_term(tctx, layers, mono)
            if not entries:
                continue
            vecs.append((shift, coef, den, entries))
            dens[shift] = lcm(dens.get(shift, 1), den * coef.denominator)
        by_shift: Dict[int, Dict[Monomial, int]] = {}
        for shift, coef, den, entries in vecs:
            scale = coef.numerator * (dens[shift] // (den * coef.denominator))
            acc = by_shift.setdefault(shift, {})
            for mo, num in entries:
                val = acc.get(mo, 0) + scale * num
                if val:
                    acc[mo] = val
                else:
                    acc.pop(mo, None)
        for shift, bad in by_shift.items():
            if not bad:
                continue
            worst = sorted(bad.items())[:3]
            return {"coset": 0, "mono": list(map(list, mono)),
                    "residual": [[list(map(list, mo)), f"{q}/{dens[shift]}"]
                                 for mo, q in worst]}
    return None


def clifford_check(tctx: TwistContext, window: int, max_degree: int) -> List[RelationResult]:
    """The three anticommutator families at the standard weight:

        {X_n(g_i), X_n'(g_j)} = 2 (-1)^n d_ij d_{n,-n'}   (same for both negated)
        {X_n(g_i), X_n'(-g_j)} = 2 d_ij d_{n,-n'}
    """
    if tctx.xi.coeffs != VirtualChar.trivial(tctx.gamma).coeffs:
        raise ValueError("the Clifford relations are certified at the standard weight only")
    k = tctx.gamma.num_classes
    monos = _panel_monomials(tctx, max_degree)
    results: List[RelationResult] = []
    one = Fraction(1)
    for i in range(k):
        for j in range(k):
            for flip_i, flip_j, signed in ((False, False, True), (True, True, True),
                                           (False, True, False)):
                vi = neg(tctx.basis_vector(i)) if flip_i else tctx.basis_vector(i)
                vj = neg(tctx.basis_vector(j)) if flip_j else tctx.basis_vector(j)
                for n in range(-window, window + 1):
                    for npr in range(-window, window + 1):
                        la = _x_layer(tctx, n, vi)
                        lb = _x_layer(tctx, npr, vj)
                        coef = 0
                        if i == j and n == -npr:
                            coef = 2 * sign_pow(n) if signed else 2
                        terms: List[Term] = [(one, (la, lb)), (one, (lb, la))]
                        if coef:
                            terms.append((Fraction(-coef), ()))
                        witness = _check_instance(tctx, terms, monos)
                        if witness is not None:
                            name = "clifford_same_sign" if signed else "clifford_mixed"
                            witness.update({"i": i, "j": j, "neg_i": flip_i, "neg_j": flip_j})
                            results.append(RelationResult(
                                name, {"n": n, "nprime": npr}, "fail", witness))
                            return results
    results.append(RelationResult("clifford", {"window": window, "degree": max_degree},
                                  "pass"))
    return results


def certify_instances(tctx: TwistContext, name: str,
                      instances: Iterable[Tuple[dict, List[Term]]],
                      monos: Sequence[Monomial], pass_params: dict) -> RelationResult:
    """The family `name` on the monomials: a "fail" result with the first
    failing instance's params and witness, else "pass" with pass_params."""
    for params, terms in instances:
        witness = _check_instance(tctx, terms, monos)
        if witness is not None:
            return RelationResult(name, params, "fail", witness)
    return RelationResult(name, pass_params, "pass")


def hh_instances(tctx: TwistContext, index_set: Sequence[int],
                 window: int) -> Iterator[Tuple[dict, List[Term]]]:
    """The Heisenberg relations [a_m(g_i), a_m'(g_j)] = (m/2) d_{m,-m'} <g_i, g_j>_xi
    for i, j in index_set and odd m, m' in [-window, window], as `_check_instance`
    terms; shared by the heisenberg suite and the `hh` family below."""
    gram = tctx.twist.gram
    odd = [m for m in range(-window, window + 1) if m % 2]
    one = Fraction(1)
    for i in index_set:
        for j in index_set:
            for m in odd:
                for mp in odd:
                    hi, hj = _h_layer(tctx, m, i), _h_layer(tctx, mp, j)
                    terms = [(one, (hi, hj)), (-one, (hj, hi))]
                    if m == -mp and gram[i][j]:
                        terms.append((-Fraction(m, 2) * gram[i][j], ()))
                    yield {"i": i, "j": j, "m": m, "mprime": mp}, terms


def affine_relation_check(tctx: TwistContext, index_set: Sequence[int], window: int,
                          max_degree: int) -> List[RelationResult]:
    """Certify the twisted affine/toroidal presentation under the assignment
    x_n(a_i) -> X_n(gamma_i), x_n(-a_i) -> eps(i,i) X_n(-gamma_i), h_i(m) -> a_m(gamma_i),
    C -> 1, h_i(even) = 0, on every basis vector of Fock degree <= max_degree.

    Families: h-h (`hh_instances`, which the heisenberg suite shares), h-x,
    parity, the x/-x bracket, and both binomial Serre families.  The x/-x
    bracket is certified in the form

        [x_n(a_i), x_{n'}(-a_i)] = 8 h_i(n+n') + 4 n delta_{n,-n'} C,

    the central coefficient realized by the construction (8{h + n delta C}
    is inconsistent with C = 1 under the h-h normalization above).
    """
    results: List[RelationResult] = []
    gram = tctx.twist.gram
    monos = _panel_monomials(tctx, max_degree)
    odd = [m for m in range(-window, window + 1) if m % 2]
    one = Fraction(1)

    for i in index_set:
        if tctx.twist.epsilon_masks(1 << i, 1 << i) != 1:
            return [RelationResult("epsilon_diag", {"i": i}, "fail",
                                   {"note": "epsilon(gamma_i, gamma_i) != +1"})]

    def hx_instances():
        for i in index_set:
            for j in index_set:
                gj = tctx.basis_vector(j)
                for n in odd:
                    for m in range(-window, window + 1):
                        hi = _h_layer(tctx, n, i)
                        xm = _x_layer(tctx, m, gj)
                        terms = [(one, (hi, xm)), (-one, (xm, hi))]
                        if gram[i][j]:
                            terms.append((Fraction(-gram[i][j]), (_x_layer(tctx, n + m, gj),)))
                        yield {"i": i, "j": j, "n": n, "m": m}, terms

    def parity_instances():
        for i in index_set:
            gi = tctx.basis_vector(i)
            for n in range(-window, window + 1):
                terms = [(one, (_x_layer(tctx, n, gi),)),
                         (Fraction(-sign_pow(n)), (_x_layer(tctx, n, neg(gi)),))]
                yield {"i": i, "n": n}, terms

    def xx_instances():
        for i in index_set:
            gi = tctx.basis_vector(i)
            for n in range(-window, window + 1):
                for npr in range(-window, window + 1):
                    xa = _x_layer(tctx, n, gi)
                    xb = _x_layer(tctx, npr, neg(gi))
                    terms = [(one, (xa, xb)), (-one, (xb, xa)),
                             (Fraction(-8), (_h_layer(tctx, n + npr, i),))]
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

    for name, instances in (("hh", hh_instances(tctx, index_set, window)),
                            ("hx", hx_instances()), ("x_parity", parity_instances()),
                            ("xx_central_4n", xx_instances()), ("serre", serre_instances())):
        results.append(certify_instances(tctx, name, instances, monos, {
            "window": window, "degree": max_degree, "indices": list(index_set)}))
        if results[-1].status == "fail":
            return results
        tctx._pair_cache.clear()
    results.append(RelationResult(
        "h_even_zero", {"note": "only odd Heisenberg generators exist; "
                                "h_i(2n) = 0 holds structurally"}, "pass"))
    return results
