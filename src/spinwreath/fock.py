"""The Fock space: symmetric algebra on odd-degree creation generators.

Monomials are sorted tuples of (n, char_index) with n odd positive; a vector
is a finitely supported map monomial -> scalar.  Annihilation acts as a
derivation with the commutator normalization

    [a_m(gamma), a_n(gamma')] = (m/2) delta_{m,-n} <gamma, gamma'>_xi,

which pins the m/2 factor so the inner product of single generators is
(n/2) times the weighted Gram matrix.  The bilinear form is computed by
normal ordering annihilators, never by a closed matching formula.

Normal ordering a_n(gamma_i) against a monomial kills one factor (n, j) with
weight gram[i][j], so <mu, mv> vanishes unless each factor (n, i) of mu can
be matched with its own factor (n, j) of mv with gram[i][j] != 0.  The
monomials mv that admit such a matching are the partners of mu
(`_partners`); `inner` and `tensor_inner` value only the partners present in
the other vector, each pair by normal ordering.  At a diagonal Gram matrix,
such as the standard weight, a monomial's only partner is itself.  A pair's
value is rational, because the Gram matrix is integer, and is cached as a
`Fraction` whose denominator divides 2^(length of mu).

The character table's two hot paths run on integers, with `Cyc` only at
their edges.  `a_prime_vector` expands a'_{-rho} on integer numerator arrays
mod z^N - 1, N the lcm of the orders of Gamma's character values
(`GammaData.value_numerators`), and reduces each monomial's coefficient mod
Phi_N once.  A pairing reads each vector's coefficients as integer
numerators over one denominator, derived once per vector (`FockVector.
_numerators`), sums the pair products on an integer array and builds one
`Cyc` per call.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .gammadata import GammaData, VirtualChar, gram_matrix
from .partitions import MultiPartition
from .scalars import Cyc, cyc_from_numerators, integer_terms

Monomial = Tuple[Tuple[int, int], ...]  # sorted ((n, char_index), ...)
CoeffLike = Union[int, Fraction, Cyc]


class FockContext:
    """Shared state: the group, the weight xi, the integer Gram matrix and
    its nonzero pattern."""

    def __init__(self, gamma: GammaData, xi: VirtualChar):
        self.gamma = gamma
        self.xi = xi
        self.gram = gram_matrix(gamma, xi)
        k = gamma.num_classes
        # links[i]: the irreducibles gamma_j with gram[i][j] != 0
        self.links = [[j for j in range(k) if self.gram[i][j]] for i in range(k)]
        self._q_cache: Dict[Tuple[Tuple[Fraction, ...], int], "FockVector"] = {}
        self._inner_cache: Dict[Tuple[Monomial, Monomial], Fraction] = {}
        self._partner_cache: Dict[Monomial, List[Monomial]] = {}
        self._row_cache: Dict[Tuple, List[Cyc]] = {}
        self._a_prime_bar: Dict[MultiPartition, "FockVector"] = {}  # rho -> a'_{-rho_bar}

    def pair_row(self, coeffs: Sequence[CoeffLike]) -> List[Cyc]:
        """<coeffs, gamma_j>_xi for each j, as scalars."""
        key = _coeff_key(coeffs)
        cached = self._row_cache.get(key)
        if cached is not None:
            return cached
        k = self.gamma.num_classes
        out = []
        for j in range(k):
            total = Cyc.rational(0)
            for i, c in enumerate(coeffs):
                c = Cyc.lift(c)
                if not c.is_zero() and self.gram[i][j]:
                    total = total + c * self.gram[i][j]
            out.append(total)
        self._row_cache[key] = out
        return out


def _sorted_insert(mono: Monomial, factor: Tuple[int, int]) -> Monomial:
    out = list(mono)
    lo = 0
    while lo < len(out) and out[lo] < factor:
        lo += 1
    out.insert(lo, factor)
    return tuple(out)


def _merge(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


def mono_degree(mono: Monomial) -> int:
    return sum(n for n, _ in mono)


class FockVector:
    """Finitely supported scalar combination of Fock monomials.

    A vector is never mutated after construction: every operation returns a
    new vector.  So the integer numerators of its coefficients, which a
    pairing derives on first use, are kept with it (`_numerators`)."""

    __slots__ = ("ctx", "terms", "_nums")

    def __init__(self, ctx: FockContext, terms: Optional[Dict[Monomial, Cyc]] = None):
        self.ctx = ctx
        self._nums = None
        self.terms: Dict[Monomial, Cyc] = {}
        if terms:
            for m, c in terms.items():
                c = Cyc.lift(c)
                if not c.is_zero():
                    self.terms[m] = c

    @staticmethod
    def vacuum(ctx: FockContext) -> "FockVector":
        return FockVector(ctx, {(): Cyc.rational(1)})

    @staticmethod
    def zero(ctx: FockContext) -> "FockVector":
        return FockVector(ctx)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_ctx(self, other: "FockVector") -> None:
        if self.ctx is not other.ctx:
            raise ValueError("FockVector context mismatch")

    def __add__(self, other: "FockVector") -> "FockVector":
        self._check_ctx(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            cur = out.get(m)
            val = c if cur is None else cur + c
            if val.is_zero():
                out.pop(m, None)
            else:
                out[m] = val
        v = FockVector(self.ctx)
        v.terms = out
        return v

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, c: CoeffLike) -> "FockVector":
        c = Cyc.lift(c)
        if c.is_zero():
            return FockVector.zero(self.ctx)
        v = FockVector(self.ctx)
        v.terms = {m: x * c for m, x in self.terms.items()}
        return v

    def __mul__(self, other: "FockVector") -> "FockVector":
        """Product in the symmetric algebra."""
        self._check_ctx(other)
        out: Dict[Monomial, Cyc] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _merge(ma, mb)
                c = ca * cb
                cur = out.get(m)
                val = c if cur is None else cur + c
                if val.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = val
        v = FockVector(self.ctx)
        v.terms = out
        return v

    def _numerators(self) -> Tuple[int, int, int, Dict]:
        """(axis, den, top, nums): `scalars.integer_terms` of the coefficients, and
        top the largest monomial length, so 2^top clears the denominator of
        every pair value with a monomial of this vector."""
        if self._nums is None:
            axis, den, nums = integer_terms(self.terms)
            self._nums = (axis, den, max(map(len, self.terms), default=0), nums)
        return self._nums

    def vacuum_coeff(self) -> Cyc:
        return self.terms.get((), Cyc.rational(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        zero = Cyc.rational(0)
        return all(self.terms.get(k, zero) == other.terms.get(k, zero) for k in keys)

    def __repr__(self) -> str:
        if not self.terms:
            return "FockVector(0)"
        bits = [f"{c!r}*{m}" for m, c in sorted(self.terms.items())]
        return "FockVector(" + " + ".join(bits) + ")"


def _require_odd_positive(n: int) -> None:
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"generator degree must be odd positive, got {n}")


def create(v: FockVector, n: int, coeffs: Sequence[CoeffLike]) -> FockVector:
    """Multiplication by a_{-n}(gamma) for gamma = sum coeffs[i] gamma_i."""
    _require_odd_positive(n)
    out: Dict[Monomial, Cyc] = {}
    for i, ci in enumerate(coeffs):
        ci = Cyc.lift(ci)
        if ci.is_zero():
            continue
        for m, c in v.terms.items():
            mm = _sorted_insert(m, (n, i))
            val = c * ci
            cur = out.get(mm)
            val = val if cur is None else cur + val
            if val.is_zero():
                out.pop(mm, None)
            else:
                out[mm] = val
    res = FockVector(v.ctx)
    res.terms = out
    return res


def annihilate(v: FockVector, n: int, coeffs: Sequence[CoeffLike]) -> FockVector:
    """The derivation a_n(gamma), n odd positive, with the (n/2) factor."""
    _require_odd_positive(n)
    row = v.ctx.pair_row(coeffs)
    half_n = Fraction(n, 2)
    out: Dict[Monomial, Cyc] = {}
    for m, c in v.terms.items():
        seen = set()
        for pos, (deg, idx) in enumerate(m):
            if deg != n or (deg, idx) in seen:
                continue
            seen.add((deg, idx))
            mult = sum(1 for f in m if f == (deg, idx))
            coeff = row[idx]
            if coeff.is_zero():
                continue
            val = c * coeff * (half_n * mult)
            mm = m[:pos] + m[pos + 1:]
            cur = out.get(mm)
            val = val if cur is None else cur + val
            if val.is_zero():
                out.pop(mm, None)
            else:
                out[mm] = val
    res = FockVector(v.ctx)
    res.terms = out
    return res


def class_vector(ctx: FockContext, ci: int) -> List[Cyc]:
    """Test oracle: coefficients of the class-basis generator
    a_m(c) = sum gamma(c^{-1}) a_m(gamma), which `a_prime_vector` reads as
    integer numerators; the tests expand a'_{-rho} with `create` on these."""
    inv = ctx.gamma.dual_class(ci)
    return [ctx.gamma.chars[i][inv] for i in range(ctx.gamma.num_classes)]


def a_prime_vector(ctx: FockContext, rho: MultiPartition) -> FockVector:
    """a'_{-rho} = prod_c a_{-rho(c)}(c), expanded in the monomial basis.

    Each class generator a_{-r}(c) = sum_i gamma_i(c^{-1}) a_{-r}(gamma_i)
    has its coefficients read as integer numerators on Gamma's value axis
    z^N = 1 (`GammaData.value_numerators`).  The product runs on integer
    arrays of length N, and each monomial's coefficient is reduced mod Phi_N
    once, at the end: rational ones come out at order 1, the others at order
    N, and zero ones are dropped."""
    gamma = ctx.gamma
    order, den, nums = gamma.value_numerators
    terms: Dict[Monomial, List[int]] = {(): [1] + [0] * (order - 1)}
    scale = 1
    for ci, part in enumerate(rho.parts):
        inv = gamma.dual_class(ci)
        gens = [(i, row[inv]) for i, row in enumerate(nums) if row[inv]]
        for r in part:
            if r % 2 == 0:
                raise ValueError(f"a'_-rho needs odd parts, got {r}")
            scale *= den
            nxt: Dict[Monomial, List[int]] = {}
            for m, poly in terms.items():
                for i, gen in gens:
                    mm = _sorted_insert(m, (r, i))
                    acc = nxt.get(mm)
                    if acc is None:
                        acc = nxt[mm] = [0] * order
                    for e, a in enumerate(poly):
                        if a:
                            for f, b in gen:
                                acc[(e + f) % order] += a * b
            terms = nxt
    out: Dict[Monomial, Cyc] = {}
    for m, poly in terms.items():
        c = cyc_from_numerators(order, poly, scale)
        if any(c.coeffs[1:]):
            out[m] = c
        elif c.coeffs[0]:
            out[m] = Cyc._raw(1, c.coeffs[:1])
    res = FockVector(ctx)
    res.terms = out
    return res


def _partners(ctx: FockContext, mu: Monomial) -> List[Monomial]:
    """The monomials mv with <mu, mv> not forced to vanish, sorted and distinct:
    each factor (n, i) of mu replaced by some (n, j) with gram[i][j] != 0."""
    cached = ctx._partner_cache.get(mu)
    if cached is not None:
        return cached
    out = {()}
    for n, i in mu:
        out = {_sorted_insert(p, (n, j)) for p in out for j in ctx.links[i]}
    result = sorted(out)
    ctx._partner_cache[mu] = result
    return result


def _inner_monomials(ctx: FockContext, mu: Monomial, mv: Monomial) -> Fraction:
    """<mu, mv> by normal ordering; rational, as the Gram matrix is integer."""
    cached = ctx._inner_cache.get((mu, mv))
    if cached is not None:
        return cached
    v = FockVector(ctx, {mv: Cyc.rational(1)})
    k = ctx.gamma.num_classes
    for n, i in reversed(mu):
        basis = [1 if t == i else 0 for t in range(k)]
        v = annihilate(v, n, basis)
        if v.is_zero():
            break
    result = v.vacuum_coeff().as_rational()
    ctx._inner_cache[(mu, mv)] = result
    return result


def _partner_sum(ctx: FockContext, mu: Monomial, nums: Dict, axis: int, step: int,
                 big: int) -> Tuple[Optional[List[int]], int]:
    """(sum <mu, mv> big v_mv, lcm of the orders of those v_mv), the sum an
    integer array on the axis z^axis = 1 over the partners mv of mu that
    occur in v and pair with mu to a nonzero value; (None, 1) when there are
    none.  nums are v's integer terms, step is axis over v's own axis, and
    big is a multiple of 2^top of v, so it clears every pair value's
    denominator."""
    acc = None
    order = 1
    for mv in _partners(ctx, mu):
        y = nums.get(mv)
        if y is None:
            continue
        w = _inner_monomials(ctx, mu, mv)
        if not w:
            continue
        if acc is None:
            acc = [0] * axis
        o, cv = y
        order = lcm(order, o)
        w = w.numerator * (big // w.denominator)
        for e, b in cv:
            acc[e * step] += w * b
    return acc, order


def inner(u: FockVector, v: FockVector, scale: Union[int, Fraction] = 1) -> Cyc:
    """scale <u, v>' with <1,1> = 1 and a_n(gamma)* = a_{-n}(gamma).

    Each monomial mu of u is paired only with its partners mv in v; every
    other monomial pair has no matching of factors and contributes zero.
    The products u_mu <mu, mv> v_mv are summed on both vectors' integer
    numerators (`FockVector._numerators`) over one denominator, then reduced
    mod Phi and divided once: one `Cyc`, at the lcm of the orders of the
    coefficients that pair.  The rational scale enters as integers, its
    numerator with the pair values and its denominator with the sum's."""
    u._check_ctx(v)
    ua, ud, _, un = u._numerators()
    va, vd, top, vn = v._numerators()
    axis = lcm(ua, va)
    su, sv = axis // ua, axis // va
    big = scale.numerator << top
    acc = [0] * axis
    order = 1
    for mu, (ou, cu) in un.items():
        s, so = _partner_sum(u.ctx, mu, vn, axis, sv, big)
        if s is None:
            continue
        order = lcm(order, ou, so)
        for e, a in cu:
            e *= su
            for f, b in enumerate(s):
                if b:
                    acc[(e + f) % axis] += a * b
    # every term's exponent is a multiple of axis // order
    return cyc_from_numerators(order, acc[::axis // order], (ud * vd * scale.denominator) << top)


def _coeff_key(coeffs: Sequence[CoeffLike]) -> Tuple:
    out = []
    for c in coeffs:
        c = Cyc.lift(c)
        out.append((c.order, c.coeffs))
    return tuple(out)


def q_gen(ctx: FockContext, n: int, coeffs: Sequence[CoeffLike]) -> FockVector:
    """Degree-n coefficient of exp(sum_{k odd} (2/k) a_{-k}(gamma) z^k).

    Computed by the recursion n q_n = sum_{k odd <= n} 2 a_{-k}(gamma) q_{n-k}.
    """
    if n < 0:
        return FockVector.zero(ctx)
    key = (_coeff_key(coeffs), n)
    cached = ctx._q_cache.get(key)
    if cached is not None:
        return cached
    if n == 0:
        out = FockVector.vacuum(ctx)
    else:
        acc = FockVector.zero(ctx)
        for k in range(1, n + 1, 2):
            acc = acc + create(q_gen(ctx, n - k, coeffs), k, coeffs).scale(2)
        out = acc.scale(Fraction(1, n))
    ctx._q_cache[key] = out
    return out


TensorTerms = Dict[Tuple[Monomial, Monomial], Cyc]


def coproduct(v: FockVector) -> TensorTerms:
    """Algebra-morphism extension of Delta(a) = a(x)1 + 1(x)a on monomials."""
    from itertools import product as iproduct
    from math import comb

    out: TensorTerms = {}
    for m, c in v.terms.items():
        factors: List[Tuple[Tuple[int, int], int]] = []
        for f in sorted(set(m)):
            factors.append((f, sum(1 for x in m if x == f)))
        choices = [range(mult + 1) for _, mult in factors]
        for pick in iproduct(*choices):
            left: List[Tuple[int, int]] = []
            right: List[Tuple[int, int]] = []
            weight = 1
            for (f, mult), take in zip(factors, pick):
                weight *= comb(mult, take)
                left.extend([f] * take)
                right.extend([f] * (mult - take))
            key = (tuple(left), tuple(right))
            val = c * weight
            cur = out.get(key)
            val = val if cur is None else cur + val
            if val.is_zero():
                out.pop(key, None)
            else:
                out[key] = val
    return out


def tensor_inner(ctx: FockContext, t: TensorTerms, u: FockVector, v: FockVector) -> Cyc:
    """<t, u (x) v> for a coproduct result t.

    The form is the product of the two tensor factors' forms, so a term
    t_(ml, mr) contributes t_(ml, mr) (sum <ml, pl> u_pl) (sum <mr, pr> v_pr),
    each sum over the partners present as in `inner` (`_partner_sum`).  The
    terms are summed on integer numerators and make one `Cyc`."""
    ta, td, tn = integer_terms(t)
    ua, ud, utop, un = u._numerators()
    va, vd, vtop, vn = v._numerators()
    axis = lcm(ta, ua, va)
    st = axis // ta
    acc = [0] * axis
    order = 1
    for (ml, mr), (oc, cc) in tn.items():
        left, lo = _partner_sum(ctx, ml, un, axis, axis // ua, 1 << utop)
        if left is None:
            continue
        right, ro = _partner_sum(ctx, mr, vn, axis, axis // va, 1 << vtop)
        if right is None:
            continue
        order = lcm(order, oc, lo, ro)
        for e, a in cc:
            e *= st
            for i, x in enumerate(left):
                if x:
                    for j, y in enumerate(right):
                        if y:
                            acc[(e + i + j) % axis] += a * x * y
    return cyc_from_numerators(order, acc[::axis // order], (td * ud * vd) << (utop + vtop))
