"""The Fock space: symmetric algebra on odd-degree creation generators.

A monomial is a sorted tuple of factors (n, char_index), n odd positive, and
`FockContext` alone handles one: it numbers each monomial once (`index`,
`monos` back, `VACUUM` the empty one, `basis` up to a degree) and holds the
factor tables on those numbers, `removals`, `insert` (one table per factor,
`inserts`) and `merge`, which this module's operators and the row engine of
`vertex` share.  An index turns back into its tuple only in a failure
witness, a repr or a coproduct split.

A vector is (den, {monomial index: numerators}): every coefficient lies in
Q(zeta_N), N Gamma's value axis (`GammaData.axis`, the order of its
irrational character values; N = 1 when they are all rational), and
is stored as its phi(N) integer numerators in the power basis mod Phi_N,
over the vector's one denominator.  The form is canonical: no zero
coefficient is stored and den is the least, so a zero test and `==` compare
integers.

Annihilation acts as a derivation with the commutator normalization

    [a_m(gamma), a_n(gamma')] = (m/2) delta_{m,-n} <gamma, gamma'>_xi,

which pins the m/2 factor so the inner product of single generators is
(n/2) times the weighted Gram matrix.  `create`, `annihilate` and `q_gen`
take gamma as an integer vector over the irreducibles (an element of
R_Z(Gamma)); against the integer Gram matrix that is one integer pair row
(`FockContext.pair_row`).  The bilinear form is computed by normal ordering
annihilators, never by a closed matching formula.

Normal ordering a_n(gamma_i) against a monomial kills one factor (n, j) with
weight gram[i][j], so <mu, mv> vanishes unless each factor (n, i) of mu can
be matched with its own factor (n, j) of mv with gram[i][j] != 0.  Such mv
are the partners of mu (`_partners`), all of mu's length; at a diagonal Gram
matrix, such as the standard weight, mu is its own only partner.  A pair's
value is rational, as the Gram matrix is integer: a cached `Fraction` over a
power of 2.  A pairing reads its right vector v through v's dual, a memo
kept on v: dual(v)[mu] = sum 2^T <mu, mv> v[mv] over mu's partners in v, T
v's top length, valued by normal ordering (`_inner_monomials`) once per mu.

A scalar handed in (a constructor's dict, `scale`'s factor) is read onto
the axis by `GammaData.on_axis`, and a pairing's result (`inner`,
`tensor_inner`) is one canonical value (den, numerators) on the same axis
(`scalars.axis_scalar`), the form `classfun` keeps its class functions in.
The vacuum coefficient of v is the pairing <1, v>.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import comb, lcm
from operator import add, index
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .gammadata import GammaData, ValueLike, VirtualChar, gram_matrix
from .partitions import MultiPartition, multipartitions
from .scalars import (Coeff, add_into, axis_scalar, canonical, euler_phi, on_one_denominator,
                      poly_mul, reduce_mod_phi, times)

Monomial = Tuple[Tuple[int, int], ...]  # sorted ((n, char_index), ...)
VACUUM = 0  # the empty monomial's index in every context


class FockContext:
    """Shared state: the group, the weight xi, the integer Gram matrix and
    its nonzero pattern, Gamma's value axis N, and the monomial numbering."""

    def __init__(self, gamma: GammaData, xi: VirtualChar):
        self.gamma = gamma
        self.xi = xi
        self.gram = gram_matrix(gamma, xi)
        k = gamma.num_classes
        # links[i]: the irreducibles gamma_j with gram[i][j] != 0
        self.links = [[j for j in range(k) if self.gram[i][j]] for i in range(k)]
        self.axis = gamma.axis
        self.width = euler_phi(self.axis)  # numerators per coefficient
        self.monos: List[Monomial] = [()]
        self._index: Dict[Monomial, int] = {(): VACUUM}
        self._removals: Dict[Tuple[int, int], Tuple] = {}
        self._inserts: Dict[Tuple[int, int], "_Inserts"] = {}
        self._q_cache: Dict[Tuple[Tuple[int, ...], int], "FockVector"] = {}
        self._inner_cache: Dict[Tuple[int, int], Fraction] = {}
        self._partner_cache: Dict[int, List[int]] = {}
        self._pair_rows: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._a_prime_bar: Dict[MultiPartition, "FockVector"] = {}  # rho -> a'_{-rho_bar}
        # (char_index, parts) -> prod q_p(gamma), for `qtable.q_power_product`
        self._q_products: Dict[Tuple[int, Tuple[int, ...]], "FockVector"] = {}

    def pair_row(self, coeffs: Sequence[int]) -> Tuple[int, ...]:
        """<coeffs, gamma_j>_xi = sum_i coeffs[i] gram[i][j] for each j, for
        an integer vector coeffs; cached by coeffs."""
        key = tuple(map(index, coeffs))
        row = self._pair_rows.get(key)
        if row is None:
            k = len(self.gram)
            row = self._pair_rows[key] = tuple(
                sum(key[i] * self.gram[i][j] for i in range(k)) for j in range(k))
        return row

    def index(self, mono: Monomial) -> int:
        """The number of a monomial, assigned on first sight."""
        i = self._index.get(mono)
        if i is None:
            i = self._index[mono] = len(self.monos)
            self.monos.append(mono)
        return i

    def removals(self, i: int, n: int) -> Tuple[Tuple[int, int, int], ...]:
        """(j, n * mult, rest) for each distinct factor (n, j) of monomial i, of
        multiplicity mult, rest the monomial less one copy; cached by (i, n)."""
        key = (i, n)
        table = self._removals.get(key)
        if table is None:
            mono = self.monos[i]
            table = self._removals[key] = tuple(
                (f[1], n * mono.count(f), self.index(mono[:pos] + mono[pos + 1:]))
                for pos, f in enumerate(mono)
                if f[0] == n and (pos == 0 or mono[pos - 1] != f))
        return table

    def inserts(self, n: int, j: int) -> Dict[int, int]:
        """Monomial index i -> monomial i times the factor (n, j): one table
        per (n, j), each entry made on its first lookup (`_Inserts`)."""
        table = self._inserts.get((n, j))
        if table is None:
            table = self._inserts[(n, j)] = _Inserts()
            table.ctx, table.factor = self, (n, j)
        return table

    def insert(self, i: int, n: int, j: int) -> int:
        """Monomial i times the factor (n, j), read from `inserts`."""
        return self.inserts(n, j)[i]

    def merge(self, a: int, b: int) -> int:
        """The product of monomials a and b."""
        return self.index(tuple(sorted(self.monos[a] + self.monos[b])))

    def basis(self, max_degree: int) -> List[int]:
        """Every monomial of degree <= max_degree, by degree, then in
        `multipartitions` order."""
        k = self.gamma.num_classes
        return [self.index(tuple(sorted((n, i) for i, part in enumerate(mp.parts) for n in part)))
                for d in range(max_degree + 1) for mp in multipartitions(d, k, "OP")]


class _Inserts(dict):
    """One `FockContext.inserts` table: self[i] is monomial i times the
    factor, numbered by the context on the first lookup of i and kept."""

    __slots__ = ("ctx", "factor")

    def __missing__(self, i: int) -> int:
        mono = self.ctx.monos[i]
        lo = bisect_left(mono, self.factor)
        out = self[i] = self.ctx.index(mono[:lo] + (self.factor,) + mono[lo:])
        return out


def mono_degree(mono: Monomial) -> int:
    return sum(n for n, _ in mono)


class FockVector:
    """Finitely supported combination of Fock monomials, nums / den.

    Its values never change; the dual is a memo filled on first use.  Every
    operation returns a new vector, in canonical form (`from_numerators`)."""

    __slots__ = ("ctx", "den", "nums", "_dual")

    def __init__(self, ctx: FockContext, terms: Optional[Dict[Monomial, ValueLike]] = None):
        """sum terms[m] m over monomial tuples m, each scalar in Gamma's value
        field (`GammaData.on_axis`); the monomials are numbered by ctx."""
        self.ctx, self._dual = ctx, None
        self.den, self.nums = canonical(*on_one_denominator(
            {ctx.index(m): ctx.gamma.on_axis(c) for m, c in (terms or {}).items()}))

    @staticmethod
    def from_numerators(ctx: FockContext, den: int, nums: Dict) -> "FockVector":
        """sum nums[i] m_i / den over monomial indices i, nums[i] the
        power-basis numerators of m_i's coefficient on the context's axis."""
        v = object.__new__(FockVector)
        v.ctx, v._dual = ctx, None
        v.den, v.nums = canonical(den, nums)
        return v

    @staticmethod
    def from_row(ctx: FockContext, den: int,
                 entries: Iterable[Tuple[int, int]]) -> "FockVector":
        """sum num m_i / den over the (monomial index i, integer num) entries."""
        pad = (0,) * (ctx.width - 1)
        return FockVector.from_numerators(ctx, den, {m: (num,) + pad for m, num in entries})

    @staticmethod
    def vacuum(ctx: FockContext) -> "FockVector":
        return FockVector.from_row(ctx, 1, [(VACUUM, 1)])

    @staticmethod
    def zero(ctx: FockContext) -> "FockVector":
        return FockVector(ctx)

    def is_zero(self) -> bool:
        return not self.nums

    def dual(self) -> "_Dual":
        """This vector's partner sums, a memo (`_Dual`) made on first use."""
        if self._dual is None:
            d = self._dual = _Dual()
            d.ctx, d.nums = self.ctx, self.nums
            d.top = max((len(self.ctx.monos[i]) for i in self.nums), default=0)
        return self._dual

    def _check_ctx(self, other: "FockVector") -> None:
        if self.ctx is not other.ctx:
            raise ValueError("FockVector context mismatch")

    def __add__(self, other: "FockVector") -> "FockVector":
        self._check_ctx(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {m: tuple(fa * x for x in c) for m, c in self.nums.items()}
        for m, c in other.nums.items():
            add_into(out, m, tuple(fb * x for x in c))
        return FockVector.from_numerators(self.ctx, den, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, c: ValueLike) -> "FockVector":
        """c times this vector, c in Gamma's value field (`GammaData.on_axis`)."""
        d, x = self.ctx.gamma.on_axis(c)
        axis = self.ctx.axis
        return FockVector.from_numerators(self.ctx, self.den * d,
                                          {m: times(axis, a, x) for m, a in self.nums.items()})

    def __mul__(self, other: "FockVector") -> "FockVector":
        """Product in the symmetric algebra."""
        self._check_ctx(other)
        axis, merge = self.ctx.axis, self.ctx.merge
        out: Dict[int, Coeff] = {}
        for ia, ca in self.nums.items():
            for ib, cb in other.nums.items():
                add_into(out, merge(ia, ib), times(axis, ca, cb))
        return FockVector.from_numerators(self.ctx, self.den * other.den, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __repr__(self) -> str:
        if not self.nums:
            return "FockVector(0)"
        monos = self.ctx.monos
        bits = [f"{c}*{m}" for m, c in sorted((monos[i], c) for i, c in self.nums.items())]
        return f"FockVector(({' + '.join(bits)}) / {self.den})"


def _require_odd_positive(n: int) -> None:
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"generator degree must be odd positive, got {n}")


def create(v: FockVector, n: int, coeffs: Sequence[int]) -> FockVector:
    """Multiplication by a_{-n}(gamma) for gamma = sum coeffs[i] gamma_i."""
    _require_odd_positive(n)
    out: Dict[int, Coeff] = {}
    for j, cj in enumerate(map(index, coeffs)):
        if cj:
            moved = v.ctx.inserts(n, j)
            for i, c in v.nums.items():
                add_into(out, moved[i], tuple(cj * x for x in c))
    return FockVector.from_numerators(v.ctx, v.den, out)


def annihilate(v: FockVector, n: int, coeffs: Sequence[int]) -> FockVector:
    """The derivation a_n(gamma), n odd positive, with the (n/2) factor: a
    factor (n, j) of multiplicity k goes with weight (n/2) k <gamma, gamma_j>_xi."""
    _require_odd_positive(n)
    row = v.ctx.pair_row(coeffs)
    removals = v.ctx.removals
    out: Dict[int, Coeff] = {}
    for i, c in v.nums.items():
        for j, weight, rest in removals(i, n):
            if row[j]:
                w = weight * row[j]
                add_into(out, rest, tuple(w * x for x in c))
    return FockVector.from_numerators(v.ctx, 2 * v.den, out)


def a_prime_vector(ctx: FockContext, rho: MultiPartition) -> FockVector:
    """a'_{-rho} = prod_c a_{-rho(c)}(c), expanded in the monomial basis.

    Each class generator a_{-r}(c) = sum_i gamma_i(c^{-1}) a_{-r}(gamma_i)
    has its coefficients read as integer numerators on Gamma's value axis
    z^N = 1 (`GammaData.value_numerators`).  The product runs on integer
    arrays of length N, and each monomial's coefficient is reduced mod Phi_N
    once, at the end."""
    gamma = ctx.gamma
    order, den, nums = gamma.value_numerators
    terms: Dict[int, List[int]] = {VACUUM: [1] + [0] * (order - 1)}
    scale = 1
    for ci, part in enumerate(rho.parts):
        inv = gamma.dual_class(ci)
        gens = [(i, row[inv]) for i, row in enumerate(nums) if row[inv]]
        for r in part:
            if r % 2 == 0:
                raise ValueError(f"a'_-rho needs odd parts, got {r}")
            scale *= den
            moves = [(ctx.inserts(r, i), gen) for i, gen in gens]
            nxt: Dict[int, List[int]] = {}
            for m, poly in terms.items():
                for moved, gen in moves:
                    mm = moved[m]
                    acc = nxt.get(mm)
                    if acc is None:
                        acc = nxt[mm] = [0] * order
                    for e, a in enumerate(poly):
                        if a:
                            for f, b in gen:
                                acc[(e + f) % order] += a * b
            terms = nxt
    return FockVector.from_numerators(
        ctx, scale, {m: tuple(reduce_mod_phi(order, poly)) for m, poly in terms.items()})


def _partners(ctx: FockContext, mu: int) -> List[int]:
    """The monomials mv with <mu, mv> not forced to vanish, sorted and distinct:
    each factor (n, i) of mu replaced by some (n, j) with gram[i][j] != 0."""
    cached = ctx._partner_cache.get(mu)
    if cached is not None:
        return cached
    out = {VACUUM}
    for n, i in ctx.monos[mu]:
        out = {ctx.insert(p, n, j) for p in out for j in ctx.links[i]}
    result = ctx._partner_cache[mu] = sorted(out)
    return result


def _inner_monomials(ctx: FockContext, mu: int, mv: int) -> Fraction:
    """<mu, mv> by normal ordering; rational, as the Gram matrix is integer."""
    cached = ctx._inner_cache.get((mu, mv))
    if cached is not None:
        return cached
    v = FockVector.from_row(ctx, 1, [(mv, 1)])
    k = ctx.gamma.num_classes
    for n, i in reversed(ctx.monos[mu]):
        v = annihilate(v, n, [1 if t == i else 0 for t in range(k)])
        if v.is_zero():
            break
    result = ctx._inner_cache[(mu, mv)] = Fraction(v.nums.get(VACUUM, (0,))[0], v.den)
    return result


def _partner_sum(ctx: FockContext, mu: int, nums: Dict, top: int) -> Optional[List[int]]:
    """sum 2^top <mu, mv> nums[mv] over the partners mv of mu in nums that
    pair with mu to a nonzero value, as numerators; None when there are none.
    2^top, top at least mu's length, clears every pair value's denominator."""
    acc = None
    big = 1 << top
    for mv in _partners(ctx, mu):
        y = nums.get(mv)
        if y is None:
            continue
        w = _inner_monomials(ctx, mu, mv)
        if not w:
            continue
        w = w.numerator * (big // w.denominator)
        acc = [w * b for b in y] if acc is None else [a + w * b for a, b in zip(acc, y)]
    return acc


class _Dual(dict):
    """The dual of a vector v: self[mu] = sum 2^top <mu, mv> v[mv] over the
    partners mv of mu, top the length of v's longest monomial, as numerators
    over v.den 2^top, or None when no partner pairs (`_partner_sum`); each
    entry is valued on its first lookup and kept."""

    __slots__ = ("ctx", "nums", "top")

    def __missing__(self, mu: int) -> Optional[List[int]]:
        s = self[mu] = _partner_sum(self.ctx, mu, self.nums, self.top)
        return s


def inner(u: FockVector, v: FockVector, scale: Union[int, Fraction] = 1) -> Tuple[int, Coeff]:
    """scale <u, v>' with <1,1> = 1 and a_n(gamma)* = a_{-n}(gamma), as one
    canonical value (den, numerators) on the axis.

    One integer dot of u's numerators with v's dual (`FockVector.dual`), so
    each monomial of u is paired with its partners in v at most once per v,
    however often v is paired.  The dot runs on unreduced numerator products
    over u.den v.den 2^top scale.denominator, and is reduced mod Phi_N and
    brought to its least denominator once (`scalars.axis_scalar`)."""
    u._check_ctx(v)
    dual = v.dual()
    acc = [0] * (2 * u.ctx.width - 1)
    for mu, a in u.nums.items():
        s = dual[mu]
        if s is not None:
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(s):
                        acc[i + j] += x * y
    return axis_scalar(u.ctx.axis, [scale.numerator * x for x in acc],
                       (u.den * v.den * scale.denominator) << dual.top)


def q_gen(ctx: FockContext, n: int, coeffs: Sequence[int]) -> FockVector:
    """Degree-n coefficient of exp(sum_{k odd} (2/k) a_{-k}(gamma) z^k).

    Computed by the recursion n q_n = sum_{k odd <= n} 2 a_{-k}(gamma) q_{n-k}.
    """
    if n < 0:
        return FockVector.zero(ctx)
    key = (tuple(map(index, coeffs)), n)
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


TensorTerms = Tuple[int, Dict[Tuple[int, int], Coeff]]  # (den, {(left, right): nums})


def coproduct(v: FockVector) -> TensorTerms:
    """Algebra-morphism extension of Delta(a) = a(x)1 + 1(x)a on monomials,
    over v's denominator: each split (left, right) of a monomial's factors
    occurs once, weighted by the binomials of the multiplicities."""
    ctx = v.ctx
    out: Dict[Tuple[int, int], Coeff] = {}
    for i, c in v.nums.items():
        m = ctx.monos[i]
        factors = [(f, m.count(f)) for f in sorted(set(m))]
        for pick in product(*[range(mult + 1) for _, mult in factors]):
            left, right, weight = [], [], 1
            for (f, mult), take in zip(factors, pick):
                weight *= comb(mult, take)
                left += [f] * take
                right += [f] * (mult - take)
            out[(ctx.index(tuple(left)), ctx.index(tuple(right)))] = tuple(weight * x for x in c)
    return v.den, out


def tensor_inner(ctx: FockContext, t: TensorTerms, u: FockVector,
                 v: FockVector) -> Tuple[int, Coeff]:
    """<t, u (x) v> for a coproduct result t, as one canonical value on the
    axis.

    The form is the product of the two tensor factors' forms, so a term
    t_(ml, mr) contributes t_(ml, mr) dual(u)[ml] dual(v)[mr], read from the
    duals as in `inner`; the terms are summed on the numerators and made
    canonical once."""
    td, tn = t
    left, right = u.dual(), v.dual()
    acc = [0] * (3 * ctx.width - 2)
    for (ml, mr), c in tn.items():
        lsum = left[ml]
        if lsum is not None and (rsum := right[mr]) is not None:
            acc = list(map(add, acc, poly_mul(poly_mul(c, lsum), rsum)))
    return axis_scalar(ctx.axis, acc, (td * u.den * v.den) << (left.top + right.top))
