"""Spin super class functions and the characteristic map to the Fock space.

A degree-n spin super class function stores only its values on the even
split classes, indexed by odd-part multipartitions over the classes of
Gamma; negation under the central element and vanishing elsewhere live in
the bilinear form.  The values are stored as a Fock vector's coefficients
are, as integer numerators on Gamma's value axis, so the induction product,
`weighted_inner` and `ch` run on integers.  No `Cyc` is built here: it remains
only in the built-ins' representation matrices, which no engine reads.

As `fock.inner` reads a Fock vector's dual, `weighted_inner` reads its right
argument's weighted dual, made once per weight xi.  At a self-dual weight
the pairing is symmetric, as rho -> rho_bar keeps 2^l(rho) Z_rho and the
weight, so a table check makes one call per pair of rows a <= b.

The characteristic map follows the inverse-relabelled convention
ch(f) = sum (1/Z_rho) f(rho) a'_{-rho_bar}; so ch sends sigma_n(c) to
a_{-n}(c^{-1}) (bar relabel on non-real classes).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm, prod
from operator import mul
from typing import Dict, Optional, Sequence, Tuple

from .fock import FockContext, FockVector, a_prime_vector
from .gammadata import GammaData, ValueLike, VirtualChar
from .partitions import MultiPartition, big_z, multipartitions
from .scalars import (Coeff, add_into, axis_scalar, canonical, euler_phi, on_one_denominator,
                      times)


class SpinClassFun:
    """Values nums[rho] / den on the even split classes D_rho^+, rho in
    OP_n(Gamma_*), canonical (`scalars.canonical`): `==` compares integers.
    Its values never change; its weighted duals are a memo (`_weighted_dual`)."""

    __slots__ = ("gamma", "n", "den", "nums", "_dual")

    def __init__(self, gamma: GammaData, n: int,
                 values: Optional[Dict[MultiPartition, ValueLike]] = None):
        """values[rho] in Gamma's value field (`GammaData.on_axis`)."""
        self.gamma, self.n, self._dual = gamma, n, None
        self.den, self.nums = canonical(*on_one_denominator(
            {rho: gamma.on_axis(c) for rho, c in (values or {}).items()}))
        for rho in self.nums:
            if rho.weight != n:
                raise ValueError(f"value at weight {rho.weight} in degree {n}")

    @staticmethod
    def from_numerators(gamma: GammaData, n: int, den: int,
                        nums: Dict[MultiPartition, Coeff]) -> "SpinClassFun":
        """sum nums[rho] / den, nums[rho] numerators on Gamma's value axis."""
        f = object.__new__(SpinClassFun)
        f.gamma, f.n, f._dual = gamma, n, None
        f.den, f.nums = canonical(den, nums)
        return f

    @staticmethod
    def unit(gamma: GammaData) -> "SpinClassFun":
        return SpinClassFun(gamma, 0, {MultiPartition.empty(gamma.num_classes): 1})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinClassFun):
            return NotImplemented
        return (self.gamma is other.gamma and self.n == other.n
                and self.den == other.den and self.nums == other.nums)

    def __repr__(self) -> str:
        return f"SpinClassFun(n={self.n}, {self.nums!r} / {self.den})"


@lru_cache(maxsize=None)
def _dual(gamma: GammaData, rho: MultiPartition) -> Tuple[MultiPartition, int, Tuple]:
    """rho_bar, 2^l(rho) Z_rho and the pairs (c, l(rho(c))) with l(rho(c)) > 0:
    all depend only on (Gamma, rho)."""
    perm = [gamma.dual_class(i) for i in range(gamma.num_classes)]
    norm = 2 ** rho.length * big_z(rho, gamma.centralizer_orders)
    lengths = tuple((ci, len(part)) for ci, part in enumerate(rho.parts) if part)
    return rho.relabel(perm), norm, lengths


def _power_product(axis: int, values, lengths: Tuple) -> Tuple[int, Coeff]:
    """prod_c values[c]^l over the (c, l) in lengths, each values[c] a value
    (den, numerators) on the axis."""
    den, x = 1, (1,) + (0,) * (euler_phi(axis) - 1)
    for ci, length in lengths:
        d, v = values[ci]
        for _ in range(length):
            den, x = den * d, times(axis, x, v)
    return den, x


# (Gamma, xi) -> {lengths: prod_c xi(c)^l}: the pairings at one weight ask for few
_WEIGHTS: Dict[Tuple[GammaData, VirtualChar], Dict[Tuple, Tuple[int, Coeff]]] = {}


def _weighted_dual(g: SpinClassFun, xi: VirtualChar) -> Tuple[int, Dict[MultiPartition, Coeff]]:
    """g's weighted dual at xi, (D, {rho: numerators over g.den D}): the
    values g(rho_bar) prod_c xi(c)^l(rho(c)) / (2^l(rho) Z_rho) that are not
    zero, made once per (g, xi) and kept in `g._dual`.  xi is read through
    `VirtualChar.value_at` once per profile of lengths (`_WEIGHTS`)."""
    if g._dual is None:
        g._dual = {}
    out = g._dual.get(xi)
    if out is None:
        gamma = g.gamma
        axis = gamma.axis
        weights = _WEIGHTS.setdefault((gamma, xi), {})
        terms = {}
        own = {sigma: sigma for sigma in g.nums}  # so a table's columns match by identity
        for sigma, gval in g.nums.items():
            rho = _dual(gamma, sigma)[0]
            rho = own.get(rho, rho)
            _, norm, lengths = _dual(gamma, rho)
            w = weights.get(lengths)
            if w is None:
                xivals = {ci: xi.value_at(gamma, ci) for ci, _ in lengths}
                w = weights[lengths] = _power_product(axis, xivals, lengths)
            if any(w[1]):
                terms[rho] = (norm * w[0], times(axis, gval, w[1]))
        out = g._dual[xi] = on_one_denominator(terms)
    return out


def weighted_inner(f: SpinClassFun, g: SpinClassFun, xi: VirtualChar) -> Tuple[int, Coeff]:
    """sum_rho (2^l(rho) Z_rho)^{-1} f(rho) g(rho_bar) prod_c xi(c)^l(rho(c)),
    as one canonical value (den, numerators) on Gamma's value axis.

    One integer dot of f's numerators with g's weighted dual at xi
    (`_weighted_dual`), which holds everything that depends on g and xi
    alone: rho_bar, 2^l(rho) Z_rho (`_dual`), xi's weight and one common
    denominator D.  The dot runs on unreduced numerator products, and is
    reduced mod Phi_N and brought to its least denominator over
    f.den g.den D once (`scalars.axis_scalar`)."""
    if f.n != g.n:
        raise ValueError("degree mismatch")
    axis = f.gamma.axis
    den, dual = _weighted_dual(g, xi)
    terms = [(a, s) for rho, a in f.nums.items() if (s := dual.get(rho)) is not None]
    width = euler_phi(axis)
    acc = [0] * (2 * width - 1)
    # the dot by numerator positions, on lists: tuples of these lengths
    # would be kept on CPython's tuple free lists and raise the peak RSS
    right = [[s[j] for _, s in terms] for j in range(width)]
    for i in range(width):
        x = [a[i] for a, _ in terms]
        if any(x):
            for j, y in enumerate(right):
                acc[i + j] += sum(map(mul, x, y))
    return axis_scalar(axis, acc, f.den * g.den * den)


def basic_char(gamma: GammaData, n: int, coeffs: Sequence[int]) -> SpinClassFun:
    """Basic spin character values 2^l(rho) prod_c gamma(c)^l(rho(c)) at D_rho^+,
    gamma = sum_i coeffs[i] gamma_i."""
    axis = gamma.axis
    class_values = [gamma.char_value(coeffs, ci) for ci in range(gamma.num_classes)]
    values = {}
    for rho in multipartitions(n, gamma.num_classes, "OP"):
        den, x = _power_product(axis, class_values, _dual(gamma, rho)[2])
        values[rho] = (den, tuple(y << rho.length for y in x))
    return SpinClassFun.from_numerators(gamma, n, *on_one_denominator(values))


def sigma_class(gamma: GammaData, n: int, ci: int) -> SpinClassFun:
    """sigma_n(c): value n*zeta_c on the class with rho(c) = (n), zero elsewhere."""
    if n % 2 == 0 or n <= 0:
        raise ValueError("sigma_n needs odd positive n")
    rho = MultiPartition.single(gamma.num_classes, ci, (n,))
    return SpinClassFun(gamma, n, {rho: n * gamma.centralizer_order(ci)})


def sigma_rho(gamma: GammaData, rho: MultiPartition) -> SpinClassFun:
    """sigma_rho = prod sigma_r(c)^{m_r(c)}, via the induction product."""
    out = SpinClassFun.unit(gamma)
    for ci, part in enumerate(rho.parts):
        for r in part:
            out = induction_product(out, sigma_class(gamma, r, ci))
    return out


def induction_product(f: SpinClassFun, g: SpinClassFun) -> SpinClassFun:
    """Hopf multiplication in its closed convolution form,

        (f.g)(rho) = sum_{rho' + rho'' = rho} prod binom(m_i(c); m'_i(c)) f(rho') g(rho'').
    """
    if f.gamma is not g.gamma:
        raise ValueError("group mismatch")
    gamma = f.gamma
    axis = gamma.axis
    k = gamma.num_classes
    out: Dict[MultiPartition, Coeff] = {}
    for rho_f, cf in f.nums.items():
        for rho_g, cg in g.nums.items():
            rho = MultiPartition([tuple(sorted(rho_f[ci] + rho_g[ci], reverse=True))
                                  for ci in range(k)])
            weight = prod(comb(mult, rho_f.multiplicities(ci).get(part, 0))
                          for ci in range(k) for part, mult in rho.multiplicities(ci).items())
            add_into(out, rho, tuple(weight * x for x in times(axis, cf, cg)))
    return SpinClassFun.from_numerators(gamma, f.n + g.n, f.den * g.den, out)


# -- the characteristic map ------------------------------------------------------


def ch(ctx: FockContext, f: SpinClassFun) -> FockVector:
    """ch(f) = sum_rho (1/Z_rho) f(rho) a'_{-rho_bar}, summed on numerators
    over one common denominator; each a'_{-rho_bar} is expanded once per
    context and kept in `FockContext._a_prime_bar`."""
    gamma = ctx.gamma
    zetas = gamma.centralizer_orders
    perm = [gamma.dual_class(i) for i in range(gamma.num_classes)]
    cache = ctx._a_prime_bar
    terms = []
    for rho, c in f.nums.items():
        vec = cache.get(rho)
        if vec is None:
            vec = cache[rho] = a_prime_vector(ctx, rho.relabel(perm))
        terms.append((big_z(rho, zetas) * vec.den, c, vec.nums))
    den = lcm(*(d for d, _, _ in terms))
    out: Dict = {}
    for d, c, nums in terms:
        c = tuple(den // d * x for x in c)
        for m, a in nums.items():
            add_into(out, m, times(ctx.axis, c, a))
    return FockVector.from_numerators(ctx, f.den * den, out)
