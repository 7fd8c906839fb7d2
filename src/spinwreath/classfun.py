"""Spin super class functions and the characteristic map to the Fock space.

A degree-n spin super class function stores only its values on the even
split classes, indexed by odd-part multipartitions over the classes of
Gamma; negation under the central element and vanishing elsewhere live in
the bilinear form.  The characteristic map follows the inverse-relabelled
convention ch(f) = sum (1/Z_rho) f(rho) a'_{-rho_bar}; as a consequence
ch sends sigma_n(c) to a_{-n}(c^{-1}) (bar relabel on non-real classes).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, Optional, Sequence, Tuple, Union

from .fock import CoeffLike, FockContext, FockVector, a_prime_vector
from .gammadata import GammaData, VirtualChar
from .partitions import MultiPartition, big_z, multipartitions
from .scalars import Cyc, weighted_dot


class SpinClassFun:
    """Values on the even split classes D_rho^+, rho in OP_n(Gamma_*)."""

    __slots__ = ("gamma", "n", "values")

    def __init__(self, gamma: GammaData, n: int,
                 values: Optional[Dict[MultiPartition, Cyc]] = None):
        self.gamma = gamma
        self.n = n
        self.values: Dict[MultiPartition, Cyc] = {}
        if values:
            for rho, c in values.items():
                c = Cyc.lift(c)
                if not c.is_zero():
                    if rho.weight != n:
                        raise ValueError(f"value at weight {rho.weight} in degree {n}")
                    self.values[rho] = c

    @staticmethod
    def unit(gamma: GammaData) -> "SpinClassFun":
        return SpinClassFun(gamma, 0, {MultiPartition.empty(gamma.num_classes): Cyc.rational(1)})

    def value(self, rho: MultiPartition) -> Cyc:
        return self.values.get(rho, Cyc.rational(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinClassFun):
            return NotImplemented
        if self.gamma is not other.gamma or self.n != other.n:
            return False
        keys = set(self.values) | set(other.values)
        return all(self.value(k) == other.value(k) for k in keys)

    def __repr__(self) -> str:
        return f"SpinClassFun(n={self.n}, {self.values!r})"


@lru_cache(maxsize=None)
def _dual(gamma: GammaData, rho: MultiPartition) -> Tuple[MultiPartition, Fraction, Tuple]:
    """rho_bar, 1/(2^l(rho) Z_rho) and the pairs (c, l(rho(c))) with
    l(rho(c)) > 0: all depend only on (Gamma, rho)."""
    perm = [gamma.dual_class(i) for i in range(gamma.num_classes)]
    norm = 2 ** rho.length * big_z(rho, gamma.centralizer_orders)
    lengths = tuple((ci, len(part)) for ci, part in enumerate(rho.parts) if part)
    return rho.relabel(perm), Fraction(1, norm), lengths


def weighted_inner(f: SpinClassFun, g: SpinClassFun, xi: VirtualChar) -> Cyc:
    """sum_rho (2^l(rho) Z_rho)^{-1} f(rho) g(rho_bar) prod_c xi(c)^l(rho(c)).

    rho_bar and 1/(2^l(rho) Z_rho) are computed once per Gamma (`_dual`);
    xi is evaluated once per call at each class that occurs.  A rational
    xi weight joins the rational factor of the term, an irrational one
    multiplies f(rho), and `scalars.weighted_dot` sums the terms exactly on
    one common denominator, reducing mod Phi_N once.
    """
    if f.n != g.n:
        raise ValueError("degree mismatch")
    gamma = f.gamma
    gvalues = g.values
    xivals: Dict[int, Union[Fraction, Cyc]] = {}  # xi(c), rational where it is
    terms = []
    for rho, fval in f.values.items():
        bar, w, lengths = _dual(gamma, rho)
        gval = gvalues.get(bar)
        if gval is None:
            continue
        for ci, length in lengths:
            v = xivals.get(ci)
            if v is None:
                c = xi.value_at(gamma, ci)
                q = c.as_rational()
                v = xivals[ci] = c if q is None else q
            if isinstance(v, Cyc):
                for _ in range(length):
                    fval = fval * v
            elif v != 1:
                w = w * v ** length
        if w:
            terms.append((w, fval, gval))
    return weighted_dot(terms)


def basic_char(gamma: GammaData, n: int, coeffs: Sequence[CoeffLike]) -> SpinClassFun:
    """Basic spin character values 2^l(rho) prod_c gamma(c)^l(rho(c)) at D_rho^+."""
    values: Dict[MultiPartition, Cyc] = {}
    class_values = [gamma.char_value(coeffs, ci) for ci in range(gamma.num_classes)]
    for rho in multipartitions(n, gamma.num_classes, "OP"):
        val = Cyc.rational(2 ** rho.length)
        for ci, part in enumerate(rho.parts):
            for _ in part:
                val = val * class_values[ci]
        values[rho] = val
    return SpinClassFun(gamma, n, values)


def sigma_class(gamma: GammaData, n: int, ci: int) -> SpinClassFun:
    """sigma_n(c): value n*zeta_c on the class with rho(c) = (n), zero elsewhere."""
    if n % 2 == 0 or n <= 0:
        raise ValueError("sigma_n needs odd positive n")
    rho = MultiPartition.single(gamma.num_classes, ci, (n,))
    return SpinClassFun(gamma, n, {rho: Cyc.rational(n * gamma.centralizer_order(ci))})


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
    k = gamma.num_classes
    out: Dict[MultiPartition, Cyc] = {}
    for rho_f, cf in f.values.items():
        for rho_g, cg in g.values.items():
            merged = []
            for ci in range(k):
                merged.append(tuple(sorted(rho_f[ci] + rho_g[ci], reverse=True)))
            rho = MultiPartition(merged)
            weight = 1
            for ci in range(k):
                mf = rho_f.multiplicities(ci)
                mm = rho.multiplicities(ci)
                for part, mult in mm.items():
                    take = mf.get(part, 0)
                    weight *= comb(mult, take)
            val = cf * cg * weight
            cur = out.get(rho)
            val = val if cur is None else cur + val
            if val.is_zero():
                out.pop(rho, None)
            else:
                out[rho] = val
    return SpinClassFun(gamma, f.n + g.n, out)


# -- the characteristic map ------------------------------------------------------


def ch(ctx: FockContext, f: SpinClassFun) -> FockVector:
    """ch(f) = sum_rho (1/Z_rho) f(rho) a'_{-rho_bar}; each a'_{-rho_bar}
    is expanded once per context and kept in `FockContext._a_prime_bar`."""
    gamma = ctx.gamma
    zetas = gamma.centralizer_orders
    perm = [gamma.dual_class(i) for i in range(gamma.num_classes)]
    cache = ctx._a_prime_bar
    out = FockVector.zero(ctx)
    for rho, c in f.values.items():
        vec = cache.get(rho)
        if vec is None:
            vec = cache[rho] = a_prime_vector(ctx, rho.relabel(perm))
        out = out + vec.scale(c / Fraction(big_z(rho, zetas)))
    return out
