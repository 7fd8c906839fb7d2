"""Exact cyclotomic arithmetic: Q(zeta_N) in the power basis mod Phi_N.

A value is written in the power basis 1, z, ..., z^(phi(N)-1) reduced mod
Phi_N, as phi(N) integer numerators over one denominator.  The engines keep
values on an axis N that the caller fixes (Gamma's value axis); in
canonical form (`canonical`, `axis_scalar`) equal values are equal tuples.
A value enters at its own order as (N, den, numerators) (`value_from_doc`
reads a document's) and leaves as a document (`value_doc`), as text in
messages and CSV (`value_text`), or in the `Cyc(...)` form of a few
failure messages (`value_repr`).

A :class:`Cyc` holds phi(N) rationals at a value's own order.  No engine,
oracle or edge computes with it: it remains for the built-ins'
representation matrices (`gammadata._mat_mul`), whose operators the
benchmark's `Cyc` counter wraps, and as the tests' reference arithmetic.
There is no floating point anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["Cyc", int, Fraction]
Coeff = Tuple[int, ...]  # phi(N) power-basis numerators of one value on an axis N


class CycError(ValueError):
    """Raised on illegal cyclotomic operations (order mismatch, bad division)."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n <= 0:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num: Sequence[int], den: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    # Exact division of integer polynomials; den must be monic.
    num = list(num)
    dden = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dden] = c
        for j, d in enumerate(den):
            num[i - dden + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return tuple(quot), tuple(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, computed by recursive division."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_int(num, cyclotomic_poly(d))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(num)


def reduce_mod_phi(order: int, acc: Sequence[RationalLike]) -> List[RationalLike]:
    """sum_i acc[i] z^i, z = zeta_order, in the power basis of Q(zeta_order):
    phi(order) coefficients, reduced mod Phi_order; integer when acc is."""
    deg = euler_phi(order)
    out = list(acc) + [0] * max(0, deg - len(acc))
    if len(out) > deg:
        phi = cyclotomic_poly(order)
        for k in range(len(out) - 1, deg - 1, -1):
            c = out[k]
            if c:  # x^k == -x^(k-deg) * (low part of Phi)
                for j in range(deg):
                    if phi[j]:
                        out[k - deg + j] -= c * phi[j]
    return out[:deg]


@lru_cache(maxsize=None)
def zeta_powers(order: int) -> Tuple[Coeff, ...]:
    """z^m for m = 0..order-1, z = zeta_order, as numerators reduced mod
    Phi_order.  With their negatives they are all the roots of unity in
    Q(zeta_order)."""
    return tuple(tuple(reduce_mod_phi(order, [0] * m + [1])) for m in range(order))


@lru_cache(maxsize=None)
def root_matrix(order: int, sign: int, k: int) -> Tuple[Coeff, ...]:
    """The rows of the integer matrix that multiplies numerators reduced mod
    Phi_order by the root of unity sign z^k: column j is sign z^(k + j)
    (`zeta_powers`).  A unit, so a canonical value stays canonical."""
    powers = zeta_powers(order)
    return tuple(zip(*(tuple(sign * x for x in powers[(k + j) % order])
                       for j in range(euler_phi(order)))))


def times_root(rows: Tuple[Coeff, ...], a: Coeff) -> Coeff:
    """a times the root of unity whose `root_matrix` is rows."""
    return tuple([sum(map(mul, r, a)) for r in rows])


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The product of two numerator polynomials, unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def times(axis: int, a: Coeff, b: Coeff) -> Coeff:
    """The product of two values' numerators, reduced mod Phi_axis."""
    return tuple(reduce_mod_phi(axis, poly_mul(a, b)))


def add_into(out: Dict, key, c: Coeff) -> None:
    """out[key] += c, numerator by numerator."""
    cur = out.get(key)
    out[key] = c if cur is None else tuple(map(add, cur, c))


def canonical(den: int, nums: Dict) -> Tuple[int, Dict]:
    """nums / den with the zero values dropped, over its least denominator."""
    if not all(map(any, nums.values())):
        nums = {k: c for k, c in nums.items() if any(c)}
    g = gcd(den, *chain.from_iterable(nums.values()))
    if g == 1:
        return den, nums
    return den // g, {k: tuple([x // g for x in c]) for k, c in nums.items()}


def on_one_denominator(values: Dict) -> Tuple[int, Dict]:
    """Values, each (den, numerators), over their least common denominator:
    canonical when every value is canonical and nonzero."""
    den = lcm(*(d for d, _ in values.values()))
    return den, {k: tuple([x * (den // d) for x in c]) for k, (d, c) in values.items()}


def axis_scalar(order: int, acc: Sequence[int], den: int) -> Tuple[int, Coeff]:
    """sum_i acc[i] zeta_order^i / den (den > 0) as one canonical value: the
    least den and the numerators reduced mod Phi_order; zero is (1, zeros)."""
    red = reduce_mod_phi(order, acc)
    g = gcd(den, *red)
    return den // g, tuple([x // g for x in red])


def value_doc(order: int, nums: Sequence[int], den: int) -> dict:
    """The {"N", "coeffs"} document of sum_i nums[i] zeta_order^i / den (nums
    reduced mod Phi_order, den > 0), at N = 1 when the value is rational."""
    if not any(nums[1:]):
        order, nums = 1, nums[:1]
    coeffs = []
    for c in nums:
        g = gcd(c, den)
        coeffs.append([c // g, den // g])
    return {"N": order, "coeffs": coeffs}


def value_text(order: int, nums: Sequence[int], den: int) -> str:
    """sum_i nums[i] zeta_order^i / den (den > 0) as messages and CSV print
    it: "p" or "p/q" when the value is rational, else its compact
    `value_doc`."""
    if not any(nums[1:]):
        return str(Fraction(nums[0], den))
    return json.dumps(value_doc(order, nums, den), separators=(",", ":"))


def value_repr(order: int, nums: Sequence[int], den: int) -> str:
    """sum_i nums[i] zeta_order^i / den (nums reduced mod Phi_order, den > 0)
    as `Cyc.__repr__` prints it, at order 1 when the value is rational."""
    if not any(nums[1:]):
        return f"Cyc({Fraction(nums[0], den)})"
    terms = (f"{Fraction(c, den)}*z{order}^{i}" if i else str(Fraction(c, den))
             for i, c in enumerate(nums) if c)
    return "Cyc(" + " + ".join(terms) + ")"


def value_from_doc(doc: dict, where: str = "value") -> Tuple[int, int, Coeff]:
    """(N, den, nums) of a {"N", "coeffs": [[p, q], ...]} document, den the lcm
    of the q; checked pair by pair (a [p, q] pair, q a JSON integer by
    `doc_int`, q nonzero, p a JSON integer), then N, then the phi(N) count,
    or `ValueError`.  A fault of shape, a missing field or a pair that is no
    pair, names the field under `where`, the value's position."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object with N and coeffs, got {json.dumps(doc)}")
    if "coeffs" not in doc:
        raise ValueError(f"{where} has no coeffs")
    if not isinstance(doc["coeffs"], list):
        raise ValueError(f"{where}.coeffs must be a list of [numerator, denominator] pairs, "
                         f"got {json.dumps(doc['coeffs'])}")
    pairs = []
    for t, pair in enumerate(doc["coeffs"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{where}.coeffs[{t}] must be a [numerator, denominator] pair, "
                             f"got {json.dumps(pair)}")
        p, q = pair
        if doc_int(q, "a coefficient's denominator") == 0:
            raise ValueError(f"coefficient [{json.dumps(p)}, 0] has a zero denominator")
        pairs.append((doc_int(p, "a coefficient's numerator"), q))
    if "N" not in doc:
        raise ValueError(f"{where} has no N")
    order = doc_int(doc["N"], "N")
    if order < 1:
        raise ValueError(f"N must be a positive integer, got {order}")
    deg = euler_phi(order)
    if len(pairs) != deg:
        raise ValueError(f"need {deg} coefficients for order {order}, got {len(pairs)}")
    den = lcm(*(q for _, q in pairs))
    return order, den, tuple(p * den // q for p, q in pairs)


def doc_int(value, what: str) -> int:
    """A number a document must hold as a JSON integer; a float, a bool or a
    string is refused with `ValueError`, never rounded or read."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise CycError(f"not a rational value: {x!r}")


_ZERO = Fraction(0)


class Cyc:
    """An element of Q(zeta_N), stored as phi(N) rational power-basis coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Fraction]):
        deg = euler_phi(order)
        if len(coeffs) != deg:
            raise CycError(f"need {deg} coefficients for order {order}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyc is immutable")

    @staticmethod
    def _raw(order: int, coeffs: Tuple[Fraction, ...]) -> "Cyc":
        # internal constructor: coeffs already the right length
        self = object.__new__(Cyc)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(x: RationalLike) -> "Cyc":
        return Cyc(1, (_as_fraction(x),))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        """zeta_n^k as an element of Q(zeta_n)."""
        k %= n
        coeffs = [_ZERO] * max(euler_phi(n), k + 1)
        coeffs[k] = Fraction(1)
        return Cyc._reduce(n, coeffs)

    @staticmethod
    def lift(x: ScalarLike) -> "Cyc":
        if isinstance(x, Cyc):
            return x
        return Cyc.rational(x)

    @staticmethod
    def _reduce(order: int, coeffs: Sequence[Fraction]) -> "Cyc":
        return Cyc._raw(order, tuple(reduce_mod_phi(order, coeffs)))

    # -- promotion ---------------------------------------------------------

    def promote(self, m: int) -> "Cyc":
        """Embed into Q(zeta_M) via zeta_N -> zeta_M^(M/N); requires N | M."""
        n = self.order
        if m == n:
            return self
        if m % n != 0:
            raise CycError(f"cannot promote order {n} into order {m}")
        step = m // n
        degm = euler_phi(m)
        out = [_ZERO] * max(degm, (len(self.coeffs) - 1) * step + 1, 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] += c
        return Cyc._reduce(m, out)

    def _match(self, other: "Cyc") -> Tuple["Cyc", "Cyc"]:
        if self.order == other.order:
            return self, other
        if self.order == 1:
            return self.promote(other.order), other
        if other.order == 1:
            return self, other.promote(self.order)
        raise CycError(
            f"incompatible cyclotomic orders {self.order} and {other.order}; "
            "promote explicitly"
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Cyc":
        if isinstance(other, Cyc) and other.order == self.order:
            return Cyc._raw(self.order,
                            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))
        a, b = self._match(Cyc.lift(other))
        return Cyc._raw(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc._raw(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other: ScalarLike) -> "Cyc":
        return self.__add__(-Cyc.lift(other))

    def __rsub__(self, other: ScalarLike) -> "Cyc":
        return (-self).__add__(other)

    def __mul__(self, other: ScalarLike) -> "Cyc":
        if not isinstance(other, Cyc):
            other = Cyc.lift(other)
        # scalar-times-vector needs no reduction regardless of orders
        if len(self.coeffs) == 1:
            q = self.coeffs[0]
            return Cyc._raw(other.order, tuple(q * y for y in other.coeffs))
        if len(other.coeffs) == 1:
            q = other.coeffs[0]
            return Cyc._raw(self.order, tuple(x * q for x in self.coeffs))
        a, b = self._match(other)
        ca, cb = a.coeffs, b.coeffs
        prod = [_ZERO] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        prod[i + j] += x * y
        return Cyc._reduce(a.order, prod)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Cyc":
        # Only division by rational values is supported (kernel stays small).
        if isinstance(other, Cyc):
            q = other.as_rational()
            if q is None:
                raise CycError("division by a non-rational cyclotomic is not supported")
            other = q
        q = _as_fraction(other)
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return Cyc(self.order, tuple(x / q for x in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Cyc, int, Fraction)):
            return NotImplemented
        b = Cyc.lift(other)
        if self.order != b.order:
            n = self.order * b.order // gcd(self.order, b.order)
            return self.promote(n).coeffs == b.promote(n).coeffs
        return self.coeffs == b.coeffs

    __hash__ = None  # values of equal worth may live at different orders

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_rational(self) -> Optional[Fraction]:
        """The rational value if all non-constant coefficients vanish, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- serialization -----------------------------------------------------

    def numerators(self) -> Tuple[int, Coeff]:
        """(den, numerators): the coefficients over their least denominator."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return den, tuple(c.numerator * (den // c.denominator) for c in self.coeffs)

    def __repr__(self) -> str:
        den, nums = self.numerators()
        return value_repr(self.order, nums, den)
