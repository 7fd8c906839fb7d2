"""Character-table level description of the base finite group.

The pipeline consumes a finite group Gamma only through its character table
(:class:`GammaData`); concrete multiplication is needed only by the brute
force oracle, so built-ins also carry a :class:`ConcreteGroup` with an
explicit table and irreducible representation matrices.

`GammaData` stores each character value once, as canonical integer
numerators on Gamma's value axis, and every sum over Gamma (validation,
the product check, Gram matrices) runs on those through one kernel,
`_weighted_gram`.  Values are handed in as integers and put on the axis
once (`GammaData.on_axis`); exact values in messages are printed by
`scalars.value_text`.  `Cyc` remains only in the built-ins' `ConcreteGroup`
representation matrices (`_mat_mul`), which no code reads but the
benchmark's `Cyc` counter still counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .scalars import (Coeff, Cyc, CycError, axis_scalar, doc_int, euler_phi, reduce_mod_phi,
                      root_matrix, times_root, value_doc, value_from_doc, value_text,
                      zeta_powers)

Matrix = Tuple[Tuple[Cyc, ...], ...]
ValueLike = Union[int, Fraction, Tuple[int, int, Coeff]]  # a rational, or (N, den, numerators)


class GammaValidationError(ValueError):
    """A character table document failed validation."""


@dataclass(frozen=True)
class ClassInfo:
    name: str
    size: int
    element_order: int
    inverse: int  # index of the inverse class


Numerators = Sequence[Tuple[int, int]]  # (exponent on the axis, numerator), nonzero


def _value_axis(exponent: int, values: Sequence[ValueLike]) -> int:
    """The axis N of Gamma's values: 1 when all are rational, else the one
    order of the irrational ones, each at `exponent` if its own order
    divides it.  Two distinct orders raise `CycError`: no product of such
    values could be summed."""
    axis = 1
    for v in values:
        if type(v) is tuple and any(v[2][1:]):
            o = exponent if exponent % v[0] == 0 else v[0]
            if axis not in (1, o):
                raise CycError(f"incompatible cyclotomic orders {axis} and {o}; "
                               "promote explicitly")
            axis = o
    return axis


class GammaData:
    """Validated class data and irreducible character values of Gamma.

    Characters are rows chars[i][c] with chars[0] the trivial character;
    class 0 is the identity class.  Each value is stored once, as canonical
    (den, numerators) on Gamma's value axis N (`on_axis`), converted from the
    values handed in: N is 1 when all are rational, else the lcm of the
    class element orders, or the values' own order when it does not divide
    that.  Equal values are equal tuples.
    """

    def __init__(self, name: str, order: int, classes: Sequence[ClassInfo],
                 chars: Sequence[Sequence[ValueLike]]):
        self.name = name
        self.order = order
        self.classes = list(classes)
        self._validate_classes(chars)
        exponent = lcm(*[c.element_order for c in classes])
        self.axis = _value_axis(exponent, [v for row in chars for v in row])
        self.chars = [[self.on_axis(v) for v in row] for row in chars]
        self._validate_characters()

    # -- derived data --------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def r(self) -> int:
        return len(self.classes) - 1

    def centralizer_order(self, ci: int) -> int:
        return self.order // self.classes[ci].size

    @property
    def centralizer_orders(self) -> List[int]:
        return [self.centralizer_order(i) for i in range(self.num_classes)]

    @property
    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]

    @property
    def char_names(self) -> List[str]:
        return [f"g{i}" for i in range(self.num_classes)]

    def char_value(self, coeffs: Sequence[int], ci: int) -> Tuple[int, Coeff]:
        """Value at class ci of the virtual character sum_i coeffs[i]*gamma_i,
        coeffs integers, as one canonical value on the axis."""
        order, den, nums = self.value_numerators
        acc = [0] * euler_phi(order)
        for i, s in enumerate(coeffs):
            if s:
                for e, a in nums[i][ci]:
                    acc[e] += s * a
        return axis_scalar(order, acc, den)

    def degree(self, i: int) -> int:
        return self.chars[i][0][1][0]

    def dual_class(self, ci: int) -> int:
        return self.classes[ci].inverse

    # -- validation ----------------------------------------------------------

    def _validate_classes(self, chars: Sequence[Sequence[ValueLike]]) -> None:
        """The class data and the table's shape, checked before any value is
        read: the value axis is found from the element orders."""
        k = len(self.classes)
        if k == 0 or len(chars) != k or any(len(row) != k for row in chars):
            raise GammaValidationError("character table must be square over the classes")
        for c in self.classes:
            if c.size < 1:
                raise GammaValidationError(f"class {c.name} has size {c.size}; "
                                           "class sizes must be positive")
        if sum(c.size for c in self.classes) != self.order:
            raise GammaValidationError("class sizes do not sum to the group order")
        if self.classes[0].size != 1 or self.classes[0].element_order != 1:
            raise GammaValidationError("class 0 must be the identity class")
        for ci, c in enumerate(self.classes):
            if self.order % c.size != 0:
                raise GammaValidationError(f"class size {c.size} does not divide |Gamma|")
            if c.element_order < 1 or self.order % c.element_order:
                raise GammaValidationError(f"element order {c.element_order} of class {c.name} "
                                           f"is not a positive divisor of |Gamma| = {self.order}")
            if not (0 <= c.inverse < k) or self.classes[c.inverse].inverse != ci:
                raise GammaValidationError("inverse map is not an involution")
            inverse = self.classes[c.inverse]
            if inverse.element_order != c.element_order:
                raise GammaValidationError(
                    f"classes {c.name} and {inverse.name} are inverse but have element "
                    f"orders {c.element_order} and {inverse.element_order}")
        if self.classes[0].inverse != 0:
            raise GammaValidationError("identity class must be self-inverse")

    def _validate_characters(self) -> None:
        k = len(self.classes)
        one = self.on_axis(1)
        if any(v != one for v in self.chars[0]):
            raise GammaValidationError("first character must be trivial")
        for i, row in enumerate(self.chars):
            den, nums = row[0]
            if den != 1 or any(nums[1:]) or nums[0] <= 0:
                raise GammaValidationError(f"degree of character {i} is not a positive "
                                           f"integer: {value_text(self.axis, nums, den)}")
        den, form = _weighted_gram(self, [1] + [0] * (k - 1))
        for i in range(k):
            for j in range(k):
                if form[i][j][0] != (den if i == j else 0) or any(form[i][j][1:]):
                    raise GammaValidationError(
                        f"row orthogonality fails for characters ({i}, {j})")

    @cached_property
    def value_numerators(self) -> Tuple[int, int, List[List[Numerators]]]:
        """(N, d, nums): N the axis, d the lcm of the values' denominators,
        and nums[i][c] the nonzero numerators (exponent, numerator) of
        d * chars[i][c].  Derived once, on first use."""
        den = lcm(*(d for row in self.chars for d, _ in row))
        return self.axis, den, [[tuple((e, a * (den // d)) for e, a in enumerate(nums) if a)
                                 for d, nums in row] for row in self.chars]

    def on_axis(self, c: ValueLike) -> Tuple[int, Coeff]:
        """A rational, or (N, den, nums) = sum_i nums[i] zeta_N^i / den with
        den > 0, as canonical (den, numerators) on the axis by zeta_N ->
        z^(axis/N); an irrational one whose N does not divide it raises."""
        if type(c) is not tuple:
            q = Fraction(c)
            return q.denominator, (q.numerator,) + (0,) * (euler_phi(self.axis) - 1)
        order, den, nums = c if any(c[2][1:]) else (1, c[1], c[2][:1])
        step, rest = divmod(self.axis, order)
        if rest:
            raise CycError(f"cannot promote order {order} into order {self.axis}")
        acc = [0] * ((len(nums) - 1) * step + 1)
        acc[::step] = nums
        return axis_scalar(self.axis, acc, den)

    @cached_property
    def linear_twists(self) -> List[Tuple[int, Tuple[int, ...], Tuple[Tuple[int, int], ...]]]:
        """(d, perm, roots) for each linear character delta = gamma_d other
        than gamma_0: perm[i] = j where gamma_j = delta_bar gamma_i, and
        roots[c] = (s, k) where delta(c) = s z^k, s = +-1 and z the root of
        unity of the axis (`scalars.zeta_powers`).

        Tensoring with the linear character prod_i delta(g_i) of Gamma wr S_n
        permutes the spin table's rows: chi_{delta_bar.lambda}(D_mu^+) =
        delta(mu) chi_lambda(D_mu^+), delta_bar.lambda putting lambda(gamma_i)
        at gamma_perm[i].  Values are compared exactly, as the stored
        canonical numerators; a delta with a value that is no root of
        unity, or under which some delta_bar gamma_i is no irreducible or
        two coincide, is left out.  Derived once, on first use."""
        order = self.axis
        k = self.num_classes
        where = {tuple(row): i for i, row in enumerate(self.chars)}
        roots: Dict[Coeff, Tuple[int, int]] = {}
        for s in (1, -1):
            for e, z in enumerate(zeta_powers(order)):
                roots.setdefault(tuple(s * x for x in z), (s, e))
        out = []
        for d in range(1, k):
            exps = tuple(roots.get(nums) if den == 1 else None for den, nums in self.chars[d])
            if None in exps:  # no root of unity at some class; else delta(1) = 1
                continue
            bar = [root_matrix(order, *exps[c.inverse]) for c in self.classes]
            perm = tuple(where.get(tuple((den, times_root(bar[c], nums))
                                         for c, (den, nums) in enumerate(row)), -1)
                         for row in self.chars)
            if len(set(perm) - {-1}) == k:
                out.append((d, perm, exps))
        return out

    def require_products_decompose(self) -> None:
        """Each gamma_i gamma_j must be a sum of irreducibles with nonnegative
        integer multiplicities, as in any group: orthonormal rows alone do
        not make a character table.  Run on outside input only.

        The multiplicity of gamma_t is sum_c |c| gamma_i(c) gamma_j(c)
        gamma_t(c^{-1}) / |Gamma| = <gamma_i, gamma_t>_{gamma_j}, entry [i][t]
        of `_weighted_gram` at the weight gamma_j.  It is symmetric in i and
        j, so only its rows i <= j are summed."""
        k = self.num_classes
        grams = [_weighted_gram(self, [int(t == j) for t in range(k)], j + 1) for j in range(k)]
        for i in range(k):
            for j in range(i, k):
                scale, form = grams[j]
                for t, red in enumerate(form[i]):
                    if any(red[1:]) or red[0] % scale or red[0] < 0:
                        raise GammaValidationError(
                            f"g{i}*g{j} is not a character: g{t} occurs "
                            f"{value_text(self.axis, red, scale)} times")

    # -- serialization --------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "classes": [{"name": c.name, "size": c.size,
                         "element_order": c.element_order, "inverse": c.inverse}
                        for c in self.classes],
            "chars": [[value_doc(self.axis, nums, den) for den, nums in row]
                      for row in self.chars],
        }

    @staticmethod
    def from_doc(doc: dict) -> "GammaData":
        """The validated Gamma of a document; every number in it must be a JSON
        integer (`scalars.doc_int`), every name a JSON string and the class
        names distinct, and any fault raises `GammaValidationError`."""
        try:
            classes = [ClassInfo(_doc_str(c["name"], f"classes[{ci}].name"),
                                 *(doc_int(c[key], f"classes[{ci}].{key}")
                                   for key in ("size", "element_order", "inverse")))
                       for ci, c in enumerate(doc["classes"])]
            names = [c.name for c in classes]
            for ci, name in enumerate(names):
                if name in names[:ci]:
                    raise ValueError(f"classes[{ci}].name repeats {json.dumps(name)}")
            chars = [[value_from_doc(v) for v in row] for row in doc["chars"]]
            gamma = GammaData(_doc_str(doc["name"], "name"), doc_int(doc["order"], "order"),
                              classes, chars)
        except (KeyError, TypeError, ValueError, CycError) as exc:
            if isinstance(exc, GammaValidationError):
                raise
            raise GammaValidationError(f"malformed Gamma document: {exc}") from exc
        gamma.require_products_decompose()
        return gamma


def _doc_str(value, what: str) -> str:
    """A name a document must hold as a JSON string; anything else is
    refused with `ValueError`, never converted."""
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {json.dumps(value)}")
    return value


def load_gamma(document: Union[bytes, str, dict]) -> GammaData:
    if isinstance(document, (bytes, str)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GammaValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise GammaValidationError("Gamma document must be a JSON object")
    return GammaData.from_doc(document)


class ConcreteGroup:
    """A finite group on elements 0..order-1 with an explicit Cayley table."""

    def __init__(self, name: str, table: Sequence[Sequence[int]],
                 class_of: Sequence[int], rep_matrices: Dict[int, List[Matrix]]):
        self.name = name
        self.order = len(table)
        self.table = [list(row) for row in table]
        self.class_of = list(class_of)
        self.rep_matrices = rep_matrices  # char index -> matrix per element
        self.inverse = [0] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == 0:
                    self.inverse[a] = b
                    break

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugacy_classes(self) -> List[List[int]]:
        """Test oracle: the conjugacy classes from the Cayley table, which the
        tests compare with the built-in class data."""
        seen = [False] * self.order
        out = []
        for a in range(self.order):
            if seen[a]:
                continue
            orbit = sorted({self.mul(self.mul(g, a), self.inv(g)) for g in range(self.order)})
            for x in orbit:
                seen[x] = True
            out.append(orbit)
        return out


# -- built-in groups -----------------------------------------------------------


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Cyc.rational(0)) for j in range(n))
        for i in range(n))


def _builtin_trivial() -> Tuple[GammaData, ConcreteGroup]:
    g = GammaData("trivial", 1, [ClassInfo("e", 1, 1, 0)], [[1]])
    cg = ConcreteGroup("trivial", [[0]], [0], {0: [((Cyc.rational(1),),)]})
    return g, cg


def _builtin_cyclic(k: int) -> Tuple[GammaData, ConcreteGroup]:
    if k == 1:
        return _builtin_trivial()
    classes = [ClassInfo("e" if m == 0 else f"c{m}", 1,
                         k // gcd(m, k) if m else 1, (-m) % k)
               for m in range(k)]
    roots = zeta_powers(k)
    chars = [[(k, 1, roots[i * m % k]) for m in range(k)] for i in range(k)]
    g = GammaData(f"cyclic{k}", k, classes, chars)
    table = [[(a + b) % k for b in range(k)] for a in range(k)]
    reps = {i: [((Cyc.zeta(k, (i * m) % k),),) for m in range(k)] for i in range(k)}
    cg = ConcreteGroup(f"cyclic{k}", table, list(range(k)), reps)
    return g, cg


def _builtin_klein4() -> Tuple[GammaData, ConcreteGroup]:
    classes = [ClassInfo(n, 1, 1 if i == 0 else 2, i) for i, n in enumerate(["e", "a", "b", "ab"])]
    signs = [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]
    g = GammaData("klein4", 4, classes, signs)
    table = [[a ^ b for b in range(4)] for a in range(4)]
    reps = {i: [((Cyc.rational(signs[i][x]),),) for x in range(4)] for i in range(4)}
    cg = ConcreteGroup("klein4", table, list(range(4)), reps)
    return g, cg


def _builtin_quaternion8() -> Tuple[GammaData, ConcreteGroup]:
    # Elements 0..7 = 1, -1, i, -i, j, -j, k, -k as unit quaternions.
    units = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    index = {u: i for i, u in enumerate(units)}

    def qmul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    table = [[index[qmul(x, y)] for y in units] for x in units]
    class_of = [0, 1, 2, 2, 3, 3, 4, 4]
    classes = [ClassInfo("1", 1, 1, 0), ClassInfo("-1", 1, 2, 1),
               ClassInfo("i", 2, 4, 2), ClassInfo("j", 2, 4, 3), ClassInfo("k", 2, 4, 4)]
    one = Cyc.rational(1)
    chars_int = [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],   # kernel contains <i>
        [1, 1, -1, 1, -1],   # kernel contains <j>
        [1, 1, -1, -1, 1],   # kernel contains <k>
        [2, -2, 0, 0, 0],    # the 2-dimensional symplectic character
    ]
    g = GammaData("quaternion8", 8, classes, chars_int)

    zi = Cyc.zeta(4)
    zero = Cyc.rational(0)
    mat_i: Matrix = ((zi, zero), (zero, -zi))
    mat_j: Matrix = ((zero, one), (-one, zero))
    two_dim: Dict[int, Matrix] = {}
    mat_k = _mat_mul(mat_i, mat_j)
    for idx, u in enumerate(units):
        a, b, c, d = u
        acc = ((Cyc.rational(a), zero), (zero, Cyc.rational(a)))
        if b:
            acc = tuple(tuple(acc[r][s] + Cyc.rational(b) * mat_i[r][s] for s in range(2)) for r in range(2))
        if c:
            acc = tuple(tuple(acc[r][s] + Cyc.rational(c) * mat_j[r][s] for s in range(2)) for r in range(2))
        if d:
            acc = tuple(tuple(acc[r][s] + Cyc.rational(d) * mat_k[r][s] for s in range(2)) for r in range(2))
        two_dim[idx] = acc
    reps: Dict[int, List[Matrix]] = {}
    for i in range(4):
        reps[i] = [((Cyc.rational(chars_int[i][class_of[x]]),),) for x in range(8)]
    reps[4] = [two_dim[x] for x in range(8)]
    cg = ConcreteGroup("quaternion8", table, class_of, reps)
    return g, cg


def builtin(name: str) -> Tuple[GammaData, ConcreteGroup]:
    """Built-in groups: trivial, cyclic:k, klein4, quaternion8."""
    if name == "trivial":
        return _builtin_trivial()
    if name.startswith("cyclic:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            k = 0
        if k < 1:
            raise ValueError(f"bad built-in group {name!r}: cyclic:k needs k a positive integer")
        return _builtin_cyclic(k)
    if name == "klein4":
        return _builtin_klein4()
    if name == "quaternion8":
        return _builtin_quaternion8()
    raise ValueError(f"unknown built-in group: {name!r}")


# -- virtual characters and bilinear forms -------------------------------------


class VirtualChar:
    """An integer vector over the irreducible characters (element of R_Z(Gamma))."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("VirtualChar is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualChar) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"VirtualChar{self.coeffs!r}"

    def value_at(self, gamma: GammaData, ci: int) -> Tuple[int, Coeff]:
        return gamma.char_value(self.coeffs, ci)

    def is_self_dual(self, gamma: GammaData) -> bool:
        return all(self.value_at(gamma, ci) == self.value_at(gamma, gamma.dual_class(ci))
                   for ci in range(gamma.num_classes))

    @staticmethod
    def trivial(gamma: GammaData) -> "VirtualChar":
        return VirtualChar([1] + [0] * gamma.r)


def _weighted_gram(gamma: GammaData, xi: Sequence[int],
                   rows: Optional[int] = None) -> Tuple[int, List[List[List[int]]]]:
    """(den, form): form[i][j] the numerators over den, reduced mod Phi_N, of
    <gamma_i, gamma_j>_xi for the integer vector xi over the irreducibles,
    for the first `rows` i (all by default).

    The sum <f, g>_xi = sum_c zeta_c^{-1} xi(c) f(c) g(c^{-1}) on basis
    vectors, with 1/zeta_c = |c|/|Gamma|, runs on the integer numerators of
    `value_numerators` on the axis z^N = 1 and is reduced mod Phi_N once per
    entry: Gamma's one sum over its classes.  The entry is the multiplicity
    of gamma_j in xi gamma_i when xi is a character.
    """
    order, den, nums = gamma.value_numerators
    weights = []  # (c, |c| xi(c) d as numerators) where xi(c) is not 0
    for ci, cls in enumerate(gamma.classes):
        w: Dict[int, int] = {}
        for t, x in enumerate(xi):
            if x:
                for e, a in nums[t][ci]:
                    w[e] = w.get(e, 0) + cls.size * x * a
        if any(w.values()):
            weights.append((ci, [(e, a) for e, a in w.items() if a]))
    form = []
    for row in nums[:rows]:
        prods = []  # (c^{-1}, |c| xi(c) gamma_i(c) d^2 as numerators)
        for ci, w in weights:
            p: Dict[int, int] = {}
            for e, a in w:
                for f, b in row[ci]:
                    x = (e + f) % order
                    p[x] = p.get(x, 0) + a * b
            prods.append((gamma.classes[ci].inverse, p.items()))
        form.append([])
        for dual in nums:
            acc = [0] * order
            for ci, p in prods:
                for e, a in p:
                    for f, b in dual[ci]:
                        acc[(e + f) % order] += a * b
            form[-1].append(reduce_mod_phi(order, acc))
    return gamma.order * den ** 3, form


def gram_matrix(gamma: GammaData, xi: VirtualChar) -> List[List[int]]:
    """Integer Gram matrix a_ij = <gamma_i, gamma_j>_xi (`_weighted_gram`);
    raises if an entry is not an integer, which it is for every Gamma whose
    products of irreducibles decompose (`GammaData.from_doc` checks that)."""
    den, form = _weighted_gram(gamma, xi.coeffs)
    for i, row in enumerate(form):
        for j, red in enumerate(row):
            if any(red[1:]) or red[0] % den:
                raise CycError(f"Gram entry ({i},{j}) is not an integer: "
                               f"{value_text(gamma.axis, red, den)}")
    return [[red[0] // den for red in row] for row in form]


def identify_affine_type(cartan: List[List[int]]) -> Optional[str]:
    """Match a weighted Cartan matrix against the stored affine Dynkin shapes."""
    k = len(cartan)
    if any(cartan[i][i] != 2 for i in range(k)):
        return None
    if k == 2 and cartan[0][1] == cartan[1][0] == -2:
        return "A1~"
    if any(cartan[i][j] != cartan[j][i] or cartan[i][j] not in (0, -1)
           for i in range(k) for j in range(i)):
        return None
    nbrs = [[j for j in range(k) if j != i and cartan[i][j]] for i in range(k)]
    degree = sorted(len(ns) for ns in nbrs)
    if k == 5 and degree == [1, 1, 1, 1, 4]:
        return "D4~"
    if k >= 3 and degree == [2] * k:
        # walk the cycle through node 0; it must visit all k nodes
        prev, cur, length = 0, nbrs[0][0], 1
        while cur != 0:
            prev, cur = cur, next(t for t in nbrs[cur] if t != prev)
            length += 1
        if length == k:
            return f"A{k - 1}~"
    return None


def mckay_xi(gamma: GammaData, pi_index: Optional[int] = None) -> VirtualChar:
    """The McKay weight 2*gamma_0 - pi, pi the 2-dimensional defining character.

    Without a designated index, pi is read from the character table: the
    only faithful 2-dimensional irreducible, or, for an abelian Gamma of
    order >= 2, chi + conj(chi) for the first faithful linear chi.
    """
    k = gamma.num_classes
    coeffs = [0] * k
    coeffs[0] = 2
    if pi_index is not None:
        if not 0 <= pi_index < gamma.num_classes:
            raise ValueError(f"pi index out of range: {pi_index} is not in "
                             f"0..{gamma.num_classes - 1}")
        if gamma.degree(pi_index) != 2:
            raise ValueError(f"designated pi (index {pi_index}) is not 2-dimensional")
        coeffs[pi_index] -= 1
        return VirtualChar(coeffs)

    def faithful(i: int) -> bool:
        return all(gamma.chars[i][c] != gamma.chars[i][0] for c in range(1, k))

    faithful_2d = [i for i in range(k) if gamma.degree(i) == 2 and faithful(i)]
    faithful_1d = [i for i in range(k) if gamma.degree(i) == 1 and faithful(i)]
    if len(faithful_2d) == 1:
        coeffs[faithful_2d[0]] -= 1
        return VirtualChar(coeffs)
    if k == gamma.order >= 2 and faithful_1d:  # abelian: one class per element
        chi = faithful_1d[0]
        bar = next(j for j in range(k) if all(
            gamma.chars[j][c] == gamma.chars[chi][gamma.dual_class(c)] for c in range(k)))
        coeffs[chi] -= 1
        coeffs[bar] -= 1
        return VirtualChar(coeffs)
    raise ValueError(f"no 2-dimensional defining character known for {gamma.name!r}; "
                     "designate pi explicitly")
