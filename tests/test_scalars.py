import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinwreath.scalars import (Cyc, CycError, axis_scalar, cyc_from_numerators,
                               cyclotomic_poly, euler_phi, reduce_mod_phi, root_matrix,
                               times_root, value_doc, zeta_powers)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 12]


def moebius(n: int) -> int:
    """The Moebius function mu(n), which the primitive n-th roots of unity
    must sum to in `Cyc` arithmetic."""
    if n <= 0:
        raise ValueError("moebius needs n >= 1")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result



def weighted_dot(terms):
    """sum w*x*y over the terms (w rational, x and y Cyc), in one exact pass:
    the reference the integer pairings are tested against.

    Each x and y is read as an integer numerator polynomial over its own
    denominator, zeta_k standing for z^(N/k) at N the lcm of every operand's
    order.  Each product goes unreduced onto the common denominator D of all
    terms, exponents taken mod N (z^N = 1); the sum is reduced mod Phi_N and
    divided by D once.  The empty sum is Cyc.rational(0).
    """
    prods = []
    order = 1
    for w, x, y in terms:
        w = Fraction(w)
        dx, nx = x.numerators()
        dy, ny = y.numerators()
        prods.append((w.numerator, w.denominator * dx * dy, x.order, nx, y.order, ny))
        order = lcm(order, x.order, y.order)
    if not prods:
        return Cyc.rational(0)
    den = lcm(*[p[1] for p in prods])
    acc = [0] * order
    for num, d, ox, nx, oy, ny in prods:
        num *= den // d
        sx, sy = order // ox, order // oy
        for i, a in enumerate(nx):
            for j, b in enumerate(ny):
                acc[(i * sx + j * sy) % order] += num * a * b
    return cyc_from_numerators(order, acc, den)


def rand_cyc(rng, n):
    deg = euler_phi(n)
    return Cyc(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(deg)])


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_basic_values():
    z4 = Cyc.zeta(4)
    assert z4 * z4 == -1
    z3 = Cyc.zeta(3)
    assert z3 + z3 * z3 == -1
    z6 = Cyc.zeta(6)
    assert Fraction(1, 2) * z6 + z6 * Fraction(1, 2) == z6


def test_zeta_powers_and_root_matrices_agree_with_cyc():
    rng = random.Random(23)
    for n in ORDERS + [9]:
        assert len(zeta_powers(n)) == n
        for m, nums in enumerate(zeta_powers(n)):
            assert cyc_from_numerators(n, nums, 1) == Cyc.zeta(n, m), (n, m)
            a = tuple(rng.randint(-5, 5) for _ in range(euler_phi(n)))
            for sign in (1, -1):
                got = times_root(root_matrix(n, sign, m), a)
                assert cyc_from_numerators(n, got, 1) \
                    == cyc_from_numerators(n, a, 1) * Cyc.zeta(n, m) * sign, (n, m, sign)


def test_roots_of_unity_and_moebius():
    for n in ORDERS:
        acc = Cyc.rational(1)
        for _ in range(n):
            acc = acc * Cyc.zeta(n)
        assert acc == 1
        total = Cyc.rational(0)
        for k in range(n):
            if gcd(k, n) == 1:
                total = total + Cyc.zeta(n, k)
        assert total == moebius(n)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for n in ORDERS:
        for _ in range(12):
            a, b, c = (rand_cyc(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_promote_is_ring_hom():
    rng = random.Random(11)
    for n, m in ((2, 4), (3, 6), (4, 12), (6, 12), (1, 8)):
        for _ in range(8):
            a, b = rand_cyc(rng, n), rand_cyc(rng, n)
            assert a.promote(m) * b.promote(m) == (a * b).promote(m)
            assert a.promote(m) + b.promote(m) == (a + b).promote(m)


def test_promote_examples():
    assert Cyc.rational(-1).promote(4) == Cyc.zeta(4, 2)
    assert Cyc.zeta(2).promote(6) == Cyc.zeta(6, 3)
    v3 = Cyc.zeta(3) + Cyc.zeta(3, 2)
    assert v3.promote(6) == v3  # equality promotes across orders
    with pytest.raises(CycError):
        Cyc.zeta(4).promote(6)


def test_incompatible_orders_rejected():
    with pytest.raises(CycError):
        Cyc.zeta(4) + Cyc.zeta(3)
    # rational operands embed silently
    assert Cyc.rational(2) * Cyc.zeta(3) == Cyc.zeta(3) + Cyc.zeta(3)


def test_is_rational():
    assert (Cyc.zeta(3) + Cyc.zeta(3, 2) + 1).as_rational() == 0
    assert Cyc.zeta(5).as_rational() is None
    assert Cyc.rational(Fraction(7, 3)).as_rational() == Fraction(7, 3)


def test_division_rules():
    z = Cyc.zeta(8)
    assert z / 2 * 2 == z
    with pytest.raises(CycError):
        z / Cyc.zeta(8, 3)
    # division by a rational-valued cyclotomic is allowed
    two = Cyc.zeta(3) * 0 + 2
    assert z / two == z / 2
    with pytest.raises(ZeroDivisionError):
        z / 0


def test_serialization_round_trip():
    rng = random.Random(3)
    for n in ORDERS:
        for _ in range(5):
            a = rand_cyc(rng, n)
            assert Cyc.from_doc(a.to_doc()) == a
    # rationals serialize at N = 1 even when represented at higher order
    v = Cyc.zeta(3) + Cyc.zeta(3, 2)  # equals -1
    assert v.to_doc() == {"N": 1, "coeffs": [[-1, 1]]}


def test_weighted_dot_empty_and_single_term():
    empty = weighted_dot([])
    assert empty == 0 and empty.order == 1
    z5 = Cyc.zeta(5)
    x = Cyc(5, [Fraction(1, 2), 0, Fraction(-2, 3), 0])
    got = weighted_dot([(Fraction(3, 4), x, z5)])
    assert got == x * z5 * Fraction(3, 4) and got.order == 5
    assert weighted_dot([(7, Cyc.rational(Fraction(1, 3)), Cyc.rational(2))]) == Fraction(14, 3)


def test_weighted_dot_mixes_orders():
    # terms at orders 1, 3, 4 and 6 meet at N = 12, with denominators
    rng = random.Random(5)
    for _ in range(20):
        terms = []
        for _ in range(rng.randint(1, 6)):
            w = Fraction(rng.randint(-5, 5), rng.randint(1, 12))
            terms.append((w, rand_cyc(rng, rng.choice([1, 3, 4, 6])),
                          rand_cyc(rng, rng.choice([1, 3, 12]))))
        expect = Cyc.rational(0).promote(12)
        for w, x, y in terms:
            expect = expect + x.promote(12) * y.promote(12) * w
        got = weighted_dot(terms)
        assert got == expect and got.order in (1, 3, 4, 6, 12)
    # z_3 z_4 = z_12^7, and (-1)(-1) z_3 = z_12^4
    got = weighted_dot([(1, Cyc.zeta(3), Cyc.zeta(4)), (-1, Cyc.rational(-1), Cyc.zeta(3))])
    assert got == Cyc.zeta(12, 7) + Cyc.zeta(12, 4) and got.order == 12


# -- values on an axis: the document writer and the canonical form ---------------


@st.composite
def axis_values(draw):
    """(order, numerators reduced mod Phi_order, den): any sign, zero, and on
    an irrational axis also values whose numerators past the first vanish."""
    order = draw(st.integers(1, 12))
    width = euler_phi(order)
    nums = draw(st.lists(st.integers(-60, 60), min_size=width, max_size=width))
    if draw(st.booleans()):
        nums = nums[:1] + [0] * (width - 1)  # a rational value, on any axis
    return order, nums, draw(st.integers(1, 360))


@given(axis_values())
@example((1, [0], 7))
@example((5, [0, 0, 0, 0], 3))
@example((8, [-6, 0, 0, 0], 4))
@example((12, [0, -3, 0, 9], 6))
def test_value_doc_is_the_cyc_document(value):
    order, nums, den = value
    cyc = cyc_from_numerators(order, nums, den)
    assert value_doc(order, nums, den) == cyc.to_doc()
    assert value_doc(order, tuple(nums), den) == cyc.to_doc()


@given(axis_values(), st.lists(st.integers(-9, 9), max_size=30))
def test_axis_scalar_is_canonical(value, tail):
    # unreduced input (past phi(order)) with a common factor folded in
    order, nums, den = value
    acc = [3 * x for x in nums + tail]
    got_den, got = axis_scalar(order, acc, 3 * den)
    assert len(got) == euler_phi(order) and got_den > 0
    assert gcd(got_den, *got) == 1
    assert cyc_from_numerators(order, got, got_den) == cyc_from_numerators(order, acc, 3 * den)
    if not any(reduce_mod_phi(order, acc)):
        assert (got_den, got) == (1, (0,) * euler_phi(order))
