import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwreath.classfun import (SpinClassFun, basic_char, ch, induction_product,
                                 sigma_class, sigma_rho, weighted_inner)
from spinwreath.fock import (FockContext, FockVector, coproduct, create, inner, q_gen,
                             tensor_inner)
from spinwreath.gammadata import VirtualChar, builtin, mckay_xi
from spinwreath.partitions import MultiPartition, big_z, multipartitions
from spinwreath.scalars import Cyc, CycError, cyc_from_numerators, euler_phi
from gamma_reference import cyc_value
from test_fock import by_class


def setup(name, xi=None):
    g, _ = builtin(name)
    xi = xi if xi is not None else VirtualChar.trivial(g)
    return g, xi, FockContext(g, xi)


def as_cyc(g, value):
    """A value (den, numerators) on Gamma's value axis, as one `Cyc`."""
    den, nums = value
    return cyc_from_numerators(g.value_numerators[0], nums, den)


def test_weighted_inner_examples():
    g, xi, ctx = setup("trivial")
    f = basic_char(g, 1, [1])
    assert weighted_inner(f, f, xi) == (1, (2,))
    s1 = sigma_class(g, 1, 0)
    assert weighted_inner(s1, s1, xi) == (2, (1,))
    # disjoint support pairs to zero
    g2, xi2, _ = setup("cyclic:2")
    a = SpinClassFun(g2, 1, {MultiPartition.single(2, 0, (1,)): Cyc.rational(1)})
    b = SpinClassFun(g2, 1, {MultiPartition.single(2, 1, (1,)): Cyc.rational(1)})
    assert weighted_inner(a, b, xi2) == (1, (0,))
    # an irrational value on cyclic:3's axis, over its least denominator
    g3, xi3, _ = setup("cyclic:3")
    rho = MultiPartition.single(3, 0, (1,))
    c = SpinClassFun(g3, 1, {rho: Cyc.zeta(3) * Fraction(2, 3)})
    assert weighted_inner(c, SpinClassFun(g3, 1, {rho: 1}), xi3) == (9, (0, 1))
    with pytest.raises(ValueError):
        weighted_inner(basic_char(g, 1, [1]), basic_char(g, 2, [1]), xi)


def test_class_function_values_are_canonical_numerators():
    g, _, _ = setup("cyclic:3")
    one, rho, sigma = (MultiPartition.single(3, ci, (1,)) for ci in range(3))
    f = SpinClassFun(g, 1, {rho: Cyc.zeta(3) / 4, sigma: Fraction(1, 6), one: 0})
    assert (f.den, f.nums) == (12, {rho: (0, 3), sigma: (2, 0)})  # no zero is stored
    assert f.value(rho) == Cyc.zeta(3) / 4 and f.value(sigma) == Fraction(1, 6)
    assert f.value(one) == 0
    assert f == SpinClassFun(g, 1, {sigma: Cyc.rational(Fraction(2, 12)), rho: Cyc.zeta(3) / 4})
    assert f != SpinClassFun(g, 1, {rho: Cyc.zeta(3) / 4})
    with pytest.raises(ValueError, match="value at weight 1 in degree 2"):
        SpinClassFun(g, 2, {rho: 1})
    # a value outside Gamma's value field is refused, as a Fock vector's is
    with pytest.raises(CycError, match="cannot promote order 4 into order 3"):
        SpinClassFun(g, 1, {rho: Cyc.zeta(4)})


def test_basic_char_values():
    g, _, _ = setup("trivial")
    f3 = basic_char(g, 3, [1])
    assert f3.value(MultiPartition([(1, 1, 1)])) == 8
    assert f3.value(MultiPartition([(3,)])) == 2
    g2, _, _ = setup("cyclic:2")
    f = basic_char(g2, 3, [0, 1])  # gamma_1
    rho = MultiPartition([(1,), (1, 1)])
    assert f.value(rho) == 8  # 2^3 * 1 * (-1)^2
    rho2 = MultiPartition([(1, 1), (1,)])
    assert f.value(rho2) == -8


def alternating_induction_sum(g, n, beta, gamma_c):
    """sum_m (-1)^m chi_{n-m}(beta) . chi_m(gamma_c) as a value map."""
    out = {}
    for m in range(n + 1):
        term = induction_product(basic_char(g, n - m, beta), basic_char(g, m, gamma_c))
        for rho in term.nums:
            out[rho] = out.get(rho, Cyc.rational(0)) + term.value(rho) * (-1) ** m
    return SpinClassFun(g, n, out)


def test_basic_char_virtual_consistency():
    # the basic character of a virtual character beta - gamma is the
    # alternating induction sum of the basic characters of beta and gamma
    g2, _, _ = setup("cyclic:2")
    for n in range(5):
        closed = basic_char(g2, n, [1, -1])
        assert closed == alternating_induction_sum(g2, n, [1, 0], [0, 1])
    for n in (1, 2, 3):
        assert not alternating_induction_sum(g2, n, [1, 0], [1, 0]).nums


def test_sigma():
    g, xi, _ = setup("trivial")
    s3 = sigma_class(g, 3, 0)
    assert s3.value(MultiPartition([(3,)])) == 3
    assert s3.value(MultiPartition([(1, 1, 1)])).is_zero()
    with pytest.raises(ValueError):
        sigma_class(g, 2, 0)
    for rho in multipartitions(5, 1, "OP"):
        sr = sigma_rho(g, rho)
        assert sr.value(rho) == big_z(rho, g.centralizer_orders)
        assert len(sr.nums) == 1


def test_induction_product():
    g, xi, ctx = setup("trivial")
    s1 = sigma_class(g, 1, 0)
    p = induction_product(s1, s1)
    assert p.value(MultiPartition([(1, 1)])) == 2 and len(p.nums) == 1
    f = sigma_rho(g, MultiPartition([(3, 1)]))
    h = sigma_rho(g, MultiPartition([(1, 1)]))
    assert induction_product(f, h) == induction_product(h, f)
    one = SpinClassFun.unit(g)
    assert induction_product(one, f) == f
    # product path equals the Fock-side product (standing prop_hopf test)
    assert ch(ctx, induction_product(f, h)) == ch(ctx, f) * ch(ctx, h)


def test_ch_examples():
    g, xi, ctx = setup("trivial")
    vac = FockVector.vacuum(ctx)
    assert ch(ctx, sigma_class(g, 3, 0)) == create(vac, 3, [1])
    for n in range(6):
        assert ch(ctx, basic_char(g, n, [1])) == q_gen(ctx, n, [1])
    # ch sends sigma_rho to the class-basis product with the bar relabel
    g3, xi3, ctx3 = setup("cyclic:3")
    vac3 = FockVector.vacuum(ctx3)
    got = ch(ctx3, sigma_class(g3, 1, 1))
    assert got == by_class(create, vac3, 1, 2)  # c_1 lands on a(c_1^{-1}) = a(c_2)


def test_ch_chi_dual_twist():
    # for non-self-dual gamma the exponential generating image carries the
    # dual character: ch(chi_n(gamma)) = q_n(gamma conjugated)
    g3, xi3, ctx3 = setup("cyclic:3")
    for n in range(4):
        lhs = ch(ctx3, basic_char(g3, n, [0, 1, 0]))
        rhs = q_gen(ctx3, n, [0, 0, 1])
        assert lhs == rhs, n


def test_ch_isometry():
    for name, xis in (("trivial", [None]),
                      ("cyclic:3", [None, VirtualChar([3, -1, -1])])):
        for xi in xis:
            g, xi, ctx = setup(name, xi)
            k = g.num_classes
            for n in range(5):
                rhos = list(multipartitions(n, k, "OP"))
                sigs = {r: sigma_rho(g, r) for r in rhos}
                chs = {r: ch(ctx, sigs[r]) for r in rhos}
                for r1 in rhos:
                    for r2 in rhos:
                        assert weighted_inner(sigs[r1], sigs[r2], xi) \
                            == inner(chs[r1], chs[r2])


def test_hopf_adjointness_random():
    rng = random.Random(13)
    g, xi, ctx = setup("cyclic:2")
    k = 2

    def rand_fun(n):
        return SpinClassFun(g, n, {rho: Cyc.rational(rng.randint(-3, 3))
                                   for rho in multipartitions(n, k, "OP")})

    for _ in range(6):
        na, nb = rng.randint(0, 2), rng.randint(0, 3)
        f, gg = rand_fun(na), rand_fun(nb)
        h = rand_fun(na + nb)
        # <f.g, h> on the group side is <f (x) g, Delta h> on the Fock side
        lhs = weighted_inner(induction_product(f, gg), h, xi)
        rhs = tensor_inner(ctx, coproduct(ch(ctx, h)), ch(ctx, f), ch(ctx, gg))
        assert lhs == rhs


# -- weighted_inner against the per-term Cyc loop it replaced ---------------------


def reference_weighted_inner(f, g, xi):
    """The form term by term in Cyc arithmetic, relabelling rho and taking
    big_z for every term."""
    gamma = f.gamma
    zetas = gamma.centralizer_orders
    perm = [gamma.dual_class(i) for i in range(gamma.num_classes)]
    total = Cyc.rational(0)
    for rho in f.nums:
        fval = f.value(rho)
        gval = g.value(rho.relabel(perm))
        if gval.is_zero():
            continue
        weight = Cyc.rational(1)
        for ci, part in enumerate(rho.parts):
            for _ in part:
                weight = weight * cyc_value(gamma, xi.coeffs, ci)
        if weight.is_zero():
            continue
        denom = Fraction(2 ** rho.length * big_z(rho, zetas))
        total = total + fval * gval * weight / denom
    return total


def random_value(rng, order):
    """A nonzero rational (order 1) or a random element of Q(zeta_order),
    with coefficients that have denominators."""
    def q():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 9]))

    if order > 1 and rng.random() < 0.5:
        return Cyc(order, [q() for _ in range(euler_phi(order))])
    return Cyc.rational(q() or 1)


def random_pair(rng, g, n, support):
    """Two degree-n functions: each with one value ("sparse"), on every class
    ("dense"), or with supports that no rho_bar links ("disjoint")."""
    rhos = list(multipartitions(n, g.num_classes, "OP"))
    order = g.value_numerators[0]  # Gamma's value field: Q for quaternion8

    def fun(keys):
        return SpinClassFun(g, n, {rho: random_value(rng, order) for rho in keys})

    if support == "sparse":
        return fun([rng.choice(rhos)]), fun([rng.choice(rhos)])
    if support == "dense":
        return fun(rhos), fun(rhos)
    perm = [g.dual_class(i) for i in range(g.num_classes)]
    left = rng.sample(rhos, max(1, len(rhos) // 2))
    linked = {rho.relabel(perm) for rho in left}
    return fun(left), fun([rho for rho in rhos if rho not in linked])


XIS = [("trivial", "standard"), ("cyclic:3", "standard"), ("cyclic:3", "mckay"),
       ("cyclic:5", "standard"), ("cyclic:5", "0,1,0,0,1"), ("klein4", "standard"),
       ("quaternion8", "standard")]


@pytest.mark.parametrize("support", ["sparse", "dense", "disjoint"])
@pytest.mark.parametrize("name,xi_spec", XIS)
def test_weighted_inner_matches_the_per_term_loop(name, xi_spec, support):
    g, _ = builtin(name)
    if xi_spec == "standard":
        xi = VirtualChar.trivial(g)
    elif xi_spec == "mckay":
        xi = mckay_xi(g)
    else:
        xi = VirtualChar([int(c) for c in xi_spec.split(",")])
        assert xi.is_self_dual(g)
        assert any(any(xi.value_at(g, ci)[1][1:]) for ci in range(g.num_classes))
    rng = random.Random(f"{name}/{xi_spec}/{support}")
    for n in range(4 if g.num_classes < 5 else 3):
        for _ in range(3):
            f, h = random_pair(rng, g, n, support)
            got = weighted_inner(f, h, xi)
            den, nums = got
            assert len(nums) == euler_phi(g.value_numerators[0]) and gcd(den, *nums) == 1
            assert as_cyc(g, got) == reference_weighted_inner(f, h, xi), (n, f, h)
            if support == "disjoint":
                assert got == (1, (0,) * len(nums))


# -- the weighted dual: one fill per (function, xi) --------------------------------


def test_table_check_fills_one_dual_per_row(monkeypatch):
    from spinwreath import classfun
    from spinwreath.qtable import build_table, verify_table
    g, _ = builtin("cyclic:3")
    table = build_table(g, 2)
    fills = []
    real = classfun.on_one_denominator
    monkeypatch.setattr(classfun, "on_one_denominator",
                        lambda values: fills.append(len(values)) or real(values))
    verify_table(table)
    assert len(fills) == len(table.rows) > 1
    xi0 = VirtualChar.trivial(g)
    duals = [row.values._dual for row in table.rows]
    assert all(list(d) == [xi0] for d in duals)
    kept = [d[xi0] for d in duals]
    verify_table(table)  # the second check reads the kept duals
    assert len(fills) == len(table.rows)
    assert all(d[xi0] is k for d, k in zip(duals, kept))


def test_weighted_dual_is_kept_per_weight():
    # standard and non-self-dual weights on one pair of functions, in both
    # orders: the dual is keyed by rho_bar, and a second weight keeps its own
    g, _ = builtin("cyclic:3")
    xis = [VirtualChar.trivial(g), VirtualChar([0, 1, 0])]
    assert not xis[1].is_self_dual(g)
    rng = random.Random("cyclic:3/weights")
    for n in range(1, 4):
        f, h = random_pair(rng, g, n, "dense")
        for xi in xis:
            for left, right in ((f, h), (h, f)):
                assert as_cyc(g, weighted_inner(left, right, xi)) \
                    == reference_weighted_inner(left, right, xi), (n, xi)
        assert set(f._dual) == set(h._dual) == set(xis)
    # f at a non-real class pairs with h at the inverse class only
    rho, rho_bar = (MultiPartition.single(3, ci, (1,)) for ci in (1, 2))
    f = SpinClassFun(g, 1, {rho: 1})
    h = SpinClassFun(g, 1, {rho_bar: Cyc.zeta(3)})
    assert weighted_inner(f, h, xis[0]) == (6, (0, 1))
    assert weighted_inner(f, f, xis[0]) == (1, (0, 0))


# -- symmetry at the standard weight ------------------------------------------------


def values_on_axis(order):
    """Values in Q(zeta_order), irrational when order > 1: each has a nonzero
    zeta_order coefficient."""
    q = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    if order == 1:
        return q
    width = euler_phi(order)
    return st.lists(q, min_size=width, max_size=width).map(
        lambda c: Cyc(order, [c[0], c[1] or 1, *c[2:]]))


@pytest.mark.parametrize("name", ["cyclic:3", "cyclic:5", "klein4", "quaternion8"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_weighted_inner_is_symmetric_at_the_standard_weight(name, data):
    # rho -> rho_bar keeps 2^l(rho) Z_rho and the standard weight, so the
    # pairing is symmetric on any values; cyclic:3 and cyclic:5 have non-real
    # classes, where rho_bar != rho
    g, xi, _ = setup(name)
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    rhos = list(multipartitions(n, g.num_classes, "OP"))
    values = st.dictionaries(st.sampled_from(rhos), values_on_axis(g.value_numerators[0]),
                             min_size=1, max_size=len(rhos))
    f = SpinClassFun(g, n, data.draw(values, label="f"))
    h = SpinClassFun(g, n, data.draw(values, label="h"))
    assert weighted_inner(f, h, xi) == weighted_inner(h, f, xi)
