import random
from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest

from spinwreath import fock
from spinwreath.fock import (VACUUM, FockContext, FockVector, _inner_monomials, _partners,
                             a_prime_vector, annihilate, coproduct, create, inner, q_gen,
                             tensor_inner)
from spinwreath.gammadata import VirtualChar, builtin, mckay_xi
from spinwreath.partitions import MultiPartition, big_z, multipartitions
from spinwreath.qtable import x_lambda_vector
from spinwreath.scalars import Cyc, CycError, add_into, canonical, euler_phi, times
from spinwreath.vertex import TwistContext

from gamma_reference import at_order, cyc_chars, cyc_from_numerators, cyc_value
from test_scalars import weighted_dot


def ctx_for(name, xi=None):
    g, _ = builtin(name)
    return FockContext(g, xi if xi is not None else VirtualChar.trivial(g))


def cyc_terms(v):
    """A vector's coefficients as `Cyc` values at Gamma's value axis, keyed by
    monomial tuples."""
    return {v.ctx.monos[i]: cyc_from_numerators(v.ctx.axis, c, v.den) for i, c in v.nums.items()}


def as_cyc(ctx, value):
    """A pairing's value (den, numerators) on the axis, as one `Cyc`."""
    den, nums = value
    return cyc_from_numerators(ctx.axis, nums, den)


def is_canonical(ctx, value):
    """(den, numerators): phi(N) numerators over the least positive den."""
    den, nums = value
    return den > 0 and len(nums) == ctx.width and gcd(den, *nums) == 1


def pair(u, v, scale=1):
    """`inner` as one `Cyc`, its value checked to be canonical."""
    value = inner(u, v, scale)
    assert is_canonical(u.ctx, value)
    return as_cyc(u.ctx, value)


def tensor_pair(ctx, t, u, v):
    """`tensor_inner` as one `Cyc`, its value checked to be canonical."""
    value = tensor_inner(ctx, t, u, v)
    assert is_canonical(ctx, value)
    return as_cyc(ctx, value)


def vacuum_coeff(v):
    """The coefficient of the vacuum, as the pairing <1, v>."""
    return pair(FockVector.vacuum(v.ctx), v)


def class_vector(ctx, ci):
    """Test oracle: coefficients gamma_i(c^{-1}) of the class-basis generator
    a_m(c) = sum_i gamma_i(c^{-1}) a_m(gamma_i), which `a_prime_vector`
    reads as integer numerators."""
    inv = ctx.gamma.dual_class(ci)
    return [row[inv] for row in cyc_chars(ctx.gamma)]


def by_class(op, v, n, ci):
    """op (`create` or `annihilate`) with gamma the class generator of ci,
    expanded by linearity: sum_i gamma_i(c^{-1}) op(v, n, e_i)."""
    k = v.ctx.gamma.num_classes
    out = FockVector.zero(v.ctx)
    for i, c in enumerate(class_vector(v.ctx, ci)):
        out = out + op(v, n, [int(t == i) for t in range(k)]).scale(at_order(c))
    return out


def monomials(k, max_degree):
    """Every Fock monomial on k irreducibles of degree at most max_degree."""
    out = []
    for d in range(max_degree + 1):
        for mp in multipartitions(d, k, "OP"):
            out.append(tuple(sorted((n, i) for i, part in enumerate(mp.parts) for n in part)))
    return out


def test_create_basics():
    ctx = ctx_for("trivial")
    vac = FockVector.vacuum(ctx)
    a1 = create(vac, 1, [1])
    assert [ctx.monos[i] for i in a1.nums] == [((1, 0),)]
    # creations commute
    assert create(create(vac, 1, [1]), 3, [1]) == create(create(vac, 3, [1]), 1, [1])
    with pytest.raises(ValueError):
        create(vac, 2, [1])
    with pytest.raises(ValueError):
        annihilate(vac, -1, [1])


def test_create_linear():
    ctx = ctx_for("cyclic:2")
    vac = FockVector.vacuum(ctx)
    v = create(vac, 1, [1, 1])
    assert v == create(vac, 1, [1, 0]) + create(vac, 1, [0, 1])


def test_annihilate_examples():
    ctx = ctx_for("trivial")
    vac = FockVector.vacuum(ctx)
    a1 = create(vac, 1, [1])
    assert vacuum_coeff(annihilate(a1, 1, [1])) == Fraction(1, 2)
    a11 = create(a1, 1, [1])
    assert annihilate(a11, 1, [1]) == a1
    assert annihilate(a1, 3, [1]).is_zero()


def test_heisenberg_relation_small():
    for name, xi in (("trivial", None), ("cyclic:3", None),
                     ("cyclic:3", VirtualChar([3, -1, -1]))):
        ctx = ctx_for(name, xi)
        k = ctx.gamma.num_classes
        basis = [[1 if t == i else 0 for t in range(k)] for i in range(k)]
        monos = monomials(k, 4)
        for i in range(k):
            for j in range(k):
                for m in (1, 3):
                    for n in (1, 3):
                        for mono in monos:
                            v = FockVector(ctx, {mono: 1})
                            lhs = annihilate(create(v, n, basis[j]), m, basis[i]) \
                                - create(annihilate(v, m, basis[i]), n, basis[j])
                            expect = v.scale(Fraction(m, 2) * ctx.gram[i][j]) \
                                if m == n else FockVector.zero(ctx)
                            assert lhs == expect


def test_class_generator_examples():
    ctx = ctx_for("trivial")
    vac = FockVector.vacuum(ctx)
    assert by_class(create, vac, 1, 0) == create(vac, 1, [1])
    ctx2 = ctx_for("cyclic:2")
    vac2 = FockVector.vacuum(ctx2)
    assert by_class(create, vac2, 1, 1) == create(vac2, 1, [1, 0]) - create(vac2, 1, [0, 1])
    # prop_orth: [a_1(c0), a_{-1}(c0)] = 1/2 zeta_c0 xi(c0) = 1 on the vacuum
    assert vacuum_coeff(by_class(annihilate, by_class(create, vac2, 1, 0), 1, 0)) == 1
    # integer coefficient vectors only
    with pytest.raises(TypeError):
        create(vac2, 1, class_vector(ctx2, 1))


def test_prop_orth_all_classes_cyclic3():
    g, _ = builtin("cyclic:3")
    xi = VirtualChar([1, 1, 0])
    assert not xi.is_self_dual(g)
    xi = VirtualChar([2, 1, 1])
    ctx = FockContext(g, xi)
    vac = FockVector.vacuum(ctx)
    for cp in range(3):
        for c in range(3):
            for m in (1, 3, 5):
                for n in (1, 3, 5):
                    v = by_class(annihilate, by_class(create, vac, n, c), m, g.dual_class(cp))
                    if m == n and cp == c:
                        expect = Fraction(m, 2) * g.centralizer_order(c)
                        assert vacuum_coeff(v) == Cyc.lift(expect) * cyc_value(g, xi.coeffs, c)
                    else:
                        assert v.is_zero()


def test_inner_examples():
    ctx = ctx_for("trivial")
    vac = FockVector.vacuum(ctx)
    a1 = create(vac, 1, [1])
    a111 = create(create(a1, 1, [1]), 1, [1])
    assert inner(a111, a111) == (4, (3,))
    assert inner(vac, a1) == (1, (0,))
    rho = MultiPartition([(1,)])
    assert inner(a_prime_vector(ctx, rho), a_prime_vector(ctx, rho)) == (2, (1,))
    ctx3 = ctx_for("cyclic:3")
    a1 = create(FockVector.vacuum(ctx3), 1, [1, 0, 0])
    assert inner(a1.scale(at_order(Cyc.zeta(3))), a1) == (2, (0, 1))
    assert inner(a1, a1, Fraction(1, 8)) == (16, (1, 0))


def test_eq_inner_closed_form():
    for name, xi in (("trivial", None), ("cyclic:2", None),
                     ("cyclic:2", VirtualChar([2, -2])), ("cyclic:3", None)):
        g, _ = builtin(name)
        xi = xi if xi is not None else VirtualChar.trivial(g)
        ctx = FockContext(g, xi)
        k = g.num_classes
        perm = [g.dual_class(i) for i in range(k)]
        for n in range(5):
            for rho in multipartitions(n, k, "OP"):
                for pi in multipartitions(n, k, "OP"):
                    val = pair(a_prime_vector(ctx, pi), a_prime_vector(ctx, rho.relabel(perm)))
                    if pi == rho:
                        expect = Cyc.rational(Fraction(big_z(rho, g.centralizer_orders),
                                                       2 ** rho.length))
                        for ci, part in enumerate(rho.parts):
                            for _ in part:
                                expect = expect * cyc_value(g, xi.coeffs, ci)
                        assert val == expect, (name, rho)
                    else:
                        assert val.is_zero(), (name, rho, pi)


def test_adjointness_random():
    rng = random.Random(4)
    ctx = ctx_for("cyclic:2")
    vac = FockVector.vacuum(ctx)

    def rand_vec(deg):
        v = vac
        d = 0
        while d < deg:
            n = rng.choice([1, 3])
            v = create(v, n, [rng.randint(-2, 2), rng.randint(-2, 2)])
            d += n
        return v

    for _ in range(12):
        u = rand_vec(rng.randint(0, 6))
        v = rand_vec(rng.randint(0, 6))
        n = rng.choice([1, 3])
        gam = [rng.randint(-2, 2), rng.randint(-2, 2)]
        assert inner(create(u, n, gam), v) == inner(u, annihilate(v, n, gam))


def test_q_gen():
    ctx = ctx_for("trivial")
    vac = FockVector.vacuum(ctx)
    a1 = create(vac, 1, [1])
    assert q_gen(ctx, 1, [1]) == a1.scale(2)
    q3 = q_gen(ctx, 3, [1])
    expect = create(create(a1, 1, [1]), 1, [1]).scale(Fraction(4, 3)) \
        + create(vac, 3, [1]).scale(Fraction(2, 3))
    assert q3 == expect
    assert q_gen(ctx, -1, [1]).is_zero()
    assert q_gen(ctx, 0, [1]) == vac


def test_q_multiplicative():
    # q(beta - gamma) = q(beta) series times q(-gamma) series, degree <= 6
    ctx = ctx_for("cyclic:2")
    beta, gamma = [1, 0], [0, 1]
    diff = [1, -1]
    for n in range(7):
        total = FockVector.zero(ctx)
        for m in range(n + 1):
            total = total + q_gen(ctx, m, beta) * q_gen(ctx, n - m, [-1 * c for c in gamma])
        assert total == q_gen(ctx, n, diff), n


def test_coproduct():
    ctx = ctx_for("trivial")
    vac = FockVector.vacuum(ctx)
    a1 = create(vac, 1, [1])
    one, two = ctx.index(((1, 0),)), ctx.index(((1, 0), (1, 0)))
    den, t = coproduct(a1)
    assert den == 1 and t[(one, VACUUM)] == (1,) and t[(VACUUM, one)] == (1,) and len(t) == 2
    a11 = create(a1, 1, [1])
    den2, t2 = coproduct(a11)
    assert den2 == 1
    assert t2[(two, VACUUM)] == (1,)
    assert t2[(one, one)] == (2,)
    # counit: the (full, empty) component recovers the vector
    for mono, c in a11.nums.items():
        assert t2[(mono, VACUUM)] == c
    # over the vector's denominator, with irrational coefficients
    ctx3 = ctx_for("cyclic:3")
    v = FockVector(ctx3, {((1, 1), (1, 1)): at_order(Cyc.zeta(3) / 5), ((3, 2),): Fraction(1, 2)})
    den3, t3 = coproduct(v)
    assert den3 == v.den == 10
    m11, m32 = ctx3.index(((1, 1),)), ctx3.index(((3, 2),))
    assert cyc_from_numerators(3, t3[(m11, m11)], den3) == Cyc.zeta(3) * Fraction(2, 5)
    assert cyc_from_numerators(3, t3[(VACUUM, m32)], den3) == Fraction(1, 2)


def test_pairing_characterization():
    # <f g, h> = <f (x) g, Delta h> on random triples
    rng = random.Random(9)
    ctx = ctx_for("cyclic:3")
    for _ in range(8):
        f = q_gen(ctx, rng.randint(0, 3), [rng.randint(-1, 2) for _ in range(3)])
        g = q_gen(ctx, rng.randint(0, 3), [rng.randint(-1, 2) for _ in range(3)])
        h = q_gen(ctx, rng.randint(0, 6), [rng.randint(-1, 2) for _ in range(3)])
        assert inner(f * g, h) == tensor_inner(ctx, coproduct(h), f, g)


# -- the partner pairing against an all-pairs reference ----------------------------


def all_pairs_inner(u, v):
    """<u, v> over every monomial pair, each valued by normal ordering."""
    total = Cyc.rational(0)
    index = u.ctx.index
    vterms = cyc_terms(v)
    for mu, cu in cyc_terms(u).items():
        for mv, cv in vterms.items():
            total = total + cu * cv * _inner_monomials(u.ctx, index(mu), index(mv))
    return total


def all_pairs_tensor_inner(ctx, t, u, v):
    total = Cyc.rational(0)
    den, nums = t
    for (ml, mr), c in nums.items():
        c = cyc_from_numerators(ctx.axis, c, den)
        lval = all_pairs_inner(FockVector.from_row(ctx, 1, [(ml, 1)]), u)
        rval = all_pairs_inner(FockVector.from_row(ctx, 1, [(mr, 1)]), v)
        total = total + c * lval * rval
    return total


# (group, weight): the standard and McKay weights, a non-diagonal self-dual xi on
# klein4, and xi = 1,2,0 on cyclic:3, whose Gram matrix is not symmetric, so
# the pairing must read gram[i][j] with i from the left monomial
PAIRING_CASES = [("trivial", "standard"), ("cyclic:3", "standard"), ("cyclic:3", "mckay"),
                 ("cyclic:3", "1,2,0"), ("klein4", "standard"), ("klein4", "1,2,0,-1"),
                 ("quaternion8", "standard"), ("quaternion8", "mckay")]


def pairing_ctx(name, weight):
    g, _ = builtin(name)
    if weight == "standard":
        return FockContext(g, VirtualChar.trivial(g))
    if weight == "mckay":
        return FockContext(g, mckay_xi(g))
    return FockContext(g, VirtualChar([int(x) for x in weight.split(",")]))


@pytest.mark.parametrize("name,weight", PAIRING_CASES)
def test_partner_pairing_matches_all_pairs(name, weight):
    rng = random.Random(f"{name}:{weight}")
    ctx = pairing_ctx(name, weight)
    order = ctx.gamma.axis
    monos = monomials(ctx.gamma.num_classes, 5)

    def rand_vec(pool, size):
        coeffs = {}
        for m in rng.sample(pool, min(size, len(pool))):
            coeffs[m] = at_order(Cyc(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                             for _ in range(euler_phi(order))]))
        return FockVector(ctx, coeffs)

    # monomials of every degree up to 5, so degree profiles mix; one side
    # much larger than the other, both ways round
    values = []
    for small, large in ((2, 60), (25, 25), (1, len(monos)), (3, len(monos))):
        u, v = rand_vec(monos, small), rand_vec(monos, large)
        for a, b in ((u, v), (v, u)):
            values.append(all_pairs_inner(a, b))
            assert pair(a, b) == values[-1]
    assert any(not x.is_zero() for x in values)
    values = []
    low = monomials(ctx.gamma.num_classes, 3)
    for size in (3, 12):
        t = coproduct(rand_vec(monos, size))
        f, g = rand_vec(low, len(low)), rand_vec(low, rng.choice((2, len(low))))
        values.append(all_pairs_tensor_inner(ctx, t, f, g))
        assert tensor_pair(ctx, t, f, g) == values[-1]
    assert any(not x.is_zero() for x in values)


@pytest.mark.parametrize("name,weight", PAIRING_CASES)
def test_a_vector_paired_many_times_reads_its_dual(name, weight):
    # v's dual is filled by the pairings that ask for it: each later pairing
    # reads entries an earlier one left, with v on either side of inner and
    # in either tensor factor
    rng = random.Random(f"dual {name}:{weight}")
    ctx = pairing_ctx(name, weight)
    order = ctx.gamma.axis
    monos = monomials(ctx.gamma.num_classes, 3)

    def rand_vec(size):
        return FockVector(ctx, {m: at_order(Cyc(order, [Fraction(rng.randint(-3, 3),
                                                                 rng.randint(1, 3))
                                                        for _ in range(euler_phi(order))]))
                                for m in rng.sample(monos, min(size, len(monos)))})

    v = rand_vec(len(monos) // 2)
    assert v._dual is None
    values = []
    for size in (1, 4, 12, len(monos)):
        u = rand_vec(size)
        assert pair(u, v) == all_pairs_inner(u, v) and set(u.nums) <= set(v.dual())
        assert pair(v, u) == all_pairs_inner(v, u)
        t = coproduct(rand_vec(3))
        for a, b in ((u, v), (v, u)):
            values.append(all_pairs_tensor_inner(ctx, t, a, b))
            assert tensor_pair(ctx, t, a, b) == values[-1]
    assert any(not x.is_zero() for x in values)


def test_a_second_pass_of_one_column_values_no_partner_sum(monkeypatch):
    g, _ = builtin("quaternion8")
    tctx = TwistContext(g, VirtualChar.trivial(g))
    rows = [x_lambda_vector(tctx, lam) for lam in multipartitions(3, g.num_classes, "SP")]
    a_vec = a_prime_vector(tctx.fock, MultiPartition.single(g.num_classes, 0, (1, 1, 1)))
    asked = []
    partner_sum = fock._partner_sum
    monkeypatch.setattr(fock, "_partner_sum", lambda *a: asked.append(a[1]) or partner_sum(*a))
    first = [inner(x, a_vec) for x in rows]
    row_monos = {m for x in rows for m in x.nums}
    # one call per monomial the rows hold, and only those: the dual is not
    # filled from a_vec's side
    assert sorted(asked) == sorted(row_monos) and set(a_vec.dual()) == row_monos
    assert [inner(x, a_vec) for x in rows] == first and len(asked) == len(row_monos)
    assert any(any(nums) for _, nums in first)


# -- the factor tables against tuple-keyed references -------------------------------
#
# `create`, `annihilate` and the product run on the context's monomial
# numbering and factor tables, which the row engine of `vertex` reads too (so
# the ladder and X references of test_vertex.py share them).  These references
# keep monomials as sorted tuples and insert, remove and merge factors by
# hand, sharing neither the numbering nor the tables.


def tuple_form(v):
    """A vector as (den, {monomial tuple: numerators})."""
    return v.den, {v.ctx.monos[i]: c for i, c in v.nums.items()}


def reference_create(v, n, coeffs):
    """a_{-n}(gamma) v on monomial tuples: the factor (n, i) inserted in
    sorted position, weighted by coeffs[i]."""
    den, nums = tuple_form(v)
    out = {}
    for i, ci in enumerate(coeffs):
        if ci:
            for m, c in nums.items():
                lo = bisect_left(m, (n, i))
                add_into(out, m[:lo] + ((n, i),) + m[lo:], tuple(ci * x for x in c))
    return canonical(den, out)


def reference_annihilate(ctx, v, n, coeffs):
    """a_n(gamma) v on monomial tuples: a factor (n, j) of multiplicity k goes
    with weight n k <gamma, gamma_j>_xi, over 2 den."""
    den, nums = tuple_form(v)
    k = len(ctx.gram)
    row = [sum(coeffs[i] * ctx.gram[i][j] for i in range(k)) for j in range(k)]
    out = {}
    for m, c in nums.items():
        for pos, f in enumerate(m):
            if f[0] == n and row[f[1]] and (pos == 0 or m[pos - 1] != f):
                w = n * m.count(f) * row[f[1]]
                add_into(out, m[:pos] + m[pos + 1:], tuple(w * x for x in c))
    return canonical(2 * den, out)


def reference_product(ctx, u, v):
    """u v on monomial tuples: each pair of monomials concatenated and sorted."""
    (du, nu), (dv, nv) = tuple_form(u), tuple_form(v)
    out = {}
    for ma, ca in nu.items():
        for mb, cb in nv.items():
            add_into(out, tuple(sorted(ma + mb)), times(ctx.axis, ca, cb))
    return canonical(du * dv, out)


@pytest.mark.parametrize("name,weight", [
    ("cyclic:3", "standard"), ("cyclic:3", "mckay"), ("cyclic:4", "standard"),
    ("cyclic:4", "mckay"), ("klein4", "standard"), ("quaternion8", "standard")])
def test_factor_tables_match_the_tuple_references(name, weight):
    rng = random.Random(f"factor tables {name}:{weight}")
    ctx = pairing_ctx(name, weight)
    order = ctx.gamma.axis
    k = ctx.gamma.num_classes
    monos = monomials(k, 5)

    def rand_vec(size):
        return FockVector(ctx, {m: at_order(Cyc(order, [Fraction(rng.randint(-3, 3),
                                                                 rng.randint(1, 3))
                                                        for _ in range(euler_phi(order))]))
                                for m in rng.sample(monos, min(size, len(monos)))})

    nonzero = irrational = 0
    for _ in range(30):
        v = rand_vec(rng.choice((1, 5, 20)))
        n = rng.choice((1, 3, 5))
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        for got, expect in ((create(v, n, coeffs), reference_create(v, n, coeffs)),
                            (annihilate(v, n, coeffs), reference_annihilate(ctx, v, n, coeffs))):
            assert tuple_form(got) == expect, (n, coeffs)
            nonzero += bool(expect[1])
        u = rand_vec(rng.choice((1, 4, 12)))
        got = u * v
        assert tuple_form(got) == reference_product(ctx, u, v)
        irrational += sum(any(c[1:]) for c in got.nums.values())
    assert nonzero > 30  # the comparisons are not vacuous
    assert (irrational > 0) == (ctx.axis > 1)


# -- the integer routes against the Cyc routes they replaced ------------------------


def create_product_a_prime(ctx, rho):
    """a'_{-rho} as a product of `create` calls on the class generators."""
    v = FockVector.vacuum(ctx)
    for ci, part in enumerate(rho.parts):
        for r in part:
            v = by_class(create, v, r, ci)
    return v


@pytest.mark.parametrize("name", ["cyclic:3", "cyclic:4", "cyclic:6", "klein4", "quaternion8"])
def test_a_prime_vector_matches_the_create_product(name):
    ctx = ctx_for(name)
    irrational = 0
    for n in range(4):
        for rho in multipartitions(n, ctx.gamma.num_classes, "OP"):
            got, expect = a_prime_vector(ctx, rho), create_product_a_prime(ctx, rho)
            assert sorted(got.nums) == sorted(expect.nums), rho
            assert got == expect, rho
            irrational += sum(any(c[1:]) for c in got.nums.values())
    assert (irrational > 0) == (ctx.axis > 1)
    with pytest.raises(ValueError, match="odd parts"):
        a_prime_vector(ctx, MultiPartition.single(ctx.gamma.num_classes, 0, (2,)))


def weighted_dot_pairings(ctx, mu, v):
    """(<mu, mv>, v_mv) over the partners mv of mu (an index) present in v,
    nonzero."""
    out = []
    terms = cyc_terms(v)
    for mv in _partners(ctx, mu):
        c = terms.get(ctx.monos[mv])
        if c is not None:
            w = _inner_monomials(ctx, mu, mv)
            if w:
                out.append((w, c))
    return out


def weighted_dot_inner(u, v):
    """`inner` as one `scalars.weighted_dot` over the partner pairings."""
    return weighted_dot((w, cu, cv) for mu, cu in cyc_terms(u).items()
                        for w, cv in weighted_dot_pairings(u.ctx, u.ctx.index(mu), v))


def weighted_dot_tensor_inner(ctx, t, u, v):
    terms = []
    den, nums = t
    for (ml, mr), c in nums.items():
        c = cyc_from_numerators(ctx.axis, c, den)
        left = weighted_dot_pairings(ctx, ml, u)
        if left:
            right = weighted_dot_pairings(ctx, mr, v)
            terms += [(wl * wr, c, cl * cr) for wl, cl in left for wr, cr in right]
    return weighted_dot(terms)


@pytest.mark.parametrize("name,order", [("cyclic:3", 3), ("cyclic:4", 4)])
def test_integer_pairing_matches_the_weighted_dot_route(name, order):
    rng = random.Random(f"integer pairing {name}")
    ctx = pairing_ctx(name, "mckay")
    assert any(len(links) > 1 for links in ctx.links)  # the Gram matrix is not diagonal
    k = ctx.gamma.num_classes

    def rand_vec(pool, size, rational_share=0.25):
        coeffs = {}
        for m in rng.sample(pool, min(size, len(pool))):
            if rng.random() < rational_share:
                coeffs[m] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            else:
                coeffs[m] = at_order(Cyc(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                                 for _ in range(euler_phi(order))]))
        return FockVector(ctx, coeffs)

    monos, low = monomials(k, 4), monomials(k, 2)
    # partners keep the degree, so the last vector meets the rational one
    # before it only on its rational coefficients, at degrees <= 2
    split = rand_vec(low, 8, 1) + rand_vec([m for m in monos if m not in low], 20, 0)
    vecs = [rand_vec(monos, size) for size in (1, 4, 12, 40, len(monos))]
    vecs += [rand_vec(low, len(low), 1), split]
    values = []
    # every vector is paired many times, on either side, after its first pairing
    for u in vecs:
        for v in vecs:
            got, expect = pair(u, v), weighted_dot_inner(u, v)
            assert got == expect
            assert pair(u, v, Fraction(1, 8)) == expect * Fraction(1, 8)
            values.append(got)
    assert any(x.as_rational() is None for x in values)
    assert values[-2] and values[-2].as_rational() is not None  # though split is not rational
    # tensor factors of different top lengths; rational factors under an
    # irrational coproduct
    for rational_share in (0.25, 1):
        f = rand_vec(monomials(k, 3), 40, rational_share)
        g = rand_vec(monomials(k, 1), k + 1, rational_share)
        for size in (3, 12):
            t = coproduct(rand_vec(monos, size, 0.25 if rational_share < 1 else 0))
            for a, b in ((f, g), (g, f), (f, f)):
                got = tensor_pair(ctx, t, a, b)
                expect = weighted_dot_tensor_inner(ctx, t, a, b)
                assert got == expect
                values.append(got)
        assert any(x.as_rational() is None for x in values[-6:])


@pytest.mark.parametrize("name", ["cyclic:3", "quaternion8"])
def test_standard_weight_pairs_equal_monomials_only(name):
    ctx = pairing_ctx(name, "standard")
    for mu in map(ctx.index, monomials(ctx.gamma.num_classes, 5)):
        assert _partners(ctx, mu) == [mu]


def test_degenerate_radical_stable():
    # with the McKay weight on cyclic(2) the radical is spanned by g0+g1;
    # the ideal it generates is stable under annihilation
    g, _ = builtin("cyclic:2")
    ctx = FockContext(g, mckay_xi(g))
    vac = FockVector.vacuum(ctx)

    def in_radical_ideal(v):
        # substitute a(g1) = a(u) - a(g0) with u = g0 + g1; membership means
        # every monomial keeps at least one u factor
        subs = {}
        for mono, c in cyc_terms(v).items():
            expansions = [((), Cyc.rational(1))]
            for (n, i) in mono:
                new = []
                for tail, coef in expansions:
                    if i == 0:
                        new.append((tail + ((n, "g0"),), coef))
                    else:
                        new.append((tail + ((n, "u"),), coef))
                        new.append((tail + ((n, "g0"),), coef * -1))
                expansions = new
            for tail, coef in expansions:
                key = tuple(sorted(tail, key=repr))
                subs[key] = subs.get(key, Cyc.rational(0)) + c * coef
        return all(v2.is_zero() or any(t[1] == "u" for t in key)
                   for key, v2 in subs.items())

    rad = create(vac, 1, [1, 1])
    elem = create(rad, 3, [1, 0])  # radical generator times something
    assert in_radical_ideal(elem)
    for n in (1, 3):
        for gam in ([1, 0], [0, 1], [2, -1]):
            assert in_radical_ideal(annihilate(elem, n, gam))


def test_a_scalar_outside_the_value_field_is_refused():
    # quaternion8's character values are rational, so its vectors hold
    # rational coefficients only
    ctx = ctx_for("quaternion8")
    assert ctx.axis == 1
    with pytest.raises(CycError):
        FockVector(ctx, {(): at_order(Cyc.zeta(4))})
    with pytest.raises(CycError):
        FockVector.vacuum(ctx).scale(at_order(Cyc.zeta(4)))
    assert FockVector.vacuum(ctx).scale(at_order(Cyc.zeta(4) * Cyc.zeta(4))) \
        == FockVector(ctx, {(): -1})


def test_context_mismatch():
    c1 = ctx_for("trivial")
    c2 = ctx_for("trivial")
    with pytest.raises(ValueError):
        inner(FockVector.vacuum(c1), FockVector.vacuum(c2))
