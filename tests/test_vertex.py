import random
from fractions import Fraction

import pytest

from spinwreath.fock import FockVector, create, inner, mono_degree, q_gen
from spinwreath.gammadata import VirtualChar, builtin, mckay_xi
from spinwreath.scalars import Cyc
from spinwreath.vertex import (TwistContext, TwistedVector, X,
                               affine_relation_check, anticommutator,
                               clifford_check, commutator, heis_component, neg,
                               ope_check, prim_commutator_check, x_component,
                               x_parity_check)
import spinwreath.vertex as vx


def tctx_for(name, xi=None):
    g, _ = builtin(name)
    return TwistContext(g, xi if xi is not None else VirtualChar.trivial(g))


def test_x_kills_vacuum_positive_components():
    t = tctx_for("trivial")
    vac = TwistedVector.vacuum(t)
    for n in (1, 2, 3):
        assert x_component(t, n, (1,), vac).is_zero()


def test_x0_translates_with_cocycle_sign():
    t = tctx_for("cyclic:2")
    for mask in range(4):
        vac = TwistedVector.vacuum(t, mask)
        out = x_component(t, 0, (0, 1), vac)
        sign = t.twist.epsilon_masks(2, mask)
        assert out.terms == {(mask ^ 2, ()): out.terms[(mask ^ 2, ())]}
        assert out.terms[(mask ^ 2, ())] == sign


def test_x_minus1_is_q1():
    t = tctx_for("trivial")
    vac = TwistedVector.vacuum(t)
    out = x_component(t, -1, (1,), vac)
    assert list(out.terms) == [(1, ((1, 0),))]
    assert out.terms[(1, ((1, 0),))] == 2


def test_x_degree_shift():
    t = tctx_for("cyclic:2")
    rng = random.Random(1)
    vac = TwistedVector.vacuum(t)
    v = x_component(t, -3, (1, 0), x_component(t, -2, (0, 1), vac))
    d = v.max_degree()
    for m in (-2, -1, 0, 1, 2):
        out = x_component(t, m, (1, 1), v)
        if not out.is_zero():
            assert out.max_degree() == d - m


def test_x_parity():
    for name in ("trivial", "cyclic:2"):
        t = tctx_for(name)
        gam = tuple(1 if i == 0 else 0 for i in range(t.gamma.num_classes))
        assert x_parity_check(t, gam, 3, 3).status == "pass"


def test_prim_commutator():
    t = tctx_for("trivial")
    r = prim_commutator_check(t, (1,), (1,), 1, 2, 3)
    assert r.status == "pass"
    r = prim_commutator_check(t, (1,), (1,), -3, 2, 3)
    assert r.status == "pass"
    t2 = tctx_for("cyclic:2", mckay_xi(builtin("cyclic:2")[0]))
    # orthogonal arguments commute: <g0+g1, g0-g1> = 0 under the McKay form?
    # gram = [[2,-2],[-2,2]]: (1,1) pairs to 0 with everything
    assert t2.pairing((1, 1), (1, 0)) == 0
    r = prim_commutator_check(t2, (1, 1), (1, 0), 1, 2, 3)
    assert r.status == "pass"


def test_clifford_vacuum_instances():
    t = tctx_for("trivial")
    vac = TwistedVector.vacuum(t)
    one = (1,)
    assert anticommutator(X(t, 0, one), X(t, 0, neg(one)), vac) == vac.scale(2)
    assert anticommutator(X(t, 1, one), X(t, -1, one), vac) == vac.scale(-2)


def test_clifford_families_small():
    for name in ("trivial", "cyclic:2"):
        t = tctx_for(name)
        res = clifford_check(t, window=2, max_degree=3)
        assert res[-1].status == "pass", res
    with pytest.raises(ValueError):
        g2, _ = builtin("cyclic:2")
        clifford_check(TwistContext(g2, mckay_xi(g2)), 1, 1)


def test_ope():
    t = tctx_for("trivial")
    assert ope_check(t, (1,), (1,), cutoff=3, max_degree=3).status == "pass"
    t2m = tctx_for("cyclic:2", mckay_xi(builtin("cyclic:2")[0]))
    # kappa = 0 pair: exact equality of the product with the normal order
    assert t2m.pairing((1, 1), (1, 0)) == 0
    assert ope_check(t2m, (1, 1), (1, 0), cutoff=2, max_degree=2).status == "pass"
    # negative pairing, binomial series side
    assert ope_check(t2m, (1, 0), (0, 1), cutoff=3, max_degree=3).status == "pass"


def test_xx_bracket_instances():
    g2, _ = builtin("cyclic:2")
    t = TwistContext(g2, mckay_xi(g2))
    vac = TwistedVector.vacuum(t)
    g1 = t.basis_vector(1)
    # central term: [x_1, x_{-1}(-a)] = 4 on the vacuum (n = 1)
    assert commutator(X(t, 1, g1), X(t, -1, neg(g1)), vac) == vac.scale(4)
    # h term: [x_0, x_{-1}(-a)] = 8 a_{-1}
    lhs = commutator(X(t, 0, g1), X(t, -1, neg(g1)), vac)
    assert lhs == heis_component(t, -1, g1, vac).scale(8)


def test_affine_families_small():
    g2, _ = builtin("cyclic:2")
    t2 = TwistContext(g2, mckay_xi(g2))
    for r in affine_relation_check(t2, [0, 1], window=2, max_degree=3):
        assert r.status == "pass", r
    for r in affine_relation_check(t2, [1], window=2, max_degree=3):
        assert r.status == "pass", r
    g3, _ = builtin("cyclic:3")
    t3 = TwistContext(g3, mckay_xi(g3))
    for r in affine_relation_check(t3, [0, 1, 2], window=2, max_degree=2):
        assert r.status == "pass", r


def test_h_even_is_zero():
    t = tctx_for("cyclic:2")
    v = x_component(t, -2, (1, 0), TwistedVector.vacuum(t))
    for m in (-2, 0, 2):
        assert heis_component(t, m, (1, 0), v).is_zero()


def test_checker_catches_wrong_relation():
    # the instance engine must reject a deliberately wrong identity
    from spinwreath.vertex import _check_instance, _panel_monomials, _x_layer

    t = tctx_for("cyclic:2", mckay_xi(builtin("cyclic:2")[0]))
    monos = _panel_monomials(t, 2)
    g1 = t.basis_vector(1)
    xa = _x_layer(t, 1, g1)
    xb = _x_layer(t, -1, neg(g1))
    # correct central coefficient is 4, claim 8 instead
    terms = [(Fraction(1), (xa, xb)), (Fraction(-1), (xb, xa)), (Fraction(-8), ())]
    witness = _check_instance(t, terms, monos)
    assert witness is not None
    assert witness["coset"] == 0
    good = [(Fraction(1), (xa, xb)), (Fraction(-1), (xb, xa)), (Fraction(-4), ())]
    assert _check_instance(t, good, monos) is None


@pytest.mark.parametrize("name,weight", [("cyclic:3", "standard"), ("cyclic:2", "mckay")])
def test_words_factor_through_coset_zero(name, weight):
    # a word whose X masks add up to `shift` maps (b, mono) to
    # epsilon(shift, b) times its image of (0, mono), moved to b + shift
    g, _ = builtin(name)
    t = TwistContext(g, mckay_xi(g) if weight == "mckay" else VirtualChar.trivial(g))
    k = g.num_classes
    rng = random.Random(21)
    monos = vx._panel_monomials(t, 2)
    nonzero = 0
    for _ in range(12):
        word, shift = [], 0
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                coeffs = tuple(rng.randint(-1, 1) for _ in range(k))
                word.append(X(t, rng.randint(-2, 2), coeffs))
                shift ^= vx.vec_to_mask(coeffs)
            else:
                word.append(vx.H(t, rng.choice((-3, -1, 1, 3)), rng.randrange(k)))
        for mono in monos:
            images = []
            for b in range(t.twist.module_size):
                v = TwistedVector(t, {(b, mono): Cyc.rational(1)})
                for op in reversed(word):
                    v = op(v)
                images.append(v)
            base = images[0].terms
            assert all(coset == shift for coset, _ in base)
            nonzero += bool(base)
            for b, image in enumerate(images):
                sign = t.twist.epsilon_masks(shift, b)
                assert image.terms == {(b ^ shift, mo): c * sign
                                       for (_, mo), c in base.items()}, (b, mono)
    assert nonzero >= 20  # the check is not vacuous


def test_lean_engine_matches_production_operator():
    # the integer rows and the public x_component agree on random inputs
    from spinwreath.vertex import _x_row_int

    for name, xi in (("cyclic:2", None), ("cyclic:3", "mckay")):
        g, _ = builtin(name)
        x = mckay_xi(g) if xi == "mckay" else VirtualChar.trivial(g)
        t = TwistContext(g, x)
        rng = random.Random(6)
        monos = vx._panel_monomials(t, 4)
        for mono in rng.sample(monos, min(10, len(monos))):
            for m in (-2, -1, 0, 1, 2):
                coeffs = t.basis_vector(rng.randrange(g.num_classes))
                den, entries = _x_row_int(t, m, coeffs, mono)
                v = TwistedVector(t, {(0, mono): Cyc.rational(1)})
                out = x_component(t, m, coeffs, v)
                mask = vx.vec_to_mask(coeffs)
                expect = {(mask, mo): Cyc.rational(Fraction(num, den))
                          for mo, num in entries}
                got = {k: c for k, c in out.terms.items()}
                assert set(expect) == set(got)
                for k in expect:
                    assert expect[k] == got[k]


def test_normal_ordered_component_degree():
    from spinwreath.vertex import normal_ordered_component

    t = tctx_for("trivial")
    vac = TwistedVector.vacuum(t)
    out = normal_ordered_component(t, -1, -1, (1,), (1,), vac)
    assert out.max_degree() == 2
    assert not out.is_zero()
