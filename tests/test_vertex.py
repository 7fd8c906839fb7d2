import math
import random
import sys
from fractions import Fraction

import pytest

from spinwreath.fock import FockVector, annihilate, create, mono_degree, q_gen
from spinwreath.gammadata import VirtualChar, builtin, mckay_xi
from spinwreath.vertex import (TwistContext, affine_relation_check, clifford_check, neg,
                               ope_check, prim_commutator_check, x_component,
                               x_parity_check)
import spinwreath.vertex as vx


def tctx_for(name, xi=None):
    g, _ = builtin(name)
    return TwistContext(g, xi if xi is not None else VirtualChar.trivial(g))


def max_degree(monos):
    return max((mono_degree(mo) for mo in monos), default=0)


# -- an explicit-coset reference: vectors are dicts (coset mask, monomial) ->
# Fraction, and a layer acts on every coset through its row and the cocycle


def vacuum(mask=0):
    return {(mask, ()): Fraction(1)}


def apply_word(t, layers, v):
    """The word of layers (rightmost first) applied to v: a layer maps
    (b, mono) to its row on mono (`_lean_row` on the monomial's index),
    moved to b + mask and signed by `LatticeTwist.act`."""
    for layer in reversed(layers):
        out = {}
        for (b, mono), c in v.items():
            sign, b2 = t.twist.act(layer[-1], b)
            den, entries = vx._lean_row(t, layer, t.fock.index(mono))
            for i, num in entries:
                mo = t.fock.monos[i]
                out[(b2, mo)] = out.get((b2, mo), 0) + c * Fraction(sign * num, den)
        v = {key: c for key, c in out.items() if c}
    return v


def terms_on(t, terms, v):
    """sum coef * word(v) over the (coef, word) terms; the nonzero entries."""
    out = {}
    for coef, layers in terms:
        for key, c in apply_word(t, layers, v).items():
            out[key] = out.get(key, 0) + c * coef
    return {key: c for key, c in out.items() if c}


def vacuum_row(t):
    """The Fock vacuum as an index row."""
    return 1, ((t.fock.index(()), 1),)


def test_x_kills_vacuum_positive_components():
    t = tctx_for("trivial")
    for n in (1, 2, 3):
        assert x_component(t, n, (1,), vacuum_row(t)) == (1, ())


def test_x0_translates_with_cocycle_sign():
    t = tctx_for("cyclic:2")
    for mask in range(4):
        out = apply_word(t, [vx._x_layer(t, 0, (0, 1))], vacuum(mask))
        assert out == {(mask ^ 2, ()): t.twist.epsilon_masks(2, mask)}


def test_x_minus1_is_q1():
    t = tctx_for("trivial")
    den, entries = x_component(t, -1, (1,), vacuum_row(t))
    assert (den, [(t.fock.monos[i], num) for i, num in entries]) == (1, [(((1, 0),), 2)])


def test_x_degree_shift():
    t = tctx_for("cyclic:2")
    v = x_component(t, -3, (1, 0), x_component(t, -2, (0, 1), vacuum_row(t)))
    d = max_degree(t.fock.monos[i] for i, _ in v[1])
    assert d == 5
    for m in (-2, -1, 0, 1, 2):
        _, out = x_component(t, m, (1, 1), v)
        if out:
            assert max_degree(t.fock.monos[i] for i, _ in out) == d - m


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


@pytest.mark.parametrize("name,weight", [("cyclic:3", (1, 2, 0)), ("quaternion8", None)])
def test_pairing_is_the_double_sum_over_the_gram_matrix(name, weight):
    # xi = 1,2,0 on cyclic:3 has a non-symmetric Gram matrix, so the pair
    # row must be alpha's: sum_ij alpha_i gram[i][j] beta_j
    g, _ = builtin(name)
    t = tctx_for(name, VirtualChar(weight) if weight else mckay_xi(g))
    gram, k = t.twist.gram, g.num_classes
    assert gram is t.fock.gram
    rng = random.Random(name)
    for _ in range(20):
        alpha = tuple(rng.randint(-3, 3) for _ in range(k))
        beta = tuple(rng.randint(-3, 3) for _ in range(k))
        assert t.pairing(alpha, beta) == sum(alpha[i] * gram[i][j] * beta[j]
                                             for i in range(k) for j in range(k))


def test_clifford_vacuum_instances():
    # the anticommutators on the vacuum, on every coset through `apply_word`
    t = tctx_for("trivial")
    vac = vacuum()
    one = (1,)
    for (m, a), (mp, b), central in (((0, one), (0, neg(one)), 2), ((1, one), (-1, one), -2)):
        xa, xb = vx._x_layer(t, m, a), vx._x_layer(t, mp, b)
        assert terms_on(t, [(1, (xa, xb)), (1, (xb, xa)), (-central, ())], vac) == {}


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


def _bump_gram(t):
    # <gamma_0, gamma_1>_xi off by one on the pairing side only: the expected
    # pairing reads the Fock context's pair rows, which the operator rows
    # share, so the bump wraps `TwistContext.pairing`
    real = t.pairing
    t.pairing = lambda alpha, beta: real(alpha, beta) + alpha[0] * beta[1]


def _poison_x0_on_vacuum(t):
    vac = t.fock.index(())
    t._lean_rows.setdefault(vx._x_layer(t, 0, t.basis_vector(0)), {})[vac] = (1, ((vac, 7),))


@pytest.mark.parametrize("relation,perturb,check", [
    ("ope", _bump_gram,
     lambda t: ope_check(t, t.basis_vector(0), t.basis_vector(1), cutoff=1, max_degree=2)),
    ("x_parity", _poison_x0_on_vacuum, lambda t: x_parity_check(t, t.basis_vector(0), 1, 1)),
    ("prim_commutator", _bump_gram,
     lambda t: prim_commutator_check(t, t.basis_vector(0), t.basis_vector(1), 1, 1, 2)),
    ("clifford", _poison_x0_on_vacuum, lambda t: clifford_check(t, 1, 1)[-1]),
])
def test_folded_families_fail_with_a_coset_zero_witness(relation, perturb, check):
    t = tctx_for("cyclic:2")
    perturb(t)
    r = check(t)
    assert (r.relation, r.status) == (relation, "fail")
    assert r.witness["coset"] == 0
    assert r.witness["residual"]


def test_xx_bracket_instances():
    g2, _ = builtin("cyclic:2")
    t = TwistContext(g2, mckay_xi(g2))
    vac = vacuum()
    g1 = t.basis_vector(1)
    xb = vx._x_layer(t, -1, neg(g1))
    # central term: [x_1, x_{-1}(-a)] = 4 on the vacuum (n = 1)
    xa = vx._x_layer(t, 1, g1)
    assert terms_on(t, [(1, (xa, xb)), (-1, (xb, xa)), (-4, ())], vac) == {}
    # h term: [x_0, x_{-1}(-a)] = 8 a_{-1}
    xa = vx._x_layer(t, 0, g1)
    h = vx._h_layer(t, -1, g1)
    assert terms_on(t, [(1, (xa, xb)), (-1, (xb, xa)), (-8, (h,))], vac) == {}
    assert terms_on(t, [(1, (h,))], vac)  # not vacuous


def test_affine_families_small():
    g2, _ = builtin("cyclic:2")
    t2 = TwistContext(g2, mckay_xi(g2))
    for r in affine_relation_check(t2, [[0, 1]], window=2, max_degree=3)[0]:
        assert r.status == "pass", r
    for r in affine_relation_check(t2, [[1]], window=2, max_degree=3)[0]:
        assert r.status == "pass", r
    g3, _ = builtin("cyclic:3")
    t3 = TwistContext(g3, mckay_xi(g3))
    for r in affine_relation_check(t3, [[0, 1, 2]], window=2, max_degree=2)[0]:
        assert r.status == "pass", r


# -- the ladder D_j against the recursion it replaced -------------------------------

ALL_BUILTINS = ["trivial"] + [f"cyclic:{k}" for k in range(1, 10)] + ["klein4", "quaternion8"]


def _sum_rows(parts, scale=1):
    """sum f * entries / d over the parts (f, d, entries), divided by `scale`,
    as a row over its least denominator: the row engine's summation before
    it accumulated each row in one integer map."""
    den = 1
    for _, d, _ in parts:
        if den % d:
            den = math.lcm(den, d)
    acc = {}
    for f, d, entries in parts:
        f *= den // d
        for i, num in entries:
            acc[i] = acc.get(i, 0) + f * num
    den *= scale
    g = math.gcd(den, *acc.values())
    return den // g, tuple((i, v // g) for i, v in acc.items() if v)


def _recursive_ladder(t, coeffs, i):
    """D_j of exp(-sum (2/k) a_k z^-k) on monomial i by the recursion
    j D_j = sum_{k odd <= j} -2 a_k D_{j-k}, each a_k through the H layers'
    annihilation (`_ilean_annihilate`), each sum over its least denominator."""
    ladder = [(1, ((i, 1),))]
    for j in range(1, mono_degree(t.fock.monos[i]) + 1):
        parts = []
        for k in range(1, j + 1, 2):
            den, out = vx._ilean_annihilate(t, *ladder[j - k], k, coeffs)
            parts.append((-2, den, out.items()))
        ladder.append(_sum_rows(parts, j))
    return ladder


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_closed_form_ladder_matches_the_recursion(name):
    g, _ = builtin(name)
    weights = [VirtualChar.trivial(g)]
    try:
        weights.append(mckay_xi(g))
    except ValueError:
        pass  # no McKay weight: trivial, cyclic:1 and klein4
    compared = 0
    for xi in weights:
        t = TwistContext(g, xi)
        for i in t.fock.basis(4):
            for c in range(g.num_classes):
                for gamma in (t.basis_vector(c), neg(t.basis_vector(c))):
                    got = vx._ilean_ladder(t, gamma, i)
                    ref = _recursive_ladder(t, gamma, i)
                    assert [(d, dict(e)) for d, e in got] == \
                        [(d, dict(e)) for d, e in ref], (xi.coeffs, t.fock.monos[i], gamma)
                    assert all(len(e) == len(dict(e)) for _, e in got)
                    compared += 1
    assert compared >= 14 * len(weights)


def _q_parts(t, n, coeffs, num, den, entries):
    """The `_sum_rows` parts of (num/den) q_n(coeffs) * entries, one per
    entry, each product of q_n with a monomial through `FockContext.merge`."""
    vec = q_gen(t.fock, n, coeffs)
    return [(num * e, den * vec.den,
             [(t.fock.merge(iq, i), c[0]) for iq, c in vec.nums.items()])
            for i, e in entries]


def _x_row_reference(t, m, coeffs, i):
    """sum_j q_{j-m}(gamma) D_j(gamma) on monomial i as a list of parts, one
    per ladder entry, summed by `_sum_rows`: the closed form the factor
    recursion of `_x_row_int` replaced."""
    ladder = vx._ilean_ladder(t, coeffs, i)
    parts = []
    for j in range(max(0, m), len(ladder)):
        parts += _q_parts(t, j - m, coeffs, 1, *ladder[j])
    return _sum_rows(parts)


@pytest.mark.parametrize("name,weight", [("cyclic:3", "mckay"), ("quaternion8", "standard")])
def test_fused_x_rows_match_the_parts_route(name, weight):
    # every X_m row on every monomial of degree <= 3 equals the sum of its
    # per-entry parts as a map (a row's entries are in no particular order,
    # and the recursion lists them in another order than the parts), and is
    # over its least denominator with no zero and no repeated entry
    t = _twist_for(name, weight)
    k = t.gamma.num_classes
    vectors = [t.basis_vector(c) for c in range(k)] + [neg(t.basis_vector(0)), (1,) * k]
    compared = fractional = 0
    for i in t.fock.basis(3):
        for m in range(-3, 4):
            for coeffs in vectors:
                den, entries = vx._x_row_int(t, m, coeffs, i)
                ref_den, ref = _x_row_reference(t, m, coeffs, i)
                assert (den, dict(entries)) == (ref_den, dict(ref)), (m, coeffs, i)
                assert len(dict(entries)) == len(entries) and all(n for _, n in entries)
                assert math.gcd(den, *(num for _, num in entries)) == 1
                compared += bool(entries)
                fractional += den > 1
    assert compared > 500 and fractional > 50


def _transposed_pair_row(t):
    # <c, gamma>_xi in place of <gamma, c>_xi: gamma on the wrong side
    gram, k = t.fock.gram, t.gamma.num_classes
    return lambda coeffs: tuple(sum(gram[j][i] * coeffs[i] for i in range(k)) for j in range(k))


def _recursion_against_the_closed_form(t, ref_t):
    """The rows of `_x_row_int` on t against `_x_row_reference` on ref_t, a
    second context of the same (Gamma, xi), as maps, on every monomial of
    degree <= 4, every m in [-4, 4] and a few gamma: (rows compared, rows
    that differ)."""
    k = t.gamma.num_classes
    vectors = [t.basis_vector(c) for c in range(k)] + [neg(t.basis_vector(0)),
                                                      (2,) + (-1,) * (k - 1)]
    compared = differ = 0
    for i in t.fock.basis(4):
        for m in range(-4, 5):
            for coeffs in vectors:
                den, entries = vx._x_row_int(t, m, coeffs, t.fock.index(ref_t.fock.monos[i]))
                ref_den, ref = _x_row_reference(ref_t, m, coeffs, i)
                got = {t.fock.monos[j]: Fraction(n, den) for j, n in entries}
                compared += bool(ref)
                differ += got != {ref_t.fock.monos[j]: Fraction(n, ref_den) for j, n in ref}
    return compared, differ


@pytest.mark.parametrize("name,weight", [("cyclic:3", (1, 2, 0)), ("quaternion8", "mckay")],
                         ids=["cyclic:3-xi120", "quaternion8-mckay"])
def test_factor_recursion_matches_the_closed_form_rows(name, weight):
    # X_m(a_{-n}(c) v) = a_{-n}(c) X_m(v) - <gamma, c>_xi X_{m-n}(v) down to
    # X_m(1) = q_{-m}(gamma) gives sum_j q_{j-m} D_j.  At xi = (1, 2, 0) the
    # cyclic:3 Gram matrix is not symmetric, so <gamma, c> and <c, gamma>
    # differ, and a recursion that reads the transposed pair row must fail
    # the comparison; quaternion8's McKay Gram matrix is not diagonal
    g, _ = builtin(name)
    xi = mckay_xi(g) if weight == "mckay" else VirtualChar(weight)
    ref_t = TwistContext(g, xi)
    compared, differ = _recursion_against_the_closed_form(TwistContext(g, xi), ref_t)
    assert differ == 0 and compared > 1500
    gram = ref_t.fock.gram
    if any(gram[i][j] != gram[j][i] for i in range(len(gram)) for j in range(i)):
        mutant = TwistContext(g, xi)
        mutant.fock.pair_row = _transposed_pair_row(mutant)
        assert _recursion_against_the_closed_form(mutant, ref_t)[1] > 100


def test_poisoned_x_row_fails_the_affine_families():
    # X_1(gamma_1) on a_{-1}(gamma_1)^2 is a_{-1}(gamma_1) X_1(a_{-1}(gamma_1))
    # - <gamma_1, gamma_1> X_0(a_{-1}(gamma_1)); with the cached X_0 row that
    # the recursion reads there doubled, both index sets fail with a witness
    g, _ = builtin("cyclic:3")
    t = TwistContext(g, mckay_xi(g))
    layer, i = vx._x_layer(t, 0, t.basis_vector(1)), t.fock.index(((1, 1),))
    den, entries = vx._lean_row(t, layer, i)
    assert entries
    t._lean_rows[layer][i] = (den, tuple((j, 2 * num) for j, num in entries))
    for results in affine_relation_check(t, [range(3), range(1, 3)], window=1, max_degree=2):
        assert [r.status for r in results] == ["pass", "fail"]
        assert results[-1].relation == "hx" and results[-1].witness["residual"]
    top = t.fock.index(((1, 1), (1, 1)))
    assert dict(t._lean_rows[vx._x_layer(t, 1, t.basis_vector(1))][top][1]) != \
        dict(_x_row_reference(t, 1, t.basis_vector(1), top)[1])


def _poison_negative_x_row(t):
    # X_{-1}(-gamma_1) on the vacuum doubled: hh and hx use no negative
    # vector, so x_parity on i = 1 is the first failing instance of both
    # index sets
    layer, vac = vx._x_layer(t, -1, neg(t.basis_vector(1))), t.fock.index(())
    den, entries = vx._lean_row(t, layer, vac)
    t._lean_rows[layer][vac] = (den, tuple((j, 2 * num) for j, num in entries))


def test_shared_verdicts_give_each_index_set_its_own_witness(caplog):
    # the affine set reads the toroidal set's failing verdict; each index
    # set's documents equal those of a fresh context that checks it alone
    import json
    import logging

    g, _ = builtin("cyclic:3")
    index_sets = [range(3), range(1, 3)]
    t = TwistContext(g, mckay_xi(g))
    _poison_negative_x_row(t)
    caplog.set_level(logging.DEBUG, logger="spinwreath.vertex")
    shared = affine_relation_check(t, index_sets, window=1, max_degree=2)
    assert caplog.records[-1].getMessage().endswith(
        ", 1 verdicts reused (0 in another order), 0 X rows built")
    for index_set, results in zip(index_sets, shared):
        alone = TwistContext(g, mckay_xi(g))
        _poison_negative_x_row(alone)
        [expect] = affine_relation_check(alone, [index_set], window=1, max_degree=2)
        assert (results[-1].relation, results[-1].params["i"]) == ("x_parity", 1)
        assert results[-1].witness["residual"]
        assert [json.dumps(r.to_doc()) for r in results] == \
            [json.dumps(r.to_doc()) for r in expect]


def test_layers_are_interned_per_context():
    # equal arguments give the identical tuple, from a list or a tuple
    t = tctx_for("cyclic:3")
    for make, mask in ((vx._x_layer, 0b101), (vx._h_layer, 0)):
        layer = make(t, -1, (1, 0, -1))
        assert layer == (layer[0], -1, (1, 0, -1), mask)
        assert make(t, -1, [1, 0, -1]) is layer and make(t, -1, (1, 0, -1)) is layer
        assert make(t, 1, (1, 0, -1)) is not layer
    assert vx._x_layer(t, 0, (1, 0, 0)) != vx._h_layer(t, 0, (1, 0, 0))
    other = tctx_for("cyclic:3")
    assert vx._x_layer(other, -1, (1, 0, -1)) is not vx._x_layer(t, -1, (1, 0, -1))


@pytest.mark.parametrize("name,weight", [("cyclic:3", "mckay"), ("cyclic:2", "standard")])
def test_cached_sign_chains_match_the_layer_by_layer_chain(name, weight):
    # every word a family caches, and every suffix built on the way, carries
    # the shift and sign chain `_term_sign` computes afresh
    t = _twist_for(name, weight)
    panel = tuple(t.fock.basis(2))
    blocks = vx.Blocks()
    for word, _ in _random_words(t, random.Random(8), 40):
        vx._word(t, word, panel, blocks)
    index_set = range(t.gamma.num_classes)
    for _, instances in vx._affine_families(t, index_set, 1):
        for _, terms in instances:
            vx._check_instance(t, terms, panel, blocks)
    signs = [word[:2] for word in blocks.values()]
    assert len(blocks) > 100 and -1 in {sign for _, sign in signs}
    assert len({shift for shift, _ in signs}) > 2
    for word, entry in blocks.items():
        assert entry[:2] == _term_sign(t, word), word


def test_h_even_is_zero():
    t = tctx_for("cyclic:2")
    v = apply_word(t, [vx._x_layer(t, -2, (1, 0))], vacuum())
    assert v
    for m in (-2, 0, 2):
        assert not apply_word(t, [vx._h_layer(t, m, (1, 0))], v)


def test_checker_catches_wrong_relation():
    # the instance engine must reject a deliberately wrong identity
    from spinwreath.vertex import _check_instance, _x_layer

    t = tctx_for("cyclic:2", mckay_xi(builtin("cyclic:2")[0]))
    panel = tuple(t.fock.basis(2))
    g1 = t.basis_vector(1)
    xa = _x_layer(t, 1, g1)
    xb = _x_layer(t, -1, neg(g1))
    # correct central coefficient is 4, claim 8 instead
    terms = [(Fraction(1), (xa, xb)), (Fraction(-1), (xb, xa)), (Fraction(-8), ())]
    witness = _check_instance(t, terms, panel, vx.Blocks())
    assert witness is not None
    assert witness["coset"] == 0
    good = [(Fraction(1), (xa, xb)), (Fraction(-1), (xb, xa)), (Fraction(-4), ())]
    assert _check_instance(t, good, panel, vx.Blocks()) is None
    # one family's verdicts key on the coefficients too: the wrong identity
    # on the same words is summed again, not read from the right one
    blocks = vx.Blocks()
    assert _check_instance(t, good, panel, blocks) is None
    assert _check_instance(t, terms, panel, blocks) == witness
    assert _check_instance(t, good, panel, blocks) is None
    assert blocks.verdicts_reused == 1


def test_a_pass_is_shared_across_term_orders_and_a_witness_is_not(caplog):
    # a sum does not depend on the order of its terms, so a pass is read for
    # the same terms in another order; a witness lists shifts in term order,
    # so a failure in another order is summed again and gets its own witness
    import logging

    from spinwreath.vertex import _check_instance, _x_layer

    t = tctx_for("cyclic:2", mckay_xi(builtin("cyclic:2")[0]))
    panel = tuple(t.fock.basis(2))
    g1 = t.basis_vector(1)
    xa, xb = _x_layer(t, 1, g1), _x_layer(t, -1, neg(g1))
    good = [(Fraction(1), (xa, xb)), (Fraction(-1), (xb, xa)), (Fraction(-4), ())]
    bad = [(Fraction(1), (xa, xb)), (Fraction(-1), (xb, xa)), (Fraction(-8), ())]
    blocks = vx.Blocks()
    assert _check_instance(t, good, panel, blocks) is None
    assert _check_instance(t, good[::-1], panel, blocks) is None
    assert (blocks.verdicts_reused, blocks.reordered) == (1, 1)
    assert _check_instance(t, bad, panel, blocks) is not None
    witness = _check_instance(t, bad[::-1], panel, blocks)
    assert (blocks.verdicts_reused, blocks.reordered) == (1, 1)
    assert witness == _check_instance(t, bad[::-1], panel, vx.Blocks())
    # {X_n(g_i), X_n'(g_j)} is {X_n'(g_j), X_n(g_i)} with its words swapped
    caplog.set_level(logging.DEBUG, logger="spinwreath.vertex")
    assert clifford_check(tctx_for("cyclic:8"), 1, 1)[-1].status == "pass"
    assert "1728 instances on 9 monomials" in caplog.records[-1].getMessage()
    assert ", 552 verdicts reused (552 in another order), " in caplog.records[-1].getMessage()


def _random_words(t, rng, count):
    """`count` random words of one to three X, H and N layers, with the sum
    of each word's layer masks."""
    k = t.gamma.num_classes

    def random_vec():
        return tuple(rng.randint(-1, 1) for _ in range(k))

    for _ in range(count):
        word, shift = [], 0
        for _ in range(rng.randint(1, 3)):
            draw = rng.random()
            if draw < 0.5:
                layer = vx._x_layer(t, rng.randint(-2, 2), random_vec())
            elif draw < 0.75:
                m, i = rng.choice((-3, -1, 1, 3)), rng.randrange(k)
                layer = vx._h_layer(t, m, t.basis_vector(i))
            else:
                alpha, beta = random_vec(), random_vec()
                layer = ("N", rng.randint(-1, 1), rng.randint(-1, 1), alpha, beta,
                         vx.vec_to_mask(alpha) ^ vx.vec_to_mask(beta))
            word.append(layer)
            shift ^= layer[-1]
        yield tuple(word), shift


def _term_sign(t, layers):
    """A word's shift (the sum of its layers' masks) and its +-1 cocycle
    sign chain on coset 0, computed layer by layer from the right."""
    sign, cur = 1, 0
    for layer in reversed(layers):
        mask = layer[-1]
        if mask:
            sign *= t.twist.epsilon_masks(mask, cur)
            cur ^= mask
    return cur, sign


def _block_rows(block, size):
    """A block's rows by panel position: position -> {target index: numerator}."""
    den, entries = block
    rows = {}
    for key, num in entries.items():
        j, p = divmod(key, size)
        rows.setdefault(p, {})[j] = num
    return den, rows


def _twist_for(name, weight):
    g, _ = builtin(name)
    return TwistContext(g, mckay_xi(g) if weight == "mckay" else VirtualChar.trivial(g))


@pytest.mark.parametrize("name,weight", [("cyclic:3", "standard"), ("cyclic:2", "mckay")])
def test_words_factor_through_coset_zero(name, weight):
    # a word whose layer masks add up to `shift` maps (b, mono) to
    # epsilon(shift, b) times its image of (0, mono), moved to b + shift;
    # X, H and N layers alike, which is what the sign chain relies on.  The
    # image of (0, mono) is the coset-0 reduction: the word's row in its
    # panel block times its sign chain, both from `_word`.
    t = _twist_for(name, weight)
    panel = tuple(t.fock.basis(2))
    monos = [t.fock.monos[i] for i in panel]
    nonzero = 0
    kinds = set()
    for word, shift in _random_words(t, random.Random(21), 16):
        term_shift, chain, block = vx._word(t, word, panel, vx.Blocks())
        assert term_shift == shift
        den, rows = _block_rows(block, len(panel))
        for p, mono in enumerate(monos):
            images = [apply_word(t, word, {(b, mono): Fraction(1)})
                      for b in range(1 << t.twist.dim)]
            base = images[0]
            assert base == {(shift, t.fock.monos[i]): Fraction(chain * num, den)
                            for i, num in rows.get(p, {}).items()}
            nonzero += bool(base)
            if base:
                kinds.update(layer[0] for layer in word)
            for b, image in enumerate(images):
                sign = t.twist.epsilon_masks(shift, b)
                assert image == {(b ^ shift, mo): c * sign
                                 for (_, mo), c in base.items()}, (b, mono)
    assert nonzero >= 20  # the check is not vacuous
    assert kinds == {"X", "H", "N"}


def _compose_reference(t, layers, i):
    """The row of the composed layers on monomial i, one monomial at a time:
    the left layer's stored rows (`_lean_row`) on the rest's row, summed
    over its least denominator (`_sum_rows`)."""
    if not layers:
        return 1, ((i, 1),)
    den, entries = _compose_reference(t, layers[1:], i)
    return _sum_rows([(num,) + vx._lean_row(t, layers[0], j) for j, num in entries], den)


@pytest.mark.parametrize("name,weight", [("cyclic:3", "standard"), ("cyclic:2", "mckay")])
def test_blocks_match_per_monomial_composition(name, weight):
    # every panel row of a word's block equals the per-monomial composition,
    # and its least denominator is the one a witness reports
    t = _twist_for(name, weight)
    panel = tuple(t.fock.basis(3))
    blocks = vx.Blocks()
    nonzero = 0
    for word, _ in _random_words(t, random.Random(5), 40):
        den, rows = _block_rows(vx._word(t, word, panel, blocks)[2], len(panel))
        for p, i in enumerate(panel):
            ref_den, ref = _compose_reference(t, word, i)
            got = rows.get(p, {})
            assert {j: Fraction(num, den) for j, num in got.items()} == \
                {j: Fraction(num, ref_den) for j, num in ref}, (word, p)
            if got:
                assert den // math.gcd(den, *got.values()) == ref_den
                nonzero += 1
    assert nonzero >= 100
    # the cache holds each suffix of every word, and the panel itself
    assert () in blocks and all(word[1:] in blocks for word in blocks if word)


# -- reference formulas for the integer rows, on Fock vectors --------------------


def _ladder_reference(ctx, v, coeffs, top):
    """D_j of exp(-sum (2/k) a_k z^-k) on v: j D_j = sum_k -2 a_k(gamma) D_{j-k}."""
    ladder = [v]
    for j in range(1, top + 1):
        acc = FockVector.zero(ctx)
        for k in range(1, j + 1, 2):
            acc = acc + annihilate(ladder[j - k], k, coeffs).scale(-2)
        ladder.append(acc.scale(Fraction(1, j)))
    return ladder


def _x_reference(ctx, m, coeffs, mono):
    """X_m(gamma) on mono: sum_j q_{j-m}(gamma) D_j(gamma) mono."""
    deg = mono_degree(mono)
    ladder = _ladder_reference(ctx, FockVector(ctx, {mono: 1}), coeffs, deg)
    out = FockVector.zero(ctx)
    for j in range(max(0, m), deg + 1):
        out = out + q_gen(ctx, j - m, coeffs) * ladder[j]
    return out


def _normal_ordered_reference(ctx, a, b, alpha, beta, mono):
    """The z^-a w^-b coefficient of :X(alpha,z)X(beta,w): on mono,
    sum q_{j1-a}(alpha) q_{j2-b}(beta) D_{j1}(alpha) D_{j2}(beta) mono."""
    deg = mono_degree(mono)
    ladder_b = _ladder_reference(ctx, FockVector(ctx, {mono: 1}), beta, deg)
    out = FockVector.zero(ctx)
    for j2 in range(max(0, b), deg + 1):
        ladder_a = _ladder_reference(ctx, ladder_b[j2], alpha, deg - j2)
        for j1 in range(max(0, a), deg - j2 + 1):
            out = out + q_gen(ctx, j1 - a, alpha) * (q_gen(ctx, j2 - b, beta) * ladder_a[j1])
    return out


def panel_monomials(t, max_degree):
    """The monomials of degree <= max_degree, as tuples, in panel order."""
    return [t.fock.monos[i] for i in t.fock.basis(max_degree)]


def _row_as_fock(t, row):
    den, entries = row
    assert all(num for _, num in entries)
    return FockVector(t.fock, {t.fock.monos[i]: Fraction(num, den) for i, num in entries})


def _row_contexts():
    # cyclic:2 at the standard weight, cyclic:3 at the McKay weight
    g2, _ = builtin("cyclic:2")
    g3, _ = builtin("cyclic:3")
    return [TwistContext(g2, VirtualChar.trivial(g2)), TwistContext(g3, mckay_xi(g3))]


def test_lean_engine_matches_production_operator():
    # the X_m rows against sum_j q_{j-m} D_j from fock.q_gen and fock.annihilate
    for t in _row_contexts():
        k = t.gamma.num_classes
        nonzero = 0
        for mono in panel_monomials(t, 3):
            for m in (-2, -1, 0, 1, 2, 3):
                for coeffs in [t.basis_vector(i) for i in range(k)] + [(1,) * k, (-1,) + (1,) * (k - 1)]:
                    got = _row_as_fock(t, vx._x_row_int(t, m, coeffs, t.fock.index(mono)))
                    assert got == _x_reference(t.fock, m, coeffs, mono), (m, coeffs, mono)
                    nonzero += not got.is_zero()
        assert nonzero > 100


def test_heisenberg_rows_match_the_production_operator():
    # the a_m rows against fock.annihilate (m > 0) and fock.create (m < 0)
    for t in _row_contexts():
        k = t.gamma.num_classes
        mixed = [(1,) * k, (-1,) + (1,) * (k - 1), (2,) + (-1,) * (k - 1)]
        nonzero = 0
        for mono in panel_monomials(t, 3):
            base = FockVector(t.fock, {mono: 1})
            for m in (-3, -1, 1, 3):
                for coeffs in [t.basis_vector(i) for i in range(k)] + mixed:
                    got = _row_as_fock(t, vx._lean_row(t, vx._h_layer(t, m, coeffs),
                                                       t.fock.index(mono)))
                    expect = annihilate(base, m, coeffs) if m > 0 else create(base, -m, coeffs)
                    assert got == expect, (m, coeffs, mono)
                    nonzero += not got.is_zero()
        assert nonzero > 100


@pytest.mark.parametrize("name,weight", [("cyclic:2", "standard"), ("cyclic:3", "mckay")])
def test_stored_rows_are_over_their_least_denominator(name, weight):
    # the witness reads a row's denominator off its block, reduced against
    # the row's numerators; that is the stored row's own only if every
    # stored X, H and N row is over its least denominator
    t = _twist_for(name, weight)
    panel = tuple(t.fock.basis(2))
    blocks = vx.Blocks()
    for word, _ in _random_words(t, random.Random(13), 40):
        vx._word(t, word, panel, blocks)
    kinds = {layer[0] for layer in t._lean_rows}
    assert kinds == {"X", "H", "N"}
    stored = [row for rows in t._lean_rows.values() for row in rows.values()]
    assert len(stored) > 100
    for den, entries in stored:
        assert math.gcd(den, *(num for _, num in entries)) == 1, (den, entries)


def test_normal_ordered_rows_match_the_reference_formula():
    for t in _row_contexts():
        k = t.gamma.num_classes
        nonzero = 0
        for mono in panel_monomials(t, 3):
            for i in range(k):
                for j in range(k):
                    alpha, beta = t.basis_vector(i), t.basis_vector(j)
                    mask = vx.vec_to_mask(tuple(x + y for x, y in zip(alpha, beta)))
                    for a in (-1, 1):
                        for b in (-2, 0, 1):
                            layer = ("N", a, b, alpha, beta, mask)
                            got = _row_as_fock(t, vx._lean_row(t, layer, t.fock.index(mono)))
                            expect = _normal_ordered_reference(t.fock, a, b, alpha, beta, mono)
                            assert got == expect, (a, b, alpha, beta, mono)
                            nonzero += not got.is_zero()
        assert nonzero > 100


def test_normal_ordered_component_degree():
    t = tctx_for("trivial")
    out = apply_word(t, [("N", -1, -1, (1,), (1,), 0)], vacuum())
    assert out
    assert max_degree(mo for _, mo in out) == 2


def test_one_context_computes_the_gram_matrix_once(monkeypatch):
    # the Fock form and the cocycle share one integer matrix
    import spinwreath
    from spinwreath import gammadata

    original = gammadata.gram_matrix
    calls = []

    def counting(gamma, xi):
        calls.append(gamma.name)
        return original(gamma, xi)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith(spinwreath.__name__):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    g, _ = builtin("cyclic:3")
    t = TwistContext(g, mckay_xi(g))
    assert calls == ["cyclic3"]
    assert t.twist.gram is t.fock.gram
    assert all(type(a) is int for row in t.fock.gram for a in row)


@pytest.mark.parametrize("kappa", [1, -1])
def test_ratio_series_of_kappa_one(kappa):
    # (1-u)/(1+u) = 1 - 2u + 2u^2 - ...; its inverse has every sign +
    sign = -1 if kappa == 1 else 1
    assert vx._ratio_series(kappa, 5) == [1] + [2 * sign ** k for k in range(1, 6)]


def test_ratio_series_of_kappa_and_minus_kappa_multiply_to_one():
    nterms = 9
    for kappa in range(7):
        f, g = vx._ratio_series(kappa, nterms), vx._ratio_series(-kappa, nterms)
        product = [sum(f[i] * g[t - i] for i in range(t + 1)) for t in range(nterms + 1)]
        assert product == [1] + [0] * nterms, kappa


# -- pinned failure documents: the witness bytes of broken relations ---------------
#
# A witness document is part of the CLI's output, so each is pinned byte for
# byte: the failing panel monomial, the first three residual monomials in
# sorted order, and each residual as "q/den" over the lcm of the terms'
# reduced row denominators (not reduced against q, so "192/3" stays "192/3").


def _poisoned_clifford(t):
    # the X_0(gamma_0) row on a_{-1}(gamma_1) times 2/3, and no other row:
    # the rows on the panel are built first, so none is built from it
    layer, i = vx._x_layer(t, 0, t.basis_vector(0)), t.fock.index(((1, 1),))
    for j in t.fock.basis(3):
        vx._lean_row(t, layer, j)
    den, entries = vx._lean_row(t, layer, i)
    t._lean_rows.setdefault(layer, {})[i] = (3 * den, tuple((j, 2 * num) for j, num in entries))
    return clifford_check(t, 1, 3)[-1]


def _wrong_central_hh(t):
    # the central coefficient (m/2) <g_i, g_j> of every hh instance times 3/2
    def instances():
        for params, terms in vx.hh_instances(t, range(t.gamma.num_classes), 3):
            yield params, [(c * Fraction(3, 2) if not layers else c, layers)
                           for c, layers in terms]
    return vx.certify_instances(t, "hh", instances(), t.fock.basis(3), {})


def _flipped_ope(index, alpha=None, beta=None):
    # the N term of series coefficient `index` enters with the wrong sign;
    # alpha and beta default to gamma_0 and gamma_1
    def check(t, monkeypatch):
        series = vx._ratio_series

        def flipped(kappa, nterms):
            out = series(kappa, nterms)
            out[index] = -out[index]
            return out

        monkeypatch.setattr(vx, "_ratio_series", flipped)
        return ope_check(t, alpha or t.basis_vector(0), beta or t.basis_vector(1),
                         cutoff=1, max_degree=3)
    return check


def _mixed_shifts(t):
    # one wrong instance whose terms land on four shifts, all failing on the
    # monomial a_{-1}(g_0); its first term is empty there, so the reported
    # shift is the second term's, and that shift's two-layer rows have
    # denominators 1 and 2 (the three-layer row reduces to 1)
    e = t.basis_vector
    x, h = (lambda m, v: vx._x_layer(t, m, v)), (lambda m, v: vx._h_layer(t, m, v))
    terms = [(Fraction(1, 5), (x(2, e(1)),)),
             (Fraction(-1, 2), (x(-2, e(2)), h(1, e(1)))),
             (Fraction(1, 3), (x(0, e(2)), h(1, e(1)))),
             (Fraction(1, 6), (h(-1, e(1)), x(-1, e(2)), h(1, e(1)))),
             (Fraction(1, 3), (x(-1, e(1)), h(1, e(0)))),
             (Fraction(1), (x(0, e(0)), h(1, e(0)))),
             (Fraction(2), (x(0, e(0)), x(-1, e(1)), h(1, e(2)))),
             (Fraction(3, 4), (x(1, e(0)), h(-1, e(0)), h(1, e(1))))]
    return vx.certify_instances(t, "mixed", iter([({"case": "mixed"}, terms)]),
                                t.fock.basis(2), {})


def _bumped_hx(t):
    # [a_3(gamma_0), X_m(gamma_1 + gamma_2)] with <gamma_0, gamma_1> off by
    # one on the pairing side; the a_3 rows weigh by the McKay Gram row
    # (2, -1, -1)
    _bump_gram(t)
    alpha, beta = t.basis_vector(0), (0, 1, 1)
    label = {"alpha": list(alpha), "beta": list(beta)}
    instances = vx.hx_instances(t, [(label, alpha, beta)], [3], 1)
    return vx.certify_instances(t, "hx", instances, t.fock.basis(3), {})


PINNED_WITNESSES = [
    ("cyclic:3", "standard", lambda t, mp: _poisoned_clifford(t),
     '{"relation": "clifford", "params": {"family": "same_sign", "i": 0, "j": 0, '
     '"neg_i": false, "neg_j": false, "n": -1, "nprime": 0}, "status": "fail", '
     '"witness": {"coset": 0, "mono": [[1, 1]], "residual": [[[[1, 0], [1, 1]], "-2/3"]]}}'),
    ("cyclic:3", "mckay", lambda t, mp: _wrong_central_hh(t),
     '{"relation": "hh", "params": {"i": 0, "j": 0, "m": -3, "mprime": 3}, '
     '"status": "fail", "witness": {"coset": 0, "mono": [], "residual": [[[], "3/2"]]}}'),
    ("cyclic:3", "mckay", _flipped_ope(2),
     '{"relation": "ope", "params": {"alpha": [1, 0, 0], "beta": [0, 1, 0], "m": -1, '
     '"mprime": -1}, "status": "fail", "witness": {"coset": 0, "mono": [[1, 0]], '
     '"residual": [[[[1, 0], [1, 0], [1, 0]], "16/3"], [[[3, 0]], "8/3"]]}}'),
    ("cyclic:2", "mckay", _flipped_ope(3),
     '{"relation": "ope", "params": {"alpha": [1, 0], "beta": [0, 1], "m": -1, '
     '"mprime": -1}, "status": "fail", "witness": {"coset": 0, "mono": [[1, 0], [1, 0]], '
     '"residual": [[[[1, 0], [1, 0], [1, 0], [1, 0]], "192/3"], '
     '[[[1, 0], [3, 0]], "384/3"]]}}'),
    # more than three residual monomials: the first three in sorted order
    ("cyclic:3", "mckay", _flipped_ope(2, (1, 1, 0), (0, 1, 1)),
     '{"relation": "ope", "params": {"alpha": [1, 1, 0], "beta": [0, 1, 1], "m": -1, '
     '"mprime": -1}, "status": "fail", "witness": {"coset": 0, "mono": [[1, 0]], '
     '"residual": [[[[1, 0], [1, 0], [1, 0]], "32/3"], [[[1, 0], [1, 0], [1, 1]], "96/3"], '
     '[[[1, 0], [1, 1], [1, 1]], "96/3"]]}}'),
    # residuals under four shifts with mixed row denominators: the first
    # nonempty term's shift, over the lcm of that shift's denominators
    ("cyclic:3", "mckay", lambda t, mp: _mixed_shifts(t),
     '{"relation": "mixed", "params": {"case": "mixed"}, "status": "fail", '
     '"witness": {"coset": 0, "mono": [[1, 0]], "residual": [[[], "-1/6"], '
     '[[[1, 1], [1, 2]], "-1/6"], [[[1, 2], [1, 2]], "3/6"]]}}'),
    # an H layer off the standard weight: a_3 after an X layer that raises
    # the degree to 3
    ("cyclic:3", "mckay", lambda t, mp: _bumped_hx(t),
     '{"relation": "hx", "params": {"alpha": [1, 0, 0], "beta": [0, 1, 1], "n": 3, '
     '"m": -1}, "status": "fail", "witness": {"coset": 0, "mono": [[1, 0], [1, 0]], '
     '"residual": [[[], "-4/1"]]}}'),
]


@pytest.mark.parametrize("name,weight,broken,expect", PINNED_WITNESSES,
                         ids=["clifford-poisoned-row", "hh-central", "ope-flip-2",
                              "ope-flip-3", "ope-flip-2-wide", "mixed-shifts",
                              "hx-bumped-pairing"])
def test_failure_documents_are_pinned(name, weight, broken, expect, monkeypatch):
    import json

    g, _ = builtin(name)
    t = TwistContext(g, mckay_xi(g) if weight == "mckay" else VirtualChar.trivial(g))
    assert json.dumps(broken(t, monkeypatch).to_doc()) == expect


def test_an_empty_family_cannot_pass():
    # no instance, or no panel monomial to check them on, is a failure
    t = tctx_for("cyclic:2")
    monos = t.fock.basis(1)
    no_instances = {"reason": "no_instances"}

    def parity():
        return vx.parity_instances(t, [({"gamma": [1, 0]}, t.basis_vector(0))], 1)

    r = vx.certify_instances(t, "x_parity", iter(()), monos, {"window": 1})
    assert r.to_doc() == {"relation": "x_parity", "params": {"window": 1},
                          "status": "fail", "witness": no_instances}
    r = vx.certify_instances(t, "x_parity", parity(), [], {"window": 1})
    assert (r.status, r.witness) == ("fail", no_instances)
    assert vx.certify_instances(t, "x_parity", parity(), monos, {}).status == "pass"
