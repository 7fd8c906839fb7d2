import random

import pytest

from spinwreath.gammadata import VirtualChar, builtin, gram_matrix, mckay_xi
from spinwreath.lattice import LatticeTwist, gf2_rank


def twist(name, xi=None):
    g, _ = builtin(name)
    return LatticeTwist(gram_matrix(g, xi if xi is not None else VirtualChar.trivial(g)))


def c1(lt, a, b):
    """c1 on GF(2) masks, read off `LatticeTwist.c1_rows`: the reference for
    epsilon's commutator sign."""
    out = 0
    for i in range(lt.dim):
        if a >> i & 1:
            out ^= bin(lt.c1_rows[i] & b).count("1") & 1
    return out


def c1_pair(lt, alpha, beta):
    """c1 on honest lattice vectors, <a,b> + <a,a><b,b> mod 2, straight from
    the Gram matrix."""
    def form(x, y):
        return sum(x[i] * lt.gram[i][j] * y[j] for i in range(lt.dim) for j in range(lt.dim))

    return (form(alpha, beta) + form(alpha, alpha) * form(beta, beta)) % 2


def test_gf2_helpers():
    assert gf2_rank([0b11, 0b01]) == 2
    assert gf2_rank([0b11, 0b11, 0b00]) == 1


def test_standard_c1_matrix():
    # c1(i, j) = 1 - delta_ij at the standard weight
    lt = twist("cyclic:3")
    for i in range(3):
        for j in range(3):
            assert c1(lt, 1 << i, 1 << j) == (0 if i == j else 1)
    # c1(alpha, alpha) = 0 always
    rng = random.Random(0)
    for _ in range(30):
        a = [rng.randint(-4, 4) for _ in range(3)]
        assert c1_pair(lt, a, a) == 0


def test_c1_mckay_cyclic2_vanishes():
    lt = twist("cyclic:2", mckay_xi(builtin("cyclic:2")[0]))
    assert all(r == 0 for r in lt.c1_rows)
    assert lt.r0 == 0


def test_rank_and_coset_counts():
    expectations = [
        ("trivial", None, 0),
        ("cyclic:2", None, 2),
        ("cyclic:3", None, 2),
        ("cyclic:4", None, 4),
        ("klein4", None, 4),
        ("quaternion8", None, 4),  # mckay below; standard here
    ]
    for name, xi, r0 in expectations:
        assert twist(name, xi).r0 == r0, name
    for name in ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
                 "quaternion8"):
        g, _ = builtin(name)
        lt = LatticeTwist(gram_matrix(g, mckay_xi(g)))
        assert lt.r0 % 2 == 0  # c1 is alternating


def _assert_bi_additive(lt, triples):
    eps = lt.epsilon_masks
    for a, b, c in triples:
        assert eps(a, b ^ c) == eps(a, b) * eps(a, c), (a, b, c)
        assert eps(a ^ c, b) == eps(a, b) * eps(c, b), (a, b, c)


SMALL_GAMMAS = ("trivial", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "klein4",
                "quaternion8")


@pytest.mark.parametrize("name", SMALL_GAMMAS)
def test_epsilon_masks_bi_additive(name):
    # the checkers certify on coset 0 only; this is the fact that licenses it
    g, _ = builtin(name)
    weights = [VirtualChar.trivial(g)]
    if name != "trivial" and name != "klein4":
        weights.append(mckay_xi(g))
    for xi in weights:
        lt = LatticeTwist(gram_matrix(g, xi))
        size = 1 << lt.dim
        _assert_bi_additive(lt, ((a, b, c) for a in range(size) for b in range(size)
                                 for c in range(size)))


def test_epsilon_masks_bi_additive_sampled_cyclic8():
    g, _ = builtin("cyclic:8")
    rng = random.Random(13)
    for xi in (VirtualChar.trivial(g), mckay_xi(g)):
        lt = LatticeTwist(gram_matrix(g, xi))
        size = 1 << lt.dim
        _assert_bi_additive(lt, [(rng.randrange(size), rng.randrange(size),
                                  rng.randrange(size)) for _ in range(3000)])


def test_epsilon_basis_rule():
    lt = twist("cyclic:3")
    for i in range(3):
        for j in range(3):
            e_i = [1 if t == i else 0 for t in range(3)]
            e_j = [1 if t == j else 0 for t in range(3)]
            expect = 1 if i <= j else (-1) ** c1(lt, 1 << i, 1 << j)
            assert lt.epsilon(e_i, e_j) == expect
    # section 5 values at the standard weight: eps(g1, g0) = -1, eps(g0, g1) = +1
    assert lt.epsilon([0, 1, 0], [1, 0, 0]) == -1
    assert lt.epsilon([1, 0, 0], [0, 1, 0]) == 1


def test_epsilon_commutator_and_negation():
    rng = random.Random(8)
    for name, xi in (("cyclic:2", None), ("cyclic:3", None),
                     ("cyclic:3", mckay_xi(builtin("cyclic:3")[0]))):
        lt = twist(name, xi)
        k = lt.dim
        for _ in range(100):
            a = [rng.randint(-4, 4) for _ in range(k)]
            b = [rng.randint(-4, 4) for _ in range(k)]
            assert lt.epsilon(a, b) * lt.epsilon(b, a) == (-1) ** c1_pair(lt, a, b)
            assert lt.epsilon(a, [-x for x in b]) == lt.epsilon(a, b)
            assert lt.epsilon(a, [0] * k) == 1
            assert lt.epsilon([0] * k, b) == 1


def test_module_squares():
    # e_a^2 acts as epsilon(a, a) * identity on the mod-2 group algebra
    for name in ("cyclic:2", "cyclic:3", "quaternion8"):
        lt = twist(name)
        for mask in range(1 << lt.dim):
            for b in range(1 << lt.dim):
                s1, b1 = lt.act(mask, b)
                s2, b2 = lt.act(mask, b1)
                assert b2 == b
                assert s1 * s2 == lt.epsilon_masks(mask, mask)
        # basis vectors square to +1 by the ordering rule
        for i in range(lt.dim):
            assert lt.epsilon_masks(1 << i, 1 << i) == 1


def test_module_commutator_exact():
    for name in ("cyclic:2", "cyclic:3"):
        lt = twist(name)
        for a in range(1 << lt.dim):
            for b in range(1 << lt.dim):
                for v in range(1 << lt.dim):
                    s1, v1 = lt.act(b, v)
                    s2, v2 = lt.act(a, v1)
                    t1, w1 = lt.act(a, v)
                    t2, w2 = lt.act(b, w1)
                    assert v2 == w2
                    assert s1 * s2 == t1 * t2 * (-1) ** c1(lt, a, b)

