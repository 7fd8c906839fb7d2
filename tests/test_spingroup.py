import dataclasses
import random
from itertools import permutations, product
from math import factorial

import pytest

from spinwreath import spingroup
from spinwreath.gammadata import builtin
from spinwreath.partitions import MultiPartition, big_z
from spinwreath.scalars import Cyc, axis_scalar
from spinwreath.spingroup import (SignedType, SpinLaw, basic_spin_trace,
                                  enumerate_classes_bruteforce, is_split,
                                  representative_of_type, signed_type, theory_classes)

from gamma_reference import cyc_chars, cyc_from_numerators
from spin_oracle import Element, oracle_spin_rows, pack, unpack


# -- reference group law: word sorting on readable elements ----------------------


def normalize_word(indices):
    """Sort a product a_{i1}...a_{im} into strict normal form.

    Returns (z exponent mod 2, strictly increasing index tuple).  Each swap of
    distinct neighbours and each cancellation a_i a_i = z contributes one z.
    """
    word = list(indices)
    z = 0
    changed = True
    while changed:
        changed = False
        j = 0
        while j + 1 < len(word):
            a, b = word[j], word[j + 1]
            if a == b:
                del word[j:j + 2]
                z ^= 1
                changed = True
                if j > 0:
                    j -= 1
            elif a > b:
                word[j], word[j + 1] = b, a
                z ^= 1
                changed = True
            else:
                j += 1
    return z, tuple(word)


def perm_inv(s):
    out = [0] * len(s)
    for i, si in enumerate(s):
        out[si] = i
    return tuple(out)


def ref_multiply(cg, x, y):
    n = len(x.g)
    s_inv = perm_inv(x.s)
    g = tuple(cg.mul(x.g[i], y.g[s_inv[i]]) for i in range(n))
    z, word = normalize_word(list(x.I) + [x.s[j] for j in y.I])
    return Element(g, (x.k + y.k + z) % 2, word, tuple(x.s[t] for t in y.s))


def ref_inverse(cg, x):
    n = len(x.g)
    s_inv = perm_inv(x.s)
    g = tuple(cg.inv(x.g[x.s[i]]) for i in range(n))
    # a_I^{-1} = z^{|I|} a_{i_m} ... a_{i_1}; conjugating through s^{-1}
    # relabels each index.
    z, word = normalize_word([s_inv[i] for i in reversed(x.I)])
    return Element(g, (x.k + len(x.I) + z) % 2, word, s_inv)


def ref_elements(cg, n):
    subsets = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    perms = list(permutations(range(n)))
    for g in product(range(cg.order), repeat=n):
        for k in (0, 1):
            for I in subsets:
                for s in perms:
                    yield Element(g, k, I, s)


def ref_classes(cg, n):
    """Orbit closure under every Gamma element at the first slot, every a_i and
    every adjacent transposition, on the reference law."""
    group_order = 2 ** (n + 1) * factorial(n) * cg.order**n
    ident = identity_element(n)
    generators = [Element((e,) + (0,) * (n - 1), 0, (), ident.s)
                  for e in range(1, cg.order if n else 1)]
    generators += [Element((0,) * n, 0, (i,), ident.s) for i in range(n)]
    for i in range(n - 1):
        images = list(range(n))
        images[i], images[i + 1] = images[i + 1], images[i]
        generators.append(Element((0,) * n, 0, (), tuple(images)))
    gen_invs = [ref_inverse(cg, h) for h in generators]
    assigned = set()
    out = []
    for x in ref_elements(cg, n):
        if x in assigned:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for h, hinv in zip(generators, gen_invs):
                w = ref_multiply(cg, ref_multiply(cg, h, y), hinv)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        assigned |= orbit
        out.append((x, len(orbit), times_z(x) not in orbit, group_order // len(orbit)))
    return out


def identity_element(n):
    return Element((0,) * n, 0, (), tuple(range(n)))


def times_z(x):
    return dataclasses.replace(x, k=x.k ^ 1)


def rand_element(rng, order, n):
    return Element(tuple(rng.randrange(order) for _ in range(n)),
                   rng.randrange(2),
                   tuple(sorted(rng.sample(range(n), rng.randrange(n + 1)))),
                   tuple(rng.sample(range(n), n)))


def cover_classes(cg, n):
    """Orbit closure over the whole cover on the packed law, in
    `SpinLaw.elements` order: (representative, size, split, centralizer)."""
    group_order = 2 ** (n + 1) * factorial(n) * cg.order**n
    law = SpinLaw(cg, n)
    pairs = [(h, law.inv(h)) for h in spingroup._generators(law)]
    assigned = set()
    out = []
    for x in law.elements():
        if x in assigned:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for h, hinv in pairs:
                w = law.mul(law.mul(h, y), hinv)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        assigned |= orbit
        g, k, m, p = x
        out.append((x, len(orbit), (g, k ^ 1, m, p) not in orbit,
                    group_order // len(orbit)))
    return out


def _clifford_left_mul(i, coeff, subset):
    # e_i . e_subset with {e_i, e_j} = -2 delta_ij; subset strictly increasing.
    below = sum(1 for j in subset if j < i)
    if i in subset:
        return -coeff * (-1) ** below, tuple(j for j in subset if j != i)
    return coeff * (-1) ** below, subset[:below] + (i,) + subset[below:]


def ref_clifford_trace(x, n):
    """Trace of a_I s on L_n, each basis vector e_J moved by s (sign of the
    image sequence) and then multiplied on the left by e_i for i in reversed(I)."""
    total = 0
    for mask in range(1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        seq = [x.s[j] for j in subset]
        coeff = (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
        out = tuple(sorted(seq))
        for i in reversed(x.I):
            coeff, out = _clifford_left_mul(i, coeff, out)
        if out == subset:
            total += coeff
    return total


def ref_basic_spin_trace(cg, gdata, v_index, n, x):
    """The trace on one V as a product over cycles, Clifford trace last."""
    val = Cyc.rational((-1) ** x.k)
    for cyc in spingroup.perm_cycles(x.s):
        prod = 0
        for j in cyc:
            prod = cg.mul(x.g[j], prod)
        val = val * cyc_chars(gdata)[v_index][cg.class_of[prod]]
    return val * ref_clifford_trace(x, n)


class Law:
    """SpinLaw on readable operands, for readable relations."""

    def __init__(self, name, n):
        self.gamma, self.cg = builtin(name)
        self.law = SpinLaw(self.cg, n)

    def mul(self, x, y):
        return unpack(self.law, self.law.mul(pack(self.law, x), pack(self.law, y)))

    def inv(self, x):
        return unpack(self.law, self.law.inv(pack(self.law, x)))


# -- the tabled law ---------------------------------------------------------------


def test_pin_relations():
    law = Law("trivial", 2)
    e = identity_element(2)
    a1 = Element((0, 0), 0, (0,), e.s)
    a2 = Element((0, 0), 0, (1,), e.s)
    assert law.mul(a1, a1) == times_z(e)
    assert law.mul(a1, a2) == times_z(law.mul(a2, a1))
    z = times_z(e)
    assert law.mul(z, z) == e


def test_normalize_word_signs():
    # a_2 a_1 = z a_1 a_2; a_1 a_1 = z
    cases = [([1, 0], (1, (0, 1))), ([0, 0], (1, ())),
             ([2, 1, 0], (1, (0, 1, 2))),  # three inversions
             ([0, 1, 1, 0], (0, ()))]
    law = Law("trivial", 3)
    e = identity_element(3)
    for word, expect in cases:
        assert normalize_word(word) == expect
        out = e
        for i in word:
            out = law.mul(out, Element((0, 0, 0), 0, (i,), e.s))
        assert (out.k, out.I) == expect


def test_table_sign_matches_word_sorting():
    # every word a_I a_{s(j_1)} ... a_{s(j_m)}, I increasing and the s(j) distinct
    words = 0
    for n in range(6):
        law = SpinLaw(builtin("trivial")[1], n)
        unit = (0,) * n
        by_sequence = {}
        for p, s in enumerate(law.perms):
            for J in range(1 << n):
                seq = tuple(s[j] for j in range(n) if J >> j & 1)
                by_sequence.setdefault(seq, (p, J))
        for I in range(1 << n):
            indices = [i for i in range(n) if I >> i & 1]
            for seq, (p, J) in by_sequence.items():
                _, k, mask, q = law.mul((unit, 0, I, p), (unit, 0, J, 0))
                z, word = normalize_word(indices + list(seq))
                assert (k, mask, q) == (z, sum(1 << i for i in word), p), (n, indices, seq)
                words += 1
    assert words == 11625


@pytest.mark.parametrize("name,n", [("trivial", 4), ("cyclic:3", 3), ("klein4", 3),
                                    ("quaternion8", 3)])
def test_packed_law_matches_reference(name, n):
    law = Law(name, n)
    rng = random.Random(n)
    for _ in range(200):
        x = rand_element(rng, law.cg.order, n)
        y = rand_element(rng, law.cg.order, n)
        assert unpack(law.law, pack(law.law, x)) == x
        assert law.mul(x, y) == ref_multiply(law.cg, x, y)
        assert law.inv(x) == ref_inverse(law.cg, x)


def test_conjugation_lemma_example():
    # conjugating a_emptyset (12) by a_{1,2} (12) gives z (12)
    law = Law("trivial", 2)
    s12 = (1, 0)
    x = Element((0, 0), 0, (0, 1), s12)
    y = Element((0, 0), 0, (), s12)
    out = law.mul(law.mul(x, y), law.inv(x))
    assert out == times_z(y)


def test_inverse_random():
    rng = random.Random(0)
    for name, n in (("trivial", 3), ("cyclic:2", 3), ("cyclic:3", 2)):
        law = Law(name, n)
        for _ in range(40):
            x = rand_element(rng, law.cg.order, n)
            assert law.mul(x, law.inv(x)) == identity_element(n)
            assert law.mul(law.inv(x), x) == identity_element(n)


def test_multiply_associative_random():
    rng = random.Random(1)
    law = Law("cyclic:2", 3)
    for _ in range(40):
        x, y, z = (rand_element(rng, 2, 3) for _ in range(3))
        assert law.mul(law.mul(x, y), z) == law.mul(x, law.mul(y, z))


@pytest.mark.parametrize("name,n", [("trivial", 4), ("cyclic:3", 3), ("klein4", 3),
                                    ("quaternion8", 3)])
def test_conjugation_step_matches_mul(name, n):
    law = Law(name, n).law
    rng = random.Random(n)
    elements = [pack(law, rand_element(rng, law.order, n)) for _ in range(200)]
    generators = spingroup._generators(law)
    assert any(any(h[0]) for h in generators) == (name != "trivial")
    for h in generators:
        step, hinv = law.conjugation(h), law.inv(h)
        for y in elements:
            assert step(y) == law.mul(law.mul(h, y), hinv)


def test_signed_type_examples():
    g, cg = builtin("trivial")
    law = SpinLaw(cg, 3)
    x = Element((0, 0, 0), 0, (0,), (1, 2, 0))  # a_1 (123)
    st = signed_type(law, pack(law, x))
    assert st.rho_plus == MultiPartition([()])
    assert st.rho_minus == MultiPartition([(3,)])
    ident = identity_element(3)
    st = signed_type(law, pack(law, ident))
    assert st.rho_plus == MultiPartition([(1, 1, 1)])
    g2, cg2 = builtin("cyclic:2")
    law2 = SpinLaw(cg2, 2)
    x = Element((1, 0), 0, (), (1, 0))
    st = signed_type(law2, pack(law2, x))
    assert st.rho_plus == MultiPartition([(), (2,)])
    assert st.rho_minus == MultiPartition([(), ()])


def test_is_split_examples():
    one = MultiPartition([(1, 1, 1)])
    empty = MultiPartition([()])
    assert is_split(SignedType(one, empty))
    assert not is_split(SignedType(MultiPartition([(2, 1)]), empty))
    assert is_split(SignedType(MultiPartition([()]), MultiPartition([(3,)])))
    # odd, non-strict: not split
    assert not is_split(SignedType(empty, MultiPartition([(1, 1, 1)])))
    # even with nonempty rho-: not split
    assert not is_split(SignedType(MultiPartition([(1,)]), MultiPartition([(1, 1)])))


def test_element_count():
    g, cg = builtin("cyclic:2")
    n = 2
    law = SpinLaw(cg, n)
    elements = [unpack(law, x) for x in law.elements()]
    assert elements == list(ref_elements(cg, n))
    count = len(elements)
    assert count == 2 ** (n + 1) * 2 * cg.order ** n  # 2^{n+1} n! |Gamma|^n


def test_bruteforce_trivial_n2():
    g, cg = builtin("trivial")
    law = SpinLaw(cg, 2)
    classes = enumerate_classes_bruteforce(law)
    assert sum(c.size for c in classes) == 16
    even_split = {(c.signed_type.rho_plus, c.signed_type.rho_minus)
                  for c in classes if c.split and c.parity == 0}
    odd_split = {(c.signed_type.rho_plus, c.signed_type.rho_minus)
                 for c in classes if c.split and c.parity == 1}
    assert len(even_split) == 1  # rho = (1,1) only
    assert len(odd_split) == 1   # (2) strict of length 1
    ident = identity_element(2)
    for c in classes:
        if c.representative == pack(law, ident):
            assert c.centralizer_order == 16


def test_bruteforce_matches_theorem_and_centralizers():
    for name, n in (("trivial", 2), ("trivial", 3), ("cyclic:2", 2)):
        g, cg = builtin(name)
        classes = enumerate_classes_bruteforce(SpinLaw(cg, n))
        zetas = g.centralizer_orders
        for c in classes:
            assert c.split == is_split(c.signed_type)
            if c.split and c.parity == 0:
                z = big_z(c.signed_type.rho_plus, zetas)
                assert c.centralizer_order == 2 ** (1 + c.signed_type.rho_plus.length) * z


def test_signed_type_is_class_invariant_for_even_part():
    # elements with k=0 are conjugate in the quotient iff equal signed type
    g, cg = builtin("trivial")
    law = SpinLaw(cg, 3)
    classes = enumerate_classes_bruteforce(law)
    types = {}
    for c in classes:
        key = (c.signed_type.rho_plus, c.signed_type.rho_minus)
        types.setdefault(key, set()).add(id(c))
        # a class never mixes types: recompute on several orbit members
    for c in classes:
        st0 = c.signed_type
        count = 0
        for x in ref_elements(cg, 3):
            if signed_type(law, pack(law, x)) == st0 and x.k == 0:
                count += 1
        # total number of k=0 elements of this type equals the quotient class size
        from spinwreath.spingroup import SignedType as ST
        # the two cover classes over a split type halve the preimage
        seen = [cc for cc in classes
                if cc.signed_type == st0]
        total = sum(cc.size for cc in seen)
        assert count == total // 2


def test_representative_of_type_round_trip():
    g, cg = builtin("cyclic:2")
    law = SpinLaw(cg, 3)
    for tc in theory_classes(g, 3):
        rep = representative_of_type(law, SignedType(tc.rho_plus, tc.rho_minus))
        st = signed_type(law, rep)
        assert st.rho_plus == tc.rho_plus and st.rho_minus == tc.rho_minus


def test_clifford_traces():
    g, cg = builtin("trivial")
    law = SpinLaw(cg, 3)
    ident = pack(law, identity_element(3))
    assert law.clifford_trace(ident) == 8
    # one canonical value (den, numerators) per irreducible, on the axis
    assert basic_spin_trace(law, g, ident) == [(1, (8,))]
    rep3 = representative_of_type(law, SignedType(MultiPartition([(3,)]),
                                                  MultiPartition([()])))
    assert basic_spin_trace(law, g, rep3) == [(1, (2,))]
    rep111 = representative_of_type(law, SignedType(MultiPartition([(1, 1, 1)]),
                                                    MultiPartition([()])))
    assert basic_spin_trace(law, g, rep111) == [(1, (8,))]


def test_basic_trace_dimension_count():
    g, cg = builtin("quaternion8")
    law = SpinLaw(cg, 2)
    ident = pack(law, identity_element(2))
    # trace at the identity is deg(V)^n 2^n
    assert basic_spin_trace(law, g, ident)[4] == (1, ((2 ** 2) * (2 ** 2),))


def test_trace_vanishes_off_split_even():
    for name, n in (("trivial", 3), ("cyclic:2", 2)):
        g, cg = builtin(name)
        law = SpinLaw(cg, n)
        classes = enumerate_classes_bruteforce(law)
        for c in classes:
            traces = basic_spin_trace(law, g, c.representative)
            assert len(traces) == g.num_classes
            if not c.split or c.parity == 1:
                assert all(not any(nums) for _, nums in traces)
        # z flips the sign: trace(zx) = -trace(x)
        for c in classes[:6]:
            den, nums = basic_spin_trace(law, g, c.representative)[0]
            z_rep = pack(law, times_z(unpack(law, c.representative)))
            assert basic_spin_trace(law, g, z_rep)[0] == (den, tuple(-x for x in nums))


def test_clifford_trace_matches_basis_action():
    g, cg = builtin("trivial")
    for n in range(5):
        law = SpinLaw(cg, n)
        for x in ref_elements(cg, n):
            assert law.clifford_trace(pack(law, x)) == ref_clifford_trace(x, n), x


@pytest.mark.parametrize("name", ["klein4", "quaternion8", "cyclic:3", "cyclic:5"])
def test_traces_match_per_v_product(name):
    # cyclic:3 and cyclic:5 bring irrational values; cyclic:5 at n = 2 keeps
    # the cover small
    g, cg = builtin(name)
    n = 2 if name == "cyclic:5" else 3
    law = SpinLaw(cg, n)
    nonzero = 0
    for tc in theory_classes(g, n):
        rep = unpack(law, representative_of_type(law, SignedType(tc.rho_plus, tc.rho_minus)))
        for x in (rep, times_z(rep)):
            traces = basic_spin_trace(law, g, pack(law, x))
            assert len(traces) == g.num_classes
            for v, (den, nums) in enumerate(traces):
                assert (den, nums) == axis_scalar(g.axis, nums, den)  # canonical
                assert cyc_from_numerators(g.axis, nums, den) \
                    == ref_basic_spin_trace(cg, g, v, n, x)
                nonzero += any(nums)
    assert nonzero > 0


def test_guard():
    g, cg = builtin("cyclic:6")
    with pytest.raises(ValueError, match="guard"):
        SpinLaw(cg, 5)


def test_guard_comes_before_any_table(monkeypatch):
    # the permutation list is the law's first table
    def refuse(*args):
        raise AssertionError("tables built")

    monkeypatch.setattr(spingroup, "permutations", refuse)
    g, cg = builtin("cyclic:6")
    with pytest.raises(ValueError, match="guard"):
        SpinLaw(cg, 5)
    with pytest.raises(AssertionError, match="tables built"):  # under the guard
        SpinLaw(cg, 1)


@pytest.mark.parametrize("name,n", [("trivial", 0), ("trivial", 1), ("trivial", 2),
                                    ("trivial", 3), ("trivial", 4), ("cyclic:2", 3),
                                    ("cyclic:3", 2), ("klein4", 2), ("quaternion8", 2),
                                    ("klein4", 3), ("cyclic:3", 3)])
def test_classes_match_reference_orbit_closure(name, n):
    g, cg = builtin(name)
    law = SpinLaw(cg, n)
    got = [(unpack(law, c.representative), c.size, c.split, c.centralizer_order)
           for c in enumerate_classes_bruteforce(law)]
    assert got == ref_classes(cg, n)


@pytest.mark.parametrize("name,n", [("quaternion8", 3), ("trivial", 5)])
def test_classes_match_whole_cover_closure(name, n):
    g, cg = builtin(name)
    classes = enumerate_classes_bruteforce(SpinLaw(cg, n))
    got = [(c.representative, c.size, c.split, c.centralizer_order) for c in classes]
    assert got == cover_classes(cg, n)
    assert {c.split for c in classes} == {True, False}


def test_oracle_rows_small():
    g, cg = builtin("trivial")
    cols, rows = oracle_spin_rows(cg, g, 3)
    vals = {lam: [v.as_rational() for v in row] for lam, row in rows.items()}
    assert vals[(3,)] == [8, 2]
    assert vals[(2, 1)] == [4, -2]
