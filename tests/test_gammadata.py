import json

from fractions import Fraction

import pytest

from spinwreath.gammadata import (GammaData, GammaValidationError, VirtualChar, builtin,
                                  gram_matrix, load_gamma, mckay_xi)
from spinwreath.scalars import Cyc, CycError

from gamma_reference import (at_order, cyc_chars, cyc_doc, cyc_from_numerators, cyc_value,
                             reference_chars)

BUILTINS = ["trivial", "cyclic:2", "cyclic:3", "cyclic:6", "klein4", "quaternion8"]


def weighted_form(gamma, xi, f, g):
    """<f, g>_xi = sum_c zeta_c^{-1} xi(c) f(c) g(c^{-1}), f and g char
    vectors, in `Cyc` arithmetic: the reference for `gram_matrix`."""
    total = Cyc.rational(0)
    for ci, cls in enumerate(gamma.classes):
        zc = gamma.centralizer_order(ci)
        term = cyc_value(gamma, xi.coeffs, ci) * cyc_value(gamma, f, ci) \
            * cyc_value(gamma, g, cls.inverse)
        total = total + term / Fraction(zc)
    return total


def test_trivial():
    g, cg = builtin("trivial")
    assert g.num_classes == 1
    assert g.chars == [[(1, (1,))]]
    assert cg.order == 1


def test_cyclic2_chars():
    g, _ = builtin("cyclic:2")
    assert g.axis == 1
    assert g.chars == [[(1, (1,)), (1, (1,))], [(1, (1,)), (1, (-1,))]]


def test_quaternion8():
    g, cg = builtin("quaternion8")
    assert sorted(c.size for c in g.classes) == [1, 1, 2, 2, 2]
    assert g.chars[4] == [(1, (v,)) for v in (2, -2, 0, 0, 0)]
    # concrete classes agree with the class data
    classes = cg.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
    for cls in classes:
        labels = {cg.class_of[x] for x in cls}
        assert len(labels) == 1
    # the 2-dimensional representation is a homomorphism
    mats = cg.rep_matrices[4]
    for a in range(8):
        for b in range(8):
            prod = cg.mul(a, b)
            lhs = [[sum((mats[a][i][k] * mats[b][k][j] for k in range(2)),
                        Cyc.rational(0)) for j in range(2)] for i in range(2)]
            assert all(lhs[i][j] == mats[prod][i][j] for i in range(2) for j in range(2))


def test_builtin_validation_and_column_orthogonality():
    for name in BUILTINS:
        g, cg = builtin(name)
        k = g.num_classes
        chars = cyc_chars(g)
        # column orthogonality: sum_i chi_i(c) chi_i(c'^{-1}) = delta zeta_c
        for c in range(k):
            for cp in range(k):
                total = Cyc.rational(0)
                for i in range(k):
                    total = total + chars[i][c] * chars[i][g.dual_class(cp)]
                expect = g.centralizer_order(c) if c == cp else 0
                assert total == expect, (name, c, cp)
        if cg is not None:
            sizes = sorted(len(c) for c in cg.conjugacy_classes())
            assert sizes == sorted(c.size for c in g.classes)


def test_load_round_trip():
    g, _ = builtin("cyclic:3")
    doc = json.dumps(g.to_doc())
    g2 = load_gamma(doc)
    assert g2.order == 3 and g2.num_classes == 3
    assert g2.axis == g.axis and g2.chars == g.chars


def test_load_rejects_duplicate_row():
    g, _ = builtin("cyclic:2")
    doc = g.to_doc()
    doc["chars"][1] = doc["chars"][0]
    with pytest.raises(GammaValidationError, match="orthogonality"):
        load_gamma(json.dumps(doc))


def test_load_rejects_bad_sizes():
    g, _ = builtin("cyclic:2")
    doc = g.to_doc()
    doc["classes"][1]["size"] = 2
    with pytest.raises(GammaValidationError):
        load_gamma(json.dumps(doc))


def test_load_rejects_non_positive_degree():
    # the rows stay orthonormal, so only the degree check can see it
    g, _ = builtin("cyclic:2")
    doc = g.to_doc()
    doc["chars"][1] = [{"N": 1, "coeffs": [[-1, 1]]}, {"N": 1, "coeffs": [[1, 1]]}]
    with pytest.raises(GammaValidationError,
                       match="degree of character 1 is not a positive integer: -1"):
        load_gamma(json.dumps(doc))


def fake_order4_doc():
    """Four self-inverse classes of size 1 and orthonormal rows with degree 1,
    but no group: g1*g1 has g1 with multiplicity -8/9."""
    rows = [[1, 1, 1, 1]] + [[1] + [Fraction(-5, 3) if c == i else Fraction(1, 3)
                                     for c in range(1, 4)] for i in range(1, 4)]
    return {"name": "fake4", "order": 4,
            "classes": [{"name": f"c{c}", "size": 1, "element_order": 1 if c == 0 else 2,
                         "inverse": c} for c in range(4)],
            "chars": [[{"N": 1, "coeffs": [[Fraction(v).numerator, Fraction(v).denominator]]}
                       for v in row] for row in rows]}


def test_load_rejects_products_that_do_not_decompose():
    with pytest.raises(GammaValidationError, match=r"g1\*g1 is not a character: g1 occurs -8/9"):
        load_gamma(json.dumps(fake_order4_doc()))


def test_gram_matrix_refuses_a_non_integer_entry(monkeypatch):
    # skip the product check that `load_gamma` makes, so the fake table
    # reaches the Gram matrix; its McKay-like weight gives 26/9 at (1, 1)
    monkeypatch.setattr(GammaData, "require_products_decompose", lambda self: None)
    g = load_gamma(json.dumps(fake_order4_doc()))
    with pytest.raises(CycError, match=r"Gram entry \(1,1\) is not an integer: 26/9"):
        gram_matrix(g, VirtualChar([2, -1, 0, 0]))


@pytest.mark.parametrize("name", BUILTINS + ["cyclic:4", "cyclic:5", "cyclic:8", "klein4"])
def test_builtin_tables_pass_the_product_check(name):
    g, _ = builtin(name)
    g.require_products_decompose()


def test_load_rejects_garbage():
    with pytest.raises(GammaValidationError):
        load_gamma(b"not json at all {")
    with pytest.raises(GammaValidationError):
        load_gamma(json.dumps({"name": "x"}))


# Each edit of the cyclic:3 document below puts in a number that is no JSON
# integer, or a zero denominator: int() would read 3.9 as 3 and true as 1, and
# Fraction(1, 0) raises ZeroDivisionError, so each must be refused by name.
NOT_INTEGERS = [
    (("order",), 3.9, "order must be an integer, got 3.9"),
    (("classes", 1, "size"), True, "classes[1].size must be an integer, got true"),
    (("classes", 1, "element_order"), 3.0, "classes[1].element_order must be an integer, got 3.0"),
    (("classes", 2, "inverse"), "1", 'classes[2].inverse must be an integer, got "1"'),
    (("chars", 1, 1, "N"), 3.0, "N must be an integer, got 3.0"),
    (("chars", 0, 0, "coeffs"), [[1, 0]], "coefficient [1, 0] has a zero denominator"),
    (("chars", 1, 1, "coeffs"), [[0, 1], [1, True]],
     "a coefficient's denominator must be an integer, got true"),
    (("chars", 1, 1, "coeffs"), [[0, 1], [1.0, 1]],
     "a coefficient's numerator must be an integer, got 1.0"),
]


@pytest.mark.parametrize("path,value,expect", NOT_INTEGERS)
def test_load_accepts_only_json_integers(path, value, expect):
    doc = builtin("cyclic:3")[0].to_doc()
    load_gamma(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(GammaValidationError) as err:
        load_gamma(json.dumps(doc))
    assert str(err.value) == f"malformed Gamma document: {expect}"


def test_weighted_form_standard_is_delta():
    g, _ = builtin("cyclic:3")
    xi = VirtualChar.trivial(g)
    for i in range(3):
        for j in range(3):
            e_i = [1 if t == i else 0 for t in range(3)]
            e_j = [1 if t == j else 0 for t in range(3)]
            assert weighted_form(g, xi, e_i, e_j) == (1 if i == j else 0)


def test_weighted_form_cyclic2_mckay():
    g, _ = builtin("cyclic:2")
    xi = mckay_xi(g)
    assert xi.coeffs == (2, -2)
    assert weighted_form(g, xi, [1, 0], [1, 0]) == 2
    assert weighted_form(g, xi, [1, 0], [0, 1]) == -2


def test_weighted_form_zero_xi():
    g, _ = builtin("cyclic:2")
    xi = VirtualChar([0, 0])
    assert weighted_form(g, xi, [1, 1], [2, -1]) == 0


def test_cartan_matrices():
    g2, _ = builtin("cyclic:2")
    assert gram_matrix(g2, mckay_xi(g2)) == [[2, -2], [-2, 2]]
    for k in range(3, 7):
        g, _ = builtin(f"cyclic:{k}")
        a = gram_matrix(g, mckay_xi(g))
        for i in range(k):
            assert a[i][i] == 2
            for j in range(k):
                if j != i:
                    expect = -1 if (i - j) % k in (1, k - 1) else 0
                    assert a[i][j] == expect
    q8, _ = builtin("quaternion8")
    a = gram_matrix(q8, mckay_xi(q8))
    assert a == [[2, 0, 0, 0, -1], [0, 2, 0, 0, -1], [0, 0, 2, 0, -1],
                 [0, 0, 0, 2, -1], [-1, -1, -1, -1, 2]]


def test_cartan_null_vector_is_degrees():
    for name in ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "quaternion8"):
        g, _ = builtin(name)
        a = gram_matrix(g, mckay_xi(g))
        degs = [g.degree(i) for i in range(g.num_classes)]
        for row in a:
            assert sum(x * d for x, d in zip(row, degs)) == 0


def test_gram_is_rational_and_integral():
    # any integer virtual weight yields an integer Gram matrix, returned as ints
    for name in BUILTINS:
        g, _ = builtin(name)
        xi = VirtualChar([2] + [-1] * g.r)
        gm = gram_matrix(g, xi)
        assert all(type(a) is int for row in gm for a in row)
        assert gm == [[weighted_form(g, xi, [int(t == i) for t in range(g.num_classes)],
                                     [int(t == j) for t in range(g.num_classes)])
                       for j in range(g.num_classes)] for i in range(g.num_classes)]


def test_mckay_xi():
    g2, _ = builtin("cyclic:2")
    assert mckay_xi(g2).coeffs == (2, -2)
    q8, _ = builtin("quaternion8")
    assert mckay_xi(q8).coeffs == (2, 0, 0, 0, -1)
    assert mckay_xi(q8).is_self_dual(q8)
    g1, _ = builtin("trivial")
    with pytest.raises(ValueError):
        mckay_xi(g1)
    with pytest.raises(ValueError):
        mckay_xi(q8, pi_index=1)  # 1-dimensional character designated


def test_mckay_xi_reads_pi_from_the_table():
    # cyclic:4 with characters 1 and 2 swapped: index 1 is now the order-2
    # character and index 2 the faithful one, so pi = gamma_2 + gamma_3
    doc = builtin("cyclic:4")[0].to_doc()
    doc["chars"][1], doc["chars"][2] = doc["chars"][2], doc["chars"][1]
    g = load_gamma(json.dumps(doc))
    assert g.name.startswith("cyclic")  # the name alone once chose pi
    assert mckay_xi(g).coeffs == (2, 0, -1, -1)
    k4, _ = builtin("klein4")
    with pytest.raises(ValueError, match="designate pi explicitly"):
        mckay_xi(k4)  # abelian, but no faithful linear character


def test_self_duality():
    g3, _ = builtin("cyclic:3")
    assert VirtualChar([3, -1, -1]).is_self_dual(g3)
    assert not VirtualChar([0, 1, 0]).is_self_dual(g3)


def _weights(g):
    out = [VirtualChar.trivial(g), VirtualChar([2] + [-1] * g.r)]
    try:
        out.append(mckay_xi(g))
    except ValueError:  # no 2-dimensional defining character for this group
        pass
    return out


@pytest.mark.parametrize("name", BUILTINS + ["cyclic:4", "cyclic:5", "cyclic:8", "klein4"])
def test_gram_matrix_matches_weighted_form(name):
    g, _ = builtin(name)
    k = g.num_classes
    basis = [[1 if t == i else 0 for t in range(k)] for i in range(k)]
    for xi in _weights(g):
        gm = gram_matrix(g, xi)
        assert gm == [[weighted_form(g, xi, basis[i], basis[j]) for j in range(k)]
                      for i in range(k)]
    mckay_groups = {"cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
                    "cyclic:8", "quaternion8"}
    assert (len(_weights(g)) == 3) == (name in mckay_groups)


def test_rational_values_stored_at_order_1():
    # each value is (den, numerators) on the axis: a rational one has no
    # irrational numerator, and an all-rational Gamma has the axis 1
    q8, _ = builtin("quaternion8")
    assert q8.axis == 1 and q8.chars[4][1] == (1, (-2,))
    c4, _ = builtin("cyclic:4")
    assert c4.axis == 4
    assert c4.chars[2][1] == (1, (-1, 0))
    assert c4.chars[1][1] == (1, (0, 1))  # zeta_4 stays in Q(zeta_4)
    c6, _ = builtin("cyclic:6")
    assert c6.chars[2][1] == (1, (-1, 1))  # zeta_3 = zeta_6^2 = zeta_6 - 1 on the axis 6
    assert c6.chars[3][1] == (1, (-1, 0))


def test_to_doc_unchanged_by_rational_storage():
    g, _ = builtin("cyclic:4")
    one, minus = [[1, 1]], [[-1, 1]]
    i_, minus_i = [[0, 1], [1, 1]], [[0, 1], [-1, 1]]
    rat = {1: one, -1: minus}
    expect = [[{"N": 1, "coeffs": one}] * 4,
              [{"N": 1, "coeffs": one}, {"N": 4, "coeffs": i_},
               {"N": 1, "coeffs": minus}, {"N": 4, "coeffs": minus_i}],
              [{"N": 1, "coeffs": rat[(-1) ** m]} for m in range(4)],
              [{"N": 1, "coeffs": one}, {"N": 4, "coeffs": minus_i},
               {"N": 1, "coeffs": minus}, {"N": 4, "coeffs": i_}]]
    doc = g.to_doc()
    assert doc["chars"] == expect
    assert load_gamma(json.dumps(doc)).to_doc() == doc


@pytest.mark.parametrize("name,row,col", [("cyclic:3", 1, 2), ("cyclic:8", 3, 5)])
def test_validate_rejects_one_perturbed_irrational_entry(name, row, col):
    # orthogonality is summed on integer numerators (`_weighted_gram` on
    # `value_numerators`); moving one irrational value by zeta^2/9 must
    # still break it
    g, _ = builtin(name)
    doc = g.to_doc()
    value = cyc_chars(g)[row][col]
    assert value.as_rational() is None
    doc["chars"][row][col] = cyc_doc(value + Cyc.zeta(value.order, 2) * Fraction(1, 9))
    with pytest.raises(GammaValidationError, match="row orthogonality fails for characters"):
        load_gamma(json.dumps(doc))


def test_validate_reports_values_at_incompatible_orders():
    # the cyclic:3 table with row 1 stored in Q(zeta_3) and row 2 in
    # Q(zeta_6), and element orders that name neither, so nothing promotes
    # them: the rows are orthonormal, but the table must be refused with the
    # message Cyc arithmetic gives, not passed on to fail later
    one = {"N": 1, "coeffs": [[1, 1]]}
    doc = {"name": "mixed", "order": 3,
           "classes": [{"name": f"c{c}", "size": 1, "element_order": 1,
                        "inverse": (-c) % 3} for c in range(3)],
           "chars": [[one, one, one],
                     [one, cyc_doc(Cyc.zeta(3, 1)), cyc_doc(Cyc.zeta(3, 2))],
                     [one, cyc_doc(Cyc.zeta(6, 4)), cyc_doc(Cyc.zeta(6, 2))]]}
    with pytest.raises(GammaValidationError, match="malformed Gamma document: incompatible "
                       "cyclotomic orders 3 and 6; promote explicitly"):
        load_gamma(json.dumps(doc))


def test_a_value_is_read_onto_the_value_axis():
    # (den, numerators) on the axis of `value_numerators`, canonical
    c6, _ = builtin("cyclic:6")
    assert c6.value_numerators[0] == 6
    assert c6.on_axis((3, 4, (0, 1))) == (4, (-1, 1))  # zeta_3 = zeta_6 - 1
    assert c6.on_axis((3, 8, (0, 2))) == (4, (-1, 1))  # made canonical
    assert c6.on_axis((6, 2, (4, -6))) == (1, (2, -3))
    assert c6.on_axis(Fraction(-3, 9)) == (3, (-1, 0))
    assert c6.on_axis(0) == (1, (0, 0))
    assert c6.on_axis((2, 1, (-1,))) == (1, (-1, 0))
    assert c6.on_axis((3, 3, (-2, 0))) == (3, (-2, 0))  # rational at order 3
    for v in (Cyc.zeta(3) / 4, Cyc.zeta(6, 5) * Fraction(2, 7), Cyc.rational(-5)):
        den, nums = c6.on_axis(at_order(v))
        assert cyc_from_numerators(6, nums, den) == v
    q8, _ = builtin("quaternion8")
    assert q8.on_axis(at_order(Cyc.zeta(4) * Cyc.zeta(4))) == (1, (-1,))
    with pytest.raises(CycError, match="cannot promote order 4 into order 1"):
        q8.on_axis(at_order(Cyc.zeta(4)))


ALL_BUILTINS = ["trivial"] + [f"cyclic:{k}" for k in range(1, 10)] + ["klein4", "quaternion8"]


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_stored_values_are_the_reference_table_on_the_axis(name):
    # the stored form, on the built-in and on its document's round trip, is
    # `on_axis` of the characters written out in `Cyc`; the axis is the one
    # every written "N" shows
    g, _ = builtin(name)
    loaded = load_gamma(json.dumps(g.to_doc()))
    ref = reference_chars(name)
    for gamma in (g, loaded):
        assert gamma.axis == gamma.value_numerators[0]
        assert gamma.chars == [[gamma.on_axis(at_order(v)) for v in row] for row in ref]
    assert loaded.to_doc() == g.to_doc()
    assert {v["N"] for row in g.to_doc()["chars"] for v in row} <= {1, g.axis}


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_char_value_and_value_at_match_cyc_sums(name):
    g, _ = builtin(name)
    ref = reference_chars(name)
    weights = [VirtualChar.trivial(g)]
    try:
        weights.append(mckay_xi(g))
    except ValueError:  # no 2-dimensional defining character
        pass
    for xi in weights + [VirtualChar([2] + [-1] * g.r)]:
        for ci in range(g.num_classes):
            total = Cyc.rational(0)
            for row, s in zip(ref, xi.coeffs):
                total = total + row[ci] * s
            assert g.char_value(xi.coeffs, ci) == g.on_axis(at_order(total)), (xi, ci)
            assert xi.value_at(g, ci) == g.on_axis(at_order(total)), (xi, ci)


@pytest.mark.parametrize("edit,expect", [
    (lambda doc: doc.update(name=None), "name must be a string, got null"),
    (lambda doc: doc.update(name=3), "name must be a string, got 3"),
    (lambda doc: doc["classes"][1].update(name=7), "classes[1].name must be a string, got 7"),
    (lambda doc: doc["classes"][1].update(name=None),
     "classes[1].name must be a string, got null"),
    (lambda doc: doc["classes"][2].update(name="c1"), 'classes[2].name repeats "c1"'),
])
def test_load_requires_string_names_and_distinct_class_names(edit, expect):
    doc = builtin("cyclic:3")[0].to_doc()
    edit(doc)
    with pytest.raises(GammaValidationError) as err:
        load_gamma(json.dumps(doc))
    assert str(err.value) == f"malformed Gamma document: {expect}"


def test_validate_prints_an_irrational_degree_exactly():
    doc = builtin("cyclic:3")[0].to_doc()
    doc["chars"][1][0] = cyc_doc(Cyc.zeta(3))
    with pytest.raises(GammaValidationError) as err:
        load_gamma(json.dumps(doc))
    assert str(err.value) == ('degree of character 1 is not a positive integer: '
                              '{"N":3,"coeffs":[[0,1],[1,1]]}')


# one value of cyclic:3's document replaced: each fault is one message, and
# the checks run pair by pair (denominator, zero denominator, numerator),
# then on N, then on the count of pairs; recorded at the commit before the
# parser read documents as integers, except N <= 0, which then read
# "euler_phi needs n >= 1"
VALUE_DOC_FAULTS = [
    ({"N": 3, "coeffs": [[0, 1]]}, "need 2 coefficients for order 3, got 1"),
    ({"N": 3, "coeffs": [[0, 1], [1, 1], [0, 1]]}, "need 2 coefficients for order 3, got 3"),
    ({"N": 3.0, "coeffs": [[0, 1]]}, "N must be an integer, got 3.0"),
    ({"N": 3.0, "coeffs": [[0.5, 1], [1, 1]]},
     "a coefficient's numerator must be an integer, got 0.5"),
    ({"N": 3.0, "coeffs": [[0.5, 0], [1, 1]]}, "coefficient [0.5, 0] has a zero denominator"),
    ({"N": 3.0, "coeffs": [[0.5, 1.5], [1, 1]]},
     "a coefficient's denominator must be an integer, got 1.5"),
    ({"N": 3, "coeffs": [[0.5, 1], [1, 1.5]]},
     "a coefficient's numerator must be an integer, got 0.5"),
    ({"N": 3, "coeffs": [[0, 1], [1.5, 0]]}, "coefficient [1.5, 0] has a zero denominator"),
    ({"N": 0, "coeffs": [[0, 1]]}, "N must be a positive integer, got 0"),
    ({"N": -3, "coeffs": [[0, 1], [1, 1]]}, "N must be a positive integer, got -3"),
]


@pytest.mark.parametrize("value,expect", VALUE_DOC_FAULTS)
def test_value_document_faults_are_checked_in_order(value, expect):
    doc = builtin("cyclic:3")[0].to_doc()
    doc["chars"][1][1] = value
    with pytest.raises(GammaValidationError) as err:
        load_gamma(json.dumps(doc))
    assert str(err.value) == f"malformed Gamma document: {expect}"


# a value of the wrong shape names its position and field, not Python's own
# error: these read "too many values to unpack (expected 2)", "not enough
# values to unpack (expected 2, got 1)", "'int' object is not iterable" and
# "'N'" before
@pytest.mark.parametrize("value,expect", [
    ({"N": 3, "coeffs": [[0, 1, 2], [1, 1]]},
     "chars[1][1].coeffs[0] must be a [numerator, denominator] pair, got [0, 1, 2]"),
    ({"N": 3, "coeffs": [[0, 1], [1]]},
     "chars[1][1].coeffs[1] must be a [numerator, denominator] pair, got [1]"),
    ({"N": 3, "coeffs": 5},
     "chars[1][1].coeffs must be a list of [numerator, denominator] pairs, got 5"),
    ({"coeffs": [[0, 1], [1, 1]]}, "chars[1][1] has no N"),
    ({"N": 3}, "chars[1][1] has no coeffs"),
    (5, "chars[1][1] must be an object with N and coeffs, got 5"),
], ids=["pair-of-3", "pair-of-1", "coeffs-int", "no-N", "no-coeffs", "value-int"])
def test_value_document_shape_faults_name_the_field(value, expect):
    doc = builtin("cyclic:3")[0].to_doc()
    doc["chars"][1][1] = value
    with pytest.raises(GammaValidationError) as err:
        load_gamma(json.dumps(doc))
    assert str(err.value) == f"malformed Gamma document: {expect}"


# a document of the wrong shape above the value level names its field and
# position: these read "'int' object is not iterable", "'int' object is not
# subscriptable", "'classes'" and "'size'" before
@pytest.mark.parametrize("edit,expect", [
    (lambda doc: doc["chars"].__setitem__(1, 5), "chars[1] must be a list, got 5"),
    (lambda doc: doc["classes"].__setitem__(1, 5), "classes[1] must be an object, got 5"),
    (lambda doc: doc.pop("classes"), "the document has no classes"),
    (lambda doc: doc["classes"][1].pop("size"), "classes[1] has no size"),
], ids=["chars-row-int", "class-int", "no-classes", "class-no-size"])
def test_document_shape_faults_name_the_field(edit, expect):
    doc = builtin("cyclic:3")[0].to_doc()
    edit(doc)
    with pytest.raises(GammaValidationError) as err:
        load_gamma(json.dumps(doc))
    assert str(err.value) == f"malformed Gamma document: {expect}"


def _set(key, values):
    def edit(doc):
        for ci, v in values.items():
            doc["classes"][ci][key] = v
    return edit


# class data is checked before any value is read: a zero size raised
# ZeroDivisionError, an element order that is not a positive divisor of
# |Gamma| chose the value axis (order 9 wrote cyclic:3's values at N = 9,
# order 0 failed in euler_phi), and inverse classes of different orders
# loaded
@pytest.mark.parametrize("name,edit,expect", [
    ("cyclic:3", _set("size", {1: 0, 2: 2}), "class c1 has size 0; class sizes must be positive"),
    ("cyclic:3", _set("size", {1: -1, 2: 3}),
     "class c1 has size -1; class sizes must be positive"),
    ("cyclic:3", _set("element_order", {1: 9}),
     "element order 9 of class c1 is not a positive divisor of |Gamma| = 3"),
    ("cyclic:3", _set("element_order", {1: 0}),
     "element order 0 of class c1 is not a positive divisor of |Gamma| = 3"),
    ("cyclic:3", _set("element_order", {1: -3}),
     "element order -3 of class c1 is not a positive divisor of |Gamma| = 3"),
    ("klein4", _set("element_order", {1: 0}),
     "element order 0 of class a is not a positive divisor of |Gamma| = 4"),
    ("cyclic:3", _set("element_order", {2: 1}),
     "classes c1 and c2 are inverse but have element orders 3 and 1"),
    ("cyclic:6", _set("element_order", {5: 3}),
     "classes c1 and c5 are inverse but have element orders 6 and 3"),
], ids=["size-0", "size-negative", "order-9", "order-0", "order-negative", "klein4-order-0",
        "inverse-order-1", "inverse-order-3"])
def test_class_data_faults_are_one_message(name, edit, expect):
    doc = builtin(name)[0].to_doc()
    load_gamma(json.dumps(doc))
    edit(doc)
    with pytest.raises(GammaValidationError) as err:
        load_gamma(json.dumps(doc))
    assert str(err.value) == expect
