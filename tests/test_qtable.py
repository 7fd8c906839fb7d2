import json
from fractions import Fraction
from math import factorial

import pytest

from spinwreath import cli, qtable
from spinwreath import vertex as vx
from spinwreath.classfun import SpinClassFun, weighted_inner
from spinwreath.fock import FockContext, FockVector, a_prime_vector, create, inner
from spinwreath.gammadata import VirtualChar, builtin
from spinwreath.partitions import MultiPartition, multipartitions
from spinwreath.qtable import (TableCheckError, build_table, char_degree,
                               char_value, q_power_product,
                               raising_coefficients, raising_expand,
                               verify_table, x_lambda_vector)
from spinwreath.scalars import Cyc, cyc_from_numerators, value_doc
from spinwreath.vertex import TwistContext

from spin_oracle import oracle_spin_rows


def setup(name):
    g, _ = builtin(name)
    t = TwistContext(g, VirtualChar.trivial(g))
    return g, t


def as_cyc(g, value):
    """A value (den, numerators) on Gamma's value axis, as one `Cyc`."""
    den, nums = value
    return cyc_from_numerators(g.value_numerators[0], nums, den)


def test_q_power_product():
    g, t = setup("trivial")
    ctx = t.fock
    vac = FockVector.vacuum(ctx)
    a1 = create(vac, 1, [1])
    assert q_power_product(ctx, (1,), 0) == a1.scale(2)
    assert q_power_product(ctx, (2, -1), 0).is_zero()
    a111 = create(create(a1, 1, [1]), 1, [1])
    assert q_power_product(ctx, (2, 1), 0) == a111.scale(4)
    assert q_power_product(ctx, (0, 0), 0) == vac


def test_raising_single_row():
    for n in (1, 2, 3, 4, 5):
        assert raising_coefficients((n,)) == {(n,): 1}


def test_raising_21():
    g, t = setup("trivial")
    ctx = t.fock
    rc = raising_coefficients((2, 1))
    assert rc == {(2, 1): 1, (3,): -2}
    vac = FockVector.vacuum(ctx)
    a1 = create(vac, 1, [1])
    a111 = create(create(a1, 1, [1]), 1, [1])
    a3 = create(vac, 3, [1])
    assert raising_expand(ctx, MultiPartition([(2, 1)])) \
        == (a111 - a3).scale(Fraction(4, 3))


def test_raising_rejects_non_strict():
    g, t = setup("trivial")
    with pytest.raises(ValueError):
        raising_expand(t.fock, MultiPartition([(2, 2)]))
    with pytest.raises(ValueError):
        x_lambda_vector(t, MultiPartition([(1, 1)]))


def test_x_lambda_examples():
    g, t = setup("trivial")
    lam = MultiPartition([(1,)])
    fk = x_lambda_vector(t, lam)
    assert fk == create(FockVector.vacuum(t.fock), 1, [1]).scale(2)
    assert inner(fk, fk) == (1, (2,))  # norm 2^l


def test_x_lambda_orthogonality_trivial():
    g, t = setup("trivial")
    for n in range(5):
        lams = list(multipartitions(n, 1, "SP"))
        vecs = {lam: x_lambda_vector(t, lam) for lam in lams}
        for a in lams:
            for b in lams:
                val = inner(vecs[a], vecs[b])
                assert val == (1, (2 ** a.length if a == b else 0,)), (a, b)


def test_x_lambda_vector_reads_the_cocycle_sign_chain(monkeypatch):
    # in table order every step is epsilon(gamma_i, b) with b free of bits
    # below i, which is +1; a cocycle that signs every step -1 shows the chain
    # is taken, once per component
    g, t = setup("cyclic:2")
    lam = MultiPartition([(2, 1), (1,)])
    expect = x_lambda_vector(t, lam)
    assert not expect.is_zero()
    monkeypatch.setattr(t.twist, "act", lambda mask, b: (-1, mask ^ b))
    assert x_lambda_vector(t, lam) == expect.scale(-1)  # three components


def test_dual_paths_agree():
    for name, nmax in (("trivial", 5), ("cyclic:2", 5)):
        g, t = setup(name)
        for n in range(nmax + 1):
            for lam in multipartitions(n, g.num_classes, "SP"):
                # the sign chain of e^(-[lambda]) included: a wrong sign shows here
                assert x_lambda_vector(t, lam) == raising_expand(t.fock, lam), (name, lam)


def test_char_values_trivial():
    g, t = setup("trivial")
    lam3 = MultiPartition([(3,)])
    mu111 = MultiPartition([(1, 1, 1)])
    mu3 = MultiPartition([(3,)])
    assert char_value(t, lam3, mu111) == (1, (8,))
    assert char_value(t, lam3, mu3) == (1, (2,))
    lam21 = MultiPartition([(2, 1)])
    assert char_value(t, lam21, mu111) == (1, (4,))
    assert char_value(t, lam21, mu3) == (1, (-2,))
    lam1 = MultiPartition([(1,)])
    assert char_value(t, lam1, MultiPartition([(1,)])) == (1, (2,))
    with pytest.raises(ValueError):
        char_value(t, lam1, mu3)


def test_char_value_scales_by_a_power_of_two_in_either_direction(monkeypatch):
    # the scale 2^(l(mu) - l(lambda)//2) reaches the pairing as an int, or as
    # 1/2^k when l(lambda)//2 > l(mu), and the entry is the pairing under
    # Fraction(2) ** (l(mu) - l(lambda)//2)
    g, t = setup("cyclic:3")
    scales = []

    def recording_inner(x_vec, a_vec, scale):
        scales.append(scale)
        return inner(x_vec, a_vec, scale)

    monkeypatch.setattr(qtable, "inner", recording_inner)
    x_vecs = {lam: x_lambda_vector(t, lam) for lam in multipartitions(5, 3, "SP")}
    exponents = set()
    for mu in multipartitions(5, 3, "OP"):
        a_vec = a_prime_vector(t.fock, mu)
        for lam, x_vec in x_vecs.items():
            e = mu.length - lam.length // 2
            got = char_value(t, lam, mu, x_vec, a_vec)
            assert scales[-1] == Fraction(2) ** e
            assert type(scales[-1]) is (int if e >= 0 else Fraction)
            assert got == inner(x_vec, a_vec, Fraction(2) ** e), (lam, mu)
            exponents.add(e)
    assert min(exponents) < 0 < max(exponents)

def test_char_degree():
    g, _ = setup("trivial")
    for n in (1, 2, 3, 4):
        assert char_degree(MultiPartition([(n,)]), g) == 2 ** n
    assert char_degree(MultiPartition([(2, 1)]), g) == 4
    assert char_degree(MultiPartition([(3, 1)]), g) == 16


def test_build_table_matrix():
    g, t = setup("trivial")
    tab = build_table(g, 3, check=True, tctx=t)
    assert [[row.values.value(mu) for mu in tab.columns] for row in tab.rows] \
        == [[8, 2], [4, -2]]
    assert [(row.values.den, row.values.nums) for row in tab.rows] \
        == [(1, {mu: (v,) for mu, v in zip(tab.columns, vals)}) for vals in ([8, 2], [4, -2])]
    assert [r.module_type for r in tab.rows] == ["Q", "M"]
    assert [r.degree for r in tab.rows] == [8, 4]


def test_build_table_checks():
    cases = [("trivial", 5), ("cyclic:2", 3), ("cyclic:3", 2)]
    for name, nmax in cases:
        g, _ = builtin(name)
        t = TwistContext(g, VirtualChar.trivial(g))
        for n in range(nmax + 1):
            tab = build_table(g, n, check=True, tctx=t)
            assert len(tab.rows) == len(tab.columns)


def test_table_squareness_cyclic2_n2():
    g, t = setup("cyclic:2")
    tab = build_table(g, 2, check=True, tctx=t)
    assert len(tab.rows) == 3 and len(tab.columns) == 3
    lams = {r.lam for r in tab.rows}
    assert lams == {MultiPartition([(2,), ()]), MultiPartition([(), (2,)]),
                    MultiPartition([(1,), (1,)])}


def test_table_vs_oracle_small():
    g, cg = builtin("trivial")
    t = TwistContext(g, VirtualChar.trivial(g))
    for n in (1, 2, 3):
        cols, rows = oracle_spin_rows(cg, g, n)
        tab = build_table(g, n, check=False, tctx=t)
        assert cols == tab.columns
        for r in tab.rows:
            oracle_vals = rows[r.lam.parts[0]]
            table_vals = [r.values.value(mu) for mu in cols]
            assert oracle_vals == table_vals


def test_table_doc():
    g, t = setup("cyclic:2")
    tab = build_table(g, 2, check=False, tctx=t)
    doc = tab.to_doc()
    assert doc["n"] == 2 and doc["xi"] == "standard"
    assert len(doc["columns"]) == 3 and len(doc["rows"]) == 3
    assert all(len(r["values"]) == 3 for r in doc["rows"])


@pytest.mark.parametrize("name,n", [("quaternion8", 2), ("cyclic:3", 3), ("cyclic:4", 2)])
def test_build_table_matches_per_pair_route(name, n):
    # build_table expands each a'_-mu once per table; char_value without
    # prebuilt vectors expands both sides for every (lambda, mu) pair.
    g, t = setup(name)
    tab = build_table(g, n, tctx=t)
    identity = tab.columns[0]
    assert identity.parts[0] == (1,) * n
    for row in tab.rows:
        per_pair = {mu: as_cyc(g, char_value(t, row.lam, mu)) for mu in tab.columns}
        sign = 1 if per_pair[identity].as_rational() > 0 else -1
        for mu in tab.columns:
            assert row.values.value(mu) == per_pair[mu] * sign, (row.lam, mu)


def _perturb(g, tab, row, mu, change):
    """Replace row's value at mu by change(value), values taken as `Cyc`."""
    values = {m: row.values.value(m) for m in tab.columns}
    values[mu] = change(values[mu])
    row.values = SpinClassFun(g, tab.n, values)


def test_verify_table_catches_one_perturbed_value():
    g, t = setup("quaternion8")
    tab = build_table(g, 2, tctx=t)
    verify_table(tab)
    _perturb(g, tab, tab.rows[1], tab.columns[-1], lambda v: v + 1)
    with pytest.raises(TableCheckError) as err:
        verify_table(tab)
    assert str(err.value) == (
        "orthogonality fails at rows MultiPartition((2,), (), (), (), ()), "
        "MultiPartition((1,), (1,), (), (), ()): Cyc(1/32)")


def _plus_zeta5(g, tab):
    # an irrational entry plus zeta_5
    row, mu = next((row, mu) for row in tab.rows for mu in row.values.nums
                   if row.values.value(mu).as_rational() is None)
    _perturb(g, tab, row, mu, lambda v: v + Cyc.zeta(5))


def _plus_finest_step(g, tab):
    # a rational entry off the identity column plus 1/(2^n |Gamma|^n n!)
    n = tab.n
    row, mu = next((row, mu) for row in tab.rows for mu in row.values.nums
                   if mu != tab.columns[0] and row.values.value(mu).as_rational() is not None)
    _perturb(g, tab, row, mu, lambda v: v + Fraction(1, 2**n * g.order**n * factorial(n)))


def _negate_one_entry(g, tab):
    # -f(mu) at a self-dual column keeps every row norm and breaks a pair
    row, mu = next((row, mu) for row in tab.rows for mu in row.values.nums
                   if mu != tab.columns[0])
    assert all(g.dual_class(ci) == ci for ci in range(g.num_classes))
    _perturb(g, tab, row, mu, lambda v: -v)
    xi = VirtualChar.trivial(g)
    for r in tab.rows:
        assert weighted_inner(r.values, r.values, xi) == (1, (1 if r.module_type == "M" else 2,))


# each failure message shows the pairing's value as `Cyc.__repr__` prints it
@pytest.mark.parametrize("name,n,perturb,message", [
    ("cyclic:5", 2, _plus_zeta5,
     "MultiPartition((2,), (), (), (), ()), MultiPartition((1,), (1,), (), (), ()): "
     "Cyc(1/25*z5^1)"),
    ("quaternion8", 2, _plus_finest_step,
     "MultiPartition((2,), (), (), (), ()), MultiPartition((2,), (), (), (), ()): "
     "Cyc(134221825/67108864)"),
    ("klein4", 2, _plus_finest_step,
     "MultiPartition((2,), (), (), ()), MultiPartition((2,), (), (), ()): "
     "Cyc(2098177/1048576)"),
    ("quaternion8", 2, _negate_one_entry,
     "MultiPartition((2,), (), (), (), ()), MultiPartition((1,), (1,), (), (), ()): "
     "Cyc(-1/8)"),
], ids=["irrational-plus-zeta5", "quaternion8-finest-step", "klein4-finest-step",
        "off-diagonal-only"])
def test_orthogonality_catches_a_small_perturbation(name, n, perturb, message):
    g, t = setup(name)
    tab = build_table(g, n, tctx=t)
    verify_table(tab)
    perturb(g, tab)
    with pytest.raises(TableCheckError) as err:
        verify_table(tab)
    assert str(err.value) == "orthogonality fails at rows " + message


@pytest.mark.parametrize("factor,shown", [
    (Fraction(1, 3), "Cyc(4/3)"), (0, "Cyc(0)"), (Cyc.zeta(3), "Cyc(4*z3^1)"),
], ids=["fraction", "zero", "irrational"])
def test_an_identity_value_off_the_integers_is_reported(monkeypatch, factor, shown):
    g, t = setup("cyclic:3")
    real = qtable.x_lambda_vector
    monkeypatch.setattr(qtable, "x_lambda_vector",
                        lambda tctx, lam: real(tctx, lam).scale(factor))
    with pytest.raises(TableCheckError) as err:
        build_table(g, 2, tctx=t)
    assert str(err.value) == (
        f"identity value of MultiPartition((2,), (), ()) is not a nonzero integer: {shown}")


def test_poisoned_x_row_fails_the_realization_check(monkeypatch, capsys):
    # double the cached X_{-2}(gamma_0) row on the vacuum, which builds the
    # one row lambda = (2) of the trivial table at n = 2
    def poisoned(gamma, xi):
        t = TwistContext(gamma, xi)
        layer = vx._x_layer(t, -2, t.basis_vector(0))
        vac = t.index(())
        den, entries = vx._lean_row(t, layer, vac)
        t._lean_rows.setdefault(layer, {})[vac] = (den, tuple((i, 2 * num) for i, num in entries))
        return t

    monkeypatch.setattr(qtable, "TwistContext", poisoned)
    argv = ["chartable", "--gamma", "trivial", "--n", "2"]
    assert cli.main(argv) == 0  # without --check the wrong row is printed
    capsys.readouterr()
    assert cli.main(argv + ["--check"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "check_failed"
    assert doc["witness"] == "X_lambda e^(-[lambda]) differs from Q_lambda at MultiPartition((2,),)"


@pytest.mark.parametrize("name,n", [("cyclic:9", 2), ("cyclic:5", 3), ("quaternion8", 3)])
def test_csv_values_render_as_the_cyc_round_trip_did(name, n):
    # `table_csv` reads each value document directly; the reference is the
    # `Cyc` round trip it replaced
    g, t = setup(name)
    values = [v for row in build_table(g, n, tctx=t).to_doc()["rows"] for v in row["values"]]
    assert any(v["N"] > 1 for v in values) == (name != "quaternion8")
    # character values are integral: add values with denominators by hand
    values += [value_doc(1, (1,), 2), value_doc(3, (-3, 0), 4), value_doc(5, (1, 0, 2, 0), 6)]
    assert [qtable._pretty(v) for v in values] == [Cyc.from_doc(v).pretty() for v in values]
