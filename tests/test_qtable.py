import csv
import io
import json
from fractions import Fraction
from math import factorial

import pytest

from spinwreath import cli, qtable
from spinwreath import vertex as vx
from spinwreath.classfun import SpinClassFun, weighted_inner
from spinwreath.fock import FockContext, FockVector, a_prime_vector, create, inner, q_gen
from spinwreath.gammadata import GammaData, VirtualChar, builtin
from spinwreath.partitions import MultiPartition, multipartitions, partitions_of
from spinwreath.qtable import (TableCheckError, build_table, char_degree,
                               char_value, q_power_product,
                               raising_coefficients, raising_expand,
                               verify_table, x_lambda_vector)
from spinwreath.scalars import Cyc, value_from_doc, value_text
from spinwreath.vertex import TwistContext

from gamma_reference import at_order, class_value, cyc_doc, cyc_from_numerators
from spin_oracle import oracle_spin_rows


def setup(name):
    g, _ = builtin(name)
    t = TwistContext(g, VirtualChar.trivial(g))
    return g, t


def as_cyc(g, value):
    """A value (den, numerators) on Gamma's value axis, as one `Cyc`."""
    den, nums = value
    return cyc_from_numerators(g.value_numerators[0], nums, den)


def left_to_right_q_product(ctx, phi, char_index):
    """prod_i q_{phi_i}(gamma) multiplied out from the vacuum, left to right:
    the reference for `q_power_product`'s kept products."""
    coeffs = [1 if t == char_index else 0 for t in range(ctx.gamma.num_classes)]
    out = FockVector.vacuum(ctx)
    for p in phi:
        if p < 0:
            return FockVector.zero(ctx)
        if p:
            out = out * q_gen(ctx, p, coeffs)
    return out


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
    # a second call reads the kept product, which equals a fresh one
    for name in ("trivial", "cyclic:3"):
        g, t = setup(name)
        ctx = t.fock
        for i in range(g.num_classes):
            for phi in ((1,), (2, -1), (2, 1), (0, 0), (3, 1, 1), (1, 0, 3), (4, 2, 1)):
                first = q_power_product(ctx, phi, i)
                assert q_power_product(ctx, phi, i) == first \
                    == left_to_right_q_product(ctx, phi, i), (name, i, phi)
    assert {(0, (2, 1)), (0, (1,)), (0, ())} <= set(ctx._q_products)


def per_term_raising_expand(ctx, lam):
    """Q_lambda with each factor summed one raising term at a time, by
    `FockVector` addition: the reference for `raising_expand`."""
    out = FockVector.vacuum(ctx)
    for i, parts in enumerate(lam.parts):
        if not parts:
            continue
        piece = FockVector.zero(ctx)
        for tup, coef in raising_coefficients(parts).items():
            piece = piece + q_power_product(ctx, tup, i).scale(coef)
        out = out * piece
    return out


@pytest.mark.parametrize("name,nmax", [("trivial", 8), ("cyclic:3", 4), ("klein4", 3)])
def test_raising_expand_matches_the_per_term_sum(name, nmax):
    g, t = setup(name)
    for n in range(nmax + 1):
        for lam in multipartitions(n, g.num_classes, "SP"):
            assert raising_expand(t.fock, lam) == per_term_raising_expand(t.fock, lam), lam


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
    assert [[class_value(row.values, mu) for mu in tab.columns] for row in tab.rows] \
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
            table_vals = [class_value(r.values, mu) for mu in cols]
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
            assert class_value(row.values, mu) == per_pair[mu] * sign, (row.lam, mu)


def _perturb(g, tab, row, mu, change):
    """Replace row's value at mu by change(value), values taken as `Cyc`."""
    values = {m: class_value(row.values, m) for m in tab.columns}
    values[mu] = change(values[mu])
    row.values = SpinClassFun(g, tab.n, {m: at_order(v) for m, v in values.items()})


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
                   if class_value(row.values, mu).as_rational() is None)
    _perturb(g, tab, row, mu, lambda v: v + Cyc.zeta(5))


def _plus_finest_step(g, tab):
    # a rational entry off the identity column plus 1/(2^n |Gamma|^n n!)
    n = tab.n
    row, mu = next((row, mu) for row in tab.rows for mu in row.values.nums
                   if mu != tab.columns[0]
                   and class_value(row.values, mu).as_rational() is not None)
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


def full_scan_message(table):
    """The first failure of a rows x rows orthogonality scan in row-major
    order, worded as `verify_table` words it, or None: the reference for the
    upper-triangle check."""
    g = table.gamma
    xi = VirtualChar.trivial(g)
    for a, ra in enumerate(table.rows):
        for b, rb in enumerate(table.rows):
            expect = 0 if a != b else 1 if ra.module_type == "M" else 2
            val = weighted_inner(ra.values, rb.values, xi)
            if val != g.on_axis(expect):
                return f"orthogonality fails at rows {ra.lam!r}, {rb.lam!r}: {as_cyc(g, val)!r}"
    return None


def _first_row(tab):
    # a nonzero entry of the first row, off the identity column
    row = tab.rows[0]
    support = [mu for mu in tab.columns[1:] if mu in row.values.nums]
    return row, support[len(support) // 2]


def _last_row(tab):
    # the last nonzero entry of the last row
    row = tab.rows[-1]
    return row, [mu for mu in tab.columns if mu in row.values.nums][-1]


def _irrational_entry(tab):
    return next((row, mu) for row in tab.rows for mu in row.values.nums
                if class_value(row.values, mu).as_rational() is None)


@pytest.mark.parametrize("name,n,where,change", [
    ("cyclic:5", 2, _first_row, lambda v: v + 1),
    ("cyclic:5", 2, _last_row, lambda v: -v),
    ("cyclic:5", 2, _irrational_entry, lambda v: v * Cyc.zeta(5)),
    ("quaternion8", 3, _first_row, lambda v: -v),
    ("quaternion8", 3, _last_row, lambda v: v + Fraction(1, 3)),
    ("quaternion8", 3, _last_row, lambda v: -v),
], ids=["cyclic5-first-row", "cyclic5-last-row", "cyclic5-irrational",
        "quaternion8-first-row", "quaternion8-last-row", "quaternion8-last-row-negated"])
def test_upper_triangle_reports_the_full_scans_first_failure(name, n, where, change):
    g, t = setup(name)
    tab = build_table(g, n, tctx=t)
    row, mu = where(tab)
    _perturb(g, tab, row, mu, change)
    expect = full_scan_message(tab)
    assert expect is not None
    with pytest.raises(TableCheckError) as err:
        verify_table(tab)
    assert str(err.value) == expect


def test_verify_table_pairs_each_pair_of_rows_once(monkeypatch):
    g, t = setup("cyclic:3")
    tab = build_table(g, 2, tctx=t)
    pairs = []
    monkeypatch.setattr(qtable, "weighted_inner",
                        lambda f, h, xi: pairs.append((f, h)) or weighted_inner(f, h, xi))
    verify_table(tab)
    rows = [r.values for r in tab.rows]
    assert pairs == [(rows[a], rows[b]) for a in range(len(rows)) for b in range(a, len(rows))]
    assert len(pairs) == len(rows) * (len(rows) + 1) // 2


@pytest.mark.parametrize("factor,shown", [
    (Fraction(1, 3), "Cyc(4/3)"), (0, "Cyc(0)"), (at_order(Cyc.zeta(3)), "Cyc(4*z3^1)"),
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
        vac = t.fock.index(())
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


def cyc_pretty(v):
    """The text `Cyc.pretty` gave a value before `scalars.value_text`
    replaced it: "p" or "p/q" for a rational, else the compact document."""
    q = v.as_rational()
    if q is not None:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return json.dumps(cyc_doc(v), separators=(",", ":"))


@pytest.mark.parametrize("name,n", [("cyclic:9", 2), ("cyclic:5", 3), ("quaternion8", 3)])
def test_csv_values_render_as_the_cyc_round_trip_did(name, n):
    # `scalars.value_text` prints every exact value, in CSV (`table_csv`,
    # which reads each value document directly) and in messages; the
    # reference is the `Cyc.pretty` it replaced
    g, t = setup(name)
    doc = build_table(g, n, tctx=t).to_doc()
    values = [v for row in doc["rows"] for v in row["values"]]
    assert any(v["N"] > 1 for v in values) == (name != "quaternion8")
    cells = [cell for line in list(csv.reader(io.StringIO(qtable.table_csv(doc))))[1:]
             for cell in line[3:]]
    assert cells == [cyc_pretty(cyc_from_numerators(order, nums, den))
                     for order, den, nums in map(value_from_doc, values)]
    # character values are integral: add values with denominators by hand
    for order, nums, den in [(1, (1,), 2), (1, (-3,), 2), (1, (5,), 1), (3, (-3, 0), 4),
                             (5, (1, 0, 2, 0), 6), (5, (0, 1, 0, 0), 1), (4, (0, -2), 6)]:
        assert value_text(order, nums, den) == cyc_pretty(cyc_from_numerators(order, nums, den))


def unpruned_raising_tuples(parts, total):
    """The raising expansion with every series run to the total weight: the
    reference for `qtable._raising_tuples`, which stops a series once a
    suffix sum would go negative."""
    m = len(parts)
    state = {tuple(parts): 1}
    for i in range(m):
        for j in range(i + 1, m):
            nxt = {}
            for tup, coef in state.items():
                lst = list(tup)
                k = 0
                while True:
                    cur = tuple(lst)
                    c = coef if k == 0 else coef * 2 * (-1) ** k
                    nxt[cur] = nxt.get(cur, 0) + c
                    k += 1
                    if lst[i] + 1 > total:
                        break
                    lst[i] += 1
                    lst[j] -= 1
            state = {t: c for t, c in nxt.items() if c}
        state = {t: c for t, c in state.items() if 0 <= t[i] <= total}
    return state


def test_pruned_raising_tuples_keep_every_nonnegative_tuple():
    strict = [p for n in range(1, 15) for p in partitions_of(n, "SP")]
    assert len(strict) == 109
    for parts in strict:
        total = sum(parts)
        pruned = qtable._raising_tuples(parts, total)
        full = unpruned_raising_tuples(parts, total)
        assert set(pruned) <= set(full), parts
        assert {t: c for t, c in pruned.items() if min(t) >= 0} \
            == {t: c for t, c in full.items() if min(t) >= 0}, parts


@pytest.mark.parametrize("name,n", [
    ("trivial", 6), ("cyclic:2", 4), ("cyclic:3", 3), ("cyclic:4", 3), ("cyclic:5", 2),
    ("cyclic:6", 2), ("klein4", 3), ("quaternion8", 3)])
def test_filled_rows_equal_the_paired_rows(name, n):
    # without check every row outside its orbit's first is filled by the
    # twist; with check every row is paired through the vertex route
    g, t = setup(name)
    assert build_table(g, n, tctx=t).to_doc() == build_table(g, n, check=True, tctx=t).to_doc()


def _count_x_lambda_vectors(monkeypatch):
    calls = []
    real = qtable.x_lambda_vector
    monkeypatch.setattr(qtable, "x_lambda_vector",
                        lambda tctx, lam: calls.append(lam) or real(tctx, lam))
    return calls


def test_x_lambda_is_built_once_per_orbit_without_check(monkeypatch):
    g, t = setup("cyclic:3")
    calls = _count_x_lambda_vectors(monkeypatch)
    tab = build_table(g, 3, tctx=t)
    assert len(tab.rows) == 13
    # the cyclic shift of the three indices: four orbits of three and the
    # fixed (1 | 1 | 1); each orbit's first in table order is paired
    assert calls == [MultiPartition([(3,), (), ()]), MultiPartition([(2, 1), (), ()]),
                     MultiPartition([(2,), (1,), ()]), MultiPartition([(2,), (), (1,)]),
                     MultiPartition([(1,), (1,), (1,)])]
    calls.clear()
    build_table(g, 3, check=True, tctx=t)
    assert calls == [row.lam for row in tab.rows]


def test_twists_permute_the_irreducibles():
    g, _ = builtin("cyclic:3")
    # delta_bar gamma_i = gamma_(i - d) for delta = gamma_d
    assert [(d, perm) for d, perm, _ in g.linear_twists] == [(1, (2, 0, 1)), (2, (1, 2, 0))]
    q8, _ = builtin("quaternion8")
    assert [perm[4] for _, perm, _ in q8.linear_twists] == [4, 4, 4]
    assert builtin("trivial")[0].linear_twists == []


def test_a_wrong_irrational_entry_in_a_filled_row_fails_the_twist_check(monkeypatch, capsys):
    # add zeta_3 to one irrational entry of the g1 row, the g2 twist of the
    # g0 row: the realization and identity checks pass, the twist check
    # catches it before the orthogonality check
    lam = MultiPartition([(), (2,), ()])
    mu = MultiPartition([(), (1, 1), ()])
    real = qtable.char_value

    def wrong(tctx, row, col, *vecs):
        den, nums = real(tctx, row, col, *vecs)
        if (row, col) == (lam, mu):
            assert any(nums[1:])
            nums = (nums[0], nums[1] + den)
        return den, nums

    monkeypatch.setattr(qtable, "char_value", wrong)
    argv = ["chartable", "--gamma", "cyclic:3", "--n", "2"]
    assert cli.main(argv) == 0  # without --check the g1 row is filled, not paired
    capsys.readouterr()
    assert cli.main(argv + ["--check"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] == (
        "twist symmetry fails at MultiPartition((), (2,), ()), the g2 twist of "
        "MultiPartition((2,), (), ()), at MultiPartition((), (1, 1), ()): "
        '{"N":3,"coeffs":[[0,1],[5,1]]}, '
        "but delta(mu) times the representative's value is "
        '{"N":3,"coeffs":[[0,1],[4,1]]}')


def test_a_twist_by_delta_bar_fails_the_check(monkeypatch, capsys):
    # a mutant that multiplies by delta_bar(mu) in place of delta(mu)
    real = GammaData.linear_twists.func
    monkeypatch.setattr(GammaData, "linear_twists", property(lambda g: [
        (d, perm, tuple(values[c.inverse] for c in g.classes)) for d, perm, values in real(g)]))
    assert cli.main(["chartable", "--check", "--gamma", "cyclic:3", "--n", "2"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] == (
        "twist symmetry fails at MultiPartition((1,), (), (1,)), the g1 twist of "
        "MultiPartition((1,), (1,), ()), at MultiPartition((1,), (1,), ()): "
        '{"N":3,"coeffs":[[2,1],[2,1]]}, '
        "but delta(mu) times the representative's value is -2")
