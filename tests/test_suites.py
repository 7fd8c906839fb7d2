import argparse

import pytest

from spinwreath.cli import build_parser
from spinwreath.gammadata import VirtualChar, builtin, mckay_xi
from spinwreath.suites import SUITES, heisenberg_docs
from spinwreath.vertex import TwistContext, hh_instances


def test_registry_holds_every_suite_in_order():
    assert list(SUITES) == ["heisenberg", "isometry", "hopf", "clifford", "ope",
                            "affine", "oracle"]
    parser = build_parser()
    for name in SUITES:
        assert parser.parse_args(["verify", name]).suite == name
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "nope"])


def test_heisenberg_passes_at_standard_and_mckay_weight():
    for name in ("cyclic:2", "cyclic:3"):
        g, _ = builtin(name)
        for xi in (VirtualChar.trivial(g), mckay_xi(g)):
            docs = heisenberg_docs(TwistContext(g, xi), 3, 3)
            assert docs == [{"relation": "heisenberg", "params": {"degree": 3, "n_max": 3},
                             "status": "pass"}]


def test_heisenberg_fails_on_a_perturbed_gram_entry():
    g, _ = builtin("cyclic:3")
    tctx = TwistContext(g, VirtualChar.trivial(g))
    # the expected bracket reads twist.gram, which is fock.gram, the H rows'
    # form: perturb a copy bound to the bracket side only
    tctx.twist.gram = [list(row) for row in tctx.twist.gram]
    tctx.twist.gram[1][2] += 1
    docs = heisenberg_docs(tctx, 2, 1)
    assert len(docs) == 1
    doc = docs[0]
    assert doc["relation"] == "heisenberg" and doc["status"] == "fail"
    assert doc["params"] == {"i": 1, "j": 2, "m": -1, "mprime": 1}
    assert doc["witness"]["coset"] == 0
    assert doc["witness"]["residual"]


def test_heisenberg_instances_pair_every_odd_index_both_ways():
    # creators with creators and annihilators with annihilators are checked too
    g, _ = builtin("cyclic:2")
    tctx = TwistContext(g, VirtualChar.trivial(g))
    pairs = {(p["m"], p["mprime"]) for p, _ in hh_instances(tctx, [0, 1], 3)}
    odd = (-3, -1, 1, 3)
    assert pairs == {(m, mp) for m in odd for mp in odd}


@pytest.mark.parametrize("argv", [["verify", "oracle", "--gamma", "klein4", "--n", "2"],
                                  ["classes", "--oracle", "--gamma", "klein4", "--n", "2"]])
def test_oracle_builds_the_theory_classes_once(monkeypatch, capsys, argv):
    from spinwreath import cli, spingroup, suites

    calls = []

    def counted(gamma, n):
        calls.append(n)
        return spingroup.theory_classes(gamma, n)

    monkeypatch.setattr(suites, "theory_classes", counted)
    monkeypatch.setattr(cli, "theory_classes", counted)
    assert cli.main(argv) == 0
    assert calls == [2]


@pytest.mark.parametrize("argv", [["verify", "oracle", "--gamma", "klein4", "--n", "2"],
                                  ["classes", "--oracle", "--gamma", "klein4", "--n", "2"]])
def test_oracle_builds_one_law(monkeypatch, argv):
    # the class enumeration and the basic spin traces share one set of tables
    from spinwreath import cli
    from spinwreath.spingroup import SpinLaw

    built = []
    init = SpinLaw.__init__

    def counted(self, cg, n):
        built.append(n)
        init(self, cg, n)

    monkeypatch.setattr(SpinLaw, "__init__", counted)
    assert cli.main(argv) == 0
    assert built == [2]


def test_oracle_fails_on_a_flipped_clifford_sign(monkeypatch):
    # the identity's Clifford trace on L_n is 2^n, so a sign flipped at mask 0
    # reaches every even split type's representative
    from spinwreath.spingroup import SpinLaw

    trace = SpinLaw.clifford_trace
    monkeypatch.setattr(SpinLaw, "clifford_trace",
                        lambda law, x: -trace(law, x) if x[2] == 0 else trace(law, x))
    g, cg = builtin("klein4")
    results = SUITES["oracle"](g, cg, VirtualChar.trivial(g), argparse.Namespace(n=2))
    assert results[0]["status"] == "pass"  # the class data never reads a trace
    assert results[-1] == {"relation": "basic_spin_trace", "status": "fail",
                           "params": {"V": 0, "type": "((1, 1), (), (), ())"}}


def test_oracle_fails_on_two_swapped_irrational_values():
    # `basic_char` reads Gamma's values through `value_numerators`, derived
    # once: read it first, then swap gamma_1(c1) = z and gamma_1(c2) = z^2 in
    # the stored table, which only the trace side reads.  On a type with a
    # cycles at c1 and b at c2, gamma_1 gives z^(a + 2b), and the swapped
    # table z^(2a + b): the first even split type with a != b mod 3 fails
    from spinwreath.spingroup import theory_classes

    g, cg = builtin("cyclic:3")
    g.value_numerators
    g.chars[1][1], g.chars[1][2] = g.chars[1][2], g.chars[1][1]
    results = SUITES["oracle"](g, cg, VirtualChar.trivial(g), argparse.Namespace(n=2))
    first = next(tc for tc in theory_classes(g, 2) if tc.split and tc.parity == 0
                 and (len(tc.rho_plus.parts[1]) - len(tc.rho_plus.parts[2])) % 3)
    assert str(first.rho_plus.parts) == "((1,), (1,), ())"
    assert results[0]["status"] == "pass"
    assert results[-1] == {"relation": "basic_spin_trace", "status": "fail",
                           "params": {"V": 1, "type": "((1,), (1,), ())"}}


# -- the Fock-side suites fail on a perturbed Fock side ------------------------------
#
# A pass document names only its sizes, so each suite gets a run in which its
# Fock side is wrong, and the failure document is pinned byte for byte.


def _run_verify(capsys, argv):
    from spinwreath import cli

    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_isometry_fails_when_the_degree_3_images_are_doubled(monkeypatch, capsys):
    from spinwreath import suites

    ch = suites.ch
    monkeypatch.setattr(suites, "ch", lambda ctx, f: ch(ctx, f).scale(2 if f.n == 3 else 1))
    code, out = _run_verify(capsys, ["verify", "isometry", "--gamma", "cyclic:4", "--n", "3"])
    assert code == 3
    assert out == (
        '{"suite":"isometry","gamma":"cyclic4","xi":"standard","params":{"n":3,"degree":4,'
        '"window":2},"results":[{"relation":"isometry","status":"fail","params":{"n":3,'
        '"rho1":"MultiPartition((3,), (), (), ())","rho2":"MultiPartition((3,), (), (), ())"}}],'
        '"status":"fail"}\n')


@pytest.mark.parametrize("perturbed,relation,params", [
    ("ch", "hopf_product", '{"na":1,"nb":1}'),
    ("coproduct", "hopf_pairing", '{"na":2,"nb":2}'),
], ids=["product", "pairing"])
def test_hopf_fails_on_a_doubled_fock_side(monkeypatch, capsys, perturbed, relation, params):
    # doubling every ch image breaks the product check; doubling the vector
    # a coproduct is taken of breaks only the pairing check
    from spinwreath import suites

    real = getattr(suites, perturbed)
    if perturbed == "ch":
        monkeypatch.setattr(suites, "ch", lambda ctx, f: real(ctx, f).scale(2))
    else:
        monkeypatch.setattr(suites, "coproduct", lambda v: real(v.scale(2)))
    code, out = _run_verify(capsys, ["verify", "hopf", "--gamma", "cyclic:3", "--n", "3"])
    assert code == 3
    assert out == (
        '{"suite":"hopf","gamma":"cyclic3","xi":"standard","params":{"n":3,"degree":4,'
        f'"window":2}},"results":[{{"relation":"{relation}","status":"fail","params":{params}}}],'
        '"status":"fail"}\n')
