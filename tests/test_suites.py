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


def test_affine_logs_one_debug_line_per_family(caplog, capsys):
    # each family on each index set logs its instances, panel size, blocks
    # and X rows; the affine set is a subset of the toroidal one and, with
    # one block cache per family, builds no block and no X row of its own.
    # stdout is the same with the log on
    import logging

    from spinwreath import cli

    argv = ["verify", "affine", "--xi", "mckay", "--gamma", "cyclic:2", "--window", "1",
            "--degree", "2"]
    assert cli.main(argv) == 0
    quiet = capsys.readouterr().out
    caplog.set_level(logging.DEBUG, logger="spinwreath.vertex")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == quiet
    lines = _family_lines(caplog)
    families = ["hh", "hx", "x_parity", "xx_central_4n", "serre"]
    assert [(name, indices) for name, indices, *_ in lines] == \
        [(f, s) for f in families for s in ("[0, 1]", "[1]")]
    counts = [tuple(map(int, line[2:6])) for line in lines]
    assert counts[:2] == [(16, 6, 21, 39), (4, 6, 0, 10)]  # hh: 2 * 2 * 2 * 2 and 2 * 2
    for (instances, panel, built, reused), toroidal in zip(counts, [True, False] * 5):
        assert instances and panel == 6 and reused
        assert bool(built) == toroidal
    x_rows = {(name, indices): int(line[-1]) for name, indices, *line in lines}
    assert x_rows[("hh", "[0, 1]")] == 0 and x_rows[("hx", "[0, 1]")] > 0
    assert not any(n for (_, indices), n in x_rows.items() if indices == "[1]")


def _family_lines(caplog):
    """The DEBUG lines of `certify_instances` as (family, indices,
    instances, panel size, blocks built, blocks reused, verdicts reused,
    verdicts reused in another order, X rows built)."""
    import re

    pattern = re.compile(r"family (\w+) \{.*'indices': (\[[\d, ]*\])\}: (\d+) instances on "
                         r"(\d+) monomials, (\d+) blocks built, (\d+) reused, "
                         r"(\d+) verdicts reused \((\d+) in another order\), (\d+) X rows built")
    return [pattern.fullmatch(r.getMessage()).groups() for r in caplog.records
            if r.name == "spinwreath.vertex"]


def test_affine_set_reuses_the_toroidal_verdicts(caplog, capsys):
    # every affine instance is a toroidal one on the same words, so each
    # family of the affine set reads verdicts the toroidal set left
    import logging

    from spinwreath import cli

    caplog.set_level(logging.DEBUG, logger="spinwreath.vertex")
    assert cli.main(["verify", "affine", "--xi", "mckay", "--gamma", "cyclic:3", "--window", "1",
                     "--degree", "1"]) == 0
    capsys.readouterr()
    lines = _family_lines(caplog)
    affine = [line for line in lines if line[1] == "[1, 2]"]
    assert [line[0] for line in affine] == ["hh", "hx", "x_parity", "xx_central_4n", "serre"]
    for name, _, instances, _, built, _, verdicts, *_ in affine:
        assert int(verdicts) == int(instances) > 0 and built == "0", name


def test_affine_index_sets_stop_at_their_own_first_failure(monkeypatch, capsys):
    # <gamma_0, gamma_1> off by one on the pairing side: the toroidal set
    # stops at hx, and the affine set, which has no gamma_0, runs every
    # family; the document was recorded when each index set ran on its own
    from spinwreath.vertex import TwistContext as Twist

    real = Twist.pairing
    monkeypatch.setattr(Twist, "pairing",
                        lambda self, alpha, beta: real(self, alpha, beta) + alpha[0] * beta[1])
    code, out = _run_verify(capsys, ["verify", "affine", "--xi", "mckay", "--gamma", "cyclic:3",
                                     "--window", "2", "--degree", "2"])
    assert code == 3
    assert out == (
        '{"suite":"affine","gamma":"cyclic3","xi":"mckay","params":{"n":2,"degree":2,'
        '"window":2},"results":[{"relation":"hh","params":{"window":2,"degree":2,'
        '"indices":[0,1,2]},"status":"pass","index_set":"toroidal","gamma":"cyclic3"},'
        '{"relation":"hx","params":{"i":0,"j":1,"n":-1,"m":-2},"status":"fail",'
        '"witness":{"coset":0,"mono":[],"residual":[[[[1,1],[1,1],[1,1]],"-4/3"],[[[3,1]],'
        '"-2/3"]]},"index_set":"toroidal","gamma":"cyclic3"},{"relation":"hh",'
        '"params":{"window":2,"degree":2,"indices":[1,2]},"status":"pass",'
        '"index_set":"affine","gamma":"cyclic3"},{"relation":"hx","params":{"window":2,'
        '"degree":2,"indices":[1,2]},"status":"pass","index_set":"affine",'
        '"gamma":"cyclic3"},{"relation":"x_parity","params":{"window":2,"degree":2,'
        '"indices":[1,2]},"status":"pass","index_set":"affine","gamma":"cyclic3"},'
        '{"relation":"xx_central_4n","params":{"window":2,"degree":2,"indices":[1,2]},'
        '"status":"pass","index_set":"affine","gamma":"cyclic3"},{"relation":"serre",'
        '"params":{"window":2,"degree":2,"indices":[1,2]},"status":"pass",'
        '"index_set":"affine","gamma":"cyclic3"},{"relation":"h_even_zero",'
        '"params":{"note":"only odd Heisenberg generators exist; h_i(2n) = 0 holds structurally"},'
        '"status":"pass","index_set":"affine","gamma":"cyclic3"}],"status":"fail"}'
        "\n")
