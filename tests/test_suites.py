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
    tctx.twist.gram[1][2] += 1  # the expected bracket; the H rows keep the true form
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
