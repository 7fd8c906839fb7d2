"""Tests of the benchmark itself: the correctness gate, the host-speed
scaling, the seeded job order, the tracer's coverage of every binding, and
the layer -> workload map.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import SpanTracer, _package_modules  # noqa: E402

RAISES = "classes --oracle --gamma cyclic:3 --n 5"  # the oracle size guard raises


def test_wrong_golden_and_raising_job_are_counted():
    ok, wrong = "mckay --gamma quaternion8", "mckay --gamma klein4"
    goldens = run.load_goldens()
    goldens = {ok: goldens["mckay --gamma quaternion8"],
               wrong: {"exit": 0, "sha256": "0" * 64},
               RAISES: {"exit": 2, "sha256": "0" * 64}}
    jobs = [ok, wrong, RAISES]
    result = run.run_pass(jobs, SRC)
    tally = run.Tally(goldens)
    tally.check(jobs, result)
    assert (tally.attempted, tally.failed) == (3, 2)
    raised = result["jobs"][2]
    assert raised["exit"] is None and raised["error"].startswith("ValueError")


def test_times_are_scaled_by_the_reference_loop():
    jobs = ["mckay --gamma quaternion8", "classes --oracle --gamma cyclic:3 --n 3"]
    result = run.run_pass(jobs, SRC)
    assert len(result["reference_s"]) == len(jobs) + 1
    ref = result["reference_s"]
    first, second = result["jobs"]
    assert first["scaled_s"] == pytest.approx(first["seconds"] * run.host_scale(ref[:2]))
    assert second["scaled_s"] == pytest.approx(second["seconds"] * run.host_scale(ref[1:]))
    assert result["wall_s"] == pytest.approx(result["wall_unscaled_s"] * result["host_scale"])
    assert result["wall_unscaled_s"] == pytest.approx(first["seconds"] + second["seconds"])
    assert result["wall_rational_s"] > 0 and result["wall_cyclotomic_s"] > 0
    assert result["wall_rational_s"] + result["wall_cyclotomic_s"] == pytest.approx(result["wall_s"])
    assert run.host_scale([run.REFERENCE_S] * 3) == pytest.approx(1.0)


def test_job_order_is_a_seeded_permutation():
    jobs = run.WORKLOADS["certify"]
    assert run.pass_order(jobs, 7, 0) == run.pass_order(jobs, 7, 0)
    assert sorted(run.pass_order(jobs, 7, 0)) == sorted(jobs)
    orders = {tuple(run.pass_order(jobs, seed, i)) for seed in (1, 2) for i in range(3)}
    assert len(orders) > 1


def test_every_goldened_job_is_in_a_workload():
    jobs = {job for jobs in run.WORKLOADS.values() for job in jobs}
    assert set(run.load_goldens()) == jobs


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]


def test_every_binding_is_traced():
    sys.path.insert(0, SRC)
    from spinwreath import cli, fock, vertex

    modules = _package_modules()
    before = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    originals = {}
    for name in run.TRACED:
        layer, *path = name.split(".")
        owner = vars(sys.modules[f"spinwreath.{layer}"])
        if len(path) == 1:
            originals[id(owner[path[0]])] = name
    tracer = SpanTracer()
    tracer.install(run.TRACED)
    try:
        for m in modules:
            for attr, value in vars(m).items():
                assert id(value) not in originals, f"{m.__name__}.{attr} is not traced"
        assert cli.create is fock.create is vertex.create
        assert cli.create.__wrapped__ is before[("spinwreath.fock", "create")]
    finally:
        tracer.remove()
    after = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    assert after == before


# -- the layer -> metric -> workload map (README.md) ------------------------------

# Metrics that must be nonzero on the workload meant to drive them.
NONZERO = {
    "tables": [
        "fock.a_prime_vector.calls", "fock.a_prime_vector.total_s",
        "fock.a_prime_vector.distinct_share", "fock.create.calls", "fock.create.self_s",
        "fock.inner.calls", "fock.inner.self_s",
        "vertex.x_component.calls", "vertex.x_component.self_s",
        "qtable.x_lambda_vector.calls", "qtable.x_lambda_vector.self_s",
        "qtable.char_value.calls", "qtable.char_value.self_s",
        "qtable.build_table.total_s", "qtable.CharTable.to_doc.total_s",
    ],
    "tables_checked": [
        "classfun.weighted_inner.calls", "classfun.weighted_inner.self_s",
        "gammadata.GammaData.char_value.calls",
        "qtable.verify_table.total_s", "qtable.verify_table.self_s",
    ],
    "certify": [
        "lattice.LatticeTwist.epsilon_masks.calls",
        "vertex.clifford_check.total_s", "vertex.clifford_check.self_s",
        "vertex.affine_relation_check.total_s", "vertex.affine_relation_check.self_s",
        "fock.annihilate.calls", "fock.annihilate.self_s", "fock.inner.calls",
        "fock.inner.self_s", "fock.q_gen.calls",
        "vertex.ope_check.total_s", "vertex.ope_check.self_s",
        "classfun.ch.calls", "classfun.sigma_rho.calls",
        "classfun.induction_product.calls", "classfun.ch.self_s",
        "spingroup.enumerate_classes_bruteforce.total_s",
        "spingroup.basic_spin_trace.calls", "spingroup.basic_spin_trace.self_s",
        "spingroup.theory_classes.calls",
    ],
}
EVERYWHERE = ["gammadata.builtin.total_s", "lattice.LatticeTwist.init.total_s",
              "vertex.TwistContext.init.total_s", "partitions.multipartitions.calls",
              "cli.main.total_s", "cli.main.self_s"]
COUNTED = ["scalars.Cyc.mul.calls", "scalars.Cyc.add.calls", "scalars.Cyc.promote.calls",
           "scalars.Cyc.mul.rational_promoted_share"]

# Metrics that must be exactly zero on a workload.
_SPINGROUP = ["spingroup.enumerate_classes_bruteforce.total_s",
              "spingroup.basic_spin_trace.calls", "spingroup.basic_spin_trace.self_s",
              "spingroup.theory_classes.calls"]
_CHECKERS = ["vertex.clifford_check.total_s", "vertex.clifford_check.self_s",
             "vertex.affine_relation_check.total_s", "vertex.affine_relation_check.self_s",
             "vertex.ope_check.total_s", "vertex.ope_check.self_s"]
ZERO = {
    "tables": ["classfun.weighted_inner.calls", "classfun.weighted_inner.self_s",
               "qtable.verify_table.total_s", "qtable.verify_table.self_s",
               *_CHECKERS, *_SPINGROUP],
    "tables_checked": [*_CHECKERS, *_SPINGROUP],
}


def _traced(jobs, trace):
    result = run.run_pass(jobs, SRC, trace)
    tally = run.Tally(run.load_goldens())
    tally.check(jobs, result)
    assert tally.failed == 0, tally.examples  # traced outputs match the goldens
    return result["layers"]


@pytest.fixture(scope="module")
def layers():
    out = {}
    for workload, jobs in run.WORKLOADS.items():
        out[workload] = _traced(jobs, "spans")
        if workload != "certify":
            out[workload].update(_traced(jobs, "count"))
    return out


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_layer_metrics_nonzero_where_driven(layers, workload):
    names = NONZERO.get(workload, []) + EVERYWHERE
    if workload != "certify":
        names += COUNTED
    missing = [name for name in names if not layers[workload][name] > 0]
    assert not missing


@pytest.mark.parametrize("workload", sorted(ZERO))
def test_layer_metrics_zero_where_not_driven(layers, workload):
    nonzero = [name for name in ZERO[workload] if layers[workload][name] != 0]
    assert not nonzero


def test_layer_metrics_move_most_where_driven(layers):
    # `act` in the X components reaches the cocycle on the table workloads too,
    # and building the Gram matrix and pairing rows calls GammaData.char_value.
    eps = "lattice.LatticeTwist.epsilon_masks.calls"
    assert layers["tables"][eps] * 10 < layers["certify"][eps]
    value = "gammadata.GammaData.char_value.calls"
    assert layers["tables"][value] * 10 < layers["tables_checked"][value]


def test_a_prime_vector_is_not_used_by_the_lattice_checkers():
    jobs = [job for job in run.WORKLOADS["certify"] if "affine" in job or "clifford" in job]
    assert _traced(jobs, "spans")["fock.a_prime_vector.calls"] == 0
