"""spinwreath benchmark: runs each workload's jobs through `spinwreath.cli.main`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record-goldens

Each pass runs the workload's job list, in an order drawn from the seed, in a
fresh child interpreter, so every pass starts with cold caches as a CLI user's
job does.  Every job's exit code and stdout sha256 are checked against
`goldens.json`.  End-to-end times are scaled to a quiet host's speed by a
reference loop timed in the same child (see `host_scale`).  With `--trace 0`
the run alternates set-up samples and untraced passes and reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
passes, adds one `Cyc` counting pass, and reports the per-layer metrics and
the tracing overhead.  A table of every
metric goes to stdout, and the last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
GOLDENS = os.path.join(HERE, "goldens.json")
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 150

RATIONAL = {"trivial", "cyclic:2", "klein4", "quaternion8"}
CYCLOTOMIC = {"cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:8"}

# Why each list holds what it holds is recorded in README.md.
WORKLOADS: Dict[str, List[str]] = {
    "tables": [
        "chartable --gamma quaternion8 --n 3",
        "chartable --gamma klein4 --n 3",
        "chartable --gamma cyclic:2 --n 7",
        "chartable --gamma trivial --n 12",
        "chartable --gamma cyclic:3 --n 4",
        "chartable --gamma cyclic:4 --n 3",
        "chartable --gamma cyclic:5 --n 2",
        "chartable --gamma cyclic:6 --n 2",
    ],
    "tables_checked": [
        "chartable --check --gamma klein4 --n 3",
        "chartable --check --gamma quaternion8 --n 2",
        "chartable --check --gamma cyclic:2 --n 5",
        "chartable --check --gamma trivial --n 12",
        "chartable --check --gamma cyclic:3 --n 3",
        "chartable --check --gamma cyclic:5 --n 2",
    ],
    "certify": [
        "verify affine --xi mckay --gamma cyclic:6 --window 1 --degree 1",
        "verify affine --xi mckay --gamma cyclic:3 --window 2 --degree 2",
        "verify clifford --gamma cyclic:8 --window 1 --degree 1",
        "verify ope --gamma cyclic:2 --window 1 --degree 3",
        "verify heisenberg --gamma cyclic:3 --degree 4 --window 3",
        "verify isometry --gamma quaternion8 --n 3",
        "verify hopf --gamma klein4 --n 4",
        "verify oracle --gamma klein4 --n 3",
        "classes --oracle --gamma cyclic:3 --n 3",
        "mckay --gamma quaternion8",
    ],
}

SETUP_SAMPLES_PER_PASS = 2

# Seconds `child.reference_seconds` takes on a quiet host: its 5th percentile
# over 600 calls on a 2-vCPU VM with Python 3.11.7.  Scaled times read as
# seconds on a host that runs the loop this fast.
REFERENCE_S = 0.036

END_TO_END_UNITS = {"wall_s": "s", "wall_rational_s": "s", "wall_cyclotomic_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}

# Printed in the table beside the end-to-end metrics, not carried in the JSON:
# the unscaled times and the scale, so a reader can see what the scaling did.
UNSCALED_UNITS = {"wall_unscaled_s": "s", "setup_unscaled_s": "s", "host_scale": "ratio"}

# Per-layer metrics reported by a traced run (`--trace 1`), with their units.
PER_LAYER = [
    "fock.a_prime_vector.calls", "fock.a_prime_vector.total_s",
    "fock.a_prime_vector.distinct_share", "fock.create.calls", "fock.create.self_s",
    "scalars.Cyc.mul.calls", "scalars.Cyc.add.calls", "scalars.Cyc.sub.calls",
    "scalars.Cyc.promote.calls", "scalars.Cyc.mul.rational_promoted_share",
    "classfun.weighted_inner.calls", "classfun.weighted_inner.self_s",
    "gammadata.GammaData.char_value.calls",
    "qtable.verify_table.total_s", "qtable.verify_table.self_s",
    "lattice.LatticeTwist.epsilon_masks.calls",
    "vertex.clifford_check.total_s", "vertex.clifford_check.self_s",
    "vertex.affine_relation_check.total_s", "vertex.affine_relation_check.self_s",
    "fock.annihilate.calls", "fock.annihilate.self_s",
    "fock.inner.calls", "fock.inner.self_s", "fock.q_gen.calls",
    "vertex.ope_check.total_s", "vertex.ope_check.self_s",
    "vertex.x_component.calls", "vertex.x_component.self_s",
    "qtable.x_lambda_vector.calls", "qtable.x_lambda_vector.self_s",
    "qtable.char_value.calls", "qtable.char_value.self_s",
    "qtable.build_table.total_s", "qtable.CharTable.to_doc.total_s",
    "classfun.ch.calls", "classfun.sigma_rho.calls", "classfun.induction_product.calls",
    "classfun.ch.self_s",
    "spingroup.enumerate_classes_bruteforce.total_s",
    "spingroup.basic_spin_trace.calls", "spingroup.basic_spin_trace.self_s",
    "spingroup.theory_classes.calls",
    "gammadata.builtin.total_s", "lattice.LatticeTwist.init.total_s",
    "vertex.TwistContext.init.total_s",
    "partitions.multipartitions.calls", "cli.main.total_s", "cli.main.self_s",
    "trace_overhead_s",
]


# The functions a spans pass traces: every one a per-layer metric names.
# `Cyc` is counted in its own pass instead.
TRACED = sorted({name.rsplit(".", 1)[0] for name in PER_LAYER
                 if "." in name and not name.startswith("scalars.")})


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_share"):
        return "ratio"
    return "s"


# -- jobs --------------------------------------------------------------------


def job_gamma(job: str) -> str:
    argv = job.split()
    return argv[argv.index("--gamma") + 1]


def setup_contexts(jobs: Sequence[str]) -> List[List[str]]:
    """Distinct (gamma, xi) pairs a workload's jobs build contexts for."""
    pairs = []
    for job in jobs:
        pair = [job_gamma(job), "mckay" if "--xi mckay" in job else "standard"]
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def pass_order(jobs: Sequence[str], seed: int, index: int) -> List[str]:
    """The job order of pass `index`: a permutation drawn from the seed."""
    order = list(jobs)
    random.Random(f"{seed}:{index}").shuffle(order)
    return order


def load_goldens() -> Dict[str, dict]:
    with open(GOLDENS) as fh:
        return json.load(fh)


def job_failed(job: str, result: dict, goldens: Dict[str, dict]) -> bool:
    """A job fails if it raised, or its exit code or stdout digest is not the golden one."""
    golden = goldens.get(job)
    return (golden is None or result["error"] is not None
            or result["exit"] != golden["exit"] or result["sha256"] != golden["sha256"])


# -- child processes -----------------------------------------------------------


def call_child(request: dict, src: str) -> dict:
    request = dict(request, src=src)
    proc = subprocess.run([sys.executable, CHILD], input=json.dumps(request),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_scale(reference_s: Sequence[float]) -> float:
    """Factor that turns a child's times into seconds on a quiet host.

    The host is shared: for minutes at a time other load slows every
    instruction by up to half, and CPU time slows with wall time.  The
    child times a fixed standard-library loop around each piece of measured
    work, and the work's time is multiplied by the loop's quiet time over its
    mean time there.  No change to `spinwreath` moves the loop."""
    return REFERENCE_S / statistics.mean(reference_s)


def run_pass(jobs: Sequence[str], src: str, trace: str = "off",
             spans_path: Optional[str] = None) -> dict:
    """One pass over `jobs` in a fresh child.  Each job's time is scaled by
    `host_scale` of the reference loops just before and after it; `wall_s`
    and the `wall_<subset>_s` sums add the scaled times, `wall_unscaled_s`
    the clock times."""
    req = {"mode": "pass", "jobs": [job.split() for job in jobs], "trace": trace,
           "traced": TRACED}
    if spans_path:
        req["spans_path"] = spans_path
    result = call_child(req, src)
    reference = result["reference_s"]
    for index, r in enumerate(result["jobs"]):
        r["scaled_s"] = r["seconds"] * host_scale(reference[index:index + 2])
    result["wall_unscaled_s"] = result["wall_s"]
    result["wall_s"] = sum(r["scaled_s"] for r in result["jobs"])
    result["host_scale"] = result["wall_s"] / result["wall_unscaled_s"]
    for subset, gammas in (("rational", RATIONAL), ("cyclotomic", CYCLOTOMIC)):
        result[f"wall_{subset}_s"] = sum(
            r["scaled_s"] for job, r in zip(jobs, result["jobs"]) if job_gamma(job) in gammas)
    return result


def setup_sample(jobs: Sequence[str], src: str) -> Tuple[float, float]:
    """Set-up time of a fresh child: scaled by `host_scale`, and unscaled."""
    result = call_child({"mode": "setup", "contexts": setup_contexts(jobs)}, src)
    return result["setup_s"] * host_scale(result["reference_s"]), result["setup_s"]


# -- the run -------------------------------------------------------------------


class Tally:
    """Jobs attempted and failed across a run, with the first failures kept."""

    def __init__(self, goldens: Dict[str, dict]):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.examples: List[str] = []

    def check(self, jobs: Sequence[str], result: dict) -> None:
        for job, r in zip(jobs, result["jobs"]):
            self.attempted += 1
            if job_failed(job, r, self.goldens):
                self.failed += 1
                if len(self.examples) < 5:
                    self.examples.append(f"{job}: exit={r['exit']} error={r['error']}")


def measure_end_to_end(jobs, seed, seconds, src, tally) -> Dict[str, List[float]]:
    """Alternate set-up samples and untraced passes until the time is spent."""
    samples: Dict[str, List[float]] = {
        name: [] for name in list(END_TO_END_UNITS) + list(UNSCALED_UNITS)}
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUP_SAMPLES_PER_PASS):
            scaled, unscaled = setup_sample(jobs, src)
            samples["setup_s"].append(scaled)
            samples["setup_unscaled_s"].append(unscaled)
        order = pass_order(jobs, seed, index)
        result = run_pass(order, src)
        tally.check(order, result)
        for name in ("wall_s", "wall_rational_s", "wall_cyclotomic_s", "peak_rss_mb",
                     "wall_unscaled_s", "host_scale"):
            samples[name].append(result[name])
        index += 1
        now = time.perf_counter()
        if now + (now - t0) / 2 > start + seconds:
            return samples


def measure_layers(jobs, seed, seconds, src, tally, spans_path) -> Dict[str, List[float]]:
    """Alternate untraced and traced passes until the time is spent, then
    make one `Cyc` counting pass."""
    samples: Dict[str, List[float]] = {name: [] for name in PER_LAYER}
    walls: Dict[str, List[float]] = {"off": [], "spans": []}
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        for trace in ("off", "spans"):
            order = pass_order(jobs, seed, index)
            result = run_pass(order, src, trace, spans_path if trace == "spans" else None)
            tally.check(order, result)
            walls[trace].append(result["wall_s"])
            for name, value in result.get("layers", {}).items():
                if name in samples:
                    samples[name].append(value)
            index += 1
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            break
    order = pass_order(jobs, seed, index)
    result = run_pass(order, src, "count")
    tally.check(order, result)
    for name, value in result["layers"].items():
        samples[name].append(value)
    samples["trace_overhead_s"] = [statistics.median(walls["spans"])
                                   - statistics.median(walls["off"])]
    return samples


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(workload: str, seed: int, samples: Dict[str, List[float]], units: Dict[str, str],
           tally: Tally) -> dict:
    print(f"workload={workload} seed={seed} attempted={tally.attempted} failed={tally.failed} "
          f"error_rate={tally.failed / tally.attempted:.4f}")
    for example in tally.examples:
        print(f"  failed: {example}")
    print(f"{'metric':48s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        unit = units.get(name) or UNSCALED_UNITS[name]
        print(f"{name:48s} {unit:6s} {len(values):3d} {med:12.6g} {q1:12.6g} {q3:12.6g}")
        if name in units:
            metrics[name] = {"value": med, "unit": unit}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def record_goldens(src: str) -> None:
    """Run every job once, alone in a fresh child, and store its exit code and digest."""
    goldens = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            r = run_pass([job], src)["jobs"][0]
            if r["error"] is not None:
                raise RuntimeError(f"{job} raised {r['error']}")
            goldens[job] = {"exit": r["exit"], "sha256": r["sha256"]}
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-goldens", action="store_true",
                    help="rewrite goldens.json from the checkout's current code")
    args = ap.parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "spinwreath", "cli.py")):
        sys.stderr.write("error: run from the root of a spinwreath checkout "
                         "(src/spinwreath/cli.py not found)\n")
        return 2
    if args.record_goldens:
        record_goldens(src)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    jobs = WORKLOADS[args.workload]
    tally = Tally(load_goldens())
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        samples = measure_layers(jobs, args.seed, args.seconds, src, tally, spans_path)
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        samples = measure_end_to_end(jobs, args.seed, args.seconds, src, tally)
        units = END_TO_END_UNITS
    result = report(args.workload, args.seed, samples, units, tally)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
