"""Time `vertex.affine_relation_check` against window and degree.

    python3 benchmarks/affine_scaling.py [--src SRC] [--sizes 4] [--repeats 3]

At the McKay weight, on both index sets that `verify affine` checks --
"toroidal" (every class) and "affine" (the nontrivial classes), in one
call -- it times `affine_relation_check` for cyclic:3 at (window, degree)
= (2, 2), (3, 3) and (3, 4), then quaternion8 at (2, 3), in a fresh
`TwistContext` per repeat (context building is not timed); `--sizes` keeps
the first that many.  It prints one JSON row per size: per index set, its
classes, the number of relation instances checked and the status of each
relation family; then the panel monomials each instance is checked on, the
median seconds and every repeat.  `--src` points at the `src` directory of
the checkout to measure (default: this checkout's).  It exits 1 when a
family of either index set does not pass, so a timing is never reported
for a check that failed.
"""

import argparse
import json
import os
import statistics
import sys
import time

SIZES = [("cyclic:3", 2, 2), ("cyclic:3", 3, 3), ("cyclic:3", 3, 4), ("quaternion8", 2, 3)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    ap.add_argument("--sizes", type=int, default=len(SIZES))
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from spinwreath import vertex
    from spinwreath.gammadata import builtin, mckay_xi

    counted = {}  # indices -> instances checked
    certify = vertex.certify_instances

    def counting(tctx, name, instances, monos, pass_params, blocks=None):
        key = tuple(pass_params["indices"])

        def each():
            for instance in instances:
                counted[key] = counted.get(key, 0) + 1
                yield instance
        return certify(tctx, name, each(), monos, pass_params, blocks)

    vertex.certify_instances = counting
    failed = False
    for name, window, degree in SIZES[:args.sizes]:
        gamma, _ = builtin(name)
        xi = mckay_xi(gamma)
        k = gamma.num_classes
        index_sets = [range(k), range(1, k)]
        runs = []
        for _ in range(args.repeats):
            tctx = vertex.TwistContext(gamma, xi)
            counted.clear()
            start = time.perf_counter()
            results = vertex.affine_relation_check(tctx, index_sets, window, degree)
            runs.append(round(time.perf_counter() - start, 4))
        sets = []
        for label, index_set, items in zip(("toroidal", "affine"), index_sets, results):
            statuses = {r.relation: r.status for r in items}
            failed = failed or any(s != "pass" for s in statuses.values())
            sets.append({"index_set": label, "indices": list(index_set),
                         "instances": counted.get(tuple(index_set), 0), "statuses": statuses})
        print(json.dumps({"gamma": name, "window": window, "degree": degree,
                          "index_sets": sets,
                          "panel_monomials": len(tctx.fock.basis(degree)),
                          "median_s": statistics.median(runs), "runs_s": runs}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
