"""Time `vertex.affine_relation_check` against window and degree.

    python3 benchmarks/affine_scaling.py [--src SRC] [--sizes 4] [--repeats 3]

At the McKay weight on the toroidal index set (every class), it times
`affine_relation_check` for cyclic:3 at (window, degree) = (2, 2), (3, 3)
and (3, 4), then quaternion8 at (2, 3), in a fresh `TwistContext` per
repeat (context building is not timed); `--sizes` keeps the first that
many.  It prints one JSON row per size: the number of relation instances
checked, the panel monomials each is checked on, the status of each
relation family, the median seconds and every repeat.  `--src` points at
the `src` directory of the checkout to measure (default: this checkout's).
It exits 1 when a family's status is not "pass", so a timing is never
reported for a check that failed.
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

    counted = [0]
    certify = vertex.certify_instances

    def counting(tctx, name, instances, monos, pass_params, blocks=None):
        def each():
            for instance in instances:
                counted[0] += 1
                yield instance
        return certify(tctx, name, each(), monos, pass_params, blocks)

    vertex.certify_instances = counting
    failed = False
    for name, window, degree in SIZES[:args.sizes]:
        gamma, _ = builtin(name)
        xi = mckay_xi(gamma)
        runs = []
        for _ in range(args.repeats):
            tctx = vertex.TwistContext(gamma, xi)
            counted[0] = 0
            start = time.perf_counter()
            results, = vertex.affine_relation_check(tctx, [range(gamma.num_classes)], window,
                                                    degree)
            runs.append(round(time.perf_counter() - start, 4))
        statuses = {r.relation: r.status for r in results}
        failed = failed or any(s != "pass" for s in statuses.values())
        print(json.dumps({"gamma": name, "window": window, "degree": degree,
                          "indices": gamma.num_classes, "instances": counted[0],
                          "panel_monomials": len(tctx.fock.basis(degree)),
                          "statuses": statuses,
                          "median_s": statistics.median(runs), "runs_s": runs}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
