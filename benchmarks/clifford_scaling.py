"""Time `vertex.clifford_check` against the size of the mod-2 lattice factor.

    python3 benchmarks/clifford_scaling.py [--src SRC] [--repeats 3]

For cyclic:4/6/8/10 at the standard weight, window 1 and degree 1, it times
`clifford_check` in a fresh `TwistContext` per repeat (context building is
not timed) and prints one JSON row per group: module_size = 2^(r+1), the
number of relation instances (3 k^2 (2 window + 1)^2), the median seconds
and every repeat.  `--src` points at the `src` directory of
the checkout to measure (default: this checkout's).  It exits 1 when a
group's certification does not pass, so a timing is never reported for a
check that failed.
"""

import argparse
import json
import os
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from spinwreath.gammadata import VirtualChar, builtin
    from spinwreath.vertex import TwistContext, clifford_check

    failed = False
    for k in (4, 6, 8, 10):
        gamma, _ = builtin(f"cyclic:{k}")
        runs = []
        for _ in range(args.repeats):
            tctx = TwistContext(gamma, VirtualChar.trivial(gamma))
            start = time.perf_counter()
            status = clifford_check(tctx, 1, 1)[-1].status
            runs.append(round(time.perf_counter() - start, 4))
        failed = failed or status != "pass"
        print(json.dumps({"gamma": f"cyclic:{k}", "module_size": 1 << tctx.twist.dim,
                          "window": 1, "degree": 1, "instances": 27 * k * k,
                          "status": status, "median_s": statistics.median(runs),
                          "runs_s": runs}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
