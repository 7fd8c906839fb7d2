"""One benchmark pass, or one set-up sample, in a fresh interpreter.

Reads a JSON request on stdin and writes a JSON result as the last line of
stdout.  Request keys:

- `src`: directory that holds the `spinwreath` package;
- `mode`: `setup` or `pass`;
- `contexts` (setup): `[gamma, xi]` pairs, xi being `standard` or `mckay`;
- `jobs` (pass): CLI argument lists, run in order through `spinwreath.cli.main`;
- `trace` (pass): `off`, `spans` or `count`;
- `traced` (spans pass): the layer functions to trace, as `SpanTracer.install` names them;
- `spans_path` (pass, optional): where a `spans` pass writes its spans.

Both modes also return `reference_s`, the times of `reference_seconds` taken
around the measured work: after a set-up sample, and before every job and
after the last one in a pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

REFERENCE_ROUNDS = 300


def reference_seconds() -> float:
    """Time a fixed loop of `Fraction` products and dict updates.

    The loop uses only the standard library, so no change to `spinwreath`
    moves it: it measures how fast the host runs this interpreter at the
    moment, which `run.py` uses to scale the job times.  `fractions` is
    imported here, not at the top, so that a set-up sample still pays for
    importing it as a CLI user does."""
    from fractions import Fraction

    base = [Fraction(k + 1, 2 * k + 3) for k in range(6)]
    t0 = time.perf_counter()
    acc = {}
    for r in range(REFERENCE_ROUNDS):
        a = [c + Fraction(r % 5, 7) for c in base]
        prod = [Fraction(0)] * 11
        for i, x in enumerate(a):
            for j, y in enumerate(base):
                prod[i + j] += x * y
        for k in range(10, 5, -1):
            prod[k - 6] -= prod[k]
        key = (r % 17, tuple(c.denominator % 97 for c in prod[:6]))
        acc[key] = acc.get(key, 0) + 1
    return time.perf_counter() - t0


def _import_package(src: str):
    sys.path.insert(0, src)
    import spinwreath.cli as cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"spinwreath was imported from {where}, not from {src}")
    return cli


def setup_sample(req: dict) -> dict:
    """Import time plus `builtin()` and `TwistContext(...)` for each context."""
    t0 = time.perf_counter()
    _import_package(req["src"])
    from spinwreath.gammadata import VirtualChar, builtin, mckay_xi
    from spinwreath.vertex import TwistContext

    for spec, xi in req["contexts"]:
        gamma, _ = builtin(spec)
        TwistContext(gamma, mckay_xi(gamma) if xi == "mckay" else VirtualChar.trivial(gamma))
    setup = time.perf_counter() - t0
    return {"setup_s": setup, "reference_s": [reference_seconds() for _ in range(3)]}


def run_job(cli, argv) -> dict:
    """Run one CLI invocation; an exception is reported, not raised."""
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failing job is counted, and the pass goes on
        code = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "exit": code, "error": error,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def run_pass(req: dict) -> dict:
    cli = _import_package(req["src"])
    recorder = None
    if req["trace"] == "spans":
        from tracer import SpanTracer

        recorder = SpanTracer()
        recorder.install(req["traced"])
    elif req["trace"] == "count":
        from tracer import CycCounter

        recorder = CycCounter()
        recorder.install()
    jobs = []
    reference = []
    wall = 0.0
    for index, argv in enumerate(req["jobs"]):
        if req["trace"] == "spans":
            recorder.job = index
        reference.append(reference_seconds())
        jobs.append(run_job(cli, argv))
        wall += jobs[-1]["seconds"]
    reference.append(reference_seconds())
    result = {"wall_s": wall, "jobs": jobs, "reference_s": reference,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        result["layers"] = recorder.summary()
        if req.get("spans_path"):
            recorder.dump(req["spans_path"])
    return result


def main() -> int:
    req = json.load(sys.stdin)
    result = setup_sample(req) if req["mode"] == "setup" else run_pass(req)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
