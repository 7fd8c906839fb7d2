"""Layer tracing for spinwreath, applied from outside the package.

`SpanTracer` replaces every binding of the named layer functions and
methods with a wrapper that records one span per call.  Modules
import names by value (`from .fock import create`), so the original function
object is looked up in every loaded `spinwreath` module and each attribute
that holds it is replaced.  Spans stay in memory until `dump` writes them.

`CycCounter` counts `Cyc` arithmetic by wrapping the operators on the class.
It runs in a pass of its own: a job makes 10^5 or more `Cyc`
multiplications, and the counting wrappers would otherwise inflate the span
self-times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PACKAGE = "spinwreath"

# Arguments whose distinct values per job are recorded: traced name ->
# (positional index, keyword name).
DISTINCT_ARGS = {"fock.a_prime_vector": (1, "rho")}


def _package_modules() -> List:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class SpanTracer:
    """Records a span for each call of a traced function.

    A span is (name id, job, parent span, start, end, self seconds,
    outermost).  Self time is the span's duration minus the durations of the
    traced calls made inside it.  A span is outermost when no enclosing span
    has the same name, so a recursive function's total is not counted twice.
    A generator function's span covers only the call that creates the
    generator; its iteration is charged to the consumer.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Tuple]] = []
        self.distinct: Dict[str, set] = defaultdict(set)
        self.job = -1
        self._stack: List[Tuple[int, List[float]]] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, names: Sequence[str]) -> None:
        """Trace each named function, `<module>.<function>` or
        `<module>.<Class>.<method>` (`init` for `__init__`), at every
        binding in the loaded `spinwreath` modules."""
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        replacements: Dict[int, Callable] = {}
        for name in names:
            layer, *path = name.split(".")
            owner = by_name[f"{PACKAGE}.{layer}"]
            if len(path) == 2:
                cls, meth = getattr(owner, path[0]), path[1]
                meth = "__init__" if meth == "init" else meth
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
            else:
                fn = getattr(owner, path[0])
                replacements[id(fn)] = self._wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def remove(self) -> None:
        """Put back every original binding."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        depth = [0]
        clock = time.perf_counter
        tracer = self
        arg = DISTINCT_ARGS.get(name)
        seen = self.distinct[name] if arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                value = args[arg[0]] if len(args) > arg[0] else kwargs[arg[1]]
                seen.add((tracer.job, value))
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            children = [0.0]
            stack.append((idx, children))
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[0] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1][0] += dur
                spans[idx] = (nid, tracer.job, parent, t0, t1, dur - children[0],
                              depth[0] == 0)

        return traced

    # -- results -----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """`<name>.calls`, `.self_s` and `.total_s` for every traced name,
        plus `.distinct_share` where distinct arguments are recorded."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for nid, _job, _parent, t0, t1, own, outermost in self.spans:
            calls[nid] += 1
            self_s[nid] += own
            if outermost:
                total_s[nid] += t1 - t0
        out: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.total_s"] = total_s[nid]
            if name in self.distinct:
                out[f"{name}.distinct_share"] = (
                    len(self.distinct[name]) / calls[nid] if calls[nid] else 0.0)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as one JSON document of parallel columns."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        keys = ("name", "job", "parent", "start", "end", "self_s", "outermost")
        doc = {"names": self.names}
        doc.update({k: list(col) for k, col in zip(keys, cols)})
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class CycCounter:
    """Counts `Cyc` operations by wrapping the operators on the class.

    `mul` counts `__mul__` and `__rmul__`, `add` counts `__add__` and
    `__radd__` (including the addition each subtraction makes), `sub` counts
    `__sub__` and `promote` counts every promotion, explicit or made to match
    operand orders.  `rational_promoted` counts products whose operands both
    have rational values while at least one is stored at an order above 1.
    """

    def __init__(self) -> None:
        self.counts = {"mul": 0, "add": 0, "sub": 0, "promote": 0,
                       "rational_promoted": 0}

    def install(self) -> None:
        """Wrap the operators on `spinwreath.scalars.Cyc` for the rest of the process."""
        from spinwreath.scalars import Cyc

        counts = self.counts

        def rational_value(x) -> bool:
            return not isinstance(x, Cyc) or not any(x.coeffs[1:])

        def stored_above_1(x) -> bool:
            return isinstance(x, Cyc) and x.order > 1

        def counting(key: str, fn: Callable, is_mul: bool = False) -> Callable:
            @functools.wraps(fn)
            def counted(self, *args):
                counts[key] += 1
                if is_mul:
                    other = args[0]
                    if (rational_value(self) and rational_value(other)
                            and (stored_above_1(self) or stored_above_1(other))):
                        counts["rational_promoted"] += 1
                return fn(self, *args)
            return counted

        for attr, key in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
                          ("__radd__", "add"), ("__sub__", "sub"), ("promote", "promote")):
            setattr(Cyc, attr, counting(key, Cyc.__dict__[attr], is_mul=key == "mul"))

    def summary(self) -> Dict[str, float]:
        c = self.counts
        return {"scalars.Cyc.mul.calls": c["mul"],
                "scalars.Cyc.add.calls": c["add"],
                "scalars.Cyc.sub.calls": c["sub"],
                "scalars.Cyc.promote.calls": c["promote"],
                "scalars.Cyc.mul.rational_promoted_share":
                    c["rational_promoted"] / c["mul"] if c["mul"] else 0.0}
