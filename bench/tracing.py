"""Per-module tracing from outside the program.

``installed`` replaces every public function of the traced modules with a
timing wrapper at every binding site, meaning each module namespace
(including the package's) that holds the function under some name.  The
program imports functions by name, so patching only the defining module
would miss the calls made through ``from .canonical import ...``.
Everything is put back when the block ends.

Coarse calls are kept as spans (name, start, end, parent span).  Per-bit
kernels run millions of times, so they are only aggregated: calls, items
yielded, truthy results, total time and self time per (name, caller).
Self time is duration minus the time of wrapped callees.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

from workloads import MODULES

# Calls kept as spans in addition to the aggregate.
COARSE = frozenset(
    {
        "cli.main",
        "jointree.verify_critical_set",
        "jointree.extract_tree",
        "registers.decompose",
        "oracle.enumerate_family",
    }
)


class Tracer:
    """In-memory spans and per-(name, caller) aggregates for one job."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        # A frame is [name, child seconds, enclosing span id].
        self.stack: List[list] = [["root", 0.0, None]]
        # (name, caller) -> [calls, items, truthy, total_s, self_s]
        self.stats: Dict[Tuple[str, str], list] = {}
        self.spans: List[Dict[str, Any]] = []

    def _record(self, name: str, caller: str) -> list:
        rec = self.stats.get((name, caller))
        if rec is None:
            rec = self.stats[(name, caller)] = [0, 0, 0, 0.0, 0.0]
        return rec

    def _open_span(self, name: str, parent: list) -> int:
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "name": name, "parent": parent[2], "start": self.clock() - self.origin}
        )
        return sid

    def wrap(self, name: str, fn: Callable, returns: str = "", span: bool = False) -> Callable:
        """Timing wrapper for fn, kept as a span if ``span`` is set or the
        name is in COARSE.  If ``returns`` is set, the function's result is
        itself a function and is wrapped under that name."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack, clock, record = self.stack, self.clock, self._record
        coarse = span or name in COARSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, self._open_span(name, parent) if coarse else parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = record(name, parent[0])
                rec[0] += 1
                rec[3] += dt
                rec[4] += dt - frame[1]
                if coarse:
                    self.spans[frame[2]]["end"] = clock() - self.origin
            if result:
                rec[2] += 1
            if returns:
                result = self.wrap(returns, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        stack, clock, record = self.stack, self.clock, self._record

        def drive(inner):
            while True:
                parent = stack[-1]
                frame = [name, 0.0, parent[2]]
                stack.append(frame)
                t0 = clock()
                done = False
                try:
                    item = next(inner)
                except StopIteration:
                    done = True
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent[1] += dt
                    rec = record(name, parent[0])
                    rec[3] += dt
                    rec[4] += dt - frame[1]
                if done:
                    return
                rec[1] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record(name, stack[-1][0])[0] += 1
            return drive(fn(*args, **kwargs))

        return wrapper

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name sums over callers."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, _), (calls, items, truthy, total, self_s) in self.stats.items():
            t = out.setdefault(
                name, {"calls": 0, "items": 0, "truthy": 0, "total_s": 0.0, "self_s": 0.0}
            )
            t["calls"] += calls
            t["items"] += items
            t["truthy"] += truthy
            t["total_s"] += total
            t["self_s"] += self_s
        return out

    def table(self) -> List[Dict[str, Any]]:
        """The aggregate as rows, for writing out."""
        return [
            {
                "name": name,
                "caller": caller,
                "calls": calls,
                "items": items,
                "truthy": truthy,
                "total_s": total,
                "self_s": self_s,
            }
            for (name, caller), (calls, items, truthy, total, self_s) in sorted(
                self.stats.items()
            )
        ]


def _public_functions(module) -> Iterator[Tuple[str, Callable]]:
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, value in vars(module).items():
        # The cli's cmd_* handlers are reached only through main, and their
        # work (argument handling, buffering, file writes) is what cli.main's
        # self time stands for.
        if (
            inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not attr.startswith("_")
            and not (short == "cli" and attr.startswith("cmd_"))
        ):
            yield f"{short}.{attr}", value


@contextlib.contextmanager
def installed(tracer: Tracer, m) -> Iterator[None]:
    """Wrap the public functions of the traced modules at every binding
    site for the duration of the block, then restore the originals."""
    sites = [m.package] + [getattr(m, name) for name in MODULES]
    wrappers: Dict[int, Callable] = {}
    for name in MODULES:
        for qualname, fn in _public_functions(getattr(m, name)):
            # critical_predicate returns the per-state closure the generator
            # and the validators call; it is traced as rules.critical.
            returns = "rules.critical" if qualname == "rules.critical_predicate" else ""
            wrappers[id(fn)] = (fn, tracer.wrap(qualname, fn, returns))
    replaced = []
    try:
        for site in sites:
            for attr, value in list(vars(site).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(site, attr, hit[1])
                    replaced.append((site, attr, value))
        yield
    finally:
        for site, attr, value in reversed(replaced):
            setattr(site, attr, value)
