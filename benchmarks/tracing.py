"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces each listed function in every `oredango` module
that holds a reference to it, which is where its callers look it up
(`textio` and `reduction` import `build_board`, `solver` and `ilp` import
`triple_index`, ...).  Methods are replaced on their class.  Spans stay in
memory as (span, parent, op, name, start, end) rows until `write_spans`.
Self time is a span's duration minus the time of the spans directly
inside it.  Everything runs on one thread, so no span waits on another.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function) pairs; a dotted function is a method of a class.
TARGETS = (
    ("textio", "parse_board"), ("textio", "write_board"),
    ("textio", "parse_coloring"), ("textio", "write_coloring"),
    ("textio", "parse_one_in_three"),
    ("core", "build_board"), ("core", "triple_index"),
    ("core", "check_coloring"),
    ("solver", "board_engine"), ("solver", "BoundedCounts.run"),
    ("solver", "propagate"), ("solver", "enumerate"), ("solver", "solve"),
    ("ilp", "build_model"), ("ilp", "export_lp"),
    ("reduction", "reduce"), ("reduction", "assignment_to_coloring"),
    ("cli", "main"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)
OP = "bench.op"

COUNTS = ("solver.nodes", "solver.fixed_at_root", "core.circles",
          "core.windows", "ilp.lp_bytes", "textio.bytes_in", "textio.bytes_out")


def _windows(index) -> int:
    return sum(len(windows) for group in (index.row_triples, index.col_triples,
                                          index.skewer_triples)
               for windows in group)


# Work counted from a call's arguments and result, outside its span.
_HOOKS = {
    "textio.parse_board": lambda args, out: ("textio.bytes_in", len(args[0])),
    "textio.parse_coloring": lambda args, out: ("textio.bytes_in", len(args[0])),
    "textio.parse_one_in_three":
        lambda args, out: ("textio.bytes_in", len(args[0])),
    "textio.write_board": lambda args, out: ("textio.bytes_out", len(out)),
    "textio.write_coloring": lambda args, out: ("textio.bytes_out", len(out)),
    "core.build_board": lambda args, out: ("core.circles", len(out.circles)),
    "core.triple_index": lambda args, out: ("core.windows", _windows(out)),
    "ilp.export_lp": lambda args, out: ("ilp.lp_bytes", len(out)),
    "solver.BoundedCounts.run": lambda args, out: ("solver.nodes", out[2]),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = {name: [0, 0.0, 0.0, 0] for name in NAMES + (OP,)}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list] = []   # [span id, time of direct children]
        self.op_id = -1   # operation the next spans belong to; -1 for none
        self._patches: list[tuple] = []

    def _span(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        stack.append(frame)
        failed = True
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans[frame[0]] = (frame[0], parent, self.op_id, name, start,
                                    end)
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            stat[3] += failed
            hook = _HOOKS.get(name)
            if hook is not None and not failed:
                key, amount = hook(args, out)
                self.counts[key] += amount

    def op(self, op_id: int, fn, *args):
        """Run one benchmark operation as the root span `bench.op`."""
        self.op_id = op_id
        return self._span(OP, fn, args, {})

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, pkg) -> None:
        modules = [module for key, module in sys.modules.items()
                   if key == pkg.__name__ or key.startswith(pkg.__name__ + ".")]
        for (module_name, function), name in zip(TARGETS, NAMES):
            module = getattr(pkg, module_name)
            if "." in function:
                cls_name, method = function.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(name, original))
                continue
            original = getattr(module, function)
            traced = self._wrap(name, original)
            holders = [(m, key) for m in modules
                       for key, value in vars(m).items() if value is original]
            for holder, key in holders:
                self._patch(holder, key, original, traced)

    def _patch(self, owner, key, original, replacement) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write_spans(self, path) -> None:
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("span\tparent\top\tname\tstart_us\tend_us\n")
            for span, parent, op, name, start, end in self.spans:
                out.write(f"{span}\t{parent}\t{op}\t{name}\t"
                          f"{(start - base) * 1e6:.1f}\t{(end - base) * 1e6:.1f}\n")
