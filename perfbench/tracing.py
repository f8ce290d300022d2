"""Spans and counters recorded from outside the program.

The tracer replaces functions of the `orbitq` modules with timing
wrappers for the length of a `with tracer.patched():` block.  Modules bind
some of these functions by `from ... import`, so every orbitq namespace
that holds the same function object is patched, not only the defining
module.

Three kinds of instrumentation:

- spans: one record (name, start, end, parent) per call, for functions
  called at most a few thousand times per pass;
- leaves: call count and total time per name, no record per call, for
  the memo-miss leaves of the polynomial layer (called up to ~10^5 times
  and never calling another traced function);
- counters: `OperatorExpr.apply_terms` runs millions of times, so it only
  counts calls and memo lookups, untimed.

A layer's self time is the time its spans cover minus the time their
traced children cover.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute, span name)
SPANS = (
    ("models", "build_model", "models.build_model"),
    ("models", "verify_brackets", "models.verify_brackets"),
    ("opcalc", "span_structure", "opcalc.span_structure"),
    ("opcalc", "verify_structure_constants", "opcalc.verify_structure_constants"),
    ("opcalc", "solve_linear_system", "opcalc.solve_linear_system"),
    ("models", "_check_sl2", "models.check_sl2"),
    ("models", "solve_gram", "models.gram_recursion"),
    ("models", "_level0_gram", "models.level0_gram"),
    ("models", "_positive_definite", "models.positive_definite"),
    ("models", "_check_adjointness", "models.adjointness"),
    ("bundles", "classify_bundles", "bundles.classify"),
    ("jordan", "sweep_case_ids", "jordan.sweep"),
    ("jordan", "lookup_case", "jordan.sweep"),
    ("ladder", "R_eigenvalue", "ladder.r_eigenvalue"),
    ("ladder", "ladder_norms", "ladder.ladder_norms"),
    ("catalog", "golden_rows", "catalog.golden_rows"),
    ("hyperg", "kernel_coefficients", "hyperg.kernel"),
    ("hyperg", "matrix_coefficient", "hyperg.matcoef"),
    ("cli", "run", "cli.run"),
)

# spans whose (args, result) are kept for the derived counters
KEEP = {"models.build_model", "models.verify_brackets", "opcalc.span_structure",
        "models.gram_recursion", "hyperg.kernel"}

LEAVES = (
    ("exactalg", "poly_mul_terms", "exactalg.poly_mul"),
    ("exactalg", "diff_terms", "exactalg.diff"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index, child time]
        self.leaves: dict = {}      # name -> [calls, seconds]
        self.counts: dict = {}      # name -> int
        self.kept: dict = {}        # name -> [(args, result)]
        self._stack: list = []      # indices of open spans

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.kept.setdefault(name, []) if name in KEEP else None

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += rec[2] - rec[1]
            if kept is not None:
                kept.append((args, result))
            return result
        return traced

    def leaf(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        agg = self.leaves.setdefault(name, [0, 0.0])

        def traced(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt
        return traced

    def counted_apply(self, fn):
        counts = self.counts
        counts.setdefault("opcalc.apply.calls", 0)
        counts.setdefault("opcalc.apply.lookups", 0)

        def apply_terms(op, ctx, terms):
            counts["opcalc.apply.calls"] += 1
            counts["opcalc.apply.lookups"] += len(terms)
            return fn(op, ctx, terms)
        return apply_terms

    @contextmanager
    def patched(self):
        """Install every wrapper whose target exists; restore on exit."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "orbitq" or name.startswith("orbitq.")]
        undo = []

        def install(module, attr, make):
            mod = sys.modules.get(f"orbitq.{module}")
            orig = getattr(mod, attr, None)
            if orig is None:
                return
            wrapped = make(orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        undo.append((ns, key, orig))
                        setattr(ns, key, wrapped)

        for module, attr, name in SPANS:
            install(module, attr, lambda fn, name=name: self.span(name, fn))
        for module, attr, name in LEAVES:
            install(module, attr, lambda fn, name=name: self.leaf(name, fn))
        op_cls = getattr(sys.modules.get("orbitq.opcalc"), "OperatorExpr", None)
        if op_cls is not None and "apply_terms" in vars(op_cls):
            orig = op_cls.apply_terms
            op_cls.apply_terms = self.counted_apply(orig)
            undo.append((op_cls, "apply_terms", orig))
        try:
            yield self
        finally:
            for ns, key, orig in reversed(undo):
                setattr(ns, key, orig)

    def self_times(self) -> dict:
        out: dict = {}
        for name, start, end, _, child in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child)
        for name, (_, seconds) in self.leaves.items():
            out[name] = out.get(name, 0.0) + seconds
        return out

    def calls(self, name: str) -> int:
        if name in self.leaves:
            return self.leaves[name][0]
        return sum(1 for rec in self.spans if rec[0] == name)

    def export(self) -> dict:
        return {"spans": [[n, round(s, 7), round(e, 7), p] for n, s, e, p, _ in self.spans],
                "leaves": self.leaves, "counts": self.counts}
