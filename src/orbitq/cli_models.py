"""The `orbit` commands of the model layer: verify and gram.

`orbit` imports this module only to run one of them; it loads the model
stack (`models`, `opcalc`, `sparse`) and no spectral module.
"""

from . import models
from .cli import csv_cell, emit_record, frac

GRAM_FLAGS = ("well_defined", "symmetric", "positive_definite", "adjoint_ok")


def _parse_model(name: str):
    """The model `name` names: so44, g2, osc, or osc<N> with N spelled
    without leading zeros."""
    if name in models.PAIR_MODELS:
        return models.build_model(name)
    n = name[3:] or "1"
    if name.rstrip("0123456789") == "osc" and n == str(int(n)):
        return models.build_model("oscillator", int(n))
    raise ValueError(f"unknown model {name!r}"
                     f" (use {', '.join(models.PAIR_MODELS)}, oscN)")


def verify(args) -> int:
    model = _parse_model(args.model)
    report = models.verify_brackets(model, args.levels)
    status = {
        "model": args.model,
        "operators": len(model.algebra_ops),
        "rank": report.rank,
        "closed": report.closed,
        "independent": report.independent,
        "stable": report.stable,
        "sl2_ok": report.sl2_ok,
        "failures": report.failures,
    }
    if report.unstable:
        status["unstable"] = report.unstable
    if not emit_record(status, args.format):
        word = "closed" if report.closed else "NOT closed"
        print(f"{args.model}: {word} rank {report.rank}"
              f" stable={csv_cell(report.stable)} sl2={csv_cell(report.sl2_ok)}")
        for pair in report.failures:
            print(f"  bracket escapes span: {pair[0]}, {pair[1]}")
        for a, b, mono in report.unstable:
            print(f"  constants unstable: {a}, {b} at {mono}")
    ok = report.closed and report.stable and report.sl2_ok
    return 0 if ok else 1


def gram(args) -> int:
    model = _parse_model(args.model)
    report = models.solve_gram(model, args.levels)
    flags = {f: getattr(report, f) for f in GRAM_FLAGS}
    ok = all(flags.values())
    hw_norms = [frac(models.model_hw_norm(model, n, report))
                for n in range(args.levels + 1)] if ok else []
    payload = {
        "model": args.model,
        "levels": args.levels,
        **flags,
        "hw_norms": hw_norms,
        "failures": report.failures,
    }
    if not emit_record(payload, args.format):
        print(f"{args.model}: "
              + " ".join(f"{f}={csv_cell(payload[f])}" for f in GRAM_FLAGS))
        for n, h in enumerate(hw_norms):
            print(f"  level {n}: hw norm {h}")
        for f in report.failures:
            print(f"  failure: {f}")
    return 0 if ok else 1
