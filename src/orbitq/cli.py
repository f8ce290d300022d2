"""Command-line frontend.

Subcommands: cases, table, verify, norms, kernel, matcoef, gram.
All fractions are serialized as "num/den" strings, never floats, so the
output is byte-deterministic.  Exit codes: 0 success, 1 verification or
consistency failure, 2 invalid input.

Each subcommand imports the layer it runs when it starts: `cases` the
case registry, `table`, `norms`, `kernel` and `matcoef` the spectral
stack, `verify` and `gram` the model stack; `json` and `csv` are imported
only for those formats, and `fractions` only by `matcoef`, the one that
builds a `Fraction`.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

TABLE_FIELDS = ("case_id", "twist", "r0", "a", "b", "valid",
                "vacuum_label", "alpha", "pi1_order")


def frac(x) -> str:
    """An `int` or a `Fraction` as "num/den", None as "*"."""
    if x is None:
        return "*"
    return f"{x.numerator}/{x.denominator}"


def table_rows(case_ids) -> list:
    from . import bundles
    from .catalog import vacuum_label
    from .jordan import lookup_case
    rows = []
    for cid in case_ids:
        case = lookup_case(cid)
        pi1 = bundles.pi1_component_order(case)
        for bm in bundles.classify_bundles(case):
            rows.append({
                "case_id": cid,
                "twist": bm.twist,
                "r0": frac(bm.r0),
                "a": frac(bm.a),
                "b": frac(bm.b),
                "valid": bool(bm.valid),
                "vacuum_label": vacuum_label(cid, bm.twist),
                "alpha": bm.alpha,
                "pi1_order": pi1,
            })
    return rows


def emit_table(rows, fmt: str, fields=TABLE_FIELDS) -> None:
    """Write `rows` as indented json, which takes any json value, or as a
    csv or text table of `fields` with a header."""
    out = sys.stdout
    if fmt == "json":
        import json
        out.write(json.dumps(rows, indent=2) + "\n")
    elif fmt == "csv":
        import csv
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(row[f]) for f in fields])
    else:
        if not rows:
            out.write("(no rows)\n")
            return
        widths = [max(len(str(f)), max(len(_csv_cell(r[f])) for r in rows))
                  for f in fields]
        out.write("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(_csv_cell(row[f]).ljust(w)
                                for f, w in zip(fields, widths)).rstrip() + "\n")


def _csv_cell(v) -> str:
    """One cell: booleans as true/false, None as empty, a list as its
    items joined by ";" and a tuple (a bracket pair) by " "."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, list):
        return ";".join(map(_csv_cell, v))
    if isinstance(v, tuple):
        return " ".join(map(_csv_cell, v))
    return str(v)


def _emit_record(record: dict, fmt: str) -> bool:
    """Write one record as indented json or as a one-row csv table with a
    header; False, writing nothing, for text."""
    if fmt == "json":
        emit_table(record, fmt)
    elif fmt == "csv":
        emit_table([record], fmt, fields=tuple(record))
    else:
        return False
    return True


def _valid_bundle(args, what: str):
    """The bundle of `--case` with `--twist`, or None once stderr says its
    construction fails, followed by `what`."""
    from . import bundles
    from .jordan import UnknownCaseError, lookup_case
    case = lookup_case(args.case)
    bm = next((bm for bm in bundles.classify_bundles(case) if bm.twist == args.twist), None)
    if bm is None:
        raise UnknownCaseError(f"case {case.id} has no {args.twist} bundle")
    if not bm.valid:
        print(f"{args.case} {args.twist}: construction fails{what}", file=sys.stderr)
        return None
    return bm


def _cmd_cases(args) -> int:
    from .jordan import lookup_case, sweep_case_ids
    entries = [lookup_case(cid)._asdict()
               for cid in sweep_case_ids(args.pmax, args.nmax)]
    if args.format == "json":
        emit_table(entries, "json")
    elif args.format == "csv":
        rows = [{"id": e["id"], "m": e["m"], "G": e["labels"]["G"],
                 "blocks": " ".join("/".join(map(str, b)) for b in e["blocks"])}
                for e in entries]
        emit_table(rows, "csv", fields=("id", "blocks", "m", "G"))
    else:
        for e in entries:
            blocks = " ".join("(q=%d,d=%d,w=%d)" % tuple(b) for b in e["blocks"])
            print(f"{e['id']:10s} m={e['m']:<3d} {blocks}  [{e['labels']['G']}]")
    return 0


def _cmd_table(args) -> int:
    if args.case:
        ids = [args.case]
    else:
        from .jordan import sweep_case_ids
        ids = sweep_case_ids(args.pmax, args.nmax)
    rows = table_rows(ids)
    if args.case and not rows:
        print(f"{args.case}: no half-form bundle", file=sys.stderr)
    emit_table(rows, args.format)
    return 0


def _parse_model(name: str):
    """The model stack and the model `name` names: so44, g2, osc, or osc<N>
    with N spelled without leading zeros."""
    from . import models
    if name in models.PAIR_MODELS:
        return models, models.build_model(name)
    n = name[3:] or "1"
    if name.rstrip("0123456789") == "osc" and n == str(int(n)):
        return models, models.build_model("oscillator", int(n))
    raise ValueError(f"unknown model {name!r}"
                     f" (use {', '.join(models.PAIR_MODELS)}, oscN)")


def _cmd_verify(args) -> int:
    models, model = _parse_model(args.model)
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
    if not _emit_record(status, args.format):
        word = "closed" if report.closed else "NOT closed"
        print(f"{args.model}: {word} rank {report.rank}"
              f" stable={_csv_cell(report.stable)} sl2={_csv_cell(report.sl2_ok)}")
        for pair in report.failures:
            print(f"  bracket escapes span: {pair[0]}, {pair[1]}")
        for a, b, mono in report.unstable:
            print(f"  constants unstable: {a}, {b} at {mono}")
    ok = report.closed and report.stable and report.sl2_ok
    return 0 if ok else 1


def _cmd_norms(args) -> int:
    bm = _valid_bundle(args, "; no norms")
    if bm is None:
        return 1
    from .hyperg import kernel_coefficients
    ps = kernel_coefficients(bm.r0, bm.a, bm.b, args.n)
    # p_k = 1/(gamma_1...gamma_k), and the k-th squared rung norm is 1/(p_k (k!)^2)
    rows = [{"k": k, "gamma": frac(ps[k - 1] / ps[k]),
             "norm": frac(1 / (ps[k] * math.factorial(k) ** 2))} for k in range(1, args.n + 1)]
    emit_table(rows, args.format, fields=("k", "gamma", "norm"))
    return 0


def _cmd_kernel(args) -> int:
    bm = _valid_bundle(args, "; no kernel")
    if bm is None:
        return 1
    from .hyperg import kernel_coefficients
    ps = kernel_coefficients(bm.r0, bm.a, bm.b, args.terms)
    rows = [{"n": n, "p_n": frac(p)} for n, p in enumerate(ps)]
    emit_table(rows, args.format, fields=("n", "p_n"))
    return 0


def _cmd_matcoef(args) -> int:
    if not math.isfinite(args.t):
        raise ValueError("--t must be a finite real number")
    bm = _valid_bundle(args, "")
    if bm is None:
        return 1
    try:
        yf = math.sinh(args.t) ** 2
    except OverflowError:
        yf = math.inf
    if yf >= 1:
        print(f"|sinh^2 t| = {yf} >= 1: series not applicable", file=sys.stderr)
        return 2
    from fractions import Fraction
    y = Fraction(yf)  # exact value of the binary float
    # ulp(0.0) = 2^-1074 still bounds a square that underflowed to 0.0
    conv_bound = Fraction(4 * math.ulp(yf)) if args.t else 0
    from .hyperg import matrix_coefficient
    value, tail = matrix_coefficient(bm.r0, bm.a, bm.b, y, args.terms)
    payload = {
        "case_id": args.case,
        "twist": args.twist,
        "t": args.t,
        "y_surrogate": frac(y),
        "y_conversion_bound": frac(conv_bound),
        "partial_sum": frac(value),
        "remainder_bound": frac(tail) if tail is not None else None,
        "terms": args.terms,
    }
    if not _emit_record(payload, args.format):
        for k, v in payload.items():
            print(f"{k}: {v}")
    return 0


GRAM_FLAGS = ("well_defined", "symmetric", "positive_definite", "adjoint_ok")


def _cmd_gram(args) -> int:
    models, model = _parse_model(args.model)
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
    if not _emit_record(payload, args.format):
        print(f"{args.model}: "
              + " ".join(f"{f}={_csv_cell(payload[f])}" for f in GRAM_FLAGS))
        for n, h in enumerate(hw_norms):
            print(f"  level {n}: hw norm {h}")
        for f in report.failures:
            print(f"  failure: {f}")
    return 0 if ok else 1


def count(text: str) -> int:
    """A non-negative int."""
    n = int(text)
    if n < 0:
        raise ValueError(f"must be >= 0, got {n}")
    return n


# An option is (flag, converter, default).  The converter is count, float,
# str, a tuple of choices or bool, a switch; a default of None makes the
# option required.  Each group that several subcommands share is one tuple.
FORMAT = (("--format", ("json", "csv", "text"), "text"),)
SWEEP = (("--pmax", count, 12), ("--nmax", count, 12))
BUNDLE = (("--case", str, None), ("--twist", ("L0", "f0L0"), "L0"))
MODEL = (("--model", str, None),)

COMMANDS = {
    "cases": (_cmd_cases, "dump the case registry", SWEEP + FORMAT),
    # `--case` and `--all` exclude each other; with neither, the full sweep
    "table": (_cmd_table, "bundle/spectral table",
              (("--case", str, ""), ("--all", bool, False)) + SWEEP + FORMAT),
    "verify": (_cmd_verify, "bracket closure for a shipped model",
               MODEL + (("--levels", count, 3),) + FORMAT),
    "norms": (_cmd_norms, "rung scalars and squared norms",
              BUNDLE + (("--n", count, 8),) + FORMAT),
    "kernel": (_cmd_kernel, "reproducing-kernel coefficients",
               BUNDLE + (("--terms", count, 10),) + FORMAT),
    "matcoef": (_cmd_matcoef, "matrix coefficient partial sum",
                BUNDLE + (("--t", float, None), ("--terms", count, 20)) + FORMAT),
    "gram": (_cmd_gram, "invariant Gram recursion for a model",
             MODEL + (("--levels", count, 2),) + FORMAT),
}


class UsageError(Exception):
    """A malformed argv."""


def _usage(cmd) -> str:
    if cmd is None:
        return f"usage: orbit [-h] {{{','.join(COMMANDS)}}} ..."
    words = ["usage: orbit", cmd, "[-h]"]
    for flag, conv, default in COMMANDS[cmd][2]:
        if conv is not bool:
            flag += f" {{{','.join(conv)}}}" if isinstance(conv, tuple) else f" {flag[2:].upper()}"
        words.append(flag if default is None else f"[{flag}]")
    return " ".join(words)


def _help(cmd) -> str:
    if cmd:
        about = COMMANDS[cmd][1]
    else:
        about = ("exact spectral data and model verification for minimal-orbit quantizations"
                 "\n\ncommands:" + "".join(f"\n  {name:9}{summary}"
                                          for name, (_, summary, _) in COMMANDS.items()))
    return f"{_usage(cmd)}\n\n{about}\n\n  -h, --help  show this help and exit"


def _is_value(token: str) -> bool:
    """Whether the token after an option that needs a value is that value.
    As for argparse, it is unless it looks like an option: "-", "-5",
    "-.5" and any token with a space are values."""
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    number = frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return token[:1] != "-" or token == "-" or " " in token or number


def _read(cmd, argv):
    """The options of `cmd` read off argv left to right, the first token
    that decides winning; None once `-h` has printed the help.  An option
    is `--opt value` or `--opt=value`, `--opt` spelled by any unique prefix."""
    options = COMMANDS[cmd][2] if cmd else ()
    flags = {flag: conv for flag, conv, _ in options} | {"--help": bool}
    values, tokens = {}, iter(argv)
    for token in tokens:
        name, eq, value = ("--help" if token == "-h" else token).partition("=")
        long = name.startswith("--") and name != "--"
        matches = [f for f in flags if long and f.startswith(name)]
        if name not in flags and len(matches) != 1:
            what = "ambiguous option" if matches else "unrecognized argument"
            raise UsageError(f"{what}: {token}" if cmd else f"invalid command: {token}")
        flag = name if name in flags else matches[0]
        conv = flags[flag]
        if conv is bool:
            if eq:
                raise UsageError(f"{flag} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                raise UsageError(f"{flag} needs a value")
        if flag == "--help":
            print(_help(cmd))
            return None
        try:
            if isinstance(conv, tuple):
                conv.index(value)  # a ValueError unless one of the choices
            else:
                value = conv(value)
        except ValueError:
            raise UsageError(f"{flag}: invalid value {value!r}") from None
        values[flag[2:]] = value
        if "case" in values and "all" in values:
            raise UsageError("--case and --all exclude each other")
    missing = [flag for flag, _, default in options if default is None and flag[2:] not in values]
    if cmd is None or missing:
        raise UsageError(f"{', '.join(missing)} required" if cmd else "a command is required")
    return SimpleNamespace(**{flag[2:]: default for flag, _, default in options} | values)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cmd = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _read(cmd, argv[1:] if cmd else argv)
    except UsageError as exc:
        print(_usage(cmd), f"orbit: error: {exc}", sep="\n", file=sys.stderr)
        return 2
    if args is None:
        return 0
    try:
        return COMMANDS[cmd][0](args)
    except ValueError as exc:  # UnknownCaseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`orbit cases | head -1`); stdout is sent
        # to devnull so the interpreter's final flush cannot raise again
        # (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
