"""The `orbit` commands of the spectral layer: cases, table, norms,
kernel and matcoef.

`orbit` imports this module only to run one of them.  `cases` loads the
case registry (`jordan`), `table` the bundle construction (`bundles`)
and the vacuum labels (`catalog`), and `norms`, `kernel` and `matcoef`
the bundle construction and the series (`hyperg`); `fractions` loads
with `bundles`.
"""

import math
import sys

from .cli import emit_record, emit_table, frac
from .jordan import UnknownCaseError, lookup_case, sweep_case_ids

TABLE_FIELDS = ("case_id", "twist", "r0", "a", "b", "valid",
                "vacuum_label", "alpha", "pi1_order")


def table_rows(case_ids) -> list:
    from . import bundles
    from .catalog import vacuum_label
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


def _valid_bundle(args, what: str):
    """The bundle of `--case` with `--twist`, or None once stderr says its
    construction fails, followed by `what`."""
    from . import bundles
    case = lookup_case(args.case)
    bm = next((bm for bm in bundles.classify_bundles(case) if bm.twist == args.twist), None)
    if bm is None:
        raise UnknownCaseError(f"case {case.id} has no {args.twist} bundle")
    if not bm.valid:
        print(f"{args.case} {args.twist}: construction fails{what}", file=sys.stderr)
        return None
    return bm


def cases(args) -> int:
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


def table(args) -> int:
    # with no `--case` the full sweep; an empty id given is one that
    # `lookup_case` rejects
    ids = sweep_case_ids(args.pmax, args.nmax) if args.case is None else [args.case]
    rows = table_rows(ids)
    if args.case is not None and not rows:
        print(f"{args.case}: no half-form bundle", file=sys.stderr)
    emit_table(rows, args.format, TABLE_FIELDS)
    return 0


def norms(args) -> int:
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


def kernel(args) -> int:
    bm = _valid_bundle(args, "; no kernel")
    if bm is None:
        return 1
    from .hyperg import kernel_coefficients
    ps = kernel_coefficients(bm.r0, bm.a, bm.b, args.terms)
    rows = [{"n": n, "p_n": frac(p)} for n, p in enumerate(ps)]
    emit_table(rows, args.format, fields=("n", "p_n"))
    return 0


def matcoef(args) -> int:
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
    if not emit_record(payload, args.format):
        for k, v in payload.items():
            print(f"{k}: {v}")
    return 0
