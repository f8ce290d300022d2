"""Command-line frontend.

Subcommands: cases, table, verify, norms, kernel, matcoef, gram.
All fractions are serialized as "num/den" strings, never floats, so the
output is byte-deterministic.  Exit codes: 0 success, 1 verification or
consistency failure, 2 invalid input.

This module holds only what every command runs: the option table, the
argv loop, help and the output writers.  Once argv has parsed, `run`
imports the one module of the command's handler, `cli_spectral` or
`cli_models`, and that module the layer the command runs; `json` and
`csv` are imported only for those formats, and `fractions` only with a
layer, so `import orbitq.cli` loads no other `orbitq` module.
"""

import os
import sys
from importlib import import_module
from types import SimpleNamespace


def frac(x) -> str:
    """An `int` or a `Fraction` as "num/den", None as "*"."""
    if x is None:
        return "*"
    return f"{x.numerator}/{x.denominator}"


def emit_table(rows, fmt: str, fields=()) -> None:
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
            writer.writerow([csv_cell(row[f]) for f in fields])
    else:
        if not rows:
            out.write("(no rows)\n")
            return
        widths = [max(len(str(f)), max(len(csv_cell(r[f])) for r in rows))
                  for f in fields]
        out.write("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(csv_cell(row[f]).ljust(w)
                                for f, w in zip(fields, widths)).rstrip() + "\n")


def csv_cell(v) -> str:
    """One cell: booleans as true/false, None as empty, a list as its
    items joined by ";" and a tuple (a bracket pair) by " "."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, list):
        return ";".join(map(csv_cell, v))
    if isinstance(v, tuple):
        return " ".join(map(csv_cell, v))
    return str(v)


def emit_record(record: dict, fmt: str) -> bool:
    """Write one record as indented json or as a one-row csv table with a
    header; False, writing nothing, for text."""
    if fmt == "json":
        emit_table(record, fmt)
    elif fmt == "csv":
        emit_table([record], fmt, fields=tuple(record))
    else:
        return False
    return True


def count(text: str) -> int:
    """A non-negative int."""
    n = int(text)
    if n < 0:
        raise ValueError(f"must be >= 0, got {n}")
    return n


# An option is (flag, converter, default).  The converter is count, float,
# str, a tuple of choices or bool, a switch; a default of ... makes the
# option required.  Each group that several subcommands share is one tuple.
FORMAT = (("--format", ("json", "csv", "text"), "text"),)
SWEEP = (("--pmax", count, 12), ("--nmax", count, 12))
BUNDLE = (("--case", str, ...), ("--twist", ("L0", "f0L0"), "L0"))
MODEL = (("--model", str, ...),)

# command -> (handler module, help summary, options); the module's
# function of the command's name runs it
COMMANDS = {
    "cases": ("cli_spectral", "dump the case registry", SWEEP + FORMAT),
    # `--case` and `--all` exclude each other; with neither, the full sweep
    "table": ("cli_spectral", "bundle/spectral table",
              (("--case", str, None), ("--all", bool, False)) + SWEEP + FORMAT),
    "verify": ("cli_models", "bracket closure for a shipped model",
               MODEL + (("--levels", count, 3),) + FORMAT),
    "norms": ("cli_spectral", "rung scalars and squared norms",
              BUNDLE + (("--n", count, 8),) + FORMAT),
    "kernel": ("cli_spectral", "reproducing-kernel coefficients",
               BUNDLE + (("--terms", count, 10),) + FORMAT),
    "matcoef": ("cli_spectral", "matrix coefficient partial sum",
                BUNDLE + (("--t", float, ...), ("--terms", count, 20)) + FORMAT),
    "gram": ("cli_models", "invariant Gram recursion for a model",
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
        words.append(flag if default is ... else f"[{flag}]")
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
    missing = [flag for flag, _, default in options if default is ... and flag[2:] not in values]
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
        handler = getattr(import_module(f".{COMMANDS[cmd][0]}", __package__), cmd)
        return handler(args)
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
