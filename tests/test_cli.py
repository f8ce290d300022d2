import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q

import pytest

from orbitq import models
from orbitq.bundles import classify_bundles
from orbitq.cli import run
from orbitq.jordan import lookup_case, sweep_case_ids
from orbitq.ladder import ladder_norms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def capout(capsys):
    def grab():
        return capsys.readouterr()
    return grab


def test_table_single_case_json(capout):
    assert run(["table", "--case", "E6:6", "--format", "json"]) == 0
    rows = json.loads(capout().out)
    assert len(rows) == 1
    row = rows[0]
    assert row["case_id"] == "E6:6"
    assert row["twist"] == "L0"
    assert row["r0"] == "5/2"
    assert row["a"] == "3/2"
    assert row["b"] == "2/1"
    assert row["valid"] is True
    assert row["vacuum_label"] == "C"
    assert row["alpha"] == 5


def test_table_e88_csv_golden_line(capout):
    assert run(["table", "--case", "E8:8", "--format", "csv"]) == 0
    lines = capout().out.splitlines()
    assert lines[0] == "case_id,twist,r0,a,b,valid,vacuum_label,alpha,pi1_order"
    assert lines[1] == "E8:8,L0,7/1,3/1,5/1,true,C,14,1"


def test_table_sl3_two_rows(capout):
    assert run(["table", "--case", "SL:3", "--format", "json"]) == 0
    rows = json.loads(capout().out)
    assert len(rows) == 2
    assert rows[0]["valid"] is True and rows[1]["valid"] is False
    assert rows[1]["a"] == "*" and rows[1]["b"] == "*"


def test_table_no_bundle_case(capout):
    assert run(["table", "--case", "SO:4,5", "--format", "json"]) == 0
    grabbed = capout()
    assert json.loads(grabbed.out) == []
    assert "no half-form bundle" in grabbed.err
    # an empty table: text says so, csv is its header alone
    assert run(["table", "--case", "SO:4,5", "--format", "text"]) == 0
    assert capout().out == "(no rows)\n"
    assert run(["table", "--case", "SO:4,5", "--format", "csv"]) == 0
    assert capout().out == "case_id,twist,r0,a,b,valid,vacuum_label,alpha,pi1_order\n"
    # no rungs below n = 1
    for fmt, out in [("text", "(no rows)\n"), ("csv", "k,gamma,norm\n"), ("json", "[]\n")]:
        assert run(["norms", "--case", "G2:2", "--n", "0", "--format", fmt]) == 0
        assert capout().out == out


def test_table_sweep_deterministic(capout):
    assert run(["table", "--all", "--format", "csv"]) == 0
    first = capout().out
    assert run(["table", "--all", "--format", "csv"]) == 0
    assert capout().out == first
    assert first.splitlines()[0].startswith("case_id,")


def test_cases_listing(capout):
    assert run(["cases", "--format", "csv"]) == 0
    import csv as _csv
    rows = list(_csv.reader(capout().out.splitlines()))
    assert rows[0] == ["id", "blocks", "m", "G"]
    ids = [r[0] for r in rows[1:]]
    assert ids[0] == "E6:6" and "SO:3,3" in ids and "SL:12" in ids


def test_verify_oscillator(capout):
    assert run(["verify", "--model", "osc1", "--levels", "3",
                "--format", "json"]) == 0
    status = json.loads(capout().out)
    assert status["rank"] == 3 and status["closed"] and status["stable"]


def test_norms_and_kernel(capout):
    assert run(["norms", "--case", "SO:4,4", "--n", "3",
                "--format", "json"]) == 0
    rows = json.loads(capout().out)
    assert [r["norm"] for r in rows] == ["1/2", "1/3", "1/4"]
    assert run(["kernel", "--case", "E6:6", "--terms", "1",
                "--format", "json"]) == 0
    rows = json.loads(capout().out)
    assert rows == [{"n": 0, "p_n": "1/1"}, {"n": 1, "p_n": "7/6"}]


def test_norms_command_gives_ladder_norms(capout):
    # `orbit norms` reads each rung's gamma and norm off the kernel
    # coefficients p_k; the sweeps read `ladder_norms`, which takes the
    # same running products straight from the rung ratios
    n_max = 30
    for cid in sweep_case_ids(12, 12):
        case = lookup_case(cid)
        for bm in classify_bundles(case):
            if not bm.valid:
                continue
            assert run(["norms", "--case", cid, "--twist", bm.twist, "--n", str(n_max),
                        "--format", "json"]) == 0
            rows = json.loads(capout().out)
            assert [row["k"] for row in rows] == list(range(1, n_max + 1))
            for k in range(1, n_max + 1):
                gammas, norm = ladder_norms(case, bm.r0, bm.a, bm.b, k)
                assert [Q(row["gamma"]) for row in rows[:k]] == gammas, (cid, bm.twist, k)
                assert Q(rows[k - 1]["norm"]) == norm, (cid, bm.twist, k)


def test_norms_invalid_bundle_exits_1(capout):
    assert run(["norms", "--case", "SL:3", "--twist", "f0L0"]) == 1
    assert "fails" in capout().err


def test_kernel_and_matcoef_invalid_bundle_exit_1(capout):
    assert run(["kernel", "--case", "SL:3", "--twist", "f0L0"]) == 1
    got = capout()
    assert got.err == "SL:3 f0L0: construction fails; no kernel\n" and got.out == ""
    assert run(["matcoef", "--case", "SL:3", "--twist", "f0L0", "--t", "0.5"]) == 1
    got = capout()
    assert got.err == "SL:3 f0L0: construction fails\n" and got.out == ""


def test_matcoef_without_a_remainder_bound(capout):
    # at sinh^2 t near 0.996 the 30-term tail has no finite bound: text
    # prints None and csv an empty cell (ROADMAP item 8 replaces both)
    argv = ["matcoef", "--case", "E6:6", "--t", "0.88", "--terms", "30"]
    assert run(argv) == 0
    assert capout().out.splitlines()[-2:] == ["remainder_bound: None", "terms: 30"]
    assert run(argv + ["--format", "csv"]) == 0
    header, row = _csv_rows(capout().out)
    record = dict(zip(header, row))
    assert record["remainder_bound"] == "" and record["terms"] == "30"


def test_matcoef(capout):
    assert run(["matcoef", "--case", "SO:4,4", "--t", "0", "--terms", "5",
                "--format", "json"]) == 0
    payload = json.loads(capout().out)
    assert payload["partial_sum"] == "1/1"
    assert payload["y_surrogate"] == "0/1"
    # big t drives sinh^2 t past the disc of convergence
    assert run(["matcoef", "--case", "SO:4,4", "--t", "5"]) == 2


def test_matcoef_conversion_bound_when_sinh2_underflows(capout):
    # sinh^2(1e-200) ~ 1e-400 underflows to 0.0, so the float is not exact
    # and the bound is 4 ulp(0.0); only t = 0 gives y = 0 exactly
    assert run(["matcoef", "--case", "SO:4,4", "--t", "1e-200", "--format", "json"]) == 0
    payload = json.loads(capout().out)
    assert payload["y_surrogate"] == "0/1"
    assert Q(payload["y_conversion_bound"]) == 4 * Q(2) ** -1074
    assert run(["matcoef", "--case", "SO:4,4", "--t", "0", "--format", "json"]) == 0
    assert json.loads(capout().out)["y_conversion_bound"] == "0/1"


def test_matcoef_rejects_non_finite_t(capout):
    for t in ("nan", "inf", "-inf", "1e400"):
        assert run(["matcoef", "--case", "SO:4,4", f"--t={t}"]) == 2, t
        out = capout()
        assert out.err == "error: --t must be a finite real number\n" and out.out == "", t


def test_gram_oscillator(capout):
    assert run(["gram", "--model", "osc1", "--levels", "3",
                "--format", "json"]) == 0
    payload = json.loads(capout().out)
    assert payload["positive_definite"] and payload["well_defined"]
    # reported norms are for the n!-normalized rung sections: 1/n!
    assert payload["hw_norms"] == ["1/1", "1/1", "1/2", "1/6"]


def _csv_rows(text):
    import csv as _csv
    return list(_csv.reader(text.splitlines()))


def test_verify_csv(capout, monkeypatch):
    assert run(["verify", "--model", "osc1", "--levels", "3", "--format", "csv"]) == 0
    assert _csv_rows(capout().out) == [
        ["model", "operators", "rank", "closed", "independent", "stable", "sl2_ok",
         "failures"],
        ["osc1", "3", "3", "true", "true", "true", "true", ""]]
    # a list of bracket pairs fills one cell
    real = models.verify_brackets

    def failing(model, levels):
        return real(model, levels)._replace(closed=False,
                                            failures=[("z1d1", "z1z1"), ("z1d1", "d1d1")])

    monkeypatch.setattr(models, "verify_brackets", failing)
    assert run(["verify", "--model", "osc1", "--format", "csv"]) == 1
    rows = _csv_rows(capout().out)
    assert len(rows) == 2 and rows[1][3] == "false"
    assert rows[1][-1] == "z1d1 z1z1;z1d1 d1d1"


def test_verify_names_unstable_pairs(capout):
    # osc2 at level 2 closes, with dependent operators, but 8 pairs'
    # constants fail on level 2: each is named with its witness monomial,
    # one text line per pair and one json or csv field, which a stable
    # verdict does not have
    want = [("z1d1", "d1d1", (2, 0)), ("z1d1", "d1d2", (1, 1)), ("z1d2", "d1d1", (1, 1)),
            ("z1d2", "d1d2", (0, 2)), ("z2d1", "d1d2", (2, 0)), ("z2d1", "d2d2", (1, 1)),
            ("z2d2", "d1d2", (1, 1)), ("z2d2", "d2d2", (0, 2))]
    argv = ["verify", "--model", "osc2", "--levels", "2", "--format"]
    assert run(argv + ["json"]) == 1
    status = json.loads(capout().out)
    assert status["closed"] and not status["stable"] and status["failures"] == []
    assert [(a, b, tuple(m)) for a, b, m in status["unstable"]] == want
    assert run(argv + ["csv"]) == 1
    header, row = _csv_rows(capout().out)
    assert header[-2:] == ["failures", "unstable"]
    assert row[-1] == ";".join(f"{a} {b} {m[0]} {m[1]}" for a, b, m in want)
    assert run(argv + ["text"]) == 1
    assert capout().out.splitlines() == ["osc2: closed rank 7 stable=false sl2=true"] + [
        f"  constants unstable: {a}, {b} at {m}" for a, b, m in want]
    assert run(["verify", "--model", "osc1", "--levels", "3", "--format", "json"]) == 0
    assert "unstable" not in json.loads(capout().out)


def _patch_so44(monkeypatch, mutate):
    """`build_model` with its so44 model replaced by `mutate(so44)`."""
    real = models.build_model

    def build(name, n=1):
        model = real(name, n)
        return mutate(model) if name == "so44" else model

    monkeypatch.setattr(models, "build_model", build)


def test_failing_verdicts_print_their_failures(capout, monkeypatch):
    # x1_1^2 d^2/dx1_1^2 added to E1 takes E1 out of the span: 22 brackets
    # escape it, each one text line after the verdict
    from orbitq.opcalc import Polynomial, deriv, mul

    def e1_mutant(so44):
        x2 = Polynomial(so44.ctx, {(2,) + (0,) * 7: 1})
        (name, op), *rest = so44.algebra_ops
        extra = mul(x2) @ deriv(so44.ctx, ("x1_1", "x1_1"))
        return so44._replace(algebra_ops=((name, op + extra), *rest))

    _patch_so44(monkeypatch, e1_mutant)
    assert run(["verify", "--model", "so44", "--levels", "3"]) == 1
    head, *lines = capout().out.splitlines()
    assert head == "so44: NOT closed rank 28 stable=false sl2=true"
    assert len(lines) == 22 and all(x.startswith("  bracket escapes span: ") for x in lines)
    assert (lines[0], lines[-1]) == ("  bracket escapes span: E1, F1",
                                     "  bracket escapes span: A1122, A1211")
    # with only its first generator, so44 reaches one level-1 row, the
    # highest weight's; the others are named, then the zero pivot of the
    # first, and no hw norm is printed
    _patch_so44(monkeypatch, lambda so44: so44._replace(generators=so44.generators[:1]))
    assert run(["gram", "--model", "so44", "--levels", "1"]) == 1
    head, *lines = capout().out.splitlines()
    assert head == ("so44: well_defined=false symmetric=true positive_definite=false"
                    " adjoint_ok=true")
    unreached = models.build_model("so44").level_basis(1)[1:]
    assert lines == [f"  failure: level 1: no factorization of {m}" for m in unreached] + [
        f"  failure: level 1: pivot 0 at {unreached[0]} is not positive"]


def test_gram_csv(capout):
    assert run(["gram", "--model", "osc1", "--levels", "3", "--format", "csv"]) == 0
    assert _csv_rows(capout().out) == [
        ["model", "levels", "well_defined", "symmetric", "positive_definite",
         "adjoint_ok", "hw_norms", "failures"],
        ["osc1", "3", "true", "true", "true", "true", "1/1;1/1;1/2;1/6", ""]]


def test_matcoef_csv(capout):
    assert run(["matcoef", "--case", "SO:4,4", "--t", "0", "--terms", "5",
                "--format", "csv"]) == 0
    header, row = _csv_rows(capout().out)
    assert header == ["case_id", "twist", "t", "y_surrogate", "y_conversion_bound",
                      "partial_sum", "remainder_bound", "terms"]
    record = dict(zip(header, row))
    assert record["partial_sum"] == "1/1" and record["y_surrogate"] == "0/1"
    assert record["case_id"] == "SO:4,4" and record["terms"] == "5"


def test_readme_commands_match_recorded_digests(capout):
    # the eight README examples, byte for byte: sha256 of each stdout as
    # recorded in the benchmark's digest file
    with open(os.path.join(ROOT, "perfbench", "cli_digests.json")) as fh:
        digests = json.load(fh)
    assert len(digests) == 8
    for command, want in digests.items():
        assert run(command.split()) == 0, command
        got = hashlib.sha256(capout().out.encode()).hexdigest()
        assert got == want, command


def test_invalid_inputs_exit_2(capout):
    for argv in (["table", "--case", "SO:2,4"],
                 ["table", "--case", "E6:6", "--all"],
                 ["verify", "--model", "f4"],
                 ["bogus"],
                 ["gram", "--model", "osc1", "--levels", "-1"],
                 ["matcoef", "--case", "SO:4,4", "--t", "1000"],
                 ["matcoef", "--case", "SO:4,4", "--t", "0.25", "--terms", "-3"],
                 ["kernel", "--case", "E6:6", "--terms", "-1"],
                 ["norms", "--case", "SO:4,4", "--n", "-2"],
                 ["cases", "--pmax", "-3"]):
        assert run(argv) == 2, argv
        assert "Traceback" not in capout().err


def test_non_canonical_case_ids_exit_2(capout):
    # int() takes the number in each of these, but an id is echoed in every
    # row, so only the spelling sweep_case_ids produces resolves
    for cid in ("SL:1_0", "SL: 3", "SL:+4", "SO:4, 4", "SL:03", "SL:\u0663"):
        assert run(["table", "--case", cid]) == 2, cid
        captured = capout()
        assert captured.out == ""
        assert captured.err == f"error: malformed case id {cid!r}\n"


def test_oscillator_name_is_osc_and_ascii_digits(capout):
    # int() reads osc01 as osc1, but the name is echoed in the output, so
    # only N without leading zeros resolves
    for name in ("oscillator", "oscx", "osc-1", "osc1x", "osc\u00b2", "osc01", "osc00001",
                 "osc00"):
        for command in ("verify", "gram"):
            assert run([command, "--model", name, "--levels", "2"]) == 2, name
            captured = capout()
            assert captured.out == ""
            assert captured.err == f"error: unknown model {name!r} (use so44, g2, oscN)\n"
    assert run(["verify", "--model", "osc0"]) == 2
    assert capout().err == "error: oscillator needs n >= 1\n"
    assert run(["gram", "--model", "osc", "--levels", "1"]) == 0
    assert capout().out.startswith("osc: well_defined=true")
    assert run(["gram", "--model", "osc10", "--levels", "1"]) == 0
    assert capout().out.startswith("osc10: well_defined=true")


def _cli_env():
    import orbitq
    return dict(os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(orbitq.__file__)))


def test_module_entry_points():
    # `python -m orbitq` is the one module entry point: run as a module,
    # `orbitq.cli` only defines the command
    env = _cli_env()
    argv = ["kernel", "--case", "E6:6", "--terms", "1", "--format", "csv"]
    for module, out in (("orbitq", "n,p_n\n0,1/1\n1,7/6\n"), ("orbitq.cli", "")):
        proc = subprocess.run([sys.executable, "-m", module] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), module


def _fresh_modules(statement, *args):
    """The orbitq modules, and `dataclasses`, `fractions`, `decimal` and
    `numbers` if loaded, that a fresh interpreter holds after `statement`,
    which sees `args` as sys.argv[1:]."""
    code = (f"import sys; {statement}; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in"
            " ('orbitq', 'dataclasses', 'fractions', 'decimal', 'numbers')), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


_SPECTRAL = ["orbitq.bundles", "orbitq.catalog", "orbitq.hyperg", "orbitq.jordan",
             "orbitq.ladder"]
_MODEL_STACK = ["orbitq.models", "orbitq.opcalc", "orbitq.sparse"]


def test_import_graph():
    # the package and the CLI load no layer until a subcommand runs, and
    # no `fractions`: only a layer, or matcoef, builds a Fraction
    assert _fresh_modules("import orbitq") == ["orbitq"]
    assert _fresh_modules("import orbitq.cli") == ["orbitq", "orbitq.cli"]
    # the model stack alone, which keeps the model workloads' set-up cost;
    # `fractions` brings `decimal` and `numbers` where this Python's does
    exact = _fresh_modules("import fractions")
    assert "fractions" in exact
    assert _fresh_modules("import orbitq.models") == sorted(["orbitq"] + _MODEL_STACK + exact)


def test_readme_commands_load_only_their_layer():
    # each README example in a fresh interpreter: `cases` needs only the
    # registry, and no `fractions`, verify and gram only the model stack,
    # the rest the spectral stack; none loads `dataclasses`
    exact = _fresh_modules("import fractions")
    layers = {"cases": ["orbitq.jordan"], "verify": _MODEL_STACK + exact,
              "gram": _MODEL_STACK + exact}
    with open(os.path.join(ROOT, "perfbench", "cli_digests.json")) as fh:
        commands = list(json.load(fh))
    assert len(commands) == 8
    for command in commands:
        argv = command.split()
        modules = _fresh_modules("from orbitq.cli import run; assert run(sys.argv[1:]) == 0",
                                 *argv)
        assert modules == sorted(["orbitq", "orbitq.cli"]
                                 + layers.get(argv[0], _SPECTRAL + exact)), command


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect: about 13 ms of every launch
    import orbitq
    src = os.path.dirname(orbitq.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names}
            imported |= {node.module for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module}
            assert "dataclasses" not in imported, name


def test_model_subcommands_in_a_fresh_interpreter(capout):
    # in-process runs see `models` already imported by this file, so only a
    # fresh interpreter shows that verify and gram import it themselves
    for argv in (["verify", "--model", "g2", "--levels", "2"],
                 ["gram", "--model", "g2", "--levels", "2"]):
        proc = subprocess.run([sys.executable, "-m", "orbitq"] + argv, env=_cli_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert run(argv) == 0
        assert proc.stdout == capout().out


def test_closed_pipe_no_traceback():
    # ~300 kB of csv, more than a pipe buffer holds, so the writer meets
    # the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "orbitq", "cases", "--pmax", "120",
                             "--nmax", "120", "--format", "csv"], env=_cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"id,blocks,m,G\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err


# option -> values drawn for it (None: the value is left out); small counts
# keep each run cheap, the rest are malformed on purpose
_COUNTS = ("0", "1", "2", "-1", "x", None)
_VALUES = {
    "--pmax": ("0", "3", "-3", "x", None), "--nmax": ("0", "3", "-3", "x", None),
    "--format": ("json", "csv", "text", "xml", None),
    "--case": ("E6:6", "SO:4,4", "SL:3", "G2:2", "SO:4,5", "SO:2,4", "bogus", "", None),
    "--all": (None,),
    "--model": ("osc1", "osc2", "g2", "osc0", "osc-1", "oscx", "f4", "", None),
    "--levels": _COUNTS, "--n": _COUNTS, "--terms": _COUNTS,
    "--twist": ("L0", "f0L0", "zz", None),
    "--t": ("0", "0.25", "-0.5", "5", "1e400", "nan", "-inf", "x", None),
}
_OPTIONS = {
    "cases": ("--pmax", "--nmax", "--format"),
    "table": ("--case", "--all", "--pmax", "--nmax", "--format"),
    "verify": ("--model", "--levels", "--format"),
    "norms": ("--case", "--twist", "--n", "--format"),
    "kernel": ("--case", "--twist", "--terms", "--format"),
    "matcoef": ("--case", "--twist", "--t", "--terms", "--format"),
    "gram": ("--model", "--levels", "--format"),
}


def test_help_names_every_subcommand_and_option(capout):
    assert run(["--help"]) == 0
    commands = re.search(r"\{([a-z,]+)\}", capout().out).group(1)
    assert set(commands.split(",")) == set(_OPTIONS)
    for command, options in _OPTIONS.items():
        assert run([command, "--help"]) == 0, command
        assert set(re.findall(r"--[a-z]+", capout().out)) == {"--help", *options}, command


def test_exit_codes_over_generated_argv():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def argvs(draw):
        cmd = draw(st.sampled_from(sorted(_OPTIONS) + ["bogus"]))
        argv = [cmd]
        for opt in draw(st.lists(st.sampled_from(_OPTIONS.get(cmd, ("--format",))),
                                 max_size=4)):
            value = draw(st.sampled_from(_VALUES[opt]))
            argv += [opt] if value is None else [opt, value]
        return argv

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None,
                         database=None)
    @hypothesis.given(argvs())
    def exits_0_1_or_2(argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv

    exits_0_1_or_2()
