"""The four workloads and the oracles that check their verdicts.

A pass runs every verdict of a workload once, one after another (a closed
loop with one client), and returns (verdict, wall seconds, reference
seconds) per verdict.  Only the calls into orbitq are timed; set-up (fresh
models) and the oracle comparisons run outside the timed regions.  Each
oracle is computed without the code path it checks: closed forms, the
golden registry, exact identities, or digests of the CLI output recorded at
the commit that defined this benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from math import factorial
from pathlib import Path

from orbitq import bundles, catalog, cli, hyperg, jordan, ladder, models

from hostspeed import Timer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Captured before any tracing patches, so oracle calls stay untraced.
_golden_rows = catalog.golden_rows

# spectral-sweep size: pmax = nmax, kernel/norm/series terms, ladder points
SWEEP_MAX = 40
TERMS = 60
LADDER_POINTS = 1000
TAIL_EXTRA = 10

README_COMMANDS = (
    ("cases", "--pmax", "12", "--nmax", "12"),
    ("table", "--all", "--format", "csv"),
    ("table", "--case", "E6:6", "--format", "json"),
    ("verify", "--model", "so44", "--levels", "3"),
    ("norms", "--case", "SO:4,4", "--n", "8"),
    ("kernel", "--case", "G2:2", "--terms", "10"),
    ("matcoef", "--case", "E6:6", "--t", "0.25", "--terms", "20", "--format", "json"),
    ("gram", "--model", "g2", "--levels", "4"),
)
CLI_LAUNCH = "import sys; from orbitq.cli import run; sys.exit(run(sys.argv[1:]))"
CLI_TIMEOUT_S = 60


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


class Checks:
    """Oracle comparisons attempted and failed; the first misses are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)


# ------------------------------------------------------------------ models

def _expected_rank(name: str, n: int) -> int:
    return {"so44": 28, "g2": 14}.get(name, n * (2 * n + 1))


def _expected_hw_norm(name: str, k: int) -> Q:
    if name == "so44":
        return Q(1, k + 1)
    # ladder_norms(G2:2, 1, 4/3, 5/3, k) in closed form
    return Q(factorial(3 * k + 3),
             3 ** (3 * k) * factorial(3) * factorial(k) * factorial(k + 1) ** 2)


def _check_closure(checks: Checks, label: str, name: str, n: int, rep) -> None:
    checks.check(rep.rank == _expected_rank(name, n), f"{label}: rank {rep.rank}")
    checks.check(rep.closed, f"{label}: not closed {rep.failures}")
    checks.check(rep.stable, f"{label}: constants not stable")
    checks.check(rep.sl2_ok, f"{label}: sl2 relation fails")


def _check_gram(checks: Checks, label: str, name: str, rep, norms) -> None:
    checks.check(rep.well_defined and rep.symmetric and rep.positive_definite
                 and rep.adjoint_ok, f"{label}: gram verdict {rep.failures[:3]}")
    if name == "oscillator":
        for lvl, (basis, gram) in enumerate(zip(rep.bases, rep.grams)):
            ok = all(gram.get((i, i)) == _factorial_product(mono)
                     for i, mono in enumerate(basis))
            checks.check(ok, f"{label}: level {lvl} diagonal is not a factorial product")
    else:
        want = [_expected_hw_norm(name, k) for k in range(len(norms))]
        checks.check(norms == want, f"{label}: hw norms {norms}")


def _factorial_product(mono) -> int:
    out = 1
    for a in mono:
        out *= factorial(a)
    return out


class ModelWorkload:
    """Closure and Gram verdicts; each verdict gets a freshly built model,
    so one verdict's operator memo never warms another."""

    def __init__(self, steps):
        self.steps = steps  # (kind, model name, n, level)

    def setup_probe(self) -> str:
        builds = "; ".join(f"build_model({name!r}, {n})" for _, name, n, _ in self.steps)
        return f"from orbitq.models import build_model; {builds}"

    def run_pass(self, rng, checks: Checks, host, in_process: bool = False) -> list:
        order = list(self.steps)
        rng.shuffle(order)
        out = []
        for kind, name, n, level in order:
            label = f"{kind} {name}{n if name == 'oscillator' else ''} L={level}"
            model = models.build_model(name, n)
            clock = Timer(host)
            try:
                if kind == "closure":
                    rep = clock(models.verify_brackets, model, level)
                    _check_closure(checks, label, name, n, rep)
                else:
                    rep, norms = clock(_gram_verdict, model, level)
                    _check_gram(checks, label, name, rep, norms)
            except Exception as exc:  # a crash is a failed verdict, not a crashed run
                checks.check(False, f"{label}: {exc!r}")
            out.append((kind, clock.wall, clock.ref))
        return out


def _gram_verdict(model, level):
    rep = models.solve_gram(model, level)
    norms = ([models.model_hw_norm(model, k, rep) for k in range(level + 1)]
             if rep.positive_definite else [])
    return rep, norms


# ---------------------------------------------------------------- spectral

def _rows_match(computed, golden) -> bool:
    if len(computed) != len(golden):
        return False
    for bm, gr in zip(sorted(computed, key=lambda b: b.twist),
                      sorted(golden, key=lambda g: g.twist)):
        if (bm.twist, bm.r0, bm.valid) != (gr.twist, gr.r0, gr.valid):
            return False
        if gr.valid and sorted([bm.a, bm.b]) != sorted([gr.a, gr.b]):
            return False
    return True


def _kernel_inverts_norms(ps, gammas) -> bool:
    """p_n times the product of the first n rung scalars is 1 for every n."""
    if len(ps) != TERMS + 1 or len(gammas) != TERMS:
        return False
    prod = Q(1)
    for n, p in enumerate(ps):
        if p * prod != 1:
            return False
        if n < TERMS:
            prod *= gammas[n]
    return True


def _series_sums(r0, a, b, y, n_max: int) -> list:
    """Partial sums S_0..S_n_max of sum_n (a)_n (b)_n / ((1+r0)_n n!) (-y)^n."""
    sums, total, num, den = [], Q(0), Q(1), Q(1)
    for n in range(n_max + 1):
        total += num / den * (-y) ** n
        sums.append(total)
        num *= (a + n) * (b + n)
        den *= (1 + r0 + n) * (n + 1)
    return sums


def _matcoef_ok(bm, y, value, bound) -> bool:
    sums = _series_sums(bm.r0, bm.a, bm.b, y, TERMS + TAIL_EXTRA)
    if sums[TERMS] != value:
        return False
    return bound is None or abs(sums[-1] - sums[TERMS]) <= bound


class SpectralWorkload:
    """Bundle sweep against the golden registry, kernel coefficients against
    rung norms, series partial sums and the ladder-eigenvalue identity.
    Touches neither `opcalc` nor `models`."""

    def setup_probe(self) -> str:
        return "import orbitq"

    def run_pass(self, rng, checks: Checks, host, in_process: bool = False) -> list:
        out = []
        clock = Timer(host)
        valid, cases = [], []
        try:
            for cid in clock(jordan.sweep_case_ids, SWEEP_MAX, SWEEP_MAX):
                case = clock(jordan.lookup_case, cid)
                rows = clock(bundles.classify_bundles, case)
                checks.check(_rows_match(rows, _golden_rows(cid)), f"sweep row {cid}")
                cases.append(case)
                valid.extend((case, bm) for bm in rows if bm.valid)
        except Exception as exc:
            checks.check(False, f"sweep: {exc!r}")
        out.append(("sweep", clock.wall, clock.ref))

        clock = Timer(host)
        for case, bm in valid:
            try:
                ps = clock(hyperg.kernel_coefficients, bm.r0, bm.a, bm.b, TERMS)
                gammas, _ = clock(ladder.ladder_norms, case, bm.r0, bm.a, bm.b, TERMS)
                checks.check(_kernel_inverts_norms(ps, gammas), f"kernel {case.id} {bm.twist}")
            except Exception as exc:
                checks.check(False, f"kernel {case.id}: {exc!r}")
        out.append(("kernel", clock.wall, clock.ref))

        clock = Timer(host)
        for case, bm in valid:
            y = Q(rng.randint(-90, 90), 100)
            try:
                value, bound = clock(hyperg.matrix_coefficient, bm.r0, bm.a, bm.b, y, TERMS)
                checks.check(_matcoef_ok(bm, y, value, bound), f"matcoef {case.id} y={y}")
            except Exception as exc:
                checks.check(False, f"matcoef {case.id}: {exc!r}")
        out.append(("matcoef", clock.wall, clock.ref))

        clock = Timer(host)
        done = 0
        while cases and done < LADDER_POINTS:
            case = rng.choice(cases)
            t = tuple(rng.randrange(5) for _ in range(case.q_total))
            pt = ladder.LadderPoint(Q(rng.randrange(-20, 21), 2), t)
            r, _, x = ladder.level_data(case, pt)
            if r in (0, 1, -1):
                continue
            done += 1
            try:
                raw, simplified = clock(ladder.R_eigenvalue, case, ladder.multidegree(case, t), r)
                checks.check(raw == simplified == x, f"R {case.id} at {pt}")
            except Exception as exc:
                checks.check(False, f"R {case.id}: {exc!r}")
        out.append(("eigenvalue", clock.wall, clock.ref))
        return out


# --------------------------------------------------------------------- cli

class CliWorkload:
    """The README `orbit` examples, each a fresh interpreter running
    `orbitq.cli.run`; stdout must match the recorded digest, exit 0."""

    def __init__(self):
        self.digests = json.loads((HERE / "cli_digests.json").read_text())
        self.stdout_bytes = 0

    def setup_probe(self) -> str:
        return "import orbitq.cli"

    def run_pass(self, rng, checks: Checks, host, in_process: bool = False) -> list:
        order = list(README_COMMANDS)
        rng.shuffle(order)
        out = []
        self.stdout_bytes = 0
        for args in order:
            key = " ".join(args)
            clock = Timer(host)
            try:
                code, stdout = clock(_run_in_process if in_process else _run_subprocess, args)
            except Exception as exc:
                checks.check(False, f"orbit {key}: {exc!r}")
                code, stdout = None, b""
            else:
                digest = hashlib.sha256(stdout).hexdigest()
                checks.check(code == 0 and digest == self.digests[key],
                             f"orbit {key}: exit {code}, sha256 {digest[:12]}")
            out.append((key, clock.wall, clock.ref))
            self.stdout_bytes += len(stdout)
        return out


def _run_subprocess(args):
    proc = subprocess.run([sys.executable, "-c", CLI_LAUNCH, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _run_in_process(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(args))
    return code, out.getvalue().encode()


def _osc(n: int, level: int = 8) -> list:
    return [("closure", "oscillator", n, level), ("gram", "oscillator", n, level)]


WORKLOADS = {
    "so44-L4": lambda: ModelWorkload([("closure", "so44", 1, 4), ("gram", "so44", 1, 4)]),
    "small-models": lambda: ModelWorkload([("closure", "g2", 1, 6), ("gram", "g2", 1, 6)]
                                          + _osc(1) + _osc(2) + _osc(3)),
    "spectral-sweep": SpectralWorkload,
    "cli-readme": CliWorkload,
}
