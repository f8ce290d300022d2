"""orbitq benchmark: verdict latency per workload, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload so44-L4 --seed 1 --seconds 8 --trace 0

One invocation is one fresh interpreter running one workload as a closed
loop (one client, the next verdict starts when the previous one ends)
until --seconds have passed, at least one pass.  With --trace 0 it prints
the end-to-end metrics; with --trace 1 it times untraced passes the same
way, then one traced pass, and prints the per-layer metrics together with
the tracing overhead.  Times are in reference seconds: wall time corrected
for the host's measured speed (hostspeed.py).  The last stdout line is the
JSON result; the line before it is the run record (seed, Python, nproc,
commit).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
MAX_LEVEL = 8


def _import_program():
    """Import orbitq from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import orbitq
    if Path(orbitq.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"orbitq resolved to {orbitq.__file__}, not under {SRC}")


def setup_seconds(probe: str, host) -> float:
    """Median over fresh interpreters of the time to import orbitq and build
    the workload's models, in reference seconds."""
    from workloads import child_env
    code = ("import sys, time; t0 = time.perf_counter(); import orbitq; "
            f"{probe}; print(time.perf_counter() - t0)")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(proc.stdout) * host.speed(t0, time.perf_counter()))
    return statistics.median(samples)


def run_loop(workload, rng, checks, host, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(rng, checks, host))
    return passes


def _ref(p, kinds=None) -> float:
    """Reference seconds of one pass, or of its verdicts of the given kinds."""
    return sum((ref for kind, _, ref in p if kinds is None or kind in kinds), 0.0)


def end_to_end(workload, rng, checks, host, seconds: float) -> dict:
    setup_s = setup_seconds(workload.setup_probe(), host)
    passes = run_loop(workload, rng, checks, host, seconds)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "pass_s": (statistics.median(_ref(p) for p in passes), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _memo_entries(model) -> int:
    """Sum of operator memo sizes over every node reachable from the model."""
    roots = [op for _, op in getattr(model, "algebra_ops", ())]
    roots += [entry[1] for entry in getattr(model, "compact_ops", ())]
    for gen in getattr(model, "generators", ()):
        roots += [getattr(gen, "raise_op", None), getattr(gen, "lower", None)]
    roots += list(getattr(model, "sl2", ())) + [getattr(model, "grading_op", None)]
    seen, total = set(), 0
    while roots:
        op = roots.pop()
        if op is None or id(op) in seen:
            continue
        seen.add(id(op))
        total += len(getattr(op, "_cache", ()))
        roots.extend(getattr(op, "ops", ()))
        roots.extend(getattr(op, name, None) for name in ("op", "outer", "inner"))
    return total


def _lower_applications(model, rep) -> int:
    """Lowering-operator applications in solve_gram, derived exactly: the
    recursion applies one lowering operator to the whole level basis per
    factorization, the adjointness check once per generator and level."""
    gens = [next(iter(g.f.terms)) for g in model.generators]
    total = 0
    for n in range(1, len(rep.bases)):
        prev = set(rep.bases[n - 1])
        facts = sum(1 for mono in rep.bases[n] for g in gens
                    if tuple(a - b for a, b in zip(mono, g)) in prev)
        total += (facts + len(gens)) * len(rep.bases[n])
    return total


SPAN_METRICS = (
    "opcalc.span_structure", "opcalc.verify_structure_constants",
    "opcalc.solve_linear_system", "exactalg.poly_mul", "exactalg.diff",
    "models.verify_brackets", "models.check_sl2", "models.gram_recursion",
    "models.level0_gram", "models.positive_definite", "models.adjointness",
    "bundles.classify", "jordan.sweep", "ladder.r_eigenvalue",
    "ladder.ladder_norms", "catalog.golden_rows", "hyperg.kernel", "hyperg.matcoef",
)


def per_layer(workload, rng, checks, host, seconds: float, trace_path: Path) -> dict:
    import workloads as wl

    passes = run_loop(workload, rng, checks, host, seconds)
    untraced = statistics.median(_ref(p) for p in passes)
    cli_keys = {" ".join(c) for c in wl.README_COMMANDS}
    cli_refs = [ref for p in passes for kind, _, ref in p if kind in cli_keys]
    m = {
        "closure_s": (statistics.median(_ref(p, {"closure"}) for p in passes), "s"),
        "gram_s": (statistics.median(_ref(p, {"gram"}) for p in passes), "s"),
        "spectral_s": (statistics.median(_ref(p, {"sweep", "kernel", "matcoef", "eigenvalue"})
                                         for p in passes), "s"),
        "cli_total_s": (statistics.median(_ref(p, cli_keys) for p in passes), "s"),
        "cli_p50_s": (statistics.median(cli_refs) if cli_refs else 0.0, "s"),
        "wall.pass_s": (statistics.median(sum(w for _, w, _ in p) for p in passes), "s"),
        "host.speed": (statistics.median(host.speeds), "ratio"),
    }

    in_process = isinstance(workload, wl.CliWorkload)
    m["cli.run.s"] = m["cli.startup_s"] = (0.0, "s")
    m["cli.stdout_bytes"] = (0, "count")
    if in_process:
        # the traced CLI pass runs in-process, so compare it with an
        # untraced in-process pass; the gap to a launch is start-up
        reference = workload.run_pass(rng, checks, host, in_process=True)
        untraced = _ref(reference)
        launch = {k: statistics.median(ref for p in passes for kk, _, ref in p if kk == k)
                  for k in cli_keys}
        m["cli.run.s"] = (untraced, "s")
        m["cli.startup_s"] = (statistics.median(launch[k] - ref for k, _, ref in reference), "s")
        m["cli.stdout_bytes"] = (workload.stdout_bytes, "count")

    tracer = Tracer()
    with tracer.patched():
        t0 = time.perf_counter()
        traced = _ref(workload.run_pass(rng, checks, host, in_process=in_process))
        speed = host.speed(t0, time.perf_counter())
    m["trace.pass_s"] = (traced, "s")
    m["trace.untraced_pass_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.overhead_ratio"] = ((traced - untraced) / untraced if untraced else 0.0, "ratio")

    self_s = tracer.self_times()
    for name in SPAN_METRICS:
        m[f"{name}.s"] = (self_s.get(name, 0.0) * speed, "s")
    m["cli.self.s"] = (self_s.get("cli.run", 0.0) * speed, "s")
    m["exactalg.poly_mul.calls"] = (tracer.calls("exactalg.poly_mul"), "count")
    m["exactalg.diff.calls"] = (tracer.calls("exactalg.diff"), "count")
    m["bundles.classify.calls"] = (tracer.calls("bundles.classify"), "count")

    kept = tracer.kept
    built = [res for _, res in kept.get("models.build_model", ())]
    memo = sum(_memo_entries(model) for model in built)
    calls = tracer.counts.get("opcalc.apply.calls", 0)
    lookups = tracer.counts.get("opcalc.apply.lookups", 0)
    m["opcalc.apply.calls"] = (calls, "count")
    m["opcalc.memo_entries"] = (memo, "count")
    m["opcalc.memo_miss"] = (memo, "count")
    m["opcalc.memo_hit_ratio"] = ((lookups - memo) / lookups if lookups else 0.0, "ratio")
    m["opcalc.span_rank"] = (sum(res.rank for _, res in kept.get("models.verify_brackets", ())), "count")
    m["opcalc.pairs"] = (sum(len(args[0]) * (len(args[0]) - 1) // 2
                             for args, _ in kept.get("opcalc.span_structure", ())), "count")

    grams = kept.get("models.gram_recursion", ())
    m["models.lower_apply.calls"] = (sum(_lower_applications(args[0], rep) for args, rep in grams), "count")
    m["models.gram_nnz"] = (sum(len(g) for _, rep in grams for g in rep.grams), "count")
    for n in range(MAX_LEVEL + 1):
        m[f"models.basis_size.L{n}"] = (sum(len(rep.bases[n]) for _, rep in grams
                                            if n < len(rep.bases)), "count")
    m["hyperg.max_den_bits"] = (max((p.denominator.bit_length()
                                     for _, ps in kept.get("hyperg.kernel", ()) for p in ps),
                                    default=0), "count")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracer.export()))
    return m


def _commit() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20261017)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import orbitq from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    checks = wl.Checks()
    host = HostSpeed()
    host.start()
    try:
        if args.trace:
            trace_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
            metrics = per_layer(workload, rng, checks, host, args.seconds, trace_path)
        else:
            metrics = end_to_end(workload, rng, checks, host, args.seconds)
    finally:
        host.stop()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "commit": _commit(), "src_sha256": _src_digest(),
              "misses": checks.misses}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
