"""cachebc benchmark: Monte Carlo delivery and rate optimisation.

Usage:
    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each run sets up and makes an untimed warm-up call: call 0 under the
default seed for the Monte Carlo workloads, checked against the digest
recorded for it, and a random K=3 point for opt-points.  It then makes the
workload's user-facing call on its fixed number of inputs made from --seed,
in passes that repeat the same calls for --seconds, and at least three
times.  Every output is checked, and must be the same in every pass.
The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run makes each
call twice, untraced and traced, and writes its spans to .bench_out/.  The
exit code is 0 when every check passed, 1 when one failed, and 2 when the
run could not start.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracing import SpanStats, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
MIN_PASSES = 3
PLAN_REPS = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, better; values are per op (trial-run or point) of the traced calls
PER_LAYER = (
    ("codec.solve_gf2.self_s", "s/op", "lower"),
    ("codec.solve_gf2.calls", "count/op", "lower"),
    ("codec.solve_gf2.unknowns", "count/op", "lower"),
    ("codec.solve_gf2.words_computed", "words/op", "lower"),
    ("codec.decode_arrays.self_s", "s/op", "lower"),
    ("codec.decode_arrays.calls", "count/op", "lower"),
    ("codec.decode_arrays.ok_ratio", "ratio", "higher"),
    ("codec.decode_arrays.solve_ratio", "ratio", "lower"),
    ("codec.coefficient_rows.self_s", "s/op", "lower"),
    ("codec.coefficient_rows.rows", "count/op", "lower"),
    ("codec.encode_payloads.self_s", "s/op", "lower"),
    ("codec.encode_payloads.packets", "count/op", "lower"),
    ("schedule.build_schedule.self_s", "s/op", "lower"),
    ("schedule.build_schedule.calls", "count/op", "lower"),
    ("schedule.build_schedule.items", "count/op", "lower"),
    ("schedule.maximum_flow.s", "s/op", "lower"),
    ("schedule.maximum_flow.calls", "count/op", "lower"),
    ("simulate.plan_scheme.s", "s", "lower"),
    ("simulate.estimate_pe.self_s", "s/op", "lower"),
    ("regions.linprog.s", "s/op", "lower"),
    ("regions.linprog.calls", "count/op", "lower"),
    ("regions.phase_lp_max_rate.calls", "count/op", "lower"),
    ("regions.unequal_cache_max_rate.self_s", "s/op", "lower"),
    ("regions.best_phase_lp_rate.self_s", "s/op", "lower"),
    ("regions.general_max_symmetric_rate.self_s", "s/op", "lower"),
    ("channel.transmit.self_s", "s/op", "lower"),
    ("channel.transmit.uses", "count/op", "lower"),
    ("placement.draw_library.self_s", "s/op", "lower"),
    ("placement.draw_library.bits", "bits/op", "lower"),
    ("placement.build_caches.self_s", "s/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
COVERAGE_TOLERANCE = 0.05


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": blas_threads(),
        "cachebc_threads_env": os.environ.get("CACHEBC_THREADS"),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probe_setup(name: str) -> float:
    """Seconds a fresh process spends on import, config and plan_scheme."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """One workload run: the calls made, their outputs and failures."""

    def __init__(self, w, cfg, plan):
        self.w, self.cfg, self.plan = w, cfg, plan
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, arg, label, tracer=None, op=None):
        """Make one call; returns (wall seconds, ops, output), or None when
        it raised or its output failed the check."""
        import workloads

        self.attempted += 1
        try:
            with tracer.patched(workloads.TRACE_POINTS) if tracer else nullcontext():
                if tracer:
                    tracer.op = op
                t = time.perf_counter()
                ops, out = workloads.execute(self.w, self.cfg, self.plan, arg)
                wall = time.perf_counter() - t
        except Exception:
            self.errors.append(f"{label} raised:\n{traceback.format_exc()}")
            return None
        errs = workloads.check_call(self.w, self.cfg, out)
        if errs:
            self.errors.append(f"{label}: {'; '.join(errs)}")
            return None
        return wall, ops, out

    @property
    def failed(self) -> int:
        return len(self.errors)


def layer_metrics(tracer, ops: int, traced_wall: float, overhead: float) -> dict:
    stats = tracer.stats(keep=lambda op: op != "setup")
    plans = tracer.durations("simulate.plan_scheme", keep=lambda op: op == "setup")

    def get(name):
        return stats.get(name, SpanStats())

    def per_op(x):
        return x / ops

    solve, dec = get("codec.solve_gf2"), get("codec.decode_arrays")
    rows, enc = get("codec.coefficient_rows"), get("codec.encode_payloads")
    sched, flow = get("schedule.build_schedule"), get("schedule.maximum_flow")
    lp, tx, lib = get("regions.linprog"), get("channel.transmit"), get("placement.draw_library")
    caches = sum(
        get(n).self_s
        for n in ("placement.build_caches", "placement.build_prefix_caches",
                  "placement.sub_message_layout")
    )
    covered = sum(s.self_s for s in stats.values())
    return {
        "codec.solve_gf2.self_s": per_op(solve.self_s),
        "codec.solve_gf2.calls": per_op(solve.calls),
        "codec.solve_gf2.unknowns": per_op(solve.counts.get("unknowns", 0)),
        "codec.solve_gf2.words_computed": per_op(solve.counts.get("words_computed", 0)),
        "codec.decode_arrays.self_s": per_op(dec.self_s),
        "codec.decode_arrays.calls": per_op(dec.calls),
        "codec.decode_arrays.ok_ratio": dec.counts.get("ok", 0) / dec.calls if dec.calls else 0.0,
        "codec.decode_arrays.solve_ratio": solve.calls / dec.calls if dec.calls else 0.0,
        "codec.coefficient_rows.self_s": per_op(rows.self_s),
        "codec.coefficient_rows.rows": per_op(rows.counts.get("rows", 0)),
        "codec.encode_payloads.self_s": per_op(enc.self_s),
        "codec.encode_payloads.packets": per_op(enc.counts.get("packets", 0)),
        "schedule.build_schedule.self_s": per_op(sched.self_s),
        "schedule.build_schedule.calls": per_op(sched.calls),
        "schedule.build_schedule.items": per_op(sched.counts.get("items", 0)),
        "schedule.maximum_flow.s": per_op(flow.total_s),
        "schedule.maximum_flow.calls": per_op(flow.calls),
        "simulate.plan_scheme.s": statistics.median(plans) if plans else 0.0,
        "simulate.estimate_pe.self_s": per_op(get("simulate.estimate_pe").self_s),
        "regions.linprog.s": per_op(lp.total_s),
        "regions.linprog.calls": per_op(lp.calls),
        "regions.phase_lp_max_rate.calls": per_op(get("regions.phase_lp_max_rate").calls),
        "regions.unequal_cache_max_rate.self_s":
            per_op(get("regions.unequal_cache_max_rate").self_s),
        "regions.best_phase_lp_rate.self_s": per_op(get("regions.best_phase_lp_rate").self_s),
        "regions.general_max_symmetric_rate.self_s":
            per_op(get("regions.general_max_symmetric_rate").self_s),
        "channel.transmit.self_s": per_op(tx.self_s),
        "channel.transmit.uses": per_op(tx.counts.get("uses", 0)),
        "placement.draw_library.self_s": per_op(lib.self_s),
        "placement.draw_library.bits": per_op(lib.counts.get("bits", 0)),
        "placement.build_caches.self_s": per_op(caches),
        "trace.overhead_frac": overhead,
        "trace.coverage": covered / traced_wall,
    }


def run_workload(w, seed: int, seconds: float, trace: bool, setup_reps: int = SETUP_REPS):
    """Run one workload; returns (result, info) where result holds the
    contract keys and info the run's details."""
    import workloads

    cfg, plan = workloads.setup(w)
    run = Run(w, cfg, plan)
    tracer = Tracer() if trace else None
    if trace and w.kind == "mc":
        with tracer.patched(workloads.TRACE_POINTS):
            tracer.op = "setup"
            for _ in range(PLAN_REPS):
                workloads.setup(w)

    warm = run.call(workloads.warmup_input(w, seed), "warm-up call")
    if warm is not None and w.kind == "mc":
        run.errors += [f"warm-up call: {e}" for e in workloads.check_golden(w, cfg, warm[2])]

    def one(p, i, arg):
        u = run.call(arg, f"pass {p} call {i}")
        t = run.call(arg, f"pass {p} traced call {i}", tracer, op=i) if trace else None
        return u, t

    # Every pass makes the same calls; passes repeat for --seconds, and at
    # least MIN_PASSES times.  On a shared host the machine's speed drifts by
    # tens of percent over seconds, so a call's time is its fastest pass, and
    # the set-up probes run between passes to sample the drift too.
    args = [workloads.call_input(w, seed, i) for i in range(w.calls)]
    setup, passes, pass_s, elapsed = [], [], 0.0, 0.0
    while len(passes) < MIN_PASSES or elapsed + pass_s <= seconds:
        if not trace and len(setup) < setup_reps:
            setup.append(probe_setup(w.name))
        t0 = time.perf_counter()
        passes.append([one(len(passes), i, arg) for i, arg in enumerate(args)])
        pass_s = time.perf_counter() - t0
        elapsed += pass_s
    while not trace and len(setup) < setup_reps:
        setup.append(probe_setup(w.name))

    outputs, ops, best_u, best_t = [], [], [], []
    for i, samples in enumerate(zip(*passes)):
        got = [c for pair in samples for c in pair if c is not None]
        if len(got) != len(samples) * (2 if trace else 1):
            continue  # failed, and counted, in run.call
        if len({workloads.result_digest(w, [c[2]]) for c in got}) > 1:
            run.errors.append(f"call {i}: outputs differ between passes or with tracing")
            continue
        outputs.append(got[0][2])
        ops.append(got[0][1])
        best_u.append(min(u[0] for u, _ in samples))
        if trace:
            best_t.append(min(t[0] for _, t in samples))

    first = [u[2] for u, _ in passes[0] if u is not None]
    if w.kind == "mc" and outputs:
        run.errors += workloads.check_pooled(w, outputs)
    info = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "calls": w.calls,
        "passes": len(passes),
        "ops": sum(ops),
        "result_digest": workloads.result_digest(w, first),
    }
    if w.kind == "mc" and first:
        info["decode_fail_frac"] = workloads.decode_fail_frac(first)
    if warm is not None:
        info["warmup_digest"] = workloads.result_digest(w, [warm[2]])

    metrics = {}
    if outputs and not trace:
        info["call_ms_samples"] = len(best_u)
        info["setup_s_samples"] = setup
        metrics = {
            "ops_per_s": sum(ops) / sum(best_u),
            "call_ms_p50": statistics.median(best_u) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    elif trace:
        traced = [t for row in passes for _, t in row if t is not None]
        if outputs:
            metrics = layer_metrics(
                tracer,
                ops=sum(t[1] for t in traced),
                traced_wall=sum(t[0] for t in traced),
                overhead=sum(best_t) / sum(best_u) - 1.0,
            )
            if abs(metrics["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
                run.errors.append(
                    f"traced self times cover {metrics['trace.coverage']:.4f} of the traced wall"
                )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{w.name}-{seed}.json",
                     {"info": info, "machine": machine_info(), "metrics": metrics})

    names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    correct = not run.errors and set(metrics) == set(names)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names if n in metrics},
    }
    info["errors"] = run.errors
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cachebc" / "__init__.py").is_file():
        print(f"error: no cachebc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads  # imports cachebc, so only once its source is known to be there

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")

    machine = machine_info()
    results = []
    for w in chosen:
        result, info = run_workload(w, args.seed, args.seconds, bool(args.trace))
        for e in info["errors"]:
            print(f"{w.name}: CHECK FAILED: {e}", file=sys.stderr)
        for name, m in result["metrics"].items():
            print(f"{w.name:18s} {name:42s} {m['value']:.6g} {m['unit']}")
        print(json.dumps({"info": info, "machine": machine}))
        results.append((w, result))

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w.name}/{n}": m for w, r in results for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
