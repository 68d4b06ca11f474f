"""stablebranch benchmark: accuracy-checked wall time per workload.

    python3 perfbench/run.py --workload ode-asymptotics --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30     # every workload, one fresh process each
    python3 perfbench/run.py --smoke          # every op and check once, at reduced size

One run of a workload sets the package up several times in fresh processes
(setup_s), then repeats passes over the workload's ops for as long as the
next pass is expected to fit into --seconds of op time; it makes at least one
pass (two when traced).  norm_wall_s is the median pass time, normalised to a
fixed CPU speed by sampling that speed during every op (see speed.py).  The
first pass checks every op's output by an independent route; later passes
must reproduce the first pass's outputs bit for bit.  --seed sets the order
of the ops in each pass; the op inputs, Monte Carlo seeds included, are fixed
by the workload because the digest and z-score checks are tied to them.
With --trace 1 passes alternate between untraced and traced, and the
per-layer metrics of the traced passes are printed instead of the end-to-end
ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The package is imported from src/ of the checkout this file sits in; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib.util import find_spec

from speed import SpeedProbe, normalised_total

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("ode-asymptotics", "mc-dust", "mc-bulk")
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "worst_err_over_tol": "ratio",
    "ops_ok_share": "ratio",
}
OP_NAMES = (
    "ext-two-t1", "rvfit-two", "rvfit-three", "yaglom-two",
    "cli-scalar-calibrate", "cli-scalar-delay-eq", "cli-scalar-survival", "cli-scalar-yaglom",
    "sim-scalar-t20", "sim-two-smallmass",
    "sim-two-orderone", "fk-two", "ergodic-three", "spine-path-three",
)
PER_LAYER_UNITS = {
    "ivp.busy_s": "s",
    "ivp.steps_accepted": "count",
    "ivp.steps_rejected": "count",
    "ivp.us_per_step": "us",
    "ivp.accept_ratio": "ratio",
    "ivp.fallback_calls": "count",
    "cumulant.cert_s": "s",
    "cumulant.cert_share": "ratio",
    "cumulant.self_s": "s",
    "cumulant.solve_cumulant_calls": "count",
    "simulate.busy_s": "s",
    "simulate.site_steps": "count",
    "simulate.ns_per_site_step": "ns",
    "simulate.survivor_share": "ratio",
    "simulate.live_share": "ratio",
    "spine.busy_s": "s",
    "spine.fk_path_nodes": "count",
    "spine.ns_per_path_node": "ns",
    "limitlaw.busy_s": "s",
    "limitlaw.picard_iterations": "count",
    "analysis.self_s": "s",
    "model.busy_s": "s",
    "model.calibrate_calls": "count",
    "cli.self_s": "s",
    "cli.runs": "count",
    "cli.nonzero_exits": "count",
    "cli.bytes_written": "B",
    "bench.self_s": "s",
    **{f"op.{name}.s": "s" for name in OP_NAMES},
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_s": "s",
}


def import_workloads():
    """Import the benchmark's workloads against the checkout's own package."""
    if not os.path.isfile(os.path.join(SRC, "stablebranch", "__init__.py")):
        print(f"benchmark: no stablebranch package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import stablebranch
    import workloads

    if not os.path.abspath(stablebranch.__file__).startswith(SRC + os.sep):
        print(f"benchmark: stablebranch imported from {stablebranch.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return workloads


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {k: os.environ.get(k) for k in threads},
        "threadpoolctl": find_spec("threadpoolctl") is not None,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def setup_once(workdir):
    """--setup-once: time import, calibration and file writing in this fresh process.

    Prints the wall time and the time normalised to the nominal CPU speed.
    """
    with SpeedProbe() as probe:
        import_workloads().setup(workdir)
    print(probe.wall, probe.normalised())


def fresh_setup_seconds(workdir, samples):
    """(wall, normalised) seconds of each of `samples` fresh-process set-ups."""
    times = []
    for i in range(samples):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-once",
             os.path.join(workdir, f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        wall, normalised = proc.stdout.split()[-2:]
        times.append((float(wall), float(normalised)))
    return times


class Ledger:
    """Op executions, check results and fingerprints of one run."""

    def __init__(self, ops, ctx):
        self.ops = ops
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0  # executions that raised, did not reproduce, or missed an unexpected check
        self.checks = {op.name: [] for op in ops}
        self.broken = set()
        self.prints = {}

    def record(self, op, out, exc, first):
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            self.broken.add(op.name)
            print(f"op {op.name}: raised {type(exc).__name__}: {exc}", flush=True)
            traceback.print_exception(exc, file=sys.stderr)
            return
        fingerprint = op.fingerprint(out)
        if op.name not in self.prints:
            self.prints[op.name] = fingerprint
        elif fingerprint != self.prints[op.name]:
            self.failed += 1
            self.broken.add(op.name)
            print(f"op {op.name}: output differs from the first pass", flush=True)
        if first:
            try:
                checks = op.check(self.ctx, out)
            except Exception as e:  # a check that cannot read the output fails
                from workloads import Check

                checks = [Check("check-raised", False, note=f"{type(e).__name__}: {e}")]
            self.checks[op.name] = checks
            for c in checks:
                print(f"  check {op.name}/{c.name}: {describe(c, op)}", flush=True)
            if any(not c.ok and c.name not in op.known_misses for c in checks):
                self.failed += 1
                self.broken.add(op.name)

    def missed(self):
        """Ops with any failure, known misses included."""
        return [op.name for op in self.ops
                if op.name in self.broken or any(not c.ok for c in self.checks[op.name])]

    def worst_ratio(self):
        return max((c.ratio for cs in self.checks.values() for c in cs if c.ratio is not None),
                   default=0.0)


def describe(c, op):
    text = "pass" if c.ok else "FAIL"
    if c.ratio is not None:
        text += f" err {c.err:.3g} / tol {c.tol:.3g} = {c.ratio:.3g}"
    if c.note:
        text += f" ({c.note})"
    if c.name in op.known_misses:
        state = "known miss at the parent commit" if not c.ok else "known miss now passes"
        text += f" [{state}; {op.known_misses[c.name]}]"
    return text


def run_workload(args):
    wl = import_workloads()
    from tracing import Tracer, layer_metrics

    env = environment()
    size = "smoke" if args.smoke else "run"
    ops = wl.build(size)[args.workload]
    by_name = {op.name: op for op in ops}
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        setups = fresh_setup_seconds(workdir, 2 if args.smoke else SETUP_SAMPLES)
        ctx = wl.setup(os.path.join(workdir, "main"))
        ledger = Ledger(ops, ctx)
        order_rng = random.Random(args.seed)
        untraced, untraced_norm, traced, layer_runs = [], [], [], []
        gaps = []
        measured = 0.0
        n = 0
        while True:
            tracing = args.trace and n % 2 == 1
            tracer = Tracer() if tracing else None
            api = tracer.install(wl.API) if tracing else wl.API
            ctx.capture = n == 0
            order = list(ops)
            order_rng.shuffle(order)
            walls = {}
            probes = []
            cpu0 = time.process_time()
            try:
                for op in order:
                    if tracer:
                        tracer.op = op.name
                    # Untraced ops run under a speed probe; traced ones do not,
                    # so that probe samples do not land in spans.
                    probe = SpeedProbe()
                    with contextlib.nullcontext() if tracing else probe:
                        t0 = time.perf_counter()
                        try:
                            out, exc = op.run(ctx, api), None
                        except Exception as e:  # reported as a failed op
                            out, exc = None, e
                        walls[op.name] = time.perf_counter() - t0
                    probes.append(probe)
                    if n == 0:
                        print(f"op {op.name}: {walls[op.name]:.3f} s", flush=True)
                    ledger.record(op, out, exc, first=n == 0)
            finally:
                if tracer:
                    tracer.uninstall()
            cpu = time.process_time() - cpu0
            wall = sum(walls.values())
            measured += wall
            if tracing:
                traced.append(wall)
            else:
                untraced.append(wall)
                untraced_norm.append(normalised_total(probes))
            if tracing:
                metrics, gap = layer_metrics(tracer.spans, walls, by_name)
                gaps.append(gap)
                metrics.update({f"op.{k}.s": v for k, v in walls.items()})
                metrics.update({"proc.cpu_s": cpu, "proc.cpu_util": cpu / wall})
                layer_runs.append(metrics)
            n += 1
            # Stop unless another pass of the same length still fits.
            if n >= 1 + args.trace and measured + wall > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env), flush=True)
    print(f"workload {args.workload}: size {size}, seed {args.seed}, {n} passes; "
          f"pass walls untraced {[round(w, 3) for w in untraced]} "
          f"traced {[round(w, 3) for w in traced]}; "
          f"untraced normalised {[round(w, 3) for w in untraced_norm]}")
    print(f"setup samples (wall, normalised) {[(round(w, 4), round(norm, 4)) for w, norm in setups]}")
    missed = ledger.missed()
    print(f"ops failed: {len(missed)}/{len(ops)} ({', '.join(missed) or 'none'}); executions "
          f"attempted {ledger.attempted}, failed beyond the known misses {ledger.failed}")

    if args.trace:
        metrics = {}
        for name in PER_LAYER_UNITS:
            values = [m.get(name, 0.0) for m in layer_runs]
            metrics[name] = statistics.median(values)
        # The first pass also warms caches; leave it out when there are others.
        warm = untraced[1:] or untraced
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(warm)
        print(f"trace accounting: per op, layer self times + benchmark time = op wall "
              f"to within {max(gaps):.1e} relative")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "norm_wall_s": statistics.median(untraced_norm),
            "setup_s": statistics.median(norm for _, norm in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "worst_err_over_tol": ledger.worst_ratio(),
            "ops_ok_share": (len(ops) - len(missed)) / len(ops),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own fresh process; print every metric with its unit."""
    traces = (0, 1) if args.smoke else (args.trace,)
    problems = []
    results = {}
    for trace in traces:
        for name in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                problems.append(f"{name} --trace {trace}: exit {proc.returncode}")
                continue
            results[name, trace] = result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"{name} --trace {trace}: outputs not correct")
    print()
    for (name, trace), result in results.items():
        print(f"== {name} (trace {trace}): failed {result['failed']} of "
              f"{result['attempted']} op executions")
        for metric, mv in result["metrics"].items():
            print(f"   {metric:34s} {mv['value']:.6g} {mv['unit']}")
    if args.smoke:
        problems += smoke_assertions(results)
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


def smoke_assertions(results):
    """Every metric of BENCHMARK.json printed with its unit; stored live shares hold."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for (name, trace), result in results.items():
        want = declared["per_layer" if trace else "end_to_end"]
        for m in want:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"{name} --trace {trace}: metric {m['name']} [{m['unit']}] "
                                f"printed as {got}")
        extra = set(result["metrics"]) - {m["name"] for m in want}
        if extra:
            problems.append(f"{name} --trace {trace}: undeclared metrics {sorted(extra)}")
    wl = import_workloads()
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=WORK_ROOT)
    try:
        ctx = wl.setup(workdir)
        for op, (model, mu, T) in wl.LIVE_SHARE_INPUTS.items():
            value = wl.live_share(ctx.models[model], mu, T)
            print(f"live_share {op}: stored {wl.LIVE_SHARES[op]}, computed {value:.5f}")
            if abs(value - wl.LIVE_SHARES[op]) > wl.LIVE_SHARE_TOL:
                problems.append(f"stored live share of {op} is off: {value:.5f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one pass; with no --workload, runs all "
                             "workloads traced and untraced and checks the printed metrics")
    parser.add_argument("--setup-once", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_once:
        setup_once(args.setup_once)
        return 0
    if args.smoke:
        args.seconds = 0.0
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
