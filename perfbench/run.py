#!/usr/bin/env python3
"""Run one benchmark workload against the package in ../src and report.

    python3 perfbench/run.py --workload cv-grid --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  A run first makes its inputs from the seed,
then runs the workload's operations once as a warm-up whose outputs are
checked in full, then repeats them in passes until --seconds have gone by
(at least MIN_PASSES passes).  Every timed output must reproduce the
warm-up's digest.  With --trace 0 the last line of stdout holds the
end-to-end metrics; with --trace 1 it holds per-layer metrics from passes
run under the tracer, alternated with untraced passes so that the tracing
overhead and the fingerprint match can be reported.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

# Fixed so that parent and change run with the same BLAS threads; never more
# than the cores this process may use.  CV runs with workers=1.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
MIN_PASSES = 3
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Put ../src first on the path and import from there, nowhere else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import marginsparse
    if Path(marginsparse.__file__).resolve().parent != SRC / "marginsparse":
        raise ImportError(f"marginsparse imported from {marginsparse.__file__}, not {SRC}")
    import workloads
    return workloads


def build_inputs(workloads, name, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir)


# -- set-up time ----------------------------------------------------------

def probe_setup(args):
    """Child side of a set-up sample: import, build the inputs, say ready."""
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        build_inputs(import_package(), args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_samples(args) -> list:
    """Seconds from starting a fresh interpreter to inputs ready, per sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


# -- environment record ---------------------------------------------------

def git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "marginsparse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "cv_workers": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- passes ----------------------------------------------------------------

def run_pass(ops, tracer=None, first_op=0):
    """Run every operation once, in order; return (seconds, output, error)."""
    results = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + k
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception:  # a failed operation is counted, not fatal
            out, err = None, traceback.format_exc()
        results.append((time.perf_counter() - t0, out, err))
    return results


def fingerprint(digests) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def measure(args, ops):
    """Warm-up with full checks, then timed passes; returns a summary dict."""
    from spans import Tracer

    deadline = time.perf_counter() + args.seconds
    warm = run_pass(ops)
    bad, reference = [], []
    for op, (_, out, err) in zip(ops, warm):
        digest, problems = None, [err] if err else []
        if err is None:
            try:
                problems = op.check(out)
                digest = op.digest(out)
            except Exception:  # a check that crashes is a failed check
                problems = [traceback.format_exc()]
        if problems:
            print(f"check failed: {op.name}: {'; '.join(problems)}", file=sys.stderr)
        reference.append(digest)
        bad.append(bool(problems))

    tracer = Tracer() if args.trace else None
    attempted, failed = len(ops), sum(bad)
    plain, traced, layer_runs = [], [], []
    traced_digests = None

    def timed_pass(under_tracer):
        nonlocal attempted, failed
        if under_tracer:
            tracer.start_pass()
            tracer.install()
        try:
            results = run_pass(ops, tracer if under_tracer else None, attempted)
        finally:
            if under_tracer:
                tracer.uninstall()
        digests = []
        for i, (op, (_, out, err)) in enumerate(zip(ops, results)):
            d = None if err else op.digest(out)
            digests.append(d)
            if err or bad[i] or d != reference[i]:
                failed += 1
                if err or d != reference[i]:
                    print(f"pass output differs: {op.name}: {err or 'digest changed'}",
                          file=sys.stderr)
        attempted += len(ops)
        return [t for t, _, _ in results], digests

    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(timed_pass(False)[0])
        if tracer is not None:
            times, traced_digests = timed_pass(True)
            traced.append(times)
            layer_runs.append(tracer.layer_metrics())
        passes += 1

    summary = {
        "attempted": attempted,
        "failed": failed,
        "fingerprint": fingerprint(reference),
        "passes": passes,
        "plain": plain,
    }
    if tracer is not None:
        summary["traced"] = traced
        summary["fingerprint_traced"] = fingerprint(traced_digests)
        summary["layers"] = {k: statistics.median([run[k] for run in layer_runs]) for k in layer_runs[0]}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return summary


# -- metrics -----------------------------------------------------------------

def with_units(values, section):
    """Attach each metric's unit from BENCHMARK.json; the names must match."""
    spec = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[section]}
    if set(values) != set(spec):
        raise KeyError(f"metrics differ from BENCHMARK.json {section}: "
                       f"{sorted(set(values) ^ set(spec))}")
    return {k: {"value": float(v), "unit": spec[k]} for k, v in values.items()}


def end_to_end(summary, setup):
    plain = summary["plain"]
    # Each operation's median latency across passes; spikes from other work
    # on the machine fall outside the median.
    op_medians = [statistics.median(list(ts)) for ts in zip(*plain)]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(op_medians),
        "op_p50_s": statistics.median_high(op_medians),
        "op_max_s": max(op_medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (summary["attempted"] - summary["failed"]) / summary["attempted"],
    }
    return with_units(values, "end_to_end")


def per_layer(summary):
    layers = dict(summary["layers"])
    plain_wall = statistics.median([sum(p) for p in summary["plain"]])
    traced_wall = statistics.median([sum(p) for p in summary["traced"]])
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - plain_wall
    return with_units(layers, "per_layer")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "marginsparse" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    pin_threads()
    if args.probe_setup:
        return probe_setup(args)

    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    setup = [] if args.trace else setup_samples(args)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops = build_inputs(workloads, args.workload, args.seed, workdir)
        summary = measure(args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = summary["plain"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "fingerprint": summary["fingerprint"],
        "passes": summary["passes"],
        "op_samples": sum(len(p) for p in plain),
        "ops": {op.name: statistics.median([p[i] for p in plain]) for i, op in enumerate(ops)},
        "setup_samples_s": setup,
    }
    correct = summary["failed"] == 0
    if args.trace:
        info["fingerprint_traced"] = summary["fingerprint_traced"]
        correct = correct and summary["fingerprint_traced"] == summary["fingerprint"]
        metrics = per_layer(summary)
    else:
        metrics = end_to_end(summary, setup)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
