"""Run one dyck2d benchmark workload and print its metrics.

    python3 bench/run.py --workload blocks-classify --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
Inputs are generated from --seed and written as picture text under
.bench_out/ before any timing starts.  Every operation is one CLI verb,
driven in process through dyck2d.cli.main(argv) with its output captured and
checked against references pinned in workloads.py.  One process makes the
load, one operation at a time (a closed loop with a single client).

--trace 0 measures the end-to-end metrics for --seconds seconds (census-6x6:
one cold census, see workloads.ONE_OP_PER_RUN), with times scaled to a
reference host speed (see hostspeed.py; raw times are printed beside them and
kept in .bench_out/result-*.json).
--trace 1 wraps the package's public functions (see tracer.py) and runs a
fixed number of operations, so that call counts repeat exactly; it reports
the per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from hostspeed import CAL_REF_S, HostSpeed, current_scale
from tracer import Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="MANIFEST", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def setup(manifest: str):
    """What a fresh interpreter does before its first operation."""
    from dyck2d import cli

    ops, texts = workloads.load(manifest)
    return cli, ops, texts


def measure_setup(manifest: str) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from starting a fresh interpreter to the end of its set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        scale = current_scale()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe", manifest],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            raw = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append((raw, raw * scale))
    return times


def call_cli(cli, argv, tracer, host):
    """Run one verb; return (exit code or None, stdout, error text, start, end, raw seconds).

    Raw seconds leave out the time host-speed samples took during the verb.
    """
    out, err = io.StringIO(), io.StringIO()
    span = tracer.op(f"op.{argv[0]}") if tracer else contextlib.nullcontext()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        busy = host.busy
        start = time.perf_counter()
        try:
            rc = cli.main(argv)  # looked up per call, so a traced run sees the wrapper
        except (Exception, SystemExit) as exc:  # a raised verb is a failed operation
            error = f"raised {exc!r}"
        end = time.perf_counter()
        raw = end - start - (host.busy - busy)
    if error is None and err.getvalue():
        error = f"stderr: {err.getvalue().strip()[:200]}"
    return rc, out.getvalue(), error, start, end, raw


def run_ops(cli, ops, texts, seconds, max_ops, fixed_ops, tracer, host):
    """Closed loop over the op list: until max_ops, or until --seconds is spent.

    With a time budget, an op is not started if the longest op so far would
    end past the budget; at least one op always runs.  Returns records of
    (op, raw seconds, scaled seconds, error), the first good output of each
    kind of op, and the peak RSS in MB once fixed_ops ops are done (or at the
    end, if fewer).
    """
    records = []
    rss_mb = None
    first_output = {}
    start = time.perf_counter()
    longest = 0.0
    i = 0
    while True:
        op = ops[i % len(ops)]
        rc, out, error, t0, t1, raw = call_cli(cli, op["argv"], tracer, host)
        scaled = raw * host.scale(t0, t1)
        ref = workloads.reference(op)
        if error is None:
            error = workloads.check(op, ref, rc, out, texts)
        if error is None and op["kind"] not in first_output:
            first_output[op["kind"]] = (op, ref, rc, out)
        records.append((op, raw, scaled, error))
        i += 1
        if i == fixed_ops:
            rss_mb = peak_rss_mb()
        longest = max(longest, t1 - t0)
        if max_ops is not None:
            if i >= max_ops:
                break
        elif time.perf_counter() - start + longest > seconds:
            break
    return records, first_output, rss_mb or peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def self_test(first_output, texts):
    """Re-check real outputs against deliberately wrong references.

    Every wrong reference must be reported as a failure, else the checks are
    vacuous.  Returns (wrong references fed, failures reported).
    """
    fed = detected = 0
    for op, ref, rc, out in first_output.values():
        for wrong in workloads.corruptions(op, ref):
            fed += 1
            detected += workloads.check(op, wrong, rc, out, texts) is not None
    return fed, detected


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(records, setup_times, rss_mb, which):
    """The end-to-end metrics from raw (which=1) or scaled (which=2) times."""
    times = [r[which] for r in records]
    units_done = sum(op["units"] for op, _, _, error in records if error is None)
    return {
        "ops_per_s": units_done / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_p90_ms": percentile(times, 90) * 1000,
        "setup_s": statistics.median(t[which - 1] for t in setup_times),
        "peak_rss_mb": rss_mb,
    }


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "load": "one process, one client, closed loop, no extra threads",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dyck2d", "__init__.py")):
        print(f"error: no dyck2d package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe is not None:
        setup(args.probe)
        print("ready", flush=True)
        return 0

    info = provenance(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"inputs-{tag}-{os.getpid()}")
    tracer = None
    host = HostSpeed()
    try:
        manifest = workloads.generate(args.workload, args.seed, workdir)
        setup_times = [] if args.trace else measure_setup(manifest)
        cli, ops, texts = setup(manifest)
        if args.trace:
            # Span times leave out the host-speed samples taken inside them.
            tracer = Tracer(clock=lambda: time.perf_counter() - host.busy)
            tracer.install()
        try:
            with host:
                fixed_ops = workloads.FIXED_OPS[args.workload]
                one_op = args.workload in workloads.ONE_OP_PER_RUN
                max_ops = fixed_ops if args.trace else (1 if one_op else None)
                records, first_output, rss_mb = run_ops(
                    cli, ops, texts, args.seconds, max_ops, fixed_ops, tracer, host
                )
        finally:
            if tracer:
                tracer.restore()
        fed, detected = self_test(first_output, texts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(op, error) for op, _, _, error in records if error is not None]
    attempted, failed = len(records), len(failures)
    correct = failed == 0 and fed > 0 and detected == fed
    result = {"provenance": info, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "self_test": {"fed": fed, "detected": detected}}

    print(f"# workload {args.workload}: {workloads.WORKLOADS[args.workload]}")
    for line in workloads.predictions(args.workload):
        print(f"#   {line}")
    print(f"# provenance {json.dumps(info)}")
    raw = {}
    if attempted >= fixed_ops:
        result["fixed_ops_scaled_s"] = sum(r[2] for r in records[:fixed_ops])
    if args.trace:
        metrics = tracer.metrics()
        units = {name: _layer_unit(name) for name in metrics}
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz"))
    else:
        metrics = end_to_end(records, setup_times, rss_mb, 2)
        raw = end_to_end(records, setup_times, rss_mb, 1)
        units = END_TO_END_UNITS
        result["raw_metrics"] = raw
        result["setup_probes_s"] = setup_times
        result["host_loop_s"] = statistics.median(host.loops)
        print(f"# latency samples {attempted}; set-up probes {len(setup_times)};"
              f" host calibration loop median {result['host_loop_s'] * 1e3:.3f} ms"
              f" (reference {CAL_REF_S * 1e3:.3f} ms)")
    result["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for name, value in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if raw.get(name, value) != value else ""
        print(f"# {name} = {value:.6g} {units[name]}{extra}")
    if "census" in first_output:
        print(f"# census counts {json.loads(first_output['census'][3])['counts']}")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"# self-test: checked against deliberately wrong references,"
          f" failed_frac = {detected / fed if fed else 0:.6g} ({detected}/{fed})")
    for op, error in failures[:5]:
        print(f"# FAILED {op.get('label', '')} {' '.join(op['argv'])}: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
