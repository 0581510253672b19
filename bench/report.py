"""Print every benchmark metric for every workload from one command.

    python3 bench/report.py --seed 1 --seconds 40

Run it from the root of a checkout.  For each workload it makes one untraced
run (the end-to-end metrics, with failed_frac and the sample count) and two
traced runs (the per-layer metrics), each in a fresh interpreter.  It checks
that the two traced runs give identical call counts, and reports the tracing
overhead: the time of the traced run's operations against the untraced time
of the same operations, both scaled to the reference host speed (see
hostspeed.py).  Exits 1 if any run is incorrect or a call count differs
between the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads
from tracer import metric_names

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    last = json.loads(proc.stdout.strip().split("\n")[-1])
    path = os.path.join(".bench_out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return last, json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    ok = True
    layers = {}
    print(f"{'workload':<16} {'metric':<15} {'value':>12}  unit")
    for workload in workloads.WORKLOADS:
        last, detail = run(workload, args.seed, args.seconds, 0)
        ok &= last["correct"]
        for name, m in last["metrics"].items():
            print(f"{workload:<16} {name:<15} {m['value']:>12.4f}  {m['unit']}")
        print(f"{workload:<16} {'failed_frac':<15} {detail['failed_frac']:>12.4f}  fraction"
              f" ({last['failed']}/{last['attempted']} operations; latency samples"
              f" {last['attempted']}; self-test {detail['self_test']['detected']}"
              f"/{detail['self_test']['fed']} wrong references caught)")
        traced = [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        ok &= all(t[0]["correct"] for t in traced)
        counts = [
            {k: v["value"] for k, v in t[0]["metrics"].items() if not k.endswith("_s")}
            for t in traced
        ]
        repeat = counts[0] == counts[1]
        ok &= repeat
        untraced = detail.get("fixed_ops_scaled_s")
        overhead = (
            f"{traced[0][1]['fixed_ops_scaled_s'] / untraced - 1:+.1%}"
            if untraced else "n/a (the untraced run made fewer operations)"
        )
        print(f"{workload:<16} traced: {traced[0][0]['attempted']} operations, call counts"
              f" {'repeat exactly' if repeat else 'DIFFER'} across two runs,"
              f" tracing overhead {overhead}")
        layers[workload] = metrics = traced[0][0]["metrics"]
        for layer, (_, unchanged) in workloads.LAYERS.items():
            if any(u.split()[0] == workload for u in unchanged):
                calls = sum(m["value"] for k, m in metrics.items()
                            if k.startswith(f"{layer}.") and k.endswith(".calls"))
                print(f"{workload:<16} predicted unchanged by {layer}: {calls} traced calls into it")

    print()
    names = list(workloads.WORKLOADS)
    print(f"{'per-layer metric':<34}" + "".join(f"{n:>17}" for n in names))
    for metric in metric_names():
        print(f"{metric:<34}" + "".join(f"{layers[n][metric]['value']:>17.6g}" for n in names))
    print()
    for workload, why in workloads.WORKLOADS.items():
        print(f"{workload}: {why}")
    for layer, (moves, unchanged) in workloads.LAYERS.items():
        print(f"{layer}:")
        for workload, metric in moves.items():
            print(f"  should move {metric} on {workload}")
        for workload in unchanged:
            print(f"  predicted unchanged on {workload}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
