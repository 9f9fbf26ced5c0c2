"""skeinlab benchmark: one command, seeded workloads, checked outputs.

    python3 perfbench/run.py --workload detect-mix --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

Workloads and metrics are listed, with the reason for each, in
BENCHMARK.json. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run. The line before it records the environment
(interpreter, numpy, sympy, numba, nproc, CPU, git commit), so that runs
from different set-ups are not compared silently.

setup_s is the median over four fresh worker processes: SETUP_PROBES
that only set up and exit, and the one that then runs the timed loop.
Like every time the benchmark reports, it is scaled to a nominal host
speed (see worker.py).
Workers import skeinlab from src/ (PYTHONPATH=src), like the CLI children.
Every process this script starts is waited for; a worker that overruns
its timeout is killed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import cli_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect-mix", "algebra", "qtrace-large", "cli-cold")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    pass


def spawn_worker(workload, seed, seconds, trace, setup_only=False, tiny=False):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=cli_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, tiny=False):
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn_worker(workload, seed, seconds, trace, True, tiny)["setup_s"])
    result = spawn_worker(workload, seed, seconds, trace, tiny=tiny)
    metrics = result["metrics"]
    if not trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    failures = result["failures"]
    for f in failures[:10]:
        print(f"FAILED {workload}: {f['problem']} :: {json.dumps(f['request'])}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": dict(sorted(metrics.items())),
        "info": result["info"],
        "env": result["env"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small pools, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "skeinlab" / "__init__.py").is_file():
        print(f"error: no skeinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
            for name in names
        }
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, r in results.items():
        for metric, m in r["metrics"].items():
            print(f"{name:13s} {metric:32s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
        print(f"{name:13s} attempted={r['attempted']} failed={r['failed']} {r['info']}",
              file=sys.stderr)
    if len(results) == 1:
        (r,) = results.values()
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        for name, r in results.items():
            print(json.dumps({"workload": name, **r}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps({"env": next(iter(results.values()))["env"]}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
