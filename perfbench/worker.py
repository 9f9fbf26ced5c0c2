"""One benchmark worker process: set-up, then the timed loop or the traced run.

Started by run.py with PYTHONPATH=src. Prints one JSON line on stdout.
Load is one closed-loop client on one thread: the next request starts
when the previous one has returned.

Timed run (--trace 0): whole passes over the seed's request pool, at
least MIN_PASSES of them, stopping at the pass end nearest to --seconds.
Between requests the worker times reference_loop(), a fixed piece of
pure-Python work. On a shared 2-vCPU host the same code ran up to 1.5x
slower for tens of seconds at a time, and reference_loop() slowed in step
with skeinlab's requests, so each latency is divided by the host slowness
around it: the median reference time in the gaps just before and after
the request and REF_GAPS_AROUND gaps further either way, over REF_MS.
Times are therefore in ms at the host speed at which reference_loop()
takes REF_MS. A request's latency is the median of its scaled passes.
The percentiles are taken over the pool's distinct requests, and
throughput_rps is the pool size divided by the sum of their latencies,
so no request outweighs another by running more often. setup_s is scaled
the same way, by reference times taken right after set-up. Because
requests repeat, a whole-result cache would be timed at its hit cost;
that needs a workload of its own.

Traced run (--trace 1): one untraced pass over the pool, then the same
pass again under the tracer; call counts therefore depend only on the
seed. Whenever a request runs a second time its output must be
byte-identical to the first.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads

OUT_DIR = workloads.ROOT / ".perfbench"
IMPORTTIME_RUNS = 3
MIN_PASSES = 2
# All times are scaled to the host speed at which reference_loop() takes
# REF_MS (see the module docstring).
REF_ROWS = 2500
REF_MS = 2.0
REFS_PER_GAP = 2
REF_GAPS_AROUND = 2
SETUP_REFS = 15


def reference_loop():
    """Fixed pure-Python work that builds and reads small dicts, tuples and
    lists, as skeinlab's own inner loops do."""
    rows = [{"a": i, "b": (i, i + 1), "c": [i] * 3} for i in range(REF_ROWS)]
    acc = 0
    for row in rows:
        acc += row["a"] + row["b"][1] + len(row["c"])
    return acc


def time_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def host_slowness(refs):
    """How much slower than nominal the host ran while `refs` were timed."""
    return statistics.median(refs) * 1e3 / REF_MS


def run_pass(wl, pool, digests, failures, latencies, runner=None, tracer=None, outputs=None,
             refs=None):
    """One pass over `pool`. Checks every output; a request that raises or
    fails a check is recorded in `failures` and the pass goes on. With
    `refs`, the reference loop is timed REFS_PER_GAP times before each
    request and after the last: refs[i] and refs[i + 1] bracket request i."""
    runner = runner or wl.run
    if tracer is not None:
        runner = tracer.wrap(runner, tracing.REQUEST_SPAN)
    for i, req in enumerate(pool):
        if refs is not None:
            refs.append([time_reference() for _ in range(REFS_PER_GAP)])
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        try:
            out = runner(req)
        except Exception as exc:
            failures.append({"request": req, "problem": f"raised {exc!r}"})
            continue
        latencies[i].append(time.perf_counter() - start)
        try:
            problem = wl.check(req, out)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        digest = hashlib.sha256(workloads.canonical_json(out).encode()).hexdigest()
        if digests[i] is None:
            digests[i] = digest
        elif digests[i] != digest:
            problem = problem or "output differs from the first pass"
        if problem:
            failures.append({"request": req, "problem": problem})
        if outputs is not None:
            outputs.append(out)
    if refs is not None:
        refs.append([time_reference() for _ in range(REFS_PER_GAP)])


def outputs_digest(digests):
    """One hash over the sorted-key JSON of every output of the pool."""
    return hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliCold) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def timed_run(wl, seconds):
    pool = wl.pool
    digests = [None] * len(pool)
    failures, scaled_ms = [], [[] for _ in pool]
    slowness = []
    passes = 0
    start = now = time.perf_counter()
    while True:
        pass_start = now
        latencies, refs = [[] for _ in pool], []
        run_pass(wl, pool, digests, failures, latencies, refs=refs)
        for i, times in enumerate(latencies):
            near = refs[max(0, i - REF_GAPS_AROUND) : i + 1 + REF_GAPS_AROUND + 1]
            local = host_slowness([t for gap in near for t in gap])
            scaled_ms[i] += [t * 1e3 / local for t in times]
        slowness.append(host_slowness([t for gap in refs for t in gap]))
        passes += 1
        now = time.perf_counter()
        # stop at the end of the pass nearest to the deadline
        if passes >= MIN_PASSES and now + (now - pass_start) / 2 >= start + seconds:
            break
    wall = now - start
    scaled = [statistics.median(ms) for ms in scaled_ms if ms]
    if not scaled:
        sys.exit(f"every request failed, e.g. {failures[0]['problem']}")
    metrics = {
        "throughput_rps": (len(scaled) / (sum(scaled) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(scaled), "ms"),
        "latency_p90_ms": (percentile(scaled, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    info = {"passes": passes, "wall_s": wall, "distinct": len(scaled),
            "slowness": [round(s, 3) for s in slowness],
            "outputs_sha256": outputs_digest(digests)}
    return passes * len(pool), failures, metrics, info


def import_times():
    """Cumulative import times from `python -X importtime -c "import skeinlab.cli"`,
    median of IMPORTTIME_RUNS fresh interpreters."""
    runs = {"skeinlab.cli": [], "sympy": [], "numpy": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import skeinlab.cli"],
            env=workloads.cli_env(), cwd=workloads.ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in runs:
                seen[parts[2].strip()] = int(parts[1]) / 1e3  # us -> ms
        for name, values in runs.items():
            values.append(seen.get(name, 0.0))
    med = {name: statistics.median(v) for name, v in runs.items()}
    return {
        "cli.import_ms": (med["skeinlab.cli"], "ms"),
        "cli.import_sympy_ms": (med["sympy"], "ms"),
        "cli.import_numpy_ms": (med["numpy"], "ms"),
    }


VERDICTS = {
    "detect.verdict_cap_exceeded": "cap-exceeded",
    "detect.verdict_isotopic": "isotopic-curves",
    "detect.verdict_ambiguous": "fibers-ambiguous",
    "detect.verdict_bound_exceeded": "bound-exceeded",
}


def verdict_metrics(outputs):
    certs = []
    for out in outputs:
        if "certificates" in out:
            certs.extend(out["certificates"])
        elif "verdict" in out:
            certs.append(out)
    certified = sum(c["verdict"] == "certified-nontrivial" for c in certs)
    metrics = {"detect.verdict_certified": (certified, "count")}
    for name, reason in VERDICTS.items():
        metrics[name] = (sum(reason in c["reasons"] for c in certs), "count")
    metrics["detect.certified_share"] = (certified / len(certs) if certs else 0.0, "ratio")
    return metrics


def traced_run(wl, seed):
    pool = wl.pool
    digests = [None] * len(pool)
    failures, latencies, outputs = [], [[] for _ in pool], []
    start = time.perf_counter()
    run_pass(wl, pool, digests, failures, latencies)
    untraced = time.perf_counter() - start

    tracer = tracing.Tracer()
    runner = getattr(wl, "run_traced", None)  # CLI children trace themselves
    with tracer:
        start = time.perf_counter()
        run_pass(wl, pool, digests, failures, latencies, runner=runner, tracer=tracer,
                 outputs=outputs)
        traced = time.perf_counter() - start

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
    summary = tracing.merge_summaries([tracer.summary()] + getattr(wl, "child_summaries", []))
    metrics = tracing.layer_metrics(summary)
    metrics.update(verdict_metrics(outputs))
    metrics.update(import_times())
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    info = {"pool": len(pool), "untraced_s": untraced, "traced_s": traced,
            "outputs_sha256": outputs_digest(digests)}
    return 2 * len(pool), failures, metrics, info


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    from skeinlab import _kernels

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit():
    head = workloads.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (workloads.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="small pool, for self-tests")
    args = ap.parse_args(argv)

    # One CPU for the worker and its CLI children, so that the reference
    # loop runs on the CPU the requests run on: on a shared host each CPU
    # can be slowed by other load to its own degree.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, tiny=args.tiny)
    setup_s = time.monotonic() - args.t0
    setup_s /= host_slowness([time_reference() for _ in range(SETUP_REFS)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        attempted, failures, metrics, info = traced_run(wl, args.seed)
    else:
        attempted, failures, metrics, info = timed_run(wl, args.seconds)
    info["inputs_sha256"] = hashlib.sha256(workloads.canonical_json(wl.pool).encode()).hexdigest()
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
