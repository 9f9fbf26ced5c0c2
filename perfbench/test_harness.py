"""Self-tests of the benchmark harness (not part of the repository's test suite).

    python -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [
    m["name"] for m in SPEC["per_layer"]
    if m["unit"] == "count" and not m["name"].startswith("cli.")
]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_is_seeded_checked_and_repeatable(name):
    first, second = workloads.WORKLOADS[name](), workloads.WORKLOADS[name]()
    first.setup(5, tiny=True)
    second.setup(5, tiny=True)
    assert first.pool == second.pool
    for req in first.pool:
        out_a, out_b = first.run(req), second.run(req)
        assert first.check(req, out_a) is None
        assert workloads.canonical_json(out_a) == workloads.canonical_json(out_b)
    other = workloads.WORKLOADS[name]()
    other.setup(6, tiny=True)
    assert other.pool != first.pool


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric_of_benchmark_json(trace):
    proc = _run_bench("--workload", "detect-mix", "--seed", "2", "--seconds", "0.2",
                      "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in specs} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_traced_call_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        proc = _run_bench("--workload", "detect-mix", "--seed", "4", "--seconds", "0.2",
                          "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({k: metrics[k]["value"] for k in COUNT_METRICS})
    assert runs[0] == runs[1]
    assert runs[0]["curves.dp_calls"] > 0


def test_wrappers_are_restored_exactly():
    for mod in ("cli", "detect", "selftest", "qtorus", "surface", "cyclotomic"):
        importlib.import_module("skeinlab." + mod)
    namespaces = [m for n, m in sys.modules.items() if n.startswith("skeinlab")]
    before = {ns.__name__: dict(vars(ns)) for ns in namespaces}
    methods = {}
    for module, path, _, _ in tracing.TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(sys.modules[module], cls_name)
            methods[(owner, attr)] = owner.__dict__[attr]

    t = tracing.Tracer()
    t.install()
    from skeinlab import cli, curves, cyclotomic

    # names bound in several modules are wrapped in each of them
    assert cli.enumerate_admissible_states is curves.enumerate_admissible_states
    assert cli.enumerate_admissible_states is not before["skeinlab.cli"]["enumerate_admissible_states"]
    assert cyclotomic.Cyclotomic.__rmul__ is not methods[(cyclotomic.Cyclotomic, "__rmul__")]
    assert all(owner.__dict__[attr] is not f for (owner, attr), f in methods.items())
    t.uninstall()

    for ns in namespaces:
        after = vars(ns)
        assert all(after[k] is v for k, v in before[ns.__name__].items()), ns.__name__
    assert all(owner.__dict__[attr] is f for (owner, attr), f in methods.items())
    assert cyclotomic.Cyclotomic.__rmul__ is cyclotomic.Cyclotomic.__mul__


def test_corrupted_and_raising_requests_count_as_failed_and_do_not_abort():
    wl = workloads.DetectMix()
    wl.setup(1, tiny=True)
    pool = wl.pool
    outputs = [wl.run(req) for req in pool]
    certified = [i for i, o in enumerate(outputs) if o["verdict"] == "certified-nontrivial"]
    assert certified

    def corrupting(req):
        out = wl.run(req)
        if out["verdict"] == "certified-nontrivial":
            out["witness"]["fiberAlpha"] = 2
            out["witness"]["fiberBeta"] = 0
        if req is pool[-1]:
            raise RuntimeError("injected")
        return out

    failures, latencies = [], [[] for _ in pool]
    worker.run_pass(wl, pool, [None] * len(pool), failures, latencies, runner=corrupting)
    raised = 1
    bad_certs = len([i for i in certified if i != len(pool) - 1])
    assert len(failures) == bad_certs + raised
    assert sum(map(len, latencies)) == len(pool) - raised
    assert any("not {0, 1}" in f["problem"] for f in failures)


def test_output_changing_between_passes_counts_as_failed():
    wl = workloads.Algebra()
    wl.setup(1, tiny=True)
    pool = wl.pool
    digests, failures, latencies = [None] * len(pool), [], [[] for _ in pool]
    worker.run_pass(wl, pool, digests, failures, latencies)
    assert not failures
    worker.run_pass(wl, pool, digests, failures, latencies, runner=lambda r: {**wl.run(r), "x": 1})
    assert len(failures) == len(pool)


def test_latencies_are_scaled_by_host_slowness(monkeypatch):
    wl = workloads.Algebra()
    wl.setup(1, tiny=True)
    outputs = {json.dumps(req): wl.run(req) for req in wl.pool}

    def sleepy(req):
        time.sleep(0.02)
        return outputs[json.dumps(req)]

    monkeypatch.setattr(wl, "run", sleepy)
    # every reference loop takes twice REF_MS: the host runs at half speed
    monkeypatch.setattr(worker, "time_reference", lambda: 2 * worker.REF_MS / 1e3)
    _, failures, metrics, info = worker.timed_run(wl, 0.1)
    assert not failures
    assert info["slowness"] == [2.0] * info["passes"]
    assert 10 <= metrics["latency_p50_ms"][0] < 20


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "detect-mix", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
