"""Smoke test for the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q -s

Runs every workload untraced once and traced twice, checks that every metric
in BENCHMARK.json is printed with its unit, that the exact counts repeat
between the two traced runs, and prints the tracing overhead (traced
small-mixed pass time against the untraced one).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_UNITS = {"count", "bytes"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", "--size", "tiny"]
    return subprocess.run(
        [*cmd, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@lru_cache(maxsize=None)
def run(workload: str, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    p = _run("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_result(result: dict, wanted: list[dict], report: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert m["name"] in report["samples"], m["name"]


def test_untraced_prints_every_end_to_end_metric():
    for w in WORKLOADS:
        report, result = run(w, 0)
        _check_result(result, BENCH["end_to_end"], report)
        for name, got in result["metrics"].items():
            assert got["value"] > 0, (w, name)
            assert report["samples"][name] >= 1, (w, name)
        stamp = report["stamp"]
        for key in ("git_commit", "python", "nproc", "cpu_model", "seed", "inputs"):
            assert key in stamp, key


def test_traced_counts_repeat_exactly():
    for w in WORKLOADS:
        first_report, first = run(w, 1)
        second_report, second = run(w, 1, repeat=1)
        _check_result(first, BENCH["per_layer"], first_report)
        _check_result(second, BENCH["per_layer"], second_report)
        for m in BENCH["per_layer"]:
            if m["unit"] in EXACT_UNITS:
                name = m["name"]
                assert first["metrics"][name] == second["metrics"][name], (w, name)
            elif m["unit"] == "s":
                assert first["metrics"][m["name"]]["value"] > 0, (w, m["name"])


def test_tracing_overhead_is_reported():
    untraced, _ = run("small-mixed", 0)
    traced, _ = run("small-mixed", 1)
    overhead = median(traced["cycle_s"]) / untraced["pass_s"]
    print(f"\ntracing overhead on small-mixed: traced pass {median(traced['cycle_s']):.4f} s "
          f"against untraced {untraced['pass_s']:.4f} s, ratio {overhead:.3f}")
    for w in WORKLOADS:
        report, _ = run(w, 1)
        print(f"{w}: traced cycles {report['cycles']}, layer origin "
              f"{sum(o == 'probe' for o in report['layer_origin'].values())} probe")
    assert overhead > 0


def test_all_runs_every_workload():
    p = _run("--workload", "all", "--seed", "4", "--trace", "0")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] is True
    for w in WORKLOADS:
        for m in BENCH["end_to_end"]:
            assert result["metrics"][f"{w}.{m['name']}"]["unit"] == m["unit"]
            assert f"{w:15s} {m['name']}" in p.stdout


def test_refuses_to_run_without_the_program():
    bare = ROOT / "perfbench" / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        p = _run("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=bare)
        assert p.returncode != 0
        assert '"correct"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
