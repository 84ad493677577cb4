"""strongmatch benchmark: CLI latency on 100k graphs, small-instance throughput,
and per-layer spans.

    python3 perfbench/run.py --workload large-subcubic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Run it from the root of a checkout: it imports and spawns the checkout's own
``src/strongmatch`` and nothing else.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.  The
last line of standard output is one JSON object (correct, attempted, failed,
metrics); the line before it is a JSON report with the host and input stamp,
sample counts and stdout digests.  See perfbench/README.md for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
# Workload and metric names and units are defined once, in BENCHMARK.json.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; tiny is for the smoke test",
    )
    return p.parse_args(argv)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _stamp(args, inputs: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inputs": inputs,
    }


# workloads imports strongmatch, which main() first puts on sys.path from
# the checkout's own src; hence the imports inside the functions below.


def _untraced(wl, args, checks) -> tuple[dict, dict]:
    setups = wl.setup(NullTracer(), checks, traced=False)
    result = wl.measure(args.seconds, checks)
    setups += result["setups"]
    metrics = {"setup_s": (median(setups), "s", len(setups)), **result["metrics"]}
    extra = {"setup_s_samples": setups, **result["extra"]}
    return metrics, extra


def _traced(wl, args, checks, workdir: Path) -> tuple[dict, dict]:
    from workloads import SIZES, WORKLOADS, closed_loop

    tr = Tracer()
    wl.setup(tr, checks, traced=True)
    tr.phase = "run"
    per_cycle: list[dict] = []

    def step():
        tr.cycle()
        per_cycle.append(tr.call("cycle", wl.traced_cycle, tr, checks))

    closed_loop(args.seconds, step, min_steps=1)
    same = all(c == per_cycle[0] for c in per_cycle)
    checks.record("exact counts repeat", [] if same else ["counts differ between cycles"])

    # A layer this workload never calls is timed on a tiny probe of every
    # workload, so each per-layer time is a measurement, never a constant 0.
    tr.phase = "probe"
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    for cls in WORKLOADS.values():
        probe = cls(SIZES["tiny"], args.seed, ROOT, probe_dir)
        probe.setup(tr, checks, traced=False)
        probe.traced_cycle(tr, checks)

    own = {**tr.busy("setup"), **tr.busy("run")}
    probed = tr.busy("probe", combine=sum)
    ratios = wl.ratios(tr.busy("run"))
    counts = per_cycle[0]
    metrics, origin = {}, {}
    for m in BENCH["per_layer"]:
        name, unit = m["name"], m["unit"]
        if unit == "s":
            value, samples = own[name] if name in own else probed[name]
            origin[name] = "workload" if name in own else "probe"
        elif unit == "ratio":
            value, samples = ratios.get(name, 0.0), len(per_cycle) if name in ratios else 0
        else:
            value, samples = counts.get(name, 0), len(per_cycle)
        metrics[name] = (value, unit, samples)
    WORK.mkdir(parents=True, exist_ok=True)
    tr.write(WORK / f"spans-{wl.name}.json")
    cycle_s = [s[5] - s[4] for s in tr.spans if s[0] == "cycle"]
    extra = {"layer_origin": origin, "cycles": len(per_cycle), "cycle_s": cycle_s}
    return metrics, extra


def _run_one(args) -> int:
    from workloads import SIZES, WORKLOADS, Checks

    checks = Checks()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](SIZES[args.size], args.seed, ROOT, workdir)
        if args.trace:
            metrics, extra = _traced(wl, args, checks, workdir)
        else:
            metrics, extra = _untraced(wl, args, checks)
            passed = (checks.attempted - checks.failed) / checks.attempted
            metrics["pass_ratio"] = (passed, "ratio", checks.attempted)
            metrics = {m["name"]: metrics[m["name"]] for m in BENCH["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload:15s} {name:34s} {value:>16.6g} {unit:6s} samples={samples}")
    for problem in checks.problems:
        print(f"FAILED {problem}")
    report = {
        "stamp": _stamp(args, wl.inputs),
        "samples": {name: m[2] for name, m in metrics.items()},
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        **extra,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    package = ROOT / "src" / "strongmatch" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package} not found; run from a strongmatch checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import strongmatch

    if package.resolve() != Path(strongmatch.__file__).resolve():
        print(f"perfbench: imported {strongmatch.__file__}, not {package}", file=sys.stderr)
        return 2
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
