"""The three workloads: set-up, the untraced closed loop, and the traced cycle.

Each workload is a closed loop with one caller.  The large workloads run the
CLI as ``sys.executable -m strongmatch`` with PYTHONPATH set to the
checkout's own ``src``, one child at a time; small-mixed runs the certify
pipeline in-process.  Every operation is checked and counted; a failed
operation keeps its latency sample.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from strongmatch import (
    Graph,
    connected_components,
    count_invariants,
    exact_strong_matching_number,
    find_induced_matching_subcubic,
    forest_greedy_induced_matching,
    format_trace,
    girth,
    girth6_induced_matching,
    greedy_induced_matching,
    ledger_check,
    parse_graph,
    verify_induced_matching,
    write_edge_list,
)
from strongmatch.cli import main as cli_main

import inputs
from spans import NullTracer

RULES = [f"R{k}" for k in range(1, 13)] + ["COMPONENT-BRUTE", "COMPONENT-K33PLUS"]
# The engine sends components of order <= 12 to the oracle; a COMPONENT-BRUTE
# step that removes more vertices came from its fallback path.
BRUTE_LIMIT = 12


@dataclass(frozen=True)
class Size:
    large_n: int
    companion_n: int
    stream: int
    stream_setups: int


SIZES = {
    "full": Size(large_n=100_000, companion_n=25_000, stream=1500, stream_setups=3),
    "tiny": Size(large_n=600, companion_n=150, stream=40, stream_setups=2),
}


class Checks:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def closed_loop(seconds: float, step, min_steps: int) -> tuple[float, int]:
    """Call ``step`` until one more call would end past ``seconds``."""
    t0 = perf_counter()
    steps = 0
    while True:
        step()
        steps += 1
        elapsed = perf_counter() - t0
        if steps >= min_steps and elapsed * (steps + 1) / steps > seconds:
            return elapsed, steps


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rule_counts(trace) -> dict[str, int]:
    counts = dict.fromkeys(RULES, 0)
    fallbacks = 0
    for step in trace.steps:
        counts[step.rule] += 1
        if step.rule == "COMPONENT-BRUTE" and len(step.removed) > BRUTE_LIMIT:
            fallbacks += 1
    out = {f"reduction.rule.{r}": c for r, c in counts.items()}
    out["reduction.steps"] = len(trace.steps)
    out["reduction.fallbacks"] = fallbacks
    return out


def add_counts(total: dict, more: dict) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


@dataclass
class CliRun:
    code: int
    out: bytes
    err: str
    wall: float
    rss_mb: float


class Cli:
    """Runs ``python -m strongmatch`` from the checkout's src, one at a time."""

    def __init__(self, root: Path, workdir: Path):
        self.src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.err_path = workdir / "stderr.txt"

    def run(self, args: list[str]) -> CliRun:
        return self.spawn(["-m", "strongmatch", *args])

    def spawn(self, args: list[str]) -> CliRun:
        with open(self.err_path, "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=subprocess.PIPE, stderr=err, env=self.env
            )
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            msg = err.read().decode(errors="replace").strip()
        return CliRun(proc.returncode, out, msg, wall, usage.ru_maxrss / 1024)

    def check_import(self) -> list[str]:
        """The children must import this checkout's package, not another copy."""
        r = self.spawn(["-c", "import strongmatch; print(strongmatch.__file__)"])
        where = Path(r.out.decode().strip()).resolve()
        if r.code != 0 or self.src.resolve() not in where.parents:
            return [f"children import strongmatch from {where} ({r.err})"]
        return []


def run_main(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue().encode()


def _edges_from_text(field: str) -> list[tuple[int, int]]:
    if not field:
        return []
    return [tuple(map(int, e.split("-"))) for e in field.split(",")]


# -- large workloads -------------------------------------------------------------


class LargeWorkload:
    """One large graph file; each cycle runs the workload's two CLI commands.

    ``commands`` is a list of (role, argv) with role "match" for the command
    that runs the reduction engine and "side" for the one that bypasses it.
    """

    name = ""
    generator_span = ""
    commands: list[tuple[str, list[str]]] = []
    runs_greedy = False
    formats_trace = False
    min_girth = 3

    def __init__(self, size: Size, seed: int, root: Path, workdir: Path):
        self.size = size
        self.seed = seed
        self.path = workdir / f"{self.name}.txt"
        self.cli = Cli(root, workdir)
        self.digests: dict[str, str] = {}
        self.inputs: dict = {}
        self.companion: Graph | None = None

    def make_graph(self, tr, span: str, n: int, base: int) -> tuple[Graph, dict]:
        """The workload's graph on n vertices, and the seeds that made it."""
        g = self.build(tr, span, n, base, self.seed)
        return g, {"generator_seed": base, "relabel_seed": self.seed}

    def argv(self, args: list[str]) -> list[str]:
        return [str(self.path) if a == "FILE" else a for a in args]

    def setup(self, tr, checks: Checks, traced: bool) -> list[float]:
        t0 = perf_counter()
        self.graph, seeds = self.make_graph(
            tr, self.generator_span, self.size.large_n, inputs.LARGE_BASE
        )
        comment = f"perfbench {self.name} n={self.size.large_n} seed={self.seed}"
        text = tr.call("generators.write_edge_list_s", write_edge_list, self.graph, [comment])
        self.path.write_text(text, encoding="utf-8")
        self.expected = inputs.Expected(self.graph)
        checks.record("warm-up import", self.cli.check_import())
        setup_s = perf_counter() - t0
        self.inputs = {"n": self.graph.n, "m": self.graph.m, "file_bytes": len(text), **seeds}
        if traced:
            self.companion, seeds = self.make_graph(
                tr, "companion.generate_s", self.size.companion_n, inputs.COMPANION_BASE
            )
            self.inputs["companion"] = {"n": self.companion.n, **seeds}
        return [setup_s]

    # untraced: the CLI loop

    def measure(self, seconds: float, checks: Checks) -> dict:
        walls: dict[str, list[float]] = {"match": [], "side": []}
        rss: list[float] = []
        sizes: dict[str, list[int]] = {}
        order = [0]

        def request():
            role, args = self.commands[order[0] % len(self.commands)]
            order[0] += 1
            r = self.cli.run(self.argv(args))
            walls[role].append(r.wall)
            rss.append(r.rss_mb)
            problems, size = self.check(args, r)
            label = " ".join(args)
            digest = sha256(r.out)
            if self.digests.setdefault(label, digest) != digest:
                problems.append("stdout differs from the first run")
            checks.record(label, problems)
            sizes.setdefault(label, []).append(size)

        elapsed, requests = closed_loop(seconds, request, min_steps=3 * len(self.commands))
        return {
            "setups": [],
            "metrics": {
                "match_s": (median(walls["match"]), "s", len(walls["match"])),
                "side_s": (median(walls["side"]), "s", len(walls["side"])),
                "requests_per_s": (requests / elapsed, "1/s", requests),
                "peak_rss_mb": (max(rss), "MB", len(rss)),
                "matching_size": (
                    sum(median(v) for v in sizes.values()), "edges", min(map(len, sizes.values()))
                ),
            },
            "extra": {
                "match_wall_s": walls["match"],
                "side_wall_s": walls["side"],
                "stdout_sha256": self.digests,
            },
        }

    def check(self, args: list[str], r: CliRun) -> tuple[list[str], int]:
        if r.code != 0:
            return [f"exit code {r.code}: {r.err[-200:]}"], 0
        try:
            return self.check_output(args, r.out)
        except (ValueError, KeyError, IndexError) as e:
            return [f"unparseable output: {e!r}"], 0

    def check_output(self, args: list[str], out: bytes) -> tuple[list[str], int]:
        if args[0] == "stats":
            return self.check_stats(json.loads(out)), 0
        if "--trace" in args:
            return self.check_trace_text(out.decode())
        floor = self.expected.greedy_floor if "greedy" in args else self.expected.thm2_floor
        return self.check_match_json(json.loads(out), floor)

    def check_match_json(self, obj: dict, floor: int) -> tuple[list[str], int]:
        e = self.expected
        problems = []
        if (obj["n"], obj["m"]) != (e.n, e.m):
            problems.append(f"n, m = {obj['n']}, {obj['m']}, expected {e.n}, {e.m}")
        if obj["verified"] is not True:
            problems.append("verified is not true")
        matching = [tuple(edge) for edge in obj["matching"]]
        if obj["size"] != len(matching):
            problems.append(f"size {obj['size']} but {len(matching)} edges")
        if not floor <= obj["bound"] <= obj["size"]:
            problems.append(f"size {obj['size']}, bound {obj['bound']}, floor {floor}")
        problem = inputs.induced_matching_problem(self.graph, matching)
        if problem:
            problems.append(problem)
        return problems, len(matching)

    def check_stats(self, obj: dict) -> list[str]:
        e = self.expected
        want = {
            "n": e.n, "m": e.m, "i": e.isolated, "max_degree": e.max_degree,
            "min_degree": e.min_degree, "components": e.components,
        }
        problems = [f"{k}={obj[k]}, expected {v}" for k, v in want.items() if obj[k] != v]
        if obj["n33plus"] > e.order7:
            problems.append(f"n33plus={obj['n33plus']} > {e.order7} order-7 components")
        if not isinstance(obj["girth"], int) or obj["girth"] < self.min_girth:
            problems.append(f"girth={obj['girth']}, expected >= {self.min_girth}")
        return problems

    def check_trace_text(self, text: str) -> tuple[list[str], int]:
        e = self.expected
        lines = text.splitlines()
        if len(lines) < 5:
            return ["trace output too short"], 0
        fields = dict(line.split("=", 1) for line in lines[-4:])
        summary = dict(kv.split("=", 1) for kv in lines[-5].split())
        matching = _edges_from_text(fields["matching"])
        size, bound = int(fields["size"]), int(fields["bound"])
        problems = []
        if not all(line.startswith("rule=") for line in lines[:-5]):
            problems.append("a trace line does not start with rule=")
        if fields["verified"] != "true" or summary["ok"] != "true":
            problems.append(f"verified={fields['verified']} ok={summary['ok']}")
        if size != len(matching) or int(summary["matching"]) != size:
            problems.append(f"size {size}, summary {summary['matching']}, {len(matching)} edges")
        if not max(e.thm2_floor, e.cubic_floor) <= bound <= size:
            problems.append(f"size {size}, bound {bound}")
        problem = inputs.induced_matching_problem(self.graph, matching)
        if problem:
            problems.append(problem)
        return problems, size

    # traced: the same work in-process, one span per public call

    def traced_cycle(self, tr, checks: Checks) -> dict:
        text = self.path.read_text(encoding="utf-8")
        g = tr.call("graph.parse_s", parse_graph, text)
        tr.call("graph.build_s", Graph, g.n, g.edges)
        rep = tr.call("graph.count_invariants_s", count_invariants, g)
        tr.call("graph.girth_s", girth, g)
        tr.call("graph.components_s", connected_components, g)
        matching, trace = tr.call("reduction.run_s", find_induced_matching_subcubic, g)
        ledger = tr.call("reduction.ledger_check_s", ledger_check, trace)
        witness = tr.call("graph.verify_s", verify_induced_matching, g, matching)
        problems = [] if ledger.ok else ["ledger check failed"]
        if witness is not None or len(matching) < rep.thm2_bound:
            problems.append(f"size {len(matching)}, witness {witness}")
        checks.record("reduction", problems)
        counts = rule_counts(trace)
        counts["reduction.size"] = len(matching)
        if self.formats_trace:
            tr.call("reduction.format_trace_s", format_trace, trace)
        if self.runs_greedy:
            greedy = tr.call("greedy.general_s", greedy_induced_matching, g)
            witness = tr.call("graph.verify_s", verify_induced_matching, g, greedy)
            ok = witness is None and len(greedy) >= ceil(rep.greedy_general_bound)
            checks.record("greedy", [] if ok else [f"size {len(greedy)}, witness {witness}"])
            counts["greedy.size"] = len(greedy)
        stdout_bytes = 0
        for _, args in self.commands:
            code, out = tr.call("cli.main_s", run_main, self.argv(args))
            stdout_bytes += len(out)
            label = "main " + " ".join(args)
            digest = sha256(out)
            problems = [] if code == 0 else [f"exit code {code}"]
            if self.digests.setdefault(label, digest) != digest:
                problems.append("stdout differs from the first run")
            checks.record(label, problems)
        counts["cli.stdout_bytes"] = stdout_bytes
        r = tr.call("cli.startup_s", self.cli.run, ["--help"])
        checks.record("--help", [] if r.code == 0 else [f"exit code {r.code}"])
        if self.companion is not None:
            tr.call("companion.reduction_s", find_induced_matching_subcubic, self.companion)
            if self.runs_greedy:
                tr.call("companion.greedy_s", greedy_induced_matching, self.companion)
        return counts

    def ratios(self, busy: dict) -> dict[str, float]:
        scale = self.size.large_n / self.size.companion_n
        out = {}
        for layer, full in (("reduction", "reduction.run_s"), ("greedy", "greedy.general_s")):
            small = f"companion.{layer}_s"
            if small in busy and full in busy:
                out[f"{layer}.per_vertex_ratio"] = busy[full][0] / busy[small][0] / scale
        return out


class LargeSubcubic(LargeWorkload):
    name = "large-subcubic"
    generator_span = "generators.subcubic_s"
    commands = [
        ("match", ["match", "FILE", "--json"]),
        ("side", ["match", "FILE", "--method", "greedy", "--json"]),
    ]
    runs_greedy = True
    build = staticmethod(inputs.large_subcubic)


class LargeCubic(LargeWorkload):
    name = "large-cubic"
    generator_span = "generators.cubic_s"
    commands = [
        ("match", ["match", "FILE", "--trace"]),
        ("side", ["stats", "FILE", "--json"]),
    ]
    formats_trace = True
    min_girth = 4
    build = staticmethod(inputs.large_cubic)


# -- small-mixed -------------------------------------------------------------------


def certify(tr, g: Graph, checks: Checks, counts: dict) -> dict[str, int]:
    """The fuzz and acceptance pipeline on one graph; returns sizes by method.

    An exception from the program counts as one failed operation instead of
    ending the run.
    """
    try:
        return _certify(tr, g, checks, counts)
    except Exception as e:
        checks.record("certify", [f"{type(e).__name__}: {e}"])
        return {}


def _certify(tr, g: Graph, checks: Checks, counts: dict) -> dict[str, int]:
    rep = tr.call("graph.count_invariants_s", count_invariants, g)
    results = []
    ledger_ok = True
    if rep.max_degree <= 3:
        matching, trace = tr.call("reduction.run_s", find_induced_matching_subcubic, g)
        ledger_ok = tr.call("reduction.ledger_check_s", ledger_check, trace).ok
        add_counts(counts, rule_counts(trace))
        results.append(("reduction", matching, max(rep.thm2_bound, rep.thm1_bound or 0)))
    greedy = tr.call("greedy.general_s", greedy_induced_matching, g)
    results.append(("greedy", greedy, ceil(rep.greedy_general_bound)))
    if rep.girth is None:
        forest = tr.call("greedy.forest_s", forest_greedy_induced_matching, g)
        results.append(("forest", forest, ceil(rep.greedy_forest_bound)))
    if rep.girth is None or rep.girth >= 6:
        results.append(("girth6", tr.call("greedy.girth6_s", girth6_induced_matching, g),
                        rep.prop1_bound))
    sizes = {}
    for label, matching, bound in results:
        witness = tr.call("graph.verify_s", verify_induced_matching, g, matching)
        problems = [] if witness is None else [f"witness {witness}"]
        if len(matching) < bound:
            problems.append(f"size {len(matching)} below bound {bound}")
        if label == "reduction" and not ledger_ok:
            problems.append("ledger check failed")
        checks.record(label, problems)
        sizes[label] = len(matching)
    if g.m <= inputs.ORACLE_EDGE_LIMIT:
        exact, _ = tr.call("oracle.exact_s", exact_strong_matching_number, g)
        counts["oracle.calls"] = counts.get("oracle.calls", 0) + 1
        # thm2 is only a guarantee for subcubic graphs; the others are None
        # where their hypothesis fails
        bounds = [rep.thm1_bound, rep.prop1_bound]
        if rep.max_degree <= 3:
            bounds.append(rep.thm2_bound)
        problems = [f"{k} size {v} exceeds exact {exact}" for k, v in sizes.items() if v > exact]
        problems += [f"bound {b} exceeds exact {exact}" for b in bounds if b and b > exact]
        checks.record("exact", problems)
    return sizes


class SmallMixed:
    name = "small-mixed"

    def __init__(self, size: Size, seed: int, root: Path, workdir: Path):
        self.size = size
        self.seed = seed
        self.inputs: dict = {}
        self.first: list[tuple[str, Graph]] | None = None

    def setup(self, tr, checks: Checks, traced: bool) -> list[float]:
        setup_s = self.build_stream(tr, checks)
        families = [f for f, _ in self.first]
        self.stream = [g for _, g in self.first]
        self.inputs = {
            "generator_seeds": [inputs.SMALL_BASE, inputs.SMALL_BASE + len(self.stream) - 1],
            "relabel_seed": self.seed,
            "instances": len(self.stream),
            "families": {f: families.count(f) for f in inputs.SMALL_FAMILIES},
            "reduction_applies": sum(1 for g in self.stream if g.max_degree() <= 3),
            "oracle_checked": sum(1 for g in self.stream if g.m <= inputs.ORACLE_EDGE_LIMIT),
        }
        return [setup_s]

    def build_stream(self, tr, checks: Checks) -> float:
        """Generate the stream, check it against the first one, return the time."""
        tr.cycle()
        t0 = perf_counter()
        stream = [inputs.small_instance(tr, i, self.seed) for i in range(self.size.stream)]
        setup_s = perf_counter() - t0
        shape = [(f, g.n, g.edges) for f, g in stream]
        if self.first is None:
            self.first, self.first_shape = stream, shape
        checks.record("stream set-up", [] if shape == self.first_shape else ["stream differs"])
        return setup_s

    def measure(self, seconds: float, checks: Checks) -> dict:
        stream = self.stream
        latency = {"match": [], "side": []}
        first_sizes: list[dict] = []
        pos = [0]
        tracer = NullTracer()

        def step():
            i = pos[0] % len(stream)
            g = stream[i]
            t0 = perf_counter()
            sizes = certify(tracer, g, checks, {})
            latency["match" if g.max_degree() <= 3 else "side"].append(perf_counter() - t0)
            if pos[0] < len(stream):
                first_sizes.append(sizes)
            else:
                same = sizes == first_sizes[i]
                checks.record("repeat", [] if same else [f"instance {i} sizes changed"])
            pos[0] += 1

        # The other set-ups are spread over the run, one after each part of
        # the loop, so their median sees the same host speeds as the loop does
        # (the host's speed drifts within a run).
        parts = self.size.stream_setups - 1
        elapsed, steps, setups = 0.0, 0, []
        for k in range(parts):
            e, n = closed_loop(seconds / parts, step, min_steps=len(stream) if k == 0 else 1)
            elapsed, steps = elapsed + e, steps + n
            setups.append(self.build_stream(NullTracer(), checks))
        every = latency["match"] + latency["side"]
        return {
            "setups": setups,
            "metrics": {
                "match_s": (median(latency["match"]), "s", len(latency["match"])),
                "side_s": (median(latency["side"]), "s", len(latency["side"])),
                "requests_per_s": (steps / elapsed, "1/s", steps),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
                ),
                "matching_size": (sum(sum(s.values()) for s in first_sizes), "edges", 1),
            },
            "extra": {
                "instance_p50_ms": 1000 * median(every),
                "instance_p99_ms": 1000 * quantiles(every, n=100)[98],
                "instances": steps,
                "pass_s": elapsed * len(stream) / steps,
                "sizes_by_method": {
                    k: sum(s.get(k, 0) for s in first_sizes)
                    for k in ("reduction", "greedy", "forest", "girth6")
                },
            },
        }

    def traced_cycle(self, tr, checks: Checks) -> dict:
        counts: dict = {}
        sizes = {}
        for g in self.stream:
            add_counts(sizes, certify(tr, g, checks, counts))
        counts["reduction.size"] = sizes.get("reduction", 0)
        counts["greedy.size"] = sizes.get("greedy", 0)
        return counts

    def ratios(self, busy: dict) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (LargeSubcubic, LargeCubic, SmallMixed)}
