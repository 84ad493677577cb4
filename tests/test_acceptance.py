"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line (visible through capture) after its
assertions pass; a failed criterion shows up as a normal pytest failure on
the same test id.  Stated runtime ceilings are asserted with wall-clock
measurements taken inside the test.
"""

import io
import json
import sys
import time
from fractions import Fraction
from math import ceil

from strongmatch import (
    connected_components,
    count_invariants,
    exact_strong_matching_number,
    find_induced_matching_subcubic,
    forest_greedy_induced_matching,
    gen_c5_blowup,
    gen_extremal_cubic,
    gen_k33plus,
    gen_odd_regular_extremal,
    gen_random_bounded_degree,
    gen_random_cubic,
    gen_random_forest,
    gen_random_girth6,
    gen_random_subcubic,
    girth6_induced_matching,
    greedy_induced_matching,
    ledger_check,
    verify_induced_matching,
    write_edge_list,
)
from strongmatch.cli import main as cli_main

from bruteforce import (
    exhaustive_strong_matching_number,
    short_cycle_steps_outside_cubic_components,
)
from corpus import build_instance, determinism_corpus, small_corpus
from util import thm2_of


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_01_extremal_tightness(capsys):
    """Oracle and reduction both hit 5 = ceil(45/9) on the tight cubic graph."""
    t0 = time.perf_counter()
    g = gen_extremal_cubic()
    assert (g.n, g.m) == (30, 45)
    exact, witness = exact_strong_matching_number(g)
    assert exact == 5 == -(-g.m // 9)
    assert verify_induced_matching(g, witness) is None
    matching, trace = find_induced_matching_subcubic(g)
    assert len(matching) == 5
    assert verify_induced_matching(g, matching) is None
    assert ledger_check(trace) == (True, None)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(capsys, f"ACCEPTANCE 01 extremal-tightness: PASS ({elapsed:.2f}s)")


def test_criterion_02_subcubic_guarantee(capsys):
    """10,000 random subcubic graphs: verified matching, size >= thm2 bound,
    ledger intact, R10..R12 steps only inside cubic input components.
    Instance i uses seed 910000+i, n = 4 + (7i mod 197),
    target_m = ((i mod 3)+1) * n // 2."""
    t0 = time.perf_counter()
    base = 910_000
    count = 10_000
    for i in range(count):
        n = 4 + (7 * i) % 197
        target = ((i % 3) + 1) * n // 2
        g = gen_random_subcubic(n, target, base + i)
        matching, trace = find_induced_matching_subcubic(g)
        assert verify_induced_matching(g, matching) is None, (base + i,)
        assert len(matching) >= thm2_of(g), (base + i,)
        assert ledger_check(trace) == (True, None), (base + i,)
        assert short_cycle_steps_outside_cubic_components(g, trace) == [], (base + i,)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        capsys,
        f"ACCEPTANCE 02 subcubic-guarantee: PASS "
        f"({count} instances, seeds {base}..{base + count - 1}, {elapsed:.1f}s)",
    )


def test_criterion_03_cubic_guarantee(capsys):
    """1,000 random cubic graphs (even n <= 200): size >= ceil(m/9)."""
    t0 = time.perf_counter()
    base = 920_000
    count = 1_000
    for i in range(count):
        n = 4 + 2 * ((13 * i) % 99)
        g = gen_random_cubic(n, base + i)
        matching, _ = find_induced_matching_subcubic(g)
        assert verify_induced_matching(g, matching) is None, (base + i,)
        assert len(matching) >= -(-g.m // 9), (base + i,)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        capsys,
        f"ACCEPTANCE 03 cubic-guarantee: PASS "
        f"({count} instances, seeds {base}..{base + count - 1}, {elapsed:.1f}s)",
    )


def test_criterion_04_oracle_consistency(capsys):
    """Stored corpus (2,000 instances, m <= 25): branch-and-bound equals
    exhaustive enumeration; every algorithm and every applicable bound stays
    at or below the optimum."""
    t0 = time.perf_counter()
    entries = small_corpus()
    assert len(entries) >= 2_000
    for family, params, seed in entries:
        g = build_instance(family, params, seed)
        assert g.m <= 25, (family, seed, g.m)
        exact, witness = exact_strong_matching_number(g)
        assert verify_induced_matching(g, witness) is None, (family, seed)
        assert exact == exhaustive_strong_matching_number(g), (family, seed)

        rep = count_invariants(g)
        sizes = {"greedy": len(greedy_induced_matching(g))}
        if g.max_degree() <= 3:
            matching, _ = find_induced_matching_subcubic(g)
            sizes["reduction"] = len(matching)
            # the n/6 guarantee presumes a subcubic graph
            assert rep.thm2_bound <= exact, (family, seed)
        if rep.girth is None:
            sizes["forest"] = len(forest_greedy_induced_matching(g))
        if rep.girth is None or rep.girth >= 6:
            sizes["girth6"] = len(girth6_induced_matching(g))
        for label, size in sizes.items():
            assert size <= exact, (family, seed, label, size, exact)
        if rep.thm1_bound is not None:
            assert rep.thm1_bound <= exact, (family, seed)
        if rep.prop1_bound is not None:
            assert rep.prop1_bound <= exact, (family, seed)
        assert ceil(rep.greedy_general_bound) <= exact, (family, seed)
        if rep.greedy_forest_bound is not None:
            assert ceil(rep.greedy_forest_bound) <= exact, (family, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        capsys,
        f"ACCEPTANCE 04 oracle-consistency: PASS "
        f"({len(entries)} instances, {elapsed:.1f}s)",
    )


def test_criterion_05_k33plus_correction(capsys):
    """nu_s(K33+) = 1 while ceil(7/6) = 2: the correction term is necessary,
    and the reduction emits exactly one edge for the component."""
    g = gen_k33plus()
    exact, _ = exact_strong_matching_number(g)
    assert exact == 1
    assert -(-g.n // 6) == 2
    assert thm2_of(g) == 1
    matching, trace = find_induced_matching_subcubic(g)
    assert len(matching) == 1
    assert len(trace.steps) == 1 and trace.steps[0].rule == "COMPONENT-K33PLUS"
    report(capsys, "ACCEPTANCE 05 k33plus-correction: PASS")


def test_criterion_06_girth6_guarantee(capsys):
    """1,000 girth >= 6 graphs (max degree <= 5, n <= 100): matching size
    meets ceil((n - i)/(D^2/4 + D + 1)) computed in exact rationals."""
    t0 = time.perf_counter()
    base = 930_000
    count = 1_000
    nontrivial = 0
    for i in range(count):
        n = 6 + (11 * i) % 95
        dmax = 2 + i % 4
        g = gen_random_girth6(n, dmax, base + i)
        matching = girth6_induced_matching(g)
        assert verify_induced_matching(g, matching) is None, (base + i,)
        d = g.max_degree()
        if d == 0:
            continue
        iso = sum(1 for c in connected_components(g) if len(c) == 1)
        bound = ceil(Fraction(g.n - iso) / (Fraction(d * d, 4) + d + 1))
        assert count_invariants(g).prop1_bound == bound, (base + i,)
        assert len(matching) >= bound, (base + i,)
        if bound >= 2:
            nontrivial += 1
    elapsed = time.perf_counter() - t0
    report(
        capsys,
        f"ACCEPTANCE 06 girth6-guarantee: PASS "
        f"({count} instances, bound >= 2 on {nontrivial}, {elapsed:.1f}s)",
    )


def test_criterion_07_greedy_bounds(capsys):
    """10,000 bounded-degree graphs (D <= 6) for the general greedy bound and
    10,000 random forests for the forest bound."""
    t0 = time.perf_counter()
    for i in range(10_000):
        n = 4 + (13 * i) % 97
        dmax = 2 + i % 5
        target = ((i % 3) + 1) * n * dmax // 6
        g = gen_random_bounded_degree(n, target, dmax, 940_000 + i)
        matching = greedy_induced_matching(g)
        assert verify_induced_matching(g, matching) is None, (940_000 + i,)
        d = g.max_degree()
        if d >= 1:
            assert len(matching) >= -(-g.m // (2 * d * (d - 1) + 1)), (940_000 + i,)
    for i in range(10_000):
        n = 2 + (7 * i) % 99
        g = gen_random_forest(n, 950_000 + i, attach_percent=50 + (i % 51))
        matching = forest_greedy_induced_matching(g)
        assert verify_induced_matching(g, matching) is None, (950_000 + i,)
        d = g.max_degree()
        if d >= 1:
            assert len(matching) >= -(-g.m // (2 * d - 1)), (950_000 + i,)
    elapsed = time.perf_counter() - t0
    report(
        capsys,
        f"ACCEPTANCE 07 greedy-bounds: PASS (2 x 10000 instances, {elapsed:.1f}s)",
    )


def test_criterion_08_section3_constructions(capsys):
    """C5 blowup at delta=4: 4-regular, order 10, nu_s = 1.  Odd-regular
    construction at delta=3: cubic, order 30, nu_s = 5."""
    blow = gen_c5_blowup(4)
    assert blow.n == 10
    assert blow.degrees() == [4] * 10
    assert exact_strong_matching_number(blow)[0] == 1

    odd, _ = gen_odd_regular_extremal(3)
    assert odd.n == 30
    assert odd.is_cubic()
    assert exact_strong_matching_number(odd)[0] == 5
    report(capsys, "ACCEPTANCE 08 section3-constructions: PASS")


def test_criterion_09_performance(capsys):
    """Reduction on n = 100k subcubic in < 5 s; time per vertex grows at most
    3x from n = 25k to n = 100k.  Generation is excluded from the timing.
    Each size takes the best of three calls: one call read the ratio
    from 0.48x to 2.13x on unchanged engine code."""
    times = {}
    for n in (25_000, 50_000, 100_000):
        g = gen_random_subcubic(n, (3 * n) // 2, 960_000 + n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            matching, trace = find_induced_matching_subcubic(g)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
        assert verify_induced_matching(g, matching) is None
        assert len(matching) >= thm2_of(g)
        assert ledger_check(trace) == (True, None)
    assert times[100_000] < 5.0
    ratio = (times[100_000] / 100_000) / (times[25_000] / 25_000)
    assert ratio <= 3.0
    report(
        capsys,
        f"ACCEPTANCE 09 performance: PASS "
        f"(100k in {times[100_000]:.2f}s, per-vertex ratio {ratio:.2f}x)",
    )


class _CliRunner:
    """In-process CLI invocation capturing stdout/stderr bytes."""

    def __call__(self, argv, stdin=""):
        out, err = io.StringIO(), io.StringIO()
        old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
        sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
        try:
            code = cli_main(argv)
        finally:
            sys.stdout, sys.stderr, sys.stdin = old_out, old_err, old_in
        return code, out.getvalue(), err.getvalue()


def _twice_identical(run, argv, stdin=""):
    first = run(argv, stdin)
    second = run(argv, stdin)
    assert first == second, argv
    return first


def _match_method(g, rep) -> str:
    if g.max_degree() <= 3:
        return "reduction"
    if rep.girth is None:
        return "forest"
    if rep.girth >= 6:
        return "girth6"
    return "greedy"


def test_criterion_10_cli_determinism(capsys, tmp_path):
    """Byte-identical CLI output across two runs: stats/match/exact/verify on
    every stored-corpus instance, all commands on the mixed determinism set,
    every generator, and the fuzz harness."""
    t0 = time.perf_counter()
    run = _CliRunner()
    graph_file = tmp_path / "graph.el"
    match_file = tmp_path / "matching.el"

    checked = 0
    for family, params, seed in small_corpus():
        g = build_instance(family, params, seed)
        graph_file.write_text(write_edge_list(g, []))
        path = str(graph_file)
        rep = count_invariants(g)
        method = _match_method(g, rep)

        _twice_identical(run, ["stats", path, "--json"])
        code, out, _ = _twice_identical(
            run, ["match", path, "--method", method, "--json", "--trace"]
        )
        assert code == 0, (family, seed)
        obj = json.loads(out)
        assert obj["verified"] is True, (family, seed)
        _twice_identical(run, ["exact", path, "--json"])

        match_file.write_text(
            "n {}\n".format(g.n)
            + "".join(f"{u} {v}\n" for u, v in obj["matching"])
        )
        code, _, _ = _twice_identical(run, ["verify", path, str(match_file), "--json"])
        assert code == 0, (family, seed)
        checked += 1

    for family, params, seed in determinism_corpus():
        g = build_instance(family, params, seed)
        graph_file.write_text(write_edge_list(g, []))
        path = str(graph_file)
        rep = count_invariants(g)
        method = _match_method(g, rep)
        _twice_identical(run, ["stats", path, "--json"])
        _twice_identical(run, ["stats", path])
        _twice_identical(run, ["match", path, "--method", method, "--json", "--trace"])
        _twice_identical(run, ["match", path, "--method", method, "--trace"])
        if g.m <= 64:
            _twice_identical(run, ["exact", path, "--json"])

    for argv in (
        ["gen", "k33plus"],
        ["gen", "extremal-cubic"],
        ["gen", "c5-blowup", "--delta", "6"],
        ["gen", "odd-regular", "--delta", "5"],
        ["gen", "random-subcubic", "--n", "60", "--seed", "31"],
        ["gen", "random-cubic", "--n", "30", "--seed", "32"],
        ["gen", "random-girth6", "--n", "40", "--max-degree", "3", "--seed", "33"],
        ["gen", "random-forest", "--n", "40", "--seed", "34"],
    ):
        code, _, _ = _twice_identical(run, argv)
        assert code == 0, argv

    for family in ("subcubic", "cubic", "girth6", "forest"):
        code, _, _ = _twice_identical(
            run,
            ["fuzz", family, "--count", "10", "--size", "20", "--seed", "77", "--json"],
        )
        assert code == 0, family

    elapsed = time.perf_counter() - t0
    report(
        capsys,
        f"ACCEPTANCE 10 cli-determinism: PASS "
        f"({checked} corpus instances x 4 commands, {elapsed:.1f}s)",
    )
