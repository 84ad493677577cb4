import hashlib
import json
from collections import Counter
from functools import cache
from itertools import chain

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strongmatch.reduction
from strongmatch import (
    Graph,
    GraphError,
    LedgerViolationError,
    ReductionStep,
    ReductionTrace,
    SplitMix64,
    connected_components,
    count_invariants,
    exact_strong_matching_number,
    find_induced_matching_subcubic,
    format_trace,
    gen_extremal_cubic,
    gen_k33plus,
    gen_random_cubic,
    gen_random_girth6,
    gen_random_subcubic,
    ledger_check,
    verify_induced_matching,
    write_edge_list,
)
from strongmatch.cli import main
from strongmatch.certify import _census
from strongmatch.graph import _short_cycle
from strongmatch.reduction import _R1, _R2, _R4, _R5, _R6, _R10, _R11, _R12, _Engine

from bruteforce import (
    _replay,
    c4_at_by_enumeration,
    k33plus_subdivision_vertices,
    priority_violations,
    r1_anchors_by_c4_scan,
    r4_partner_by_bfs,
    r12_anchors_in_cubic_components,
    replay_trace,
    short_cycle_anchors_in_cubic_components,
    short_cycle_steps_outside_cubic_components,
)
from corpus import build_instance, determinism_corpus, small_corpus
from util import (
    census_by_walk,
    disjoint_union,
    make_circular_ladder,
    make_cycle,
    make_diamond_chain,
    make_dodecahedron,
    make_k33plus_with_tail,
    make_lcf,
    make_mixed,
    make_path,
    make_petersen,
    thm2_of,
    with_k33plus_blocks,
)


def run_checked(g: Graph):
    """Reduce g and assert every certificate: validity, size bound, ledger,
    and an independent step-by-step replay."""
    matching, trace = find_induced_matching_subcubic(g)
    assert verify_induced_matching(g, matching) is None
    assert len(matching) >= count_invariants(g).thm2_bound
    assert ledger_check(trace) == (True, None)
    assert sorted(replay_trace(g, trace)) == matching
    assert trace.matching == matching
    return matching, trace


class TestFrozenTraces:
    def test_extremal_cubic(self):
        g = gen_extremal_cubic()
        matching, trace = run_checked(g)
        assert len(matching) == 5
        assert matching == [(1, 4), (6, 28), (8, 11), (15, 18), (21, 25)]
        assert [s.rule for s in trace.steps] == [
            "R1", "R1", "R1", "COMPONENT-BRUTE",
        ]

    def test_k33plus_component(self):
        g = gen_k33plus()
        matching, trace = run_checked(g)
        assert matching == [(1, 4)]
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step.rule == "COMPONENT-K33PLUS"
        assert step.removed == (0, 1, 2, 3, 4, 5, 6)
        assert step.isolated_created == 0

    def test_c5(self):
        matching, trace = run_checked(make_cycle(5))
        assert matching == [(0, 1)]
        assert [s.rule for s in trace.steps] == ["COMPONENT-BRUTE"]

    def test_petersen(self, petersen):
        matching, _ = run_checked(petersen)
        assert len(matching) == 3

    def test_p13(self):
        matching, trace = run_checked(make_path(13))
        assert matching == [(0, 1), (3, 4), (6, 7), (9, 10)]
        assert trace.steps[0] == ReductionStep(
            rule="R2", removed=(0, 1, 2), added=((0, 1),), isolated_created=0
        )
        assert trace.steps[1].rule == "COMPONENT-BRUTE"

    def test_single_edge(self):
        matching, trace = run_checked(Graph(2, [(0, 1)]))
        assert matching == [(0, 1)]
        assert [s.rule for s in trace.steps] == ["COMPONENT-BRUTE"]

    def test_empty_graph(self):
        matching, trace = run_checked(Graph(0, []))
        assert matching == []
        assert trace.steps == ()

    def test_isolated_vertices_only(self):
        matching, trace = run_checked(Graph(4, []))
        assert matching == []
        assert trace.steps == ()


def pendant_siblings_lollipop() -> Graph:
    # two leaves on hub 2, tail 2-3-4-5 into a C8; the only degree-1
    # classification available is the shared-neighbor pair
    edges = [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]
    edges += [(5 + i, 5 + i + 1) for i in range(7)]
    edges += [(5, 12)]
    return Graph(13, edges)


def pendants_at_distance_four() -> Graph:
    # leaves 0 and 4 joined by the path 0-1-2-3-4; anchors 1 and 3 hang on
    # a C8, so neither leaf sees a degree-2 neighbor or a sibling
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6), (5, 6)]
    edges += [(6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 5)]
    return Graph(13, edges)


def pendant_on_c12() -> Graph:
    edges = [(i, (i + 1) % 12) for i in range(12)] + [(0, 12)]
    return Graph(13, edges)


def petersen_with_triangle_gadget() -> Graph:
    # replace the Petersen edge 0-1 with a triangle 10-11-12 attached via
    # 11-0 and 12-1: vertex 10 is the only degree-2 vertex and sits on a
    # triangle; girth 5 elsewhere keeps every earlier rule silent
    pet = make_petersen()
    edges = [e for e in pet.edges if e != (0, 1)]
    edges += [(10, 11), (10, 12), (11, 12), (11, 0), (12, 1)]
    return Graph(13, edges)


def ladder_minus_cycle_edge() -> Graph:
    # CL_7 without the outer edge 0-6: vertex 0 keeps neighbors 1 and 7,
    # which share the second common neighbor 8, putting 0 on a 4-cycle
    cl7 = make_circular_ladder(7)
    return Graph(14, [e for e in cl7.edges if e != (0, 6)])


def ladder_minus_rung() -> Graph:
    # CL_7 without the rung 0-7: both degree-2 vertices have two degree-3
    # neighbors and lie on no short cycle
    cl7 = make_circular_ladder(7)
    return Graph(14, [e for e in cl7.edges if e != (0, 7)])


def triangle_capped_ladder() -> Graph:
    # 2x6 grid ladder with triangle caps 12 and 13 joined to each other:
    # cubic, order 14, has triangles, planar (so no subdivided-K33 subgraph)
    k = 6
    edges = [(c, k + c) for c in range(k)]
    for c in range(k - 1):
        edges += [(c, c + 1), (k + c, k + c + 1)]
    edges += [(12, 0), (12, k), (13, k - 1), (13, 2 * k - 1), (12, 13)]
    return Graph(14, edges)


RULE_CASES = [
    ("R2", make_path(13), 4),
    ("R3", pendant_siblings_lollipop(), 4),
    ("R4", pendants_at_distance_four(), 4),
    ("R5", pendant_on_c12(), 4),
    ("R6", make_cycle(14), 4),
    ("R7", petersen_with_triangle_gadget(), 4),
    ("R8", ladder_minus_cycle_edge(), 3),
    ("R9", ladder_minus_rung(), 4),
    ("R10", triangle_capped_ladder(), 3),
    ("R11", make_circular_ladder(7), 3),
    ("R12", make_dodecahedron(), 6),
]


class TestRuleSelection:
    """Each graph is built so that exactly one rule is the highest-priority
    applicable pattern on the first step."""

    @pytest.mark.parametrize("first,g,size", RULE_CASES, ids=[c[0] for c in RULE_CASES])
    def test_first_rule_and_size(self, first, g, size):
        matching, trace = run_checked(g)
        assert trace.steps[0].rule == first
        assert len(matching) == size

    def test_r1_first_on_extremal(self):
        _, trace = run_checked(gen_extremal_cubic())
        assert trace.steps[0].rule == "R1"

    def test_dodecahedron_full_trace(self):
        matching, trace = run_checked(make_dodecahedron())
        assert [s.rule for s in trace.steps] == ["R12", "R5", "COMPONENT-BRUTE"]
        assert matching == [
            (0, 1), (3, 4), (6, 7), (9, 13), (11, 18), (15, 16),
        ]
        first = trace.steps[0]
        assert first.added == ((0, 1),)
        assert first.isolated_created == 0

    def test_every_rule_respects_accounting(self):
        for _, g, _ in RULE_CASES:
            _, trace = find_induced_matching_subcubic(g)
            for step in trace.steps:
                if step.rule.startswith("R"):
                    budget = 6 * len(step.added)
                    assert len(step.removed) + step.isolated_created <= budget


def deletion_corpus() -> list[Graph]:
    """Graphs on which R1..R12 each fire: the RULE_CASES, K33+ blocks on a
    diamond chain and on random subcubic graphs, cubic pieces side by side,
    and random cubic graphs."""
    graphs = [g for _, g, _ in RULE_CASES]
    graphs += [gen_extremal_cubic(), make_mixed()]
    graphs.append(with_k33plus_blocks(make_diamond_chain(6), 2, 1))
    graphs.append(
        disjoint_union(make_dodecahedron(), make_petersen(), make_diamond_chain(4, ring=True))
    )
    graphs += [
        with_k33plus_blocks(gen_random_subcubic(200, m, seed), 2, seed)
        for seed, m in [(1, 200), (2, 260), (3, 300)]
    ]
    graphs += [gen_random_cubic(60, seed) for seed in range(4)]
    return graphs


class TestDeletionRule:
    def test_rule_steps_delete_the_closed_neighborhoods_of_their_edges(self):
        """Every rule step deletes exactly the alive closed neighborhoods of
        its matched edges' endpoints, read from the replayed alive graph."""
        met = set()
        for g in deletion_corpus():
            _, trace = find_induced_matching_subcubic(g)
            for _, step, alive in _replay(g, trace):
                if not step.rule.startswith("R"):
                    continue
                ends = {x for edge in step.added for x in edge}
                want = ends | {w for x in ends for w in g.adj[x] if alive[w]}
                assert set(step.removed) == want, (g.edges, step)
                met.add(step.rule)
        assert met == {f"R{k}" for k in range(1, 13)}


class TestFindC4:
    """The R11 pattern, _short_cycle's 4-cycle at a root a with no triangle
    above it, against the 4-cycles enumerated at a with the vertices below
    a dead: at every vertex of the corpora, with every vertex alive and
    under random dead-vertex masks."""

    def test_matches_enumeration(self):
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        graphs = [build_instance(*e) for e in small_corpus() + determinism_corpus()]
        graphs += [k33, make_circular_ladder(4), make_petersen(), gen_k33plus()]
        found = ties = 0
        for i, base in enumerate(graphs):
            rng = SplitMix64(1_097_000 + i)
            # relabeled copies put other vertices below each cycle
            for g in [base, *(relabeled(base, rng) for _ in range(5))]:
                masks = [b"\x01" * g.n]
                masks += [bytes(rng.below(k) > 0 for _ in range(g.n)) for k in (4, 8)]
                for mask in masks:
                    # the alive graph; alive[x] once the root passes x: x is
                    # alive and above the root
                    h = Graph(g.n, [(u, v) for u, v in g.edges if mask[u] and mask[v]])
                    alive = bytearray(mask)
                    for a in range(g.n):
                        cycle = _short_cycle(h.adj, [a])
                        alive[a] = 0
                        if cycle is not None and len(cycle) == 3:
                            continue
                        want = c4_at_by_enumeration(h.adj, alive, a)
                        got = cycle and tuple(zip(cycle, cycle[1:] + cycle[:1]))
                        assert got == want, (g.edges, mask, a)
                        if want is not None:
                            (_, n1), _, _, (n2, _) = want
                            common = set(h.adj[n1]) & set(h.adj[n2])
                            found += 1
                            ties += sum(alive[x] for x in common) > 1
        # ties: anchors whose cycle has a choice of x, so the smallest counts
        assert found > 10_000 and ties > 1_000


class TestR4Search:
    """_classify's R4 partner, read from the neighborhood of the anchor's
    neighbor, against a plain depth-4 BFS: at every alive end-vertex of the
    corpora that _classify sends to R4 or R5, with every vertex alive and
    under random dead-vertex masks, and with alive degrees."""

    def test_matches_bfs(self):
        graphs = [build_instance(*e) for e in small_corpus() + determinism_corpus()]
        r4 = r5 = ties = 0
        for i, g in enumerate(graphs):
            eng = _Engine(g)
            alive = eng.alive
            rng = SplitMix64(1_098_000 + i)
            masks = [b"\x01" * g.n]
            masks += [bytes(rng.below(k) > 0 for _ in range(g.n)) for k in (4, 8)]
            for mask in masks:
                alive[:] = mask
                eng.deg[:] = [sum(alive[w] for w in g.adj[v]) for v in range(g.n)]
                for u in range(g.n):
                    if not alive[u] or eng.deg[u] != 1:
                        continue
                    cls, pat = eng._classify(_R2, u)
                    if cls not in (_R4, _R5):
                        continue
                    want = r4_partner_by_bfs(g.adj, alive, u)
                    (v,) = [w for w in g.adj[u] if alive[w]]
                    if want is None:
                        assert (cls, pat) == (_R5, ((u, v),)), (g.edges, mask, u)
                        r5 += 1
                        continue
                    (y,) = [w for w in g.adj[want] if alive[w]]
                    assert (cls, pat) == (_R4, ((u, v, want, y),)), (g.edges, mask, u)
                    r4 += 1
                    # an end-vertex is inside no path between two others, so
                    # without the partner the other candidates stay at distance 4
                    rest = bytearray(alive)
                    rest[want] = 0
                    ties += r4_partner_by_bfs(g.adj, rest, u) is not None
        # ties: anchors with a choice of partner, so the smallest counts
        assert r4 >= 400 and ties >= 100 and r5 >= 600


ALL_RULES = {f"R{k}" for k in range(1, 13)} | {"COMPONENT-BRUTE", "COMPONENT-K33PLUS"}


def golden_corpus() -> list[Graph]:
    graphs = [gen_random_cubic(200, 1000 + s) for s in range(30)]
    graphs += [gen_random_subcubic(300, 400, 2000 + s) for s in range(30)]
    graphs += [gen_random_girth6(200, 3, 3000 + s) for s in range(10)]
    graphs.append(make_mixed())
    # on the first R9 needs its second neighbor, on the second R11 a later
    # cycle edge: their first options would break the 6-per-edge ledger
    graphs += [gen_random_cubic(28, seed) for seed in (108217, 98017)]
    return graphs


class TestTraceGolden:
    """Every step of every trace over a fixed corpus on which all fourteen
    rule names fire, pinned by the sha256 of the concatenated trace text."""

    SHA256 = "8c5736548a6745bfb763fe61fb0c8888808d1703b833c4cd74b59d0a4232eeb2"

    def test_corpus_traces(self):
        digest = hashlib.sha256()
        fired = set()
        for g in golden_corpus():
            _, trace = find_induced_matching_subcubic(g)
            digest.update(format_trace(trace).encode())
            fired.update(step.rule for step in trace.steps)
        assert fired == ALL_RULES
        assert digest.hexdigest() == self.SHA256


class TestR4Priority:
    """No rule step may be taken while an earlier rule applies, which
    priority_violations checks by replaying the trace.  The class is named
    for the first such check, R4 before R5.  The two pinned graphs are ones
    where an undercounted end-vertex total once skipped the R4 search, so
    that R5 fired first and an anchor had to be refiled under an earlier
    rule; R4 now fires at the small graph's second step."""

    def test_subcubic_trace(self):
        g = gen_random_subcubic(28, 31, 3002328)
        _, trace = run_checked(g)
        assert format_trace(trace) == (
            "rule=COMPONENT-BRUTE removed=13,16,17 added=13-16 isolated=0\n"
            "rule=R4 removed=3,4,9,10,11,14,18 added=3-10,9-11 isolated=0\n"
            "rule=R3 removed=8,15,24,26 added=8-26 isolated=0\n"
            "rule=R2 removed=2,22,23 added=22-23 isolated=0\n"
            "rule=COMPONENT-BRUTE removed=0,1,5,6,7,12,19,20,21,25,27 "
            "added=0-20,1-6,5-21 isolated=0\n"
            "matching=8 bound=5 ok=true\n"
        )
        assert priority_violations(g, trace) == []

    def test_girth6_trace(self):
        g = gen_random_girth6(227, 3, 931407)
        _, trace = run_checked(g)
        digest = hashlib.sha256(format_trace(trace).encode()).hexdigest()
        assert digest == (
            "96525da4a80429ea16716eeaf6bee59d917212aa77a847639b89471944f1f0d7"
        )
        assert priority_violations(g, trace) == []

    def test_reference_flags_r5_beside_r4_pair(self):
        # end-vertices 0 and 4 lie at distance 4 on the path 0-1-2-3-4;
        # a hand-made trace fires R5 at 0 anyway
        g = Graph(7, [(0, 1), (1, 2), (1, 5), (2, 3), (3, 4), (3, 6), (5, 6)])
        steps = [
            ReductionStep("R5", (0, 1, 2, 5), ((0, 1),), 0),
            ReductionStep("COMPONENT-BRUTE", (3, 4, 6), ((3, 4),), 0),
        ]
        assert priority_violations(g, ReductionTrace(g, tuple(steps))) == [0]
        _, trace = find_induced_matching_subcubic(g)
        assert priority_violations(g, trace) == []

    @pytest.mark.parametrize(
        "g,steps",
        [
            # 0 hangs off the triangle 1-2-3 (R5); on the path 4-5-6-7 the
            # end-vertex 4 has a degree-2 neighbor (R2), which comes first
            (
                Graph(8, [(0, 1), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7)]),
                [
                    ReductionStep("R5", (0, 1, 2, 3), ((0, 1),), 0),
                    ReductionStep("COMPONENT-BRUTE", (4, 5, 6, 7), ((4, 5),), 0),
                ],
            ),
            # the cube is cubic but full of 4-cycles, so R11 comes before R12
            (
                Graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]),
                [
                    ReductionStep("R12", (0, 1, 2, 3, 4, 5), ((0, 1),), 0),
                    ReductionStep("COMPONENT-BRUTE", (6, 7), ((6, 7),), 0),
                ],
            ),
            # R1 applies while the K33+ block 0..6 is alive, so R2 at the
            # tail's end 13-14 must wait
            (
                make_k33plus_with_tail(),
                [
                    ReductionStep("R2", (12, 13, 14), ((13, 14),), 0),
                    ReductionStep(
                        "COMPONENT-BRUTE", tuple(range(12)),
                        ((0, 4), (7, 8), (10, 11)), 0,
                    ),
                ],
            ),
            # the order-2 component 15-16 (FRAG) comes before R1
            (
                disjoint_union(make_k33plus_with_tail(), make_path(2)),
                [
                    ReductionStep("R1", (0, 1, 2, 3, 4, 5), ((1, 4),), 0),
                    ReductionStep(
                        "COMPONENT-BRUTE", tuple(range(6, 15)),
                        ((6, 7), (9, 10), (12, 13)), 0,
                    ),
                    ReductionStep("COMPONENT-BRUTE", (15, 16), ((15, 16),), 0),
                ],
            ),
        ],
        ids=[
            "r5-beside-r2", "r12-beside-4-cycle", "r2-beside-k33plus",
            "r1-beside-fragment",
        ],
    )
    def test_reference_flags_step_beside_earlier_rule(self, g, steps):
        assert priority_violations(g, ReductionTrace(g, tuple(steps))) == [0]
        _, trace = find_induced_matching_subcubic(g)
        assert priority_violations(g, trace) == []

    @pytest.mark.parametrize(
        "corpus",
        [
            golden_corpus,
            lambda: [build_instance(*e) for e in small_corpus()],
            lambda: [build_instance(*e) for e in determinism_corpus()],
            lambda: [
                gen_random_subcubic(n, m, 1_090_000 + k)
                for k, (n, m) in enumerate(
                    (n, m) for n in range(50, 301, 5) for m in (n * 4 // 3, n * 3 // 2)
                )
            ],
        ],
        ids=["golden", "small", "determinism", "random"],
    )
    def test_no_r5_while_r4_applies(self, corpus):
        for g in corpus():
            if g.max_degree() <= 3:
                _, trace = find_induced_matching_subcubic(g)
                assert priority_violations(g, trace) == []


class TestMidSizeGolden:
    """format_trace on 20k-vertex graphs, where setup scans, heap order and
    the R12 pointer run at a scale the small goldens do not reach."""

    @pytest.mark.parametrize(
        "make,digest",
        [
            (
                lambda: gen_random_subcubic(20_000, 30_000, 1_080_001),
                "f60df6181e9a3c9fe098fe8e1bc29cb9b7a21c67880a3686698ea6735a869989",
            ),
            (
                lambda: gen_random_cubic(20_000, 1_080_002),
                "35c425cebb1bbc59ac8a6eb552118e5dd854882df03f09f08645dc55a2e0775d",
            ),
        ],
        ids=["subcubic", "cubic"],
    )
    def test_trace_sha256(self, make, digest):
        _, trace = find_induced_matching_subcubic(make())
        assert hashlib.sha256(format_trace(trace).encode()).hexdigest() == digest


class TestLedgerCheck:
    def test_synthetic_valid_trace(self):
        g = make_cycle(5)
        trace = ReductionTrace(
            original=g,
            steps=(
                ReductionStep("R6", (0, 1, 2, 4), ((0, 1),), 1),
            ),
        )
        assert ledger_check(trace) == (True, None)

    def test_step_without_added_edge(self):
        g = make_cycle(12)
        trace = ReductionTrace(g, (ReductionStep("R6", (0, 1), (), 0),))
        assert ledger_check(trace) == (False, 0)

    def test_step_over_accounting(self):
        g = make_cycle(12)
        steps = (
            ReductionStep("R6", (0, 1, 2, 3, 4, 5, 6), ((0, 1),), 0),
            ReductionStep("R6", (7, 8, 9, 10, 11), ((8, 9),), 0),
        )
        assert ledger_check(ReductionTrace(g, steps)) == (False, 0)

    def test_component_step_within_per_step_cap(self):
        # a component step is capped like any other: C5's 5 vertices for
        # one edge are within 6 per edge
        g = make_cycle(5)
        steps = (ReductionStep("COMPONENT-BRUTE", (0, 1, 2, 3, 4), ((0, 1),), 0),)
        assert ledger_check(ReductionTrace(g, steps)) == (True, None)

    @staticmethod
    def edge_steps(first: int, count: int) -> list[ReductionStep]:
        """One step per isolated edge first-(first+1), first+2-(first+3), ..."""
        return [
            ReductionStep("COMPONENT-BRUTE", (v, v + 1), ((v, v + 1),), 0)
            for v in range(first, first + 2 * count, 2)
        ]

    @pytest.mark.parametrize("rule", ["COMPONENT-BRUTE", "COMPONENT-K33PLUS"])
    def test_seven_for_one_step_without_k33plus(self, rule):
        # step 0 consumes the 7-cycle for one edge, whatever its name; the
        # five edges after it meet the global bound ceil(17/6) = 3
        g = disjoint_union(make_cycle(7), *[Graph(2, [(0, 1)])] * 5)
        steps = [ReductionStep(rule, tuple(range(7)), ((0, 1),), 0)]
        steps += self.edge_steps(7, 5)
        assert ledger_check(ReductionTrace(g, tuple(steps))) == (False, 0)

    def test_one_k33plus_pays_for_one_step(self):
        # n33plus = 1 pays for the K33+ step but not for a second step of 7
        # vertices for one edge; the global bound ceil(23/6) = 4 is met
        g = disjoint_union(gen_k33plus(), make_cycle(7), *[Graph(2, [(0, 1)])] * 5)
        k33 = ReductionStep("COMPONENT-K33PLUS", tuple(range(7)), ((1, 4),), 0)
        two = ReductionStep("COMPONENT-BRUTE", tuple(range(7, 14)), ((7, 8), (10, 11)), 0)
        cycle = ReductionStep("COMPONENT-BRUTE", tuple(range(7, 14)), ((7, 8),), 0)
        edges = self.edge_steps(14, 5)
        assert ledger_check(ReductionTrace(g, (k33, two, *edges))) == (True, None)
        assert ledger_check(ReductionTrace(g, (k33, cycle, *edges))) == (False, 1)
        eight = ReductionStep("R6", tuple(range(7, 15)), ((7, 8),), 0)
        assert ledger_check(ReductionTrace(g, (eight, *edges[1:]))) == (False, 0)

    def test_trace_leaving_vertices_unconsumed(self):
        # each step is within its cap and the 3 edges meet ceil(16/6) = 3,
        # but 10..15 are neither removed nor isolated
        g = make_path(16)
        added = ((0, 1), (4, 5), (8, 9))
        steps = (ReductionStep("COMPONENT-BRUTE", tuple(range(10)), added, 0),)
        assert ledger_check(ReductionTrace(g, steps)) == (False, None)

    def test_overstated_isolated_count(self):
        # six claimed isolated vertices would make the count 16 = n - i,
        # within the cap of 18, but removing 0..9 isolates none: 10..15 are
        # still joined
        g = make_path(16)
        added = ((0, 1), (4, 5), (8, 9))
        steps = (ReductionStep("COMPONENT-BRUTE", tuple(range(10)), added, 6),)
        assert ledger_check(ReductionTrace(g, steps)) == (False, 0)

    def test_matched_edge_left_alive(self):
        # step 0 matches 1-2 but leaves 2 alive, so step 1 can match 2-3:
        # each step is within its cap and the two consume the path, but the
        # "matching" shares vertex 2
        g = make_path(4)
        steps = (
            ReductionStep("R2", (0, 1), ((1, 2),), 0),
            ReductionStep("R2", (2, 3), ((2, 3),), 0),
        )
        assert ledger_check(ReductionTrace(g, steps)) == (False, 0)

    @pytest.mark.parametrize(
        "removed",
        [(*range(10), *range(6)), (*range(10), *range(16, 22)), (*range(15), -1)],
        ids=["repeated", "beyond-n", "negative"],
    )
    def test_removed_vertices_are_graph_vertices_once(self, removed):
        # each lists 16 = n - i vertices, within the cap of 18, without
        # consuming the whole path (-1 would index vertex 15)
        g = make_path(16)
        added = ((0, 1), (4, 5), (8, 9))
        steps = (ReductionStep("COMPONENT-BRUTE", removed, added, 0),)
        assert ledger_check(ReductionTrace(g, steps)) == (False, 0)

    def test_duplicate_removed_vertex(self):
        g = make_cycle(12)
        steps = (
            ReductionStep("R6", (0, 1, 2), ((0, 1),), 0),
            ReductionStep("R6", (2, 3, 4), ((3, 4),), 0),
        )
        assert ledger_check(ReductionTrace(g, steps)) == (False, 1)

    def test_added_edge_not_in_graph(self):
        g = make_cycle(12)
        steps = (ReductionStep("R6", (0, 1), ((0, 2),), 0),)
        assert ledger_check(ReductionTrace(g, steps)) == (False, 0)

    def test_added_edge_touches_removed_vertex(self):
        g = make_cycle(12)
        steps = (
            ReductionStep("R6", (0, 1, 2), ((0, 1),), 0),
            ReductionStep("R6", (3, 4, 5), ((2, 3),), 0),
        )
        assert ledger_check(ReductionTrace(g, steps)) == (False, 1)

    def test_global_shortfall(self):
        g = make_cycle(20)  # bound is ceil(20/6) = 4
        steps = (
            ReductionStep("R6", (0, 1, 2), ((0, 1),), 0),
            ReductionStep("R6", (5, 6, 7), ((5, 6),), 0),
        )
        assert ledger_check(ReductionTrace(g, steps)) == (False, None)

    def test_k33plus_component_cancels_bound(self):
        g = gen_k33plus()
        steps = (ReductionStep("COMPONENT-K33PLUS", tuple(range(7)), ((1, 4),), 0),)
        assert ledger_check(ReductionTrace(g, steps)) == (True, None)

    def test_negative_isolated_rejected(self):
        g = make_cycle(12)
        steps = (ReductionStep("R6", (0, 1, 2), ((0, 1),), -1),)
        assert ledger_check(ReductionTrace(g, steps)) == (False, 0)


class TestFormatTrace:
    def test_k33plus_text(self):
        _, trace = find_induced_matching_subcubic(gen_k33plus())
        assert format_trace(trace) == (
            "rule=COMPONENT-K33PLUS removed=0,1,2,3,4,5,6 added=1-4 isolated=0\n"
            "matching=1 bound=1 ok=true\n"
        )

    def test_empty_graph_text(self):
        _, trace = find_induced_matching_subcubic(Graph(0, []))
        assert format_trace(trace) == "matching=0 bound=0 ok=true\n"

    def test_line_count(self):
        _, trace = find_induced_matching_subcubic(make_path(13))
        text = format_trace(trace)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == len(trace.steps) + 1
        assert lines[-1] == "matching=4 bound=3 ok=true"


def subdivided_prism() -> Graph:
    """The prism with its rung 2-5 subdivided by vertex 6: degree multiset
    {3^6, 2} and a closed ball around vertex 6, but not K33+."""
    return Graph(
        7,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
         (0, 3), (1, 4), (2, 6), (5, 6)],
    )


def relabeled(g: Graph, rng: SplitMix64) -> Graph:
    """g with its vertices permuted by a shuffle drawn from rng."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestCensusAgreement:
    def test_bound_and_components_agree(self, tmp_path, capsys):
        graphs = [make_mixed()]
        graphs += [build_instance(*entry) for entry in small_corpus()]
        for g in graphs:
            rep = count_invariants(g)
            # the summary line's bound does not depend on the steps
            summary = format_trace(ReductionTrace(g, ())).split()
            assert summary[1] == f"bound={rep.thm2_bound}"
            assert rep.thm2_bound == thm2_of(g)
        # components are counted where they are printed, by stats
        graphs = [make_mixed()]
        graphs += [build_instance(*entry) for entry in determinism_corpus()]
        path = tmp_path / "g.el"
        for g in graphs:
            path.write_text(write_edge_list(g))
            assert main(["stats", str(path), "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["components"] == len(connected_components(g))

    def check_census(self, graphs):
        for g in graphs:
            iso, n33 = census_by_walk(g)
            assert _census(g) == (iso, n33), g
            rep = count_invariants(g)
            assert (rep.isolated, rep.n33plus) == (iso, n33)

    def test_census_without_walk_agrees(self):
        graphs = [make_mixed()]
        graphs += [build_instance(*entry) for entry in small_corpus()]
        self.check_census(graphs)

    def test_k33plus_that_is_not_a_component(self):
        # vertex 6 has degree 2 and neighbors 0 and 3; vertex 1 is on the
        # far side, so its pendant leaves the 7-vertex ball around 6 open
        k33 = list(gen_k33plus().edges)
        pendants = [Graph(8, k33 + [(x, 7)]) for x in (6, 0, 1)]
        # a K33+ block with a tail, and the blocks of the extremal cubic graph
        tailed = Graph(10, k33 + [(6, 7), (7, 8), (8, 9)])
        graphs = pendants + [tailed, gen_extremal_cubic()]
        self.check_census(graphs)
        assert all(_census(g)[1] == 0 for g in graphs)

    def test_k33plus_components_beside_high_degree(self):
        star = Graph(7, [(0, i) for i in range(1, 7)])
        k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        g = disjoint_union(star, gen_k33plus(), k5, gen_k33plus(), Graph(2, []))
        self.check_census([g])
        assert _census(g) == (2, 2)

    def test_closed_ball_that_is_not_k33plus(self):
        g = subdivided_prism()
        self.check_census([g])
        assert _census(g) == (0, 0)

    def test_seeded_unions(self):
        # 1-5 components each, relabeled: K33+, the subdivided prism, and
        # random subcubic and cubic graphs
        graphs = []
        for s in range(3000):
            rng = SplitMix64(260_000 + s)
            parts = []
            for _ in range(1 + rng.below(5)):
                kind = rng.below(4)
                if kind == 0:
                    parts.append(gen_k33plus())
                elif kind == 1:
                    parts.append(subdivided_prism())
                elif kind == 2:
                    n = 5 + rng.below(26)
                    m = rng.below(3 * n // 2 + 1)
                    parts.append(gen_random_subcubic(n, m, rng.below(2**32)))
                else:
                    n = 6 + 2 * rng.below(10)
                    parts.append(gen_random_cubic(n, rng.below(2**32)))
            graphs.append(relabeled(disjoint_union(*parts), rng))
        self.check_census(graphs)
        assert sum(_census(g)[1] for g in graphs) > 2000

    def test_isolated_only_and_empty(self):
        self.check_census([Graph(5, []), Graph(0, [])])
        assert _census(Graph(5, [])) == (5, 0)
        assert _census(Graph(0, [])) == (0, 0)

    def test_mixed_graph_exercises_every_term(self):
        g = make_mixed()
        rep = count_invariants(g)
        assert rep.isolated > 0 and rep.n33plus == 2
        assert rep.thm2_bound < -(-(g.n - rep.isolated) // 6)
        _, trace = run_checked(g)
        rules = {s.rule for s in trace.steps}
        assert {"R1", "COMPONENT-K33PLUS"} <= rules


def shifted_step(step: ReductionStep, k: int) -> ReductionStep:
    """step with every vertex id raised by k."""
    return ReductionStep(
        step.rule,
        tuple(v + k for v in step.removed),
        tuple((u + k, v + k) for u, v in step.added),
        step.isolated_created,
    )


@st.composite
def locality_parts(draw, may_be_k33plus: bool = False) -> Graph:
    """A random subcubic or cubic graph of order 5-80, or with
    ``may_be_k33plus`` also K33+."""
    kinds = ["subcubic", "cubic"] + (["k33plus"] if may_be_k33plus else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "k33plus":
        return gen_k33plus()
    n = draw(st.integers(5, 80))
    s = draw(st.integers(0, 2**32))
    if kind == "cubic":
        return gen_random_cubic(n + n % 2, s)
    return gen_random_subcubic(n, draw(st.integers(0, 3 * n // 2)), s)


class TestComponentLocality:
    """The engine treats each part of a disjoint union as it would alone."""

    @hypothesis.seed(260_001)
    @settings(max_examples=400, deadline=None)
    @given(locality_parts(), locality_parts(may_be_k33plus=True))
    def test_union_is_the_parts_side_by_side(self, a, b):
        matching_a, trace_a = find_induced_matching_subcubic(a)
        matching_b, trace_b = find_induced_matching_subcubic(b)
        matching, trace = find_induced_matching_subcubic(disjoint_union(a, b))
        k = a.n
        assert matching == matching_a + [(u + k, v + k) for u, v in matching_b]
        # each step stays inside one part, and each part's steps are its own
        in_a = [s for s in trace.steps if max(s.removed) < k]
        in_b = [s for s in trace.steps if min(s.removed) >= k]
        assert len(in_a) + len(in_b) == len(trace.steps)
        assert in_a == list(trace_a.steps)
        assert in_b == [shifted_step(s, k) for s in trace_b.steps]


@cache
def anchor_corpus() -> tuple[Graph, ...]:
    """Graphs with and without K33+ subgraphs: make_mixed, the tailed K33+,
    the extremal cubic graph, 150 random subcubic graphs with 1-3 K33+
    blocks attached, and every 20th instance of acceptance criterion 02
    and every 5th of criterion 03."""
    graphs = [make_mixed(), make_k33plus_with_tail(), gen_extremal_cubic()]
    graphs += [
        with_k33plus_blocks(
            gen_random_subcubic(n, n * (4 + k % 2) // (3 + k % 2), 1_110_000 + k),
            1 + k % 3,
            k,
        )
        for k, n in enumerate(range(20, 170))
    ]
    for i in range(0, 10_000, 20):
        n = 4 + (7 * i) % 197
        graphs.append(gen_random_subcubic(n, ((i % 3) + 1) * n // 2, 910_000 + i))
    for i in range(0, 1_000, 5):
        graphs.append(gen_random_cubic(4 + 2 * ((13 * i) % 99), 920_000 + i))
    return tuple(graphs)


def cubic_beside_short_cycles() -> Graph:
    """A non-cubic component full of triangles and 4-cycles (a path of
    five diamonds) beside cubic ones with them (a ring of four diamonds)
    and with 4-cycles only (the circular ladder of order 14)."""
    return disjoint_union(
        make_diamond_chain(5), make_diamond_chain(4, ring=True), make_circular_ladder(7)
    )


def criterion_03_corpus():
    """The 1,000 random cubic graphs of acceptance criterion 03."""
    return (gen_random_cubic(4 + 2 * ((13 * i) % 99), 920_000 + i) for i in range(1_000))


class TestSetupAnchors:
    """Setup files an R1 key at every subdivision vertex of a K33+ subgraph
    left alive once the small components are consumed, and nowhere else;
    one R10, R11 or R12 key per cubic component of order > 12 and none
    elsewhere; a consumed component gets the oracle's own answer."""

    def test_r1_keys_match_references(self):
        anchors = 0
        for g in anchor_corpus():
            eng = _Engine(g)
            eng._setup()
            n = g.n
            keys = {k - _R1 * n for k in eng.queue if _R1 * n <= k < _R2 * n}
            assert keys == k33plus_subdivision_vertices(g), g
            assert keys == r1_anchors_by_c4_scan(g), g
            anchors += len(keys)
        assert anchors >= 250

    def test_k33plus_pair_goes_to_the_oracle_whole(self):
        # two K33+ joined at their subdivision vertices 6 and 13: after the
        # first R1 step the eight vertices left go to the oracle, so no R1
        # step leaves an order-2 component; the tailed K33+ after them keeps
        # its own R1 step
        k = gen_k33plus()
        pair = Graph(14, [*disjoint_union(k, k).edges, (6, 13)])
        g = disjoint_union(pair, make_k33plus_with_tail())
        _, trace = run_checked(g)
        assert [s.rule for s in trace.steps] == [
            "R1", "COMPONENT-BRUTE", "R1", "COMPONENT-BRUTE"
        ]
        assert trace.steps[1].removed == tuple(range(6, 14))
        assert priority_violations(g, trace) == []

    def test_short_cycle_keys_match_references(self):
        # one key per cubic component of order > 12: R10 at its first
        # triangle root, else R11 at its first 4-cycle root, else R12 at its
        # smallest vertex, with the cycle stored for R10 and R11
        filed = Counter()
        for g in (cubic_beside_short_cycles(), *anchor_corpus()):
            eng = _Engine(g)
            eng._setup()
            n = g.n
            tri, sq = short_cycle_anchors_in_cubic_components(g)
            r12 = r12_anchors_in_cubic_components(g)
            want = []
            for comp in connected_components(g):
                if comp[0] in r12:
                    rule, s = next(
                        ((rule, s) for rule, roots in ((_R10, tri), (_R11, sq))
                         for s in comp if s in roots),
                        (_R12, comp[0]),
                    )
                    want.append(rule * n + s)
                    filed[rule] += 1
            assert sorted(k for k in eng.queue if k >= _R10 * n) == sorted(want), g
            assert set(eng.cycles) == {k % n for k in want if k < _R12 * n}, g
        assert filed[_R10] >= 150 and filed[_R11] >= 40 and filed[_R12] >= 8

    def test_built_graph_files_only_the_cubic_cycles(self):
        g = cubic_beside_short_cycles()
        eng = _Engine(g)
        eng._setup()
        keys = sorted(k for k in eng.queue if k >= _R10 * g.n)
        # the ring of diamonds at 20..35 has its first triangle at 20, and
        # the ladder at 36..49 its first 4-cycle at 36; nothing from the
        # path of diamonds at 0..19
        assert keys == [_R10 * g.n + 20, _R11 * g.n + 36]
        assert eng.cycles == {20: (20, 21, 22), 36: (36, 37, 44, 43)}

    def test_r12_fires_at_each_untouched_cubic_component(self):
        # the ring of diamonds at 20..35 goes first, to R10 and the oracle,
        # so its R12 key pops dead; the dodecahedron at 0..19 and the
        # Heawood graph at 36..49 have girth 5 and 6 and get R12 in turn
        g = disjoint_union(
            make_dodecahedron(), make_diamond_chain(4, ring=True), make_lcf(14, [5, -5])
        )
        _, trace = run_checked(g)
        short = [
            (s.rule, s.added) for s in trace.steps if s.rule in ("R10", "R11", "R12")
        ]
        assert short == [("R10", ((20, 21),)), ("R12", ((0, 1),)), ("R12", ((36, 37),))]
        assert priority_violations(g, trace) == []

    def test_short_cycle_rules_stay_in_cubic_components(self):
        fired = 0
        graphs = chain([cubic_beside_short_cycles()], anchor_corpus(), criterion_03_corpus())
        for g in graphs:
            _, trace = find_induced_matching_subcubic(g)
            assert short_cycle_steps_outside_cubic_components(g, trace) == [], g
            # and one step at most per input component
            owner = {v: comp[0] for comp in connected_components(g) for v in comp}
            short = [
                owner[s.removed[0]] for s in trace.steps if s.rule in ("R10", "R11", "R12")
            ]
            assert len(short) == len(set(short)), g
            fired += len(short)
        assert fired >= 1_000

    def test_components_get_the_oracle_witness(self):
        checked = 0
        for g in anchor_corpus():
            _, trace = find_induced_matching_subcubic(g)
            for step in trace.steps:
                if step.rule != "COMPONENT-BRUTE":
                    continue
                comp = step.removed
                local = {v: i for i, v in enumerate(comp)}
                sub = Graph(
                    len(comp),
                    [(local[v], local[w]) for v in comp for w in g.adj[v] if w > v and w in local],
                )
                size, witness = exact_strong_matching_number(sub)
                assert size == len(step.added)
                assert tuple((comp[a], comp[b]) for a, b in witness) == step.added
                checked += 1
        assert checked >= 4_000


LOUD_CASES = [(first, g) for first, g, _ in RULE_CASES]
LOUD_CASES.append(("R1", gen_extremal_cubic()))


class TestLoudFailure:
    """A step that breaks the 6-per-edge accounting raises; nothing patches
    it over with a component solve.  Each case's first step is a rule step
    on a component past the oracle threshold."""

    @pytest.fixture
    def broken_rule(self, monkeypatch):
        real = strongmatch.reduction._ring

        class AnyDegree:
            def __eq__(self, other):
                return True

        def over_budget(adj, alive, removal):
            # thirteen phantom ring vertices, ids -1..-13, each counted as
            # isolated whatever its degree, exceed 6 per edge for any step
            phantoms = dict.fromkeys(range(-13, 0), AnyDegree())
            return {**real(adj, alive, removal), **phantoms}

        monkeypatch.setattr(strongmatch.reduction, "_ring", over_budget)

    @pytest.mark.parametrize("first,g", LOUD_CASES, ids=[c[0] for c in LOUD_CASES])
    def test_engine_raises(self, broken_rule, first, g):
        with pytest.raises(LedgerViolationError, match=f"rule {first} at vertex"):
            find_induced_matching_subcubic(g)

    @pytest.mark.parametrize("first,g", LOUD_CASES, ids=[c[0] for c in LOUD_CASES])
    def test_cli_exits_1(self, broken_rule, tmp_path, capsys, first, g):
        p = tmp_path / "g.el"
        p.write_text(write_edge_list(g, []))
        assert main(["match", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"ledger violation: rule {first} at vertex" in err


    @pytest.mark.parametrize("rule", [_R10, _R11])
    def test_short_cycle_anchor_without_cycle_raises(self, rule):
        # the lookup runs only where the queue order rules this out: when
        # an R10 or R11 key pops, its anchor's cycle is intact
        eng = _Engine(make_path(20))
        with pytest.raises(LedgerViolationError, match=f"R{rule} anchor 5 is alive"):
            eng._lookup(rule, 5)

    def test_r1_anchor_without_k33plus_raises(self):
        # only R1 anchors fire before the last R1 key pops, and each leaves
        # every other K33+ whole
        eng = _Engine(make_path(20))
        with pytest.raises(
            LedgerViolationError, match=r"R1 anchor 5 is alive but its K33\+ is gone"
        ):
            eng._lookup(_R1, 5)

    def test_degree_two_anchor_beside_end_vertex_raises(self):
        # an R6 key pops only once no end-vertex is alive
        eng = _Engine(make_path(20))
        with pytest.raises(
            LedgerViolationError, match="R6 anchor 1 of degree 2 is beside an end-vertex"
        ):
            eng._lookup(_R6, 1)

    def test_lost_triangle_fails_the_run(self, monkeypatch):
        # the stored triangle loses a vertex before its R10 key pops
        real = _Engine._setup

        def setup_then_kill(self):
            real(self)
            for cycle in self.cycles.values():
                self.alive[cycle[-1]] = 0

        monkeypatch.setattr(_Engine, "_setup", setup_then_kill)
        with pytest.raises(
            LedgerViolationError, match="R10 anchor 0 is alive but its short cycle is gone"
        ):
            find_induced_matching_subcubic(triangle_capped_ladder())

    @pytest.fixture
    def broken_oracle(self, monkeypatch):
        # the oracle keeps only the lowest edge of its witness, so the
        # 9-vertex path gets one edge where the guard needs two
        real = strongmatch.reduction._max_independent

        def lowest_bit(masks):
            best = real(masks)
            return best & -best

        monkeypatch.setattr(strongmatch.reduction, "_max_independent", lowest_bit)

    @staticmethod
    def path_and_two_edges() -> Graph:
        # slack in the two single edges would cover the path's shortfall in
        # a global count: 3 edges against the bound ceil(13/6) = 3
        return disjoint_union(make_path(9), Graph(2, [(0, 1)]), Graph(2, [(0, 1)]))

    def test_oracle_shortfall_raises(self, broken_oracle):
        with pytest.raises(
            LedgerViolationError, match="rule COMPONENT-BRUTE at vertex 0"
        ):
            find_induced_matching_subcubic(self.path_and_two_edges())

    def test_oracle_shortfall_exits_1(self, broken_oracle, tmp_path, capsys):
        p = tmp_path / "g.el"
        p.write_text(write_edge_list(self.path_and_two_edges(), []))
        assert main(["match", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "ledger violation: rule COMPONENT-BRUTE at vertex 0" in err

    @pytest.fixture
    def unfiled(self, monkeypatch):
        # reported vertices are never queued, so the path's queue is empty
        # from the start and every vertex stays alive
        monkeypatch.setattr(_Engine, "_file", lambda self, vertices: None)

    def test_vertex_left_alive_fails_the_run(self, unfiled):
        with pytest.raises(
            LedgerViolationError, match="vertex 0 is alive but the queue is empty"
        ):
            find_induced_matching_subcubic(make_path(20))

    def test_vertex_left_alive_exits_1(self, unfiled, tmp_path, capsys):
        p = tmp_path / "g.el"
        p.write_text(write_edge_list(make_path(20), []))
        assert main(["match", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "ledger violation: vertex 0 is alive but the queue is empty" in err


class TestPreconditionsAndBudget:
    def test_degree_four_rejected(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        with pytest.raises(GraphError):
            find_induced_matching_subcubic(g)


class TestDeterminism:
    def test_double_run_identical(self):
        for seed in (3, 14, 159):
            g = gen_random_subcubic(80, 110, seed)
            a = find_induced_matching_subcubic(g)
            b = find_induced_matching_subcubic(g)
            assert a[0] == b[0]
            assert a[1].steps == b[1].steps


class TestRandomized:
    def test_random_subcubic_batch(self):
        for seed in range(200):
            g = gen_random_subcubic(12 + seed % 49, 70, 5000 + seed)
            matching, trace = run_checked(g)
            if g.m <= 25:
                exact, _ = exact_strong_matching_number(g)
                assert len(matching) <= exact

    def test_random_cubic_batch(self):
        for seed in range(40):
            g = gen_random_cubic(14 + 2 * (seed % 20), 6000 + seed)
            matching, _ = run_checked(g)
            m9 = -(-g.m // 9)
            assert len(matching) >= m9

    def test_disconnected_mixture(self):
        # K33+ copy, a path, a cycle and isolated vertices in one graph
        base = gen_k33plus()
        edges = list(base.edges)
        edges += [(u + 7, v + 7) for u, v in make_path(8).edges]
        edges += [(u + 15, v + 15) for u, v in make_cycle(9).edges]
        g = Graph(27, edges)  # vertices 24..26 isolated
        matching, trace = run_checked(g)
        rep = count_invariants(g)
        assert rep.isolated == 3
        assert rep.n33plus == 1
        assert len(matching) >= rep.thm2_bound
