import hashlib
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmatch import (
    Graph,
    GraphError,
    count_invariants,
    exact_strong_matching_number,
    forest_greedy_induced_matching,
    gen_random_bounded_degree,
    gen_random_forest,
    gen_random_girth6,
    girth6_induced_matching,
    greedy_induced_matching,
    verify_induced_matching,
)
from strongmatch import greedy as greedy_module
from strongmatch.greedy import MASK_EDGE_CAP, _greedy_by_lists, _greedy_by_masks

from bruteforce import forest_greedy_by_conflicts, least_conflict_greedy_by_rescan
from corpus import build_instance, determinism_corpus, small_corpus
from util import make_cycle, make_path, make_petersen, make_spider, make_star

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def assert_valid(g, matching):
    assert verify_induced_matching(g, matching) is None


@st.composite
def graphs_with_isolated(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return Graph(n, [])
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=30))
    return Graph(n, edges)


def make_complete(k):
    return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


class TestGeneralGreedy:
    @pytest.mark.parametrize(
        "g,want",
        [
            (make_path(7), [(0, 1), (3, 4)]),
            (K4, [(0, 1)]),
            (make_star(3), [(0, 1)]),
            (make_cycle(6), [(0, 1), (3, 4)]),
            (make_petersen(), [(0, 1), (3, 8), (7, 9)]),
            (Graph(3, []), []),
        ],
    )
    def test_frozen(self, g, want):
        got = greedy_induced_matching(g)
        assert got == want
        assert_valid(g, got)

    def test_maximal(self):
        # greedy output admits no further compatible edge
        for seed in range(25):
            g = gen_random_bounded_degree(30, 55, 5, 100 + seed)
            matching = greedy_induced_matching(g)
            assert_valid(g, matching)
            used = set()
            for u, v in matching:
                used.update((u, v), g.adj[u], g.adj[v])
            for u, v in g.edges:
                if (u, v) not in matching:
                    assert u in used or v in used

    def test_meets_degree_bound(self):
        for seed in range(60):
            dmax = 3 + seed % 4
            g = gen_random_bounded_degree(40, 90, dmax, 200 + seed)
            matching = greedy_induced_matching(g)
            rep = count_invariants(g)
            assert len(matching) >= ceil(rep.greedy_general_bound)

    def test_never_exceeds_optimum_small(self):
        for seed in range(30):
            g = gen_random_bounded_degree(10, 14, 4, 300 + seed)
            matching = greedy_induced_matching(g)
            assert_valid(g, matching)
            exact, _ = exact_strong_matching_number(g)
            assert len(matching) <= exact

    def test_deterministic(self):
        g = gen_random_bounded_degree(40, 80, 5, 7)
        assert greedy_induced_matching(g) == greedy_induced_matching(g)

    def test_mid_size_sha256(self):
        # about 20k edges at maximum degree 6: the flat conflict list holds
        # up to 61 entries per edge, and the queue runs over a thousand rounds
        g = gen_random_bounded_degree(7_000, 20_000, 6, 1_080_003)
        assert (g.m, g.max_degree()) == (20_000, 6)
        text = ",".join(f"{u}-{v}" for u, v in greedy_induced_matching(g))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4a2ec136eddb589a1b79688b2c4b12bda898e57b6d3a1ddac2dd4afa3ea17542"
        )


def assert_paths_match_rescan(g, *context):
    """Both representations of the general greedy, called directly, pick
    what a full recount of live conflicts would pick."""
    want = least_conflict_greedy_by_rescan(g)
    for path in (_greedy_by_masks, _greedy_by_lists):
        assert path(g) == want, (path.__name__, *context)


class TestGeneralGreedyMatchesRescan:
    """The queue picks what a full recount of live conflicts would pick."""

    def test_corpora(self):
        for family, params, seed in small_corpus() + determinism_corpus():
            g = build_instance(family, params, seed)
            assert_paths_match_rescan(g, family, params, seed)

    def test_bounded_degree(self):
        for seed in range(120):
            dmax = 1 + seed % 6
            g = gen_random_bounded_degree(24, 10 + seed % 50, dmax, 1_200 + seed)
            assert_paths_match_rescan(g, seed)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
    def test_stars_and_cliques(self, k):
        for g in (make_star(k), make_complete(k), make_complete(k + 1)):
            assert_paths_match_rescan(g, g.n)

    @pytest.mark.parametrize(
        "g",
        [
            Graph(0, []),
            Graph(5, []),
            Graph(6, [(1, 4)]),
            Graph(9, [(0, 8), (2, 3), (3, 5), (6, 7)]),
        ],
    )
    def test_edgeless_and_isolated(self, g):
        assert_paths_match_rescan(g)

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_isolated())
    def test_hypothesis(self, g):
        assert_paths_match_rescan(g)


class TestGeneralGreedyPaths:
    """The mask and list representations agree where the rescan is too slow."""

    @pytest.mark.parametrize(
        "m,dmax",
        [
            (m, d)
            for m in (MASK_EDGE_CAP - 1, MASK_EDGE_CAP, MASK_EDGE_CAP + 1)
            for d in range(1, 9)
        ]
        + [(1_536, 5), (2_048, 2), (2_048, 8), (3_072, 6), (4_096, 3), (4_096, 7)],
    )
    def test_paths_agree(self, m, dmax):
        # room for every edge plus isolated vertices
        n = 3 * m // dmax + 50
        g = gen_random_bounded_degree(n, m, dmax, 1_090_000 + m + dmax)
        assert (g.m, g.max_degree()) == (m, dmax)
        assert any(not g.adj[v] for v in range(n))
        got = _greedy_by_masks(g)
        assert got == _greedy_by_lists(g)
        assert greedy_induced_matching(g) == got

    @pytest.mark.parametrize(
        "m,path",
        [(MASK_EDGE_CAP, "_greedy_by_masks"), (MASK_EDGE_CAP + 1, "_greedy_by_lists")],
    )
    def test_cap_picks_the_path(self, monkeypatch, m, path):
        ran = []
        for name in ("_greedy_by_masks", "_greedy_by_lists"):
            monkeypatch.setattr(greedy_module, name, lambda g, name=name: ran.append(name))
        g = gen_random_bounded_degree(3 * m, m, 3, 1_091_000 + m)
        assert g.m == m
        greedy_induced_matching(g)
        assert ran == [path]

    def test_below_cap_sha256(self):
        # the mask path at maximum degree 6; the digest was taken from the
        # list path, before the mask path existed
        g = gen_random_bounded_degree(400, 1_000, 6, 1_092_000)
        assert (g.m, g.max_degree()) == (1_000, 6)
        text = ",".join(f"{u}-{v}" for u, v in greedy_induced_matching(g))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "855412546d89efa920837b9d98d0f3e0620a9981431d425f59e9fcc38a3eab32"
        )


class TestForestGreedy:
    @pytest.mark.parametrize(
        "g,want",
        [
            (Graph(2, [(0, 1)]), [(0, 1)]),
            (make_path(7), [(2, 3), (5, 6)]),
            (make_spider(), [(1, 2), (3, 4), (5, 6)]),
            (make_star(5), [(0, 1)]),
            (Graph(3, []), []),
        ],
    )
    def test_frozen(self, g, want):
        got = forest_greedy_induced_matching(g)
        assert got == want
        assert_valid(g, got)

    def test_rejects_cycles(self):
        with pytest.raises(GraphError):
            forest_greedy_induced_matching(make_cycle(6))

    def test_rejects_cycle_in_later_component(self):
        # the path 0-1-2 is walked first; only the triangle 4-5-6 has a cycle
        g = Graph(7, [(0, 1), (1, 2), (4, 5), (4, 6), (5, 6)])
        with pytest.raises(GraphError, match="^forest strategy requires an acyclic graph$"):
            forest_greedy_induced_matching(g)

    def test_meets_forest_bound(self):
        for seed in range(80):
            g = gen_random_forest(45, 400 + seed)
            matching = forest_greedy_induced_matching(g)
            assert_valid(g, matching)
            rep = count_invariants(g)
            assert rep.greedy_forest_bound is not None
            assert len(matching) >= ceil(rep.greedy_forest_bound)

    def test_never_exceeds_optimum_small(self):
        for seed in range(30):
            g = gen_random_forest(12, 500 + seed)
            matching = forest_greedy_induced_matching(g)
            exact, _ = exact_strong_matching_number(g)
            assert len(matching) <= exact

    def test_matches_conflict_reference(self):
        for i in range(500):
            n = 1 + i % 300
            g = gen_random_forest(n, 1_070_000 + i, attach_percent=i % 101)
            assert forest_greedy_induced_matching(g) == forest_greedy_by_conflicts(g), i

    def test_large_sha256(self):
        g = gen_random_forest(20_000, 1_077_001)
        assert (g.m, g.max_degree()) == (14_993, 12)
        text = ",".join(f"{u}-{v}" for u, v in forest_greedy_induced_matching(g))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fb76c839f6b294c8c0794fb4eededc51c71c2407ad537b078731355fe3da8a73"
        )

    def test_beats_general_greedy_on_paths(self):
        # the leaf-first order matches both guarantees on long paths
        g = make_path(30)
        forest = forest_greedy_induced_matching(g)
        general = greedy_induced_matching(g)
        assert len(forest) >= len(general)


class TestGirth6:
    @pytest.mark.parametrize(
        "g,want",
        [
            (make_cycle(6), [(0, 1), (3, 4)]),
            (make_cycle(7), [(0, 1), (3, 4)]),
            (make_star(4), [(0, 1)]),
            (make_path(4), [(0, 1)]),
            (Graph(3, []), []),
        ],
    )
    def test_frozen(self, g, want):
        got = girth6_induced_matching(g)
        assert got == want
        assert_valid(g, got)

    def test_forest_instance_frozen(self):
        g = gen_random_forest(15, 9)
        assert girth6_induced_matching(g) == [(1, 8), (2, 12), (3, 5)]

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_rejects_short_girth(self, k):
        with pytest.raises(GraphError):
            girth6_induced_matching(make_cycle(k))

    def test_meets_prop1_bound(self):
        for seed in range(60):
            dmax = 2 + seed % 4
            g = gen_random_girth6(40, dmax, 600 + seed)
            matching = girth6_induced_matching(g)
            assert_valid(g, matching)
            rep = count_invariants(g)
            if rep.prop1_bound is not None:
                assert len(matching) >= rep.prop1_bound

    def test_never_exceeds_optimum_small(self):
        for seed in range(25):
            g = gen_random_girth6(12, 3, 700 + seed)
            if g.m > 25:
                continue
            matching = girth6_induced_matching(g)
            exact, _ = exact_strong_matching_number(g)
            assert len(matching) <= exact

    def test_random_girth6_instance(self):
        g = gen_random_girth6(30, 4, 2)
        matching = girth6_induced_matching(g)
        assert matching == [
            (0, 13), (1, 3), (5, 7), (6, 16), (8, 12), (9, 19), (15, 28),
        ]
        rep = count_invariants(g)
        assert rep.prop1_bound == 4
        assert len(matching) >= rep.prop1_bound

    def test_large_sha256(self):
        # 3,700 of its 4,479 picks match a pendant, the rest an edge
        g = gen_random_girth6(20_000, 4, 1_090_001)
        assert (g.m, g.max_degree()) == (39_735, 4)
        text = ",".join(f"{u}-{v}" for u, v in girth6_induced_matching(g))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5b8b718b74b3e09043c14c4e023cdd78a6f1e5ac424353b34fa64988e76d9c37"
        )
