import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmatch import (
    Graph,
    GraphError,
    BudgetExceededError,
    exact_strong_matching_number,
    gen_extremal_cubic,
    gen_k33plus,
    gen_random_bounded_degree,
    gen_random_subcubic,
    verify_induced_matching,
)

from strongmatch.oracle import _conflict_masks

from bruteforce import (
    _edges_conflict,
    exhaustive_strong_matching_number,
    max_induced_matching_by_subsets,
)
from util import make_cycle, make_path, make_petersen, make_star


@st.composite
def tiny_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return Graph(n, [])
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=12))
    return Graph(n, edges)


FROZEN = [
    (make_path(2), 1),
    (make_path(5), 2),
    (make_path(7), 2),
    (make_cycle(5), 1),
    (make_cycle(6), 2),
    (make_cycle(7), 2),
    (make_star(3), 1),
    (Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), 1),  # K4
    (make_petersen(), 3),
    (gen_k33plus(), 1),
    (gen_extremal_cubic(), 5),
]


class TestExact:
    @pytest.mark.parametrize("g,want", FROZEN)
    def test_frozen_values(self, g, want):
        value, witness = exact_strong_matching_number(g)
        assert value == want
        assert len(witness) == value
        assert verify_induced_matching(g, witness) is None

    def test_empty(self):
        assert exact_strong_matching_number(Graph(3, [])) == (0, [])

    def test_deterministic_witness(self):
        g = make_petersen()
        a = exact_strong_matching_number(g)
        b = exact_strong_matching_number(g)
        assert a == b

    def test_edge_cap(self):
        g = make_cycle(70)
        with pytest.raises(GraphError):
            exact_strong_matching_number(g)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceededError) as exc:
            exact_strong_matching_number(make_petersen(), budget=0)
        assert exc.value.nodes == 1

    def test_budget_generous_is_fine(self):
        value, _ = exact_strong_matching_number(make_petersen(), budget=10_000_000)
        assert value == 3


class TestExhaustive:
    @pytest.mark.parametrize(
        "g,want",
        [
            (make_path(7), 2),
            (make_cycle(5), 1),
            (make_cycle(6), 2),
            (make_petersen(), 3),
            (gen_k33plus(), 1),
        ],
    )
    def test_frozen_values(self, g, want):
        assert exhaustive_strong_matching_number(g) == want

    def test_disjoint_edges_decompose(self):
        # 12 disjoint edges: conflict graph is empty, but per-component
        # enumeration keeps the work linear
        g = Graph(24, [(2 * i, 2 * i + 1) for i in range(12)])
        assert exhaustive_strong_matching_number(g) == 12

    @settings(max_examples=250, deadline=None)
    @given(tiny_graphs())
    def test_three_way_agreement(self, g):
        want = max_induced_matching_by_subsets(g)
        assert exhaustive_strong_matching_number(g) == want
        assert exact_strong_matching_number(g)[0] == want


def masks_of(g: Graph) -> list[int]:
    return _conflict_masks(g.adj, g.edges)


class TestConflictGraph:
    def test_c5_is_complete(self):
        masks = masks_of(make_cycle(5))
        assert len(masks) == 5
        full = (1 << 5) - 1
        for i, mask in enumerate(masks):
            assert mask == full & ~(1 << i)

    def test_disjoint_edges_no_conflicts(self):
        assert masks_of(Graph(4, [(0, 1), (2, 3)])) == [0, 0]

    def test_path_conflicts(self):
        # P4 edges 0-1, 1-2, 2-3: middle conflicts with both, ends with
        # middle and with each other via the adjacency 1-2
        assert masks_of(make_path(4)) == [0b110, 0b101, 0b011]

    def test_neighbors_without_edges_add_nothing(self):
        # the path 1-2-3 inside the adjacency of a P5, its end edges left
        # out, as the engine passes a component beside deleted vertices
        g = make_path(5)
        assert _conflict_masks(g.adj, [(1, 2), (2, 3)]) == [0b10, 0b01]

    def test_agrees_with_reference_relation(self):
        # subcubic graphs, then graphs of maximum degree 4-6 on enough
        # vertices to leave some isolated
        graphs = [
            gen_random_subcubic(12, 6 + seed % 13, 1_100_000 + seed) for seed in range(60)
        ]
        graphs += [
            gen_random_bounded_degree(30, 10 + seed % 40, 4 + seed % 3, 1_101_000 + seed)
            for seed in range(30)
        ]
        assert any(g.max_degree() == 6 for g in graphs)
        assert any(not g.adj[v] for g in graphs for v in range(g.n))
        for seed, g in enumerate(graphs):
            want = [
                sum(
                    1 << j
                    for j, f in enumerate(g.edges)
                    if j != i and _edges_conflict(g, e, f)
                )
                for i, e in enumerate(g.edges)
            ]
            assert masks_of(g) == want, seed


class TestAgainstReduction:
    def test_oracle_at_least_reduction_on_random(self):
        from strongmatch import find_induced_matching_subcubic

        for seed in range(40):
            g = gen_random_subcubic(16, 20, seed)
            matching, _ = find_induced_matching_subcubic(g)
            value, _ = exact_strong_matching_number(g)
            assert len(matching) <= value
