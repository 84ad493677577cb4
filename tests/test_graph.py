import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmatch import (
    Graph,
    GraphError,
    GraphParseError,
    SplitMix64,
    connected_components,
    count_invariants,
    gen_extremal_cubic,
    gen_k33plus,
    gen_random_bounded_degree,
    gen_random_cubic,
    gen_random_forest,
    gen_random_girth6,
    gen_random_subcubic,
    girth,
    normalize_edge,
    parse_graph,
    verify_induced_matching,
    write_edge_list,
)
from strongmatch.graph import (
    _conflicts,
    _delete,
    _incident_lists,
    _integer,
    _isolated_after,
    _k33plus_at,
    _short_cycles,
)

from bruteforce import (
    _edges_conflict,
    girth_by_bfs_from_every_root,
    girth_by_enumeration,
    is_k33plus_by_isomorphism,
    short_cycles_by_enumeration,
)
from corpus import build_instance, determinism_corpus, small_corpus
from util import (
    disjoint_union,
    make_circular_ladder,
    make_cycle,
    make_dodecahedron,
    make_k33plus_with_tail,
    make_lcf,
    make_path,
    make_petersen,
    make_star,
)


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return Graph(n, [])
    edges = draw(st.lists(st.sampled_from(possible), unique=True))
    return Graph(n, edges)


def graph_error(n, edges):
    """The text of the GraphError that Graph(n, edges) raises."""
    with pytest.raises(GraphError) as exc:
        Graph(n, edges)
    return str(exc.value)


class TestConstruction:
    def test_basic(self):
        g = Graph(4, [(2, 1), (0, 3)])
        assert g.n == 4
        assert g.m == 2
        assert g.edges == ((0, 3), (1, 2))
        assert g.adj[1] == (2,)
        assert g.adj[3] == (0,)

    def test_neighbors_sorted(self):
        g = Graph(5, [(0, 4), (0, 1), (0, 3)])
        assert g.adj[0] == (1, 3, 4)

    def test_loop_rejected(self):
        assert graph_error(3, [(1, 1)]) == "loop at vertex 1"

    def test_duplicate_rejected(self):
        assert graph_error(3, [(0, 1), (1, 0)]) == "duplicate edge (0, 1)"

    def test_out_of_range_rejected(self):
        assert graph_error(2, [(0, 2)]) == "edge (0, 2) outside vertex range 0..1"
        assert graph_error(3, [(5, 1)]) == "edge (5, 1) outside vertex range 0..2"

    def test_negative_id_rejected(self):
        assert graph_error(3, [(-1, 1)]) == "edge (-1, 1) outside vertex range 0..2"
        assert graph_error(3, [(2, -1)]) == "edge (2, -1) outside vertex range 0..2"

    def test_negative_n_rejected(self):
        assert graph_error(-1, []) == "negative vertex count -1"

    def test_degree_queries(self):
        g = make_star(3)
        assert len(g.adj[0]) == 3
        assert g.degrees() == [3, 1, 1, 1]
        assert g.max_degree() == 3
        assert g.min_degree() == 1
        assert not g.is_cubic()

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.m == 0
        assert g.max_degree() == 0
        assert girth(g) is None

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        c = Graph(3, [(0, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_has_edge_bounds(self):
        g = Graph(2, [(0, 1)])
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 5)
        assert not g.has_edge(-1, 0)

    def test_normalize_edge(self):
        assert normalize_edge(4, 2) == (2, 4)
        assert normalize_edge(2, 4) == (2, 4)


class TestComponents:
    def test_path_single_component(self):
        assert connected_components(make_path(5)) == [[0, 1, 2, 3, 4]]

    def test_disjoint_union(self):
        g = Graph(6, [(0, 1), (3, 4), (4, 5)])
        assert connected_components(g) == [[0, 1], [2], [3, 4, 5]]

    def test_empty(self):
        assert connected_components(Graph(0, [])) == []


class TestGirth:
    def test_p4_acyclic(self):
        assert girth(make_path(4)) is None

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 9])
    def test_cycles(self, k):
        assert girth(make_cycle(k)) == k

    def test_petersen(self, petersen):
        assert girth(petersen) == 5

    def test_extremal_cubic(self):
        assert girth(gen_extremal_cubic()) == 4

    def test_k33plus(self):
        assert girth(gen_k33plus()) == 4

    def test_triangle_with_tail(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert girth(g) == 3

    def test_two_cycles(self):
        g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (6, 7), (7, 8)])
        assert girth(g) == 3

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_matches_enumeration(self, g):
        assert girth(g) == girth_by_enumeration(g)


def make_complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


class TestGirthAgainstFullBfs:
    """girth against a full BFS from every root, past the n <= 8 of the
    enumeration reference."""

    def check(self, graphs):
        for g in graphs:
            assert girth(g) == girth_by_bfs_from_every_root(g), g

    def test_corpora(self):
        entries = small_corpus() + determinism_corpus()
        self.check(build_instance(*entry) for entry in entries)

    def test_random_families(self):
        graphs = []
        for i in range(12):
            n = 10 + 26 * i  # 10 .. 296
            graphs.append(gen_random_cubic(n + n % 2, 61_000 + i))
            graphs.append(gen_random_subcubic(n, (3 * n) // 2, 62_000 + i))
            graphs.append(gen_random_girth6(n, 2 + i % 3, 63_000 + i))
            d = 4 + i % 3
            graphs.append(gen_random_bounded_degree(n, (n * d) // 2, d, 64_000 + i))
        self.check(graphs)

    def test_named_graphs(self):
        graphs = [make_cycle(k) for k in range(3, 41)]
        graphs += [make_path(k) for k in range(0, 12)]
        graphs += [gen_random_forest(n, 65_000 + n) for n in range(1, 60, 7)]
        graphs += [
            make_complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 7)
        ]
        graphs += [make_petersen(), make_dodecahedron(), make_circular_ladder(9)]
        graphs.append(make_lcf(14, [5, -5]))  # Heawood
        self.check(graphs)
        assert girth(make_lcf(14, [5, -5])) == 6
        assert girth(make_complete_bipartite(1, 6)) is None
        assert girth(make_complete_bipartite(2, 2)) == 4

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(max_n=30))
    def test_random_graphs(self, g):
        assert girth(g) == girth_by_bfs_from_every_root(g)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_only_short_cycle_on_highest_ids(self, k):
        # the one cycle shorter than 8 is found only from its smallest
        # vertex, the search that sees nothing but the last k ids
        g = disjoint_union(
            gen_random_forest(40, 66_000), make_cycle(12), make_cycle(8),
            make_cycle(k),
        )
        assert girth(g) == k == girth_by_bfs_from_every_root(g)

    def test_square_before_the_only_triangle(self):
        # 4-cycle 0-1-2-3, then a path to the triangle 5-6-7
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5),
                      (5, 6), (6, 7), (7, 5)])
        assert girth(g) == 3 == girth_by_bfs_from_every_root(g)

    def test_dense_triangle_free(self):
        g = make_complete_bipartite(50, 50)
        assert girth(g) == 4


@st.composite
def bounded_graphs(draw, max_n=24, max_degree=6):
    """Random graphs of maximum degree at most ``max_degree``: drawn edges
    are kept while both ends still have room."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return Graph(n, [])
    deg = [0] * n
    edges = []
    for u, v in draw(st.lists(st.sampled_from(possible), unique=True)):
        if deg[u] < max_degree and deg[v] < max_degree:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return Graph(n, edges)


class TestShortCycles:
    """_short_cycles, the pass behind girth's local step and the reduction
    engine's R1/R10/R11 anchors, against enumerated triangles and 4-cycles."""

    def check(self, g):
        triangles, squares = short_cycles_by_enumeration(g)
        tri_roots, c4_roots = _short_cycles(g.adj)
        assert tri_roots == sorted({min(t) for t in triangles}), g
        assert c4_roots == sorted({min(c) for c in squares}), g
        first, _ = _short_cycles(g.adj, stop_at_triangle=True)
        assert first == tri_roots[:1], g
        # every other component as roots, in reverse BFS order: exactly the
        # cycles whose smallest vertex is a root, in the order of the roots
        roots = [v for comp in connected_components(g)[::2] for v in comp][::-1]
        assert _short_cycles(g.adj, roots) == (
            [s for s in roots if s in set(tri_roots)],
            [s for s in roots if s in set(c4_roots)],
        ), g
        gi = girth(g)
        assert gi == girth_by_bfs_from_every_root(g), g
        assert (gi == 3) == bool(triangles), g
        assert (gi == 4) == (not triangles and bool(squares)), g

    def test_corpora(self):
        for entry in small_corpus() + determinism_corpus():
            self.check(build_instance(*entry))

    def test_named_graphs(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        named = [
            make_circular_ladder(4),  # Q3
            k4,
            make_complete_bipartite(3, 3),
            gen_k33plus(),
            make_circular_ladder(3),  # the prism
            make_petersen(),
            make_lcf(14, [5, -5]),  # Heawood
        ]
        for g in named:
            self.check(g)
        # a root with exactly two neighbors above it
        assert _short_cycles(make_cycle(4).adj) == ([], [0])

    def test_roots_argument(self):
        # K4 (0..3), the prism (4..9) and C4 (10..13): a root that is not a
        # cycle's smallest vertex finds nothing, and a scan of some
        # components never reports the cycles of the others
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        g = disjoint_union(k4, make_circular_ladder(3), make_cycle(4))
        assert _short_cycles(g.adj) == ([0, 1, 4, 7], [0, 4, 5, 10])
        assert _short_cycles(g.adj, range(4, 14)) == ([4, 7], [4, 5, 10])
        assert _short_cycles(g.adj, [10, 7, 4]) == ([7, 4], [10, 4])
        assert _short_cycles(g.adj, [2, 3, 6, 8, 9, 11]) == ([], [])
        assert _short_cycles(g.adj, []) == ([], [])
        assert _short_cycles(g.adj, [7, 4], stop_at_triangle=True) == ([7], [])

    @settings(max_examples=200, deadline=None)
    @given(bounded_graphs())
    def test_random_graphs(self, g):
        self.check(g)


def k33plus_component(g: Graph, component) -> bool:
    """_k33plus_at at the least-degree vertex of a 7-vertex component, with
    the component as the alive graph; False for any other order."""
    comp = sorted(component)
    if len(comp) != 7:
        return False
    alive = bytearray(g.n)
    for v in comp:
        alive[v] = 1
    deg = [sum(alive[w] for w in g.adj[v]) for v in range(g.n)]
    u = min(comp, key=deg.__getitem__)
    return _k33plus_at(g.adj, alive, deg, u) is not None


class TestK33Plus:
    """_k33plus_at, the one K33+ recognizer of the library, against the
    isomorphism reference."""

    def test_generated_instance(self):
        g = gen_k33plus()
        assert k33plus_component(g, range(7))
        assert is_k33plus_by_isomorphism(g, range(7))

    def test_c7_is_not(self):
        g = make_cycle(7)
        assert not k33plus_component(g, range(7))
        assert not is_k33plus_by_isomorphism(g, range(7))

    def test_wrong_order(self):
        g = make_cycle(6)
        assert not k33plus_component(g, range(6))

    def test_alive_flags_bound_the_search(self):
        # the subdivision vertex 6 also carries a tail, which the test at 6
        # ignores; a dead branch vertex or neighbor of 6 leaves no K33+
        g = make_k33plus_with_tail()
        alive = bytearray(b"\x01" * g.n)
        deg = g.degrees()
        assert _k33plus_at(g.adj, alive, deg, 6) == (0, 3, [1, 2], [4, 5])
        for v in range(6):
            dead = bytearray(alive)
            dead[v] = 0
            lowered = [sum(dead[w] for w in g.adj[x]) for x in range(g.n)]
            assert _k33plus_at(g.adj, dead, lowered, 6) is None, v
        assert _k33plus_at(g.adj, alive, deg, 7) is None

    def test_right_degrees_wrong_structure(self):
        # 7 vertices, degree multiset {3^6, 2}, but not K33+: a prism plus
        # a degree-2 vertex spliced into one edge the wrong way
        g = Graph(
            7,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
             (0, 3), (1, 4), (2, 6), (5, 6)],
        )
        assert sorted(g.degrees()) == [2, 3, 3, 3, 3, 3, 3]
        assert not k33plus_component(g, range(7))
        assert not is_k33plus_by_isomorphism(g, range(7))

    def test_relabeled_copy(self):
        base = gen_k33plus()
        perm = [3, 5, 0, 6, 1, 4, 2]
        g = Graph(7, [(perm[u], perm[v]) for u, v in base.edges])
        assert k33plus_component(g, range(7))
        assert is_k33plus_by_isomorphism(g, range(7))

    def test_agrees_with_isomorphism_reference(self):
        # every 7-vertex component of random graphs of max degree 3 to 6,
        # and relabeled copies of K33+ as it is, with one edge added and
        # with one edge removed, each beside a path
        k33 = list(gen_k33plus().edges)
        absent = [
            (u, v) for u in range(7) for v in range(u + 1, 7) if (u, v) not in k33
        ]
        variants = [k33] + [k33 + [e] for e in absent]
        variants += [[f for f in k33 if f != e] for e in k33]
        graphs = [
            gen_random_bounded_degree(7, 6 + s % 9, 3 + s % 4, 90_000 + s)
            for s in range(1200)
        ]
        graphs += [
            gen_random_bounded_degree(40, 20 + s % 5, 3 + s % 4, 91_000 + s)
            for s in range(400)
        ]
        for s in range(16):
            perm = list(range(7))
            SplitMix64(s).shuffle(perm)
            for edges in variants:
                copy = Graph(7, [(perm[u], perm[v]) for u, v in edges])
                graphs.append(disjoint_union(make_path(s + 1), copy))
        checked = found = 0
        for g in graphs:
            for comp in connected_components(g):
                if len(comp) == 7:
                    expected = is_k33plus_by_isomorphism(g, comp)
                    assert k33plus_component(g, comp) == expected, (g.edges, comp)
                    checked += 1
                    found += expected
        assert checked > 1000 and found > 30


class TestCountInvariants:
    def test_extremal_cubic(self):
        rep = count_invariants(gen_extremal_cubic())
        assert rep.n == 30
        assert rep.m == 45
        assert rep.isolated == 0
        assert rep.n33plus == 0
        assert rep.max_degree == 3
        assert rep.girth == 4
        assert rep.thm2_bound == 5
        assert rep.thm1_bound == 5
        assert rep.prop1_bound is None
        assert rep.greedy_general_bound == Fraction(45, 13)
        assert rep.greedy_forest_bound is None

    def test_k33plus(self):
        rep = count_invariants(gen_k33plus())
        assert rep.n33plus == 1
        assert rep.thm2_bound == 1  # the correction term: ceil((7-0-1)/6)
        assert rep.thm1_bound is None

    def test_two_copies_plus_isolated(self):
        k = gen_k33plus()
        edges = list(k.edges) + [(u + 7, v + 7) for u, v in k.edges]
        g = Graph(15, edges)
        rep = count_invariants(g)
        assert rep.isolated == 1
        assert rep.n33plus == 2
        assert rep.thm2_bound == 2

    def test_path(self):
        rep = count_invariants(make_path(7))
        assert rep.thm2_bound == 2
        assert rep.girth is None
        assert rep.prop1_bound == 2  # ceil(4*7/16) with max degree 2
        assert rep.greedy_forest_bound == Fraction(6, 3)

    def test_c6(self):
        rep = count_invariants(make_cycle(6))
        assert rep.girth == 6
        assert rep.prop1_bound == 2
        assert rep.greedy_forest_bound is None

    def test_c5_girth_too_small(self):
        rep = count_invariants(make_cycle(5))
        assert rep.prop1_bound is None

    def test_empty(self):
        rep = count_invariants(Graph(0, []))
        assert rep.thm2_bound == 0
        assert rep.greedy_general_bound == Fraction(0)

    def test_all_isolated(self):
        rep = count_invariants(Graph(4, []))
        assert rep.isolated == 4
        assert rep.thm2_bound == 0


class TestAliveGraphHelpers:
    """The alive-graph steps shared by the reduction engine and the greedy
    baselines, against definitions restated from scratch."""

    @staticmethod
    def check_conflicts(g):
        incident = _incident_lists(g)
        for i, (u, v) in enumerate(g.edges):
            want = {i} | {
                j for j, f in enumerate(g.edges) if _edges_conflict(g, (u, v), f)
            }
            assert _conflicts(g.adj, incident, u, v) == want, (g, u, v)

    def test_conflicts_on_small_corpus(self):
        for entry in small_corpus():
            self.check_conflicts(build_instance(*entry))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_conflicts_on_stars_and_cliques(self, k):
        self.check_conflicts(make_star(k))
        self.check_conflicts(
            Graph(k + 1, [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)])
        )

    @given(bounded_graphs())
    @settings(max_examples=200, deadline=None)
    def test_conflicts_on_random_graphs(self, g):
        self.check_conflicts(g)

    @given(bounded_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_delete_after_random_removal(self, g, data):
        adj = g.adj
        flags = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        alive = bytearray(flags)
        deg = [sum(alive[w] for w in adj[v]) for v in range(g.n)]
        cut = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        removal = {v for v in range(g.n) if alive[v] and cut[v]}
        iso = _isolated_after(adj, alive, removal)
        before = bytes(alive)
        touched = _delete(adj, alive, deg, removal, iso)
        gone = removal | set(iso)
        for v in range(g.n):
            assert alive[v] == (before[v] and v not in gone)
            if alive[v]:
                assert deg[v] == sum(alive[w] for w in adj[v])
        ring1 = {w for r in removal for w in adj[r] if alive[w]}
        want = ring1 | {x for w in ring1 for x in adj[w] if alive[x]}
        assert touched == want


class TestVerify:
    def test_valid(self):
        g = make_path(5)
        assert verify_induced_matching(g, [(0, 1), (3, 4)]) is None

    def test_empty_matching(self):
        assert verify_induced_matching(make_path(3), []) is None

    def test_shared_vertex(self):
        g = make_star(3)
        out = verify_induced_matching(g, [(0, 1), (0, 2)])
        assert out == (0, 0)

    def test_adjacent_edges(self):
        g = make_path(4)
        out = verify_induced_matching(g, [(0, 1), (2, 3)])
        assert out in ((1, 2), (2, 1))

    def test_non_edge_raises(self):
        with pytest.raises(GraphError):
            verify_induced_matching(make_path(4), [(0, 2)])

    def test_out_of_range_raises(self):
        with pytest.raises(GraphError):
            verify_induced_matching(make_path(4), [(0, 9)])

    def test_unsorted_input_accepted(self):
        g = make_path(5)
        assert verify_induced_matching(g, [(4, 3), (1, 0)]) is None


def parse_error(text, fmt="edge-list"):
    """The GraphParseError that parsing ``text`` raises."""
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text, fmt)
    return exc.value


class TestEdgeListFormat:
    def test_with_directive(self):
        g = parse_graph("n 4\n0 1\n2 3\n")
        assert g.n == 4
        assert g.edges == ((0, 1), (2, 3))

    def test_without_directive(self):
        g = parse_graph("0 1\n1 5\n")
        assert g.n == 6
        assert g.m == 2

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n\nn 3\n# middle\n0 2\n\n")
        assert g.n == 3
        assert g.edges == ((0, 2),)

    def test_empty_text(self):
        g = parse_graph("")
        assert g.n == 0

    def test_directive_only(self):
        g = parse_graph("n 5\n")
        assert g.n == 5
        assert g.m == 0

    def test_bad_directive(self):
        err = parse_error("n x\n")
        assert err.line == 1
        assert str(err) == "line 1: bad vertex count 'x'"

    def test_directive_not_first_is_edge_error(self):
        assert str(parse_error("0 1\nn 5\n")) == (
            "line 2: non-integer vertex id in 'n 5'"
        )

    def test_non_integer(self):
        err = parse_error("0 one\n")
        assert err.line == 1
        assert str(err) == "line 1: non-integer vertex id in '0 one'"

    def test_negative_id(self):
        assert str(parse_error("0 -2\n")) == "line 1: negative vertex id in '0 -2'"

    def test_loop(self):
        err = parse_error("n 3\n1 1\n")
        assert err.line == 2
        assert str(err) == "line 2: loop at vertex 1"

    def test_duplicate(self):
        err = parse_error("0 1\n1 0\n")
        assert err.line == 2
        assert str(err) == "line 2: duplicate edge (0, 1) (first seen on line 1)"

    def test_out_of_declared_range(self):
        assert str(parse_error("n 2\n0 2\n")) == (
            "line 2: vertex id 2 outside declared range 0..1"
        )

    def test_three_fields(self):
        assert str(parse_error("0 1 2\n")) == "line 1: expected 'u v', got '0 1 2'"


class TestParseErrorLines:
    """Once every line has been read, a loop, an out-of-range id or a
    duplicate is reported at the first offending line in file order."""

    def test_duplicate_far_after_first_copy_reversed(self):
        filler = "".join(f"{i} {i + 1}\n" for i in range(10, 1010))
        err = parse_error("n 5000\n7 3\n" + filler + "3 7\n")
        assert err.line == 1003
        assert str(err) == "line 1003: duplicate edge (3, 7) (first seen on line 2)"

    def test_dimacs_duplicate(self):
        err = parse_error("c dup\np edge 5 3\ne 1 2\ne 4 5\ne 2 1\n", "dimacs")
        assert str(err) == "line 5: duplicate edge (0, 1) (first seen on line 3)"

    def test_loop_on_last_line_after_comments(self):
        err = parse_error("# a\n# b\nn 4\n0 1\n1 2\n# tail\n\n2 2\n")
        assert str(err) == "line 8: loop at vertex 2"

    def test_out_of_range_on_last_line_after_comments(self):
        err = parse_error("# a\nn 4\n0 1\n# tail\n1 4\n")
        assert str(err) == "line 5: vertex id 4 outside declared range 0..3"

    def test_dimacs_loop_and_out_of_range_on_last_line(self):
        err = parse_error("c a\np edge 3 2\ne 1 2\nc b\ne 3 3\n", "dimacs")
        assert str(err) == "line 5: loop at vertex 2"
        err = parse_error("c a\np edge 3 2\ne 1 2\nc b\ne 2 4\n", "dimacs")
        assert str(err) == "line 5: vertex id 3 outside declared range 0..2"

    def test_first_offending_line_wins(self):
        assert parse_error("n 4\n0 1\n1 0\n2 2\n").line == 3
        assert parse_error("n 4\n0 1\n2 2\n1 0\n").line == 3
        assert parse_error("n 4\n0 9\n1 0\n0 1\n").line == 2
        # a malformed line is reported even after an earlier loop
        assert str(parse_error("n 4\n2 2\n0 x\n")) == (
            "line 3: non-integer vertex id in '0 x'"
        )

    def test_dimacs_edge_count_checked_before_loops(self):
        err = parse_error("p edge 3 2\ne 2 2\n", "dimacs")
        assert err.line is None
        assert str(err) == "problem line declares 2 edges, found 1"

    @pytest.mark.parametrize(
        "text,want",
        [
            ("n 3 4\n", "line 1: directive must be 'n <count>'"),
            ("# c\nn -2\n", "line 2: negative vertex count -2"),
        ],
        ids=["arity", "negative"],
    )
    def test_bad_directive_line(self, text, want):
        # a malformed line is reported as soon as it is read
        assert str(parse_error(text)) == want


class TestConstructionOrder:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs(max_n=12), st.randoms(use_true_random=False))
    def test_shuffled_reversed_edges_build_the_same_graph(self, g, rng):
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(edges)
        h = Graph(g.n, edges)
        assert h.adj == g.adj and h.edges == g.edges
        assert all(list(nbrs) == sorted(nbrs) for nbrs in h.adj)
        text = f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        p = parse_graph(text)
        assert p.adj == g.adj and p.edges == g.edges


class TestDimacsFormat:
    TEXT = "c a comment\np edge 4 2\ne 1 2\ne 3 4\n"

    def test_parse(self):
        g = parse_graph(self.TEXT, "dimacs")
        assert g.n == 4
        assert g.edges == ((0, 1), (2, 3))

    def test_missing_problem_line(self):
        err = parse_error("c only\n", "dimacs")
        assert err.line is None
        assert str(err) == "missing problem line"

    def test_edge_line_before_problem_line(self):
        assert str(parse_error("e 1 2\n", "dimacs")) == (
            "line 1: edge line before problem line"
        )

    def test_second_problem_line(self):
        assert str(parse_error("p edge 2 0\np edge 2 0\n", "dimacs")) == (
            "line 2: second problem line"
        )

    def test_count_mismatch(self):
        assert str(parse_error("p edge 3 2\ne 1 2\n", "dimacs")) == (
            "problem line declares 2 edges, found 1"
        )

    def test_zero_based_rejected(self):
        assert str(parse_error("p edge 3 1\ne 0 1\n", "dimacs")) == (
            "line 2: dimacs ids are 1-based, got 'e 0 1'"
        )

    def test_unknown_kind(self):
        assert str(parse_error("p edge 2 0\nx 1 2\n", "dimacs")) == (
            "line 2: unknown line kind 'x'"
        )

    @pytest.mark.parametrize(
        "text,want",
        [
            ("p col 3 0\n", "line 1: expected 'p edge <n> <m>', got 'p col 3 0'"),
            ("c a\np edge x 0\n", "line 2: bad problem line 'p edge x 0'"),
            ("p edge 3 -1\n", "line 1: negative counts in 'p edge 3 -1'"),
            ("p edge 3 1\ne 1\n", "line 2: expected 'e <u> <v>', got 'e 1'"),
            ("p edge 3 1\nc b\ne 1 b\n", "line 3: non-integer vertex id in 'e 1 b'"),
        ],
        ids=["p-kind", "p-integer", "p-negative", "e-arity", "e-integer"],
    )
    def test_malformed_line(self, text, want):
        assert str(parse_error(text, "dimacs")) == want

    def test_unknown_format(self):
        assert str(parse_error("", "graphml")) == "unknown format 'graphml'"


class TestStrictTokens:
    """Ids and counts are ASCII decimal digits in both formats; a leading
    '-' keeps its negative texts, and one leading byte-order mark is
    dropped."""

    @pytest.mark.parametrize(
        "text,fmt,want",
        [
            ("n 12\n1_0 2\n\u0663 4\n", "edge-list",
             "line 2: non-integer vertex id in '1_0 2'"),
            ("n 12\n\u0663 4\n", "edge-list",
             "line 2: non-integer vertex id in '\u0663 4'"),
            ("0 +1\n", "edge-list", "line 1: non-integer vertex id in '0 +1'"),
            ("n +5\n", "edge-list", "line 1: bad vertex count '+5'"),
            ("n 1_0\n", "edge-list", "line 1: bad vertex count '1_0'"),
            ("# caf\u00e9\n0 -2\n", "edge-list",
             "line 2: negative vertex id in '0 -2'"),
            ("# a_b\nn -2\n", "edge-list", "line 2: negative vertex count -2"),
            ("p edge 3 1\ne +3 1_1\n", "dimacs",
             "line 2: non-integer vertex id in 'e +3 1_1'"),
            ("p edge 3 1\ne \uff11 2\n", "dimacs",
             "line 2: non-integer vertex id in 'e \uff11 2'"),
            ("p edge +3 1\n", "dimacs", "line 1: bad problem line 'p edge +3 1'"),
            ("c \u00e9\np edge 3 -1\n", "dimacs",
             "line 2: negative counts in 'p edge 3 -1'"),
            ("c +\np edge 3 1\ne -1 2\n", "dimacs",
             "line 3: dimacs ids are 1-based, got 'e -1 2'"),
            ("\ufeff\ufeffn 3\n", "edge-list",
             "line 1: non-integer vertex id in '\\ufeffn 3'"),
        ],
        ids=[
            "underscore-id", "arabic-indic-id", "plus-id", "plus-count",
            "underscore-count", "negative-id-non-ascii-text",
            "negative-count-underscore-text", "dimacs-plus-underscore",
            "dimacs-fullwidth-id", "dimacs-plus-count", "dimacs-negative-count",
            "dimacs-negative-id", "second-bom",
        ],
    )
    def test_rejected(self, text, fmt, want):
        assert str(parse_error(text, fmt)) == want

    @pytest.mark.parametrize(
        "text,fmt",
        [
            ("\ufeffn 3\n0 1\n1 2\n", "edge-list"),
            ("\ufeff0 1\n1 2\n", "edge-list"),
            ("\ufeffp edge 3 2\ne 1 2\ne 2 3\n", "dimacs"),
            ("# caf\u00e9 +_\nn 3\n00 1\n1 2\n", "edge-list"),
            ("c \u00e9_+\np edge 3 2\ne 1 2\ne 2 3\n", "dimacs"),
        ],
        ids=["bom", "bom-no-directive", "dimacs-bom", "comment", "dimacs-comment"],
    )
    def test_accepted(self, text, fmt):
        g = parse_graph(text, fmt)
        assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="0123456789-+_\u0663\uff11a", min_size=1, max_size=6))
    def test_token_rule(self, token):
        # _integer takes exactly -?[0-9]+; parse reads ASCII text with no '+'
        # or '_' with int() instead, which must agree with it there
        def value(read):
            try:
                return read(token)
            except ValueError:
                return None

        want = int(token) if re.fullmatch("-?[0-9]+", token) else None
        assert value(_integer) == want
        if token.isascii() and "+" not in token and "_" not in token:
            assert value(int) == want


class TestWriteEdgeList:
    def test_fixed_output(self):
        g = Graph(3, [(2, 0), (0, 1)])
        assert write_edge_list(g) == "n 3\n0 1\n0 2\n"

    def test_comments(self):
        out = write_edge_list(Graph(1, []), comments=("hello", ""))
        assert out == "# hello\n#\nn 1\n"

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_roundtrip(self, g):
        assert parse_graph(write_edge_list(g)) == g
