"""Benchmark inputs, made from the workload seed, and independent output checks.

Every input comes from the package's own generators, run on pinned
generator seeds; the workload seed relabels the vertices of each graph by a
random permutation.  Generator seeds drawn from the workload seed would make
the cost of a run swing with it (the heavy instances of the small stream,
the pairing model's retries in the cubic generator, the matching sizes).  A
relabeled graph is isomorphic to the pinned one, so the work stays the same
while the program still sees a new vertex order, and new tie-breaks, on
every seed.

The two large graphs are then conditioned by degree-preserving edge
switches so that the cost of ``girth`` does not depend on where the first
triangle lands: the subcubic graph gets a triangle through its lowest usable
vertex (``girth`` stops after the first roots), the cubic graph loses all
triangles (``girth`` scans every root).  The checks here use only the
benchmark's own code, so they do not trust the program's bookkeeping.
"""

from __future__ import annotations

import random

from strongmatch import (
    Graph,
    gen_random_bounded_degree,
    gen_random_cubic,
    gen_random_forest,
    gen_random_girth6,
    gen_random_subcubic,
)

# Pinned generator seeds: disjoint from every seed the tier-1 suite uses (all
# below 1.1M).  Small instance i is generated from SMALL_BASE + i.
LARGE_BASE = 7_100_000
COMPANION_BASE = 7_300_000
SMALL_BASE = 8_000_000

SMALL_FAMILIES = ("subcubic", "cubic", "girth6", "forest", "bounded")
ORACLE_EDGE_LIMIT = 25


def _adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _switch(adj, remove, add) -> None:
    for u, v in remove:
        adj[u].discard(v)
        adj[v].discard(u)
    for u, v in add:
        adj[u].add(v)
        adj[v].add(u)


def _graph_from(adj: list[set[int]]) -> Graph:
    return Graph(len(adj), [(u, v) for u in range(len(adj)) for v in adj[u] if u < v])


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a random permutation drawn from rng."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def plant_triangle(g: Graph) -> Graph:
    """Put a triangle through the lowest vertex v where one switch can.

    For neighbors b, c of v that are not adjacent, take x in N(b) and y in
    N(c) and replace the edges bx, cy by bc, xy.  Degrees are unchanged.
    """
    adj = _adjacency(g.n, g.edges)
    for v in range(g.n):
        pairs = [(b, c) for b in sorted(adj[v]) for c in sorted(adj[v]) if b < c]
        if any(c in adj[b] for b, c in pairs):
            return g
        for b, c in pairs:
            for x in sorted(adj[b] - {v}):
                for y in sorted(adj[c] - {v, b, x}):
                    if y not in adj[x]:
                        _switch(adj, [(b, x), (c, y)], [(b, c), (x, y)])
                        return _graph_from(adj)
    raise ValueError("no vertex admits a triangle switch")


def remove_triangles(n: int, edges, rng: random.Random) -> Graph:
    """Remove every triangle by switches ab, xy -> ax, by that close none."""
    adj = _adjacency(n, edges)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    triangles = [
        (u, v, w)
        for u, v in edges
        for w in adj[u] & adj[v]
        if w > v
    ]
    for a, b, c in triangles:
        if not (b in adj[a] and c in adj[a] and c in adj[b]):
            continue
        near = adj[a] | adj[b] | {a, b}
        while True:
            x, y = edges[rng.randrange(len(edges))]
            if rng.random() < 0.5:
                x, y = y, x
            if x in near or y in near or y not in adj[x]:
                continue
            if (adj[a] - {b}) & (adj[x] - {y}) or (adj[b] - {a}) & (adj[y] - {x}):
                continue
            _switch(adj, [(a, b), (x, y)], [(a, x), (b, y)])
            edges.extend([(a, x), (b, y)])
            break
    return _graph_from(adj)


def large_subcubic(tr, span: str, n: int, base: int, seed: int) -> Graph:
    """The subcubic graph of seed ``base``, relabeled by ``seed``, with a triangle planted."""
    g = tr.call(span, gen_random_subcubic, n, (3 * n) // 2, base)
    return plant_triangle(relabel(g, random.Random(seed)))


def large_cubic(tr, span: str, n: int, base: int, seed: int) -> Graph:
    """The cubic graph of seed ``base``, relabeled by ``seed``, with no triangle.

    The pairing model retries a geometric number of times (acceptance about
    e^-2), so generating from ``base + seed`` would make set-up time swing
    between seeds by a factor of three.
    """
    g = tr.call(span, gen_random_cubic, n, base)
    rng = random.Random(seed)
    g = relabel(g, rng)
    return remove_triangles(n, g.edges, rng)


def small_instance(tr, i: int, seed: int) -> tuple[str, Graph]:
    """Instance i of the small-mixed stream: families taken round-robin.

    subcubic and cubic follow the size schedules of acceptance criteria 02
    and 03; girth6 has max degree 2..5, bounded has max degree 4..6 at half
    the full edge count, forests grow by sequential attachment.  The graph
    comes from the pinned seed SMALL_BASE + i and is relabeled by ``seed``.
    """
    family = SMALL_FAMILIES[i % len(SMALL_FAMILIES)]
    k = i // len(SMALL_FAMILIES)
    s = SMALL_BASE + i
    n = 4 + (7 * k) % 197
    if family == "subcubic":
        fn, args = gen_random_subcubic, (n, ((k % 3) + 1) * n // 2, s)
    elif family == "cubic":
        fn, args = gen_random_cubic, (4 + 2 * ((13 * k) % 99), s)
    elif family == "girth6":
        fn, args = gen_random_girth6, (4 + (7 * k) % 57, 2 + k % 4, s)
    elif family == "forest":
        fn, args = gen_random_forest, (n, s)
    else:
        dmax = 4 + k % 3
        fn, args = gen_random_bounded_degree, (n, n * dmax // 4, dmax, s)
    g = tr.call("generators.small_s", fn, *args)
    return family, relabel(g, random.Random(f"{seed}/{i}"))


# -- independent checks --------------------------------------------------------


class Expected:
    """Facts about a graph computed by the benchmark itself."""

    def __init__(self, g: Graph):
        n = g.n
        degree = [len(a) for a in g.adj]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in g.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        sizes: dict[int, int] = {}
        for v in range(n):
            r = find(v)
            sizes[r] = sizes.get(r, 0) + 1
        self.n = n
        self.m = g.m
        self.isolated = degree.count(0)
        self.max_degree = max(degree, default=0)
        self.min_degree = min(degree, default=0)
        self.components = len(sizes)
        self.order7 = sum(1 for s in sizes.values() if s == 7)
        # thm2 = ceil((n - i - n33plus) / 6) and n33plus <= order-7 components
        self.thm2_floor = -(-(n - self.isolated - self.order7) // 6)
        dm = self.max_degree
        self.greedy_floor = -(-self.m // (2 * dm * (dm - 1) + 1)) if dm else 0
        self.cubic_floor = -(-self.m // 9) if dm == 3 == self.min_degree else 0


def induced_matching_problem(g: Graph, matching) -> str | None:
    """None when ``matching`` is an induced matching of g, else a reason."""
    owner: dict[int, int] = {}
    for idx, (u, v) in enumerate(matching):
        if not g.has_edge(u, v):
            return f"{u}-{v} is not an edge"
        for x in (u, v):
            if x in owner:
                return f"vertex {x} is matched twice"
            owner[x] = idx
    for x, idx in owner.items():
        for w in g.adj[x]:
            j = owner.get(w)
            if j is not None and j != idx:
                return f"matched vertices {x} and {w} are adjacent"
    return None
