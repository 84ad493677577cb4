"""Small graph builders shared across test modules."""

from strongmatch import (
    Graph,
    SplitMix64,
    connected_components,
    gen_extremal_cubic,
    gen_k33plus,
    gen_random_subcubic,
)

from bruteforce import is_k33plus_by_isomorphism


def make_path(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def make_cycle(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def make_star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def make_petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def make_spider() -> Graph:
    """Three legs of length 2 glued at vertex 0."""
    return Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def make_circular_ladder(k: int) -> Graph:
    """Cubic prism graph C_k x K_2: outer cycle 0..k-1, inner k..2k-1, rungs."""
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    return Graph(2 * k, outer + inner + rungs)


def make_lcf(n: int, shifts: list[int]) -> Graph:
    """Cubic graph from LCF notation: Hamilton cycle plus chord i -> i + shift."""
    edges = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)}
    for i in range(n):
        j = (i + shifts[i % len(shifts)]) % n
        edges.add((i, j) if i < j else (j, i))
    return Graph(n, sorted(edges))


def make_dodecahedron() -> Graph:
    """Cubic planar graph of order 20 and girth 5."""
    return make_lcf(20, [10, 7, 4, -4, -7, 10, -4, 7, -7, 4])


def make_diamond_chain(k: int, ring: bool = False) -> Graph:
    """k diamonds (K4 minus an edge) joined tip to tip in a path, or in a
    cycle with ``ring``.  Diamond i is 4i..4i+3 with tips 4i and 4i+3.
    Each diamond holds two triangles and a 4-cycle.  The ring is cubic for
    k >= 2; the path leaves its two end tips at degree 2."""
    edges = []
    for i in range(k):
        a, b, c, d = range(4 * i, 4 * i + 4)
        edges += [(a, b), (a, c), (b, c), (b, d), (c, d)]
    edges += [(4 * i + 3, 4 * i + 4) for i in range(k - 1)]
    if ring:
        edges.append((0, 4 * k - 1))
    return Graph(4 * k, edges)


def disjoint_union(*parts: Graph) -> Graph:
    """Parts side by side, each relabeled past the vertices before it."""
    edges = []
    offset = 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.n
    return Graph(offset, edges)


def make_k33plus_with_tail() -> Graph:
    """K33+ whose subdivision vertex 6 carries the 8-vertex tail 7..14."""
    return Graph(
        15,
        list(gen_k33plus().edges) + [(6, 7)] + [(i, i + 1) for i in range(7, 14)],
    )


def with_k33plus_blocks(base: Graph, count: int, seed: int) -> Graph:
    """base with ``count`` K33+ blocks after it, the subdivision vertex of
    each joined to its own vertex of base of degree at most 2, picked by a
    SplitMix64(seed) shuffle.  Blocks that land on a small component of
    base end up in components of order <= 12."""
    free = [v for v in range(base.n) if len(base.adj[v]) <= 2]
    SplitMix64(seed).shuffle(free)
    g = disjoint_union(base, *[gen_k33plus()] * count)
    ties = [(free[k], base.n + 7 * k + 6) for k in range(count)]
    return Graph(g.n, list(g.edges) + ties)


def make_mixed() -> Graph:
    """One graph in which every census term and every K33+ path is nonzero.

    Isolated vertices, two K33+ components (COMPONENT-K33PLUS), small
    components for the oracle, and two components of order > 12 holding
    K33+ blocks (R1): the extremal cubic graph and a K33+ whose subdivision
    vertex carries an 8-vertex tail.  A random subcubic part adds the other
    rules.  The order is chosen so that the n33plus term changes the bound.
    """
    return disjoint_union(
        Graph(2, []),
        gen_k33plus(),
        make_path(9),
        gen_extremal_cubic(),
        Graph(1, []),
        make_k33plus_with_tail(),
        make_cycle(9),
        gen_k33plus(),
        gen_random_subcubic(300, 420, 975_002),
        Graph(1, []),
    )


def census_by_walk(g: Graph) -> tuple[int, int]:
    """Isolated vertices and K33+ components, read off a component walk.

    K33+ is recognized by the isomorphism reference, which shares no code
    with either recognizer of the library: certify._census and
    reduction._k33plus_at.
    """
    comps = connected_components(g)
    iso = sum(1 for c in comps if len(c) == 1)
    n33 = sum(1 for c in comps if is_k33plus_by_isomorphism(g, c))
    return iso, n33


def thm2_of(g: Graph) -> int:
    """ceil((n - i - n33plus) / 6), counted here rather than by the library."""
    iso, n33 = census_by_walk(g)
    return -(-(g.n - iso - n33) // 6)
