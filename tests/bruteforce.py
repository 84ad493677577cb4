"""Independent reference implementations for cross-checking.

Everything here is deliberately naive: plain enumeration with no shared
code paths beyond the Graph container and the matching validity checker,
so that agreement with the library is meaningful evidence.  Two
exceptions: r1_anchors_by_c4_scan keeps the library's K33+ recognizer on
purpose, as it pins the engine's R1 candidate filter, not the recognizer;
girth6_generator_by_bfs takes its draws from SplitMix64.draws, as it pins
the generator's distance test, not the stream.
"""

from collections import deque
from functools import cache
from itertools import combinations, permutations
from typing import Iterator, Optional

from strongmatch import Graph, ReductionTrace, SplitMix64, verify_induced_matching
from strongmatch.reduction import _k33plus_at


def girth_by_enumeration(g: Graph) -> Optional[int]:
    """Shortest cycle length by trying every vertex sequence; n <= 8 only."""
    assert g.n <= 8, "enumeration girth is factorial; keep graphs tiny"
    for k in range(3, g.n + 1):
        for subset in combinations(range(g.n), k):
            first = subset[0]
            for perm in permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue  # same cycle traversed backwards
                cyc = (first, *perm)
                if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    return k
    return None


def girth_by_bfs_from_every_root(g: Graph) -> Optional[int]:
    """Shortest cycle length by a full BFS from every vertex.

    No early stop and no restriction on the vertices a search may visit:
    every non-tree edge (v, w) seen from every root closes a walk of length
    dist[v] + dist[w] + 1, and the minimum over all of them is the girth.
    O(n (n + m)); fine up to a few hundred vertices.
    """
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif w != parent[v]:
                    cand = dist[v] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def short_cycles_by_enumeration(g: Graph) -> tuple[set, set]:
    """Every triangle and every 4-cycle of g, each as the frozenset of its
    vertices.

    A triangle is an edge uv plus a common neighbor w; a 4-cycle is a path
    b-a-d plus a common neighbor c of b and d other than a.  Every cycle is
    met from each of its vertices, with no root order and no stamps.
    """
    nbrs = [set(a) for a in g.adj]
    triangles = {
        frozenset((u, v, w)) for u, v in g.edges for w in nbrs[u] & nbrs[v]
    }
    squares = {
        frozenset((a, b, c, d))
        for a in range(g.n)
        for b, d in combinations(g.adj[a], 2)
        for c in nbrs[b] & nbrs[d]
        if c != a
    }
    return triangles, squares


def first_short_cycle_by_enumeration(g: Graph, roots) -> Optional[tuple]:
    """The cycle graph._short_cycle must return, from the cycles of
    short_cycles_by_enumeration whose smallest vertex s is one of ``roots``:
    a triangle (s, b, c) at the first root with one, (b, c) smallest, else
    a 4-cycle (s, n1, x, n2) at the first root with one, where n1 < n2 are
    the neighbors of s on it and (n1, n2, x) is smallest, or None.  With
    no triangle at s, a 4-cycle at s has no chord, so its vertex set fixes
    it."""
    triangles, squares = short_cycles_by_enumeration(g)
    roots = list(roots)
    for s in roots:
        at = [sorted(c - {s}) for c in triangles if min(c) == s]
        if at:
            return (s, *min(at))
    for s in roots:
        at = []
        for c in squares:
            if min(c) == s:
                n1, n2 = sorted(c.intersection(g.adj[s]))
                (x,) = c - {s, n1, n2}
                at.append((n1, n2, x))
        if at:
            n1, n2, x = min(at)
            return s, n1, x, n2
    return None


def max_induced_matching_by_subsets(g: Graph) -> int:
    """Largest valid edge subset, checked only via verify_induced_matching."""
    m = g.m
    assert m <= 16, "subset enumeration is exponential; keep graphs tiny"
    for r in range(min(m, g.n // 2), 0, -1):
        for subset in combinations(g.edges, r):
            if verify_induced_matching(g, subset) is None:
                return r
    return 0


def _edges_conflict(g: Graph, e, f) -> bool:
    """Distinct edges e and f share an endpoint or are joined by an edge."""
    return len({*e, *f}) < 4 or any(y in g.adj[x] for x in e for y in f)


def exhaustive_strong_matching_number(g: Graph) -> int:
    """Strong matching number by unpruned include/exclude enumeration.

    Independent slow route used to cross-check the branch-and-bound solver:
    conflicts come from _edges_conflict, and there is no bounding and no
    branching heuristic, just complete enumeration of the edge subsets that
    stay conflict-free, summed over the blocks of the conflict graph (the
    edge sets of the components of g, whose induced matchings are
    independent).  Practical for graphs whose components have few edges
    (the m <= 25 corpus).
    """
    m = g.m
    masks = [0] * m
    for i, j in combinations(range(m), 2):
        if _edges_conflict(g, g.edges[i], g.edges[j]):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    total = 0
    left = (1 << m) - 1
    while left:
        block = left & -left
        while True:
            grown = block
            for i in range(m):
                if block >> i & 1:
                    grown |= masks[i]
            if grown == block:
                break
            block = grown
        total += _enumerate_max(0, block, masks)
        left &= ~block
    return total


def _enumerate_max(size: int, cand: int, masks: list) -> int:
    best = size
    while cand:
        low = cand & -cand
        i = low.bit_length() - 1
        cand &= ~low
        with_i = _enumerate_max(size + 1, cand & ~masks[i], masks)
        if with_i > best:
            best = with_i
    return best


def least_conflict_greedy_by_rescan(g: Graph) -> list:
    """The general greedy's choice rule, recounted from g.adj every round.

    Each round takes the live edge with the fewest live conflicts, ties to
    the smaller edge id, then drops it and everything it conflicts with.
    O(m^2) conflict tests per round; keep graphs small.
    """
    live = list(range(g.m))
    chosen = []
    while live:
        def key(i):
            e = g.edges[i]
            count = sum(
                1 for j in live if j != i and _edges_conflict(g, e, g.edges[j])
            )
            return count, i

        best = min(live, key=key)
        e = g.edges[best]
        chosen.append(e)
        live = [j for j in live if j != best and not _edges_conflict(g, e, g.edges[j])]
    return sorted(chosen)


def forest_greedy_by_conflicts(g: Graph) -> list:
    """The forest greedy's choice rule, with conflicts from _edges_conflict.

    Each tree is rooted at its smallest vertex, vertices are visited by
    (-depth, v), and a vertex's parent edge is taken when it conflicts with
    no edge taken before.  g must be a forest; O(m) conflict tests per
    visited vertex, so keep graphs small.
    """
    depth: dict = {}
    parent: dict = {}
    for root in range(g.n):
        if root in depth:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    queue.append(w)
    chosen = []
    for v in sorted(parent, key=lambda v: (-depth[v], v)):
        e = (min(v, parent[v]), max(v, parent[v]))
        if not any(_edges_conflict(g, e, f) for f in chosen):
            chosen.append(e)
    return sorted(chosen)


_K33PLUS_REF_EDGES = frozenset(
    [
        (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
        (2, 3), (2, 4), (2, 5), (0, 6), (3, 6),
    ]
)


def is_k33plus_by_isomorphism(g: Graph, component) -> bool:
    """Exhaustive isomorphism test against a hand-built reference K33+.

    The component's edges, relabeled to 0..6 in vertex order, must be one
    of the 7! relabelings of the reference; those are enumerated once.
    """
    comp = sorted(component)
    if len(comp) != 7:
        return False
    local = {v: i for i, v in enumerate(comp)}
    sub_edges = set()
    for v in comp:
        for w in g.adj[v]:
            if w in local and w > v:
                sub_edges.add((local[v], local[w]))
    return frozenset(sub_edges) in _k33plus_labelings()


@cache
def _k33plus_labelings() -> frozenset:
    return frozenset(
        frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in _K33PLUS_REF_EDGES)
        for perm in permutations(range(7))
    )


def replay_trace(g: Graph, trace: ReductionTrace) -> list:
    """Re-execute a reduction trace step by step, checking its bookkeeping.

    Verifies that removed vertices are alive when removed, matched edges
    vanish with their own step, the recorded isolated counts match what the
    deletions actually isolate, and every vertex is accounted for by the
    end.  Returns the accumulated matching.
    """
    matching = []
    for _, step, _ in _replay(g, trace):
        matching.extend(step.added)
    return matching


def priority_violations(g: Graph, trace: ReductionTrace) -> list:
    """Indices of the rule steps of a trace taken while an earlier rule
    applied.

    The trace is replayed as by replay_trace.  Before each rule step every
    alive vertex is classified afresh, by the rule definitions in the
    reduction engine's docstring and with no engine code: FRAG (an order-2
    component) and R2..R9 at end-vertices and degree-2 vertices, then R10
    for an alive triangle and R11 for an alive 4-cycle.  R1 applies while
    all seven vertices of a K33+ subgraph of g are alive; deletion never
    creates one, so those are found once, by _k33plus_subgraphs.  A step
    counts when a rule before its own applies anywhere: each rule's bound
    on the vertices it isolates assumes every earlier rule is exhausted.
    """
    k33s = _k33plus_subgraphs(g)
    out = []
    for idx, step, alive in _replay(g, trace):
        if not step.rule.startswith("R"):
            continue
        rule = int(step.rule[1:])
        if rule > 1 and any(all(alive[v] for v in s) for s in k33s):
            out.append(idx)
        elif _earliest_rule(g, alive, rule) is not None:
            out.append(idx)
    return out


def _k33plus_subgraphs(g: Graph) -> set:
    """Vertex sets of the K33+ subgraphs of g, as frozensets.

    A candidate is the closed set {u, a1, b1} | N(a1) | N(b1) for a vertex
    u and two of its neighbors a1, b1.  In a subcubic graph the six branch
    vertices of a K33+ with subdivision vertex u have all their edges
    inside it, so every K33+ subgraph is a candidate.  A candidate of
    seven vertices counts when is_k33plus_by_isomorphism accepts it.
    """
    found = set()
    for u in range(g.n):
        for a1, b1 in combinations(g.adj[u], 2):
            cand = {u, a1, b1, *g.adj[a1], *g.adj[b1]}
            if len(cand) == 7 and is_k33plus_by_isomorphism(g, cand):
                found.add(frozenset(cand))
    return found


def k33plus_subdivision_vertices(g: Graph) -> set:
    """The subdivision vertex of every K33+ subgraph of g, from
    _k33plus_subgraphs, that lies in a component of order > 12: those are
    the R1 anchors the reduction engine must file once it has consumed the
    small components.  A subgraph's subdivision vertex is its one vertex
    with exactly two neighbors inside it."""
    big = _in_large_component(g)
    return {
        u
        for s in _k33plus_subgraphs(g)
        for u in s
        if big[u] and sum(w in s for w in g.adj[u]) == 2
    }


def r1_anchors_by_c4_scan(g: Graph) -> set:
    """The R1 anchors as the engine's setup once found them: every vertex
    of a component of order > 12 next to a 4-cycle at which the library's
    _k33plus_at finds a K33+.  The 4-cycles come from
    short_cycles_by_enumeration and the components from a plain BFS."""
    big = _in_large_component(g)
    _, squares = short_cycles_by_enumeration(g)
    near = {v for x in set().union(*squares) for v in g.adj[x] if big[v]}
    return {v for v in near if _k33plus_at(g.adj, v) is not None}


def k33plus_at_by_ordered_pairs(adj, u: int):
    """reduction._k33plus_at as it first stood: every ordered pair (a1, b1) of
    u's neighbors, each side re-sorted and checked vertex by vertex.
    Returns (a1, b1, side_a, side_b) for the first hit, or None."""
    for a1 in adj[u]:
        if len(adj[a1]) != 3:
            continue
        for b1 in adj[u]:
            if b1 == a1 or len(adj[b1]) != 3 or b1 in adj[a1]:
                continue
            side_b = [w for w in adj[a1] if w != u]
            if len(side_b) != 2:
                continue
            side_a = [w for w in adj[b1] if w != u]
            if len(side_a) != 2:
                continue
            six = {a1, b1, *side_a, *side_b}
            if len(six) != 6 or u in six:
                continue
            b_all = sorted((b1, *side_b))
            a_all = sorted((a1, *side_a))
            ok = True
            for a in side_a:
                if sorted(adj[a]) != b_all:
                    ok = False
                    break
            if ok:
                for b in side_b:
                    if sorted(adj[b]) != a_all:
                        ok = False
                        break
            if ok:
                return a1, b1, sorted(side_a), sorted(side_b)
    return None


def c4_at_by_enumeration(adj, alive, a: int):
    """The edges, in cycle order, of the alive 4-cycle (a, n1, x, n2) with
    n1 < n2 and (n1, n2, x) smallest, from every such triple, or None."""
    nbrs = [w for w in adj[a] if alive[w]]
    cycles = [
        (n1, n2, x)
        for n1, n2 in combinations(sorted(nbrs), 2)
        for x in set(adj[n1]) & set(adj[n2])
        if x != a and alive[x]
    ]
    if not cycles:
        return None
    n1, n2, x = min(cycles)
    return ((a, n1), (n1, x), (x, n2), (n2, a))


def short_cycle_anchors_in_cubic_components(g: Graph) -> tuple[set, set]:
    """The smallest vertex of every triangle and of every 4-cycle, from
    short_cycles_by_enumeration, that lies in a cubic component of order
    > 12, found by a plain BFS: the roots at which the reduction engine's
    setup may file an R10 or R11 key, one per component."""
    owner = _component_of_each_vertex(g)
    triangles, squares = short_cycles_by_enumeration(g)

    def anchors(cycles):
        roots = {min(c) for c in cycles}
        return {s for s in roots if len(owner[s]) > 12 and _is_cubic(g, owner[s])}

    return anchors(triangles), anchors(squares)


def r12_anchors_in_cubic_components(g: Graph) -> set:
    """The smallest vertex of every cubic component of order > 12, found by
    a plain BFS: one per component the reduction engine's setup files a
    key for."""
    comps = {id(comp): comp for comp in _component_of_each_vertex(g)}.values()
    return {min(comp) for comp in comps if len(comp) > 12 and _is_cubic(g, comp)}


def short_cycle_steps_outside_cubic_components(g: Graph, trace: ReductionTrace) -> list:
    """Indices of the R10, R11 and R12 steps of a trace whose removed
    vertices do not all lie in one cubic component of g, from a plain BFS.
    Those rules fire only once every alive vertex has degree 3, which
    leaves only the untouched cubic components of the input alive."""
    steps = [
        (idx, step) for idx, step in enumerate(trace.steps)
        if step.rule in ("R10", "R11", "R12")
    ]
    owner = _component_of_each_vertex(g) if steps else []
    out = []
    for idx, step in steps:
        comp = owner[step.removed[0]]
        if not (set(step.removed) <= comp and _is_cubic(g, comp)):
            out.append(idx)
    return out


def _is_cubic(g: Graph, vertices) -> bool:
    return all(len(g.adj[v]) == 3 for v in vertices)


def _in_large_component(g: Graph) -> list:
    """``out[v]``: whether the component of v has more than 12 vertices."""
    return [len(comp) > 12 for comp in _component_of_each_vertex(g)]


def _component_of_each_vertex(g: Graph) -> list:
    """``out[v]``: the vertex set of v's component, one shared set per
    component, by a plain BFS."""
    out = [None] * g.n
    for s in range(g.n):
        if out[s] is not None:
            continue
        comp = {s}
        queue = deque([s])
        while queue:
            for w in g.adj[queue.popleft()]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        for v in comp:
            out[v] = comp
    return out


def _earliest_rule(g: Graph, alive: list, before: int) -> Optional[int]:
    """The first rule below ``before`` (FRAG as 0, R2..R11; R1 is left to
    the caller) that applies in the alive graph, or None."""
    adj = g.adj
    nbrs = [[w for w in adj[v] if alive[w]] if alive[v] else [] for v in range(g.n)]
    found = set()
    for u in range(g.n):
        if len(nbrs[u]) == 1:
            v = nbrs[u][0]
            # FRAG, R2 or R5 by the degree of v, and R3 when v has two
            # end-vertices
            found.add({1: 0, 2: 2, 3: 5}[len(nbrs[v])])
            if sum(len(nbrs[w]) == 1 for w in nbrs[v]) >= 2:
                found.add(3)
        elif len(nbrs[u]) == 2:
            v1, v2 = nbrs[u]
            if len(nbrs[v1]) == 2 or len(nbrs[v2]) == 2:
                found.add(6)
            on_triangle = v2 in nbrs[v1]
            on_square = any(x != u and x in nbrs[v2] for x in nbrs[v1])
            if on_triangle:
                found.add(7)
            if on_square:
                found.add(8)
            if len(nbrs[v1]) == len(nbrs[v2]) == 3 and not (on_triangle or on_square):
                found.add(9)
    # the costlier searches run only where they could give the earliest rule
    if before > 4 and not any(r < 4 for r in found) and _has_r4_pair(g, alive):
        found.add(4)
    if before > 10 and not found:
        sets = [set(ws) for ws in nbrs]
        if any(sets[u] & sets[v] for u in range(g.n) for v in sets[u]):
            found.add(10)
        elif any(
            (sets[b] & sets[d]) - {a}
            for a in range(g.n)
            for b, d in combinations(nbrs[a], 2)
        ):
            found.add(11)
    earliest = min(found, default=None)
    return earliest if earliest is not None and earliest < before else None


def _has_r4_pair(g: Graph, alive: list) -> bool:
    """Two alive end-vertices at alive-distance exactly 4, by
    r4_partner_by_bfs from every alive end-vertex."""
    return any(
        r4_partner_by_bfs(g.adj, alive, s) is not None
        for s in range(g.n)
        if alive[s] and sum(alive[w] for w in g.adj[s]) == 1
    )


def r4_partner_by_bfs(adj, alive, u: int) -> Optional[int]:
    """The smallest alive end-vertex at alive-distance exactly 4 from u, by
    one plain BFS of depth 4, or None."""
    seen = {u}
    frontier = [u]
    for _ in range(4):
        frontier = {w for v in frontier for w in adj[v] if alive[w] and w not in seen}
        seen.update(frontier)
    ends = [w for w in frontier if sum(alive[x] for x in adj[w]) == 1]
    return min(ends, default=None)


def _replay(g: Graph, trace: ReductionTrace):
    """Yield (index, step, alive) before each step is applied, then apply
    it with replay_trace's checks; ``alive`` is updated in place."""
    n = g.n
    alive = [bool(g.adj[v]) for v in range(n)]  # engine drops isolated up front
    for idx, step in enumerate(trace.steps):
        yield idx, step, alive
        removed = set(step.removed)
        for v in removed:
            assert alive[v], f"vertex {v} removed twice"
        for u, v in step.added:
            assert u in removed and v in removed
        for v in removed:
            alive[v] = False
        iso = [
            w
            for w in range(n)
            if alive[w] and g.adj[w] and not any(alive[x] for x in g.adj[w])
        ]
        assert len(iso) == step.isolated_created, (
            f"step {step.rule}: recorded {step.isolated_created} isolated, "
            f"replay found {iso}"
        )
        for w in iso:
            alive[w] = False
    assert not any(alive), "trace left vertices unconsumed"


def splitmix64_reference(seed: int) -> Iterator[int]:
    """SplitMix64's outputs one draw at a time, by the scalar formula
    (Steele, Lea, Flood 2014): add gamma to the state, then mix it."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def girth6_generator_by_bfs(n: int, max_degree: int, seed: int) -> Graph:
    """gen_random_girth6 with the distance test done by a BFS to depth 4
    from u for each candidate u-v.  The draws are SplitMix64.draws, which
    tests pin against splitmix64_reference on their own."""
    edges = []
    if n < 2:
        return Graph(n, edges)
    adj = [[] for _ in range(n)]
    draws = SplitMix64(seed).draws(n)
    for _ in range(10 * n * max_degree):
        u, v = next(draws), next(draws)
        if u == v or len(adj[u]) >= max_degree or len(adj[v]) >= max_degree:
            continue
        if not _within_distance4_by_bfs(adj, u, v):
            adj[u].append(v)
            adj[v].append(u)
            edges.append((u, v))
    return Graph(n, edges)


def _within_distance4_by_bfs(adj: list, u: int, v: int) -> bool:
    dist = {u: 0}
    queue = deque((u,))
    while queue:
        x = queue.popleft()
        d = dist[x]
        if d == 4:
            continue
        for w in adj[x]:
            if w not in dist:
                if w == v:
                    return True
                dist[w] = d + 1
                queue.append(w)
    return v in dist
