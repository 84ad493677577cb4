"""Graph core: immutable undirected graphs, file formats, structural queries.

Vertices are dense 0-based integer ids.  Graphs are simple (no loops, no
parallel edges) and immutable after construction; every algorithm in this
package iterates vertices in ascending id and neighbors in sorted order so
that results are reproducible for a fixed input labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, starmap
from operator import eq, ge
from typing import Callable, Iterable, Iterator, Optional, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph construction or a precondition violation."""


class GraphParseError(GraphError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def normalize_edge(u: int, v: int) -> Edge:
    """Return the unordered pair (u, v) with the smaller id first."""
    return (u, v) if u < v else (v, u)


def _first_repeat(order: list[Edge]) -> Optional[Edge]:
    """The first edge of the sorted list ``order`` equal to the next one."""
    return next(compress(order, map(eq, order, islice(order, 1, None))), None)


class Graph:
    """Simple undirected graph with a fixed vertex set 0..n-1.

    ``edges`` may list each pair in any order and either orientation.
    ``adj[v]`` is a sorted tuple of neighbors; ``edges`` is the sorted tuple
    of normalized (min, max) pairs.  Construction raises GraphError on a
    negative n, a loop, an id outside 0..n-1 or a pair given twice (in
    either orientation), and freezes the structure.  The first loop or
    out-of-range pair in input order is named before any repeat.
    """

    __slots__ = ("n", "adj", "edges")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        pairs = list(edges)
        # only a pair out of (smaller, larger) order needs normalizing; a
        # loop (u, u) is one of them
        flipped = any(starmap(ge, pairs))
        order = sorted(starmap(normalize_edge, pairs) if flipped else pairs)
        # Filling the lists in edge order leaves each one sorted: a vertex
        # first meets its smaller neighbors, in order, then its larger ones.
        # An id >= n stops the fill; a negative one would index from the
        # end, so the smallest id, order[0][0], is checked on its own.
        lists: list[list[int]] = [[] for _ in range(n)]
        try:
            for u, v in order:
                lists[u].append(v)
                lists[v].append(u)
            ok = (not order or order[0][0] >= 0) and not (
                flipped and any(starmap(eq, pairs))
            )
        except IndexError:
            ok = False
        if not ok:
            # name the first loop or out-of-range pair in input order
            u, v = next(
                (u, v) for u, v in pairs if u == v or not (0 <= u < n and 0 <= v < n)
            )
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            raise GraphError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        repeat = _first_repeat(order)
        if repeat is not None:
            raise GraphError(f"duplicate edge {repeat}")
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, lists))
        self.edges: tuple[Edge, ...] = tuple(order)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        # neighbor tuples are short in bounded-degree graphs; linear scan wins
        return v in self.adj[u]

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adj), default=0)

    def min_degree(self) -> int:
        return min((len(nbrs) for nbrs in self.adj), default=0)

    def is_cubic(self) -> bool:
        return self.n > 0 and all(len(nbrs) == 3 for nbrs in self.adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by their smallest vertex."""
    return [sorted(comp) for comp in _walk_components(g.adj)]


def _walk_components(adj: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Each component's vertices in BFS order from its smallest vertex,
    components in the order of that vertex; one ``seen`` walk in all."""
    seen = bytearray(len(adj))
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = 1
        comp = [s]
        # the list grows while it is walked; that is the BFS queue
        for v in comp:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        yield comp


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for acyclic graphs.

    The all-roots BFS of Itai and Rodeh, with each cycle looked for only
    from its smallest vertex: the search from root s sees only vertices
    >= s, and a root with fewer than two neighbors above it is skipped.
    This stays exact.  Every non-tree edge (v, w) met from s closes a walk
    of length dist[v] + dist[w] + 1 in g, which never undercuts the girth,
    and the smallest vertex s of a shortest cycle C sees all of C among the
    vertices >= s, where the BFS from s reports |C|.

    A local pass over every root in vertex order comes first (_short_cycles,
    which also seeds the reduction engine's R10 and R11 anchors, there from
    the roots of the cubic components only): a triangle returns 3 at once,
    and if the pass ends with none, a 4-cycle gives 4.  Only then does the
    BFS run, knowing the girth is at least 5, and it stops at the first
    5-cycle.  The local pass marks vertices in two stamp arrays (N(s) and
    the vertices reached) and builds no sets, so it costs O(n D^2) for
    maximum degree D; the BFS costs O(n + m) per root, cut short once
    2 dist[v] + 1 reaches the best cycle found.
    """
    adj = g.adj
    triangles, squares = _short_cycles(adj, stop_at_triangle=True)
    if triangles:
        return 3
    if squares:
        return 4
    n = g.n
    best: Optional[int] = None
    dist = [0] * n
    stamp = [0] * n
    for s in range(n):
        nbrs = adj[s]
        if len(nbrs) < 2 or nbrs[-2] < s:
            continue
        tag = s + 1
        stamp[s] = tag
        dist[s] = 0
        queue = [s]
        # the list grows while it is walked; that is the BFS queue
        for v in queue:
            dv = dist[v]
            if best is not None and 2 * dv + 1 >= best:
                break
            for w in adj[v]:
                if w < s:
                    continue
                if stamp[w] != tag:
                    stamp[w] = tag
                    dist[w] = dv + 1
                    queue.append(w)
                elif dist[w] >= dv:
                    # a non-tree edge; one back to the level above was
                    # already met from its other end
                    cand = dv + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
        if best == 5:
            break
    return best


def _short_cycles(
    adj: Sequence[Sequence[int]],
    roots: Optional[Iterable[int]] = None,
    stop_at_triangle: bool = False,
) -> tuple[list[int], list[int]]:
    """Smallest vertices of the triangles and of the 4-cycles whose
    smallest vertex is one of ``roots`` (default: every vertex), in the
    order of ``roots``.

    Each cycle is looked for from its smallest vertex s, through the
    neighbors of s above it, so a root with fewer than two neighbors above
    it is skipped: a vertex above s reached from two of them closes a
    4-cycle, and one that is itself a neighbor of s closes a triangle.
    Scanning the vertices of some components as roots thus finds exactly
    the short cycles of those components.  Two stamp arrays, tagged s + 1,
    stand in for per-root sets: ``near`` marks N(s), and ``seen`` the
    vertices reached so far.  O(D^2) per root for maximum degree D.  With
    ``stop_at_triangle`` the pass ends at the first triangle found.
    """
    n = len(adj)
    near = [0] * n
    seen = [0] * n
    tri_roots: list[int] = []
    c4_roots: list[int] = []
    for s in range(n) if roots is None else roots:
        nbrs = adj[s]
        if len(nbrs) < 2 or nbrs[-2] < s:
            continue
        tag = s + 1
        for a in nbrs:
            near[a] = tag
        tri = c4 = False
        for a in nbrs:
            if a < s:
                continue
            for w in adj[a]:
                if w <= s:
                    continue
                if near[w] == tag:
                    if stop_at_triangle:
                        return [s], []
                    tri = True
                if seen[w] == tag:
                    c4 = True
                else:
                    seen[w] = tag
        if tri:
            tri_roots.append(s)
        if c4:
            c4_roots.append(s)
    return tri_roots, c4_roots


def _k33plus_at(adj, alive, deg, u: int):
    """K33+ subgraph with subdivision vertex u in the alive graph.

    ``alive[v]`` and ``deg[v]`` are v's alive flag and alive degree.
    Returns (a1, b1, side_a, side_b) or None.  In a subcubic graph the six
    branch vertices have no edges outside the subgraph, so checking exact
    alive neighborhoods is a complete test.
    """
    if deg[u] < 2:
        return None
    nbrs_u = [w for w in adj[u] if alive[w]]
    for a1 in nbrs_u:
        if deg[a1] != 3:
            continue
        for b1 in nbrs_u:
            if b1 == a1 or deg[b1] != 3 or b1 in adj[a1]:
                continue
            side_b = [w for w in adj[a1] if alive[w] and w != u]
            if len(side_b) != 2:
                continue
            side_a = [w for w in adj[b1] if alive[w] and w != u]
            if len(side_a) != 2:
                continue
            six = {a1, b1, *side_a, *side_b}
            if len(six) != 6 or u in six:
                continue
            b_all = sorted((b1, *side_b))
            a_all = sorted((a1, *side_a))
            ok = True
            for a in side_a:
                if sorted(w for w in adj[a] if alive[w]) != b_all:
                    ok = False
                    break
            if ok:
                for b in side_b:
                    if sorted(w for w in adj[b] if alive[w]) != a_all:
                        ok = False
                        break
            if ok:
                return a1, b1, sorted(side_a), sorted(side_b)
    return None


def _incident_lists(g: Graph) -> list[list[int]]:
    """``incident[v]``: the indices into ``g.edges`` of the edges at v."""
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    return incident


@dataclass(frozen=True)
class BoundReport:
    """Exact invariants of a graph plus every applicable size guarantee.

    ``girth`` is None for acyclic graphs.  A bound field is None when its
    hypothesis fails.  Rational fields are exact Fractions; integer bounds
    are ceilings.
    """

    n: int
    m: int
    isolated: int
    n33plus: int
    max_degree: int
    girth: Optional[int]
    thm2_bound: int
    thm1_bound: Optional[int]
    prop1_bound: Optional[int]
    greedy_general_bound: Fraction
    greedy_forest_bound: Optional[Fraction]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _census(g: Graph) -> tuple[int, int]:
    """Numbers of isolated vertices and of K33+ components of g.

    Both are local, so no component walk is needed.  A K33+ component is
    the closed 7-vertex set {u} | N(u) | N(a1) | N(b1) around its only
    degree-2 vertex u, whose neighbors are a1 and b1.  Each such closed set
    is counted once, from its u, when _k33plus_at finds a K33+ at u with
    the set as the alive graph: a hit spans 7 vertices and fixes every edge
    at its six branch vertices, so the set is then exactly K33+.
    """
    adj = g.adj
    n33 = 0
    for u, nbrs in enumerate(adj):
        if len(nbrs) != 2:
            continue
        a1, b1 = nbrs
        if len(adj[a1]) != 3 or len(adj[b1]) != 3:
            continue
        ball = {a1, b1, *adj[a1], *adj[b1]}
        if len(ball) == 7 and all(x in ball for w in ball for x in adj[w]):
            deg = {w: len(adj[w]) for w in ball}
            if _k33plus_at(adj, dict.fromkeys(ball, 1), deg, u) is not None:
                n33 += 1
    return adj.count(()), n33


def _thm2_bound(n: int, isolated: int, n33plus: int) -> int:
    """ceil((n - isolated - n33plus) / 6), the reduction engine's guarantee."""
    return _ceil_div(n - isolated - n33plus, 6)


def _isolated_after(
    adj: Sequence[Sequence[int]], alive: bytearray, removal: set[int]
) -> list[int]:
    """Alive vertices outside ``removal`` whose alive neighbors all lie in it."""
    iso = []
    seen = set()
    for r in removal:
        for w in adj[r]:
            if alive[w] and w not in removal and w not in seen:
                seen.add(w)
                for x in adj[w]:
                    if alive[x] and x not in removal:
                        break
                else:
                    iso.append(w)
    return iso


def _alive_closed(adj, alive, v: int) -> set[int]:
    """v with its alive neighbors."""
    out = {v}
    for w in adj[v]:
        if alive[w]:
            out.add(w)
    return out


def _delete(adj, alive, deg, removal: set[int], iso: list[int]) -> set[int]:
    """Delete ``removal`` and the vertices ``iso`` it isolates (from
    _isolated_after) from the alive graph, where ``deg[v]`` is v's alive
    degree: clear their alive flags, lower their alive neighbors' degrees,
    and return the alive vertices at distance at most 2 of the deleted set.
    """
    for v in removal:
        alive[v] = 0
    ring1 = []
    for v in removal:
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                ring1.append(w)
    for w in iso:
        alive[w] = 0
    touched = set()
    for w in ring1:
        if alive[w]:
            touched.add(w)
            for x in adj[w]:
                if alive[x]:
                    touched.add(x)
    return touched


def _conflicts(adj, incident, u: int, v: int) -> set[int]:
    """Ids of the edges that conflict with the edge uv, uv itself included:
    those meeting N(u) | N(v), which is N[u] | N[v].  ``incident`` is
    _incident_lists(g)."""
    at = incident.__getitem__
    return set().union(*map(at, adj[u]), *map(at, adj[v]))


def count_invariants(g: Graph) -> BoundReport:
    """Compute the BoundReport for g.

    thm2_bound = ceil((n - isolated - n33plus) / 6) is the guarantee met by
    the reduction engine on subcubic inputs, where n33plus counts components
    isomorphic to K33+ (found by _census with _k33plus_at, no component
    walk).  thm1_bound = ceil(m / 9) applies to cubic graphs,
    prop1_bound = ceil((n - isolated) / (D^2/4 + D + 1)) to graphs of girth
    at least 6 (D = max degree), and the greedy bounds m / (2D(D-1) + 1) and
    m / (2D - 1) to arbitrary graphs and forests respectively.
    """
    return _bound_report(g, girth(g))


def _bound_report(g: Graph, gi: Optional[int]) -> BoundReport:
    """count_invariants(g), given the girth gi of g (None: acyclic)."""
    n = g.n
    m = g.m
    isolated, n33 = _census(g)
    dmax = g.max_degree()

    thm2 = _thm2_bound(n, isolated, n33)

    if g.is_cubic():
        thm1: Optional[int] = _ceil_div(m, 9)
    else:
        thm1 = None

    if gi is None or gi >= 6:
        # (n - i) / (D^2/4 + D + 1) == 4 (n - i) / (D + 2)^2
        prop1: Optional[int] = _ceil_div(4 * (n - isolated), (dmax + 2) ** 2)
    else:
        prop1 = None

    greedy_general = Fraction(m, 2 * dmax * (dmax - 1) + 1)

    if gi is None:
        forest_bound: Optional[Fraction] = (
            Fraction(m, 2 * dmax - 1) if dmax >= 1 else Fraction(0)
        )
    else:
        forest_bound = None

    return BoundReport(
        n=n,
        m=m,
        isolated=isolated,
        n33plus=n33,
        max_degree=dmax,
        girth=gi,
        thm2_bound=thm2,
        thm1_bound=thm1,
        prop1_bound=prop1,
        greedy_general_bound=greedy_general,
        greedy_forest_bound=forest_bound,
    )


def verify_induced_matching(
    g: Graph, matching: Iterable[Edge]
) -> Optional[tuple[int, int]]:
    """Check that ``matching`` is an induced matching of g.

    Returns None when valid, otherwise one violating vertex pair: (x, x) when
    two edges share vertex x, or an adjacent pair (x, y) with x and y on
    distinct matching edges.  Edges not present in g raise GraphError.
    Runs in O(n + m) independent of matching size.
    """
    edges = sorted(normalize_edge(u, v) for u, v in matching)
    owner: dict[int, int] = {}
    for idx, (u, v) in enumerate(edges):
        if not g.has_edge(u, v):
            raise GraphError(f"matching edge {(u, v)} is not an edge of the graph")
        for x in (u, v):
            if x in owner:
                return (x, x)
            owner[x] = idx
    for idx, (u, v) in enumerate(edges):
        for x in (u, v):
            for w in g.adj[x]:
                j = owner.get(w)
                if j is not None and j != idx:
                    return (x, w)
    return None


# ---------------------------------------------------------------------------
# file formats


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    """Parse a graph from text in 'edge-list' or 'dimacs' format.

    edge-list: '#' comment lines, an optional first directive "n <count>",
    then "u v" lines with 0-based ids.  Without a directive the vertex count
    is max id + 1 (0 for an empty file).

    dimacs: header "p edge <n> <m>", edge lines "e <u> <v>" with 1-based ids
    (renumbered to 0-based); 'c' comment lines are accepted.  The declared
    edge count must match.

    Ids and counts are ASCII decimal digits in both formats, and one leading
    byte-order mark (U+FEFF) is dropped, for files, stdin and callers alike.

    The faults Graph rejects (a loop, an id out of range, a repeated pair)
    are GraphParseErrors at the first offending line, raised after any
    syntax error in the file; silent repair would hide corpus bugs.
    """
    text = text.removeprefix("\ufeff")
    if fmt == "edge-list":
        return _parse_edge_list(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    raise GraphParseError(f"unknown format {fmt!r}")


def _edge_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _integer(token: str) -> int:
    """An id or a count: ASCII decimal digits, after one '-' for a negative
    value, which the callers reject with their own texts.  ValueError on
    anything else, such as the '+', '_' and non-ASCII digits int() takes."""
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdigit() and digits.isascii():
        return int(token)
    raise ValueError(token)


def _reader(text: str) -> Callable[[str], int]:
    """int() where it takes exactly _integer's tokens, on ASCII text with no
    '+' or '_'; else _integer, whose call per id costs a third of a parse."""
    plain = text.isascii() and "+" not in text and "_" not in text
    return int if plain else _integer


def _parse_edge_list(text: str) -> Graph:
    read = _reader(text)
    declared: Optional[int] = None
    edges: list[Edge] = []
    lines: list[int] = []
    first = True
    for lineno, line in _edge_lines(text):
        parts = line.split()
        if first and parts[0] == "n":
            first = False
            if len(parts) != 2:
                raise GraphParseError("directive must be 'n <count>'", lineno)
            try:
                declared = read(parts[1])
            except ValueError:
                raise GraphParseError(f"bad vertex count {parts[1]!r}", lineno) from None
            if declared < 0:
                raise GraphParseError(f"negative vertex count {declared}", lineno)
            continue
        first = False
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = read(parts[0]), read(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"negative vertex id in {line!r}", lineno)
        if u > v:
            u, v = v, u
        edges.append((u, v))
        lines.append(lineno)
    if declared is None:
        n = 1 + max((v for _, v in edges), default=-1)
    else:
        n = declared
    return _build_checked(n, edges, lines)


def _parse_dimacs(text: str) -> Graph:
    read = _reader(text)
    n: Optional[int] = None
    declared_m = 0
    edges: list[Edge] = []
    lines: list[int] = []
    for lineno, line in _edge_lines(text):
        parts = line.split()
        kind = parts[0]
        if kind == "c":
            continue
        if kind == "p":
            if n is not None:
                raise GraphParseError("second problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(f"expected 'p edge <n> <m>', got {line!r}", lineno)
            try:
                n, declared_m = read(parts[2]), read(parts[3])
            except ValueError:
                raise GraphParseError(f"bad problem line {line!r}", lineno) from None
            if n < 0 or declared_m < 0:
                raise GraphParseError(f"negative counts in {line!r}", lineno)
            continue
        if kind == "e":
            if n is None:
                raise GraphParseError("edge line before problem line", lineno)
            if len(parts) != 3:
                raise GraphParseError(f"expected 'e <u> <v>', got {line!r}", lineno)
            try:
                u, v = read(parts[1]), read(parts[2])
            except ValueError:
                raise GraphParseError(f"non-integer vertex id in {line!r}", lineno) from None
            if u < 1 or v < 1:
                raise GraphParseError(f"dimacs ids are 1-based, got {line!r}", lineno)
            if u > v:
                u, v = v, u
            edges.append((u - 1, v - 1))
            lines.append(lineno)
            continue
        raise GraphParseError(f"unknown line kind {kind!r}", lineno)
    if n is None:
        raise GraphParseError("missing problem line")
    if len(edges) != declared_m:
        raise GraphParseError(
            f"problem line declares {declared_m} edges, found {len(edges)}"
        )
    return _build_checked(n, edges, lines)


def _build_checked(n: int, edges: list[Edge], lines: list[int]) -> Graph:
    """The graph of a parsed file's normalized edges, ``lines`` their line numbers.

    Only when Graph rejects the edges are they checked again, in file
    order, to report the first offending line.
    """
    try:
        return Graph(n, edges)
    except GraphError:
        pass
    seen: dict[Edge, int] = {}
    for key, lineno in zip(edges, lines):
        u, v = key
        if u == v:
            raise GraphParseError(f"loop at vertex {u}", lineno)
        if v >= n:
            raise GraphParseError(
                f"vertex id {v} outside declared range 0..{n - 1}", lineno
            )
        if key in seen:
            raise GraphParseError(
                f"duplicate edge {key} (first seen on line {seen[key]})", lineno
            )
        seen[key] = lineno
    raise AssertionError("a parse error went unreported")


def write_edge_list(g: Graph, comments: Sequence[str] = ()) -> str:
    """Serialize g bit-exactly: comments, "n <count>" directive, sorted edges.

    Every line is newline-terminated.  Parsing the result reproduces g.
    """
    lines = [f"# {c}" if c else "#" for c in comments]
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
