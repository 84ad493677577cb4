"""Graph core: immutable undirected graphs, file formats, structural queries.

Vertices are dense 0-based integer ids.  Graphs are simple (no loops, no
parallel edges) and immutable after construction; every algorithm in this
package iterates vertices in ascending id and neighbors in sorted order so
that results are reproducible for a fixed input labeling.
"""

from __future__ import annotations

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

    A local pass comes first (_short_cycle over every root in vertex
    order, the search that also picks the reduction engine's R10 and R11
    cycles): it returns the first triangle, else the first 4-cycle, and
    the girth is that cycle's length.  Only with neither does the BFS run,
    knowing the girth is at least 5, and it stops at the first 5-cycle.
    The local pass costs O(n D^2) for maximum degree D, plus O(D^4) per
    root until a 4-cycle is found; the BFS costs O(n + m) per root, cut
    short once 2 dist[v] + 1 reaches the best cycle found.
    """
    adj = g.adj
    cycle = _short_cycle(adj, range(g.n))
    if cycle is not None:
        return len(cycle)
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


def _short_cycle(
    adj: Sequence[Sequence[int]], roots: Iterable[int]
) -> Optional[tuple[int, ...]]:
    """The first triangle (s, b, c) whose smallest vertex s is one of
    ``roots``, in their order, else the first such 4-cycle (s, n1, x, n2),
    in cycle order, or None.

    Each cycle is looked for from its smallest vertex s, among the vertices
    above s: the triangle with (b, c) smallest, b < c, and the 4-cycle with
    n1 < n2 and (n1, n2, x) smallest.  A root with fewer than two neighbors
    above it is skipped.  Scanning the vertices of some components as roots
    thus finds exactly the short cycles of those components.  For maximum
    degree D the triangle test costs O(D^2) per root, with one set of the
    neighbors above s; the 4-cycle search, O(D^4) per root, runs only until
    a 4-cycle is found.
    """
    square = None
    for s in roots:
        nbrs = adj[s]
        if len(nbrs) < 2 or nbrs[-2] < s:
            continue
        up = [a for a in nbrs if a > s]
        near = set(up)
        for b in up:
            # a triangle s-c-b with c < b in near was met at c already
            if not near.isdisjoint(adj[b]):
                return s, b, min(near.intersection(adj[b]))
        if square is None:
            square = next(
                (
                    (s, n1, x, n2)
                    for i, n1 in enumerate(up)
                    for n2 in up[i + 1:]
                    for x in adj[n1]
                    if x > s and x in adj[n2]
                ),
                None,
            )
    return square


def _ring(adj, alive, removal: set[int]) -> dict[int, int]:
    """Each alive vertex outside ``removal`` with neighbors in it, mapped to
    their number.  Deleting ``removal`` isolates the vertices whose number
    is their alive degree: they have no other alive neighbor."""
    ring: dict[int, int] = {}
    for r in removal:
        for w in adj[r]:
            if alive[w] and w not in removal:
                ring[w] = ring.get(w, 0) + 1
    return ring


def _alive_closed(adj, alive, vertices: tuple[int, ...]) -> set[int]:
    """``vertices`` with their alive neighbors: the union of their alive
    closed neighborhoods, the set a peeling step deletes."""
    out = set(vertices)
    for v in vertices:
        for w in adj[v]:
            if alive[w]:
                out.add(w)
    return out


def _delete(adj, alive, deg, removal: set[int], ring: dict[int, int]) -> set[int]:
    """Delete ``removal`` and the vertices it isolates from the alive graph,
    where ``deg[v]`` is v's alive degree and ``ring`` is _ring(adj, alive,
    removal): lower each ring vertex's degree by its count, delete those left
    at 0, and return the alive vertices at distance at most 2 of the deleted
    set, the other ring vertices and their alive neighbors."""
    for v in removal:
        alive[v] = 0
    touched = set()
    for w, k in ring.items():
        deg[w] -= k
        if deg[w]:
            touched.add(w)
            for x in adj[w]:
                if alive[x]:
                    touched.add(x)
        else:
            alive[w] = 0
    return touched


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
    A line ends only at LF, CR LF or CR, the line ends open() translates.

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


def _lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by LF, CR LF or CR."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _edge_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(_lines(text), start=1):
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

    Every line is newline-terminated, and each line of a comment gets its
    own '#'.  Parsing the result reproduces g.
    """
    lines = [f"# {c}" if c else "#" for text in comments for c in _lines(text)]
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
