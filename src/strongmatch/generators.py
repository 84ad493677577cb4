"""Deterministic graph generators: extremal constructions and seeded random families.

All randomness comes from SplitMix64 below, so every generator is a pure
function of its arguments and produces identical graphs on any platform.

SplitMix64's k-th output is mix(seed + k * gamma mod 2^64), a pure function
of k, so the generator computes its outputs a block at a time: one Python
int holds a block's states in 128-bit lanes, and each step of mix runs once
over the whole int.  A lane is masked back to 64 bits before each multiply,
so a 64 x 64-bit product stays inside its 128-bit lane and no carry crosses
into the next one; the stream is the one a draw-by-draw loop gives.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from collections.abc import Iterator
from functools import partial
from itertools import chain, islice, repeat
from operator import eq, le, mod

from .graph import Edge, Graph, GraphError, normalize_edge

_ATTEMPT_FACTOR = 20
_CUBIC_ATTEMPTS = 1000

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# block sizes in lanes double from the first to the last, so an instance
# that draws a few values computes only a few
_FIRST_LANES = 64
_MAX_LANES = 4096

# lanes -> (ones, steps, mask) with, in lane k, 1, (k + 1) * gamma mod 2^64
# and 2^64 - 1; only the schedule's sizes are ever cached
_LANE_CONSTANTS: dict[int, tuple[int, int, int]] = {}


def _lane_constants(lanes: int) -> tuple[int, int, int]:
    consts = _LANE_CONSTANTS.get(lanes)
    if consts is None:
        ones = int.from_bytes((b"\1" + bytes(15)) * lanes, "little")
        steps = int.from_bytes(
            b"".join(
                ((k + 1) * _GAMMA & _MASK64).to_bytes(16, "little")
                for k in range(lanes)
            ),
            "little",
        )
        consts = (ones, steps, ones * _MASK64)
        _LANE_CONSTANTS[lanes] = consts
    return consts


def _blocks(state: int) -> Iterator[array]:
    """The outputs after ``state``, as arrays of growing length."""
    lanes = _FIRST_LANES
    while True:
        ones, steps, mask = _lane_constants(lanes)
        z = (ones * state + steps) & mask
        z = (((z ^ (z >> 30)) & mask) * _MIX1) & mask
        z = (((z ^ (z >> 27)) & mask) * _MIX2) & mask
        z ^= z >> 31
        words = array("Q", z.to_bytes(16 * lanes, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield words[::2]
        state = (state + lanes * _GAMMA) & _MASK64
        lanes = min(2 * lanes, _MAX_LANES)


class SplitMix64:
    """SplitMix64 generator (Steele, Lea, Flood 2014).

    state := state + 0x9E3779B97F4A7C15 (mod 2^64), output mixed with two
    xor-shift-multiply rounds.  Chosen for portability: the algorithm is a
    dozen lines of 64-bit arithmetic, reproducible in any language.

    Output k depends only on seed + k * gamma, so the outputs are made in
    blocks of 64 to 4096 at once (see the module docstring): each block is
    mixed in 128-bit lanes of one int, wide enough for every 64 x 64-bit
    product, and the stream is the same as one draw at a time.
    """

    __slots__ = ("_stream",)

    def __init__(self, seed: int):
        self._stream = chain.from_iterable(_blocks(seed & _MASK64))

    def next_u64(self) -> int:
        return next(self._stream)

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        r = next(self._stream)
        # 2^64 mod bound < bound, so any r >= bound passes the rejection test
        if r < bound:
            threshold = (1 << 64) % bound
            while r < threshold:
                r = next(self._stream)
        return r % bound

    def draws(self, bound: int) -> Iterator[int]:
        """Endless below(bound) draws, as one iterator that reads this
        instance's stream: the same rejection rule, at C speed."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        threshold = (1 << 64) % bound
        return map(mod, filter(partial(le, threshold), self._stream), repeat(bound))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        stream = self._stream
        for i in range(len(items) - 1, 0, -1):
            r = next(stream)
            if r <= i:
                threshold = (1 << 64) % (i + 1)
                while r < threshold:
                    r = next(stream)
            j = r % (i + 1)
            items[i], items[j] = items[j], items[i]


def gen_k33plus() -> Graph:
    """K_{3,3} with one edge subdivided: 7 vertices, 10 edges, nu_s = 1.

    Sides {0,1,2} and {3,4,5}; the edge 0-3 is replaced by the path 0-6-3.
    The order-7 graph whose ceil(n/6) = 2 overshoot forces the n33plus
    correction term in the subcubic guarantee.
    """
    edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5) if (a, b) != (0, 3)]
    edges += [(0, 6), (3, 6)]
    return Graph(7, edges)


def gen_extremal_cubic() -> Graph:
    """Cubic graph on 30 vertices and 45 edges with nu_s = 5 = ceil(45/9).

    Four disjoint copies of the subdivided-K33 block (vertices 7k..7k+6) plus
    adjacent hubs 28 and 29; hub 28 absorbs the degree-2 vertices of copies
    0 and 1, hub 29 those of copies 2 and 3.  Tight for both the m/9 and the
    n/6 guarantees.
    """
    base = gen_k33plus()
    edges: list[Edge] = []
    for k in range(4):
        off = 7 * k
        edges.extend((u + off, v + off) for u, v in base.edges)
    edges += [(6, 28), (13, 28), (20, 29), (27, 29), (28, 29)]
    return Graph(30, edges)


def gen_c5_blowup(delta: int) -> Graph:
    """C5 blowup: five independent sets of size delta/2, consecutive classes
    fully joined.  delta must be even and >= 4.  The result is delta-regular
    of order 5*delta/2 with nu_s = 1 (every two edges conflict).
    """
    if delta < 4 or delta % 2:
        raise GraphError(f"delta must be even and >= 4, got {delta}")
    s = delta // 2
    return Graph(5 * s, _blowup_edges([s] * 5))


def _blowup_edges(sizes: list[int]) -> list[Edge]:
    starts = [0]
    for sz in sizes:
        starts.append(starts[-1] + sz)
    classes = [list(range(starts[i], starts[i + 1])) for i in range(len(sizes))]
    edges = []
    k = len(sizes)
    for i in range(k):
        for u in classes[i]:
            for v in classes[(i + 1) % k]:
                edges.append((u, v))
    return edges


def gen_odd_regular_extremal(delta: int) -> tuple[Graph, list[str]]:
    """Delta-regular graph of order 10*delta with nu_s = 5, for odd delta >= 3.

    Write delta = 2r + 1.  The block G0 is a C5 blowup with class sizes
    (r+1, r+1, r, r, r): its class-3 vertices have degree delta - 1, all
    others degree delta.  Four disjoint blocks plus adjacent hubs u, v; u is
    joined to every degree-(delta-1) vertex of blocks 0 and 1, v to those of
    blocks 2 and 3.  Any attachment bijection yields the same graph up to
    isomorphism; the one used is recorded in the returned comment lines.

    For delta = 3 the block is the subdivided-K33 graph and the result is a
    relabeling of gen_extremal_cubic().
    """
    if delta < 3 or delta % 2 == 0:
        raise GraphError(f"delta must be odd and >= 3, got {delta}")
    r = (delta - 1) // 2
    sizes = [r + 1, r + 1, r, r, r]
    block_n = sum(sizes)
    block_edges = _blowup_edges(sizes)
    # class 3 of each block holds the degree-(delta-1) vertices
    class3_start = 2 * (r + 1) + r
    low_deg = list(range(class3_start, class3_start + r))
    edges: list[Edge] = []
    for k in range(4):
        off = k * block_n
        edges.extend((u + off, v + off) for u, v in block_edges)
    hub_u = 4 * block_n
    hub_v = hub_u + 1
    comments = [f"odd-regular extremal construction, delta={delta}"]
    for k, hub in ((0, hub_u), (1, hub_u), (2, hub_v), (3, hub_v)):
        targets = [t + k * block_n for t in low_deg]
        edges.extend((hub, t) for t in targets)
        comments.append(
            f"hub {hub} -> block {k} vertices {','.join(map(str, targets))}"
        )
    edges.append((hub_u, hub_v))
    return Graph(4 * block_n + 2, edges), comments


def gen_random_bounded_degree(
    n: int, target_m: int, max_degree: int, seed: int
) -> Graph:
    """Random simple graph by attempt-limited edge insertion under a degree cap.

    Draws endpoint pairs from SplitMix64(seed); an attempt is kept when it is
    not a loop, not a duplicate, and both endpoints have degree below
    max_degree.  Stops after target_m accepted edges or
    _ATTEMPT_FACTOR * (target_m + 1) attempts, so m <= target_m and near-full
    degree sequences simply come out sparser.
    """
    if max_degree < 1:
        raise GraphError(f"max_degree must be >= 1, got {max_degree}")
    edges: list[Edge] = []
    if n < 2 or target_m <= 0:
        return Graph(n, edges)
    adj: list[set[int]] = [set() for _ in range(n)]
    degree = [0] * n
    d = SplitMix64(seed).draws(n)
    for u, v in islice(zip(d, d), _ATTEMPT_FACTOR * (target_m + 1)):
        # the cheapest test first: near the target most attempts hit a full vertex
        if degree[u] >= max_degree or degree[v] >= max_degree:
            continue
        if u == v or v in adj[u]:
            continue
        adj[u].add(v)
        adj[v].add(u)
        degree[u] += 1
        degree[v] += 1
        edges.append((u, v))
        if len(edges) == target_m:
            break
    return Graph(n, edges)


def gen_random_subcubic(n: int, target_m: int, seed: int) -> Graph:
    """Random subcubic graph (degree cap 3); see gen_random_bounded_degree."""
    return gen_random_bounded_degree(n, target_m, 3, seed)


def gen_random_cubic(n: int, seed: int) -> Graph:
    """Random cubic graph via the pairing model with rejection.

    Three stubs per vertex are shuffled and paired consecutively; an attempt
    is rejected wholesale if any pair is a loop or duplicate edge.  The
    acceptance rate tends to e^-2, independent of n.  Raises GraphError when
    n is odd, n < 4, or _CUBIC_ATTEMPTS rejections occur.
    """
    if n < 4 or n % 2:
        raise GraphError(f"cubic graphs need even n >= 4, got {n}")
    rng = SplitMix64(seed)
    all_stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(_CUBIC_ATTEMPTS):
        stubs = all_stubs.copy()
        rng.shuffle(stubs)
        us, vs = stubs[::2], stubs[1::2]
        if not any(map(eq, us, vs)):
            # in pairing order, not a set's: Graph sorts and fills these faster
            edges = list(map(normalize_edge, us, vs))
            if len(set(edges)) == len(edges):
                return Graph(n, edges)
    raise GraphError(f"no simple cubic pairing found in {_CUBIC_ATTEMPTS} attempts")


def gen_random_girth6(n: int, max_degree: int, seed: int) -> Graph:
    """Random graph of girth >= 6 under a degree cap.

    Edge insertion as in gen_random_bounded_degree, but a candidate u-v is
    also rejected unless the current distance between u and v is at least 5
    (checked by a depth-4 BFS), so every created cycle has length >= 6.
    Attempt limit: 10 * n * max_degree.
    """
    if max_degree < 1:
        raise GraphError(f"max_degree must be >= 1, got {max_degree}")
    adj: list[list[int]] = [[] for _ in range(n)]
    edges: list[Edge] = []
    if n < 2:
        return Graph(n, edges)
    d = SplitMix64(seed).draws(n)
    for u, v in islice(zip(d, d), 10 * n * max_degree):
        if u == v:
            continue
        if len(adj[u]) >= max_degree or len(adj[v]) >= max_degree:
            continue
        if _within_distance4(adj, u, v):
            continue
        adj[u].append(v)
        adj[v].append(u)
        edges.append((u, v))
    return Graph(n, edges)


def _within_distance4(adj: list[list[int]], u: int, v: int) -> bool:
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


def gen_random_forest(n: int, seed: int, attach_percent: int = 75) -> Graph:
    """Random labeled forest by sequential attachment.

    Vertex v >= 1 attaches to a uniformly random earlier vertex with
    probability attach_percent/100, otherwise starts a new tree.  Degrees
    are unbounded (hubs are likely), which exercises the forest guarantee at
    varying max degree.
    """
    if not 0 <= attach_percent <= 100:
        raise GraphError(f"attach_percent must be in 0..100, got {attach_percent}")
    rng = SplitMix64(seed)
    edges = []
    for v in range(1, n):
        if rng.below(100) < attach_percent:
            edges.append((rng.below(v), v))
    return Graph(n, edges)
