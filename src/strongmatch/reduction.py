"""Reduction engine: induced matchings in subcubic graphs with a certified size.

The engine repeatedly applies local reduction rules, each of which commits
one or two matching edges and deletes a bounded vertex set, until the graph
is empty.  Per committed edge a step consumes at most 6 vertices (deleted
plus newly isolated), which yields the certified output size

    |M| >= ceil((n - isolated - n33plus) / 6)

where n33plus counts components isomorphic to K33+ (K_{3,3} with one edge
subdivided, the unique connected subcubic graph of order 7 with strong
matching number 1); those components contribute their single edge via a
dedicated step.

Per component the engine works as follows: singletons are skipped, K33+
components emit one edge (COMPONENT-K33PLUS), components of order <= 12 are
solved exactly by the oracle (COMPONENT-BRUTE), and larger components go
through rules R1..R12 in fixed priority.  Every rule step matches one or
two edges and deletes the alive closed neighborhoods of their endpoints:

  R1   a K33+ subgraph, found by _k33plus_at on the input graph, the test
       COMPONENT-K33PLUS also uses (certify.py has its own): match the edge
       joining the two branch vertex pairs not adjacent to the degree-2
       subdivision vertex; the closed neighborhoods of its ends are the
       six branch vertices, and the subdivision vertex survives
  R2   end-vertex u with a degree-2 neighbor v: match uv
  R3   vertex v adjacent to two end-vertices: match v with the smallest
  R4   end-vertices u1, u2 at distance exactly 4: match u1 and u2 with
       their neighbors v1, v2
  R5   end-vertex u with a degree-3 neighbor v: match uv
  R6   adjacent degree-2 vertices u1, u2: match u1u2
  R7   degree-2 vertex u on a triangle u v1 v2: match uv1
  R8   degree-2 vertex u on a 4-cycle u v1 w v2: match uv1
  R9   degree-2 vertex u, both neighbors degree 3, no 3- or 4-cycle at u:
       match u with whichever neighbor's deletion leaves at most one
       isolated vertex
  R10  triangle in a now-cubic component: match one triangle edge
  R11  4-cycle in a now-cubic component: match the cycle edge whose
       deletion isolates nothing
  R12  cubic component of girth >= 5: match the smallest edge

R2..R5 and R7 so delete N[v] (N[v1] | N[v2] for R4): an end-vertex's or a
triangle's degree-2 vertex's closed neighborhood lies in its neighbor's.

Rule priority is the correctness argument: each rule's bound on the number
of isolated vertices it creates assumes every earlier rule is exhausted.
The order <= 12 threshold similarly precludes the degenerate order-7
components that R1, R8 and R9 would otherwise have to special-case.

Implementation: per-vertex alive flags, dynamic degrees, and one heap of
candidate anchors with integer keys rule * n + vertex.  _file queues each
vertex that setup or graph._delete reports under the first rule its degree
allows, FRAG for an end-vertex and R6 for a degree-2 vertex, so a key is
never later than its anchor's class.  run pops the smallest key, skips a
dead anchor and looks the anchor up once, which gives its current class
and the pattern _fire builds its options from.  The anchor fires when its
class key is no larger than the next key; otherwise that class key is
pushed.  R4 is searched for directly at each end-vertex u past R3: u's
neighbor v has two other alive neighbors xs, of degree at least 2, so the
end-vertices at distance exactly 4 are those beside a vertex y that is
beside some x and is neither v nor in xs.  R1 anchors are filed once up
front, which is sound because vertex deletion never creates a subgraph,
and setup stores each one's step with the seven vertices of its K33+,
which the lookup checks are alive when the key pops.  They are tested only
next to twins: in a K33+ at u, the two branch vertices not adjacent to u
share their adjacency tuple, and u is adjacent to one of their three
neighbors; setup counts the tuples of every vertex.  _k33plus_at reads
the input graph, which is exact at both of setup's calls: each vertex it
reads lies in u's component, which no step has touched yet, as a 7-vertex
component is tested before any of it is consumed and the twin scan reads
only components of order > 12, which setup leaves whole.

Only R1 anchors fire before the last R1 key pops, so an alive R1 anchor
still has its stored K33+ then, whose branch vertices keep all their
neighbors.  FRAG keys sort below R1
but re-file under R2..R5: setup consumes every order-2 component, and an
R1 step, taken on a component of order > 12, lowers only its subdivision
vertex's degree, so it creates none.  It deletes only branch vertices,
which have all their neighbors inside their K33+.  K33+ is 2-connected,
so a K33+ that meets another is the other (two sharing a subdivision
vertex share a branch vertex), and the step leaves every other K33+
whole.  It leaves alive the third neighbor t of each other K33+'s
subdivision vertex s too: as the input component has order > 12, t lies
outside that K33+, and a K33+ with t as a branch vertex would hold s and
so be that one.  So while R1 keys are left, a component holding a K33+
has order >= 8; once they are gone no K33+ subgraph is alive, as each
anchor fired or popped dead, and deletion creates none.  No step after
setup meets a K33+ component, and setup alone tests for one.

R10, R11 and R12 act only on cubic components.  Their keys pop only once
no key below R10 is left, and then no alive vertex has degree 1 or 2: it
would be of class at most R9, and the next paragraph shows that a vertex
of class c leaves a filed vertex of class at most c.  Deletion only
lowers degrees, so an alive vertex of degree 3 has all its input
neighbors alive, and the alive graph is then a union of input components
that are cubic, of order > 12 and untouched by any step.  A step there
matches one edge and so consumes at most 6 of the component's 14 or more
vertices, leaving one of degree 1 or 2; a touched component keeps a filed
vertex of degree 1 or 2 while any of it is alive, so R2..R9 and the
oracle consume it before the next R10 key pops.  Each such component thus
takes one R10, R11 or R12 step, and setup files one key for it: R10 at
its first triangle, else R11 at its first 4-cycle, from graph._short_cycle
(the pass girth also runs) over its vertices in order, else R12 at its
smallest vertex.  That is the earliest of the three rules that applies to
the component.  A cycle is filed at its smallest vertex.  Setup stores
the step with the cycle, its first edge for R10 and its four edges in
cycle order for R11, or R12's edge to its anchor's smallest neighbor
with that edge; the lookup checks their vertices are alive.  As the
component is untouched when its key pops, they are, and an R12 anchor's
component has girth >= 5.  An untouched component keeps its key, so no
vertex is alive once the queue is empty; run checks that.

The queue never goes back to an earlier rule.  Call a vertex filed when it
has a queue entry under a rule no later than its class.  A component the
oracle consumes changes no other class, and graph._delete reports every
alive vertex within distance 2 of the deleted set, which is filed afresh.
_classify reads nothing farther away, except the R3 test (the degree of a
sibling end-vertex) and the R4 test (an end-vertex at distance exactly 4).
At an unreported vertex x these tests can only turn R4 or R5 into R3, R5
into R4, or R4 into R5.  In the first two cases the sibling or partner has
just dropped to degree 1, so the same deletion reported it and filed it,
with class R3, or at most R4 as its own R4 search sees x.  Both relations
are symmetric, so a pair stays witnessed until one of its ends is
reported.  So every alive vertex of class c has a filed vertex of class at
most c: itself, a sibling, an R4 partner or that partner's sibling.  An
anchor fires only when its class key is no larger than every key left, so
no alive vertex has an earlier class: rules fire in priority order, and a
popped anchor is pushed back only under a later rule.

Every step but COMPONENT-K33PLUS goes through one guard, _commit: the
first of its options (two for R9, the four cycle edges for R11, one
elsewhere, as for the oracle's answer on a component) that consumes at
most 6 vertices per matched edge, deleted or isolated, is committed.  A
rule first probes its anchor's component with a capped BFS and diverts
one of order <= 12 to the oracle.  This realizes the per-component
recursion of the scheme above in near-linear total time.

There is no fallback path: a step that fails the guard raises
LedgerViolationError, whether a rule or the oracle is at fault.  Each
vertex leaves the alive graph once, so the guards imply the size bound,
n33plus paying for the COMPONENT-K33PLUS steps; ledger_check caps every
step alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Optional

from .certify import LedgerResult, _audit
from .graph import (
    Edge,
    Graph,
    GraphError,
    _alive_closed,
    _delete,
    _ring,
    _short_cycle,
    _walk_components,
    normalize_edge,
)
from .oracle import _bits, _conflict_masks, _max_independent

BRUTE_FORCE_THRESHOLD = 12

# rule priorities; FRAG is the internal id for leftover order-2 fragments,
# which are consumed like any other small component
_FRAG = 0
_R1, _R2, _R3, _R4, _R5, _R6, _R7, _R8, _R9, _R10, _R11, _R12 = range(1, 13)


class LedgerViolationError(RuntimeError):
    """A reduction step broke the 6-vertices-per-edge accounting, or the
    queue order the accounting rests on.

    The rule system guarantees this cannot happen; raising instead of
    continuing keeps a bug from silently weakening the size certificate.
    """


@dataclass(frozen=True)
class ReductionStep:
    """One committed step: rule id, sorted deleted vertices, matched edges,
    and the number of vertices the deletion isolated (those are dropped)."""

    rule: str
    removed: tuple[int, ...]
    added: tuple[Edge, ...]
    isolated_created: int


@dataclass(frozen=True)
class ReductionTrace:
    """Full replayable record of a reduction run on ``original``."""

    original: Graph
    steps: tuple[ReductionStep, ...]

    @property
    def matching(self) -> list[Edge]:
        return sorted(e for s in self.steps for e in s.added)


def find_induced_matching_subcubic(g: Graph) -> tuple[list[Edge], ReductionTrace]:
    """Induced matching of size >= ceil((n - i - n33plus)/6), with trace.

    Deterministic for a fixed labeling.  Raises GraphError when g has a
    vertex of degree > 3, LedgerViolationError if a step ever breaks the
    accounting (theoretically unreachable; a rule or oracle bug surfaces
    here).  The oracle runs on its default budget: a component sent to it
    has at most 12 vertices and so at most 18 edges, and its search, which
    branches in two on one edge per node, then expands fewer than 2^19
    nodes, far below DEFAULT_BUDGET.
    """
    if g.max_degree() > 3:
        raise GraphError(
            f"reduction requires max degree <= 3, got {g.max_degree()}"
        )
    eng = _Engine(g)
    eng.run()
    trace = ReductionTrace(original=g, steps=tuple(eng.steps))
    return trace.matching, trace


def format_trace(trace: ReductionTrace) -> str:
    """Serialize a trace, one step per line, ending with a summary line.

    Step lines: ``rule=<id> removed=<ids> added=<u-v,...> isolated=<k>``.
    Summary: ``matching=<size> bound=<thm2> ok=<bool>``.
    """
    return "\n".join(_format_audited(trace, _audit(trace))) + "\n"


def _format_audited(trace: ReductionTrace, audit: tuple[LedgerResult, int]) -> list[str]:
    """format_trace's lines, given the trace's ``_audit`` result."""
    lines = []
    for step in trace.steps:
        removed = ",".join(map(str, step.removed))
        lines.append(
            f"rule={step.rule} removed={removed} added={_edges_text(step.added)} "
            f"isolated={step.isolated_created}"
        )
    result, need = audit
    size = sum(len(step.added) for step in trace.steps)
    lines.append(f"matching={size} bound={need} ok={str(result.ok).lower()}")
    return lines


def _edges_text(edges) -> str:
    """Edges as ``u-v`` pairs joined by commas."""
    return ",".join(f"{u}-{v}" for u, v in edges)


def _k33plus_at(adj, u: int):
    """The R1 step at a K33+ subgraph of the input graph with subdivision
    vertex u: ((edge,), seven), or None when there is none.

    Its edge, the smallest between the two side pairs (the branch vertices
    not adjacent to u), joins their first vertices, whose closed
    neighborhoods are the six branch vertices; seven is (u, a1, b1,
    *side_a, *side_b).  In a subcubic graph the six branch vertices have no
    edges outside the subgraph, so checking exact neighborhoods is a
    complete test.  Each unordered pair a1 < b1 of u's degree-3 neighbors
    is tried once, in adjacency order; a hit on (a1, b1) is one on (b1, a1)
    with the sides swapped, so the first hit is the first ordered pair in
    adjacency order.  The sides are taken from the sorted adjacency, so
    they come out sorted.
    """
    nbrs_u = [w for w in adj[u] if len(adj[w]) == 3]
    for i, a1 in enumerate(nbrs_u):
        side_b = [w for w in adj[a1] if w != u]
        for b1 in nbrs_u[i + 1:]:
            side_a = [w for w in adj[b1] if w != u]
            if len({u, a1, b1, *side_a, *side_b}) != 7:
                continue
            # sorted adj: true iff each side vertex sees exactly the other side
            b_all = sorted((b1, *side_b))
            a_all = sorted((a1, *side_a))
            if (
                [w for a in side_a for w in adj[a]] == b_all * 2
                and [w for b in side_b for w in adj[b]] == a_all * 2
            ):
                return (normalize_edge(side_a[0], side_b[0]),), (u, a1, b1, *side_a, *side_b)
    return None


class _Engine:
    def __init__(self, g: Graph):
        n = g.n
        self.n = n
        self.adj = g.adj
        self.alive = bytearray(b"\x01" * n)
        self.deg = g.degrees()
        self.steps: list[ReductionStep] = []
        # candidate anchors, each keyed rule * n + vertex
        self.queue: list[int] = []
        # the step setup found at each R1, R10, R11 or R12 key: its options
        # and the vertices they need alive
        self.stored: dict[int, tuple[tuple, tuple[int, ...]]] = {}
        # adj and alive change in place and are never rebound
        self.closed = partial(_alive_closed, self.adj, self.alive)

    # -- setup ------------------------------------------------------------

    def run(self) -> None:
        self._setup()
        queue = self.queue
        alive = self.alive
        n = self.n
        while queue:
            rule, u = divmod(heappop(queue), n)
            if not alive[u]:
                continue
            cls, pat = self._lookup(rule, u)
            key = cls * n + u
            if not queue or key <= queue[0]:
                self._fire(cls, u, pat)
            else:
                heappush(queue, key)
        left = alive.find(1)
        if left >= 0:
            raise LedgerViolationError(f"vertex {left} is alive but the queue is empty")

    def _setup(self) -> None:
        """Drop the isolated vertices, consume the components of order at
        most BRUTE_FORCE_THRESHOLD and queue the first anchors.  A K33+
        component's step, paid for by n33plus, is the only one that skips
        _commit's guard, which a rule or oracle bug fails."""
        n = self.n
        adj = self.adj
        deg = self.deg
        alive = self.alive
        queue = self.queue
        for comp in _walk_components(adj):
            if len(comp) == 1:
                alive[comp[0]] = 0
            elif len(comp) == 7 and (
                # a K33+ subgraph on 7 vertices of a subcubic graph is the
                # whole component, so testing at its degree-2 vertex is exact
                hit := _k33plus_at(adj, min(comp, key=deg.__getitem__))
            ):
                for v in comp:
                    alive[v] = 0
                self.steps.append(
                    ReductionStep("COMPONENT-K33PLUS", tuple(sorted(comp)), hit[0], 0)
                )
            elif len(comp) <= BRUTE_FORCE_THRESHOLD:
                self._solve(sorted(comp))
            elif all(deg[v] == 3 for v in comp):
                # one step per untouched cubic component (see the module
                # docstring): R10 at its first triangle, else R11 at its first
                # 4-cycle, else R12 at its smallest edge, a walk of two
                walk = _short_cycle(adj, sorted(comp)) or (comp[0], adj[comp[0]][0])
                rule = (_R12, _R10, _R11)[len(walk) - 2]
                edges = tuple(zip(walk, walk[1:] + walk[:1]))
                options = edges if rule == _R11 else edges[:1]
                self.stored[rule * n + walk[0]] = (options, walk)
        # what is left alive makes up the components of order > 12
        self._file(compress(range(n), alive))
        # the side_a pair of a K33+ at u are degree-3 twins, and u is a
        # neighbor of one of their shared neighbors; twins lie in one
        # component, alive and untouched or consumed
        tuples = Counter(adj)
        repeated = compress(tuples, map((1).__lt__, tuples.values()))
        near = {
            w
            for nbrs in repeated
            if len(nbrs) == 3 and alive[nbrs[0]]
            for x in nbrs
            for w in adj[x]
        }
        for v in near:
            if hit := _k33plus_at(adj, v):
                self.stored[_R1 * n + v] = hit
        queue += self.stored
        heapify(queue)

    # -- candidate classification -----------------------------------------

    def _file(self, vertices) -> None:
        """Queue each vertex of degree at most 2 under the first rule its
        degree allows: FRAG for an end-vertex, R6 for a degree-2 vertex."""
        deg = self.deg
        n = self.n
        queue = self.queue
        for v in vertices:
            if deg[v] <= 2:
                heappush(queue, (_FRAG if deg[v] == 1 else _R6) * n + v)

    def _lookup(self, rule: int, u: int) -> tuple[int, object]:
        """(class, pattern) of an alive anchor queued under ``rule``.

        For FRAG and R2..R9 that is _classify.  An R1, R10, R11 or R12
        anchor's pattern is the one setup stored at its key, once every
        vertex stored with it is checked alive.  The queue order keeps those
        vertices until the key pops (see the module docstring), so a missing
        or broken entry raises LedgerViolationError.
        """
        if rule != _R1 and rule < _R10:
            return self._classify(rule, u)
        entry = self.stored.get(rule * self.n + u)
        if entry is None or not all(map(self.alive.__getitem__, entry[1])):
            lost = "K33+" if rule == _R1 else "edge" if rule == _R12 else "short cycle"
            raise LedgerViolationError(f"R{rule} anchor {u} is alive but its {lost} is gone")
        return rule, entry[0]

    def _classify(self, rule: int, u: int) -> tuple[int, object]:
        """Current (rule, pattern) of an alive anchor of degree at most 2,
        popped under ``rule``: FRAG or R2..R5 for an end-vertex, R6..R9 for
        a degree-2 vertex.  The pattern is _fire's options, each a flat
        tuple x1, v1[, x2, v2] of pairs to match; FRAG has none, as its
        component goes to the oracle.

        A degree-2 anchor is queued under R6 or later, and its key pops
        only once no key below R6 is left, so no end-vertex is alive.  One
        beside an end-vertex raises LedgerViolationError."""
        adj = self.adj
        alive = self.alive
        deg = self.deg
        if deg[u] == 1:
            for v in adj[u]:
                if alive[v]:
                    break
            dv = deg[v]
            if dv == 1:
                return _FRAG, None
            if dv == 2:
                return _R2, ((u, v),)
            # R3's mate is the first end-vertex in the sorted adj[v], u or not;
            # past R3, v's other alive neighbors xs have degree >= 2
            mate = -1
            xs = []
            for w in adj[v]:
                if alive[w] and deg[w] == 1:
                    if mate >= 0:
                        return _R3, ((mate, v),)
                    mate = w
                elif alive[w]:
                    xs.append(w)
            # the end-vertices w at distance exactly 4, each beside its y
            far = [
                (w, y)
                for x in xs
                for y in adj[x]
                if y != v and alive[y] and y not in xs
                for w in adj[y]
                if deg[w] == 1 and alive[w]
            ]
            if far:
                return _R4, ((u, v, *min(far)),)
            return _R5, ((u, v),)
        v1, v2 = [w for w in adj[u] if alive[w]]
        if deg[v1] == 1 or deg[v2] == 1:
            raise LedgerViolationError(
                f"R{rule} anchor {u} of degree 2 is beside an end-vertex"
            )
        if deg[v1] == 2 or deg[v2] == 2:
            return _R6, ((u, v1 if deg[v1] == 2 else v2),)
        if v2 in adj[v1]:
            return _R7, ((u, v1),)
        for x in adj[v1]:
            if x != u and alive[x] and x in adj[v2]:
                return _R8, ((u, v1),)
        return _R9, ((u, v1), (u, v2))

    # -- probes and small components --------------------------------------

    def _probe(self, s: int) -> Optional[list[int]]:
        """Alive component of s when its order is at most
        BRUTE_FORCE_THRESHOLD, else None."""
        adj = self.adj
        alive = self.alive
        seen = {s}
        comp = [s]
        for v in comp:
            for w in adj[v]:
                if alive[w] and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    if len(comp) > BRUTE_FORCE_THRESHOLD:
                        return None
        return comp

    def _solve(self, comp: list[int]) -> None:
        """Commit the oracle's answer on a small component as a
        COMPONENT-BRUTE step anchored at its smallest vertex.

        ``comp`` must be a sorted, whole alive component of order >= 2;
        a closed component has no outside neighbors, so its ring is empty
        and no isolated vertices arise.  The oracle's search runs on the
        conflict masks of the component's edges, listed in ascending order
        straight from the alive adjacency, so no Graph is built; the witness
        is the one exact_strong_matching_number gives on the component
        relabeled in vertex order.
        """
        adj = self.adj
        alive = self.alive
        # ascending, as comp and every adj[v] are
        edges = [(v, w) for v in comp for w in adj[v] if w > v and alive[w]]
        best = _max_independent(_conflict_masks(adj, edges))
        added = [edges[i] for i in _bits(best)]
        self._commit("COMPONENT-BRUTE", comp[0], [(set(comp), added)])

    # -- rule firing -------------------------------------------------------

    def _fire(self, rule: int, u: int, pat) -> None:
        """Fire ``rule`` at anchor u with the options its lookup returned,
        each a flat tuple x1, v1[, x2, v2]: match every pair x-v and delete
        the alive closed neighborhoods of all its vertices.

        A component that has shrunk to order <= BRUTE_FORCE_THRESHOLD goes
        to the oracle (every FRAG lands here); otherwise the rule's options
        go to _commit, in the order the rule tries them.
        """
        comp = self._probe(u)
        if comp is not None:
            self._solve(sorted(comp))
            return
        options = [(self.closed(o), list(map(normalize_edge, o[::2], o[1::2]))) for o in pat]
        self._commit(f"R{rule}", u, options)

    def _commit(self, rule: str, u: int, options) -> None:
        """Commit the first of ``options``, (removal, added) pairs, that
        consumes at most 6 vertices per matched edge, deleted or isolated,
        as a step named ``rule``; raise LedgerViolationError, naming the
        anchor u, when none does."""
        deg = self.deg
        for removal, added in options:
            ring = _ring(self.adj, self.alive, removal)
            iso = sum(k == deg[w] for w, k in ring.items())
            if len(removal) + iso <= 6 * len(added):
                self._file(_delete(self.adj, self.alive, deg, removal, ring))
                self.steps.append(
                    ReductionStep(rule, tuple(sorted(removal)), tuple(sorted(added)), iso)
                )
                return
        raise LedgerViolationError(
            f"rule {rule} at vertex {u} would break the 6-per-edge ledger"
        )
