"""Certificate checks: every test a size claim rests on, in one module.

A run claims that its matching is induced and at least as large as a
bound.  verify_induced_matching checks the first claim on the graph alone,
count_invariants recomputes every bound from the graph, and ledger_check
replays a reduction trace with alive degrees of its own and audits its
6-per-edge accounting against the bound ceil((n - isolated - n33plus) / 6),
with the census of isolated vertices and K33+ components taken afresh from
the original graph.

This module is the trusted base of those claims.  From the package it
imports only the graph type, its errors, normalize_edge and girth, and never
the reduction engine or the command line, so a fault in the engine's rules,
its bookkeeping or its K33+ recognizer cannot weaken a check made here.
girth feeds only the girth field and the girth-6 and forest bounds, never
the reduction bound or the audit.  Traces are read through their
``original`` and ``steps`` attributes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .graph import Edge, Graph, GraphError, girth, normalize_edge


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

    Both are local, so no component walk is needed.  A K33+ component has
    one degree-2 vertex u and is counted from it.  With a and b the
    neighbors of u, the closed set {u, a, b} | N(a) | N(b) is a K33+
    component exactly when it has 7 vertices, the six vertices other than u
    have degree 3 and no neighbor outside the set, and dropping u and
    joining a and b leaves no triangle.  a and b are then not adjacent, or
    the set would have at most 5 vertices, so that graph is cubic on 6
    vertices, and so K3,3, as the prism, the other one, has triangles.  The
    test shares no code with the reduction engine's K33+ recognizer, whose
    false hit would otherwise lower the engine's bound and this check's
    alike.
    """
    adj = g.adj
    n33 = 0
    for u, nbrs in enumerate(adj):
        if len(nbrs) != 2:
            continue
        a, b = nbrs
        if len(adj[a]) != 3 or len(adj[b]) != 3:
            continue
        ball = {a, b, *adj[a], *adj[b]}
        if len(ball) != 7 or not all(ball.issuperset(adj[w]) for w in ball):
            continue
        six = ball - {u}
        if any(len(adj[w]) != 3 for w in six):
            continue
        # the six with their neighbors once u is dropped and a and b joined
        h = {w: six.intersection(adj[w]) for w in six}
        h[a].add(b)
        h[b].add(a)
        if not any(h[x] & h[y] for x in h for y in h[x]):
            n33 += 1
    return adj.count(()), n33


def _thm2_bound(n: int, isolated: int, n33plus: int) -> int:
    """ceil((n - isolated - n33plus) / 6), the reduction engine's guarantee."""
    return _ceil_div(n - isolated - n33plus, 6)


def count_invariants(g: Graph) -> BoundReport:
    """Compute the BoundReport for g.

    thm2_bound = ceil((n - isolated - n33plus) / 6) is the guarantee met by
    the reduction engine on subcubic inputs, where n33plus counts components
    isomorphic to K33+ (found by _census, which walks no component and
    shares no code with the engine).  thm1_bound = ceil(m / 9) applies to
    cubic graphs, prop1_bound = ceil((n - isolated) / (D^2/4 + D + 1)) to
    graphs of girth at least 6 (D = max degree), and the greedy bounds
    m / (2D(D-1) + 1) and m / (2D - 1) to arbitrary graphs and forests
    respectively.
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


class LedgerResult(NamedTuple):
    """ok, plus the offending step index (None for a global shortfall)."""

    ok: bool
    violation_step: Optional[int]


def ledger_check(trace) -> LedgerResult:
    """Audit a ReductionTrace: per-step accounting plus the global size
    guarantee.

    The audit replays the trace on the original graph with its own alive
    flags and degrees: a vertex stops being alive when a step removes it or
    leaves it with no alive neighbor, and vertices isolated in the input
    never are.  Per step: at least one added edge; added edges are graph
    edges whose ends are alive before the step and removed by it; removed
    vertices are alive vertices of the graph, each removed once; the
    isolated count is the number of vertices the removal leaves with no
    alive neighbor; no end of an added edge has an alive neighbor after
    the step, and no two of the step's added edges share an end or are
    joined by an edge, so the union of all steps' edges is an induced
    matching; deleted count plus isolated count is at most 6 per
    added edge, except that as many steps as the original graph has K33+
    components may go one vertex over (a K33+ component's step, 7 vertices
    for 1 edge, which its n33plus unit pays for).  Globally: the steps
    consume the graph, leaving no vertex alive, and total added edges >=
    ceil((n - i - n33plus)/6), recomputed from the original graph.  Step
    names are never read.  O(n + m).
    """
    return _audit(trace)[0]


def _audit(
    trace, census: Optional[tuple[int, int]] = None
) -> tuple[LedgerResult, int]:
    """ledger_check's verdict plus the global bound, recomputed from the
    original graph rather than taken from the engine.  ``census`` is
    _census of the original graph when the caller already has it."""
    g = trace.original
    adj = g.adj
    isolated, n33 = _census(g) if census is None else census
    need = _thm2_bound(g.n, isolated, n33)
    n = g.n
    # a replay kept here, apart from the engine's graph._delete: the alive
    # flags of the vertices with a neighbor, and their alive degrees
    alive = bytearray(map(bool, adj))
    deg = list(map(len, adj))
    for idx, step in enumerate(trace.steps):
        if len(step.added) < 1:
            return LedgerResult(False, idx), need
        for u, v in step.added:
            if not g.has_edge(u, v) or not (alive[u] and alive[v]):
                return LedgerResult(False, idx), need
        for v in step.removed:
            if not (0 <= v < n and alive[v]):
                return LedgerResult(False, idx), need
            alive[v] = 0
        # both ends of every matched edge are removed by this step
        for u, v in step.added:
            if alive[u] or alive[v]:
                return LedgerResult(False, idx), need
        # the step's isolated vertices: its removal takes their last neighbor
        iso = 0
        for v in step.removed:
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    if not deg[w]:
                        alive[w] = 0
                        iso += 1
        if iso != step.isolated_created:
            return LedgerResult(False, idx), need
        # the matching is induced: the step's edges share no end, and the
        # only neighbor of a matched end that is alive or matched in this
        # step is its partner
        ends = {x for edge in step.added for x in edge}
        met = [w for x in ends for w in adj[x] if alive[w] or w in ends]
        if len(ends) != 2 * len(step.added) or len(met) != len(ends):
            return LedgerResult(False, idx), need
        over = len(step.removed) + iso - 6 * len(step.added)
        if over > 0:
            if over > 1 or n33 == 0:
                return LedgerResult(False, idx), need
            n33 -= 1
    total = sum(len(step.added) for step in trace.steps)
    if alive.find(1) >= 0 or total < need:
        return LedgerResult(False, None), need
    return LedgerResult(True, None), need
