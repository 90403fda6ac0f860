"""Desk-scale audits on finite windows of symbolic graphs.

A BallView materializes the breadth-first neighborhood of some base
vertices.  Infinite-degree vertices (cone points) can only be enumerated up
to a word budget, so a window is parametrized by a hop radius and a budget
that shrinks with depth; every verdict derived from a window is explicit
about what it certifies.  Violations exhibit finite witnesses and are exact;
"pass" verdicts on infinite graphs are certified relative to the window.

Angle values are distances in the window with the apex deleted: a finite
value is an upper bound for the true angle (and exact once the witness path
clears the boundary); "infinite within the window" may still be finite
outside it.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cache

from .errors import BudgetExceeded, CombinatorialBlowup, WindowTooSmall
from .ggraphs import GGraph
# ball_enumerate is unused here; the benchmark binds
# graphforge.analysis:ball_enumerate
from .groups import ball_enumerate, conjugacy_probe  # noqa: F401
from .gsets import GSetElem
from .subgroups import YES, same_subgroup

INFINITE = math.inf


def pmap(fn, items):
    """``[fn(x) for x in items]``, under a name of its own so that the
    benchmark tracer (``bench/hooks.py``) can time each row it runs."""
    return [fn(x) for x in items]


@dataclass(slots=True)
class BallVertex:
    index: int
    elem: GSetElem
    depth: int
    complete: bool = True      # all incident edges enumerated


class BallView:
    """A finite window of a graph (or a bare finite graph) as parallel
    arrays: vertex i is ``elems[i]`` at ``depths[i]``, ``complete_at[i]`` when
    all its edges were enumerated; edge k of orbit ``edge_orbit[k]`` joins
    ``edge_ends[k] = (i, j)``, i <= j.  ``adj`` (each joined pair once, in
    first-edge order) is built in one pass when read after an add."""

    def __init__(self, radius, word_budget=None):
        self.radius = radius
        self.word_budget = word_budget if word_budget is not None else radius
        self.elems: list[GSetElem] = []
        self.depths = array("l")
        self.complete_at = bytearray()
        self.edge_orbit: list[str] = []
        self.edge_ends: list[tuple] = []
        self.base: list[int] = []
        self.complete = True
        self._edge_index = {}          # edge key -> edge index
        self._adj = None               # adj, until the next add
        self._forest = None            # is_forest's answer until an add
        # what a narrower window is derived from (see narrow_view): for each
        # expanded vertex, in index order, the offset of its first entry in
        # _item_edge, which holds the window edge of every edge that its
        # incidence listed (see _grow), in the order listed
        self._item_start = array("l")
        self._item_edge = array("l")

    # -- construction helpers ---------------------------------------------

    def add_vertex(self, elem, depth, complete=True) -> int:
        self._adj = self._forest = None
        self.elems.append(elem)
        self.depths.append(depth)
        self.complete_at.append(complete)
        return len(self.elems) - 1

    def add_edge(self, orbit_id, i, j, key=None) -> int:
        """Index of the edge with this key, added if it is new."""
        if i > j:
            i, j = j, i
        if key is None:
            key = (orbit_id, i, j)
        idx = self._edge_index.get(key)
        if idx is None:
            idx = self._edge_index[key] = len(self.edge_ends)
            self._adj = self._forest = None
            self.edge_orbit.append(orbit_id)
            self.edge_ends.append((i, j))
        return idx

    # -- queries --------------------------------------------------------------

    @property
    def adj(self):
        if self._adj is None:
            self._adj = [[] for _ in self.depths]
            for i, j in dict.fromkeys(self.edge_ends):
                self._adj[i].append(j)
                if i != j:
                    self._adj[j].append(i)
        return self._adj

    @property
    def vertices(self):
        """Records made on each read, only for ``bench/hooks.py``; the
        audits and ``dot.py`` read the arrays."""
        return [BallVertex(i, *v) for i, v in enumerate(
            zip(self.elems, self.depths, map(bool, self.complete_at)))]

    @property
    def vertex_count(self):
        return len(self.elems)

    @property
    def edge_count(self):
        return len(self.edge_ends)

    def distances_from(self, start, banned=None, cutoff=None):
        adj = self.adj
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if cutoff is not None and dist[u] >= cutoff:
                continue
            for v in adj[u]:
                if banned is not None and v in banned:
                    continue
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def connected(self) -> bool:
        if not self.elems:
            return True
        return len(self.distances_from(0)) == len(self.elems)

    def is_forest(self) -> bool:
        """No cycle, loop or parallel edge: the adjacency lists form a simple
        forest.  One O(E) union-find pass, kept until the next add."""
        if self._forest is None:
            parent = list(range(len(self.elems)))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            def joins(ends):
                ri, rj = map(find, ends)
                parent[rj] = ri
                return ri != rj

            self._forest = all(map(joins, self.edge_ends))
        return self._forest


def _depth_budget(view: BallView, depth: int) -> int:
    """The stabilizer enumeration budget at a hop depth of the window."""
    return max(1, view.word_budget - depth)


def _grow(view: BallView, keys, max_vertices, incidence):
    """Fill ``view`` breadth-first from the vertices named by ``keys``, up
    to its radius, and return each vertex's key, by index.

    A key is any hashable name of one vertex, and the caller builds
    ``view.elems`` from the returned keys.  ``incidence(key, depth)`` gives
    ``(complete, items)`` for a frontier vertex: its edges in order as
    ``(edge orbit id, other ends' keys, edge key)``; a key already in the
    window (None: orbit and ends) adds no edge.  The other ends are read
    one at a time, between the vertex cap checks, so an incidence may
    resolve each end lazily.  This is the one window search: ``ball_view``
    and ``narrow_view`` differ only in their incidence.  Cost beyond
    ``incidence``: a dict lookup per other end and per edge key, three
    appends per new vertex, and one pass to build ``adj``.
    """
    index = {}   # key -> vertex index
    order = []   # vertex index -> key
    depths, flags = view.depths, view.complete_at
    edge_orbit, edge_ends, edge_index = (view.edge_orbit, view.edge_ends,
                                         view._edge_index)
    item_start, item_edge = view._item_start, view._item_edge
    radius = view.radius
    for key in keys:
        if key not in index:
            index[key] = len(order)
            view.base.append(len(order))
            order.append(key)
            depths.append(0)
            flags.append(1)

    frontier = list(view.base)
    for depth in range(radius):
        nxt = []
        for vi in frontier:
            complete, items = incidence(order[vi], depth)
            if not complete:
                flags[vi] = 0
                view.complete = False
            item_start.append(len(item_edge))
            for orbit_id, others, key in items:
                wi = vi
                for end in others:
                    wi = index.get(end)
                    if wi is None:
                        wi = len(order)
                        if wi >= max_vertices:
                            raise BudgetExceeded(
                                f"ball exceeded {max_vertices} vertices",
                                budget=max_vertices)
                        index[end] = wi
                        order.append(end)
                        depths.append(depth + 1)
                        flags.append(depth + 1 < radius)
                        nxt.append(wi)
                if key is None:
                    key = ((orbit_id, vi, wi) if vi <= wi
                           else (orbit_id, wi, vi))
                k = edge_index.get(key)
                if k is None:
                    k = edge_index[key] = len(edge_ends)
                    edge_orbit.append(orbit_id)
                    edge_ends.append((vi, wi) if vi <= wi else (wi, vi))
                item_edge.append(k)
        frontier = nxt
    # boundary vertices were never expanded
    if radius > 0 and radius in depths:
        view.complete = False
    view.adj     # built here, once
    return order


def ball_view(graph: GGraph, bases, radius: int, word_budget=None,
              max_vertices=200000) -> BallView:
    """Breadth-first window around the base vertices.

    The enumeration budget for a vertex's stabilizer decreases with its
    depth, so far-away cone points contribute fewer neighbors; a vertex
    whose incident edges were only sampled has its ``complete_at`` flag 0.

    The window is built around the bases moved by ``r^-1``, where ``r`` is
    the first base's rep, and then moved back by ``r``.  So the window
    around a vertex ``v`` is exactly ``v``'s rep times the window around
    its orbit's point with rep 1: the same vertices in the same order, with
    the same edges, depths and flags, and every count read off it depends
    on the orbit alone.

    In the moved window each orbit's incident edges are listed once per
    budget, at its point with rep 1 (``GGraph.base_incident_edges``: one
    ``incident_edges`` call per (orbit, budget) pair), and translated: at a
    vertex with rep ``f`` a listed edge or other end ``x0`` becomes
    ``coset_rep(f x0)``.  That is the vertex's own ``incident_edges`` list,
    in its order: it samples ``f u end^-1`` for the base point's
    ``u end^-1``, a coset rep depends only on the coset (or, without exact
    reps, is the normal form), and left translation permutes cosets.  A
    vertex ``w`` of the finished window therefore has the edges that
    ``incident_edges`` lists at the element ``r coset_rep(r^-1 w)``.
    Sampling at ``w``'s own rep instead would not commute with translation:
    the rep of ``g w`` is ``g rep(w) h`` for some ``h`` in the stabilizer,
    and ``h`` times the stabilizer's ball of a budget is not that ball.
    Sampling at the element that first reached ``w`` would commute, but
    which element that is can depend on the budget, and ``narrow_view``
    needs it not to.

    A vertex is keyed by its ``(orbit id, rep)`` pair in the moved window.
    In an orbit without exact coset reps two pairs can name one vertex, so
    there an other end is keyed by the first window vertex of its orbit
    that ``elem_equal`` finds equal to it, or by its own pair when none is.
    That lookup is made here, as ``_grow`` reads the end, so comparisons
    and the vertex cap interleave in search order; a plan with no end in
    such an orbit skips it.

    Cost: one product per distinct ``x0`` of the list and one coset rep per
    distinct (``x0``, coset rep handle) pair at every expanded vertex (each
    has a slot in the list's plan, which its edges and other ends read; in
    a cone-off an edge and its other end often share both), one
    ``elem_equal`` per earlier vertex of the orbit for an end without exact
    reps, then ``_grow``'s; then one ``GSetElem`` per vertex, and when ``r``
    is not 1 one ``act`` to move it back.  In a splitting a product the
    cache misses costs the fold of ``x0``'s letters plus one reopened
    syllable of ``r``.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    view = BallView(radius, word_budget)
    verts = graph.vertices
    bases = [verts.elem(b.orbit_id, b.rep) for b in bases]
    frame = bases[0].rep if bases else None
    if frame:
        back = frame.inverse()
        bases = [verts.act(back, b) for b in bases]
    edge_stab, vert_stab = graph.edges.stabilizer, verts.stabilizer
    product = graph.group._product   # every rep here is a normal form
    seen = {}   # orbit id without exact reps -> its window vertices

    def key_of(orbit_id, rep):
        if not vert_stab(orbit_id).rep_exact:
            elem = GSetElem(orbit_id, rep)
            bucket = seen.setdefault(orbit_id, [])
            for cand in bucket:
                if verts.elem_equal(cand, elem):
                    return orbit_id, cand.rep
            bucket.append(elem)
        return orbit_id, rep

    @cache
    def plan(orbit_id, budget):
        found, complete = graph.base_incident_edges(orbit_id, budget)
        xs, outs = {}, {}   # x0 -> slot; (x0 slot, coset rep) -> slot

        def slot(x0, stab):   # a trivial stabilizer's rep is x itself
            rep = None if stab.is_trivial() else stab.coset_rep
            return outs.setdefault((xs.setdefault(x0, len(xs)), rep),
                                   len(outs))

        items = [(e.orbit_id,
                  [(q.orbit_id, slot(q.rep, vert_stab(q.orbit_id)))
                   for q in others],
                  slot(e.rep, edge_stab(e.orbit_id))
                  if edge_stab(e.orbit_id).rep_exact else None)
                 for e, others in found]
        loose = any(not vert_stab(q).rep_exact
                    for _, ends, _ in items for q, _ in ends)
        return complete, list(xs), list(outs), items, loose

    def incidence(key, depth):
        v_orbit, r = key
        complete, xs, outs, items, loose = plan(v_orbit,
                                                _depth_budget(view, depth))
        ys = [product((r, x0)) if x0 else r for x0 in xs]
        zs = [rep(ys[x]) if rep else ys[x] for x, rep in outs]
        return complete, [
            (orbit_id,
             (key_of(q_orbit, zs[q]) for q_orbit, q in ends) if loose else
             [(q_orbit, zs[q]) for q_orbit, q in ends],
             None if e is None else (orbit_id, zs[e]))
            for orbit_id, ends, e in items]

    keys = _grow(view, [key_of(b.orbit_id, b.rep) for b in bases],
                 max_vertices, incidence)
    view.elems = [GSetElem(*key) for key in keys]
    if frame:
        view.elems = [verts.act(frame, v) for v in view.elems]
    return view


def narrow_view(graph: GGraph, wide: BallView, word_budget: int) -> BallView:
    """The window ``ball_view(graph, bases, wide.radius, word_budget)``,
    derived from the wider window ``wide`` that ``ball_view`` built around
    the same bases with a budget at least as large.

    This runs ``_grow`` over ``wide``'s records, keyed by wide vertex
    index, instead of enumerating stabilizers again.  It is exact because
    (1) each stabilizer sample contains every smaller-budget sample, so a
    vertex's edges at a smaller budget are among its edges at a larger one;
    (2) a vertex's depth in the wider window is at most its depth in the
    narrower one, so every vertex this search expands was expanded there,
    with a budget at least as large; (3) each vertex's edges are the
    translates of its orbit's base-point list, in order, by an element fixed
    by the vertex and the first base alone, not by the budget or by the
    path that reached the vertex (``r coset_rep(r^-1 w)``, see
    ``ball_view``), so which wide-budget edges survive at a smaller budget,
    and in what order, is read from those memoised lists; and an edge's
    other endpoint does not depend on which stabilizer element found it.

    The wide index alone names a vertex: the vertices of ``wide`` are
    distinct elements (distinct ``(orbit, rep)`` pairs in an orbit with
    exact coset representatives, told apart by ``elem_equal`` while
    ``wide`` was built in the others), so each is ``wide``'s own
    ``GSetElem``, with the representative it has there.  For the same
    reason the narrowed window has no vertex cap of its own: it cannot
    grow past ``wide``.

    Cost: one ``incident_edges`` call per (orbit, budget) pair whose list
    ``ball_view`` has not made, then one step per edge of the narrowed
    window's expanded vertices, which reads the wide edge's orbit and ends
    by its index, then ``_grow``'s.
    """
    view = BallView(wide.radius, word_budget)
    if _depth_budget(view, 0) > _depth_budget(wide, 0):
        raise ValueError("a window can only be narrowed to a smaller budget")
    edges = graph.edges

    @cache
    def plan(orbit_id, wide_budget, budget):
        """Which of the wide-budget edges at a vertex of the orbit survive
        at the budget, as indices into incident_edges' list, in order."""
        wide_found, _ = graph.base_incident_edges(orbit_id, wide_budget)
        found, complete = graph.base_incident_edges(orbit_id, budget)
        position = {(e.orbit_id, e.rep): k
                    for k, (e, _) in enumerate(wide_found)}
        return [position[(e.orbit_id, e.rep)]
                if edges.stabilizer(e.orbit_id).rep_exact else
                next(k for k, (w, _) in enumerate(wide_found)
                     if edges.elem_equal(w, e))
                for e, _ in found], complete

    w_elems, w_orbit, w_ends = wide.elems, wide.edge_orbit, wide.edge_ends
    w_edge = wide._item_edge

    def incidence(lo, depth):
        kept, complete = plan(w_elems[lo].orbit_id,
                              _depth_budget(wide, wide.depths[lo]),
                              _depth_budget(view, depth))
        start = wide._item_start[lo]
        return complete, [(w_orbit[e], (j if i == lo else i,), e)
                          for k in kept for e in [w_edge[start + k]]
                          for i, j in [w_ends[e]]]

    keys = _grow(view, wide.base, INFINITE, incidence)
    view.elems = [w_elems[lo] for lo in keys]
    return view


def find_vertex(view: BallView, graph: GGraph, elem: GSetElem):
    verts = graph.vertices
    elem = verts.elem(elem.orbit_id, elem.rep)
    for i, v in enumerate(view.elems):
        if v.orbit_id == elem.orbit_id and verts.elem_equal(v, elem):
            return i
    return None


# -- angles ------------------------------------------------------------------


@dataclass
class AngleTable:
    apex: int
    neighbors: list
    values: dict  # (x, y) -> value, symmetric

    def value(self, x, y):
        return self.values[(min(x, y), max(x, y))]


def angle_table(view: BallView, apex: int) -> AngleTable:
    """The angle at the apex between each pair of its neighbors: the length
    of the shortest path between them in the window with the apex deleted,
    INFINITE when there is none inside the window (0 from a neighbor to
    itself)."""
    nbrs = sorted(view.adj[apex])

    def row(x):
        dist = view.distances_from(x, banned={apex})
        return {(x, y): dist.get(y, INFINITE) for y in nbrs if y >= x}

    values = {}
    for r in pmap(row, nbrs):
        values.update(r)
    return AngleTable(apex, nbrs, values)


# -- fineness -----------------------------------------------------------------


@dataclass
class FinenessCertificate:
    vertex: GSetElem
    angle_bound: int
    radius: int
    verdict: str       # locally-finite-at-.. / violation / inconclusive at ..
    witness: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.verdict.startswith("locally-finite")

    @property
    def condition(self):
        """The verdict as an audit condition reads it."""
        if self.ok:
            return "pass"
        return "fail" if self.verdict == "violation" else "inconclusive"


def _neighbor_counts(graph, view, apex_idx, bound):
    """For each neighbor x of the apex: how many neighbors lie within the
    angle bound of x (computed inside the window)."""
    nbrs = view.adj[apex_idx]

    def close_set(x):
        dist = view.distances_from(x, banned={apex_idx}, cutoff=bound)
        return [y for y in nbrs if dist.get(y, INFINITE) <= bound]

    rows = pmap(close_set, nbrs)
    keys = [graph.vertices.elem_key(view.elems[x]) for x in nbrs]
    return dict(zip(keys, map(len, rows))), dict(zip(keys, rows))


def _orbit_fineness(graph, orbit_id, angle_bound, radius, max_vertices):
    """What ``fineness_probe`` finds at the orbit's point with rep 1, before
    a threshold is applied: the trusted neighbors whose counts grow from the
    small window to the large one, as ``(key, small count, large count)``;
    the large window's close neighbors of each; and the counts a
    certificate without a violation carries."""
    vertex = graph.vertices.elem(orbit_id)
    hops = min(radius, angle_bound + 1)   # not only room: see fineness_probe
    large = ball_view(graph, [vertex], hops, word_budget=radius + 2,
                      max_vertices=max_vertices)
    small = narrow_view(graph, large, radius)
    # the apex is the first vertex of both windows
    counts_s, _ = _neighbor_counts(graph, small, 0, angle_bound)
    counts_l, wit_l = _neighbor_counts(graph, large, 0, angle_bound)

    # neighbors discovered near the enumeration rim have window-limited
    # counts; only those well inside the budget are compared across windows
    incident, complete = graph.base_incident_edges(
        orbit_id, max(1, radius - angle_bound))
    trusted = set(counts_s) if complete else {
        graph.vertices.elem_key(w) for _, others in incident for w in others}
    grown = [(key, c_small, counts_l.get(key, c_small))
             for key, c_small in counts_s.items()
             if key in trusted and counts_l.get(key, c_small) > c_small]
    witnesses = {key: [large.elems[i] for i in wit_l[key]]
                 for key, _, _ in grown}
    return grown, witnesses, counts_l if grown else counts_s


def fineness_probe(graph: GGraph, vertex: GSetElem, angle_bound: int,
                   radius: int, threshold: int,
                   max_vertices=200000) -> FinenessCertificate:
    """Compare angle-bound neighbor counts across two windows.

    A family that already meets the threshold and keeps growing with the
    window is a violation (its witnesses are real vertices, so this is
    exact); stable counts certify local finiteness at the window size.

    A path of length at most the angle bound between two neighbors of the
    apex stays within hop-depth ``angle_bound + 1``, so the windows use that
    hop radius; the requested radius only widens the enumeration budgets.
    The hop radius also decides which deep vertices join the apex's
    neighbors: at ``example-coned-free``'s probe the apex lists ``a^k``,
    ``|k| <= 8``, in the small window, and ``a^±9`` ... ``a^±13`` join when
    depths 2-6 are expanded.  Hop radius ``angle_bound // 2 + 2`` cuts its
    count table from 27 entries to 23 (``a^±12``, ``a^±13`` drop out and
    ``a^±6`` ... ``a^±11`` count less), so it is not lowered.

    The window around a vertex with rep ``r`` is ``r`` times the window
    around its orbit's point with rep 1 (see ``ball_view``), and so is every
    count and witness read off it.  So the probe runs once per (orbit,
    angle bound, radius, ``max_vertices``), at that point, and is kept in
    ``graph.fineness_probes``; each call applies its threshold to the kept
    findings and moves them to its vertex with ``graph.vertices.act``.  A
    ``BudgetExceeded`` is kept as its message and budget and raised afresh
    on each call.

    Cost of a probe: one ``ball_view`` build, of the large window (word
    budget ``radius + 2``); the small window (word budget ``radius``) is
    narrowed from it by ``narrow_view``, at one step per edge of the small
    window's expanded vertices.  A later call with the same key costs one
    ``act`` per count and witness it returns.

    Because only the large window is built, a low ``max_vertices`` can
    surface a different ``BudgetExceeded`` than building the small window
    directly would: when an orbit's coset representatives are not exact,
    the large build may hit the vertex cap before the small one would meet
    an undecided equality.  At the cone vertex of F2 coned off over
    <ab, ba>, with ``angle_bound`` 2 (hop radius 3), ``radius`` 4 and a
    3,000-vertex cap, a direct small build raises "element equality
    undecided in orbit 'cone:H'" while this probe raises "ball exceeded
    3000 vertices".  Both are budget errors; at the default cap the two
    messages agree on that graph for ``radius`` 1-5.
    """
    verts = graph.vertices
    key = (vertex.orbit_id, angle_bound, radius, max_vertices)
    if key not in graph.fineness_probes:
        try:
            graph.fineness_probes[key] = None, _orbit_fineness(graph, *key)
        except BudgetExceeded as exc:
            # not the exception itself: its traceback would keep the
            # build's frames alive in a reference cycle
            graph.fineness_probes[key] = (str(exc), exc.budget), None
    error, found = graph.fineness_probes[key]
    if error is not None:
        raise BudgetExceeded(error[0], budget=error[1])
    grown, witnesses, counts = found
    r = verts.elem(vertex.orbit_id, vertex.rep).rep

    def moved(found_key):
        return verts.elem_key(verts.act(r, GSetElem(*found_key)))

    violating = [entry for entry in grown if entry[2] >= threshold]
    if violating:
        key = max(violating, key=lambda e: e[2])[0]
        return FinenessCertificate(vertex, angle_bound, radius, "violation",
                                   [verts.act(r, w) for w in witnesses[key]],
                                   {moved(k): c for k, _, c in violating})
    verdict = (f"inconclusive at threshold={threshold}, radius={radius}"
               if grown else f"locally-finite-at-({angle_bound},{radius})")
    return FinenessCertificate(vertex, angle_bound, radius, verdict,
                               counts={moved(k): c
                                       for k, c in counts.items()})


# -- embedded paths ---------------------------------------------------------


def embedded_path_counts(view: BallView, x: int, targets, length_bound: int,
                         cap: int = 10 ** 6) -> dict:
    """Exact numbers of simple paths from ``x`` to each target, of length
    at most the bound (a single edge always counts), inside the window.

    One backtracking search from ``x`` with one shared ``used`` set counts
    the paths to every target at once; a branch stops once its path holds
    every target.  The cost is one step per simple path from ``x`` shorter
    than the bound that misses at least one target.

    The guard is still counted per pair: the search for ``(x, y)`` alone
    takes ``1 + P - Q(y)`` steps, where P counts the simple paths from
    ``x`` shorter than the bound and Q(y) those among them that visit
    ``y``.  CombinatorialBlowup is raised as soon as any target's count
    passes ``cap``.

    In a forest a target counts 1 iff its distance from ``x`` is within
    the bound, found by a breadth-first search that stops once every
    target is reached.  A pair's search there takes at most n steps, so
    this runs only while n is within the cap, where the guard cannot fire.
    """
    counts = dict.fromkeys(targets, 0)
    if x in counts:
        counts[x] = 1
    want = [y for y in counts if y != x]
    if not want:
        return counts
    if cap < 1:   # the first step alone passes the cap
        raise CombinatorialBlowup(f"more than {cap} search steps")
    adj = view.adj
    if view.is_forest() and view.vertex_count <= cap:
        seen, level = {x}, [x]
        for _ in range(max(length_bound, 1)):
            level = [v for u in level for v in adj[u] if v not in seen]
            seen.update(level)
            if not level or seen.issuperset(want):
                break
        return {y: int(y in seen) for y in counts}
    full = len(want)
    # a target's steps are 1 + the pushes made while it is off the path:
    # ``done[y]`` counts the pushes of finished visits to y and ``entry[y]``
    # the push count when the visit on the path began
    done = dict.fromkeys(want, 0)
    entry = {}
    pushes = 0
    # each push adds at most one step to any target, so the exact maximum
    # is only recomputed when it could have passed the cap
    slack = cap - 1
    used = {x}
    path = [x]
    frames = [iter(adj[x])]
    while frames:
        for v in frames[-1]:
            if v in used:
                continue
            hit = v in counts
            if hit:
                counts[v] += 1
            if len(path) >= length_bound:
                continue
            if hit:
                if len(entry) + 1 == full:
                    continue
                entry[v] = pushes
            pushes += 1
            slack -= 1
            if slack < 0:
                worst = max(entry.get(y, pushes) - done[y] for y in want)
                slack = cap - 1 - worst
                if slack < 0:
                    raise CombinatorialBlowup(f"more than {cap} search steps")
            used.add(v)
            path.append(v)
            frames.append(iter(adj[v]))
            break
        else:
            frames.pop()
            v = path.pop()
            used.discard(v)
            if v in entry:
                done[v] += pushes - entry.pop(v)
    return counts


def embedded_path_count(view: BallView, x: int, y: int, length_bound: int,
                        cap: int = 10 ** 6) -> int:
    """Exact number of simple paths between two window vertices of length
    at most the bound, inside the window."""
    return embedded_path_counts(view, x, (y,), length_bound, cap)[y]


# -- hyperbolicity -------------------------------------------------------------


@dataclass
class HyperbolicityEstimate:
    delta: float
    radius: int
    method: str = "thin-triangles-exhaustive"


def delta_estimate(view: BallView) -> HyperbolicityEstimate:
    """Exact maximum thin-triangle defect over every geodesic triangle with
    corners in the window.

    For each corner pair the side may be any geodesic; the defect maximizes,
    over points u on any side, the distance from u to the farthest choice of
    the other two sides.  Farthest-geodesic distances are computed by a
    bottleneck dynamic program over the geodesic DAG towards each corner,
    which equals the exhaustive enumeration without listing paths.

    Every triangle is a side {p, q}, a point u on one of its geodesics and a
    third corner r, so the defect is taken for each (p, q, u) at once over
    all r.  Cost, for n window vertices and g geodesic members per pair:
    one breadth-first search and n whole-row steps of the DP per corner,
    then ~g·n²/2 element-wise min/max sweeps of length n; the far tables
    take 4·n³ bytes.

    A connected window with n - 1 edges is a tree, where every triangle is
    a tripod, so it answers 0 after the first breadth-first search.
    """
    n = view.vertex_count
    if n == 0:
        return HyperbolicityEstimate(0.0, view.radius)
    dist = []
    for i in range(n):
        found = view.distances_from(i)
        if len(found) != n:
            raise WindowTooSmall("delta estimate needs a connected window")
        if view.edge_count == n - 1:
            return HyperbolicityEstimate(0.0, view.radius)
        row = [0] * n
        for v, d in found.items():
            row[v] = d
        dist.append(row)
    adj = view.adj

    def far_table(t):
        # rows[r][u] = max over geodesics from r to t of their distance to
        # u; the successors of r are its neighbours one step nearer t.  The
        # table is returned transposed: [u][r], one array per u.
        dt = dist[t]
        rows = [None] * n
        for r in sorted(range(n), key=dt.__getitem__):
            step = dt[r] - 1
            succ = [rows[w] for w in adj[r] if dt[w] == step]
            if not succ:
                rows[r] = dt
            elif len(succ) == 1:
                rows[r] = list(map(min, dist[r], succ[0]))
            else:
                rows[r] = list(map(min, dist[r], map(max, *succ)))
        return [array("I", col) for col in zip(*rows)]

    far = pmap(far_table, range(n))

    delta = 0
    for p in range(n):
        dp, fp = dist[p], far[p]
        for q in range(p, n):
            dq, fq, d = dist[q], far[q], dp[q]
            for u in range(n):
                if dp[u] + dq[u] == d:
                    delta = max(delta, max(map(min, fp[u], fq[u])))
    return HyperbolicityEstimate(float(delta), view.radius)


# -- cut vertices -------------------------------------------------------------


@dataclass
class CutVertexReport:
    passed: bool
    component_count: int
    details: list
    inconclusive: bool = False


def cut_vertex_audit(zgraph: GGraph, view: BallView, z: GSetElem) -> CutVertexReport:
    """Remove the window's copy of the identified orbit and check that the
    pieces are side-pure translates of the inputs."""
    prov = zgraph.provenance
    z_idx = find_vertex(view, zgraph, z)
    if z_idx is None:
        raise WindowTooSmall("window must contain the identified vertex")
    sampled = not view.complete_at[z_idx]
    cut = {i for i, v in enumerate(view.elems) if v.orbit_id == z.orbit_id}
    remaining = [i for i in range(view.vertex_count) if i not in cut]
    if not remaining:
        return CutVertexReport(True, 0, [("vacuous", "window is one orbit")])

    def side_of(orbit_id):
        if prov is not None and prov.kind == "pushout":
            return "X" if orbit_id.startswith("X:") else "Y"
        return "X"

    # one entry per component, in order of its least vertex index
    details = []
    passed = True
    seen = set()
    for root in remaining:
        if root in seen:
            continue
        members = view.distances_from(root, banned=cut)
        seen.update(members)
        sides = {side_of(view.elems[u].orbit_id) for u in members}
        if len(sides) != 1:
            passed = False
            details.append(("mixed-component", root, sorted(sides)))
        else:
            details.append(("component", root, sides.pop(), len(members)))
    components = len(details)
    neighbors_of_z = set(view.adj[z_idx])
    if components < 2 and len(neighbors_of_z) > 1 and prov is not None:
        passed = False
        details.append(("not-separating", z_idx))
    return CutVertexReport(passed, components, details, inconclusive=sampled)


# -- audits --------------------------------------------------------------------

# the largest window the Cayley-Abels connectedness condition builds
CONNECTEDNESS_CAP = 5000

_SEVERITY = {"pass": 0, "inconclusive": 1, "fail": 2}


def _worst(verdicts):
    """``fail`` if any verdict fails, else ``inconclusive`` if any is, else
    ``pass`` (also when there are none)."""
    return max(verdicts, key=_SEVERITY.__getitem__, default="pass")


@dataclass
class ConditionVerdict:
    name: str
    verdict: str       # pass / fail / inconclusive
    detail: str = ""

    def as_tuple(self):
        return (self.name, self.verdict, self.detail)


@dataclass
class AuditReport:
    conditions: list
    verdict: str

    @classmethod
    def from_conditions(cls, conditions):
        return cls(conditions, _worst(c.verdict for c in conditions))


def _finite_verdict(handle):
    fin = handle.is_finite()
    if fin is True:
        return "pass"
    if fin is False:
        return "fail"
    return "inconclusive"


def _finite_edge_stabilizers(graph):
    """Condition: every edge stabilizer is finite.  It fails on an infinite
    one and is inconclusive while some stabilizer's finiteness is
    undecided; the detail names the edge orbits behind the verdict."""
    found = [(eo.orbit_id, _finite_verdict(eo.stabilizer))
             for eo in graph.edge_orbits]
    worst = _worst(v for _, v in found)
    named = [orbit_id for orbit_id, v in found if v == worst]
    detail = {"pass": "", "fail": f"infinite: {named}",
              "inconclusive": f"undetermined: {named}"}[worst]
    return ConditionVerdict("finite-edge-stabilizers", worst, detail)


def _stab_matches_peripheral(graph, orbit, peripherals, budget):
    stab = orbit.stabilizer
    if stab.is_finite() is True:
        return "pass", "finite"
    for h in peripherals:
        if same_subgroup(stab, h):
            return "pass", "equals peripheral"
    # one bounded conjugator for all of the stabilizer's generators: a
    # conjugator per generator would not put the subgroup into a peripheral
    for h in peripherals:
        verdict, x = conjugacy_probe(graph.group, stab.generators, h, budget)
        if verdict == "yes":
            return "pass", f"conjugated into a peripheral by {x}"
    return "inconclusive", f"no conjugacy certificate at conj_budget={budget}"


def _stabilizers_finite_or_peripheral(graph, peripherals, budget):
    """Condition: every vertex stabilizer is finite or conjugate into a
    peripheral; the detail gives each vertex orbit's reason."""
    found = [(orb.orbit_id, *_stab_matches_peripheral(graph, orb, peripherals,
                                                      budget))
             for orb in graph.vertices.orbits]
    return ConditionVerdict("vertex-stabilizers-finite-or-peripheral",
                            _worst(v for _, v, _ in found),
                            "; ".join(f"{o}: {why}" for o, _, why in found))


def _peripherals_realized(graph, peripherals):
    """Condition: every peripheral equals some vertex stabilizer."""
    missing = [repr(h) for h in peripherals
               if not any(same_subgroup(o.stabilizer, h)
                          for o in graph.vertices.orbits)]
    return ConditionVerdict(
        "peripherals-are-vertex-stabilizers",
        "pass" if not missing else "fail",
        "" if not missing else f"unrealized: {missing}")


def gh_graph_audit(graph: GGraph, peripherals, *, angle_bound=4,
                   fineness_radius=8, threshold=8, delta_radius=2,
                   conj_budget=2, delta_cap=140,
                   max_vertices=200000) -> AuditReport:
    """The six window-level conditions for a relatively presented action:

    1. finitely many vertex orbits (schema),
    2. finite edge stabilizers,
    3. vertex stabilizers finite or conjugate into a peripheral,
    4. every peripheral realized as a vertex stabilizer (schema),
    5. hyperbolicity probe (window delta; never refutable from a window),
    6. fineness at infinite-stabilizer vertices, each probe's windows
       capped at ``max_vertices``; each orbit is probed at its point with
       rep 1, and ``fineness_probe`` keeps the probe for any later call
       with the same parameters.

    A stabilizer (for 6) or a peripheral (for ``proper-pair``) whose
    finiteness is undecided makes its condition inconclusive, not a pass.
    """
    conds = [ConditionVerdict("finitely-many-vertex-orbits", "pass",
                              f"{graph.vertex_orbit_count} orbits"),
             _finite_edge_stabilizers(graph),
             _stabilizers_finite_or_peripheral(graph, peripherals,
                                               conj_budget),
             _peripherals_realized(graph, peripherals)]

    base = graph.vertices.elem(graph.vertices.orbits[0].orbit_id)
    try:
        probe = ball_view(graph, [base], delta_radius, max_vertices=delta_cap)
        est = delta_estimate(probe)
        conds.append(ConditionVerdict(
            "hyperbolicity-probe", "pass",
            f"delta={est.delta:g} on radius-{delta_radius} window"))
    except (BudgetExceeded, WindowTooSmall) as exc:
        conds.append(ConditionVerdict("hyperbolicity-probe", "inconclusive",
                                      str(exc)))

    verdicts = []
    notes = []
    for orb in graph.vertices.orbits:
        finite = orb.stabilizer.is_finite()
        if finite is None:
            verdicts.append("inconclusive")
            notes.append(f"{orb.orbit_id}: finiteness undecided")
        if finite is not False:
            continue
        try:
            cert = fineness_probe(graph, graph.vertices.elem(orb.orbit_id),
                                  angle_bound, fineness_radius, threshold,
                                  max_vertices=max_vertices)
        except BudgetExceeded as exc:
            verdicts.append("inconclusive")
            notes.append(f"{orb.orbit_id}: inconclusive ({exc})")
            continue
        verdicts.append(cert.condition)
        notes.append(f"{orb.orbit_id}: {cert.verdict}")
    conds.append(ConditionVerdict("fine-at-infinite-stabilizers",
                                  _worst(verdicts),
                                  "; ".join(notes) or "no infinite stabilizers"))

    # the peripheral collection must not repeat an infinite subgroup up to
    # conjugacy; only refutations are decidable, so absent a witness the
    # verdict for a genuinely ambiguous pair stays inconclusive, and so does
    # one with a peripheral of undecided finiteness
    infinite = [h for h in peripherals if h.is_finite() is False]
    undecided = [repr(h) for h in peripherals if h.is_finite() is None]
    witnesses = [_conjugate_pair_witness(graph.group, h1, h2, conj_budget)
                 for i, h1 in enumerate(infinite) for h2 in infinite[i + 1:]]
    found = [w for w in witnesses if w is not None]
    if found:
        pair = ("fail", f"conjugator witness {found[-1]}")
    elif undecided:
        pair = ("inconclusive", f"finiteness undecided: {undecided}")
    elif witnesses:
        pair = ("inconclusive",
                "distinct infinite peripherals; no refutation at budget")
    else:
        pair = ("pass", "at most one infinite peripheral")
    conds.append(ConditionVerdict("proper-pair", *pair))
    return AuditReport.from_conditions(conds)


def _conjugate_pair_witness(group, h1, h2, budget):
    """A single conjugator carrying each handle's generators into the other,
    or None within budget."""
    def back(x):
        xinv = x.inverse()
        return all(h1.contains(group.multiply(xinv, g, x)) == YES
                   for g in h2.generators)
    verdict, x = conjugacy_probe(group, h1.generators, h2, budget, back)
    return x if verdict == "yes" else None


def cayley_abels_audit(graph: GGraph, peripherals, *, radius=4,
                       conj_budget=2) -> AuditReport:
    """Window audit of the coset-graph conditions: finite edge stabilizers,
    prescribed vertex stabilizers, realization of every peripheral, the
    same-stabilizer/same-orbit condition, plus connectedness (on a window
    of at most ``CONNECTEDNESS_CAP`` vertices) and cocompactness read off
    the schema."""
    conds = [_finite_edge_stabilizers(graph)]
    # a pass carries no per-orbit reasons here; any other verdict names them
    stabilizers = _stabilizers_finite_or_peripheral(graph, peripherals,
                                                    conj_budget)
    if stabilizers.verdict == "pass":
        stabilizers.detail = ""
    conds += [stabilizers, _peripherals_realized(graph, peripherals)]

    clash = []
    orbs = graph.vertices.orbits
    for i, a in enumerate(orbs):
        for b in orbs[i + 1:]:
            if a.stabilizer.is_finite() or b.stabilizer.is_finite():
                continue
            if same_subgroup(a.stabilizer, b.stabilizer):
                clash.append((a.orbit_id, b.orbit_id))
    conds.append(ConditionVerdict(
        "same-infinite-stabilizer-same-orbit",
        "pass" if not clash else "fail",
        "" if not clash else f"distinct orbits with equal stabilizer: {clash}"))

    conds.append(ConditionVerdict("cocompact", "pass",
                                  f"{graph.vertex_orbit_count} vertex / "
                                  f"{graph.edge_orbit_count} edge orbits"))

    conds.append(_connectedness_verdict(graph, radius))
    return AuditReport.from_conditions(conds)


def _connectedness_verdict(graph, radius):
    """Let C be the component of the base point v0.  Once the window meets
    every vertex orbit, C does too; if moreover s v0 lies in the window for
    every generator s, then s C = C for every s, so G C = C and the graph
    is connected.  A closed window is all of C, so a closed window without
    some s v0 is an exact failure."""
    base = [graph.vertices.elem(o.orbit_id) for o in graph.vertices.orbits[:1]]
    if not base:
        return ConditionVerdict("connected", "pass", "empty graph")
    try:
        view = ball_view(graph, base, radius, max_vertices=CONNECTEDNESS_CAP)
    except BudgetExceeded as exc:
        return ConditionVerdict("connected", "inconclusive", str(exc))
    orbits_seen = {v.orbit_id for v in view.elems}
    missing = [o.orbit_id for o in graph.vertices.orbits
               if o.orbit_id not in orbits_seen]
    frontier_closed = all(view.complete_at)
    if missing and frontier_closed:
        return ConditionVerdict("connected", "fail",
                                f"component closed without reaching {missing}")
    if missing:
        return ConditionVerdict("connected", "inconclusive",
                                f"not reached at radius {radius}: {missing}")
    try:
        absent = next((s for s in graph.group.generator_words()
                       if find_vertex(view, graph,
                                      graph.vertices.act(s, base[0])) is None),
                      None)
    except BudgetExceeded as exc:
        return ConditionVerdict("connected", "inconclusive",
                                f"{exc} at radius={radius}")
    if absent is not None and frontier_closed:
        return ConditionVerdict("connected", "fail",
                                f"component closed without its translate "
                                f"by {absent}")
    if absent is not None:
        return ConditionVerdict("connected", "inconclusive",
                                f"translate by {absent} not reached at "
                                f"radius={radius}")
    if frontier_closed:
        return ConditionVerdict("connected", "pass", "component exhausted")
    return ConditionVerdict("connected", "pass",
                            f"all orbits reached at radius {radius}")
