"""Window audits.  Expected values for the finite graphs were derived by
hand (cycle arcs, complete-graph path counts, thin-triangle defects) before
being frozen here.
"""

import copy
import itertools
import random

import pytest

from graphforge.analysis import (
    INFINITE,
    BallView,
    FinenessCertificate,
    _depth_budget,
    _grow,
    _neighbor_counts,
    angle_table,
    ball_view,
    cayley_abels_audit,
    cut_vertex_audit,
    delta_estimate,
    embedded_path_count,
    embedded_path_counts,
    find_vertex,
    fineness_probe,
    gh_graph_audit,
    narrow_view,
)
from graphforge.errors import (
    BudgetExceeded,
    CombinatorialBlowup,
    WindowTooSmall,
)
from graphforge.examples import builtin_examples
from graphforge.ggraphs import (
    EdgeOrbit,
    GGraph,
    bass_serre,
    c_pushout,
    cayley_graph,
    coned_off,
    edgeless_cosets,
    single_vertex_graph,
)
from graphforge.groups import FreeAbelianGroup, FreeGroup
from graphforge.gsets import GSet, GSetElem, Orbit
from graphforge.pipeline import run_pipeline
from graphforge.subgroups import (
    Monomorphism,
    RestrictedSubgroup,
    SearchSubgroup,
    build_amalgam,
    cyclic,
    free_factor,
    generated,
    trivial,
    whole,
)
from graphforge.words import Word

import grouplib


def cycle(n):
    return grouplib.view_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def wedge_c5_c7():
    # vertex 0 is shared; 0..4 the pentagon, 0,5..10 the heptagon
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(0, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 0)]
    return grouplib.view_from_edges(11, edges)


def path_graph(n):
    return grouplib.view_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def coned_line():
    z = grouplib.int_line()
    return z, coned_off(z, [cyclic(z, "a a")], [Word.parse("a")], labels=["E"])


# -- balls -------------------------------------------------------------------


def test_ball_radius_zero():
    z, g = coned_line()
    base = g.vertices.elem("el")
    view = ball_view(g, [base], 0)
    assert view.vertex_count == 1
    assert view.edge_count == 0


def test_ball_cayley_line():
    z = grouplib.int_line()
    g = cayley_graph(z)
    view = ball_view(g, [g.vertices.elem("el")], 3)
    assert view.vertex_count == 7
    assert view.edge_count == 6
    assert view.is_forest()


def test_ball_coned_line_contents():
    z, g = coned_line()
    view = ball_view(g, [g.vertices.elem("el")], 2)
    elems = {str(v.elem) for v in view.vertices}
    for k in (-2, -1, 0, 1, 2):
        assert f"el[{Word.parse('a').power(k)}]" in elems
    assert "cone:E[1]" in elems
    assert "cone:E[a]" in elems


def test_ball_monotone():
    z, g = coned_line()
    base = g.vertices.elem("el")
    small = ball_view(g, [base], 2)
    large = ball_view(g, [base], 4)
    small_keys = {g.vertices.elem_key(v.elem) for v in small.vertices}
    large_keys = {g.vertices.elem_key(v.elem) for v in large.vertices}
    assert small_keys <= large_keys


def test_ball_samples_no_stabilizer_at_an_edgeless_orbit(monkeypatch):
    # an orbit with no incident edge orbit has no edges at any vertex, so
    # its stabilizer is never sampled; the completeness flag is still the
    # stabilizer's finiteness
    f, s3 = grouplib.free2(), grouplib.sym3()
    for group, stab, complete in ((f, cyclic(f, "a"), False),
                                  (s3, generated(s3, ["x"]), True)):
        def refuse(word_budget):
            raise AssertionError("sampled an edgeless orbit's stabilizer")
        monkeypatch.setattr(stab, "sample", refuse)
        graph = edgeless_cosets(group, [stab], labels=["A"])
        view = ball_view(graph, [graph.vertices.elem("A")], 6)
        assert (view.vertex_count, view.edge_count) == (1, 0)
        assert view.vertices[0].complete is complete
        assert view.complete is complete


# -- narrowed and translated windows -------------------------------------------
#
# The oracle for narrow_view is a direct ball_view at the smaller budget.
# The oracle for ball_view is per_vertex_view, which calls incident_edges
# at the element that reached each frontier vertex instead of translating
# each orbit's base-point list.

NARROW_CAP = 1500


def builtin_graph(name, gid):
    """A graph of a built-in spec, built by running its steps up to ``gid``."""
    spec = copy.deepcopy(builtin_examples()[name])
    steps = spec["pipeline"]
    upto = [i for i, st in enumerate(steps) if st.get("id") == gid]
    spec["pipeline"] = steps[:upto[0] + 1] if upto else []
    env = run_pipeline(spec).env
    return env.constructions[gid] if upto else env.graph(gid)


def coned_f2_over_ab_ba():
    f = grouplib.free2()
    h = generated(f, ["a b", "b a"])
    assert isinstance(h, SearchSubgroup) and not h.rep_exact
    return coned_off(f, [h], [Word.parse("a"), Word.parse("b")], labels=["H"])


def unsorted_sample_graph():
    """A graph whose stabilizer samples are not sorted by budget.

    In Z^2 *_Z Z^2 with c = a1 on the left and c = b1^2 on the right, the
    right factor's ball of radius 2 holds b1^2, written ``a1``, which sorts
    before ``b1`` and ``b2`` of radius 1.  The edge stabilizer
    <b1^2 b2^-1> puts ``a1`` and ``b2`` on one edge, so that edge is found
    first through its radius-2 element.  The cones over the right factor
    are joined through group elements with ``a2`` and ``b2`` edges, so a
    narrower window reaches some of them at a greater depth.
    """
    a = FreeAbelianGroup("A", ["a1", "a2"])
    b = FreeAbelianGroup("B", ["b1", "b2"])
    c = FreeAbelianGroup("C", ["c"])
    g = build_amalgam("A*B", a, b,
                      Monomorphism(whole(c), cyclic(a, "a1"), ["a1"]),
                      Monomorphism(whole(c), cyclic(b, "b1 b1"), ["b1 b1"]))
    edge_stab = RestrictedSubgroup(g, cyclic(b, "b1 b1 b2^-1"), "R")
    verts = GSet(g, [Orbit("v", RestrictedSubgroup(g, whole(b), "R")),
                     Orbit("w", edge_stab), Orbit("el", trivial(g))])
    return GGraph(g, verts, [
        EdgeOrbit("e", edge_stab, (verts.elem("v"), verts.elem("w"))),
        EdgeOrbit("lace", trivial(g), (verts.elem("v"), verts.elem("el"))),
    ] + [EdgeOrbit(f"cay:{s}", trivial(g),
                   (verts.elem("el"), verts.elem("el", Word.parse(s))))
         for s in ("a2", "b2")])


def probe_vertices(graph, seed, count=2, length=4):
    """Each orbit's base point and seeded translates of it by reduced
    words."""
    rng = random.Random(seed)
    gens = graph.group.generators
    out = []
    for orb in graph.vertices.orbits:
        out.append(graph.vertices.elem(orb.orbit_id))
        for _ in range(count):
            letters = []
            while len(letters) < length:
                letter = (rng.choice(gens), rng.choice((1, -1)))
                if letters and letters[-1] == (letter[0], -letter[1]):
                    continue
                letters.append(letter)
            out.append(graph.vertices.act(Word(letters),
                                          graph.vertices.elem(orb.orbit_id)))
    return out


def built(build):
    try:
        return build(), None
    except BudgetExceeded as exc:
        return None, str(exc)


def per_vertex_view(graph, bases, radius, word_budget=None,
                    max_vertices=200000):
    """ball_view's window, with incident_edges called at every frontier
    vertex w, at the element r c(r^-1 w) of its coset: r is the first
    base's rep and c the canonical coset rep."""
    view = BallView(radius, word_budget)
    verts, group = graph.vertices, graph.group
    r = verts.elem(bases[0].orbit_id, bases[0].rep).rep if bases else Word()
    edge_stab = graph.edges.stabilizer

    def incidence(vi, depth):
        v = view.elems[vi]
        at = group.multiply(r, verts.act(r.inverse(), v).rep)
        found, complete = graph.incident_edges(GSetElem(v.orbit_id, at),
                                               _depth_budget(view, depth))
        return complete, [
            (e.orbit_id, [(w.orbit_id, w.rep) for w in others],
             (e.orbit_id, e.rep) if edge_stab(e.orbit_id).rep_exact else None)
            for e, others in found]

    return _grow(graph, view, bases, max_vertices, incidence)


def assert_same_window(got, want):
    assert got.vertices == want.vertices
    assert got.adj == want.adj
    assert (got.edge_orbit, got.edge_ends) == (want.edge_orbit, want.edge_ends)
    assert got.base == want.base
    assert got.complete == want.complete
    assert (got.radius, got.word_budget) == (want.radius, want.word_budget)


def check_narrowing(graph, vertices, hops_range, budgets, cap=NARROW_CAP):
    """narrow_view(ball_view(.., r + 2), r) against ball_view(.., r), and
    that against per_vertex_view(.., r).  Returns how many windows were
    compared and how many direct builds raised."""
    compared = raised = 0
    for v in vertices:
        for r in budgets:
            for hops in hops_range:
                direct, err = built(lambda: ball_view(
                    graph, [v], hops, word_budget=r, max_vertices=cap))
                # the per-vertex build gives the same window or error
                oracle, oerr = built(lambda: per_vertex_view(
                    graph, [v], hops, word_budget=r, max_vertices=cap))
                assert oerr == err, (v, r, hops)
                if direct is not None:
                    assert_same_window(direct, oracle)
                wide, werr = built(lambda: ball_view(
                    graph, [v], hops, word_budget=r + 2, max_vertices=cap))
                if wide is None:
                    narrowed, nerr = None, werr
                else:
                    narrowed, nerr = built(lambda: narrow_view(graph, wide, r))
                if err is not None:
                    # the narrowed path raises the same budget error
                    assert nerr == err, (v, r, hops)
                    raised += 1
                    break       # every larger hop radius raises as well
                if narrowed is not None:
                    assert_same_window(narrowed, direct)
                    compared += 1
    return compared, raised


@pytest.mark.parametrize("name, gid", [
    ("example-coned-free", "coned"),
    ("example-fineness-fail", "coned"),
    ("example-tree-modular", "T"),
])
def test_narrowed_window_matches_direct_build(name, gid):
    graph = builtin_graph(name, gid)
    compared, _ = check_narrowing(graph, probe_vertices(graph, name, 1),
                                  range(1, 8), range(1, 9))
    assert compared >= 30


def test_narrowed_window_matches_direct_build_amalgam2_pushout():
    # every vertex orbit of the pushout, JoinSubgroup cone included; the
    # cone's stabilizer balls grow fast, so the budgets stay small
    graph = builtin_graph("example-amalgam-2", "Z")
    assert len(graph.vertices.orbits) == 3
    compared, _ = check_narrowing(graph, probe_vertices(graph, "amalgam-2", 1),
                                  range(1, 8), range(1, 4))
    assert compared >= 20


def test_narrowed_window_matches_direct_build_on_unsorted_samples():
    graph = unsorted_sample_graph()
    v0 = graph.vertices.elem("v")
    wide_found, _ = graph.incident_edges(v0, 2)
    found, _ = graph.incident_edges(v0, 1)
    position = [wide_found.index(item) for item in found]
    # the narrow budget's edges come in another order than the wide one's
    assert position != sorted(position)
    compared, _ = check_narrowing(graph, probe_vertices(graph, "unsorted", 1),
                                  range(1, 6), range(1, 4))
    assert compared >= 40


def test_narrowed_window_raises_like_direct_build_without_exact_reps():
    graph = coned_f2_over_ab_ba()
    compared, raised = check_narrowing(graph, probe_vertices(graph, "ab-ba"),
                                       range(1, 8), range(1, 6), cap=200000)
    assert compared > 0 and raised > 0


def test_narrow_view_rejects_a_larger_budget():
    graph = builtin_graph("example-fineness-fail", "coned")
    wide = ball_view(graph, [graph.vertices.elem("cone:E")], 3, word_budget=4)
    with pytest.raises(ValueError):
        narrow_view(graph, wide, 5)


def coned_f2_over_both_generators():
    """F2 = <x, y> coned off over <x> and <y>, with relative generators
    y x and x.  Which element of a cone vertex's coset is the first to reach
    it depends on the word budget here: a window sampled at that element
    could not be narrowed exactly (cone:Y[1], hop radius 4, budget 1
    narrowed from budget 3)."""
    f = FreeGroup("F", ["x", "y"])
    return coned_off(f, [cyclic(f, "x"), cyclic(f, "y")],
                     [Word.parse("y x"), Word.parse("x")], labels=["X", "Y"])


def test_narrowed_window_matches_direct_build_where_first_reaches_differ():
    graph = coned_f2_over_both_generators()
    compared, _ = check_narrowing(graph, probe_vertices(graph, "xy", 1),
                                  range(1, 6), range(1, 4))
    assert compared >= 40


def window_facts(graph, view, apex):
    """What the audits read off a window around ``apex``: its shape, the
    angle table at the apex and the cut-vertex components of its orbit."""
    cut = cut_vertex_audit(graph, view, apex)
    return ([(v.depth, v.complete) for v in view.vertices], view.adj,
            list(zip(view.edge_orbit, view.edge_ends)),
            angle_table(view, 0).values,
            (cut.passed, cut.component_count, cut.details, cut.inconclusive))


@pytest.mark.parametrize("name, gid, hops, budget", [
    ("example-amalgam-2", "Z", 3, 3),
    ("example-coned-free", "coned", 4, 4),
    ("example-tree-modular", "T", 5, 5),
])
def test_window_at_a_translate_is_the_translated_base_window(name, gid,
                                                             hops, budget):
    graph = builtin_graph(name, gid)
    verts = graph.vertices
    moved = probe_vertices(graph, f"translate:{name}", count=2, length=5)
    if name == "example-amalgam-2":
        # the self-test's translate, whose window grew by one vertex when
        # each vertex was sampled at its own coset rep
        moved.append(verts.act(Word.parse("b2^-1 a1 a2^-1 b2^-1 b3^-1"),
                               verts.elem("X:cone:KA")))
    for v in moved:
        base = verts.elem(v.orbit_id)
        assert not base.rep
        at_base = ball_view(graph, [base], hops, word_budget=budget)
        at_v = ball_view(graph, [v], hops, word_budget=budget)
        assert [u.elem for u in at_v.vertices] == [
            verts.act(v.rep, u.elem) for u in at_base.vertices]
        assert window_facts(graph, at_v, v) == window_facts(graph, at_base,
                                                            base)
        assert delta_estimate(ball_view(graph, [v], 2, word_budget=2)) \
            == delta_estimate(ball_view(graph, [base], 2, word_budget=2))


def two_build_probe(graph, vertex, angle_bound, radius, threshold,
                    max_vertices=200000):
    """fineness_probe as it was when it built both windows directly, at
    the vertex itself; the reference for the one-build probe kept per
    orbit.  It never reads ``graph.fineness_probes``."""
    hops = min(radius, angle_bound + 1)
    small = ball_view(graph, [vertex], hops, word_budget=radius,
                      max_vertices=max_vertices)
    large = ball_view(graph, [vertex], hops, word_budget=radius + 2,
                      max_vertices=max_vertices)
    apex_s = find_vertex(small, graph, vertex)
    apex_l = find_vertex(large, graph, vertex)
    if apex_s is None or apex_l is None:
        raise WindowTooSmall("probe vertex missing from its own window")
    counts_s, _ = _neighbor_counts(graph, small, apex_s, angle_bound)
    counts_l, wit_l = _neighbor_counts(graph, large, apex_l, angle_bound)
    incident, complete = graph.incident_edges(
        vertex, max(1, radius - angle_bound))
    if complete:
        trusted = set(counts_s)
    else:
        trusted = set()
        for _, others in incident:
            for w in others:
                trusted.add(graph.vertices.elem_key(w))
    grown = []
    for key, c_small in counts_s.items():
        if key not in trusted:
            continue
        c_large = counts_l.get(key, c_small)
        if c_large > c_small:
            grown.append((key, c_small, c_large))
    violating = [entry for entry in grown if entry[2] >= threshold]
    if violating:
        key = max(violating, key=lambda e: e[2])[0]
        witness = [large.vertices[i].elem for i in wit_l[key]]
        return FinenessCertificate(vertex, angle_bound, radius,
                                   "violation", witness,
                                   {k: c for k, _, c in violating})
    if not grown:
        return FinenessCertificate(
            vertex, angle_bound, radius,
            f"locally-finite-at-({angle_bound},{radius})",
            counts=dict(counts_s))
    return FinenessCertificate(
        vertex, angle_bound, radius,
        f"inconclusive at threshold={threshold}, radius={radius}",
        counts=dict(counts_l))


def probe_outcome(probe, *args, **kwargs):
    try:
        cert = probe(*args, **kwargs)
    except BudgetExceeded as exc:
        return ("raised", str(exc))
    return (cert.verdict, cert.witness, list(cert.counts.items()))


@pytest.mark.parametrize("graph, params, cap", [
    # (6, 8, 10) and (4, 12, 10) are the probes the two built-ins ship
    (lambda: builtin_graph("example-coned-free", "coned"),
     [(4, 6, 10), (3, 8, 10), (6, 8, 10)], 200000),
    (lambda: builtin_graph("example-fineness-fail", "coned"),
     [(4, 12, 10), (4, 12, 100), (2, 5, 3), (3, 8, 4)], 200000),
    (lambda: coned_line()[1], [(4, 12, 10), (2, 6, 3)], 200000),
    (lambda: builtin_graph("example-amalgam-2", "Z"),
     [(2, 2, 8), (1, 3, 4)], 200000),
    (lambda: builtin_graph("example-tree-modular", "T"),
     [(4, 6, 8), (2, 8, 2)], 200000),
    (coned_f2_over_ab_ba, [(1, 3, 4), (2, 4, 4), (3, 5, 6)], 200000),
    # the vertex cap raises in both probes
    (lambda: builtin_graph("example-coned-free", "coned"), [(4, 6, 10)], 500),
])
def test_fineness_probe_matches_two_build_probe(graph, params, cap):
    # one graph for every probe, so that each orbit's later probes are
    # answered from the memo of its first
    g = graph()
    seen = set()
    for v in probe_vertices(g, "probe", count=1, length=3):
        for angle_bound, radius, threshold in params:
            args = (g, v, angle_bound, radius, threshold)
            got = probe_outcome(fineness_probe, *args, max_vertices=cap)
            assert got == probe_outcome(two_build_probe, *args,
                                        max_vertices=cap)
            seen.add(got[0])
    if cap < 1000:
        assert seen == {"raised"}


# -- angles ------------------------------------------------------------------


def test_angle_cycle5():
    view = cycle(5)
    assert angle_table(view, 0).value(1, 4) == 3


def test_angle_tree_infinite():
    view = path_graph(5)
    assert angle_table(view, 2).value(1, 3) is INFINITE


def test_angle_symmetric_table():
    view = wedge_c5_c7()
    for apex in range(view.vertex_count):
        table = angle_table(view, apex)
        for x in table.neighbors:
            for y in table.neighbors:
                assert table.value(x, y) == table.value(y, x)


def test_angle_cone_shortcut():
    z, g = coned_line()
    cone = g.vertices.elem("cone:E")
    view = ball_view(g, [cone], 6)
    apex = find_vertex(view, g, cone)
    x = find_vertex(view, g, g.vertices.elem("el"))
    y = find_vertex(view, g, g.vertices.elem("el", "a a"))
    val = angle_table(view, apex).value(x, y)
    assert val <= 4  # 0 - 1 - odd cone - 3 - 2


def test_angle_monotone_in_radius():
    z, g = coned_line()
    cone = g.vertices.elem("cone:E")
    for r1, r2 in ((4, 6), (6, 8)):
        v1 = ball_view(g, [cone], r1)
        v2 = ball_view(g, [cone], r2)
        a1 = find_vertex(v1, g, cone)
        a2 = find_vertex(v2, g, cone)
        x1 = find_vertex(v1, g, g.vertices.elem("el"))
        y1 = find_vertex(v1, g, g.vertices.elem("el", "a a"))
        x2 = find_vertex(v2, g, g.vertices.elem("el"))
        y2 = find_vertex(v2, g, g.vertices.elem("el", "a a"))
        assert angle_table(v2, a2).value(x2, y2) <= \
            angle_table(v1, a1).value(x1, y1)


# -- embedded paths ------------------------------------------------------------


def test_path_count_tree():
    view = path_graph(6)
    assert embedded_path_count(view, 0, 4, 4) == 1
    assert embedded_path_count(view, 0, 4, 3) == 0


def test_path_count_cycle():
    view = cycle(5)
    assert embedded_path_count(view, 0, 1, 4) == 2  # both arcs


def test_path_count_k4():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    view = grouplib.view_from_edges(4, edges)
    # 1 direct + 2 two-hop + 2 three-hop
    assert embedded_path_count(view, 0, 1, 3) == 5


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return edges, grouplib.view_from_edges(n, edges)


def random_forest(rng, n):
    # each vertex joins an earlier one or starts a new tree
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
    return edges, grouplib.view_from_edges(n, edges)


def brute_path_count(n, edges, x, y, length_bound):
    """Simple vertex sequences x .. y with 1..length_bound edges."""
    adjacent = {frozenset(e) for e in edges}
    others = [v for v in range(n) if v not in (x, y)]
    count = 0
    for k in range(1, length_bound + 1):
        for middle in itertools.permutations(others, k - 1):
            seq = (x, *middle, y)
            if all(frozenset(seq[i:i + 2]) in adjacent for i in range(k)):
                count += 1
    return count


def reference_path_count(view, x, y, length_bound, cap):
    """The per-pair search, one (vertex, used set, depth) entry per step."""
    if x == y:
        return 1
    count = 0
    steps = 0
    stack = [(x, {x}, 0)]
    while stack:
        u, used, d = stack.pop()
        steps += 1
        if steps > cap:
            raise CombinatorialBlowup(f"more than {cap} search steps")
        for v in view.adj[u]:
            if v == y:
                count += 1
                continue
            if v in used or d + 1 >= length_bound:
                continue
            stack.append((v, used | {v}, d + 1))
    return count


def test_path_counts_match_brute_force():
    rng = random.Random(20261018)
    cases = []
    for _ in range(60):
        n = rng.randint(2, 8)
        edges, view = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        cases.append((n, edges, view, rng.randrange(n), range(1, 9)))
    # forests, some of them disconnected, are answered by breadth-first
    # search; a bound below 1 still counts a single edge
    rng = random.Random(20261019)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges, view = random_forest(rng, n)
        assert view.is_forest()
        cases.append((n, edges, view, rng.randrange(n), range(0, 9)))
    for n, edges, view, x, bounds in cases:
        for bound in bounds:
            counts = embedded_path_counts(view, x, range(n), bound)
            assert counts[x] == 1
            for y in range(n):
                if y == x:
                    continue
                expected = brute_path_count(n, edges, x, y, max(bound, 1))
                assert counts[y] == expected, (edges, x, y, bound)
                assert embedded_path_count(view, x, y, bound) == expected


def test_path_counts_guard_parity():
    rng = random.Random(7)
    raised = quiet = 0
    for k in range(600):
        n = rng.randint(2, 8)
        if k < 400:
            _, view = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        else:   # forests: the search runs whenever n is above the cap
            _, view = random_forest(rng, n)
        x = rng.randrange(n)
        targets = rng.sample(range(n), rng.randint(1, n))
        bound = rng.randint(1, 8)
        cap = rng.choice([0, 1, 2, 3, 5, 8, 13, 21, 40, 100])
        expected = {}
        for y in targets:
            try:
                expected[y] = reference_path_count(view, x, y, bound, cap)
            except CombinatorialBlowup:
                expected[y] = None
                with pytest.raises(CombinatorialBlowup):
                    embedded_path_count(view, x, y, bound, cap)
            else:
                assert embedded_path_count(view, x, y, bound, cap) == \
                    expected[y]
        if None in expected.values():
            raised += 1
            with pytest.raises(CombinatorialBlowup):
                embedded_path_counts(view, x, targets, bound, cap)
        else:
            quiet += 1
            assert embedded_path_counts(view, x, targets, bound, cap) == \
                expected
    assert raised and quiet


def test_forest_above_the_cap_keeps_the_search_guard():
    view = path_graph(10)
    # the search for (0, 9) takes 9 steps
    with pytest.raises(CombinatorialBlowup):
        embedded_path_counts(view, 0, range(10), 9, cap=8)
    with pytest.raises(CombinatorialBlowup):
        embedded_path_count(view, 0, 9, 9, cap=8)
    for cap in (9, 10):
        assert embedded_path_counts(view, 0, range(10), 9, cap=cap) == \
            dict.fromkeys(range(10), 1)


def test_tree_that_gains_an_edge_counts_both_paths():
    view = path_graph(5)
    assert view.is_forest()
    assert embedded_path_count(view, 0, 4, 4) == 1
    assert delta_estimate(view).delta == 0.0
    view.add_edge("e", 4, 0)
    assert not view.is_forest()
    assert embedded_path_counts(view, 0, range(5), 4) == \
        {0: 1, 1: 2, 2: 2, 3: 2, 4: 2}
    assert delta_estimate(view).delta == delta_estimate(cycle(5)).delta


@pytest.mark.parametrize("extra", [("f", 1, 2), ("e", 3, 3)],
                         ids=["parallel-edge", "loop"])
def test_tree_with_a_parallel_edge_or_loop_is_not_a_forest(extra):
    edges = [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)]
    view = grouplib.view_from_edges(6, edges)
    view.add_edge(*extra)
    assert view.edge_count == 6
    assert not view.is_forest()
    for x in range(6):
        counts = embedded_path_counts(view, x, range(6), 3)
        for y in range(6):
            expected = 1 if y == x else brute_path_count(6, edges, x, y, 3)
            assert counts[y] == expected
    rows = []
    real = view.distances_from
    view.distances_from = lambda i: rows.append(i) or real(i)
    assert delta_estimate(view).delta == 0.0
    assert rows == list(range(6))   # every row: the tree rule is not taken


def test_adjacency_lists_keep_first_edge_order():
    # the lists that appending each edge's ends when absent gives, in order
    view = grouplib.view_from_edges(4, [(0, 1)])
    view.add_edge("e", 2, 2)                    # a loop
    view.add_edge("f", 1, 0)                    # parallel to (0, 1)
    assert view.adj == [[1], [0], [2], []]
    view.add_edge("e", 3, 1)
    view.add_edge("g", 0, 1, key="again")       # (0, 1) under a new key
    view.add_edge("e", 2, 0)
    assert view.add_edge("e", 1, 0) == 0        # the first edge's key
    assert view.edge_count == 6
    assert view.adj == [[1, 2], [0, 3], [2, 0], [1]]
    assert not view.is_forest()
    loop = grouplib.view_from_edges(2, [(0, 1), (1, 1)])
    parallel = grouplib.view_from_edges(2, [(0, 1)])
    parallel.add_edge("f", 0, 1)
    for view in (loop, parallel):
        assert view.edge_count == 2 and not view.is_forest()
    assert (loop.adj, parallel.adj) == ([[1], [0, 1]], [[1], [0]])


# -- fineness ----------------------------------------------------------------


def test_fineness_tree_vertex():
    g = grouplib.modular_amalgam()
    tree = bass_serre(g)
    cert = fineness_probe(tree, tree.vertices.elem("vA"), 4, 6, 8)
    assert cert.ok


def test_fineness_violation_at_even_cone():
    z, g = coned_line()
    cert = fineness_probe(g, g.vertices.elem("cone:E"), 4, 12, 10)
    assert cert.verdict == "violation"
    assert len(cert.witness) >= 10
    # witnesses are genuine neighbors of the cone: even translates
    for w in cert.witness:
        assert w.orbit_id == "el"


def test_fineness_pass_free_group_cone():
    f = grouplib.free2()
    g = coned_off(f, [cyclic(f, "a")], [Word.parse("a"), Word.parse("b")],
                  labels=["A"])
    cert = fineness_probe(g, g.vertices.elem("cone:A"), 6, 8, 10)
    assert cert.ok, cert.verdict


# -- hyperbolicity ----------------------------------------------------------


def test_delta_tree_ball():
    g = grouplib.modular_amalgam()
    tree = bass_serre(g)
    view = ball_view(tree, [tree.vertices.elem("vA")], 5)
    assert delta_estimate(view).delta == 0.0


def test_delta_cycles():
    assert delta_estimate(cycle(8)).delta == 2.0
    assert delta_estimate(cycle(5)).delta == 1.0
    assert delta_estimate(cycle(7)).delta == 1.0


def test_delta_wedge_is_piece_maximum():
    wedge = wedge_c5_c7()
    d5 = delta_estimate(cycle(5)).delta
    d7 = delta_estimate(cycle(7)).delta
    assert delta_estimate(wedge).delta == max(d5, d7)


def all_pairs_distances(n, edges):
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i, j in edges:
        if i != j:
            d[i][j] = d[j][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def brute_delta(n, edges):
    """Max over triangles and side points u of the distance from u to the
    other two sides, each chosen as the geodesic farthest from u, with
    every geodesic listed explicitly."""
    d = all_pairs_distances(n, edges)
    adjacent = {frozenset(e) for e in edges}

    def geodesics(s, t):
        found = [[s]]
        for _ in range(int(d[s][t])):
            found = [g + [v] for g in found for v in range(n)
                     if frozenset((g[-1], v)) in adjacent
                     and d[v][t] == d[g[-1]][t] - 1]
        return found

    geo = {(s, t): geodesics(s, t) for s in range(n) for t in range(n)}

    def far(u, s, t):
        return max(min(d[u][v] for v in g) for g in geo[(s, t)])

    delta = 0
    for a, b, c in itertools.product(range(n), repeat=3):
        for u in {v for g in geo[(a, b)] for v in g}:
            delta = max(delta, min(far(u, b, c), far(u, c, a)))
    return float(delta)


def grid_3x3():
    edges = [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
    edges += [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)]
    return edges


def random_connected(rng, n):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.25}
    return sorted(edges)


def delta_oracle_cases():
    cases = [(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 9)]
    cases.append((9, grid_3x3()))
    wedge = wedge_c5_c7()
    cases.append((11, list(wedge.edge_ends)))
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 9)
        cases.append((n, random_connected(rng, n)))
    for n in range(1, 13):   # trees, where δ is answered without the DP
        cases.append((n, [(rng.randrange(v), v) for v in range(1, n)]))
    return cases


def test_delta_matches_explicit_geodesics():
    seen = set()
    for n, edges in delta_oracle_cases():
        expected = brute_delta(n, edges)
        seen.add(expected)
        view = grouplib.view_from_edges(n, edges)
        assert delta_estimate(view).delta == expected, (n, edges)
    assert len(seen) >= 3


# -- cut vertices ----------------------------------------------------------------


def test_cut_vertex_single_point_vacuous():
    g = grouplib.lattice_amalgam()
    xg = single_vertex_graph(g.left)
    yg = single_vertex_graph(g.right)
    z = c_pushout(g, xg, yg, xg.vertices.elem("pt"), yg.vertices.elem("pt"))
    view = ball_view(z, [z.provenance.z], 2)
    report = cut_vertex_audit(z, view, z.provenance.z)
    assert report.passed
    assert report.component_count == 0


def test_cut_vertex_cone_pushout():
    g = grouplib.coned_amalgam()
    xg = coned_off(g.left, [free_factor(g.left, ["a1", "a2"])],
                   [Word.parse("a3")], labels=["KA"])
    yg = coned_off(g.right, [free_factor(g.right, ["b1", "b2"])],
                   [Word.parse("b3")], labels=["KB"])
    z = c_pushout(g, xg, yg, xg.vertices.elem("cone:KA"),
                  yg.vertices.elem("cone:KB"))
    view = ball_view(z, [z.provenance.z], 3, word_budget=3)
    report = cut_vertex_audit(z, view, z.provenance.z)
    assert report.passed
    assert report.component_count >= 2
    sides = {d[2] for d in report.details if d[0] == "component"}
    assert sides == {"X", "Y"}


# -- audits ----------------------------------------------------------------------


def test_gh_audit_modular_tree():
    g = grouplib.modular_amalgam()
    tree = bass_serre(g)
    report = gh_graph_audit(tree, [], delta_radius=3, fineness_radius=6)
    assert report.verdict == "pass"
    by_name = {c.name: c for c in report.conditions}
    assert by_name["hyperbolicity-probe"].detail.startswith("delta=0")


def test_gh_audit_flags_non_fine_cone():
    z, g = coned_line()
    evens = g.vertices.stabilizer("cone:E")
    report = gh_graph_audit(g, [evens], angle_bound=4, fineness_radius=12,
                            threshold=10)
    by_name = {c.name: c for c in report.conditions}
    assert by_name["fine-at-infinite-stabilizers"].verdict == "fail"
    assert report.verdict == "fail"


def test_gh_audit_free_cone_passes():
    f = grouplib.free2()
    h = cyclic(f, "a")
    g = coned_off(f, [h], [Word.parse("a"), Word.parse("b")], labels=["A"])
    report = gh_graph_audit(g, [g.vertices.stabilizer("cone:A")],
                            angle_bound=6, fineness_radius=8, threshold=10)
    assert report.verdict == "pass", [c.as_tuple() for c in report.conditions]


def test_cayley_abels_coned_off_passes():
    z, g = coned_line()
    report = cayley_abels_audit(g, [g.vertices.stabilizer("cone:E")])
    assert report.verdict == "pass", [c.as_tuple() for c in report.conditions]


def test_cayley_abels_same_stabilizer_two_orbits_fails():
    f = grouplib.free2()
    h = cyclic(f, "a")
    g = edgeless_cosets(f, [h, cyclic(f, "a")], labels=["c1", "c2"])
    report = cayley_abels_audit(g, [h])
    by_name = {c.name: c for c in report.conditions}
    assert by_name["same-infinite-stabilizer-same-orbit"].verdict == "fail"


def test_gh_audit_proper_pair_refutation():
    from graphforge.subgroups import ConjugateSubgroup
    f = grouplib.free2()
    h = cyclic(f, "a")
    conj = ConjugateSubgroup(h, "b")
    g = edgeless_cosets(f, [h, conj], labels=["c1", "c2"])
    report = gh_graph_audit(g, [h, conj], fineness_radius=4, conj_budget=2)
    by_name = {c.name: c for c in report.conditions}
    assert by_name["proper-pair"].verdict == "fail"

    other = cyclic(f, "b")
    g2 = edgeless_cosets(f, [h, other], labels=["c1", "c2"])
    report2 = gh_graph_audit(g2, [h, other], fineness_radius=4, conj_budget=2)
    by_name2 = {c.name: c for c in report2.conditions}
    assert by_name2["proper-pair"].verdict == "inconclusive"


def test_gh_audit_proper_pair_with_undecided_peripheral():
    # the infinite dihedral group has torsion, so a search handle over it
    # does not decide finiteness
    d = grouplib.dihedral_product()
    h = cyclic(d, "p q")
    undecided = generated(d, ["p q", "q p"])
    assert undecided.is_finite() is None
    g = edgeless_cosets(d, [h, undecided], labels=["c1", "c2"])
    report = gh_graph_audit(g, [h, undecided], fineness_radius=2,
                            conj_budget=1)
    by_name = {c.name: c for c in report.conditions}
    assert by_name["proper-pair"].verdict == "inconclusive"
    assert by_name["proper-pair"].detail == \
        f"finiteness undecided: {[repr(undecided)]}"
    assert by_name["fine-at-infinite-stabilizers"].verdict == "inconclusive"
    assert "c2: finiteness undecided" in \
        by_name["fine-at-infinite-stabilizers"].detail


def test_cayley_abels_disconnected_coset_space():
    d = grouplib.dihedral_product()
    h = free_factor(d, ["p"])
    g = edgeless_cosets(d, [h], labels=["c"])
    report = cayley_abels_audit(g, [h])
    by_name = {c.name: c for c in report.conditions}
    assert by_name["connected"].verdict == "fail"


def test_undecided_edge_stabilizer_is_inconclusive_in_both_audits():
    # <pq, qp> in Z/2 * Z/2 is infinite, but its search handle cannot decide
    # that
    d = grouplib.dihedral_product()
    h = generated(d, ["p q", "q p"])
    assert isinstance(h, SearchSubgroup) and h.is_finite() is None
    verts = GSet(d, [Orbit("p", h), Orbit("q", h)])
    g = GGraph(d, verts, [EdgeOrbit("e", h, (verts.elem("p"),
                                            verts.elem("q")))])
    for report in (cayley_abels_audit(g, [h], radius=1),
                   gh_graph_audit(g, [h], angle_bound=1, fineness_radius=1)):
        by_name = {c.name: c for c in report.conditions}
        assert by_name["finite-edge-stabilizers"].as_tuple() == (
            "finite-edge-stabilizers", "inconclusive", "undetermined: ['e']")
