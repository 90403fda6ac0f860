"""Graph-level constructions: the four worked examples drive these tests.

Independent oracles: explicit coset arithmetic (union-find over enumerated
cosets) for the coalescence quotients, and factor membership for pushout
stabilizers.
"""

import pytest

from graphforge.errors import FixedPointViolation, SameOrbitViolation
from graphforge.groups import FreeAbelianGroup, FreeProductGroup, ball_enumerate
from graphforge.ggraphs import (
    GGraph,
    EdgeOrbit,
    bass_serre,
    c_pushout,
    cayley_graph,
    coalesce,
    coned_off,
    edgeless_cosets,
    induce_graph,
    project_to_tree,
    single_vertex_graph,
    validate_graph,
)
from graphforge.gsets import GSet, Orbit, chain_factorize
from graphforge.subgroups import (
    Monomorphism,
    cyclic,
    free_factor,
    whole,
    YES, NO,
)
from graphforge.words import Word

import grouplib


def test_validate_single_vertex():
    z = grouplib.int_line()
    g = single_vertex_graph(z)
    rep = validate_graph(g)
    assert rep.valid and rep.simplicial and rep.no_inversions


def test_validate_rejects_degenerate_edge():
    z = grouplib.int_line()
    verts = GSet(z, [Orbit("v", cyclic(z, "a a"))])
    g = GGraph(z, verts, [EdgeOrbit("loop", cyclic(z, "a a"),
                                    (verts.elem("v"), verts.elem("v")))])
    rep = validate_graph(g)
    assert not rep.simplicial


def test_validate_cayley_line():
    z = grouplib.int_line()
    g = cayley_graph(z)
    rep = validate_graph(g)
    assert rep.valid and rep.simplicial and rep.no_inversions


def test_coned_off_orbit_schema():
    z = grouplib.int_line()
    evens = cyclic(z, "a a")
    g = coned_off(z, [evens], [Word.parse("a")], labels=["E"])
    assert g.vertex_orbit_count == 2
    assert g.edge_orbit_count == 2
    assert {o.orbit_id for o in g.vertices.orbits} == {"el", "cone:E"}
    # the cone vertex orbit has two cosets materialized at 0 and 1
    c0 = g.vertices.elem("cone:E")
    c1 = g.vertices.elem("cone:E", "a")
    assert not g.vertices.elem_equal(c0, c1)
    assert g.vertices.elem_equal(c0, g.vertices.elem("cone:E", "a a"))


def test_coned_off_involution_edges_flagged():
    d = grouplib.dihedral_product()
    g = coned_off(d, [], [Word.parse("p"), Word.parse("q")])
    rep = validate_graph(g)
    assert rep.valid and rep.simplicial
    assert not rep.no_inversions  # order-2 generators flip their edges


def test_induce_graph_copies():
    zz = FreeProductGroup("ZZ", [FreeAbelianGroup("U", ["u"]),
                                 FreeAbelianGroup("V", ["v"])])
    ufac = zz.factors[0]
    lam = cayley_graph(ufac)
    mono = Monomorphism(whole(ufac), free_factor(zz, ["u"]), ["u"])
    big = induce_graph(mono, lam)
    assert big.vertex_orbit_count == 1
    assert big.edge_orbit_count == 1
    rep = validate_graph(big)
    assert rep.valid and rep.simplicial and rep.no_inversions
    # embedding is injective on a sample and lands in the u-axis copy
    pts = [lam.vertices.elem("el", Word.parse("u").power(k)) for k in range(-2, 3)]
    imgs = [big.vertices.elem(p.orbit_id, mono.push(p.rep)) for p in pts]
    assert len({big.vertices.elem_key(i) for i in imgs}) == len(pts)
    # a v-translate lies in a different copy: not equal to any image
    far = big.vertices.elem("el", "v u")
    assert all(not big.vertices.elem_equal(far, i) for i in imgs)


def test_pushout_of_points_is_single_vertex():
    g = grouplib.lattice_amalgam()
    x_graph = single_vertex_graph(g.left)
    y_graph = single_vertex_graph(g.right)
    z = c_pushout(g, x_graph, y_graph,
                  x_graph.vertices.elem("pt"), y_graph.vertices.elem("pt"))
    zv = z.provenance.z
    assert z.vertex_orbit_count == 1
    assert z.edge_orbit_count == 0
    stab = z.vertices.stabilizer(zv.orbit_id)
    for w in ("a1", "a2", "b1", "b2", "a1 b2 a2^-1"):
        assert stab.contains(w) == YES
    # the entire orbit is one point
    assert z.vertices.elem_equal(z.vertices.elem(zv.orbit_id, "a2 b2"), zv)


def cone_graph_pair():
    g = grouplib.coned_amalgam()
    xg = coned_off(g.left, [free_factor(g.left, ["a1", "a2"])],
                   [Word.parse("a3")], labels=["KA"])
    yg = coned_off(g.right, [free_factor(g.right, ["b1", "b2"])],
                   [Word.parse("b3")], labels=["KB"])
    return g, xg, yg


def test_pushout_cone_example_schema():
    g, xg, yg = cone_graph_pair()
    z = c_pushout(g, xg, yg,
                  xg.vertices.elem("cone:KA"), yg.vertices.elem("cone:KB"))
    zv = z.provenance.z
    assert z.vertex_orbit_count == 3
    assert z.edge_orbit_count == 4
    stab = z.vertices.stabilizer(zv.orbit_id)
    for w in ("a1", "a2", "b2", "a2 b2 a2", "b1"):
        assert stab.contains(w) == YES
    for w in ("a3", "b3", "a2 a3", "a3 b2"):
        assert stab.contains(w) == NO
    # free orbits keep trivial stabilizers
    free_orbits = [o for o in z.vertices.orbits if o.orbit_id != zv.orbit_id]
    assert len(free_orbits) == 2
    assert all(o.stabilizer.is_trivial() for o in free_orbits)
    # edge stabilizers are preserved (all trivial here)
    assert all(eo.stabilizer.is_trivial() for eo in z.edge_orbits)
    rep = validate_graph(z)
    assert rep.valid and rep.simplicial and rep.no_inversions


def test_pushout_stabilizer_certified_by_chains():
    g, xg, yg = cone_graph_pair()
    z = c_pushout(g, xg, yg,
                  xg.vertices.elem("cone:KA"), yg.vertices.elem("cone:KB"))
    zv = z.provenance.z
    po = z.provenance.vertex_pushout
    stab = z.vertices.stabilizer(zv.orbit_id)
    for w in ball_enumerate(g, g.generator_words(), 3):
        fixes = z.vertices.elem_equal(z.vertices.act(w, zv), zv)
        assert fixes == (stab.contains(w) == YES)
        if fixes:
            factors = chain_factorize(po, w, zv)
            prod = Word()
            for _, fw in factors:
                prod = prod * fw
            assert po.merge.s_stab.contains(
                g.multiply(prod.inverse(), w)) == YES


def test_pushout_preserves_untouched_stabilizers():
    # vertices of the left graph outside the glued orbit keep their answers
    g, xg, yg = cone_graph_pair()
    z = c_pushout(g, xg, yg,
                  xg.vertices.elem("cone:KA"), yg.vertices.elem("cone:KB"))
    el_orbit = next(o for o in z.vertices.orbits if o.orbit_id == "X:el")
    assert el_orbit.stabilizer.is_trivial()


def test_pushout_requires_fixed_vertices():
    g, xg, yg = cone_graph_pair()
    with pytest.raises(FixedPointViolation):
        c_pushout(g, xg, yg, xg.vertices.elem("el"),
                  yg.vertices.elem("cone:KB"))


def test_coalesce_point_collapses():
    # an automorphism of the whole base group: the coalescence of a point
    # is again a point
    f = grouplib.free2()
    c = whole(f)
    iso = Monomorphism(c, whole(f), ["a", "b"])
    from graphforge.subgroups import build_hnn
    g = build_hnn("FxZ", f, c, iso, "t")
    xg = single_vertex_graph(f, label="pt")
    pt = xg.vertices.elem("pt")
    z = coalesce(g, xg, pt, pt, require_hypotheses=False)
    zv = z.provenance.z
    assert z.vertex_orbit_count == 1
    stab = z.vertices.stabilizer(zv.orbit_id)
    assert stab.is_whole()
    assert z.vertices.elem_equal(z.vertices.elem(zv.orbit_id, "t a"), zv)


def test_coalesce_same_orbit_guard():
    f = grouplib.free2()
    c = whole(f)
    iso = Monomorphism(c, whole(f), ["a", "b"])
    from graphforge.subgroups import build_hnn
    g = build_hnn("FxZ2", f, c, iso, "t")
    xg = single_vertex_graph(f, label="pt")
    pt = xg.vertices.elem("pt")
    with pytest.raises(SameOrbitViolation):
        coalesce(g, xg, pt, pt)


def dihedral_coalescence():
    a = grouplib.dihedral_product()
    h1 = free_factor(a, ["p"])
    h2 = free_factor(a, ["q"])
    iso = Monomorphism(h1, h2, ["q"])
    from graphforge.subgroups import build_hnn
    g = build_hnn("D*phi", a, h1, iso, "t")
    xg = edgeless_cosets(a, [h1, h2], labels=["xH1", "yH2"])
    return g, xg


def test_coalesce_coset_union_matches_single_orbit():
    g, xg = dihedral_coalescence()
    x = xg.vertices.elem("xH1")
    y = xg.vertices.elem("yH2")
    z = coalesce(g, xg, x, y)
    zv = z.provenance.z
    assert z.provenance.hypotheses_hold
    assert z.vertex_orbit_count == 1
    stab = z.vertices.stabilizer(zv.orbit_id)
    assert stab.contains("q") == YES
    assert stab.contains("p") == NO
    assert stab.contains("t") == NO

    # oracle: the quotient is G/H1 via rho(g.x) = g t^{-1}.z
    h1_lifted = z.provenance and None
    from graphforge.subgroups import RestrictedSubgroup, free_factor as ff
    h1g = RestrictedSubgroup(g, ff(g.base, ["p"]), "base")
    ball = ball_enumerate(g, g.generator_words(), 4)
    rho = z.provenance.vertex_map
    for u in ball[:40]:
        for v in ball[:40]:
            lhs = z.vertices.elem_equal(
                rho.apply(rho.domain.elem("xH1", u)),
                rho.apply(rho.domain.elem("xH1", v)),
            )
            rhs = h1g.contains(g.multiply(u.inverse(), v)) == YES
            assert lhs == rhs, (u, v)


def test_coalesce_cone_points_shift_hnn():
    g = grouplib.shift_hnn()
    f = g.base
    xg = coned_off(f, [cyclic(f, "a"), cyclic(f, "b")],
                   [Word.parse("a"), Word.parse("b")], labels=["A", "B"])
    x = xg.vertices.elem("cone:A")
    y = xg.vertices.elem("cone:B")
    z = coalesce(g, xg, x, y)
    zv = z.provenance.z
    assert z.provenance.hypotheses_hold
    assert z.vertex_orbit_count == 2      # elements + the merged cone orbit
    assert z.edge_orbit_count == 4
    stab = z.vertices.stabilizer(zv.orbit_id)
    assert stab.contains("b") == YES
    assert stab.contains("a") == NO
    assert stab.contains("t") == NO
    assert stab.contains("t a t^-1") == YES   # = b
    rep = validate_graph(z)
    assert rep.valid and rep.simplicial and rep.no_inversions


def test_coalesce_stabilizer_matches_union_find_oracle():
    # enumerate actual coset identifications and compare the stabilizer
    g = grouplib.shift_hnn()
    f = g.base
    xg = coned_off(f, [cyclic(f, "a"), cyclic(f, "b")],
                   [Word.parse("a"), Word.parse("b")], labels=["A", "B"])
    z = coalesce(g, xg, xg.vertices.elem("cone:A"), xg.vertices.elem("cone:B"))
    zv = z.provenance.z

    from graphforge.subgroups import RestrictedSubgroup
    ha = RestrictedSubgroup(g, cyclic(f, "a"), "base")
    hb = RestrictedSubgroup(g, cyclic(f, "b"), "base")
    ball = ball_enumerate(g, g.generator_words(), 4)
    t = Word.parse("t")

    # union-find over raw cosets gA=<a>-cosets and gB=<b>-cosets
    parent = {}

    def key(tag, w):
        handle = ha if tag == "A" else hb
        return (tag, tuple(handle.coset_rep(w)))

    def find(k):
        parent.setdefault(k, k)
        while parent[k] != k:
            k = parent[k]
        return k

    def union(k1, k2):
        r1, r2 = find(k1), find(k2)
        if r1 != r2:
            parent[r2] = r1

    for w in ball:
        union(key("A", g.multiply(w, t)), key("B", w))
    zcls = find(key("B", Word()))
    for w in ball:
        oracle_fixes = find(key("B", w)) == zcls
        claimed = z.vertices.elem_equal(z.vertices.act(w, zv), zv)
        if oracle_fixes:
            # identifications only merge within the enumerated window, so a
            # positive oracle answer is always sound
            assert claimed
        if claimed and len(w) <= 2:
            assert oracle_fixes


def test_bass_serre_modular_tree_degrees():
    g = grouplib.modular_amalgam()
    tree = bass_serre(g)
    rep = validate_graph(tree)
    assert rep.valid and rep.simplicial and rep.no_inversions
    va = tree.vertices.elem("vA")
    vm = tree.vertices.elem("vM")
    vb = tree.vertices.elem("vB")
    for v, expected in ((va, 2), (vm, 2), (vb, 3)):
        edges, complete = tree.incident_edges(v, 4)
        assert complete
        assert len(edges) == expected, (v, edges)


def test_bass_serre_hnn_subdivided():
    g = grouplib.shift_hnn()
    tree = bass_serre(g)
    rep = validate_graph(tree)
    assert rep.valid and rep.simplicial and rep.no_inversions
    mid = tree.distinguished
    edges, complete = tree.incident_edges(mid, 3)
    assert not complete  # infinite base group: enumeration is budgeted
    assert len(edges) == 2  # subdivision points have two sides


def test_project_pushout_to_tree():
    g, xg, yg = cone_graph_pair()
    z = c_pushout(g, xg, yg,
                  xg.vertices.elem("cone:KA"), yg.vertices.elem("cone:KB"))
    zv = z.provenance.z
    tree, pi = project_to_tree(z)
    assert pi.vertex(zv) == tree.distinguished or \
        tree.vertices.elem_equal(pi.vertex(zv), tree.distinguished)
    # vertex orbits map onto the three tree orbits
    images = {pi.vertex(z.vertices.elem(o.orbit_id)).orbit_id
              for o in z.vertices.orbits}
    assert images == {"vA", "vM", "vB"}
    # commuting squares on base edges
    for eo in z.edge_orbits:
        assert pi.commutes_on(z.edges.elem(eo.orbit_id))
    # preimage of the distinguished vertex is exactly the identified vertex
    for w in ball_enumerate(g, g.generator_words(), 3):
        v = z.vertices.act(w, zv)
        hits = tree.vertices.elem_equal(pi.vertex(v), tree.distinguished)
        assert hits == z.vertices.elem_equal(v, zv)


def test_project_coalescence_to_tree():
    g = grouplib.shift_hnn()
    f = g.base
    xg = coned_off(f, [cyclic(f, "a"), cyclic(f, "b")],
                   [Word.parse("a"), Word.parse("b")], labels=["A", "B"])
    z = coalesce(g, xg, xg.vertices.elem("cone:A"), xg.vertices.elem("cone:B"))
    zv = z.provenance.z
    tree, pi = project_to_tree(z)
    assert tree.vertices.elem_equal(pi.vertex(zv), tree.distinguished)
    for eo in z.edge_orbits:
        assert pi.commutes_on(z.edges.elem(eo.orbit_id))
    for w in ball_enumerate(g, g.generator_words(), 3):
        v = z.vertices.act(w, zv)
        hits = tree.vertices.elem_equal(pi.vertex(v), tree.distinguished)
        assert hits == z.vertices.elem_equal(v, zv)
