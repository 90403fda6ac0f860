"""Cross-module invariants promised by the library contracts."""

import pytest
from hypothesis import given, settings, strategies as st

from graphforge.groups import ball_enumerate
from graphforge.ggraphs import coned_off, c_pushout, single_vertex_graph
from graphforge.subgroups import (
    cyclic,
    free_factor,
    generated,
    trivial,
    whole,
    YES,
)
from graphforge.words import Word

import grouplib
from test_groups import random_words


def test_amalgam_identifies_edge_images_on_a_ball():
    g = grouplib.modular_amalgam()
    edge = g.edge_group
    for c in ball_enumerate(edge, edge.generator_words(), 4):
        lhs = g.into_left.push(c)
        rhs = g.into_right.push(c)
        assert g.is_identity(Word.coerce(lhs) * Word.coerce(rhs).inverse()), c


def test_hnn_conjugation_relation_on_a_ball():
    g = grouplib.shift_hnn()
    t = g.stable_word()
    for c in g.edge_handle.ball(5):
        image = g.iso.push(c)
        word = t * Word.coerce(c) * t.inverse() * Word.coerce(image).inverse()
        assert g.is_identity(word), c


@pytest.mark.parametrize("make_handle", [
    lambda: cyclic(grouplib.int_line(), "a a"),
    lambda: generated(grouplib.sym3(), ["y"]),
    lambda: free_factor(grouplib.dihedral_product(), ["p"]),
    lambda: trivial(grouplib.free2()),
    lambda: whole(grouplib.sym3()),
])
def test_membership_iff_empty_coset_rep(make_handle):
    handle = make_handle()
    amb = handle.ambient
    words = random_words([g for g in amb.generators], 30, 5, seed=41)
    for w in words:
        member = handle.contains(w) == YES
        assert member == (handle.coset_rep(w) == Word()), w


def test_every_pushout_orbit_meets_the_canonical_copies():
    g = grouplib.coned_amalgam()
    xg = coned_off(g.left, [free_factor(g.left, ["a1", "a2"])],
                   [Word.parse("a3")], labels=["KA"])
    yg = coned_off(g.right, [free_factor(g.right, ["b1", "b2"])],
                   [Word.parse("b3")], labels=["KB"])
    z = c_pushout(g, xg, yg, xg.vertices.elem("cone:KA"),
                  yg.vertices.elem("cone:KB"))
    po = z.provenance.vertex_pushout
    # every vertex orbit of the pushout contains the image of a source-graph
    # base point, so every vertex has a translate inside the copies
    copies = []
    for inc in (po.include_s, po.include_t):
        for o in inc.domain.orbits:
            copies.append(inc.apply(inc.domain.elem(o.orbit_id)))
    for o in z.vertices.orbits:
        v = z.vertices.elem(o.orbit_id, "a2 b2")
        carried = z.vertices.act(Word.coerce(v.rep).inverse(), v)
        assert any(z.vertices.elem_equal(carried, c) for c in copies
                   if c.orbit_id == o.orbit_id)
    # edges likewise: each edge orbit comes verbatim from one input
    for eo in z.edge_orbits:
        assert eo.orbit_id.startswith(("X:", "Y:"))


def test_point_pushout_orbit_count_additivity():
    # orbit counts add up, with the two glued orbits merged into one
    g = grouplib.lattice_amalgam()
    xg = single_vertex_graph(g.left)
    yg = single_vertex_graph(g.right)
    z = c_pushout(g, xg, yg, xg.vertices.elem("pt"), yg.vertices.elem("pt"))
    assert z.vertex_orbit_count == \
        xg.vertex_orbit_count + yg.vertex_orbit_count - 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([("a", 1), ("a", -1), ("b", 1), ("b", -1),
                                 ("t", 1), ("t", -1)]), max_size=7))
def test_hnn_normal_form_idempotent_hypothesis(letters):
    g = grouplib.shift_hnn()
    w = Word(letters)
    nf = g.normalize(w)
    assert g.normalize(nf) == nf
    assert g.is_identity(w * w.inverse())
