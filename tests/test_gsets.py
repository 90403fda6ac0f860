"""Orbit layer: actions, induction, pushouts, chain certificates."""

import random

import pytest

from graphforge.errors import BudgetExceeded, NotAStabilizer
from graphforge.groups import FiniteGroup
from graphforge.gsets import (
    GMap,
    GSet,
    GSetElem,
    Orbit,
    chain_factorize,
    collisions,
    induce_gset,
    pushout_gsets,
)
from graphforge.subgroups import (
    Monomorphism,
    Subgroup,
    cyclic,
    free_factor,
    generated,
    trivial,
    whole,
    YES,
)
from graphforge.words import Word

import grouplib


def all_points(gset):
    return gset.elements()


def test_act_identity_and_index_two():
    z = grouplib.int_line()
    gs = GSet(z, [Orbit("c", cyclic(z, "a a"))])
    base = gs.elem("c")
    assert gs.act("1", base) == base
    moved = gs.act("a", base)
    assert moved.rep == Word.parse("a")
    assert gs.act("a a", base) == base
    assert gs.act("a", moved) == base


def test_act_sym3_coset_rep_is_minimal():
    # orbit over <x> = <(1 2)>
    s3 = grouplib.sym3()
    h = generated(s3, ["x"])
    gs = GSet(s3, [Orbit("c", h)])
    base = gs.elem("c")
    moved = gs.act("y", base)
    # coset {y, y x}: the length-1 word wins
    assert moved.rep == Word.parse("y")
    # acting by x fixes the base point
    assert gs.act("x", base) == base


def test_elem_equal_uses_cosets():
    s3 = grouplib.sym3()
    h = generated(s3, ["x"])
    gs = GSet(s3, [Orbit("c", h)])
    a = GSetElem("c", s3.normalize("y"))
    b = GSetElem("c", s3.normalize("y x"))
    assert gs.elem_equal(gs.elem("c", "y"), gs.elem("c", "y x"))
    assert not gs.elem_equal(gs.elem("c", "y"), gs.elem("c"))


def pairwise_collisions(gset, items):
    """Reference for ``collisions``: every item against every earlier one."""
    out, seen = [], []
    for label, x in items:
        for other, y in seen:
            if gset.elem_equal(x, y):
                out.append((label, other))
        seen.append((label, x))
    return out


class WordReps(Subgroup):
    """An exact membership test behind reps that are the words themselves,
    so equal elements can have different reps (``rep_exact`` is false)."""

    def __init__(self, inner):
        super().__init__(inner.ambient, inner.generators)
        self.inner = inner

    def contains(self, word):
        return self.inner.contains(word)

    def coset_rep(self, word):
        return self.check_ambient(word)


def test_collisions_match_the_pairwise_scan():
    f = grouplib.free2()
    gs = GSet(f, [Orbit("exact", cyclic(f, "a")),
                  Orbit("words", WordReps(cyclic(f, "b"))),
                  Orbit("point", whole(f))])
    rng = random.Random(5)
    items = []
    for i in range(60):
        word = Word((rng.choice("ab"), rng.choice((1, -1)))
                    for _ in range(rng.randrange(4)))
        items.append((i, gs.elem(rng.choice(gs.orbit_ids()), word)))
    items += rng.sample(items, 20)   # exact duplicates collide too
    expected = pairwise_collisions(gs, items)
    assert collisions(gs, items) == expected
    hit = {dict(items)[label].orbit_id for label, _ in expected}
    assert hit == {"exact", "words", "point"}


def test_collisions_raise_where_the_pairwise_scan_does():
    f = grouplib.free2()
    gs = GSet(f, [Orbit("exact", cyclic(f, "a")),
                  Orbit("search", generated(f, ["a a", "b b"], budget=3))])
    items = [("p", gs.elem("search")), ("q", gs.elem("exact", "b")),
             ("r", gs.elem("search", "a a b b")), ("s", gs.elem("exact")),
             ("t", gs.elem("search", "a"))]
    assert collisions(gs, items[:4]) == pairwise_collisions(gs, items[:4]) \
        == [("r", "p")]
    for scan in (pairwise_collisions, collisions):
        with pytest.raises(BudgetExceeded, match="orbit 'search'"):
            scan(gs, items)


def test_gmap_equivariance_enforced():
    s3 = grouplib.sym3()
    hy = generated(s3, ["y"])
    dom = GSet(s3, [Orbit("d", hy)])
    cod = GSet(s3, [Orbit("c", generated(s3, ["x"]))])
    with pytest.raises(ValueError):
        GMap(dom, cod, {"d": cod.elem("c")})
    fixed = GSet(s3, [Orbit("w", whole(s3))])
    GMap(dom, fixed, {"d": fixed.elem("w")})  # always equivariant


def test_induce_regular_kset():
    s3 = grouplib.sym3()
    k_group = FiniteGroup.cyclic(2, "k", "K")
    k_handle = generated(s3, ["x"])
    emb = Monomorphism(whole(k_group), k_handle, ["x"])
    kset = GSet(k_group, [Orbit("r", trivial(k_group))])
    induced, inc = induce_gset(emb, kset)
    assert induced.orbit_count == 1
    assert len(all_points(induced)) == 6
    images = {induced.elem_key(inc.apply(p)) for p in kset.elements()}
    assert len(images) == 2


def test_induce_along_whole_group_is_isomorphism():
    s3 = grouplib.sym3()
    emb = Monomorphism(whole(s3), whole(s3), ["x", "y"])
    kset = GSet(s3, [Orbit("r", trivial(s3)), Orbit("f", whole(s3))])
    induced, inc = induce_gset(emb, kset)
    assert induced.orbit_count == kset.orbit_count
    src = kset.elements()
    imgs = [inc.apply(p) for p in src]
    assert len({induced.elem_key(i) for i in imgs}) == len(src)
    assert len(induced.elements()) == len(src)


def test_induce_fixed_point_gives_coset_space():
    d = grouplib.dihedral_product()
    h1_group = FiniteGroup.cyclic(2, "p", "H1x")
    # reuse the p-letter: embedding is verbatim on names
    emb = Monomorphism(whole(h1_group), free_factor(d, ["p"]), ["p"])
    kset = GSet(h1_group, [Orbit("pt", whole(h1_group))])
    induced, inc = induce_gset(emb, kset)
    assert induced.orbit_count == 1
    stab = induced.stabilizer("pt")
    assert stab.contains("p") == YES
    assert stab.contains("q") == "no"
    # the induced orbit is D/H1: q and qp land in the same coset
    assert induced.elem_equal(induced.elem("pt", "q"), induced.elem("pt", "q p"))
    assert not induced.elem_equal(induced.elem("pt", "q"), induced.elem("pt"))


def test_induced_stabilizers_match_pointwise():
    # K-stabilizer equals G-stabilizer of the included point
    s3 = grouplib.sym3()
    k_group = FiniteGroup.cyclic(3, "k", "K3")
    emb = Monomorphism(whole(k_group), generated(s3, ["y"]), ["y"])
    kset = GSet(k_group, [Orbit("f", whole(k_group)), Orbit("r", trivial(k_group))])
    induced, inc = induce_gset(emb, kset)
    for orb in kset.orbits:
        base = kset.elem(orb.orbit_id)
        img = inc.apply(base)
        point_stab = {
            e for e in s3.elements()
            if induced.elem_equal(
                induced.act(s3.word_of(e), img), img)
        }
        expected = {
            s3.element_of(emb.push(kset.elem(orb.orbit_id, w).rep) or Word())
            for w in [Word(), Word.parse("k"), Word.parse("k k")]
            if orb.stabilizer.contains(w) == YES
        }
        assert point_stab == {
            s3.element_of(emb.push(w))
            for w in ([k_group.identity()] if orb.orbit_id == "r"
                      else [k_group.normalize(Word.parse("k").power(i)) for i in range(3)])
        }


def test_induced_stabilizer_in_a_finite_group_is_its_closure():
    # the point of Z4 / <a^2> goes into Z8 along a -> d^2; its stabilizer
    # there is <d^4>, read off the action on every element of Z8
    z4, z8 = FiniteGroup.cyclic(4, "a", "Z4"), FiniteGroup.cyclic(8, "d", "Z8")
    emb = Monomorphism(whole(z4), generated(z8, ["d d"]), ["d d"])
    kset = GSet(z4, [Orbit("p", generated(z4, ["a a"]))])
    induced, inc = induce_gset(emb, kset)
    point = inc.apply(kset.elem("p"))
    fixing = sorted(e for e in z8.elements()
                    if induced.elem_equal(induced.act(z8.word_of(e), point),
                                          point))
    assert fixing == [0, 4]
    stab = induced.stabilizer(point.orbit_id)
    assert stab.order() == 2
    assert sorted(z8.element_of(w) for w in stab.elements()) == [0, 4]


def test_pushout_needs_a_source_of_one_orbit():
    s3 = grouplib.sym3()
    S = GSet(s3, [Orbit("s", generated(s3, ["x"]))])
    T = GSet(s3, [Orbit("t", generated(s3, ["y"]))])
    empty = GSet(s3, [])
    two = GSet(s3, [Orbit("r1", trivial(s3)), Orbit("r2", trivial(s3))])
    for R, images_s, images_t in (
            (empty, {}, {}),
            (two, {"r1": S.elem("s"), "r2": S.elem("s", "y")},
             {"r1": T.elem("t"), "r2": T.elem("t", "x")})):
        with pytest.raises(ValueError, match="one orbit"):
            pushout_gsets(GMap(R, S, images_s), GMap(R, T, images_t))


def test_pushout_collapses_to_fixed_point():
    s3 = grouplib.sym3()
    c = generated(s3, ["y"])
    R = GSet(s3, [Orbit("r", c)])
    S = GSet(s3, [Orbit("s", generated(s3, ["y"]))])
    T = GSet(s3, [Orbit("t", whole(s3))])
    phi = GMap(R, S, {"r": S.elem("s")})
    psi = GMap(R, T, {"r": T.elem("t")})
    po = pushout_gsets(phi, psi)
    assert po.gset.orbit_count == 1
    z = po.include_s.apply(S.elem("s"))
    stab = po.gset.stabilizer(z.orbit_id)
    for e in s3.elements():
        assert stab.contains(s3.word_of(e)) == YES
    assert len(all_points(po.gset)) == 1


def test_pushout_stabilizer_matches_join_exhaustively():
    s3 = grouplib.sym3()
    x_sub = grouplib.table_subgroup(s3, [s3.element_of("x")])
    y_sub = grouplib.table_subgroup(s3, [s3.element_of("y")])
    triv = grouplib.table_subgroup(s3, [])
    R = GSet(s3, [Orbit("r", triv)])
    S = GSet(s3, [Orbit("s", x_sub)])
    T = GSet(s3, [Orbit("t", y_sub)])
    phi = GMap(R, S, {"r": S.elem("s")})
    psi = GMap(R, T, {"r": T.elem("t")})
    po = pushout_gsets(phi, psi)
    z = po.include_s.apply(S.elem("s"))
    stab = po.gset.stabilizer(z.orbit_id)
    join = s3.subgroup_closure({s3.element_of("x"), s3.element_of("y")})
    for e in s3.elements():
        expected = e in join
        assert (stab.contains(s3.word_of(e)) == YES) == expected
        assert po.gset.stabilizes(s3.word_of(e), z) == expected


def test_chain_factorize_sym3():
    s3 = grouplib.sym3()
    x_sub = grouplib.table_subgroup(s3, [s3.element_of("x")])
    y_sub = grouplib.table_subgroup(s3, [s3.element_of("y")])
    triv = grouplib.table_subgroup(s3, [])
    R = GSet(s3, [Orbit("r", triv)])
    S = GSet(s3, [Orbit("s", x_sub)])
    T = GSet(s3, [Orbit("t", y_sub)])
    po = pushout_gsets(GMap(R, S, {"r": S.elem("s")}),
                       GMap(R, T, {"r": T.elem("t")}))
    z = po.include_s.apply(S.elem("s"))
    for e in s3.elements():
        g = s3.word_of(e)
        if po.gset.stabilizes(g, z):
            factors = chain_factorize(po, g, z)
            prod = s3.identity()
            for _, w in factors:
                prod = s3.multiply(prod, w)
            # product certifies g modulo the s-leg stabilizer
            assert x_sub.contains(s3.multiply(prod.inverse(), g)) == YES
        else:
            with pytest.raises(NotAStabilizer):
                chain_factorize(po, g, z)


def test_chain_factorize_trivial_cases():
    s3 = grouplib.sym3()
    x_sub = grouplib.table_subgroup(s3, [s3.element_of("x")])
    y_sub = grouplib.table_subgroup(s3, [s3.element_of("y")])
    triv = grouplib.table_subgroup(s3, [])
    R = GSet(s3, [Orbit("r", triv)])
    S = GSet(s3, [Orbit("s", x_sub)])
    T = GSet(s3, [Orbit("t", y_sub)])
    po = pushout_gsets(GMap(R, S, {"r": S.elem("s")}),
                       GMap(R, T, {"r": T.elem("t")}))
    z = po.include_s.apply(S.elem("s"))
    # g in the s-leg stabilizer: empty-chain certificate suffices
    factors = chain_factorize(po, "x", z)
    assert all(leg in ("s", "t") for leg, _ in factors)
    # g in the t-leg stabilizer: single-factor chain
    factors = chain_factorize(po, "y", z)
    assert ("t", grouplib.sym3().normalize("y")) in factors or \
        any(leg == "t" for leg, _ in factors)


def test_equivariance_of_maps_under_action():
    s3 = grouplib.sym3()
    h = generated(s3, ["x"])
    dom = GSet(s3, [Orbit("d", h)])
    cod = GSet(s3, [Orbit("w", whole(s3)), Orbit("c", h)])
    f = GMap(dom, cod, {"d": cod.elem("c")})
    for e in s3.elements():
        g = s3.word_of(e)
        for p in all_points(dom):
            assert cod.elem_equal(f.apply(dom.act(g, p)), cod.act(g, f.apply(p)))
