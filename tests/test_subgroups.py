"""Handle tests.  The load-bearing property is that `coset_rep` of an exact
handle is constant on cosets -- membership is the independent oracle for that.
"""

import itertools
import math
import random

import pytest

from graphforge.errors import (
    BudgetExceeded,
    MalformedWord,
    MismatchedAmbient,
    MonomorphismUnverified,
)
from graphforge.examples import builtin_examples
from graphforge.groups import (
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    ball_enumerate,
)
from graphforge.pipeline import validate_spec
from graphforge.subgroups import (
    DEFAULT_BUDGET,
    ConjugateSubgroup,
    CyclicSubgroup,
    FiniteSubgroup,
    FreeFactorSubgroup,
    ImageSubgroup,
    JoinSubgroup,
    Monomorphism,
    RestrictedSubgroup,
    SearchSubgroup,
    Subgroup,
    WholeSubgroup,
    build_amalgam,
    build_hnn,
    check_monomorphism,
    cyclic,
    free_factor,
    generated,
    power_of,
    same_subgroup,
    trivial,
    whole,
    YES, NO, UNKNOWN,
)
from graphforge.words import Word

import grouplib
from test_acceptance import _bench_module
from test_groups import random_words


def rep_constant_on_cosets(handle, words):
    """coset_rep(w) == coset_rep(w * h) for handle elements h."""
    amb = handle.ambient
    hs = handle.elements() if handle.is_finite() else handle.ball(3)
    for w in words:
        base = handle.coset_rep(w)
        assert handle.contains(amb.multiply(w.inverse(), base)) == YES or \
               handle.contains(amb.multiply(base.inverse(), w)) == YES
        for h in hs[:12]:
            assert handle.coset_rep(amb.multiply(w, h)) == base, (w, h)


def test_cyclic_membership_in_line():
    z = grouplib.int_line()
    h = cyclic(z, "a a")
    assert h.contains("a a a a") == YES
    assert h.contains("a a a") == NO
    assert h.coset_rep("a^5") == Word.parse("a")
    assert h.coset_rep("a^4") == Word()


def test_membership_iff_trivial_coset_rep():
    z = grouplib.int_line()
    h = cyclic(z, "a a")
    for k in range(-6, 7):
        w = Word.parse("a").power(k)
        assert (h.contains(w) == YES) == (h.coset_rep(w) == Word())


def test_finite_subgroup_in_sym3():
    s3 = grouplib.sym3()
    h = generated(s3, ["y"])  # the 3-cycle subgroup
    assert h.order() == 3
    assert h.contains("x") == NO
    assert h.contains("y y") == YES
    rep_constant_on_cosets(h, [s3.normalize(s3.word_of(e)) for e in s3.elements()])


def test_whole_and_trivial():
    s3 = grouplib.sym3()
    assert whole(s3).contains("x y") == YES
    assert whole(s3).coset_rep("x y") == Word()
    assert trivial(s3).contains("x x") == YES
    assert trivial(s3).contains("x") == NO


def test_mismatched_ambient():
    s3 = grouplib.sym3()
    with pytest.raises(MismatchedAmbient):
        whole(s3).contains("a")


def test_free_factor_handle():
    d = grouplib.dihedral_product()
    h1 = free_factor(d, ["p"])
    assert h1.contains("p") == YES
    assert h1.contains("q") == NO
    assert h1.is_finite() is True
    assert sorted(map(str, h1.elements())) == ["1", "p"]

    f = grouplib.free2()
    hb = generated(f, ["b"])
    assert hb.contains("b b") == YES
    assert hb.contains("a") == NO
    # coset rep strips the maximal trailing chunk inside the factor
    assert hb.coset_rep("a b b b") == Word.parse("a")
    assert hb.coset_rep("b a b b") == Word.parse("b a")
    rep_constant_on_cosets(hb, random_words(["a", "b"], 25, 6, seed=5))


def test_coset_rep_examples():
    z = grouplib.int_line()
    h = cyclic(z, "a a")
    assert h.coset_rep("a^5") == Word.parse("a")
    assert h.coset_rep("a^2") == Word()

    # free factor inside a free product: strip the trailing factor part
    d = grouplib.dihedral_product()
    h1 = free_factor(d, ["p"])
    assert h1.coset_rep("p q p") == Word.parse("p q")


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cyclic_rep_in_free_abelian_is_the_least_of_its_coset(rank):
    # oracle: the word_key-least normal form of w u^k over |k| <= 3|w| + 3;
    # every handle takes the closed form, one-letter generators included
    names = [f"x{i}" for i in range(1, rank + 1)]
    g = FreeAbelianGroup(f"Z{rank}", names)
    rng = random.Random(rank)
    one_letter = 0
    for trial in range(120):
        d = [rng.randint(-3, 3) for _ in names]
        if not any(d):
            continue
        u = Word((n, 1 if e > 0 else -1) for n, e in zip(names, d)
                 for _ in range(abs(e)))
        u = Word(rng.sample(list(u), len(u)))
        h = cyclic(g, u)
        one_letter += len(u) == 1
        for w in random_words(names, 4, 12, rng.randrange(10 ** 6)):
            reach = 3 * len(g.normalize(w)) + 3
            least = min((g.normalize(w * u.power(k))
                         for k in range(-reach, reach + 1)), key=g.word_key)
            assert h.coset_rep(w) == least, (u, w)
            k = rng.randint(-6, 6)
            assert h.coset_rep(w * u.power(k)) == h.coset_rep(w), (u, w, k)
    assert one_letter >= 1


def test_power_of():
    f = grouplib.free2()
    assert power_of(f, Word.parse("a b"), Word.parse("a b a b")) == 2
    assert power_of(f, Word.parse("a"), Word.parse("a^-3")) == -3
    assert power_of(f, Word.parse("a"), Word.parse("b")) is None
    s3 = grouplib.sym3()
    assert power_of(s3, Word.parse("y"), Word.parse("y y")) == 2
    assert power_of(s3, Word.parse("y"), Word.parse("x")) is None


def test_restricted_handle_in_hnn():
    g = grouplib.shift_hnn()
    base_b = cyclic(g.base, "b")
    h = RestrictedSubgroup(g, base_b, "base")
    assert h.contains("b b") == YES
    assert h.contains("t a t^-1") == YES      # equals b
    assert h.contains("a") == NO
    assert h.contains("t") == NO
    words = random_words(["a", "b", "t"], 30, 6, seed=9)
    rep_constant_on_cosets(h, [g.normalize(w) for w in words])


def test_restricted_handle_in_amalgam():
    g = grouplib.coned_amalgam()
    ax = free_factor(g.left, ["a1", "a2"])
    h = RestrictedSubgroup(g, ax, "L")
    assert h.contains("a1 a2") == YES
    assert h.contains("b1 a2") == YES          # b1 = a1
    assert h.contains("a3") == NO
    assert h.contains("b2") == NO
    words = random_words(["a1", "a2", "a3", "b1", "b2", "b3"], 35, 6, seed=13)
    rep_constant_on_cosets(h, [g.normalize(w) for w in words])


def test_join_handle_membership_and_reps():
    g = grouplib.coned_amalgam()
    ax = free_factor(g.left, ["a1", "a2"])
    by = free_factor(g.right, ["b1", "b2"])
    j = JoinSubgroup(g, ax, by)
    assert j.contains("a1 a2 b2") == YES
    assert j.contains("a2 b2 a2 b2^-1") == YES
    assert j.contains("a3") == NO
    assert j.contains("a2 a3 a2") == NO
    assert j.contains("a2 b2 a3") == NO
    assert not j.is_whole()
    assert j.is_finite() is False
    words = random_words(["a1", "a2", "a3", "b1", "b2", "b3"], 40, 6, seed=17)
    rep_constant_on_cosets(j, [g.normalize(w) for w in words])


def test_join_handle_detects_whole_group():
    g = grouplib.lattice_amalgam()
    j = JoinSubgroup(g, whole(g.left), whole(g.right))
    assert j.is_whole()
    assert j.coset_rep("a1 b2 a2") == Word()


def test_join_handle_finite_closure():
    g = grouplib.modular_amalgam()
    k1 = generated(g.left, ["a a"])
    k2 = generated(g.right, ["b b b"])
    j = JoinSubgroup(g, k1, k2)
    # a^2 = b^3 generates a single Z/2 inside the amalgam
    assert j.order() == 2
    assert j.contains("a a") == YES
    assert j.contains("b b b") == YES
    assert j.contains("a") == NO


def test_monomorphism_checks():
    z2 = FiniteGroup.cyclic(2, "c", "Z2")
    z4 = FiniteGroup.cyclic(4, "a", "Z4")
    good = Monomorphism(whole(z2), generated(z4, ["a a"]), ["a a"])
    assert check_monomorphism(good)[0] == "verified"
    bad = Monomorphism(whole(z2), whole(z4), ["a"])
    status, witness = check_monomorphism(bad)
    assert status == "refuted"

    f = grouplib.free2()
    zline = grouplib.int_line()
    phi = Monomorphism(whole(zline), cyclic(f, "b"), ["b"])
    assert check_monomorphism(phi, budget=8)[0] == "verified"


def pairwise_check_reference(mono, budget):
    """The earlier ``check_monomorphism``, which pushed both factors again
    for every pair; kept as the reference for the verdict and witness."""
    dom = mono.domain
    finite = dom.is_finite()
    try:
        elems = dom.elements() if finite else dom.ball(min(budget, 6))
    except BudgetExceeded:
        return ("unknown", None)
    images = {}
    for e in elems:
        img = mono.push(e)
        if img is None:
            return ("unknown", e)
        if img in images and images[img] != e:
            return ("refuted", (images[img], e))
        images[img] = e
    count = 0
    for u in elems:
        for v in elems:
            count += 1
            if count > 2500:
                return ("verified" if finite is False else "unknown", None)
            prod = dom.ambient.multiply(u, v)
            lhs = mono.push(prod)
            rhs = mono.codomain.ambient.multiply(mono.push(u), mono.push(v))
            if lhs is None:
                return ("unknown", prod)
            if lhs != rhs:
                return ("refuted", (u, v))
    return ("verified", None)


def seeded_maps():
    """(monomorphism, budget) pairs: seeded maps of finite, cyclic and free
    domains, with homomorphisms, non-injective maps and non-maps."""
    rng = random.Random(41)
    z2 = FiniteGroup.cyclic(2, "c", "Z2")
    z4 = FiniteGroup.cyclic(4, "a", "Z4")
    s3 = grouplib.sym3()
    f = grouplib.free2()
    maps = [(Monomorphism(whole(z2), whole(z4), ["a"]),  # not a map
             DEFAULT_BUDGET)]
    for k in range(4):
        maps.append((Monomorphism(whole(z4), whole(z4), [Word.parse("a").power(k)]),
                     DEFAULT_BUDGET))
    s3_words = [s3.word_of(e) for e in s3.elements()]
    for _ in range(8):
        images = [rng.choice(s3_words) for _ in s3.generators]
        maps.append((Monomorphism(whole(s3), whole(s3), images), DEFAULT_BUDGET))
    for w in random_words(["a", "b"], 3, 4, seed=43):
        if f.normalize(w):
            maps.append((Monomorphism(whole(grouplib.int_line()),
                                      cyclic(f, w), [w]), 8))
    maps.append((Monomorphism(whole(f), whole(f), ["a", "a"]), 2))  # collides
    maps.append((Monomorphism(whole(f), whole(f), ["b a", "a^-1"]), 2))
    return maps


def test_check_monomorphism_matches_the_pairwise_reference():
    verdicts = []
    for mono, budget in seeded_maps():
        got = check_monomorphism(mono, budget)
        assert got == pairwise_check_reference(mono, budget), mono
        verdicts.append(got[0])
    assert "verified" in verdicts and "refuted" in verdicts


# -- push and preimage ---------------------------------------------------------


def declared_monomorphisms():
    """(spec name, spec, monomorphism id) for every injection the built-ins
    declare, and the lattice and shift maps of the benchmark's seeded
    normalize_check spec."""
    specs = dict(builtin_examples())
    bench = _bench_module("workloads").normalize_spec(random.Random(1))
    specs[bench["name"]] = bench
    return [pytest.param(name, spec, mid, id=f"{name}:{mid}")
            for name, spec in specs.items()
            for mid in spec.get("monomorphisms", {})]


def reduced_word(rng, letters, length):
    out = []
    while len(out) < length:
        letter = (rng.choice(letters), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out.append(letter)
    return Word(out)


@pytest.mark.parametrize("name, spec, mid", declared_monomorphisms())
def test_push_and_preimage_match_a_substitution_model(name, spec, mid):
    # the model reads a second build of the spec: its groups are fresh, so
    # no cache of the map under test feeds the expected images
    mono = validate_spec(spec).mono(mid)
    model = validate_spec(spec).mono(mid)
    dom, cod = mono.domain, model.codomain.ambient
    rng = random.Random(f"push:{name}:{mid}")
    cases = []
    if len(dom.generators) == 1:
        u, image = dom.generators[0], model.images[0]
        for k in rng.sample(range(-40, 41), 24):
            assert mono.push(u.power(k)) == cod.normalize(image.power(k)), k
            cases.append(u.power(k))
    if isinstance(dom, (WholeSubgroup, FreeFactorSubgroup)):
        # generators are letters: substitute each by its image
        subst = {}
        for g, img in zip(dom.generators, model.images):
            subst[g[0]] = img
            subst[g[0][0], -1] = img.inverse()
        letters = sorted({name for name, _ in subst})
        for _ in range(30):
            w = reduced_word(rng, letters, rng.randrange(13))
            expected = cod.normalize(Word(l for letter in w
                                          for l in subst[letter]))
            assert mono.push(w) == expected, w
            cases.append(w)
    assert cases
    for w in cases:
        c = mono.domain_group.normalize(w)
        assert mono.push(w) is mono.push(c)
        assert mono.preimage(mono.push(c)) == c, c
    mul = mono.codomain.ambient.multiply
    for u, v in (rng.sample(cases, 2) for _ in range(40)):
        assert mono.push(u * v) == mul(mono.push(u), mono.push(v)), (u, v)


def test_push_memo_is_per_element_and_leaves_answers_unchanged():
    f = grouplib.free2()
    shift = Monomorphism(cyclic(f, "a"), cyclic(f, "b"), ["b"])
    swap = Monomorphism(whole(f), whole(f), ["b", "a"])
    # a foreign letter raises as the expression does, every time, and is
    # not kept
    for mono in (shift, swap):
        for word in (Word.parse("a z"), "z^-1"):
            with pytest.raises(Exception) as direct:
                mono.domain.express(word)
            for _ in range(2):
                with pytest.raises(direct.type) as raised:
                    mono.push(word)
                assert raised.type is direct.type
                assert str(raised.value) == str(direct.value)
        assert mono._push_memo == {}
    # a non-member's None is kept as None
    assert shift.push("b") is None and shift.push("a b b^-1 a^-1 b") is None
    assert shift._push_memo == {f.normalize("b"): None}
    # every spelling of an element shares its one entry, and the element
    # is expressed once; an unreduced spelling comes first
    rng = random.Random(7)
    words = [reduced_word(rng, ["a", "b"], rng.randrange(9)) for _ in range(40)]
    spellings = []
    for w in words:
        i = rng.randrange(len(w) + 1)
        spellings += [Word(w[:i]) * Word.parse("b a a^-1 b^-1") * Word(w[i:]), w]
    expressed = []
    express = swap.domain.express

    def counted(word):
        expressed.append(word)
        return express(word)

    swap.domain.express = counted
    warm = [swap.push(w) for w in spellings]
    elements = {f.normalize(w) for w in spellings}
    assert len(swap._push_memo) == len(expressed) == len(elements)
    assert all(swap.push(w) is img for w, img in zip(spellings, warm))
    assert len(expressed) == len(elements)
    # a cold map over fresh groups answers as the warm one
    g = grouplib.free2()
    cold = Monomorphism(whole(g), whole(g), ["b", "a"])
    assert [cold.push(w) for w in reversed(spellings)] == warm[::-1]


def test_preimage_searches_the_domain_ball_for_other_maps():
    # a -> a b, b -> b is neither letter-for-letter nor on a cyclic domain,
    # so preimage searches the domain's generator ball; the oracle
    # substitutes the images letter by letter
    f = grouplib.free2()
    mono = Monomorphism(whole(f), whole(f), ["a b", "b"])
    subst = {("a", 1): [("a", 1), ("b", 1)], ("a", -1): [("b", -1), ("a", -1)],
             ("b", 1): [("b", 1)], ("b", -1): [("b", -1)]}
    for w in ball_enumerate(f, f.generator_words(), 3):
        image = f.normalize(Word(l for letter in w for l in subst[letter]))
        assert mono.push(w) == image, w
        assert mono.preimage(image) == w, w
    # the search stops at the ball of radius 6, short of a^7
    assert mono.preimage(f.normalize(Word.parse("a b").power(7))) is None


def test_free_factor_coset_rep_in_a_free_abelian_group():
    z3 = FreeAbelianGroup("Z3", ["a", "b", "c"])
    h = FreeFactorSubgroup(z3, ["a", "c"])
    reps = {}
    for e in itertools.product(range(-2, 3), repeat=3):
        w = z3.word_from_exponents(e)
        rep = h.coset_rep(Word(reversed(w)))
        assert rep == h.coset_rep(w)
        # brute force: w <a, c> is every vector with w's b exponent
        assert z3.exponents(z3.multiply(w.inverse(), rep))[1] == 0
        reps.setdefault(e[1], set()).add(rep)
    assert all(len(r) == 1 for r in reps.values())
    assert len(set().union(*reps.values())) == len(reps) == 5


def fallback_reference(ambient, gens, budget=12):
    """The handle ``generated`` built once the finite closure failed."""
    gens = [g for g in (ambient.normalize(g) for g in gens) if g]
    if len(gens) == 1:
        return cyclic(ambient, gens[0])
    names = {n for g in gens for n, _ in g}
    try:
        handle = FreeFactorSubgroup(ambient, names)
    except (ValueError, MalformedWord):
        handle = None
    if handle is not None and all(len(g) == 1 and g[0][1] == 1 for g in gens) \
            and names == {g[0][0] for g in gens}:
        return handle
    return SearchSubgroup(ambient, gens, budget)


@pytest.mark.parametrize("ambient,gens", [
    (grouplib.free2, ["a"]),
    (grouplib.free2, ["a b^-1 a"]),
    (grouplib.free2, ["a", "b"]),
    (grouplib.free2, ["a b", "b a"]),
    (grouplib.free2, ["a a", "b", "1"]),
    (lambda: FreeAbelianGroup("Z2", ["a", "b"]), ["a"]),
    (lambda: FreeAbelianGroup("Z2", ["a", "b"]), ["a a b^-1"]),
    (lambda: FreeAbelianGroup("Z2", ["a", "b"]), ["b", "a"]),
    (lambda: FreeAbelianGroup("Z2", ["a", "b"]), ["a b", "b"]),
])
def test_generated_in_torsion_free_groups_matches_the_closure_fallback(
        ambient, gens):
    amb = ambient()
    words = [Word.parse(g) for g in gens]
    nontrivial = [g for g in words if amb.normalize(g)]
    assert FiniteSubgroup.closure(amb, nontrivial, cap=512) is None
    handle = generated(amb, words)
    ref = fallback_reference(amb, words)
    assert type(handle) is type(ref)
    for w in random_words(["a", "b"], 60, 6, seed=47):
        assert handle.contains(w) == ref.contains(w), w


def test_build_amalgam_refuses_bad_injection():
    z2 = FiniteGroup.cyclic(2, "c", "Z2")
    z4 = FiniteGroup.cyclic(4, "a", "Z4")
    z6 = FiniteGroup.cyclic(6, "b", "Z6")
    bad = Monomorphism(whole(z2), whole(z4), ["a"])
    d2 = Monomorphism(whole(z2), generated(z6, ["b b b"]), ["b b b"])
    with pytest.raises(MonomorphismUnverified):
        build_amalgam("bad", z4, z6, bad, d2)


def test_build_hnn_trivial_edge_is_free_product():
    # C trivial: no pinches ever fire, t generates a free factor
    f = grouplib.free2()
    c = trivial(f)
    iso = Monomorphism(c, trivial(f), [])
    g = build_hnn("F*Z", f, c, iso, "t")
    assert g.normalize("t a t^-1") == Word.parse("t a t^-1")
    assert g.is_identity("t t^-1")
    words = random_words(["a", "b", "t"], 40, 6, seed=23)
    from graphforge.groups import FreeGroup
    f3 = FreeGroup("F3", ["a", "b", "t"])
    for w in words:
        assert g.normalize(w) == f3.normalize(w)


def edge_is_left_factor_amalgam():
    """Z2 *_{Z2} Z4 with the edge group onto the left factor: Z4 itself."""
    z2 = FiniteGroup.cyclic(2, "x", "Z2")
    z4 = FiniteGroup.cyclic(4, "a", "Z4")
    c = FiniteGroup.cyclic(2, "c", "C")
    d1 = Monomorphism(whole(c), whole(z2), ["x"])
    d2 = Monomorphism(whole(c), generated(z4, ["a a"]), ["a a"])
    return build_amalgam("Z2*Z4", z2, z4, d1, d2)


def trivial_edge_amalgam():
    z4 = FiniteGroup.cyclic(4, "a", "Z4")
    z6 = FiniteGroup.cyclic(6, "b", "Z6")
    ztriv = FiniteGroup.cyclic(1, "e", "Triv")
    d1 = Monomorphism(whole(ztriv), trivial(z4), [Word()])
    d2 = Monomorphism(whole(ztriv), trivial(z6), [Word()])
    return build_amalgam("Z4*Z6", z4, z6, d1, d2)


def free_product_of_cyclics(*orders):
    return FreeProductGroup("*".join(map(str, orders)), [
        FiniteGroup.cyclic(n, g, f"Z{n}") for n, g in zip(orders, "abc")])


def test_amalgam_trivial_edge_is_free_product():
    g = trivial_edge_amalgam()
    fp = free_product_of_cyclics(4, 6)
    for w in random_words(["a", "b"], 40, 7, seed=29):
        assert tuple(g.normalize(w)) == tuple(fp.normalize(w))


@pytest.mark.parametrize("make, finite, order", [
    (edge_is_left_factor_amalgam, True, 4),
    (trivial_edge_amalgam, False, math.inf),
    (grouplib.modular_amalgam, False, math.inf),
    (lambda: free_product_of_cyclics(4, 1), True, 4),
    (lambda: free_product_of_cyclics(4, 6), False, math.inf),
])
def test_finiteness_of_splittings_matches_ball_growth(make, finite, order):
    # oracle: the generator balls of a finite group stop growing at its
    # order (both finite groups here are Z4); those of an infinite group
    # grow at every radius
    g = make()
    sizes = [len(ball_enumerate(g, g.generator_words(), r)) for r in range(7)]
    assert g.is_finite() is finite
    assert g.order() == order
    if finite:
        assert sizes[-1] == sizes[-2] == 4
    else:
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def z2_star_z3():
    return FreeProductGroup("Z2*Z3", [FiniteGroup.cyclic(2, "a", "Z2"),
                                      FiniteGroup.cyclic(3, "b", "Z3")])


def image_of_z4_in_z8():
    z4, z8 = FiniteGroup.cyclic(4, "c", "Z4"), FiniteGroup.cyclic(8, "d", "Z8")
    return ImageSubgroup(Monomorphism(whole(z4), generated(z8, ["d d"]),
                                      ["d d"]))


def z4_in_modular_amalgam():
    g = grouplib.modular_amalgam()
    return RestrictedSubgroup(g, whole(g.left), "L")


def edge_handle_in_hnn():
    g = grouplib.shift_hnn()
    return RestrictedSubgroup(g, g.edge_handle, "base")


def finite_join():
    g = grouplib.modular_amalgam()
    return JoinSubgroup(g, generated(g.left, ["a a"]),
                        generated(g.right, ["b b b"]))


def infinite_join():
    g = grouplib.coned_amalgam()
    return JoinSubgroup(g, free_factor(g.left, ["a1", "a2"]),
                        free_factor(g.right, ["b1", "b2"]))


@pytest.mark.parametrize("make, order", [
    (lambda: free_factor(z2_star_z3(), ["a"]), 2),
    (lambda: free_factor(z2_star_z3(), ["a", "b"]), math.inf),
    (lambda: free_factor(grouplib.free2(), []), 1),
    (image_of_z4_in_z8, 4),
    (lambda: ImageSubgroup(grouplib.shift_hnn().iso), math.inf),
    (finite_join, 2),
    (infinite_join, math.inf),
    (z4_in_modular_amalgam, 4),
    (lambda: ConjugateSubgroup(z4_in_modular_amalgam(), "b"), 4),
    (edge_handle_in_hnn, math.inf),
    (lambda: ConjugateSubgroup(cyclic(grouplib.free2(), "b"), "a"), math.inf),
    (lambda: whole(grouplib.free2()), math.inf),
    (lambda: whole(free_product_of_cyclics(4, 1)), 4),
    (grouplib.shift_hnn, math.inf),
    (grouplib.modular_amalgam, math.inf),
    (edge_is_left_factor_amalgam, 4),
], ids=["free-factor-Z2-of-Z2*Z3", "free-factor-Z2*Z3", "free-factor-none",
        "image-of-Z4", "image-of-Z", "finite-join", "infinite-join",
        "restricted-Z4", "conjugate-Z4", "restricted-in-hnn",
        "conjugate-cyclic", "whole-F2", "whole-Z4*1", "hnn",
        "proper-amalgam", "amalgam-onto-Z4"])
def test_size_answers_match_enumeration(make, order):
    # oracle: a group of order n lists n distinct elements, and its
    # generator balls stop growing at n (every finite case here by radius
    # 5); those of an infinite group grow at every radius
    x = make()
    handle = x if isinstance(x, Subgroup) else whole(x)
    sizes = [len(ball_enumerate(handle.ambient, handle.generators, r))
             for r in range(7)]
    assert x.order() == order
    assert x.is_finite() is (order != math.inf)
    if order == math.inf:
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        with pytest.raises(BudgetExceeded):
            handle.elements()
    else:
        assert sizes[-1] == sizes[-2] == order
        elems = handle.elements()
        assert len(set(elems)) == len(elems) == order
        assert all(handle.contains(e) == YES for e in elems)
    assert handle.is_trivial() is (order == 1)


def z_star_free(n):
    return FreeProductGroup(f"Z{n}*Z", [FiniteGroup.cyclic(n, "a", f"Z{n}"),
                                        FreeGroup("Zf", ["x"])])


@pytest.mark.parametrize("n, make, order", [
    (200, lambda g: cyclic(g, "a"), 200),
    (600, lambda g: generated(g, ["a"]), 600),
    (600, lambda g: cyclic(g, "x a x^-1"), 600),
    (600, lambda g: cyclic(g, "x a^-1 x^-1 a^300 x a x^-1"), 2),
    (600, lambda g: cyclic(g, "x a"), math.inf),
    (600, lambda g: cyclic(g, "x^2 a x^-1"), math.inf),
], ids=["cyclic-Z200", "generated-Z600", "conjugate-Z600", "conjugate-Z2",
        "syllables-x-a", "syllables-x-a-reduced"])
def test_cyclic_order_in_free_product_is_exact(n, make, order):
    # oracle: the least k <= n with u^k = 1, by repeated multiplication
    # (an element of finite order here divides n); the handle closes to
    # that many elements (600 is past the 512 a plain closure tries)
    check_cyclic_order(z_star_free(n), make, n, order)


def check_cyclic_order(g, make, n, order):
    h = make(g)
    (u,) = h.generators
    acc, first = g.identity(), math.inf
    for k in range(1, n + 1):
        acc = g.multiply(acc, u)
        if not acc:
            first = k
            break
    assert first == order
    assert h.order() == order
    assert isinstance(h, CyclicSubgroup if order == math.inf
                      else FiniteSubgroup)
    if order != math.inf:
        assert len(set(h.elements())) == order


def z200_amalgam_z2():
    """Z200 *_1 Z2, an amalgam over the trivial group."""
    z200 = FiniteGroup.cyclic(200, "a", "Z200")
    z2 = FiniteGroup.cyclic(2, "b", "Z2")
    one = FiniteGroup.cyclic(1, "e", "Triv")
    return build_amalgam("Z200*Z2", z200, z2,
                         Monomorphism(whole(one), trivial(z200), [Word()]),
                         Monomorphism(whole(one), trivial(z2), [Word()]))


@pytest.mark.parametrize("make, order", [
    (lambda g: cyclic(g, "a"), 200),
    (lambda g: generated(g, ["a"]), 200),
    (lambda g: cyclic(g, "b a^100 b"), 2),
    (lambda g: cyclic(g, "a b"), math.inf),
], ids=["cyclic", "generated", "conjugate-Z2", "infinite"])
def test_cyclic_order_in_amalgam_closes_like_generated(make, order):
    # the same oracle: cyclic() and generated() close one generator alike,
    # up to 512 elements, so an element of order 200 is not infinite
    check_cyclic_order(z200_amalgam_z2(), make, 600, order)


def declared_cyclic_handles():
    for spec in builtin_examples().values():
        env = validate_spec(spec)
        yield from (h for h in env.memo.values()
                    if isinstance(h, CyclicSubgroup))


def test_cyclic_ball_is_the_powers_of_its_generator():
    f2, zz = grouplib.free2(), FreeAbelianGroup("ZZ", ["x", "y"])
    z4_star_z = FreeProductGroup("Z4*Z", [FiniteGroup.cyclic(4, "a", "Z4"),
                                          FreeGroup("Zf", ["t"])])
    handles = [*declared_cyclic_handles(), cyclic(f2, "a b^-1"),
               cyclic(f2, "b"), cyclic(zz, "x y^-1"), cyclic(zz, "y y"),
               cyclic(z4_star_z, "a t"), cyclic(z4_star_z, "t")]
    assert len(handles) > 6
    for h in handles:
        assert isinstance(h, CyclicSubgroup)
        amb, (u,) = h.ambient, h.generators
        for r in range(7):
            powers = {amb.normalize(u.power(k)) for k in range(-r, r + 1)}
            assert h.ball(r) == sorted(powers, key=amb.word_key), (h, r)


def test_conjugate_handle():
    f = grouplib.free2()
    h = ConjugateSubgroup(cyclic(f, "b"), "a")
    assert h.contains("a b a^-1") == YES
    assert h.contains("b") == NO
    rep_constant_on_cosets(h, random_words(["a", "b"], 20, 5, seed=31))


def test_conjugate_of_handle_without_exact_reps():
    from graphforge.gsets import GSet, Orbit
    f = grouplib.free2()
    h = generated(f, ["a b", "b a"])
    assert not h.rep_exact
    c = ConjugateSubgroup(h, "a")
    assert not c.rep_exact
    g = "a a b a^-1"
    assert c.contains(g) == YES
    # the reps differ, so equality must go through membership
    assert c.coset_rep("1") != c.coset_rep(g)
    gs = GSet(f, [Orbit("c", c)])
    assert gs.elem_equal(gs.elem("c", "1"), gs.elem("c", g))


def test_search_handle_finiteness_is_decided_only_without_torsion():
    f, z2 = grouplib.free2(), FreeAbelianGroup("Z2", ["x", "y"])
    for ambient, gens in ((f, ["a b", "b a"]), (z2, ["x y", "x y^-1"])):
        assert SearchSubgroup(ambient, gens).is_finite() is False
        assert SearchSubgroup(ambient, ["1"]).is_finite() is True
    d = grouplib.dihedral_product()
    assert SearchSubgroup(d, ["p q", "q p"]).is_finite() is None


def test_unknown_from_budgeted_search():
    f = grouplib.free2()
    h = generated(f, ["a a", "b b"], budget=3)
    assert h.strategy == "BudgetedSearch"
    assert h.contains("a a") == YES
    assert h.contains("a") == UNKNOWN


def _pairwise_same(classes):
    """Every ordered pair of handles from ``classes`` (a list of handle
    lists, one per subgroup): ``same_subgroup`` holds exactly within a
    class.  Returns the number of comparisons."""
    labelled = [(k, h) for k, hs in enumerate(classes) for h in hs]
    for k1, h1 in labelled:
        for k2, h2 in labelled:
            assert same_subgroup(h1, h2) == (k1 == k2), (h1, h2)
    return len(labelled) ** 2


def test_same_subgroup_matches_element_sets_in_sym3():
    s3 = grouplib.sym3()
    classes = []
    for elems in grouplib.all_subgroups(s3):
        words = {e: s3.word_of(e) for e in sorted(elems)}
        handles = [generated(s3, [words[e] for e in gens])
                   for size in (1, 2)
                   for gens in itertools.combinations(words, size)
                   if s3.subgroup_closure(set(gens)) == elems]
        handles.append(generated(s3, list(words.values())))
        if len(elems) == s3.order():
            handles.append(whole(s3))
        if len(elems) == 1:
            handles.append(trivial(s3))
        classes.append(handles)
    assert _pairwise_same(classes) == 29 ** 2


def test_same_subgroup_in_free_group():
    f = grouplib.free2()
    assert _pairwise_same([
        [cyclic(f, "a"), generated(f, ["a"]), free_factor(f, ["a"]),
         cyclic(f, "a^-1")],
        [cyclic(f, "a a")],
        [cyclic(f, "b")],
        [whole(f), generated(f, ["a", "b"])],
    ]) == 64
