"""Canonical-form tests, checked against independent models where one exists:

* Z/4 * Z/6 over Z/2 embeds in SL(2,Z) via a -> S, b -> U (S^2 = U^3 = -I),
  and the embedding is an isomorphism, so matrix equality is an equality
  oracle for the amalgam scheme.
* <F(a,b), t | t a t^-1 = b> is isomorphic to F(b,t) via a -> t^-1 b t,
  giving a free-reduction oracle for the Britton scheme.
* ``example-hnn-point``'s <F(a,b), t | t a t^-1 = a, t b t^-1 = b> is
  F(a,b) x Z, giving an exponent-plus-free-word oracle.
* Z^2 *_Z Z^2 over maximal cyclic subgroups is Z x F(a2,b2) (the identified
  generator is central), giving an exponent-plus-free-word oracle.
"""

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from graphforge.errors import MalformedWord
from graphforge.examples import builtin_examples
from graphforge.groups import (
    AmalgamGroup,
    FreeGroup,
    ball_enumerate,
    conjugacy_probe,
)
from graphforge.pipeline import validate_spec
from graphforge.subgroups import generated
from graphforge.words import NormalForm, Word, free_reduce

import grouplib


# -- oracles -------------------------------------------------------------


def mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


SL2_IMAGES = {
    "a": ((0, -1), (1, 0)),       # order 4
    "b": ((0, -1), (1, 1)),       # order 6
}
SL2_ID = ((1, 0), (0, 1))


def sl2_of(word):
    m = SL2_ID
    for name, sign in Word.coerce(word):
        g = SL2_IMAGES[name]
        if sign < 0:
            # inverse of an SL2 matrix ((a,b),(c,d)) is ((d,-b),(-c,a))
            (a, b), (c, d) = g
            g = ((d, -b), (-c, a))
        m = mat_mul(m, g)
    return m


def retract_to_free(word):
    """a -> t^-1 b t in <F(a,b),t | tat^-1 = b>, an isomorphism onto F(b,t)."""
    out = []
    for name, sign in Word.coerce(word):
        if name == "a":
            out.extend(Word.parse("t^-1 b t").power(sign))
        else:
            out.append((name, sign))
    return free_reduce(Word(out))


def central_split(word):
    """Z^2 *_Z Z^2 over <a1>=<b1> is Z x F(a2, b2)."""
    k = 0
    rest = []
    for name, sign in Word.coerce(word):
        if name in ("a1", "b1", "c"):
            k += sign
        else:
            rest.append((name, sign))
    return k, free_reduce(Word(rest))


def hnn_point():
    """``example-hnn-point``'s group: F(a, b) with t commuting with all."""
    return validate_spec(builtin_examples()["example-hnn-point"]).group("H")


def split_central_t(word):
    """F(a, b) x <t>: the exponent sum of t and the reduced rest."""
    rest = Word(l for l in Word.coerce(word) if l[0] != "t")
    return sum(s for n, s in Word.coerce(word) if n == "t"), free_reduce(rest)


HNN_GROUPS = [
    ("shift", grouplib.shift_hnn, ["a", "b", "t"], retract_to_free),
    ("point", hnn_point, ["a", "b", "t"], split_central_t),
]


def random_words(alphabet, count, max_len, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(0, max_len + 1)
        out.append(Word(
            (rng.choice(alphabet), rng.choice((1, -1))) for _ in range(n)
        ))
    return out


# -- basic schemes ---------------------------------------------------------


def test_free_reduction():
    f = grouplib.free2()
    assert f.normalize("a b b^-1") == Word.parse("a")
    assert f.normalize("a a^-1") == Word()
    assert f.is_identity("a b b^-1 a^-1")


def test_free_abelian_sorting():
    z2 = grouplib.lattice_amalgam().left
    assert z2.normalize("a2 a1") == Word.parse("a1 a2")
    assert z2.normalize("a2 a1 a2^-1") == Word.parse("a1")


def test_finite_table_words():
    s3 = grouplib.sym3()
    assert s3.normalize("x x") == Word()
    assert s3.normalize("y y y") == Word()
    # (1 2)(1 2 3) composing right-to-left fixes the first point
    e = s3.element_of("x y")
    assert s3.permutations[e] == (0, 2, 1)
    e2 = s3.element_of("y x")
    assert s3.permutations[e2] == (2, 1, 0)
    assert s3.order() == 6


def test_free_product_syllables():
    d = grouplib.dihedral_product()
    assert d.normalize("p p") == Word()
    assert d.normalize("p q p q") == Word.parse("p q p q")
    assert d.normalize("p q q p") == Word()
    assert d.is_finite() is False


def test_malformed_word_rejected():
    f = grouplib.free2()
    with pytest.raises(MalformedWord):
        f.normalize("a z")


# -- HNN relation and Britton oracle ----------------------------------------


def test_hnn_defining_relation():
    g = grouplib.shift_hnn()
    assert g.normalize("t a t^-1") == Word.parse("b")
    assert g.normalize("t^-1 b t") == Word.parse("a")
    assert g.is_identity("t a t^-1 b^-1")


def test_hnn_matches_free_retraction():
    g = grouplib.shift_hnn()
    words = random_words(["a", "b", "t"], 250, 8, seed=7)
    for u, v in zip(words, words[1:]):
        same = g.normalize(u) == g.normalize(v)
        oracle = retract_to_free(u) == retract_to_free(v)
        assert same == oracle, (u, v)
    for u in words:
        assert g.is_identity(u) == (len(retract_to_free(u)) == 0)
        assert retract_to_free(g.normalize(u)) == retract_to_free(u)


# -- amalgam schemes ----------------------------------------------------------


def test_modular_amalgam_identification():
    g = grouplib.modular_amalgam()
    assert g.normalize("a a b^-3") == Word()
    # a^2 b = b^4 since a^2 = b^3
    assert g.normalize("a a b") == g.normalize("b b b b")


def test_modular_amalgam_rewriting_closure_oracle():
    # BFS closure of relator applications on short words: a^4, b^6, a^2 b^-3.
    g = grouplib.modular_amalgam()
    moves = [
        (Word.parse("a a a a"), Word()),
        (Word.parse("b b b b b b"), Word()),
        (Word.parse("a a"), Word.parse("b b b")),
    ]

    def oracle_class(start, max_len=8, cap=30000):
        seen = {free_reduce(start)}
        frontier = [free_reduce(start)]
        while frontier and len(seen) < cap:
            w = frontier.pop()
            rewrites = []
            for lhs, rhs in moves:
                for a, b in ((lhs, rhs), (rhs, lhs)):
                    for i in range(len(w) - len(a) + 1):
                        if Word(w[i:i + len(a)]) == a:
                            rewrites.append(free_reduce(Word(w[:i]) * b * Word(w[i + len(a):])))
                # also insert relator at the end to allow growth
            for i in range(len(w) + 1):
                for lhs, rhs in moves:
                    ins = free_reduce(Word(w[:i]) * lhs * rhs.inverse() * Word(w[i:]))
                    if len(ins) <= max_len:
                        rewrites.append(ins)
            for r in rewrites:
                if len(r) <= max_len and r not in seen:
                    seen.add(r)
                    frontier.append(r)
        return seen

    cls = oracle_class(Word.parse("a a b"))
    assert g.normalize("b b b b") in {g.normalize(w) for w in cls if len(w) <= 6}
    assert Word.parse("b b b b") in cls


def test_modular_amalgam_sl2_oracle():
    g = grouplib.modular_amalgam()
    words = random_words(["a", "b"], 300, 8, seed=11)
    for u, v in zip(words, words[1:]):
        same = g.normalize(u) == g.normalize(v)
        assert same == (sl2_of(u) == sl2_of(v)), (u, v)
    for u in words:
        assert g.is_identity(u) == (sl2_of(u) == SL2_ID)


def test_lattice_amalgam_central_oracle():
    g = grouplib.lattice_amalgam()
    words = random_words(["a1", "a2", "b1", "b2"], 250, 8, seed=3)
    for u, v in zip(words, words[1:]):
        same = g.normalize(u) == g.normalize(v)
        assert same == (central_split(u) == central_split(v)), (u, v)
    assert g.normalize("a1") == g.normalize("b1")


def test_coned_amalgam_sanity():
    g = grouplib.coned_amalgam()
    assert g.normalize("a1") == g.normalize("b1")
    assert g.is_identity("a1 b1^-1")
    assert g.normalize("a1 a2 a1^-1 a2^-1") == Word()
    assert g.normalize("a3 b3 a3^-1") != Word()
    assert not g.is_identity("a2 b2 a2^-1 b2^-1")


# -- normalize laws (property tests) ---------------------------------------


LAW_GROUPS = [
    ("free", grouplib.free2, ["a", "b"]),
    ("abelian", grouplib.int_line, ["a"]),
    ("table", grouplib.sym3, ["x", "y"]),
    ("product", grouplib.dihedral_product, ["p", "q"]),
    ("amalgam", grouplib.modular_amalgam, ["a", "b"]),
    ("hnn", grouplib.shift_hnn, ["a", "b", "t"]),
]


@pytest.mark.parametrize("tag,factory,alphabet", LAW_GROUPS)
def test_normalize_laws(tag, factory, alphabet):
    g = factory()
    # a stable seed: str hashes are randomized per process
    words = random_words(alphabet, 60, 7, seed=zlib.crc32(tag.encode()) % 1000)
    for w in words:
        nf = g.normalize(w)
        assert g.normalize(nf) == nf                      # idempotent
        assert g.is_identity(w * w.inverse())             # inverse law
    for u, v in zip(words, words[1:]):
        lhs = g.normalize(u * v)
        rhs = g.normalize(g.normalize(u) * g.normalize(v))
        assert lhs == rhs                                  # multiplicative


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])),
                max_size=8))
def test_modular_normalize_matches_oracle_hypothesis(letters):
    g = grouplib.modular_amalgam()
    w = Word(letters)
    assert g.is_identity(w) == (sl2_of(w) == SL2_ID)


# -- free-group products (oracle: free reduction of the concatenation) ------


FREE_GROUPS = [
    ("F2", grouplib.free2, ["a", "b"]),
    ("F3", lambda: FreeGroup("F3", ["a", "b", "c"]), ["a", "b", "c"]),
]


def seeded_factor(rng, alphabet):
    """A reduced or unreduced Word, its string, its plain tuple, or the
    empty word."""
    w = Word((rng.choice(alphabet), rng.choice((1, -1)))
             for _ in range(rng.randrange(0, 7)))
    return rng.choice([free_reduce(w), w, str(w), tuple(w), Word()])


@pytest.mark.parametrize("tag,factory,alphabet", FREE_GROUPS)
def test_free_multiply_is_the_reduced_concatenation(tag, factory, alphabet):
    g = factory()
    rng = random.Random(10 + len(alphabet))
    cases = [[seeded_factor(rng, alphabet) for _ in range(rng.randint(1, 4))]
             for _ in range(400)]
    for w in random_words(alphabet, 30, 8, seed=len(alphabet)):
        cases.append([w, w.inverse()])                      # cancels fully
        cases.append([str(w), tuple(w.inverse()), free_reduce(w)])
        cases.append([free_reduce(w), Word(), free_reduce(w).inverse()])
    for ws in cases:
        concat = Word(l for w in ws for l in Word.coerce(w))
        nf = g.multiply(*ws)
        assert nf == free_reduce(concat), ws
        assert isinstance(nf, NormalForm)
        assert g.normalize(nf) is nf


@pytest.mark.parametrize("tag,factory,alphabet", FREE_GROUPS + [
    (tag, factory, alphabet) for tag, factory, alphabet, _ in HNN_GROUPS])
def test_free_multiply_rejects_a_foreign_letter_in_any_factor(
        tag, factory, alphabet):
    g = factory()
    rng = random.Random(20 + len(alphabet))
    for _ in range(200):
        ws = [seeded_factor(rng, alphabet) for _ in range(rng.randint(1, 4))]
        # one or two factors get a foreign letter; the first one is named
        for i in rng.sample(range(len(ws)), min(len(ws), rng.randint(1, 2))):
            letters = list(Word.coerce(ws[i]))
            letters.insert(rng.randrange(len(letters) + 1),
                           (rng.choice(["x", "y"]), rng.choice((1, -1))))
            # a NormalForm is not trusted: it may be another group's
            ws[i] = rng.choice([Word(letters), str(Word(letters)),
                                tuple(letters), NormalForm(letters)])
        concat = Word(l for w in ws for l in Word.coerce(w))
        first = next(name for name, _ in concat if name not in alphabet)
        with pytest.raises(MalformedWord) as exc:
            g.multiply(*ws)
        assert str(exc.value) == \
            f"letter {first!r} is not a generator of {g.name}"


# -- HNN products (oracles: the group's model and a fresh group's split form) --


@pytest.mark.parametrize("tag,factory,alphabet,oracle", HNN_GROUPS)
def test_hnn_multiply_is_the_normal_form_of_the_concatenation(
        tag, factory, alphabet, oracle):
    g, ref = factory(), factory()
    rng = random.Random(zlib.crc32(tag.encode()))
    cases = [[seeded_factor(rng, alphabet) for _ in range(rng.randint(1, 4))]
             for _ in range(300)]
    for w in random_words(alphabet, 30, 8, seed=5):
        cases.append([w, w.inverse()])                      # cancels fully
        cases.append([g.normalize(w), str(w.inverse()), tuple(w)])
    for ws in cases:
        concat = Word(l for w in ws for l in Word.coerce(w))
        nf = g.multiply(*ws)
        assert isinstance(nf, NormalForm)
        assert g.normalize(nf) is nf
        assert g.split_form(nf) == ref.split_form(concat)
        assert oracle(nf) == oracle(concat)
    assert all(g.normalize(key) is key for key in list(g._split_cache))


# -- split forms (pinned and Britton forms: reduced, one per element) --------


def amalgam2():
    """``example-amalgam-2``'s group: (Z^2 * Z) *_Z (Z^2 * Z)."""
    return validate_spec(builtin_examples()["example-amalgam-2"]).group("G")


SPLIT_GROUPS = [
    ("modular", grouplib.modular_amalgam, ["a", "b"]),
    ("lattice", grouplib.lattice_amalgam, ["a1", "a2", "b1", "b2"]),
    ("coned", grouplib.coned_amalgam, ["a1", "a2", "a3", "b1", "b2", "b3"]),
    ("amalgam-2", amalgam2, ["a1", "a2", "a3", "b1", "b2", "b3"]),
    ("shift", grouplib.shift_hnn, ["a", "b", "t"]),
    ("point", hnn_point, ["a", "b", "t"]),
]


def check_pinned_form(g, form):
    """Sides alternate; each rep is nonidentity and its own coset rep."""
    pinned, tail = form
    sides = [side for side, _ in pinned]
    assert all(a != b for a, b in zip(sides, sides[1:])), pinned
    for side, rep in pinned:
        assert rep and g.edge_embedding(side).codomain.coset_rep(rep) == rep
    assert g.edge_group.normalize(tail) == tail


def check_britton_form(g, form):
    """Each tau is its handle's coset rep, and no trivial tau follows an
    opposite crossing: no ``t^e c t^-e`` pinch is left."""
    pinned, tail = form
    for i, (tau, eps) in enumerate(pinned):
        handle = g.image_handle if eps > 0 else g.edge_handle
        assert handle.coset_rep(tau) == tau, pinned
        assert tau or i == 0 or pinned[i - 1][1] != -eps, pinned
    assert g.base.normalize(tail) == tail


@pytest.mark.parametrize("tag,factory,alphabet", SPLIT_GROUPS)
def test_split_forms_are_reduced_and_kept_once_per_element(tag, factory,
                                                           alphabet):
    g = factory()
    check = check_pinned_form if isinstance(g, AmalgamGroup) \
        else check_britton_form
    seed = zlib.crc32(tag.encode()) % 1000
    for w in random_words(alphabet, 200, 12, seed):
        form = g.split_form(w)
        check(g, form)
        assert g.split_form(g.normalize(w)) is form
        assert g.split_form(str(w)) is form
    # each split form is kept under its element's one normal-form object
    assert all(g.normalize(key) is key for key in list(g._split_cache))


@pytest.mark.parametrize("tag,factory,alphabet", SPLIT_GROUPS + LAW_GROUPS)
def test_each_element_is_one_normal_form_object(tag, factory, alphabet):
    g = factory()
    rng = random.Random(zlib.crc32(tag.encode()))
    words = random_words(alphabet, 150, 8, rng.randrange(1000))
    for w in words:
        g.normalize(w)
        g.normalize(str(free_reduce(w)))
        g.multiply(w, rng.choice(words), str(rng.choice(words)))
    interned = {}
    for nf in g._nf_cache.values():
        assert interned.setdefault(nf, nf) is nf, nf
        assert g._nf_cache[nf] is nf


@pytest.mark.parametrize("tag,factory,alphabet", SPLIT_GROUPS + LAW_GROUPS)
def test_identity_is_the_interned_empty_form(tag, factory, alphabet):
    g = factory()
    one = g.identity()
    assert one is g.identity()
    assert one is g.normalize("1")
    letter = alphabet[0]
    assert g.multiply(letter, f"{letter}^-1") is one


# -- products of normal forms (oracles: rebracketing and each group's model) --


S3_IMAGES = {"x": (1, 0, 2), "y": (1, 2, 0)}


def perm_of(word):
    """S3 as permutations of {0, 1, 2}, composed left to right."""
    m = (0, 1, 2)
    for name, sign in Word.coerce(word):
        p = S3_IMAGES[name]
        if sign < 0:
            p = tuple(p.index(i) for i in range(3))
        m = tuple(m[p[i]] for i in range(3))
    return m


def dihedral_reduce(word):
    """Z/2 * Z/2: cancel adjacent equal letters, whatever their signs."""
    out = []
    for name, _ in Word.coerce(word):
        if out and out[-1] == name:
            out.pop()
        else:
            out.append(name)
    return tuple(out)


def coned_to_lattice(word):
    """Killing the free letters a3 and b3 maps the coned amalgam onto
    Z^2 *_Z Z^2, read through ``central_split``."""
    return central_split(Word(l for l in Word.coerce(word)
                              if l[0] not in ("a3", "b3")))


PRODUCT_GROUPS = LAW_GROUPS + [
    ("F3", lambda: FreeGroup("F3", ["a", "b", "c"]), ["a", "b", "c"]),
    ("lattice", grouplib.lattice_amalgam, ["a1", "a2", "b1", "b2"]),
    ("coned", grouplib.coned_amalgam,
     ["a1", "a2", "a3", "b1", "b2", "b3"]),
    ("point", hnn_point, ["a", "b", "t"]),
]

PRODUCT_ORACLES = {
    "free": free_reduce,
    "abelian": lambda w: sum(sign for _, sign in Word.coerce(w)),
    "table": perm_of,
    "product": dihedral_reduce,
    "amalgam": sl2_of,
    "hnn": retract_to_free,
    "F3": free_reduce,
    "lattice": central_split,
    "coned": coned_to_lattice,
    "point": split_central_t,
}


@pytest.mark.parametrize("tag,factory,alphabet", PRODUCT_GROUPS)
def test_product_of_normal_forms_is_multiply(tag, factory, alphabet):
    g, oracle = factory(), PRODUCT_ORACLES[tag]
    seed = zlib.crc32(tag.encode())
    nfs = [g.normalize(w) for w in random_words(alphabet, 60, 8, seed % 1000)]
    rng = random.Random(seed)
    cases = [[rng.choice(nfs) for _ in range(rng.randint(0, 4))]
             for _ in range(300)]
    for nf in nfs:
        inv = g.inverse(nf)
        cases += [[nf, inv], [inv, nf, nf], [nf, g.identity(), inv, nf]]
    for factors in cases:
        got = g._product(factors)
        for k in range(len(factors) + 1):
            halves = [g._product(factors[:k]), g._product(factors[k:])]
            assert g._product(halves) == got, (factors, k)
        concat = Word(l for nf in factors for l in nf)
        assert oracle(got) == oracle(concat), factors
        assert isinstance(got, NormalForm)
        assert g.normalize(got) == got


# -- seam products (oracle: a fresh group's normal form of the concatenation)


SEAM_GROUPS = [case for case in PRODUCT_GROUPS
               if case[0] in ("amalgam", "hnn", "lattice", "coned", "point")]


@pytest.mark.parametrize("tag,factory,alphabet", SEAM_GROUPS)
def test_seam_product_resumes_the_fold_exactly(tag, factory, alphabet):
    g, ref = factory(), factory()
    assert g._product(()) is g.identity()        # no factor, on a cold cache
    seed = zlib.crc32(tag.encode())
    nfs = [g.normalize(w) for w in random_words(alphabet, 60, 8, seed % 1000)]
    assert all(g._product((nf,)) is nf for nf in nfs)
    rng = random.Random(seed)
    cases = [[rng.choice(nfs) for _ in range(rng.randint(2, 3))]
             for _ in range(300)]
    cold = reopened = 0
    for factors in cases:
        concat = Word(l for nf in factors for l in nf)
        miss = concat not in g._nf_cache
        cold += miss
        # the head's last pinned syllable is on the side the rest enters
        pinned, rest = g.split_form(factors[0])[0], concat[len(factors[0]):]
        if miss and isinstance(g, AmalgamGroup) and pinned and rest:
            reopened += pinned[-1][0] == g.side_of(rest[0][0])
        got, want = g._product(factors), ref.normalize(concat)
        assert got == want, factors
        assert g.normalize(concat) is got and g.normalize(got) is got
        # factor_split, coset reps and chain factorizations read this form
        assert g.split_form(got) == ref.split_form(want), factors
        for side in g.sides:
            assert g.factor_split(got, side) == ref.factor_split(want, side)
    assert cold > 100
    assert reopened > 10 or not isinstance(g, AmalgamGroup)


def reference_ball(group, gens, radius):
    """Breadth-first search by ``multiply`` with the generator words and
    their inverses."""
    steps = [w for g in gens for w in (g, g.inverse())]
    seen = frontier = {group.identity()}
    for _ in range(radius):
        frontier = {group.multiply(e, s) for e in frontier for s in steps}
        frontier -= seen
        seen = seen | frontier
    return sorted(seen, key=group.word_key)


@pytest.mark.parametrize("tag,factory,alphabet", PRODUCT_GROUPS)
def test_ball_enumerate_matches_a_multiply_search(tag, factory, alphabet):
    gens = [Word.parse(name) for name in alphabet]
    if tag == "lattice":   # b1 is a1; a step may repeat or be unreduced
        gens += [Word.parse("a1^-1"), Word.parse("b2 b1 b2^-1")]
    assert ball_enumerate(factory(), gens, 3) == \
        reference_ball(factory(), gens, 3)


# -- balls -------------------------------------------------------------------


def test_ball_counts():
    z = grouplib.int_line()
    assert len(ball_enumerate(z, [Word.parse("a")], 2)) == 5

    f = grouplib.free2()
    assert len(ball_enumerate(f, f.generator_words(), 2)) == 17

    s3 = grouplib.sym3()
    assert len(ball_enumerate(s3, s3.generator_words(), 3)) == 6


def test_ball_monotone_and_symmetric():
    g = grouplib.modular_amalgam()
    b2 = ball_enumerate(g, g.generator_words(), 2)
    b3 = ball_enumerate(g, g.generator_words(), 3)
    assert set(b2) <= set(b3)
    assert g.identity() in b2
    assert all(g.inverse(w) in b2 for w in b2)


def test_ball_matches_matrix_count():
    g = grouplib.modular_amalgam()
    words = [Word()]
    mats = {SL2_ID}
    for _ in range(4):
        new = []
        for w in words:
            for s in ("a", "a^-1", "b", "b^-1"):
                new.append(w * Word.parse(s))
        words = words + new
        # distinct matrices reachable within this radius
    for w in words:
        mats.add(sl2_of(w))
    ball = ball_enumerate(g, g.generator_words(), 5)
    # every ball element distinct by matrix
    assert len({sl2_of(w) for w in ball}) == len(ball)


# -- conjugacy probe -----------------------------------------------------------


def test_conjugacy_probe_sym3():
    s3 = grouplib.sym3()
    h = generated(s3, ["x"])  # <(1 2)>
    verdict, witness = conjugacy_probe(s3, [Word.parse("y y x")], h, 3)
    # y^2 x is a transposition, hence conjugate into <x>
    assert verdict == "yes"
    assert h.contains(s3.multiply(witness, "y y x", witness.inverse())) == "yes"


def test_conjugacy_probe_identity_witness():
    s3 = grouplib.sym3()
    h = generated(s3, ["x"])
    verdict, witness = conjugacy_probe(s3, [Word.parse("x")], h, 2)
    assert verdict == "yes" and witness == Word()


def test_conjugacy_probe_negative():
    f = grouplib.free2()
    h = generated(f, ["b"])
    verdict, bound = conjugacy_probe(f, [Word.parse("a")], h, 4)
    assert verdict == "no-within-budget" and bound == 4
