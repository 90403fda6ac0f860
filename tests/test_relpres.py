"""Relative presentations: the two rewriting constructions and the
isoperimetric table.

The commutator presentation of Z^2 relative to one axis is the running
example; its fill numbers were derived by hand (cyclic-word syllable
comparison shows [a, b^2] needs two relators)."""

import itertools
import random
import re
import tracemalloc

import pytest

from graphforge.errors import KLNotDistinct, MalformedWord
from graphforge.groups import FreeAbelianGroup
from graphforge.relpres import (
    FPWord,
    HToken,
    RelPresentation,
    SToken,
    absorb,
    amalgam_presentation,
    dehn_bruteforce,
    evaluate,
    hnn_presentation,
    verify_relators,
)
from graphforge.subgroups import (
    JoinSubgroup,
    RestrictedSubgroup,
    cyclic,
    free_factor,
    generated,
    whole,
)
from graphforge.words import Word

import grouplib


def flat_pair():
    """Z^2 presented relative to the a-axis by the single commutator."""
    z2 = FreeAbelianGroup("Z2", ["a", "b"])
    axis = free_factor(z2, ["a"])
    pres = RelPresentation(("b",), {"A": axis}, [])
    pres.relators = [pres.parse("A(a) b A(a^-1) b^-1")]
    return z2, pres


def test_normalize_merges_peripheral_letters():
    z2, pres = flat_pair()
    w = pres.parse("A(a) A(a) b b^-1 A(a^-2)")
    assert pres.normalize(w) == FPWord()
    w2 = pres.parse("A(a) b A(a)")
    assert len(pres.normalize(w2)) == 3


def mixed_presentation():
    """Plain letters x, y and peripherals over Z^2, F2 and the modular
    amalgam, so merges run through abelian, free and pinned forms."""
    z2 = FreeAbelianGroup("Z2", ["a", "b"])
    return RelPresentation(("x", "y"), {
        "A": free_factor(z2, ["a"]),
        "B": cyclic(grouplib.free2(), "a b"),
        "M": whole(grouplib.modular_amalgam()),
    }, [])


MIXED_VALUES = {"A": ["a", "a^-1", "a a", "1"],
                "B": ["a b", "b^-1 a^-1", "1"],
                "M": ["a", "a^-1", "b b", "b^-2", "a a b^-3", "1"]}


def seeded_fp_words(pres, count, seed, values=MIXED_VALUES):
    """Random free-product words; short peripheral values, often trivial
    or cancelling, so that merges expose new adjacencies."""
    rng = random.Random(seed)
    plain = [SToken(n, s) for n in pres.letters for s in (1, -1)]
    words = []
    for _ in range(count):
        toks = []
        for _ in range(rng.randrange(0, 10)):
            if rng.random() < 0.4:
                toks.append(rng.choice(plain))
            else:
                label = rng.choice(sorted(values))
                toks.append(HToken(label, tuple(Word.parse(
                    rng.choice(values[label])))))
        words.append(FPWord(toks))
    return words


def letterwise_inverse(word):
    """The inverse of a free-product word token by token: reversed, each
    sign flipped and each peripheral value inverted letter by letter,
    without normalizing anything."""
    return FPWord(t.inverse() if isinstance(t, SToken)
                  else HToken(t.peripheral, tuple(Word(t.value).inverse()))
                  for t in reversed(word))


def rewrite_to_fixpoint(pres, word):
    """Naive oracle: apply one local rewrite at a time (normalize one
    peripheral value, drop a trivial one, merge two adjacent letters of a
    peripheral, cancel two inverse plain letters) until none applies."""
    toks = list(word)
    while True:
        for i, tok in enumerate(toks):
            if isinstance(tok, HToken):
                amb = pres.peripherals[tok.peripheral].ambient
                value = tuple(amb.normalize(Word(tok.value)))
                if not value:
                    del toks[i]
                    break
                if value != tok.value:
                    toks[i] = HToken(tok.peripheral, value)
                    break
            if i + 1 < len(toks):
                nxt = toks[i + 1]
                if isinstance(tok, HToken) and isinstance(nxt, HToken) \
                        and tok.peripheral == nxt.peripheral:
                    toks[i:i + 2] = [HToken(tok.peripheral,
                                            tok.value + nxt.value)]
                    break
                if isinstance(nxt, SToken) and tok == nxt.inverse():
                    del toks[i:i + 2]
                    break
        else:
            return FPWord(toks)


def test_normalize_is_a_one_pass_fixpoint():
    pres = mixed_presentation()
    words = seeded_fp_words(pres, 400, seed=53)
    words += [w * letterwise_inverse(w) for w in words[:40]]
    for w in words:
        nf = pres.normalize(w)
        assert pres.normalize(nf) == nf, w
        assert nf == rewrite_to_fixpoint(pres, w), w
    assert any(len(pres.normalize(w)) < len(w) - 2 for w in words)


@pytest.mark.parametrize("text, message", [
    ("A(a b", "unbalanced peripheral letter 'A(a'"),
    ("A(a)) x", "unbalanced peripheral letter 'A(a))'"),
    ("(a) x", "unbalanced peripheral letter '(a)'"),
    ("Q(a) x", "undeclared peripheral 'Q'"),
    ("A(a) z", "undeclared letter 'z'"),
    ("B(a^) x", "bad exponent in 'a^'"),
])
def test_parse_rejects_malformed_relators(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        mixed_presentation().parse(text)


def test_parse_rejects_a_foreign_peripheral_letter():
    with pytest.raises(MalformedWord, match="'c' is not a generator of Z2"):
        mixed_presentation().parse("A(c) x")


def test_verify_relators_flat():
    z2, pres = flat_pair()
    report = verify_relators(pres, z2)
    assert report.passed


def test_verify_relators_failure_witness():
    f = grouplib.free2()
    pres = RelPresentation(("a", "b"), {}, [])
    pres.relators = [pres.parse("a b")]
    report = verify_relators(pres, f)
    assert not report.passed
    assert report.failures[0][1] == Word.parse("a b")


def test_verify_relators_empty():
    f = grouplib.free2()
    pres = RelPresentation(("a", "b"), {}, [])
    assert verify_relators(pres, f).passed


def test_absorb_identity():
    z2, pres = flat_pair()
    out = absorb(pres, [], "A", pres.peripherals["A"])
    assert out.letters == pres.letters
    assert [tuple(r) for r in out.relators] == \
        [tuple(pres.normalize(r)) for r in pres.relators]


def test_absorb_disjoint_order_irrelevant():
    z2 = FreeAbelianGroup("Z2", ["a", "b"])
    ha = free_factor(z2, ["a"])
    hb = free_factor(z2, ["b"])
    pres = RelPresentation((), {"A": ha, "B": hb}, [])
    pres.relators = [pres.parse("A(a) B(b) A(a^-1) B(b^-1)")]
    one = absorb(absorb(pres, ["A"], "A2", ha), ["B"], "B2", hb)
    two = absorb(absorb(pres, ["B"], "B2", hb), ["A"], "A2", ha)
    assert [tuple(r) for r in one.relators] == [tuple(r) for r in two.relators]


def modular_presentations():
    g = grouplib.modular_amalgam()
    z4, z6 = g.left, g.right
    k1 = generated(z4, ["a a"])
    k2 = generated(z6, ["b b b"])
    p1 = RelPresentation(("a",), {"K": k1}, [])
    p1.relators = [p1.parse("a a K(a^-2)")]
    p2 = RelPresentation(("b",), {"K": k2}, [])
    p2.relators = [p2.parse("b b b K(b^-3)")]
    return g, p1, p2


def test_amalgam_presentation_counts_and_relators():
    g, p1, p2 = modular_presentations()
    join = JoinSubgroup(g, p1.peripherals["K"], p2.peripherals["K"])
    out = amalgam_presentation(p1, "K", p2, "K", g, join, join_label="M")
    assert len(out.relators) == len(p1.relators) + len(p2.relators)
    assert set(out.peripherals) == {"M"}
    report = verify_relators(out, g)
    assert report.passed, report.failures


def test_amalgam_presentation_empty_inputs():
    g = grouplib.modular_amalgam()
    p1 = RelPresentation((), {"K": whole(g.left)}, [])
    p2 = RelPresentation((), {"K": whole(g.right)}, [])
    join = JoinSubgroup(g, whole(g.left), whole(g.right))
    out = amalgam_presentation(p1, "K", p2, "K", g, join, join_label="M")
    assert out.relators == []
    assert set(out.peripherals) == {"M"}


def toy_hnn_presentation():
    g = grouplib.shift_hnn()
    f = g.base
    ka = RestrictedSubgroup(g, cyclic(f, "a"), "base")
    lb = RestrictedSubgroup(g, cyclic(f, "b"), "base")
    pres = RelPresentation(("a", "b"), {"K": ka, "L": lb}, [])
    pres.relators = [pres.parse("K(a) a^-1"), pres.parse("L(b) b^-1")]
    return g, pres


def test_hnn_presentation_rewrite():
    g, pres = toy_hnn_presentation()
    join = generated(g, ["t a t^-1", "b"], budget=4)
    out = hnn_presentation(pres, "K", "L", g, join, join_label="J")
    # relator count is preserved exactly
    assert len(out.relators) == len(pres.relators)
    assert set(out.peripherals) == {"J"}
    assert "t" in out.letters
    # the conjugated letter occurs as t^-1 (t a t^-1) t
    first = out.relators[0]
    kinds = [type(t).__name__ for t in first]
    assert "HToken" in kinds
    report = verify_relators(out, g)
    assert report.passed, report.failures


def test_hnn_presentation_token_growth():
    g, pres = toy_hnn_presentation()
    join = generated(g, ["t a t^-1", "b"], budget=4)
    out = hnn_presentation(pres, "K", "L", g, join)
    # each K-letter contributes a stable-letter sandwich: two extra tokens
    assert len(out.relators[0]) == len(pres.normalize(pres.relators[0])) + 2
    assert len(out.relators[1]) == len(pres.normalize(pres.relators[1]))


def test_hnn_presentation_requires_distinct_peripherals():
    g, pres = toy_hnn_presentation()
    with pytest.raises(KLNotDistinct):
        hnn_presentation(pres, "K", "K", g, whole(g))


# -- isoperimetric table ---------------------------------------------------------


def test_dehn_relator_itself_fills_once():
    z2, pres = flat_pair()
    table = dehn_bruteforce(pres, z2, 4)
    assert table.value(4) == 1
    assert all(e.exact for e in table.entries)


def test_dehn_small_lengths_are_zero():
    z2, pres = flat_pair()
    table = dehn_bruteforce(pres, z2, 3)
    assert [table.value(n) for n in (1, 2, 3)] == [0, 0, 0]


def test_dehn_table_to_six_monotone():
    z2, pres = flat_pair()
    table = dehn_bruteforce(pres, z2, 6, fill_cap=3, conjugator_cap=3, h_ball=1)
    values = [table.value(n) for n in range(1, 7)]
    assert values == [0, 0, 0, 1, 1, 2]
    assert values == sorted(values)
    assert all(e.exact for e in table.entries)


def test_dehn_redundant_relator_never_increases():
    z2, pres = flat_pair()
    base = dehn_bruteforce(pres, z2, 5)
    bigger = RelPresentation(pres.letters, pres.peripherals,
                             pres.relators
                             + [letterwise_inverse(pres.relators[0])])
    redundant = dehn_bruteforce(bigger, z2, 5)
    for n in range(1, 6):
        assert redundant.value(n) <= base.value(n)


# -- junction products and the table by prefix ----------------------------------


# Peripheral values need not lie in their subgroup here, since products
# and inverses use only the ambient group's arithmetic: "t a" and "a t^-1"
# are Britton forms whose letter-by-letter inverses are not.
JUNCTION_CASES = [
    ("flat", flat_pair,
     {"A": ["a", "a^-1", "a a", "a^-2", "a b a^-1 b^-1"]}),
    ("hnn", toy_hnn_presentation,
     {"K": ["a", "a^-1", "a a", "t^-1 b t", "t a"],
      "L": ["b", "b^-1", "b^-2", "a t^-1"]}),
]


@pytest.mark.parametrize("tag, factory, values", JUNCTION_CASES)
def test_product_and_inverse_of_normal_forms(tag, factory, values):
    group, pres = factory()
    nfs = [pres.normalize(w)
           for w in seeded_fp_words(pres, 80, seed=len(tag), values=values)]
    rng = random.Random(71)
    pairs = [(rng.choice(nfs), rng.choice(nfs)) for _ in range(300)]
    # v starts with the inverse of a tail of u, so the junction cancels
    # and merges to the identity before a later token stops it
    for u in nfs:
        k = rng.randrange(0, len(u) + 1)
        tail = pres.normalize(letterwise_inverse(u[k:]))
        pairs.append((u, pres.normalize(tail * rng.choice(nfs))))
        pairs.append((u, tail))
    exposed = 0
    for u, v in pairs:
        got = pres.product(u, v)
        assert got == pres.normalize(u * v) \
            == rewrite_to_fixpoint(pres, u * v), (u, v)
        assert evaluate(group, got) == \
            group.multiply(evaluate(group, u), evaluate(group, v)), (u, v)
        if u and v and isinstance(u[-1], HToken) and isinstance(v[0], HToken) \
                and u[-1].peripheral == v[0].peripheral \
                and len(got) < len(u) + len(v) - 2:
            exposed += 1
    assert exposed >= 10
    for w in nfs:
        inv = pres.inverse(w)
        assert inv == pres.normalize(letterwise_inverse(w)) \
            == rewrite_to_fixpoint(pres, letterwise_inverse(w)), w
        assert pres.product(w, inv) == FPWord() == pres.product(inv, w)


def reference_dehn(pres, group, max_length):
    """The table at ``conjugator_cap=1``, ``fill_cap=2`` from scratch:
    every word of each length, its whole concatenation normalized, and its
    fill found among all products of at most two pieces."""
    alphabet = pres.token_alphabet(1)
    conjugators = [FPWord()] + [FPWord((t,)) for t in alphabet]
    pieces = {pres.normalize(letterwise_inverse(c) * r * c)
              for c in conjugators for rel in pres.relators
              for r in (rel, letterwise_inverse(rel))}
    pairs = {pres.normalize(p * q) for p in pieces for q in pieces}
    rows, best = [], 0
    for n in range(1, max_length + 1):
        capped = 0
        for combo in itertools.product(alphabet, repeat=n):
            word = FPWord(combo)
            nf = pres.normalize(word)
            if evaluate(group, word) or not nf:
                continue
            if nf in pieces:
                best = max(best, 1)
            elif nf in pairs:
                best = max(best, 2)
            else:
                capped += 1
        rows.append((n, best, capped == 0, capped))
    return rows


@pytest.mark.parametrize("factory, max_length", [
    (toy_hnn_presentation, 5),
    (lambda: modular_presentations()[::2], 6),
])
def test_dehn_table_matches_reference_enumeration(factory, max_length):
    group, pres = factory()
    table = dehn_bruteforce(pres, group, max_length, fill_cap=2,
                            conjugator_cap=1)
    got = [(e.length, e.value, e.exact, e.capped_words)
           for e in table.entries]
    assert got == reference_dehn(pres, group, max_length)
    # a capped length before an exact one: counts are kept per length
    flags = [exact for _, _, exact, _ in got]
    assert any(not a and b for a, b in zip(flags, flags[1:]))


def test_dehn_table_holds_one_prefix_per_depth():
    """Words are walked by prefix, so the peak heap barely grows with the
    length bound; holding every word of a length (4^7 at length 7) more
    than doubles it."""
    def peak(max_length):
        group, pres = flat_pair()
        tracemalloc.start()
        try:
            dehn_bruteforce(pres, group, max_length)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(7) <= 1.5 * peak(5)
