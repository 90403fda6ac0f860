"""Finitely described groups with computable canonical forms.

Supported classes: finite groups by multiplication table, free and free
abelian groups, and free products, amalgamated products and HNN extensions
built recursively over these.  Every class has a deterministic canonical
form, returned as a ``NormalForm``, so element equality is tuple equality
of normal forms.

Canonical forms, by class
-------------------------
* ``FiniteGroup``       -- shortlex-minimal word for each table element (BFS).
* ``FreeGroup``         -- freely reduced word; a product of reduced
                           factors cancels only at the junctions.
* ``FreeAbelianGroup``  -- letters sorted by declared generator order.
* ``FreeProductGroup``  -- alternating factor-canonical syllables.
* ``AmalgamGroup``      -- pinned form: alternating nonidentity transversal
                           syllables, then an edge-group part.
* ``HNNGroup``          -- Britton form ``tau_1 t^e1 ... tau_n t^en a``
                           with each ``tau_i`` a pinned left-coset
                           representative.

Both split forms come from one left-to-right fold over runs of one-sided
letters (the normal form theorem for amalgams; Britton's lemma): at each
change of side, or stable letter, the open syllable splits into a pinned
coset representative and an edge part carried rightward.  So left cosets of
the distinguished subgroups have *prefix-stable* representatives under
right multiplication, which the orbit layer relies on.

The normal-form cache maps each word ``normalize`` was given to its normal
form, and each normal form to itself: ``normalize`` interns what
``_canonical`` returns (``_nf_cache.setdefault(nf, nf)``), so an element of
a group is one ``NormalForm`` object however it was reached.  In every
class, ``multiply`` is the normal form of the concatenation of its factors,
which the cache keeps as one more key.

Amalgams and HNN extensions share ``SplitGroup``: an element's split form
is computed once, with its normal form, and kept under that one object.
``split_form(w)`` looks it up; ``factor_split(w, side)`` cuts it into the
pinned prefix and the element's part in one distinguished factor, which is
what membership and coset representatives of factor subgroups read.  Edge
elements cross the edge injections by ``Monomorphism.push``, which keeps
each element's image: an edge image is computed once per element and
injection, however often the folds carry that element across.

``_product(nfs)`` multiplies factors that must already be normal forms of
the group, unchecked (any other word gives a wrong answer, not an error):
in ``FreeGroup`` it cancels only at the junctions.  A splitting looks up
the concatenation, and on a miss reopens the first factor's split form as
a fold state (an amalgam's last pinned syllable times the tail's image) and
folds only the other factors' letters.  That is exact: the state keeps the
fold's invariants (pinned reps alternate in side and are nontrivial, the
open side is not the last pinned one), so the fold ends in a pinned or
Britton form of the product, which is unique.  Else it is ``multiply``.

Size
----
Each class states its size once, in ``order()``: an int, ``math.inf``, or
None when the schema does not decide it.  ``Group`` derives ``is_finite()``
from it (None when the order is None), and no class overrides it.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import groupby

from .errors import (
    BudgetExceeded,
    MalformedWord,
    StableLetterCollision,
)
from .words import NormalForm, Word, free_reduce


class Group:
    """Base class: a finitely described group with a canonical form."""

    # names of the distinguished factors, each read by ``factor(side)``;
    # only splittings have them
    sides = ()

    def __init__(self, name: str, generators):
        self.name = name
        self.generators = tuple(generators)
        self._gen_index = {g: i for i, g in enumerate(self.generators)}
        if len(self._gen_index) != len(self.generators):
            raise ValueError(f"duplicate generator names in {name}")
        self._nf_cache: dict = {}

    # -- alphabet ----------------------------------------------------------

    def gen(self, name: str) -> Word:
        if name not in self._gen_index:
            raise MalformedWord(f"{name!r} is not a generator of {self.name}")
        return Word(((name, 1),))

    def generator_words(self):
        return [self.gen(g) for g in self.generators]

    def owns(self, name: str) -> bool:
        return name in self._gen_index

    def check_word(self, word: Word):
        for name, sign in word:
            if name not in self._gen_index or sign not in (1, -1):
                raise MalformedWord(
                    f"letter {name!r} is not a generator of {self.name}"
                )

    # -- shortlex ----------------------------------------------------------

    def letter_rank(self, letter):
        name, sign = letter
        return (self._gen_index[name], 0 if sign > 0 else 1)

    def word_key(self, word: Word):
        return (len(word), tuple(self.letter_rank(l) for l in word))

    # -- canonical forms ----------------------------------------------------

    def normalize(self, word) -> NormalForm:
        if not isinstance(word, Word):
            word = Word.coerce(word)
        cached = self._nf_cache.get(word)
        if cached is None:
            self.check_word(word)
            nf = self._canonical(word)
            cached = self._nf_cache[word] = self._nf_cache.setdefault(nf, nf)
        return cached

    def identity(self) -> NormalForm:
        return self.normalize(Word())

    def multiply(self, *words) -> NormalForm:
        """The normal form of the product of ``words`` (words, strings or
        letter tuples), left to right: the normal form of their
        concatenation, in every class.  A foreign letter in any factor
        raises ``MalformedWord``."""
        letters = ()
        for w in words:
            letters += w if isinstance(w, tuple) else Word.coerce(w)
        return self.normalize(Word(letters))

    def _product(self, nfs) -> NormalForm:
        return self.multiply(*nfs)

    def inverse(self, word) -> NormalForm:
        return self.normalize(Word.coerce(word).inverse())

    def is_identity(self, word) -> bool:
        return len(self.normalize(word)) == 0

    # -- size ----------------------------------------------------------------

    def is_finite(self):
        n = self.order()
        return None if n is None else n != math.inf

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class FiniteGroup(Group):
    """A finite group given by its multiplication table.

    Elements are integers ``0..n-1`` with ``0`` the identity; ``table[i][j]``
    is the product ``i * j``.  Named generators map to elements, and each
    element gets a precomputed shortlex-minimal word over the generators.
    """

    def __init__(self, name, gen_to_element: dict, table):
        super().__init__(name, gen_to_element.keys())
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        self.gen_to_element = dict(gen_to_element)
        inv = [None] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.table[i][j] == 0:
                    inv[i] = j
        if any(v is None for v in inv):
            raise ValueError(f"{name}: table has no inverses; not a group")
        self.inv = tuple(inv)
        self._elem_words = self._minimal_words()

    @classmethod
    def from_permutations(cls, name, perms: dict):
        """Close a set of permutations (sequences mapping i -> p[i]) into a
        group; raises ValueError unless they permute one set 0..n-1."""
        perms = {g: tuple(p) if isinstance(p, (list, tuple))
                 and all(type(i) is int for i in p) else ()
                 for g, p in perms.items()}
        degree = max(map(len, perms.values()), default=0)
        ident = tuple(range(degree))
        if not degree or any(sorted(p) != list(ident) for p in perms.values()):
            raise ValueError(f"{name}: generators must permute 0..n-1")

        def compose(p, q):  # apply q first, then p
            return tuple(p[q[i]] for i in range(degree))

        elems = [ident]
        index = {ident: 0}
        frontier = deque([ident])
        gens = list(perms.values())
        while frontier:
            p = frontier.popleft()
            for q in gens:
                r = compose(p, q)
                if r not in index:
                    index[r] = len(elems)
                    elems.append(r)
                    frontier.append(r)
        table = [
            [index[compose(p, q)] for q in elems]
            for p in elems
        ]
        gen_to_element = {g: index[p] for g, p in perms.items()}
        grp = cls(name, gen_to_element, table)
        grp.permutations = tuple(elems)
        return grp

    @classmethod
    def cyclic(cls, n, gen="a", name=None):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(name or f"Z{n}", {gen: 1 % n}, table)

    def element_of(self, word) -> int:
        e = 0
        for name, sign in Word.coerce(word):
            if name not in self.gen_to_element:
                raise MalformedWord(f"{name!r} is not a generator of {self.name}")
            x = self.gen_to_element[name]
            e = self.table[e][x if sign > 0 else self.inv[x]]
        return e

    def word_of(self, element: int) -> Word:
        return self._elem_words[element]

    def elements(self):
        return range(self.n)

    def _minimal_words(self):
        # BFS generating words in shortlex order: first visit wins.
        letters = []
        for g in self.generators:
            x = self.gen_to_element[g]
            letters.append(((g, 1), x))
            letters.append(((g, -1), self.inv[x]))
        words = {0: Word()}
        frontier = deque([0])
        while frontier:
            e = frontier.popleft()
            base = words[e]
            for letter, x in letters:
                f = self.table[e][x]
                if f not in words:
                    words[f] = base * Word((letter,))
                    frontier.append(f)
        if len(words) != self.n:
            raise ValueError(f"{self.name}: generators do not generate the group")
        return tuple(NormalForm(words[i]) for i in range(self.n))

    def _canonical(self, word):
        return self.word_of(self.element_of(word))

    def order(self):
        return self.n

    def subgroup_closure(self, elements) -> frozenset:
        elems = {0}
        frontier = deque(elements)
        while frontier:
            x = frontier.popleft()
            if x in elems:
                continue
            elems.add(x)
            frontier.append(self.inv[x])
            for y in list(elems):
                frontier.append(self.table[x][y])
                frontier.append(self.table[y][x])
        return frozenset(elems)


class FreeGroup(Group):
    def _canonical(self, word):
        return NormalForm(free_reduce(word))

    def _product(self, nfs) -> NormalForm:
        # reduced factors cancel only at a junction: drop the last k letters
        # of the product so far and the first k of the next factor, for the
        # largest k with each ``out[~k]`` (``out[-1 - k]``) inverse to ``w[k]``
        out = ()
        for w in nfs:
            if not out:
                out = w
            elif w:
                k, stop = 0, min(len(out), len(w))
                while k < stop and out[~k][0] == w[k][0] \
                        and out[~k][1] == -w[k][1]:
                    k += 1
                out = out[:len(out) - k] + w[k:]
        if type(out) is not NormalForm:
            out = NormalForm(out)
        return self._nf_cache.setdefault(out, out)

    def order(self):
        return math.inf if self.generators else 1


class FreeAbelianGroup(Group):
    def exponents(self, word) -> tuple:
        exps = [0] * len(self.generators)
        for name, sign in Word.coerce(word):
            exps[self._gen_index[name]] += sign
        return tuple(exps)

    def word_from_exponents(self, exps) -> Word:
        letters = []
        for g, e in zip(self.generators, exps):
            letters += [(g, 1 if e > 0 else -1)] * abs(e)
        return Word(letters)

    def _canonical(self, word):
        return NormalForm(self.word_from_exponents(self.exponents(word)))

    def order(self):
        return math.inf if self.generators else 1


class FreeProductGroup(Group):
    """Free product of disjointly-generated factors."""

    def __init__(self, name, factors):
        gens = []
        self.factors = tuple(factors)
        self._owner = {}
        for i, f in enumerate(self.factors):
            for g in f.generators:
                if g in self._owner:
                    raise ValueError(f"generator {g!r} appears in two factors")
                self._owner[g] = i
                gens.append(g)
        super().__init__(name, gens)

    def factor_of(self, name) -> int:
        return self._owner[name]

    def syllables(self, word):
        """The alternating list of (factor index, canonical nonempty
        subword): runs of one factor's letters, normalized in that factor
        and merged with their neighbour once a run between them cancels."""
        stack = []
        for key, run in groupby(Word.coerce(word),
                                lambda l: self._owner[l[0]]):
            cur = self.factors[key].normalize(Word(run))
            while cur:
                if stack and stack[-1][0] == key:
                    cur = self.factors[key].normalize(stack.pop()[1] * cur)
                else:
                    stack.append((key, cur))
                    break
        return stack

    def _canonical(self, word):
        return NormalForm(l for _, sub in self.syllables(word) for l in sub)

    def order(self):
        return free_product_order(self.factors)


def free_product_order(factors):
    """The order of the free product of ``factors``: 1 when every factor is
    trivial, the one nontrivial factor's order, else infinite."""
    nontrivial = [n for n in (f.order() for f in factors) if n != 1]
    if len(nontrivial) > 1:
        return math.inf
    return nontrivial[0] if nontrivial else 1


class SplitGroup(Group):
    """A one-edge splitting (amalgam or HNN extension).  An element's split
    form ``(pinned, tail)`` is kept under its interned normal form, which
    ``_spell`` writes out with the tail spelled by ``_tail``; ``_resume``
    reopens it as a state ``_fold`` continues from.  ``sides`` name the
    distinguished factors."""

    def __init__(self, name, generators):
        super().__init__(name, generators)
        self._split_cache: dict = {}

    def split_form(self, word):
        """(pinned syllables, tail) for an element, kept under its normal
        form."""
        return self._split_cache[self.normalize(word)]

    def _canonical(self, word):
        return self._intern(self._fold(word))

    def _product(self, nfs) -> NormalForm:
        """The concatenation's normal form: cached, or the first factor's
        fold resumed through the others' letters (see the module doc)."""
        if len(nfs) < 2:
            return self.normalize(nfs[0] if nfs else Word())
        word = Word(sum(nfs, ()))
        cached = self._nf_cache.get(word)
        if cached is None:
            cached = self._nf_cache[word] = self._intern(self._fold(
                word[len(nfs[0]):], *self._resume(self.split_form(nfs[0]))))
        return cached

    def _intern(self, form) -> NormalForm:
        """The interned normal form a split form spells, kept under it."""
        nf = NormalForm(self._spell(form[0], self._tail(form[1])))
        nf = self._nf_cache.setdefault(nf, nf)
        self._split_cache.setdefault(nf, form)
        return nf

    def _tail(self, tail) -> Word:
        return tail


class AmalgamGroup(SplitGroup):
    """Amalgamated product of two factors over a common edge group.

    ``into_left`` and ``into_right`` inject the edge group into the two
    factors; their codomain handles must answer membership and left-coset
    representatives exactly, since the pinning algorithm leans on them.

    The split form is the pinned form: ``(side, transversal word)`` pairs
    with nonidentity representatives of left edge-image cosets, strictly
    alternating in side, then a trailing word over the edge group.
    """

    sides = ("L", "R")

    def __init__(self, name, left, right, edge_group, into_left, into_right):
        for g in left.generators:
            if g in right._gen_index:
                raise ValueError(f"generator {g!r} appears on both sides")
        super().__init__(name, tuple(left.generators) + tuple(right.generators))
        self.left = left
        self.right = right
        self.edge_group = edge_group
        self.into_left = into_left
        self.into_right = into_right
        self._split_memo: dict = {}

    def side_of(self, name) -> str:
        return "L" if self.left.owns(name) else "R"

    def factor(self, side: str) -> Group:
        return self.left if side == "L" else self.right

    def edge_embedding(self, side: str):
        return self.into_left if side == "L" else self.into_right

    def _split(self, side, word):
        """(rep, edge word over the edge group's generators) with word =
        rep * k, rep a pinned coset rep and k in the edge image; kept per
        (side, word), as the codomain handles answer exactly."""
        found = self._split_memo.get((side, word))
        if found is None:
            emb = self.edge_embedding(side)
            rep = emb.codomain.coset_rep(word)
            k_img = self.factor(side).multiply(rep.inverse(), word)
            c = emb.preimage(k_img)
            if c is None:
                raise BudgetExceeded(f"{self.name}: cannot express {k_img}"
                                     " through the edge group")
            found = self._split_memo[side, word] = (rep, c)
        return found

    def _resume(self, form):
        """The fold state of a pinned form: its last pinned syllable times
        the tail's image reopened, else a nontrivial tail opened on "L"."""
        pinned, tail = form
        if pinned:
            side, acc = pinned[-1]
            if tail:   # else the rep, a factor normal form, opens as it is
                push = self.edge_embedding(side).push(tail)
                acc = self.factor(side).multiply(acc, push)
            return pinned[:-1], side, acc
        return ((), "L", self._tail(tail)) if tail else ((), None, None)

    def _fold(self, word, pinned=(), side=None, acc=None):
        """The pinned form of the state's element times ``word``, reduced
        left to right from ``pinned`` and an open syllable ``acc`` in the
        factor of ``side``, not the last pinned side (empty by default).  A
        run on the open side joins it; at each change of side pin its coset
        rep and carry its edge part into the next run; a syllable in the
        edge image instead reopens the last pinned one."""
        pinned = list(pinned)
        for s, run in groupby(word, lambda l: self.side_of(l[0])):
            factors = [Word(run)]
            if side == s:
                factors.insert(0, acc)
            elif side:
                rep, c = self._split(side, acc)
                factors.insert(0, self.edge_embedding(s).push(c))
                if rep:
                    pinned.append((side, rep))
                elif pinned:
                    factors.insert(0, pinned.pop()[1])
            acc = self.factor(s).multiply(*factors)
            side = s
        rep, tail = self._split(side, acc) if side else (None, Word())
        if rep:
            pinned.append((side, rep))
        return (tuple(pinned), self.edge_group.normalize(tail))

    def _spell(self, pinned, tail):
        """The pinned reps of ``pinned`` followed by the word ``tail``."""
        return Word(l for _, rep in pinned for l in rep) * tail

    def _tail(self, tail):
        # the edge part is spelled in the left factor
        return tail and self.left.normalize(self.into_left.push(tail))

    def factor_split(self, word, side):
        """(pinned prefix, part in the ``side`` factor) of an element: the
        ``_resume`` state when its open syllable is on ``side``, else the
        pinned form and the tail's image, so the element lies in that
        factor iff the prefix is empty."""
        pinned, tail = form = self.split_form(word)
        prefix, open_side, part = self._resume(form)
        if open_side == side:
            return prefix, part
        return pinned, self.factor(side).normalize(
            self.edge_embedding(side).push(tail))

    def order(self):
        # an edge group onto a whole factor leaves the other factor; a
        # proper amalgam is infinite
        if self.into_left.codomain.is_whole():
            return self.right.order()
        if self.into_right.codomain.is_whole():
            return self.left.order()
        return math.inf


class HNNGroup(SplitGroup):
    """HNN extension of a base group along an injection of subgroups.

    The stable letter conjugates the edge subgroup onto its image:
    ``t c t^{-1} = iso(c)``.  The split form is the Britton form: pinned
    ``(tau, eps)`` pairs, each ``tau`` a left-coset representative pinned
    before ``t^eps``, then a trailing base word.
    """

    sides = ("base",)

    def __init__(self, name, base, edge_handle, iso, stable: str):
        if base.owns(stable):
            raise StableLetterCollision(
                f"stable letter {stable!r} collides with a generator of {base.name}"
            )
        super().__init__(name, tuple(base.generators) + (stable,))
        self.base = base
        self.edge_handle = edge_handle      # C <= base
        self.iso = iso                      # C -> L, both handles over base
        self.image_handle = iso.codomain    # L <= base
        self.stable = stable

    def factor(self, side: str) -> Group:
        return self.base

    def _cross(self, eps, k):
        """Move an edge-image element rightward across t^eps."""
        if eps > 0:
            c = self.iso.preimage(k)  # k in image_handle
            if c is None:
                raise BudgetExceeded(f"{self.name}: no preimage for {k}")
            return c
        img = self.iso.push(k)  # k in edge_handle
        if img is None:
            raise BudgetExceeded(f"{self.name}: cannot push {k} through the injection")
        return img

    def _resume(self, form):
        # the Britton fold closes no syllable: a form is its own state
        return form

    def _fold(self, word, pinned=(), acc=Word()):
        """The Britton form of the state's element times ``word``, reduced
        left to right through its runs of base letters and stable letters
        from a Britton form's ``pinned`` pairs and base normal form ``acc``
        (empty by default); each base product is one of normal forms."""
        base = self.base
        pinned = list(pinned)
        for stable, run in groupby(word, lambda l: l[0] == self.stable):
            if not stable:
                acc = base._product((acc, base.normalize(Word(run))))
                continue
            for _, eps in run:
                handle = self.image_handle if eps > 0 else self.edge_handle
                tau = handle.coset_rep(acc)
                k = base._product((base.inverse(tau), acc))
                crossed = base.normalize(self._cross(eps, k))
                if not tau and pinned and pinned[-1][1] == -eps:
                    ptau, _ = pinned.pop()
                    acc = base._product((ptau, crossed))
                else:
                    pinned.append((tau, eps))
                    acc = crossed
        return (tuple(pinned), base.normalize(acc))

    def _spell(self, pinned, tail):
        return Word(l for tau, eps in pinned
                    for l in (*tau, (self.stable, eps))) * tail

    def factor_split(self, word, side):
        """(pinned prefix, base part) of an element (``side`` is "base"):
        its Britton form, so the element lies in the base iff the prefix is
        empty."""
        return self.split_form(word)

    def stable_word(self) -> Word:
        return Word(((self.stable, 1),))

    def order(self):
        return math.inf


def ball_enumerate(group: Group, gens, radius: int):
    """All distinct elements expressible as products of at most ``radius``
    of the listed generators and their inverses, as canonical forms sorted
    shortlex.  Steps are the distinct normal forms of the generators and
    their inverses, so each product is a ``_product`` of normal forms.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    steps = []
    for g in map(group.normalize, gens):
        for s in (g, group.inverse(g)):
            if s not in steps:
                steps.append(s)
    seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(radius):
        nxt = []
        for e in frontier:
            for s in steps:
                f = group._product((e, s))
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return sorted(seen, key=group.word_key)


def conjugacy_probe(group: Group, elements, handle, budget: int, back=None):
    """Bounded search for one x with x g x^{-1} in the subgroup for every
    g of ``elements`` (and ``back(x)`` true, when given), over the shortlex
    ball of radius ``budget``; the ball starts at the identity.

    Returns ("yes", witness) or ("no-within-budget", budget).
    """
    for x in ball_enumerate(group, group.generator_words(), budget):
        xinv = x.inverse()
        if all(handle.contains(group.multiply(x, g, xinv)) == "yes"
               for g in elements) and (back is None or back(x)):
            return ("yes", x)
    return ("no-within-budget", budget)
