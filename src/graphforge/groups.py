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
what membership and coset representatives of factor subgroups read.

``_product(nfs)`` multiplies factors that must already be normal forms of
the group, unchecked (any other word gives a wrong answer, not an error):
in ``FreeGroup`` it cancels only at the junctions, else it is ``multiply``.
"""

from __future__ import annotations

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

    def _canonical(self, word: Word) -> NormalForm:
        raise NotImplementedError

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
        """True / False, or None when not determined by the schema."""
        return None

    def order(self):
        return None

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

    def mult(self, i, j):
        return self.table[i][j]

    def element_of(self, word) -> int:
        e = 0
        for name, sign in Word.coerce(word):
            if name not in self.gen_to_element:
                raise MalformedWord(f"{name!r} is not a generator of {self.name}")
            x = self.gen_to_element[name]
            e = self.mult(e, x if sign > 0 else self.inv[x])
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
                f = self.mult(e, x)
                if f not in words:
                    words[f] = base * Word((letter,))
                    frontier.append(f)
        if len(words) != self.n:
            raise ValueError(f"{self.name}: generators do not generate the group")
        return tuple(NormalForm(words[i]) for i in range(self.n))

    def _canonical(self, word):
        return self.word_of(self.element_of(word))

    def is_finite(self):
        return True

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
                frontier.append(self.mult(x, y))
                frontier.append(self.mult(y, x))
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

    def is_finite(self):
        return len(self.generators) == 0

    def order(self):
        return 1 if len(self.generators) == 0 else None


class FreeAbelianGroup(Group):
    def exponents(self, word) -> tuple:
        exps = [0] * len(self.generators)
        for name, sign in Word.coerce(word):
            exps[self._gen_index[name]] += sign
        return tuple(exps)

    def word_from_exponents(self, exps) -> Word:
        letters = []
        for g, e in zip(self.generators, exps):
            sign = 1 if e > 0 else -1
            letters.extend((g, sign) for _ in range(abs(e)))
        return Word(letters)

    def _canonical(self, word):
        return NormalForm(self.word_from_exponents(self.exponents(word)))

    def is_finite(self):
        return len(self.generators) == 0

    def order(self):
        return 1 if len(self.generators) == 0 else None


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

    def is_finite(self):
        nontrivial = [f for f in self.factors if f.order() != 1]
        if len(nontrivial) == 0:
            return True
        if len(nontrivial) == 1:
            return nontrivial[0].is_finite()
        return False

    def order(self):
        nontrivial = [f for f in self.factors if f.order() != 1]
        if len(nontrivial) == 0:
            return 1
        if len(nontrivial) == 1:
            return nontrivial[0].order()
        return None


class SplitGroup(Group):
    """A one-edge splitting (amalgam or HNN extension).  An element's split
    form ``(pinned, tail)`` is kept under its interned normal form, which
    ``_spell`` writes out with the tail spelled by ``_tail``; ``sides`` name
    the distinguished factors."""

    def __init__(self, name, generators):
        super().__init__(name, generators)
        self._split_cache: dict = {}

    def split_form(self, word):
        """(pinned syllables, tail) for an element, kept under its normal
        form."""
        return self._split_cache[self.normalize(word)]

    def _canonical(self, word):
        """The normal form spelled by ``word``'s split form, which is kept
        under it."""
        form = pinned, tail = self._fold(word)
        nf = NormalForm(self._spell(pinned, self._tail(tail)))
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

    def side_of(self, name) -> str:
        return "L" if self.left.owns(name) else "R"

    def factor(self, side: str) -> Group:
        return self.left if side == "L" else self.right

    def edge_embedding(self, side: str):
        return self.into_left if side == "L" else self.into_right

    def _split(self, side, word):
        """word = rep * k with rep a pinned coset rep, k in the edge image.

        Returns (rep, edge word over the edge group's generators).
        """
        emb = self.edge_embedding(side)
        rep = emb.codomain.coset_rep(word)
        k_img = self.factor(side).multiply(rep.inverse(), word)
        c = emb.preimage(k_img)
        if c is None:
            raise BudgetExceeded(
                f"{self.name}: cannot express {k_img} through the edge group",
            )
        return rep, c

    def _fold(self, word):
        """The pinned form of ``word``, reduced left to right: at each
        change of side pin the open syllable's coset rep and carry its edge
        part into the next run; a syllable in the edge image instead
        reopens the last pinned one, which is on the side being entered."""
        pinned = []
        side = acc = None
        for s, run in groupby(word, lambda l: self.side_of(l[0])):
            factors = [Word(run)]
            if side:
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
        out = Word()
        for _, rep in pinned:
            out = out * rep
        return out * tail

    def _tail(self, tail):
        # the edge part is spelled in the left factor
        return tail and self.left.normalize(self.into_left.push(tail))

    def factor_split(self, word, side):
        """(pinned prefix, part in the ``side`` factor) of an element: the
        last pinned syllable joins the tail's image when it is on ``side``,
        so the element lies in that factor iff the prefix is empty."""
        pinned, tail = self.split_form(word)
        factor = self.factor(side)
        tail = self.edge_embedding(side).push(tail)
        if pinned and pinned[-1][0] == side:
            return pinned[:-1], factor.multiply(pinned[-1][1], tail)
        return pinned, factor.normalize(tail)

    def is_finite(self):
        if self.left.is_finite() is False or self.right.is_finite() is False:
            return False
        left_whole = self.into_left.codomain.is_whole()
        right_whole = self.into_right.codomain.is_whole()
        if left_whole:
            return self.right.is_finite()
        if right_whole:
            return self.left.is_finite()
        return False  # proper amalgam of finite factors is infinite

    def order(self):
        # an edge group onto a whole factor leaves the other factor
        if self.into_left.codomain.is_whole():
            return self.right.order()
        if self.into_right.codomain.is_whole():
            return self.left.order()
        return None


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

    def _fold(self, word):
        """The Britton form of ``word``, reduced left to right through its
        runs of base letters and stable letters."""
        pinned, acc = [], Word()
        for stable, run in groupby(word, lambda l: l[0] == self.stable):
            if not stable:
                acc = self.base.multiply(acc, Word(run))
                continue
            for _, eps in run:
                handle = self.image_handle if eps > 0 else self.edge_handle
                tau = handle.coset_rep(acc)
                k = self.base.multiply(tau.inverse(), acc)
                crossed = self._cross(eps, k)
                if not tau and pinned and pinned[-1][1] == -eps:
                    ptau, _ = pinned.pop()
                    acc = self.base.multiply(ptau, crossed)
                else:
                    pinned.append((tau, eps))
                    acc = self.base.normalize(crossed)
        return (tuple(pinned), self.base.normalize(acc))

    def _spell(self, pinned, tail):
        out = Word()
        for tau, eps in pinned:
            out = out * tau * Word(((self.stable, eps),))
        return out * tail

    def factor_split(self, word, side):
        """(pinned prefix, base part) of an element (``side`` is "base"):
        its Britton form, so the element lies in the base iff the prefix is
        empty."""
        return self.split_form(word)

    def stable_word(self) -> Word:
        return Word(((self.stable, 1),))

    def is_finite(self):
        return False


def ball_enumerate(group: Group, gens, radius: int):
    """All distinct elements expressible as products of at most ``radius``
    of the listed generators and their inverses, as canonical forms sorted
    shortlex.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    gens = [Word.coerce(g) for g in gens]
    steps = []
    for g in gens:
        steps.append(g)
        inv = g.inverse()
        if inv not in steps:
            steps.append(inv)
    seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(radius):
        nxt = []
        for e in frontier:
            for s in steps:
                f = group.multiply(e, s)
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
        if not frontier:
            break
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
