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
* ``AmalgamGroup``      -- left-to-right pinned alternating transversal
                           syllables followed by a trailing edge-group part.
* ``HNNGroup``          -- Britton-reduced form ``tau_1 t^e1 ... tau_n t^en a``
                           with each ``tau_i`` a pinned left-coset
                           representative.

Pinning is done left to right so that trailing carries flow rightward; left
cosets of the distinguished subgroups then have representatives that are
*prefix-stable* under right multiplication, which the orbit layer relies on.

The normal-form cache maps each word ``normalize`` was given to its normal
form.  ``multiply`` normalizes the concatenation of its factors, so the
concatenation becomes a key, except in ``FreeGroup``, where the factors'
normal forms cancel only at the junctions, and ``HNNGroup``, where the
Britton reduction of the left factor continues through the later ones.
These two cache the product (and an HNN product's Britton form) under
itself: no unreduced key, and equal products share one object.

``_product(nfs)`` multiplies factors that must already be normal forms of
the group, unchecked (any other word gives a wrong answer, not an error):
in ``FreeGroup`` it is the junction cancellation alone, else ``_multiply``.
"""

from __future__ import annotations

from collections import deque

from .errors import (
    BudgetExceeded,
    MalformedWord,
    StableLetterCollision,
)
from .words import NormalForm, Word, free_reduce


def _syllables(word, owner, factor):
    """The alternating list of (key, canonical nonempty subword): runs of
    letters with one ``owner`` key, normalized in ``factor(key)``, and
    merged with their neighbour once a run between them cancels."""
    runs = []
    for letter in Word.coerce(word):
        key = owner(letter[0])
        if runs and runs[-1][0] == key:
            runs[-1][1].append(letter)
        else:
            runs.append((key, [letter]))
    stack = []
    for key, letters in runs:
        cur = factor(key).normalize(Word(letters))
        while cur:
            if stack and stack[-1][0] == key:
                cur = factor(key).normalize(stack.pop()[1] * cur)
            else:
                stack.append((key, cur))
                break
    return stack


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
            cached = NormalForm(self._canonical(word))
            self._nf_cache[word] = cached
        return cached

    def _canonical(self, word: Word) -> Word:
        raise NotImplementedError

    def identity(self) -> NormalForm:
        return NormalForm()

    def multiply(self, *words) -> NormalForm:
        """The normal form of the product of ``words`` (words, strings or
        letter tuples), left to right.

        Each class computes it in ``_multiply``.  By default that is the
        normal form of the concatenation, so the normal-form cache gains the
        concatenation as a key.  ``FreeGroup`` and ``HNNGroup`` normalize
        each factor, combine the factors' forms and cache the product under
        itself (see the module docstring).  Either way a foreign letter in
        any factor raises ``MalformedWord``.
        """
        return self._multiply(words)

    def _multiply(self, words) -> NormalForm:
        letters = ()
        for w in words:
            letters += w if isinstance(w, tuple) else Word.coerce(w)
        return self.normalize(Word(letters))

    def _product(self, nfs) -> NormalForm:
        return self._multiply(nfs)

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
        """Close a set of permutations (tuples mapping i -> p[i]) into a group."""
        degree = len(next(iter(perms.values())))
        ident = tuple(range(degree))

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
        return tuple(words[i] for i in range(self.n))

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
        return free_reduce(word)

    def _multiply(self, words) -> NormalForm:
        return self._product([self.normalize(w) for w in words])

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
        return self.word_from_exponents(self.exponents(word))

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
        """Alternating (factor index, canonical nonempty subword) list."""
        return _syllables(word, self._owner.__getitem__,
                          self.factors.__getitem__)

    def _canonical(self, word):
        out = Word()
        for _, sub in self.syllables(word):
            out = out * sub
        return out

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


class AmalgamGroup(Group):
    """Amalgamated product of two factors over a common edge group.

    ``into_left`` and ``into_right`` inject the edge group into the two
    factors; their codomain handles must answer membership and left-coset
    representatives exactly, since the pinning algorithm leans on them.
    """

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
        self._pinned_cache: dict = {}

    def side_of(self, name) -> str:
        return "L" if self.left.owns(name) else "R"

    def factor(self, side: str) -> Group:
        return self.left if side == "L" else self.right

    def edge_embedding(self, side: str):
        return self.into_left if side == "L" else self.into_right

    def _split(self, side, factor_word):
        """factor_word = rep * k with rep a pinned coset rep, k in the edge image.

        Returns (rep, edge word over the edge group's generators).
        """
        emb = self.edge_embedding(side)
        handle = emb.codomain
        rep = handle.coset_rep(factor_word)
        k_img = self.factor(side).multiply(rep.inverse(), factor_word)
        c = emb.preimage(k_img)
        if c is None:
            raise BudgetExceeded(
                f"{self.name}: cannot express {k_img} through the edge group",
            )
        return rep, c

    def pinned_form(self, word):
        """(pinned syllables, trailing edge word) for an element.

        The pinned syllables are ``(side, transversal word)`` pairs with
        nonidentity transversal representatives of left edge-image cosets,
        strictly alternating in side; the trailing part is a word over the
        edge group.
        """
        word = Word.coerce(word)
        cached = self._pinned_cache.get(word)
        if cached is not None:
            return cached
        self.check_word(word)
        pend = deque(_syllables(word, self.side_of, self.factor))
        pinned = []
        carry = None  # word over the edge group, multiplies next syllable on the left
        tail = Word()
        while pend:
            side, w = pend.popleft()
            if carry is not None:
                w = self.factor(side).multiply(
                    self.edge_embedding(side).push(carry), w
                )
                carry = None
                if not w:
                    # the carry cancelled the whole syllable
                    if pinned and pend and pinned[-1][0] == pend[0][0]:
                        pside, pw = pinned.pop()
                        nside, nw = pend.popleft()
                        pend.appendleft(
                            (pside, self.factor(pside).multiply(pw, nw)))
                    continue
            rep, c = self._split(side, w)
            if rep:
                pinned.append((side, rep))
                if pend:
                    carry = c
                else:
                    tail = c
            else:
                # syllable lies in the edge image: fold it rightward
                if pend:
                    if pinned and pinned[-1][0] == pend[0][0]:
                        # its neighbours are same-sided: merge them
                        pside, pw = pinned.pop()
                        nside, nw = pend.popleft()
                        merged = self.factor(pside).multiply(
                            pw, self.edge_embedding(pside).push(c), nw
                        )
                        pend.appendleft((pside, merged))
                    else:
                        carry = c
                else:
                    tail = c
        tail = self.edge_group.normalize(tail)
        result = (tuple(pinned), tail)
        self._pinned_cache[word] = result
        return result

    def _canonical(self, word):
        pinned, tail = self.pinned_form(word)
        out = Word()
        for _, rep in pinned:
            out = out * rep
        if tail:
            out = out * self.left.normalize(self.into_left.push(tail))
        return out

    def factor_word(self, word, side):
        """The element as a word in one factor, or None if not in it."""
        pinned, tail = self.pinned_form(word)
        if len(pinned) > 1 or (pinned and pinned[0][0] != side):
            return None
        tail_img = self.edge_embedding(side).push(tail)
        if pinned:
            return self.factor(side).multiply(pinned[0][1], tail_img)
        return self.factor(side).normalize(tail_img)

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


class HNNGroup(Group):
    """HNN extension of a base group along an injection of subgroups.

    The stable letter conjugates the edge subgroup onto its image:
    ``t c t^{-1} = iso(c)``.  Canonical forms are Britton-reduced with
    left-coset representatives pinned before each stable letter.
    """

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
        self._britton_cache: dict = {}

    def _tokens(self, word):
        toks = []
        for name, sign in Word.coerce(word):
            if name == self.stable:
                toks.append(("t", sign))
            elif toks and toks[-1][0] == "b":
                toks[-1] = ("b", toks[-1][1] * Word(((name, sign),)))
            else:
                toks.append(("b", Word(((name, sign),))))
        return toks

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

    def britton_form(self, word):
        """(pinned (tau, eps) pairs, trailing base word), Britton-reduced."""
        word = Word.coerce(word)
        cached = self._britton_cache.get(word)
        if cached is not None:
            return cached
        self.check_word(word)
        result = self._fold([], Word(), word)
        self._britton_cache[word] = result
        return result

    def _fold(self, pinned, acc, word):
        """Continue the left-to-right reduction from the state ``pinned``
        (a list, extended in place) and base accumulator ``acc`` through
        the letters of ``word``; returns the finished Britton form."""
        for tok in self._tokens(word):
            if tok[0] == "b":
                acc = self.base.multiply(acc, tok[1])
                continue
            eps = tok[1]
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

    def _multiply(self, words) -> NormalForm:
        # the Britton form of a product is the fold's state after its left
        # factor, continued through the later factors' normal forms
        first = Word.coerce(words[0]) if words else Word()
        nf = self.normalize(first)
        state = self.britton_form(first)
        for w in words[1:]:
            state = self._fold(list(state[0]), state[1], self.normalize(w))
        if len(words) > 1:
            nf = NormalForm(self._spell(*state))
        nf = self._nf_cache.setdefault(nf, nf)
        self._britton_cache.setdefault(nf, state)
        return nf

    def _spell(self, pinned, tail):
        out = Word()
        for tau, eps in pinned:
            out = out * tau * Word(((self.stable, eps),))
        return out * tail

    def _canonical(self, word):
        return self._spell(*self.britton_form(word))

    def base_word(self, word):
        """The element as a word of the base group, or None."""
        pinned, tail = self.britton_form(word)
        if pinned:
            return None
        return tail

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


def conjugacy_probe(group: Group, g, handle, budget: int):
    """Bounded search for x with x g x^{-1} in the subgroup.

    Returns ("yes", witness) or ("no-within-budget", budget).
    """
    g = Word.coerce(g)
    if handle.contains(g) == "yes":
        return ("yes", group.identity())
    for x in ball_enumerate(group, group.generator_words(), budget):
        if handle.contains(group.multiply(x, g, x.inverse())) == "yes":
            return ("yes", x)
    return ("no-within-budget", budget)
