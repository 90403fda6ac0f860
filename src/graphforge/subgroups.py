"""Subgroup handles: membership oracles, coset representatives, enumeration.

A handle answers three-valued membership ("yes" / "no" / "unknown") and
produces a canonical representative for left cosets ``w H``.  Handles whose
``rep_exact`` flag is set guarantee the representative is a function of the
coset, which the orbit layer uses for hashing; the others fall back to
membership-based deduplication.

Strategy vocabulary (reported by ``.strategy``):
  FiniteEnumeration, CyclicInAbelian, FreeFactor, AmalgamOfHandles,
  ImageUnderMonomorphism, BudgetedSearch, plus the degenerate Trivial /
  WholeGroup and the Restricted / Conjugate wrappers.

Each handle states its size once, in ``order()``: an int, ``math.inf``, or
None when the schema does not decide it.  ``Subgroup`` derives
``is_finite()`` and ``is_trivial()`` from it, and no handle overrides them;
its ``elements()`` lists a handle of int order n as the generator ball of
radius n - 1.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import (
    BudgetExceeded,
    ForgeError,
    GroupMismatch,
    MalformedWord,
    MismatchedAmbient,
    MonomorphismUnverified,
)
from .groups import (
    AmalgamGroup,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    Group,
    HNNGroup,
    ball_enumerate,
    free_product_order,
)
from .words import NormalForm, Word

YES, NO, UNKNOWN = "yes", "no", "unknown"

DEFAULT_BUDGET = 12


def power_of(group: Group, u, g):
    """k with u^k = g, or None.  Exact for the supported group classes at
    desk scale (canonical lengths of powers grow at least linearly)."""
    u = group.normalize(u)
    g = group.normalize(g)
    if not g:
        return 0
    if not u:
        return None
    cap = 2 * (len(g) + len(u)) + 8
    for sign in (1, -1):
        step = u if sign > 0 else u.inverse()
        acc = group.identity()
        for k in range(1, cap + 1):
            acc = group.multiply(acc, step)
            if acc == g:
                return sign * k
            if not acc:  # finite order: all powers already seen
                break
    return None


class Subgroup:
    """Base class for subgroup handles."""

    strategy = "abstract"
    rep_exact = False

    def __init__(self, ambient: Group, generators=()):
        self.ambient = ambient
        self.generators = tuple(ambient.normalize(g) for g in generators)

    # -- membership ---------------------------------------------------------

    def contains(self, word) -> str:
        raise NotImplementedError

    def check_ambient(self, word) -> NormalForm:
        try:
            return self.ambient.normalize(word)
        except MalformedWord as exc:
            raise MismatchedAmbient(str(exc)) from exc

    # -- cosets --------------------------------------------------------------

    def coset_rep(self, word) -> NormalForm:
        """Canonical representative of the left coset ``word * H``."""
        raise NotImplementedError

    # -- enumeration ----------------------------------------------------------

    def elements(self):
        """Complete element list, for a handle of int order n: the generator
        ball of radius n - 1 reaches every element."""
        n = self.order()
        if n is None or n == math.inf:
            raise BudgetExceeded(f"{self!r} cannot list all elements")
        return self.ball(n - 1)

    def ball(self, length: int):
        """Deterministic products of at most ``length`` handle generators."""
        return ball_enumerate(self.ambient, self.generators, length)

    def sample(self, word_budget: int):
        """(elements, complete) for window materialization."""
        if self.is_finite():
            return self.elements(), True
        return self.ball(word_budget), False

    # -- structure -------------------------------------------------------------

    def express(self, word):
        """Decomposition over handle generators as (index, sign) pairs, or None."""
        return None

    def is_finite(self):
        n = self.order()
        return None if n is None else n != math.inf

    def is_trivial(self) -> bool:
        return self.order() == 1

    def is_whole(self) -> bool:
        return False

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "1"
        return f"<{type(self).__name__} <{gens}> of {self.ambient.name}>"


class TrivialSubgroup(Subgroup):
    strategy = "FiniteEnumeration"
    rep_exact = True

    def __init__(self, ambient):
        super().__init__(ambient, ())

    def contains(self, word):
        return YES if not self.check_ambient(word) else NO

    def coset_rep(self, word):
        return self.check_ambient(word)

    def express(self, word):
        return [] if not self.check_ambient(word) else None

    def order(self):
        return 1


class WholeSubgroup(Subgroup):
    strategy = "WholeGroup"
    rep_exact = True

    def __init__(self, ambient):
        super().__init__(ambient, ambient.generator_words())

    def contains(self, word):
        self.check_ambient(word)
        return YES

    def coset_rep(self, word):
        self.check_ambient(word)
        return self.ambient.identity()

    def elements(self):
        if isinstance(self.ambient, FiniteGroup):
            return [self.ambient.normalize(self.ambient.word_of(e))
                    for e in self.ambient.elements()]
        return super().elements()

    def express(self, word):
        idx = self.ambient._gen_index
        return [(idx[name], sign) for name, sign in self.ambient.normalize(word)]

    def order(self):
        return self.ambient.order()

    def is_whole(self):
        return True


class FiniteSubgroup(Subgroup):
    """An explicitly enumerated finite subgroup (any ambient)."""

    strategy = "FiniteEnumeration"
    rep_exact = True

    def __init__(self, ambient, generators, elements, expressions=None):
        super().__init__(ambient, generators)
        self._elements = sorted(set(elements), key=ambient.word_key)
        self._set = set(self._elements)
        self._expr = expressions or {}

    @classmethod
    def closure(cls, ambient, generators, cap=512):
        """Close generators under products; None when the cap is exceeded."""
        gens = [ambient.normalize(g) for g in generators]
        expr = {ambient.identity(): []}
        frontier = deque([ambient.identity()])
        steps = []
        for i, g in enumerate(gens):
            steps.append((g, (i, 1)))
            steps.append((ambient.inverse(g), (i, -1)))
        while frontier:
            e = frontier.popleft()
            for step, tag in steps:
                f = ambient.multiply(e, step)
                if f not in expr:
                    expr[f] = expr[e] + [tag]
                    frontier.append(f)
                    if len(expr) > cap:
                        return None
        return cls(ambient, gens, list(expr.keys()), expr)

    def contains(self, word):
        return YES if self.check_ambient(word) in self._set else NO

    def coset_rep(self, word):
        w = self.check_ambient(word)
        return min((self.ambient.multiply(w, h) for h in self._elements),
                   key=self.ambient.word_key)

    def elements(self):
        return list(self._elements)

    def express(self, word):
        return self._expr.get(self.check_ambient(word))

    def order(self):
        return len(self._elements)

    def is_whole(self):
        return self.ambient.order() == len(self._elements)


class CyclicSubgroup(Subgroup):
    """Infinite cyclic subgroup with an exact power test."""

    strategy = "CyclicInAbelian"
    rep_exact = True

    def __init__(self, ambient, generator):
        gen = ambient.normalize(generator)
        if not gen:
            raise ValueError("cyclic handle needs a nontrivial generator")
        super().__init__(ambient, (gen,))
        self.u = gen
        self._letter = self._letter_factor()
        self._rep_cache = {}

    def contains(self, word):
        w = self.check_ambient(word)
        return YES if power_of(self.ambient, self.u, w) is not None else NO

    def _letter_factor(self):
        """The generator's letter name when it is a single letter of a free
        group or inside an abelian or rank-one free-product factor, else
        None."""
        if len(self.u) != 1 or self.u[0][1] != 1:
            return None
        name = self.u[0][0]
        amb = self.ambient
        if isinstance(amb, FreeGroup):
            return name
        if isinstance(amb, FreeProductGroup):
            fac = amb.factors[amb.factor_of(name)]
            if isinstance(fac, FreeAbelianGroup) or len(fac.generators) == 1:
                return name
        return None

    def coset_rep(self, word):
        """The ``word_key``-least element of ``word <u>``.  In a free
        abelian group (e, d the exponent vectors of word and u), |e + k d|_1
        is convex piecewise linear in k, least at 0 or floor(-e_i/d_i) (+1)
        for some i and on the flat interval there, where the least normal
        form is the rep (for u = x_i, only k = -e_i).  Elsewhere a one-letter
        u is cut from the word's end, and any other u is found by
        ``_scan_rep``, which tries |k| <= 2|word| + |u| + 4."""
        w = self.check_ambient(word)
        cached = self._rep_cache.get(w)
        if cached is None:
            name = self._letter
            if isinstance(self.ambient, FreeAbelianGroup):
                cached = self._abelian_rep(w)
            elif name is None:
                cached = self._scan_rep(w)
            elif isinstance(self.ambient, FreeGroup):
                # a prefix of a reduced word is reduced: intern it as it is
                k = len(w)
                while k and w[k - 1][0] == name:
                    k -= 1
                cached = self.ambient._product((w[:k],))
            else:
                cached = self._strip_trailing_syllable(w, name)
            self._rep_cache[w] = cached
        return cached

    def _strip_trailing_syllable(self, w, name):
        """Zero the generator's exponent in the trailing syllable (exact when
        its factor is abelian or rank one)."""
        syls = self.ambient.syllables(w)
        if syls and name in self.ambient.factors[syls[-1][0]]._gen_index:
            fi, sub = syls[-1]
            cleaned = self.ambient.factors[fi].normalize(
                Word(l for l in sub if l[0] != name))
            syls = syls[:-1] + ([(fi, cleaned)] if cleaned else [])
        out = Word()
        for _, s in syls:
            out = out * s
        return self.ambient.normalize(out)

    def _abelian_rep(self, w):
        amb = self.ambient
        e, d = amb.exponents(w), amb.exponents(self.u)

        def moved(k):   # w u^k, in normal form
            return amb.word_from_exponents([x + k * y for x, y in zip(e, d)])

        lo = hi = min({0, *(b for x, y in zip(e, d) if y
                            for b in (-x // y, -x // y + 1))},
                      key=lambda k: len(moved(k)))
        while len(moved(lo - 1)) == len(moved(lo)):
            lo -= 1
        while len(moved(hi + 1)) == len(moved(hi)):
            hi += 1
        return amb.normalize(min(map(moved, range(lo, hi + 1)),
                                 key=amb.word_key))

    def _scan_rep(self, w):
        window = 2 * len(w) + len(self.u) + 4
        best = w
        best_key = self.ambient.word_key(w)
        acc_p = w
        acc_n = w
        for _ in range(window):
            acc_p = self.ambient.multiply(acc_p, self.u)
            acc_n = self.ambient.multiply(acc_n, self.u.inverse())
            for cand in (acc_p, acc_n):
                key = self.ambient.word_key(cand)
                if key < best_key:
                    best, best_key = cand, key
        return best

    def express(self, word):
        k = power_of(self.ambient, self.u, self.check_ambient(word))
        if k is None:
            return None
        return [(0, 1 if k > 0 else -1)] * abs(k)

    def order(self):
        return math.inf


class FreeFactorSubgroup(Subgroup):
    """Subgroup generated by a subset of the basis (free / free abelian) or
    a sub-collection of factors (free product)."""

    strategy = "FreeFactor"
    rep_exact = True

    def __init__(self, ambient, names):
        self.names = frozenset(names)
        for n in self.names:
            if not ambient.owns(n):
                raise MalformedWord(f"{n!r} is not a generator of {ambient.name}")
        if isinstance(ambient, FreeProductGroup):
            # must be a union of whole factors
            chosen = {ambient.factor_of(n) for n in self.names}
            for fi in chosen:
                missing = set(ambient.factors[fi].generators) - self.names
                if missing:
                    raise ValueError(
                        f"free-factor handle must take whole factors; missing {missing}"
                    )
            self.factor_indices = frozenset(chosen)
        elif not isinstance(ambient, (FreeGroup, FreeAbelianGroup)):
            raise ValueError("free-factor handles need a product-like ambient")
        super().__init__(ambient, tuple(
            Word(((n, 1),)) for n in sorted(self.names, key=ambient.generators.index)
        ))

    def contains(self, word):
        w = self.check_ambient(word)
        return YES if all(n in self.names for n, _ in w) else NO

    def coset_rep(self, word):
        w = self.check_ambient(word)
        if isinstance(self.ambient, FreeAbelianGroup):
            exps = list(self.ambient.exponents(w))
            for i, g in enumerate(self.ambient.generators):
                if g in self.names:
                    exps[i] = 0
            return self.ambient.normalize(self.ambient.word_from_exponents(exps))
        # free group / free product: strip the maximal trailing chunk
        letters = list(w)
        while letters and letters[-1][0] in self.names:
            letters.pop()
        return self.ambient.normalize(Word(letters))

    def express(self, word):
        w = self.check_ambient(word)
        if self.contains(w) != YES:
            return None
        idx = {self.generators[i][0][0]: i for i in range(len(self.generators))}
        return [(idx[name], sign) for name, sign in w]

    def order(self):
        if isinstance(self.ambient, FreeProductGroup):
            return free_product_order(self.ambient.factors[fi]
                                      for fi in self.factor_indices)
        return math.inf if self.names else 1

    def is_whole(self):
        return self.names == set(self.ambient.generators)


class SearchSubgroup(Subgroup):
    """Budgeted closure search; membership is yes / unknown (never a false no)."""

    strategy = "BudgetedSearch"
    rep_exact = False

    def __init__(self, ambient, generators, budget=DEFAULT_BUDGET):
        super().__init__(ambient, generators)
        self.budget = budget
        self._known = None

    def _known_ball(self):
        if self._known is None:
            # truncated closure: never spend more than a few thousand words
            steps = []
            for g in self.generators:
                steps.append(g)
                steps.append(g.inverse())
            seen = {self.ambient.identity()}
            frontier = list(seen)
            for _ in range(min(self.budget, 6)):
                nxt = []
                for e in frontier:
                    for s in steps:
                        f = self.ambient.multiply(e, s)
                        if f not in seen:
                            seen.add(f)
                            nxt.append(f)
                    if len(seen) > 4000:
                        nxt = []
                        break
                frontier = nxt
                if not frontier:
                    break
            self._known = seen
        return self._known

    def contains(self, word):
        w = self.check_ambient(word)
        if not w:
            return YES
        if w in self._known_ball():
            return YES
        return UNKNOWN

    def coset_rep(self, word):
        return self.check_ambient(word)

    def order(self):
        if not any(self.generators):
            return 1
        # free and free abelian groups are torsion-free
        if isinstance(self.ambient, (FreeGroup, FreeAbelianGroup)):
            return math.inf
        return None


class RestrictedSubgroup(Subgroup):
    """A subgroup of a distinguished factor, viewed inside an amalgam or an
    HNN extension.  Membership projects to the factor; coset representatives
    are the pinned prefix plus the inner representative of the trailing
    factor part (prefix-stable, hence exact whenever the inner handle is).
    """

    def __init__(self, ambient, inner: Subgroup, side: str):
        # side: "L"/"R" for amalgams, "base" for HNN extensions
        if side not in ambient.sides:
            raise GroupMismatch(
                f"side {side!r} is not a factor of {ambient.name}")
        factor = ambient.factor(side)
        if inner.ambient is not factor:
            raise GroupMismatch(
                f"inner subgroup lives in {inner.ambient.name}, "
                f"not in the {side} factor {factor.name}")
        self.inner = inner
        self.side = side
        super().__init__(ambient, inner.generators)

    @property
    def strategy(self):
        return self.inner.strategy

    @property
    def rep_exact(self):
        return self.inner.rep_exact

    def project(self, word):
        """The element as a word of the factor, or None if not in it."""
        prefix, part = self.ambient.factor_split(self.check_ambient(word),
                                                 self.side)
        return None if prefix else part

    def contains(self, word):
        fw = self.project(word)
        if fw is None:
            return NO
        return self.inner.contains(fw)

    def coset_rep(self, word):
        prefix, part = self.ambient.factor_split(self.check_ambient(word),
                                                 self.side)
        return self.ambient.normalize(
            self.ambient._spell(prefix, self.inner.coset_rep(part)))

    def elements(self):
        return [self.ambient.normalize(e) for e in self.inner.elements()]

    def ball(self, length):
        return sorted(
            {self.ambient.normalize(e) for e in self.inner.ball(length)},
            key=self.ambient.word_key,
        )

    def express(self, word):
        fw = self.project(word)
        if fw is None:
            return None
        return self.inner.express(fw)

    def order(self):
        return self.inner.order()


class JoinSubgroup(Subgroup):
    """The subgroup generated by one handle on each side of an amalgam, both
    containing the edge images.  Alternating-syllable membership and
    strip-based coset representatives are exact.
    """

    strategy = "AmalgamOfHandles"
    rep_exact = True

    def __init__(self, ambient: AmalgamGroup, inner_left: Subgroup,
                 inner_right: Subgroup):
        if not isinstance(ambient, AmalgamGroup):
            raise GroupMismatch(f"a join needs an amalgam, not {ambient.name}")
        for side, inner in (("L", inner_left), ("R", inner_right)):
            factor = ambient.factor(side)
            if inner.ambient is not factor:
                raise GroupMismatch(
                    f"join handle lives in {inner.ambient.name}, "
                    f"not in the {side} factor {factor.name}")
            emb = ambient.edge_embedding(side)
            for c in ambient.edge_group.generator_words():
                if inner.contains(emb.push(c)) != YES:
                    raise ValueError(
                        "join handle requires both sides to contain the edge images"
                    )
        self.inner = {"L": inner_left, "R": inner_right}
        gens = [ambient.normalize(g) for g in inner_left.generators]
        gens += [ambient.normalize(g) for g in inner_right.generators]
        super().__init__(ambient, gens)
        self._whole = False
        self._whole = all(self.contains(g) == YES
                          for g in ambient.generator_words())
        self._finite = None
        self._rep_cache = {}
        if inner_left.is_finite() and inner_right.is_finite():
            self._finite = FiniteSubgroup.closure(ambient, self.generators)

    def contains(self, word):
        if self._whole:
            self.check_ambient(word)
            return YES
        pinned, _tail = self.ambient.split_form(word)  # tail is in the edge group
        verdict = YES
        for side, rep in pinned:
            ans = self.inner[side].contains(rep)
            if ans == NO:
                return NO
            if ans == UNKNOWN:
                verdict = UNKNOWN
        return verdict

    def coset_rep(self, word):
        if self._whole:
            self.check_ambient(word)
            return self.ambient.identity()
        if self._finite is not None:
            return self._finite.coset_rep(word)
        w = self.check_ambient(word)
        rep = self._rep_cache.get(w)
        if rep is None:
            syls = list(self.ambient.split_form(w)[0])  # tail: in the edge group
            while syls and self.inner[syls[-1][0]].contains(syls[-1][1]) == YES:
                syls.pop()
            tail = Word()
            if syls:
                side, last = syls.pop()
                tail = self.inner[side].coset_rep(last)
            rep = self._rep_cache[w] = self.ambient.normalize(
                self.ambient._spell(syls, tail))
        return rep

    def elements(self):
        if self._finite is not None:
            return self._finite.elements()
        return super().elements()

    def order(self):
        # the join holds both sides; short of an infinite one, either the
        # closure cap was hit or a side is undecided
        if self._finite is not None:
            return self._finite.order()
        sides = {h.is_finite() for h in self.inner.values()}
        return math.inf if False in sides else None

    def is_whole(self):
        return self._whole


class ConjugateSubgroup(Subgroup):
    """g H g^{-1} for an existing handle H."""

    def __init__(self, base: Subgroup, by):
        self.base = base
        self.by = base.ambient.normalize(by)
        gens = [base.ambient.multiply(self.by, g, self.by.inverse())
                for g in base.generators]
        super().__init__(base.ambient, gens)

    @property
    def strategy(self):
        return self.base.strategy

    @property
    def rep_exact(self):
        return self.base.rep_exact

    def _pull(self, word):
        return self.ambient.multiply(self.by.inverse(), word, self.by)

    def contains(self, word):
        return self.base.contains(self._pull(self.check_ambient(word)))

    def coset_rep(self, word):
        inner_rep = self.base.coset_rep(self._pull(self.check_ambient(word)))
        return self.ambient.multiply(self.by, inner_rep, self.by.inverse())

    def elements(self):
        return sorted(
            (self.ambient.multiply(self.by, e, self.by.inverse())
             for e in self.base.elements()),
            key=self.ambient.word_key,
        )

    def order(self):
        return self.base.order()

    def is_whole(self):
        return self.base.is_whole()


class ImageSubgroup(Subgroup):
    """Image of a monomorphism, when it cannot be simplified structurally."""

    strategy = "ImageUnderMonomorphism"
    rep_exact = False

    def __init__(self, mono):
        self.mono = mono
        gens = [mono.push(g) for g in mono.domain.generators]
        super().__init__(mono.codomain.ambient, gens)

    def contains(self, word):
        w = self.check_ambient(word)
        if not w:
            return YES
        if self.mono.preimage(w) is not None:
            return YES
        return UNKNOWN

    def coset_rep(self, word):
        return self.check_ambient(word)

    def order(self):
        return self.mono.domain.order()


# -- factories ----------------------------------------------------------------


def trivial(ambient) -> TrivialSubgroup:
    return TrivialSubgroup(ambient)


def whole(ambient) -> WholeSubgroup:
    return WholeSubgroup(ambient)


def cyclic(ambient, generator) -> Subgroup:
    """<generator>, closed when its order is finite: exact but in amalgams and
    HNN extensions, where a closure past 512 elements means infinite."""
    u = ambient.normalize(generator)
    n = ambient.order() if ambient.is_finite() else math.inf if u else 1
    if n == math.inf and isinstance(ambient, FreeProductGroup):
        # reduce cyclically: two syllables or more left have infinite order,
        # and one has the order it has in its factor
        syl = ambient.syllables(u)
        while len(syl) > 1 and syl[0][0] == syl[-1][0]:
            k = syl[0][0]
            merged = ambient.factors[k].normalize(syl[-1][1] * syl[0][1])
            syl = syl[1:-1] + ([(k, merged)] if merged else [])
        if len(syl) == 1:
            n = cyclic(ambient.factors[syl[0][0]], syl[0][1]).order()
    elif n == math.inf and not isinstance(ambient, (FreeGroup,
                                                    FreeAbelianGroup)):
        closed = FiniteSubgroup.closure(ambient, [u])
        if closed is not None:
            return closed
    if n == math.inf:
        return CyclicSubgroup(ambient, u)
    return FiniteSubgroup.closure(ambient, [u], cap=n + 1)


def free_factor(ambient, names) -> FreeFactorSubgroup:
    return FreeFactorSubgroup(ambient, names)


def generated(ambient, generators, budget=DEFAULT_BUDGET) -> Subgroup:
    """Best exact handle for the generators, else a budgeted search."""
    gens = [ambient.normalize(g) for g in generators]
    gens = [g for g in gens if g]
    if not gens:
        return TrivialSubgroup(ambient)
    if len(gens) == 1:
        return cyclic(ambient, gens[0])
    # free and free abelian groups are torsion-free: nontrivial generators
    # generate an infinite subgroup, so a closure search could only fail;
    # in a finite ambient the closure always ends
    if not isinstance(ambient, (FreeGroup, FreeAbelianGroup)):
        cap = ambient.order() + 1 if ambient.is_finite() else 512
        closed = FiniteSubgroup.closure(ambient, gens, cap=cap)
        if closed is not None:
            return closed
    names = {n for g in gens for n, _ in g}
    try:
        handle = FreeFactorSubgroup(ambient, names)
    except (ValueError, MalformedWord):
        handle = None
    if handle is not None and all(
        len(g) == 1 and g[0][1] == 1 for g in gens
    ) and names == {g[0][0] for g in gens}:
        return handle
    return SearchSubgroup(ambient, gens, budget)


def same_subgroup(s: Subgroup, h: Subgroup) -> bool:
    """Equal generator tuples in one ambient, or each handle contains the
    other's generators (``h`` is asked about ``s``'s generators first).

    Every handle's ``generators`` generate its subgroup, so equal tuples in
    the same ambient name the same subgroup, whatever the handle classes.
    """
    return (s.ambient is h.ambient and s.generators == h.generators) or (
        all(h.contains(g) == YES for g in s.generators)
        and all(s.contains(g) == YES for g in h.generators))


class Monomorphism:
    """An injection of one subgroup into another, by generator images."""

    def __init__(self, domain: Subgroup, codomain: Subgroup, images):
        self.domain = domain
        self.codomain = codomain
        # keep the images as written: factor inclusions stay recognizably
        # letter-for-letter (normal forms may prefer the other side's letters)
        self.images = tuple(Word.coerce(w) for w in images)
        if len(self.images) != len(domain.generators):
            raise ValueError("one image per domain generator required")
        # the letters each (generator index, sign) of an expression becomes
        self._subst = {(i, sign): img if sign > 0 else img.inverse()
                       for i, img in enumerate(self.images) for sign in (1, -1)}
        self._push_memo: dict = {}
        self._preimage_cache: dict = {}
        self._finite_map = None
        # letter-for-letter maps invert by substitution: each image letter
        # (name, sign) becomes its domain generator or that one's inverse
        self._letter_inverse = None
        if all(len(img) == 1 and img[0][1] == 1 for img in self.images):
            names = [img[0][0] for img in self.images]
            if len(set(names)) == len(names):
                self._letter_inverse = {
                    (name, sign): gen if sign > 0 else gen.inverse()
                    for name, gen in zip(names, self.domain.generators)
                    for sign in (1, -1)}

    @property
    def domain_group(self):
        return self.domain.ambient

    def push(self, word):
        """Image of a domain-subgroup element (a domain-ambient word), or
        None when the element is not in the domain subgroup.

        Each element is pushed once: the memo is keyed by the domain
        ambient's interned normal form, so every spelling of an element
        shares one entry, and a repeat costs that ``normalize`` and one
        dict lookup.  A first push expresses the element over the domain
        generators and builds the image in one pass, one ``Word`` of image
        and inverse-image letters normalized once, linear in the length of
        the expression.  A word the domain ambient cannot normalize is not
        kept: it is expressed as given, which raises or answers as it
        would without the memo."""
        try:
            key = self.domain.ambient.normalize(word)
        except (ForgeError, TypeError, ValueError):
            return self._image(self.domain.express(word))
        if key not in self._push_memo:
            self._push_memo[key] = self._image(self.domain.express(key))
        return self._push_memo[key]

    def _image(self, expr):
        if expr is None:
            return None
        return self.codomain.ambient.normalize(
            Word([l for step in expr for l in self._subst[step]]))

    def _build_finite_map(self):
        table = {}
        for e in self.domain.elements():
            table[self.push(e)] = e
        return table

    def preimage(self, word):
        """Domain word mapping to the given codomain element, or None; kept
        per codomain normal form.  A letter-for-letter map substitutes in
        one pass, one ``Word`` of domain generators and their inverses
        normalized once, and confirms the candidate by ``push``."""
        w = self.codomain.ambient.normalize(word)
        if w in self._preimage_cache:
            return self._preimage_cache[w]
        result = None
        if self.domain.is_finite():
            if self._finite_map is None:
                self._finite_map = self._build_finite_map()
            result = self._finite_map.get(w)
        elif self._letter_inverse is not None:
            inv = self._letter_inverse
            if all(letter in inv for letter in w):
                cand = self.domain.ambient.normalize(
                    Word([l for letter in w for l in inv[letter]]))
                if self.push(cand) == w:
                    result = cand
        elif len(self.domain.generators) == 1:
            k = power_of(self.codomain.ambient, self.images[0], w)
            if k is not None:
                result = self.domain.ambient.normalize(
                    self.domain.generators[0].power(k)
                )
        else:
            for cand in self.domain.ball(min(DEFAULT_BUDGET, 6)):
                if self.push(cand) == w:
                    result = cand
                    break
        self._preimage_cache[w] = result
        return result

    def __repr__(self):
        imgs = ", ".join(f"{d} -> {i}" for d, i in zip(self.domain.generators, self.images))
        return f"<Monomorphism {self.domain.ambient.name} -> {self.codomain.ambient.name}: {imgs}>"


def check_monomorphism(mono: Monomorphism, budget=DEFAULT_BUDGET):
    """("verified" | "refuted" | "unknown", witness).

    Exact for finite domains; otherwise certified on the generator ball of
    the given radius.  A refutation witness is a domain pair or element.
    """
    dom = mono.domain
    finite = dom.is_finite()
    try:
        elems = dom.elements() if finite else dom.ball(min(budget, 6))
    except BudgetExceeded:
        return ("unknown", None)
    images = {}
    pushed = []
    for e in elems:
        img = mono.push(e)
        if img is None:
            return ("unknown", e)
        if img in images and images[img] != e:
            return ("refuted", (images[img], e))
        images[img] = e
        pushed.append(img)
    amb = mono.codomain.ambient
    pair_cap = 2500
    count = 0
    for u, pu in zip(elems, pushed):
        for v, pv in zip(elems, pushed):
            count += 1
            if count > pair_cap:
                return ("verified" if finite is False else "unknown", None)
            prod = dom.ambient.multiply(u, v)
            lhs = mono.push(prod)
            rhs = amb.multiply(pu, pv)
            if lhs is None:
                return ("unknown", prod)
            if lhs != rhs:
                return ("refuted", (u, v))
    return ("verified", None)


def _certify(mono):
    status, witness = check_monomorphism(mono)
    if status == "refuted":
        raise MonomorphismUnverified(f"injection refuted: witness {witness}")
    if status == "unknown":
        raise MonomorphismUnverified(
            "injection not certified at budget; trust_monomorphisms skips "
            "this check")


def build_amalgam(name, left, right, into_left, into_right, *,
                  trust_monomorphisms=False):
    """Amalgamated product; refuses injections it cannot certify."""
    if into_left.domain_group is not into_right.domain_group:
        raise MonomorphismUnverified("edge injections must share their domain")
    if not trust_monomorphisms:
        _certify(into_left)
        _certify(into_right)
    return AmalgamGroup(name, left, right, into_left.domain_group,
                        into_left, into_right)


def build_hnn(name, base, edge_handle, iso, stable, *,
              trust_monomorphisms=False):
    """HNN extension; refuses injections it cannot certify."""
    if iso.domain is not edge_handle:
        raise MonomorphismUnverified("the isomorphism must be defined on the edge handle")
    if not trust_monomorphisms:
        _certify(iso)
    return HNNGroup(name, base, edge_handle, iso, stable)
