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
"""

from __future__ import annotations

from collections import deque

from .errors import (
    BudgetExceeded,
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
)
from .words import NormalForm, Word

YES, NO, UNKNOWN = "yes", "no", "unknown"

DEFAULT_BUDGET = 12
_ORDER_PROBE = 128


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

    def __init__(self, ambient: Group, generators=(), budget=DEFAULT_BUDGET):
        self.ambient = ambient
        self.generators = tuple(ambient.normalize(g) for g in generators)
        self.budget = budget

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
        """Complete element list; only for finite handles."""
        raise BudgetExceeded(f"{self!r} cannot list all elements")

    def ball(self, length: int):
        """Deterministic products of at most ``length`` handle generators."""
        return ball_enumerate(self.ambient, self.generators, length)

    def sample(self, word_budget: int):
        """(elements, complete) for window materialization (memoized)."""
        cache = getattr(self, "_sample_cache", None)
        if cache is None:
            cache = self._sample_cache = {}
        if word_budget not in cache:
            if self.is_finite():
                cache[word_budget] = (self.elements(), True)
            else:
                cache[word_budget] = (self.ball(word_budget), False)
        return cache[word_budget]

    # -- structure -------------------------------------------------------------

    def express(self, word):
        """Decomposition over handle generators as (index, sign) pairs, or None."""
        return None

    def is_finite(self):
        return None

    def order(self):
        return None

    def is_whole(self) -> bool:
        return False

    def is_trivial(self) -> bool:
        return False

    def schema_key(self):
        return (type(self).__name__, self.ambient.name,
                tuple(str(g) for g in self.generators))

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

    def elements(self):
        return [self.ambient.identity()]

    def express(self, word):
        return [] if not self.check_ambient(word) else None

    def is_finite(self):
        return True

    def order(self):
        return 1

    def is_trivial(self):
        return True


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
        raise BudgetExceeded(f"{self.ambient.name} is not enumerable")

    def express(self, word):
        idx = {g: i for i, g in enumerate(self.ambient.generators)}
        return [(idx[name], sign) for name, sign in self.ambient.normalize(word)]

    def is_finite(self):
        return self.ambient.is_finite()

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
        self._rep_cache = {}

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
        cached = self._rep_cache.get(w)
        if cached is None:
            cached = min(
                (self.ambient.multiply(w, h) for h in self._elements),
                key=self.ambient.word_key,
            )
            self._rep_cache[w] = cached
        return cached

    def elements(self):
        return list(self._elements)

    def express(self, word):
        return self._expr.get(self.check_ambient(word))

    def is_finite(self):
        return True

    def order(self):
        return len(self._elements)

    def is_trivial(self):
        return len(self._elements) == 1

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
        """The generator's letter name when it is a single letter inside an
        abelian or rank-one factor, else None."""
        if len(self.u) != 1 or self.u[0][1] != 1:
            return None
        name = self.u[0][0]
        amb = self.ambient
        if isinstance(amb, (FreeAbelianGroup, FreeGroup)):
            return name
        if isinstance(amb, FreeProductGroup):
            fac = amb.factors[amb.factor_of(name)]
            if isinstance(fac, FreeAbelianGroup) or len(fac.generators) == 1:
                return name
        return None

    def coset_rep(self, word):
        w = self.check_ambient(word)
        cached = self._rep_cache.get(w)
        if cached is None:
            name = self._letter
            if name is None:
                cached = self._scan_rep(w)
            elif isinstance(self.ambient, FreeAbelianGroup):
                cached = self.ambient.normalize(Word(
                    l for l in w if l[0] != name))
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

    def ball(self, length):
        out = [self.ambient.identity()]
        for k in range(1, length + 1):
            out.append(self.ambient.normalize(self.u.power(k)))
            out.append(self.ambient.normalize(self.u.power(-k)))
        return sorted(out, key=self.ambient.word_key)

    def is_finite(self):
        return False


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

    def _in_factor(self, letter_name):
        return letter_name in self.names

    def contains(self, word):
        w = self.check_ambient(word)
        return YES if all(self._in_factor(n) for n, _ in w) else NO

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
        while letters and self._in_factor(letters[-1][0]):
            letters.pop()
        return self.ambient.normalize(Word(letters))

    def elements(self):
        if self.is_finite():
            return self.ball(max(self.ambient.factors[fi].order()
                                 for fi in self.factor_indices) + 1)
        raise BudgetExceeded(f"{self!r} is infinite")

    def express(self, word):
        w = self.check_ambient(word)
        if self.contains(w) != YES:
            return None
        idx = {self.generators[i][0][0]: i for i in range(len(self.generators))}
        return [(idx[name], sign) for name, sign in w]

    def is_finite(self):
        if isinstance(self.ambient, FreeProductGroup):
            subs = [self.ambient.factors[fi] for fi in self.factor_indices]
            nontriv = [f for f in subs if f.order() != 1]
            if not nontriv:
                return True
            if len(nontriv) == 1:
                return nontriv[0].is_finite()
            return False
        return len(self.names) == 0

    def is_whole(self):
        return self.names == set(self.ambient.generators)


class SearchSubgroup(Subgroup):
    """Budgeted closure search; membership is yes / unknown (never a false no)."""

    strategy = "BudgetedSearch"
    rep_exact = False

    def __init__(self, ambient, generators, budget=DEFAULT_BUDGET):
        super().__init__(ambient, generators, budget)
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

    def is_finite(self):
        return None


class RestrictedSubgroup(Subgroup):
    """A subgroup of a distinguished factor, viewed inside an amalgam or an
    HNN extension.  Membership projects to the factor; coset representatives
    are the pinned prefix plus the inner representative of the trailing
    factor part (prefix-stable, hence exact whenever the inner handle is).
    """

    def __init__(self, ambient, inner: Subgroup, side: str):
        # side: "L"/"R" for amalgams, "base" for HNN extensions
        if side == "base":
            if not isinstance(ambient, HNNGroup):
                raise GroupMismatch(
                    f"side 'base' needs an HNN extension, not {ambient.name}")
            factor = ambient.base
        elif side in ("L", "R"):
            if not isinstance(ambient, AmalgamGroup):
                raise GroupMismatch(
                    f"side {side!r} needs an amalgam, not {ambient.name}")
            factor = ambient.factor(side)
        else:
            raise GroupMismatch(
                f"side must be 'L', 'R' or 'base', not {side!r}")
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
        w = self.check_ambient(word)
        if self.side == "base":
            return self.ambient.base_word(w)
        return self.ambient.factor_word(w, self.side)

    def contains(self, word):
        fw = self.project(word)
        if fw is None:
            return NO
        return self.inner.contains(fw)

    def coset_rep(self, word):
        w = self.check_ambient(word)
        cache = getattr(self, "_rep_cache", None)
        if cache is None:
            cache = self._rep_cache = {}
        cached = cache.get(w)
        if cached is not None:
            return cached
        if self.side == "base":
            pinned, tail = self.ambient.britton_form(w)
            prefix = Word()
            for tau, eps in pinned:
                prefix = prefix * tau * Word(((self.ambient.stable, eps),))
            rep = self.ambient.normalize(prefix * self.inner.coset_rep(tail))
        else:
            pinned, tail = self.ambient.pinned_form(w)
            factor = self.ambient.factor(self.side)
            tail_img = self.ambient.edge_embedding(self.side).push(tail)
            if pinned and pinned[-1][0] == self.side:
                part = factor.multiply(pinned[-1][1], tail_img)
                pinned = pinned[:-1]
            else:
                part = factor.normalize(tail_img)
            prefix = Word()
            for _, srep in pinned:
                prefix = prefix * srep
            rep = self.ambient.normalize(prefix * self.inner.coset_rep(part))
        cache[w] = rep
        return rep

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

    def is_finite(self):
        return self.inner.is_finite()

    def order(self):
        return self.inner.order()

    def is_trivial(self):
        return self.inner.is_trivial()

    def is_whole(self):
        return False

    def schema_key(self):
        return ("Restricted", self.side, self.inner.schema_key())


class JoinSubgroup(Subgroup):
    """The subgroup generated by one handle on each side of an amalgam, both
    containing the edge images.  Alternating-syllable membership and
    strip-based coset representatives are exact.
    """

    strategy = "AmalgamOfHandles"
    rep_exact = True

    def __init__(self, ambient: AmalgamGroup, inner_left: Subgroup,
                 inner_right: Subgroup, budget=DEFAULT_BUDGET):
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
        super().__init__(ambient, gens, budget)
        self._whole = False
        self._whole = all(self.contains(g) == YES
                          for g in ambient.generator_words())
        self._finite = None
        if inner_left.is_finite() and inner_right.is_finite():
            self._finite = FiniteSubgroup.closure(ambient, self.generators)

    def contains(self, word):
        if self._whole:
            self.check_ambient(word)
            return YES
        pinned, _tail = self.ambient.pinned_form(word)  # tail is in the edge group
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
        cache = getattr(self, "_rep_cache", None)
        if cache is None:
            cache = self._rep_cache = {}
        cached = cache.get(w)
        if cached is not None:
            return cached
        pinned, _tail = self.ambient.pinned_form(w)
        syls = list(pinned)
        while syls and self.inner[syls[-1][0]].contains(syls[-1][1]) == YES:
            syls.pop()
        if not syls:
            rep = self.ambient.identity()
        else:
            side, last = syls[-1]
            pinned_last = self.inner[side].coset_rep(last)
            out = Word()
            for _, srep in syls[:-1]:
                out = out * srep
            rep = self.ambient.normalize(out * pinned_last)
        cache[w] = rep
        return rep

    def elements(self):
        if self._finite is not None:
            return self._finite.elements()
        raise BudgetExceeded(f"{self!r} is infinite")

    def is_finite(self):
        if self._finite is not None:
            return True
        if self.inner["L"].is_finite() and self.inner["R"].is_finite():
            return None  # closure cap exceeded
        return False

    def order(self):
        return self._finite.order() if self._finite is not None else None

    def is_whole(self):
        return self._whole

    def schema_key(self):
        return ("Join", self.inner["L"].schema_key(), self.inner["R"].schema_key())


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

    def is_finite(self):
        return self.base.is_finite()

    def order(self):
        return self.base.order()

    def is_trivial(self):
        return self.base.is_trivial()

    def is_whole(self):
        return self.base.is_whole()

    def schema_key(self):
        return ("Conjugate", str(self.by), self.base.schema_key())


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

    def is_finite(self):
        return self.mono.domain.is_finite()


# -- factories ----------------------------------------------------------------


def trivial(ambient) -> TrivialSubgroup:
    return TrivialSubgroup(ambient)


def whole(ambient) -> WholeSubgroup:
    return WholeSubgroup(ambient)


def cyclic(ambient, generator) -> Subgroup:
    u = ambient.normalize(generator)
    acc = ambient.identity()
    for k in range(1, _ORDER_PROBE + 1):
        acc = ambient.multiply(acc, u)
        if not acc:
            return FiniteSubgroup.closure(ambient, [u], cap=k + 1)
    return CyclicSubgroup(ambient, u)


def free_factor(ambient, names) -> FreeFactorSubgroup:
    return FreeFactorSubgroup(ambient, names)


def finite_table_subgroup(ambient: FiniteGroup, elements) -> FiniteSubgroup:
    """Subgroup of a table group from an element subset (must be closed)."""
    elems = ambient.subgroup_closure(elements)
    words = [ambient.normalize(ambient.word_of(e)) for e in sorted(elems)]
    nontrivial = [w for w in words if w]
    return FiniteSubgroup.closure(ambient, nontrivial or [], cap=len(elems) + 1)


def generated(ambient, generators, budget=DEFAULT_BUDGET) -> Subgroup:
    """Best exact handle for the generators, else a budgeted search."""
    gens = [ambient.normalize(g) for g in generators]
    gens = [g for g in gens if g]
    if not gens:
        return TrivialSubgroup(ambient)
    # free and free abelian groups are torsion-free: nontrivial generators
    # generate an infinite subgroup, so a closure search could only fail
    if not isinstance(ambient, (FreeGroup, FreeAbelianGroup)):
        closed = FiniteSubgroup.closure(ambient, gens, cap=512)
        if closed is not None:
            return closed
    if len(gens) == 1:
        return cyclic(ambient, gens[0])
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


class Monomorphism:
    """An injection of one subgroup into another, by generator images."""

    def __init__(self, domain: Subgroup, codomain: Subgroup, images,
                 budget=DEFAULT_BUDGET):
        self.domain = domain
        self.codomain = codomain
        # keep the images as written: factor inclusions stay recognizably
        # letter-for-letter (normal forms may prefer the other side's letters)
        self.images = tuple(Word.coerce(w) for w in images)
        if len(self.images) != len(domain.generators):
            raise ValueError("one image per domain generator required")
        self.budget = budget
        self._preimage_cache: dict = {}
        self._finite_map = None
        # letter-for-letter maps invert by substitution
        self._letter_inverse = None
        if all(len(img) == 1 and img[0][1] == 1 for img in self.images):
            names = [img[0][0] for img in self.images]
            if len(set(names)) == len(names):
                self._letter_inverse = {
                    name: dom_gen for name, dom_gen
                    in zip(names, self.domain.generators)
                }

    @property
    def domain_group(self):
        return self.domain.ambient

    def push(self, word):
        """Image of a domain-subgroup element (a domain-ambient word)."""
        expr = self.domain.express(word)
        if expr is None:
            return None
        acc = Word()
        for i, sign in expr:
            acc = acc * (self.images[i] if sign > 0 else self.images[i].inverse())
        return self.codomain.ambient.normalize(acc)

    def _build_finite_map(self):
        table = {}
        for e in self.domain.elements():
            table[self.push(e)] = e
        return table

    def preimage(self, word):
        """Domain word mapping to the given codomain element, or None."""
        w = self.codomain.ambient.normalize(word)
        if w in self._preimage_cache:
            return self._preimage_cache[w]
        result = None
        if self.domain.is_finite():
            if self._finite_map is None:
                self._finite_map = self._build_finite_map()
            result = self._finite_map.get(w)
        elif self._letter_inverse is not None:
            if all(name in self._letter_inverse for name, _ in w):
                cand = Word()
                for name, sign in w:
                    img = self._letter_inverse[name]
                    cand = cand * (img if sign > 0 else img.inverse())
                cand = self.domain.ambient.normalize(cand)
                if self.push(cand) == w:
                    result = cand
        elif len(self.domain.generators) == 1:
            k = power_of(self.codomain.ambient, self.images[0], w)
            if k is not None:
                result = self.domain.ambient.normalize(
                    self.domain.generators[0].power(k)
                )
        else:
            for cand in self.domain.ball(min(self.budget, 6)):
                if self.push(cand) == w:
                    result = cand
                    break
        self._preimage_cache[w] = result
        return result

    def __repr__(self):
        imgs = ", ".join(f"{d} -> {i}" for d, i in zip(self.domain.generators, self.images))
        return f"<Monomorphism {self.domain.ambient.name} -> {self.codomain.ambient.name}: {imgs}>"


def check_monomorphism(mono: Monomorphism, budget=None):
    """("verified" | "refuted" | "unknown", witness).

    Exact for finite domains; otherwise certified on the generator ball of
    the given radius.  A refutation witness is a domain pair or element.
    """
    budget = budget or mono.budget
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


def subgroup_contains(handle: Subgroup, word) -> str:
    """Three-valued membership; `unknown` only from budgeted strategies."""
    return handle.contains(word)


def coset_rep(handle: Subgroup, word) -> NormalForm:
    return handle.coset_rep(word)
