"""Relative presentations over a free product of a free group with the
peripheral subgroups, the two rewriting constructions for amalgams and HNN
extensions, and a capped brute-force isoperimetric table.

Words live over a two-sorted alphabet: plain letters from the generating
set, and peripheral letters, each an element of one peripheral subgroup
stored as a word of the ambient group.  Free reduction merges adjacent
letters of one peripheral through the subgroup's own multiplication, so
equality in the free product is decidable whenever the peripherals' ambient
groups have canonical forms.  ``normalize`` reduces any word; ``product`` and
``inverse`` take normal forms only (two normal forms change only where they
meet), and ``dehn_bruteforce`` costs one ``product`` per word it enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import KLNotDistinct
from .groups import Group
from .subgroups import Subgroup
from .words import Word


class SToken(NamedTuple):
    name: str
    sign: int

    def inverse(self):
        return SToken(self.name, -self.sign)


class HToken(NamedTuple):
    peripheral: str
    value: tuple  # letters of a word in the peripheral's ambient group


class FPWord(tuple):
    """A word in the free product of the letter group with the peripherals."""

    __slots__ = ()

    def __new__(cls, tokens=()):
        return super().__new__(cls, tuple(tokens))

    def __mul__(self, other) -> "FPWord":
        return FPWord(tuple.__add__(self, other))


@dataclass
class RelPresentation:
    """letters + peripherals + relators presenting a group relative to the
    peripheral collection."""

    letters: tuple
    peripherals: dict          # label -> Subgroup handle
    relators: list             # of FPWord

    def normalize(self, word: FPWord) -> FPWord:
        """Free-product normal form: each peripheral value normalized in its
        ambient group, identities dropped, and the letters multiplied in one
        at a time by ``product``."""
        out = FPWord()
        for tok in word:
            if isinstance(tok, HToken):
                ambient = self.peripherals[tok.peripheral].ambient
                value = tuple(ambient.normalize(Word(tok.value)))
                if not value:
                    continue
                tok = HToken(tok.peripheral, value)
            out = self.product(out, (tok,))
        return out

    def product(self, u: FPWord, v: FPWord) -> FPWord:
        """The normal form of ``u v`` for normal forms ``u`` and ``v``: a
        stack pass from ``u`` that stops at the first letter of ``v`` that
        neither cancels nor merges, as the rest of ``v`` is reduced."""
        k, i = len(u), 0
        while k and i < len(v):
            top, tok = u[k - 1], v[i]
            if isinstance(tok, SToken):
                if top != tok.inverse():
                    break
            elif isinstance(top, HToken) and top.peripheral == tok.peripheral:
                ambient = self.peripherals[tok.peripheral].ambient
                value = ambient.multiply(top.value, tok.value)
                if value:
                    merged = HToken(tok.peripheral, tuple(value))
                    return FPWord(u[:k - 1] + (merged,) + v[i + 1:])
            else:
                break
            k, i = k - 1, i + 1
        return FPWord(u[:k] + v[i:])

    def inverse(self, word: FPWord) -> FPWord:
        """The normal form of ``word``⁻¹ for a normal form ``word``: tokens
        reversed, each sign flipped and each peripheral value inverted in
        its ambient group."""
        return FPWord(t.inverse() if isinstance(t, SToken) else HToken(
            t.peripheral,
            tuple(self.peripherals[t.peripheral].ambient.inverse(t.value)))
            for t in reversed(word))

    def parse(self, text: str) -> FPWord:
        """"b H(a·a) b^-1" style: plain letters by name, peripheral letters
        as label(word) with ``·`` between the word's letters.  Raises
        ``ValueError`` for an unbalanced or undeclared letter or a bad
        word, ``MalformedWord`` for a foreign letter in a peripheral word."""
        toks = []
        for chunk in text.split():
            if "(" in chunk or ")" in chunk:
                label, _, rest = chunk.partition("(")
                inner = rest[:-1]
                if not label or not rest.endswith(")") \
                        or "(" in inner or ")" in inner:
                    raise ValueError(f"unbalanced peripheral letter {chunk!r}")
                if label not in self.peripherals:
                    raise ValueError(f"undeclared peripheral {label!r}")
                word = Word.parse(inner.replace("·", " "))
                self.peripherals[label].ambient.check_word(word)
                toks.append(HToken(label, tuple(word)))
                continue
            tok = SToken(chunk[: -len("^-1")], -1) if chunk.endswith("^-1") \
                else SToken(chunk, 1)
            if tok.name not in self.letters:
                raise ValueError(f"undeclared letter {tok.name!r}")
            toks.append(tok)
        return FPWord(toks)

    def token_alphabet(self, h_ball: int):
        """Every letter with peripheral values drawn from handle balls."""
        letters = []
        for name in self.letters:
            letters.append(SToken(name, 1))
            letters.append(SToken(name, -1))
        for label, handle in self.peripherals.items():
            seen = set()
            for w in handle.ball(h_ball):
                if w and tuple(w) not in seen:
                    seen.add(tuple(w))
                    letters.append(HToken(label, tuple(w)))
        return letters


def evaluate(group: Group, word: FPWord) -> Word:
    """Evaluate a free-product word in the presented group: a plain letter
    is the same-named generator, a peripheral letter its stored word."""
    acc = Word()
    for tok in word:
        if isinstance(tok, SToken):
            acc = acc * Word(((tok.name, tok.sign),))
        else:
            acc = acc * Word(tok.value)
    return group.normalize(acc)


@dataclass
class RelatorReport:
    passed: bool
    failures: list


def verify_relators(pres: RelPresentation, group: Group) -> RelatorReport:
    """Soundness half: every relator evaluates to the identity."""
    failures = []
    for rel in pres.relators:
        value = evaluate(group, rel)
        if value:
            failures.append((rel, value))
    return RelatorReport(not failures, failures)


def absorb(pres: RelPresentation, sub_labels, target_label: str,
           target_handle: Subgroup) -> RelPresentation:
    """Collapse the peripherals in ``sub_labels`` into the single peripheral
    ``target_label``, the subgroup they present: every relator is rewritten
    by retagging their letters into the new peripheral."""
    sub_labels = set(sub_labels)
    peripherals = {lab: h for lab, h in pres.peripherals.items()
                   if lab not in sub_labels}
    peripherals[target_label] = target_handle

    def retag(tok):
        if isinstance(tok, HToken) and tok.peripheral in sub_labels:
            return HToken(target_label, tok.value)
        return tok

    out = RelPresentation(pres.letters, peripherals, [])
    out.relators = [out.normalize(FPWord(retag(t) for t in rel))
                    for rel in pres.relators]
    return out


def amalgam_presentation(pres_left: RelPresentation, left_label: str,
                         pres_right: RelPresentation, right_label: str,
                         amalgam, join_handle: Subgroup,
                         join_label="KK") -> RelPresentation:
    """Presentation of an amalgamated product relative to the join of the
    two distinguished peripherals.

    The edge identifications present the join, so the combined relator list
    is exactly the union of the two inputs (their distinguished-peripheral
    letters retagged, with values re-read inside the amalgam).
    """
    letters = tuple(pres_left.letters) + tuple(pres_right.letters)
    sides = (("L", pres_left), ("R", pres_right))
    combined = RelPresentation(
        letters,
        {f"{prefix}:{k}": v for prefix, pres in sides
         for k, v in pres.peripherals.items()},
        [FPWord(HToken(f"{prefix}:{t.peripheral}", t.value)
                if isinstance(t, HToken) else t for t in rel)
         for prefix, pres in sides for rel in pres.relators],
    )
    return absorb(combined, [f"L:{left_label}", f"R:{right_label}"],
                  join_label, join_handle)


def hnn_presentation(pres: RelPresentation, k_label: str, l_label: str,
                     hnn, join_handle: Subgroup,
                     join_label="KtL") -> RelPresentation:
    """Presentation of an HNN extension relative to the join of the
    conjugated subgroup and the image.

    Every letter of the K-peripheral is rewritten as t^-1 (t k t^-1) t with
    the conjugate read inside the join; the relator count is unchanged.
    """
    if k_label == l_label:
        raise KLNotDistinct("the two distinguished peripherals must differ")
    t = hnn.stable
    stable_letter = SToken(t, 1)

    def rewrite(tok):
        if isinstance(tok, HToken) and tok.peripheral == k_label:
            conj = hnn.normalize(Word(((t, 1),)) * Word(tok.value) * Word(((t, -1),)))
            return [stable_letter.inverse(),
                    HToken(k_label, tuple(conj)),
                    stable_letter]
        return [tok]

    out = RelPresentation(
        tuple(pres.letters) + (t,), dict(pres.peripherals),
        [FPWord(part for tok in rel for part in rewrite(tok))
         for rel in pres.relators])
    absorbed = absorb(out, [k_label, l_label], join_label, join_handle)
    assert len(absorbed.relators) == len(pres.relators)
    return absorbed


# -- brute-force isoperimetry ---------------------------------------------------


@dataclass
class DehnEntry:
    length: int
    value: int
    exact: bool
    capped_words: int = 0

    def flag(self):
        return "exact" if self.exact else "lower-bound"


@dataclass
class DehnTable:
    entries: list
    h_ball: int
    conjugator_cap: int
    fill_cap: int

    def value(self, n):
        return next(e.value for e in self.entries if e.length == n)


def _fewest_factors(pres, factors, radius) -> dict:
    """Each product of at most ``radius`` of the normal forms ``factors``,
    breadth first, with the fewest factors that reach it."""
    found = {FPWord(): 0}
    frontier = [FPWord()]
    for depth in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for f in factors:
                cand = pres.product(w, f)
                if cand not in found:
                    found[cand] = depth
                    nxt.append(cand)
        frontier = nxt
    return found


def dehn_bruteforce(pres: RelPresentation, group: Group, max_length: int,
                    *, fill_cap=3, conjugator_cap=3, h_ball=1) -> DehnTable:
    """Minimal relator-fill counts for every short trivial word.

    Words are enumerated over plain letters and peripheral letters from a
    generator ball (the declared ``h_ball``), and fillings multiply up to
    ``fill_cap`` conjugated relators (or inverses) with conjugators from the
    free-product ball of radius ``conjugator_cap``.  Entries where a cap
    bound the search are flagged per entry, never silently.

    Only relators and letters are normalized; every other normal form is a
    ``product`` or ``inverse`` of normal forms.  Words are walked depth
    first, one prefix per depth, each extending its prefix's normal form
    and group element: one product and one group multiply per word of
    length at most ``max_length``, plus ``min_fill``'s peels of the trivial
    ones.
    """
    letters = pres.token_alphabet(h_ball)
    alphabet = [pres.normalize(FPWord((tok,))) for tok in letters]
    relator_pool = []
    for rel in pres.relators:
        nf = pres.normalize(rel)
        relator_pool.append(nf)
        relator_pool.append(pres.inverse(nf))

    pieces = []
    seen_pieces = set()
    for c in _fewest_factors(pres, alphabet, conjugator_cap):
        for r in relator_pool:
            piece = pres.product(pres.inverse(c), pres.product(r, c))
            if piece not in seen_pieces:
                seen_pieces.add(piece)
                pieces.append(piece)

    # minimal factor counts: tabulate products of at most two pieces, then
    # peel leading pieces off a query for the deeper fills
    table_depth = min(2, fill_cap)
    fills = _fewest_factors(pres, pieces, table_depth)
    inverses = [pres.inverse(p) for p in pieces]

    def min_fill(target):
        layer = {target}
        best = None
        for peeled in range(0, fill_cap - table_depth + 1):
            found = min((fills[w] + peeled for w in layer if w in fills),
                        default=None)
            if found is not None and (best is None or found < best):
                best = found
            if best is not None and best <= peeled + 1:
                break  # deeper peels cannot improve on this
            if peeled < fill_cap - table_depth:
                layer = {pres.product(inv, w)
                         for w in layer for inv in inverses}
        if best is not None and best <= fill_cap:
            return best
        return None

    steps = [(nf, evaluate(group, FPWord((tok,))))
             for tok, nf in zip(letters, alphabet)]
    capped = [0] * (max_length + 1)   # per length
    worst = [0] * (max_length + 1)    # largest fill found at each length
    # depth first by prefix: one (normal form, group element, letters left
    # to append) per depth
    stack = [(FPWord(), group.identity(), iter(steps))] \
        if max_length > 0 else []
    while stack:
        prefix, element, todo = stack[-1]
        n = len(stack)
        for tok, letter in todo:
            word = pres.product(prefix, tok)
            value = group.multiply(element, letter)
            if word and not value:  # trivial in G, not in the free product
                fill = min_fill(word)
                if fill is None:
                    capped[n] += 1
                else:
                    worst[n] = max(worst[n], fill)
            if n < max_length:
                stack.append((word, value, iter(steps)))
                break
        else:
            stack.pop()

    entries = [DehnEntry(n, max(worst[:n + 1]), exact=(capped[n] == 0),
                         capped_words=capped[n])
               for n in range(1, max_length + 1)]
    return DehnTable(entries, h_ball, conjugator_cap, fill_cap)
