"""G-sets as symbolic unions of coset spaces.

An orbit is a coset space G/H given by a stabilizer handle; an element is
an orbit id plus a coset representative.  Element equality is coset
equality, decided by the handle.  Induction along a subgroup inclusion and
pushouts of equivariant maps are the two constructions; pushouts record
enough provenance to certify stabilizers by chain factorization afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BudgetExceeded,
    GroupMismatch,
    NotAStabilizer,
    StabilizerNotContained,
)
from .groups import AmalgamGroup, FiniteGroup, Group, HNNGroup
from .subgroups import (
    ConjugateSubgroup,
    FiniteSubgroup,
    JoinSubgroup,
    Monomorphism,
    RestrictedSubgroup,
    Subgroup,
    YES,
    generated,
    trivial,
)
from .words import Word


@dataclass(frozen=True, slots=True)
class GSetElem:
    orbit_id: str
    rep: Word

    def __str__(self):
        return f"{self.orbit_id}[{self.rep}]"


@dataclass(frozen=True)
class Orbit:
    orbit_id: str
    stabilizer: Subgroup


class GSet:
    """A disjoint union of coset spaces of one group."""

    def __init__(self, group: Group, orbits):
        self.group = group
        self.orbits = list(orbits)
        self._by_id = {}
        for orb in self.orbits:
            if orb.orbit_id in self._by_id:
                raise ValueError(f"duplicate orbit id {orb.orbit_id!r}")
            if orb.stabilizer.ambient is not group:
                raise GroupMismatch(
                    f"stabilizer of {orb.orbit_id!r} lives over "
                    f"{orb.stabilizer.ambient.name}, not {group.name}"
                )
            self._by_id[orb.orbit_id] = orb

    def orbit_ids(self):
        return [o.orbit_id for o in self.orbits]

    def stabilizer(self, orbit_id) -> Subgroup:
        return self._by_id[orbit_id].stabilizer

    @property
    def orbit_count(self):
        return len(self.orbits)

    def elem(self, orbit_id, rep=()) -> GSetElem:
        stab = self.stabilizer(orbit_id)
        return GSetElem(orbit_id, stab.coset_rep(Word.coerce(rep)))

    def act(self, g, x: GSetElem) -> GSetElem:
        stab = self.stabilizer(x.orbit_id)
        return GSetElem(x.orbit_id, stab.coset_rep(self.group.multiply(g, x.rep)))

    def elem_equal(self, x: GSetElem, y: GSetElem) -> bool:
        if x.orbit_id != y.orbit_id:
            return False
        if x.rep == y.rep:
            return True
        stab = self.stabilizer(x.orbit_id)
        if stab.rep_exact:
            return False
        verdict = stab.contains(self.group.multiply(x.rep.inverse(), y.rep))
        if verdict == "unknown":
            raise BudgetExceeded(
                f"element equality undecided in orbit {x.orbit_id!r}"
            )
        return verdict == YES

    def elem_key(self, x: GSetElem):
        return (x.orbit_id, x.rep)

    def stabilizes(self, g, x: GSetElem) -> bool:
        return self.elem_equal(self.act(g, x), x)

    def elements(self):
        """All elements; only when every orbit is a finite coset space."""
        if not isinstance(self.group, FiniteGroup):
            raise BudgetExceeded(f"{self.group.name} is infinite")
        out = []
        for orb in self.orbits:
            seen = {}
            for e in self.group.elements():
                w = self.group.normalize(self.group.word_of(e))
                elem = self.elem(orb.orbit_id, w)
                seen.setdefault(self.elem_key(elem), elem)
            out.extend(sorted(seen.values(),
                              key=lambda el: self.group.word_key(el.rep)))
        return out

    def __repr__(self):
        return f"<GSet over {self.group.name}: {', '.join(self.orbit_ids())}>"


def collisions(gset: GSet, items):
    """``(label, earlier label)`` for every pair of equal elements among the
    ``(label, element)`` items, in the order a pairwise scan of each item
    against all earlier ones finds them.

    In an orbit with exact coset representatives two elements are equal iff
    their reps are, so such elements are matched through one hashed bucket
    per rep.  In any other orbit an element is compared with that orbit's
    earlier elements one by one, in order, so an undecided equality raises
    ``BudgetExceeded`` at the same pair as the pairwise scan.
    """
    out = []
    buckets = {}   # elem_key -> earlier labels (exact orbits)
    scans = {}     # orbit id -> earlier (label, element) (other orbits)
    for label, x in items:
        if gset.stabilizer(x.orbit_id).rep_exact:
            earlier = buckets.setdefault(gset.elem_key(x), [])
            out.extend((label, other) for other in earlier)
            earlier.append(label)
        else:
            earlier = scans.setdefault(x.orbit_id, [])
            out.extend((label, other) for other, y in earlier
                       if gset.elem_equal(x, y))
            earlier.append((label, x))
    return out


class GMap:
    """An equivariant map, stored as one image per domain orbit."""

    def __init__(self, domain: GSet, codomain: GSet, images: dict, check=True):
        if domain.group is not codomain.group:
            raise GroupMismatch("GMap endpoints must share their group")
        self.domain = domain
        self.codomain = codomain
        self.images = {oid: codomain.elem(img.orbit_id, img.rep)
                       for oid, img in images.items()}
        if set(self.images) != set(domain.orbit_ids()):
            raise ValueError("GMap needs exactly one image per domain orbit")
        if check:
            bad = self.equivariance_violations()
            if bad:
                raise ValueError(f"not equivariant: {bad[0]}")

    def equivariance_violations(self):
        """Stabilizer generators that move the assigned image."""
        out = []
        for orb in self.domain.orbits:
            img = self.images[orb.orbit_id]
            for h in orb.stabilizer.generators:
                if not self.codomain.stabilizes(h, img):
                    out.append((orb.orbit_id, h))
        return out

    def apply(self, x: GSetElem) -> GSetElem:
        return self.codomain.act(x.rep, self.images[x.orbit_id])

    def __call__(self, x):
        return self.apply(x)


# -- induction ----------------------------------------------------------------


def lift_handle(mono: Monomorphism, stab: Subgroup) -> Subgroup:
    """View a subgroup of K as a subgroup of G along K -> G."""
    big = mono.codomain.ambient
    if stab.is_trivial():
        return trivial(big)
    if stab.is_whole():
        return mono.codomain
    small = mono.domain_group
    verbatim = all(
        len(img) == 1 and img[0] == (name, 1)
        for name, img in zip(small.generators, mono.images)
    )
    if verbatim:
        if isinstance(big, AmalgamGroup):
            if small is big.left:
                return RestrictedSubgroup(big, stab, "L")
            if small is big.right:
                return RestrictedSubgroup(big, stab, "R")
        if isinstance(big, HNNGroup) and small is big.base:
            return RestrictedSubgroup(big, stab, "base")
    pushed = [mono.push(g) for g in stab.generators]
    if any(p is None for p in pushed):
        raise StabilizerNotContained(f"cannot push {stab!r} through {mono!r}")
    if isinstance(big, FiniteGroup):
        closed = FiniteSubgroup.closure(big, pushed, cap=big.order() + 1)
        if closed is not None:
            return closed
    return generated(big, pushed)


class InducedInclusion:
    """The canonical injection of a K-set into its induced G-set."""

    def __init__(self, mono: Monomorphism, domain: GSet, codomain: GSet):
        self.mono = mono
        self.domain = domain
        self.codomain = codomain

    def apply(self, x: GSetElem) -> GSetElem:
        pushed = self.mono.push(x.rep)
        if pushed is None:
            raise StabilizerNotContained(f"cannot push representative {x.rep}")
        return self.codomain.elem(x.orbit_id, pushed)

    def __call__(self, x):
        return self.apply(x)


def induce_gset(mono: Monomorphism, kset: GSet):
    """Extend a K-set to a G-set orbit by orbit (same ids, same stabilizers).

    ``mono`` maps the whole group K into G; the orbit bijection and the
    stabilizer equalities hold by construction.
    """
    if kset.group is not mono.domain_group:
        raise GroupMismatch(
            f"K-set is over {kset.group.name}, not {mono.domain_group.name}"
        )
    for orb in kset.orbits:
        if orb.stabilizer.ambient is not kset.group:
            raise StabilizerNotContained(f"{orb.orbit_id}: stabilizer not over K")
    big = mono.codomain.ambient
    orbits = [Orbit(o.orbit_id, lift_handle(mono, o.stabilizer))
              for o in kset.orbits]
    induced = GSet(big, orbits)
    return induced, InducedInclusion(mono, kset, induced)


# -- pushouts -----------------------------------------------------------------


@dataclass
class MergeRecord:
    class_id: str
    s_point: GSetElem            # identified point on the first leg
    t_point: GSetElem            # identified point on the second leg
    s_stab: Subgroup             # its point stabilizer
    t_stab: Subgroup


@dataclass
class GSetPushout:
    gset: GSet
    include_s: GMap
    include_t: GMap
    merges: list = field(default_factory=list)


def joined_stabilizer(group: Group, parts, extra=()):
    """Best exact handle for the subgroup generated by conjugated handles."""
    plain = [h for g, h in parts if not g]
    if isinstance(group, AmalgamGroup) and len(parts) == 2 and not extra \
            and len(plain) == 2:
        sides = {}
        for h in plain:
            if isinstance(h, RestrictedSubgroup) and h.side in ("L", "R"):
                sides[h.side] = h.inner
            elif h.is_whole():
                return h
        if set(sides) == {"L", "R"}:
            try:
                return JoinSubgroup(group, sides["L"], sides["R"])
            except ValueError:
                pass
    gens = list(extra)
    for g, h in parts:
        for w in h.generators:
            gens.append(group.multiply(g, w, Word.coerce(g).inverse()) if g else w)
    return generated(group, gens)


def pushout_gsets(phi: GMap, psi: GMap) -> GSetPushout:
    """Glue two G-sets along a common source.

    Each source orbit identifies the G-orbit of its two images; the merged
    orbit's stabilizer is generated by the two point stabilizers (plus a
    transporter element when both images already lie in one merged class).
    """
    if phi.domain is not psi.domain:
        raise GroupMismatch("pushout legs must share their source G-set")
    R, S, T = phi.domain, phi.codomain, psi.codomain
    group = S.group
    if T.group is not group or R.group is not group:
        raise GroupMismatch("pushout needs a single acting group")

    slots = [("S", o.orbit_id) for o in S.orbits] + \
            [("T", o.orbit_id) for o in T.orbits]
    parent = {s: s for s in slots}
    shift = {s: Word() for s in slots}   # slot base = shift * class base
    stab = {("S", o.orbit_id): o.stabilizer for o in S.orbits}
    stab.update({("T", o.orbit_id): o.stabilizer for o in T.orbits})

    def find(slot):
        while parent[slot] != slot:
            slot = parent[slot]
        return slot

    def members(root):
        return [s for s in slots if find(s) == root]

    merges = []
    for orb in R.orbits:
        s_img = phi.images[orb.orbit_id]
        t_img = psi.images[orb.orbit_id]
        slot_s, slot_t = ("S", s_img.orbit_id), ("T", t_img.orbit_id)
        root_s, root_t = find(slot_s), find(slot_t)
        # class coordinates of the two identified points
        g1 = group.multiply(shift[slot_s], s_img.rep)
        g2 = group.multiply(shift[slot_t], t_img.rep)
        s_stab = ConjugateSubgroup(stab[root_s], g1) if g1 else stab[root_s]
        t_stab = ConjugateSubgroup(stab[root_t], g2) if g2 else stab[root_t]
        if root_s == root_t:
            # both images already lie in one class: the identification adds
            # a transporter element to the class stabilizer
            transporter = group.multiply(g1.inverse(), g2)
            stab[root_s] = joined_stabilizer(
                group, [(Word(), stab[root_s])], extra=[transporter])
        else:
            joined = joined_stabilizer(group, [(g1, stab[root_s]),
                                               (g2, stab[root_t])])
            # rebase both classes at the identified point:
            # old base = g^{-1} . new base, so shifts pick up g^{-1}
            for m in members(root_s):
                shift[m] = group.multiply(shift[m], g1.inverse())
            for m in members(root_t):
                shift[m] = group.multiply(shift[m], g2.inverse())
            parent[root_t] = root_s
            stab[root_s] = joined
        merges.append(MergeRecord(
            class_id=root_s[1], s_point=s_img, t_point=t_img,
            s_stab=s_stab, t_stab=t_stab))

    roots = []
    for slot in slots:
        r = find(slot)
        if r not in roots:
            roots.append(r)
    orbit_objs = [Orbit(r[1], stab[r]) for r in roots]
    Z = GSet(group, orbit_objs)

    def include(side, source: GSet):
        images = {}
        for o in source.orbits:
            slot = (side, o.orbit_id)
            images[o.orbit_id] = Z.elem(find(slot)[1], shift[slot])
        return GMap(source, Z, images, check=False)

    result = GSetPushout(Z, include("S", S), include("T", T))
    # later unions may have changed the root an early merge recorded
    result.merges = [
        MergeRecord(find(("S", m.s_point.orbit_id))[1],
                    m.s_point, m.t_point, m.s_stab, m.t_stab)
        for m in merges
    ]
    return result


def chain_factorize(pushout: GSetPushout, g, z: GSetElem):
    """Factor a stabilizing element as an alternating product certifying
    membership in the subgroup generated by the two point stabilizers.

    Returns a list of (leg, word) pairs whose product times a final edge
    part equals g; each factor lies in one of the recorded stabilizers.
    """
    Z = pushout.gset
    g = Z.group.normalize(g)
    if not Z.stabilizes(g, z):
        raise NotAStabilizer(f"{g} does not fix {z}")
    record = next((m for m in pushout.merges if m.class_id == z.orbit_id), None)
    if record is None:
        raise NotAStabilizer(f"{z} is not in an identified orbit")
    handle = Z.stabilizer(z.orbit_id)
    group = Z.group

    if isinstance(handle, JoinSubgroup) and isinstance(group, AmalgamGroup):
        pinned, tail = group.pinned_form(g)
        factors = [w for _, w in pinned]
        if tail:
            factors.append(group.left.normalize(group.into_left.push(tail)))
        if not factors:
            factors = [group.identity()]
        return _verified(pushout, record, g, factors)

    if isinstance(handle, FiniteSubgroup) or handle.is_finite():
        return _finite_chain(pushout, record, g)

    raise BudgetExceeded(f"no factorization strategy for {handle!r}")


def _verified(pushout, record, g, factors):
    """Tag each factor with the leg whose stabilizer contains it and check
    that the product certifies g."""
    group = pushout.gset.group
    tagged = []
    prod = Word()
    for w in factors:
        if record.s_stab.contains(w) == YES:
            leg = "s"
        elif record.t_stab.contains(w) == YES:
            leg = "t"
        else:
            raise NotAStabilizer(f"factor {w} escapes both leg stabilizers")
        tagged.append((leg, w))
        prod = prod * w
    if record.s_stab.contains(group.multiply(prod.inverse(), g)) != YES:
        raise NotAStabilizer("product does not certify the element")
    return tagged


def _finite_chain(pushout, record, g):
    """Breadth-first search over alternating stabilizer products."""
    group = pushout.gset.group
    target = group.normalize(g)
    legs = [("s", record.s_stab), ("t", record.t_stab)]
    paths = {(group.identity(), None): []}
    best = {group.identity(): []}
    frontier = [(group.identity(), None)]
    while frontier:
        if target in best:
            return _verified(pushout, record, g, best[target])
        nxt = []
        for cur, last in frontier:
            for leg, stabber in legs:
                if leg == last:
                    continue
                for h in stabber.elements():
                    if not h:
                        continue
                    new = group.multiply(cur, h)
                    state = (new, leg)
                    if state not in paths:
                        paths[state] = paths[(cur, last)] + [h]
                        best.setdefault(new, paths[state])
                        nxt.append(state)
        frontier = nxt
    if target in best:
        return _verified(pushout, record, g, best[target])
    raise BudgetExceeded(f"chain search exhausted for {g}")
