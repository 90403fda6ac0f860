"""G-sets as symbolic unions of coset spaces.

An orbit is a coset space G/H given by a stabilizer handle; an element is
an orbit id plus a coset representative.  Element equality is coset
equality, decided by the handle.  Induction along a subgroup inclusion and
pushouts along a source of one orbit are the two constructions; a pushout
records its merge so that stabilizers can be certified by chain
factorization afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    GroupMismatch,
    NotAStabilizer,
    StabilizerNotContained,
)
from .groups import AmalgamGroup, FiniteGroup, Group
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
        for side in big.sides:
            if small is big.factor(side):
                return RestrictedSubgroup(big, stab, side)
    pushed = [mono.push(g) for g in stab.generators]
    if any(p is None for p in pushed):
        raise StabilizerNotContained(f"cannot push {stab!r} through {mono!r}")
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
    s_point: GSetElem            # identified point on the first leg
    t_point: GSetElem            # identified point on the second leg
    s_stab: Subgroup             # its point stabilizer
    t_stab: Subgroup


@dataclass
class GSetPushout:
    gset: GSet
    include_s: GMap
    include_t: GMap
    merge: MergeRecord


def joined_stabilizer(group: Group, parts):
    """Best exact handle for the subgroup generated by conjugated handles."""
    plain = [h for g, h in parts if not g]
    if isinstance(group, AmalgamGroup) and len(parts) == 2 and len(plain) == 2:
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
    gens = []
    for g, h in parts:
        for w in h.generators:
            gens.append(group.multiply(g, w, Word.coerce(g).inverse()) if g else w)
    return generated(group, gens)


def pushout_gsets(phi: GMap, psi: GMap) -> GSetPushout:
    """Glue two G-sets along a common source of one orbit.

    The orbits of the source point's two images x (in S) and y (in T) become
    one orbit, based at the identified point: it keeps the id of x's orbit
    and its stabilizer is generated by the two point stabilizers.  Every
    other orbit of S and T is kept as it is.
    """
    if phi.domain is not psi.domain:
        raise GroupMismatch("pushout legs must share their source G-set")
    R, S, T = phi.domain, phi.codomain, psi.codomain
    group = S.group
    if T.group is not group or R.group is not group:
        raise GroupMismatch("pushout needs a single acting group")
    if R.orbit_count != 1:
        raise ValueError(
            f"pushout needs a source of one orbit, not {R.orbit_count}")
    (source_id,) = R.orbit_ids()
    x, y = phi.images[source_id], psi.images[source_id]
    gx, gy = group.normalize(x.rep), group.normalize(y.rep)
    x_stab, y_stab = S.stabilizer(x.orbit_id), T.stabilizer(y.orbit_id)
    s_stab = ConjugateSubgroup(x_stab, gx) if gx else x_stab
    t_stab = ConjugateSubgroup(y_stab, gy) if gy else y_stab
    joined = joined_stabilizer(group, [(gx, x_stab), (gy, y_stab)])
    Z = GSet(group, [Orbit(x.orbit_id, joined) if o.orbit_id == x.orbit_id
                     else o for o in S.orbits]
             + [o for o in T.orbits if o.orbit_id != y.orbit_id])

    def include(source: GSet, point: GSetElem, rep):
        # the point's orbit goes onto the glued one, the point onto its base
        glued = Z.elem(x.orbit_id, group.normalize(rep.inverse()))
        return GMap(source, Z, {o.orbit_id: glued if o.orbit_id == point.orbit_id
                                else Z.elem(o.orbit_id) for o in source.orbits},
                    check=False)

    return GSetPushout(Z, include(S, x, gx), include(T, y, gy),
                       MergeRecord(x, y, s_stab, t_stab))


def chain_factorize(pushout: GSetPushout, g, z: GSetElem):
    """Factor a stabilizing element as an alternating product certifying
    membership in the subgroup generated by the two point stabilizers.

    Returns a list of (leg, word) pairs whose product equals g; each factor
    lies in one of the recorded stabilizers.
    """
    Z = pushout.gset
    g = Z.group.normalize(g)
    if not Z.stabilizes(g, z):
        raise NotAStabilizer(f"{g} does not fix {z}")
    record = pushout.merge
    if record.s_point.orbit_id != z.orbit_id:
        raise NotAStabilizer(f"{z} is not in an identified orbit")
    handle = Z.stabilizer(z.orbit_id)
    group = Z.group

    if isinstance(handle, JoinSubgroup) and isinstance(group, AmalgamGroup):
        prefix, part = group.factor_split(g, "L")
        factors = [w for _, w in prefix] + ([part] if part else [])
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
