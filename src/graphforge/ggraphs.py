"""G-graphs as 1-complexes: a vertex G-set, an edge G-set, and equivariant
attaching data given on one base edge per orbit.

Constructions: extension of the acting group, vertex pushouts of two graphs
along a common fixed vertex, coalescence along a stable letter, coned-off
Cayley graphs, and (subdivided) Bass-Serre trees with projection morphisms.
Pushout and coalescence record provenance so that later audits can project
onto the tree and certify cut vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FixedPointViolation,
    GroupMismatch,
    ProvenanceMissing,
    SameOrbitViolation,
)
from .groups import AmalgamGroup, Group, HNNGroup
from .gsets import (
    GMap,
    GSet,
    GSetElem,
    Orbit,
    GSetPushout,
    induce_gset,
    pushout_gsets,
)
from .subgroups import (
    JoinSubgroup,
    Monomorphism,
    RestrictedSubgroup,
    Subgroup,
    WholeSubgroup,
    generated,
    same_subgroup,
    trivial,
    whole,
)
from .words import Word


@dataclass(frozen=True)
class EdgeOrbit:
    orbit_id: str
    stabilizer: Subgroup
    ends: tuple  # one or two vertex GSetElems of the base edge


class GGraph:
    def __init__(self, group: Group, vertices: GSet, edge_orbits, provenance=None):
        if vertices.group is not group:
            raise GroupMismatch("vertex set must be over the graph's group")
        self.group = group
        self.vertices = vertices
        self.edge_orbits = list(edge_orbits)
        self.edges = GSet(group, [Orbit(e.orbit_id, e.stabilizer)
                                  for e in self.edge_orbits])
        self.attach = {}
        # per vertex orbit, one block per base-edge end in that orbit:
        # (edge orbit id, edge stabilizer, end rep inverse, the other ends)
        self._incidence = {o.orbit_id: [] for o in vertices.orbits}
        for eo in self.edge_orbits:
            ends = tuple(vertices.elem(p.orbit_id, p.rep) for p in eo.ends)
            if len(ends) not in (1, 2):
                raise ValueError(f"edge orbit {eo.orbit_id!r} needs 1 or 2 ends")
            self.attach[eo.orbit_id] = ends
            for i, end in enumerate(ends):
                self._incidence[end.orbit_id].append((
                    eo.orbit_id, eo.stabilizer, end.rep.inverse(),
                    tuple(q for j, q in enumerate(ends) if j != i)))
        self.provenance = provenance
        self._base_incidence = {}
        # analysis.fineness_probe's findings at each orbit's point with rep
        # 1, by (orbit id, angle bound, radius, vertex cap)
        self.fineness_probes = {}

    @property
    def vertex_orbit_count(self):
        return self.vertices.orbit_count

    @property
    def edge_orbit_count(self):
        return len(self.edge_orbits)

    def edge_ends(self, e: GSetElem):
        return tuple(self.vertices.act(e.rep, p) for p in self.attach[e.orbit_id])

    def incident_edges(self, v: GSetElem, word_budget: int):
        """Edges at a vertex, as (edge elem, other-endpoint list) pairs.

        Complete exactly when the vertex stabilizer is finite; otherwise the
        stabilizer is exhausted up to the word budget and the returned flag
        is False.  An orbit without incident edge orbits samples nothing.
        """
        group, verts = self.group, self.vertices
        stab, blocks = verts.stabilizer(v.orbit_id), self._incidence[v.orbit_id]
        if not blocks:
            return [], bool(stab.is_finite())
        elems, complete = stab.sample(word_budget)
        found = []
        seen_keys = set()
        for eo_id, estab, end_inv, other_ends in blocks:
            ekey_ok = estab.rep_exact
            for u in elems:
                h = group.multiply(v.rep, u, end_inv)
                edge = GSetElem(eo_id, estab.coset_rep(h))
                if ekey_ok:
                    key = (eo_id, edge.rep)
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                elif any(self.edges.elem_equal(edge, e0) for e0, _ in found):
                    continue
                found.append((edge, [verts.act(h, q) for q in other_ends]))
        return found, complete

    def base_incident_edges(self, orbit_id, word_budget: int):
        """Memoised ``incident_edges`` at the orbit's point with rep 1."""
        key = (orbit_id, word_budget)
        if key not in self._base_incidence:
            self._base_incidence[key] = self.incident_edges(
                GSetElem(orbit_id, self.group.identity()), word_budget)
        return self._base_incidence[key]

    def relabel(self, prefix: str) -> "GGraph":
        """A copy with every orbit id prefixed (used to disjoint-union graphs)."""
        vmap = {o.orbit_id: f"{prefix}{o.orbit_id}" for o in self.vertices.orbits}
        verts = GSet(self.group, [Orbit(vmap[o.orbit_id], o.stabilizer)
                                  for o in self.vertices.orbits])
        eos = []
        for eo in self.edge_orbits:
            ends = tuple(GSetElem(vmap[p.orbit_id], p.rep)
                         for p in self.attach[eo.orbit_id])
            eos.append(EdgeOrbit(f"{prefix}{eo.orbit_id}", eo.stabilizer, ends))
        return GGraph(self.group, verts, eos)

    def __repr__(self):
        return (f"<GGraph over {self.group.name}: "
                f"{self.vertex_orbit_count} vertex / {self.edge_orbit_count} edge orbits>")


def _same_ends(vertices: GSet, p, q) -> bool:
    """Whether two ends (one or two vertices each) are the same vertices,
    in either order."""
    eq = vertices.elem_equal
    return (eq(p[0], q[0]) and eq(p[-1], q[-1])) or \
        (eq(p[0], q[-1]) and eq(p[-1], q[0]))


class GraphMorphism:
    """A pair of equivariant maps commuting with the attaching data.

    ``edge_images`` sends each edge orbit either to an edge elem ("edge")
    or, for simplicial collapses, to a vertex elem ("vertex").
    """

    def __init__(self, domain: GGraph, codomain: GGraph, vertex_map: GMap,
                 edge_images: dict):
        self.domain = domain
        self.codomain = codomain
        self.vertex_map = vertex_map
        self.edge_images = dict(edge_images)

    def vertex(self, v: GSetElem) -> GSetElem:
        return self.vertex_map.apply(v)

    def edge(self, e: GSetElem):
        kind, img = self.edge_images[e.orbit_id]
        if kind == "edge":
            return ("edge", self.codomain.edges.act(e.rep, img))
        return ("vertex", self.codomain.vertices.act(e.rep, img))

    def commutes_on(self, e: GSetElem) -> bool:
        """Image endpoints agree with the endpoint images for one edge."""
        ends = self.domain.edge_ends(e)
        mapped = [self.vertex(p) for p in ends]
        kind, img = self.edge(e)
        cod = self.codomain
        if kind == "vertex":
            return all(cod.vertices.elem_equal(m, img) for m in mapped)
        return _same_ends(cod.vertices, mapped, cod.edge_ends(img))


# -- validation -----------------------------------------------------------------


@dataclass
class GraphReport:
    valid: bool
    simplicial: bool
    no_inversions: bool
    violations: list


def validate_graph(graph: GGraph) -> GraphReport:
    """Check equivariance of the attaching data, simpliciality, and the
    absence of inversions on stabilizer samples of word budget 3."""
    violations = []
    simplicial = True
    no_inversions = True
    for eo in graph.edge_orbits:
        ends = graph.attach[eo.orbit_id]
        if len(ends) == 1 or graph.vertices.elem_equal(ends[0], ends[-1]):
            simplicial = False
            violations.append(("degenerate-edge", eo.orbit_id))
        sample, _complete = eo.stabilizer.sample(3)
        for s in sample:
            moved = [graph.vertices.act(s, p) for p in ends]
            fixes_setwise = all(
                any(graph.vertices.elem_equal(m, p) for p in ends) for m in moved
            )
            if not fixes_setwise:
                violations.append(("attach-not-equivariant", eo.orbit_id, s))
            pointwise = all(
                graph.vertices.elem_equal(m, p) for m, p in zip(moved, ends)
            )
            if fixes_setwise and not pointwise:
                no_inversions = False
                violations.append(("inversion", eo.orbit_id, s))
    # attach injectivity on a small sample of translates
    for eo in graph.edge_orbits:
        for fo in graph.edge_orbits:
            if fo.orbit_id <= eo.orbit_id:
                continue
            p = graph.attach[eo.orbit_id]
            q = graph.attach[fo.orbit_id]
            if len(p) == len(q) == 2 and _same_ends(graph.vertices, p, q):
                violations.append(("parallel-base-edges",
                                   eo.orbit_id, fo.orbit_id))
    bad_kinds = {"attach-not-equivariant", "degenerate-edge", "parallel-base-edges"}
    valid = not any(v[0] in bad_kinds for v in violations)
    return GraphReport(valid=valid, simplicial=simplicial and valid,
                       no_inversions=no_inversions, violations=violations)


# -- constructions -----------------------------------------------------------


def _labels(labels, handles, prefix):
    """One orbit label per handle: ``labels``, or numbered from ``prefix``."""
    labels = labels or [f"{prefix}{i}" for i in range(len(handles))]
    if len(labels) != len(handles):
        raise ValueError(f"{len(handles)} subgroups but {len(labels)} labels")
    return labels


def coned_off(group: Group, peripherals, rel_gens, labels=None) -> GGraph:
    """Coned-off Cayley graph: group elements plus one cone vertex per
    peripheral coset; edges join g to gs and each coset member to its cone.
    """
    rel_gens = [group.normalize(s) for s in rel_gens]
    labels = _labels(labels, peripherals, "H")
    orbits = [Orbit("el", trivial(group))]
    for lab, handle in zip(labels, peripherals):
        orbits.append(Orbit(f"cone:{lab}", handle))
    verts = GSet(group, orbits)
    eos = []
    for j, s in enumerate(rel_gens):
        if not s:
            raise ValueError("relative generators must be nontrivial")
        if group.is_identity(s * s):
            stab = generated(group, [s])  # the edge {g, gs} is flipped by s
        else:
            stab = trivial(group)
        eos.append(EdgeOrbit(f"cay:{s}", stab,
                             (verts.elem("el"), verts.elem("el", s))))
    for lab, handle in zip(labels, peripherals):
        eos.append(EdgeOrbit(f"lace:{lab}", trivial(group),
                             (verts.elem("el"), verts.elem(f"cone:{lab}"))))
    return GGraph(group, verts, eos)


def single_vertex_graph(group: Group, stabilizer=None, label="pt") -> GGraph:
    verts = GSet(group, [Orbit(label, stabilizer or whole(group))])
    return GGraph(group, verts, [])


def edgeless_cosets(group: Group, handles, labels=None) -> GGraph:
    labels = _labels(labels, handles, "c")
    verts = GSet(group, [Orbit(lab, h) for lab, h in zip(labels, handles)])
    return GGraph(group, verts, [])


def cayley_graph(group: Group, gens=None) -> GGraph:
    return coned_off(group, [], gens if gens is not None
                     else group.generator_words())


def induce_graph(mono: Monomorphism, kgraph: GGraph, prefix="") -> GGraph:
    """Extend the acting group of a graph along K -> G."""
    src = kgraph.relabel(prefix) if prefix else kgraph
    verts, _ = induce_gset(mono, src.vertices)
    egset, _ = induce_gset(mono, src.edges)
    eos = []
    for eo in src.edge_orbits:
        ends = tuple(
            GSetElem(p.orbit_id, mono.push(p.rep))
            for p in src.attach[eo.orbit_id]
        )
        eos.append(EdgeOrbit(eo.orbit_id, egset.stabilizer(eo.orbit_id), ends))
    return GGraph(mono.codomain.ambient, verts, eos)


def factor_embedding(group, side) -> Monomorphism:
    """The inclusion of one factor (amalgam side or HNN base) into the group."""
    if side not in group.sides:
        raise GroupMismatch(f"no factor {side!r} in {group.name}")
    fac = group.factor(side)
    return Monomorphism(whole(fac), RestrictedSubgroup(group, whole(fac), side),
                        fac.generator_words())


@dataclass
class PushoutProvenance:
    z: GSetElem
    vertex_pushout: GSetPushout   # its merge holds the two point stabilizers
    kind: str = "pushout"


@dataclass
class CoalescenceProvenance:
    graph: GGraph                 # the input graph over the base group
    x: GSetElem
    y: GSetElem
    z: GSetElem
    hypotheses_hold: bool
    mono: Monomorphism            # the base group's inclusion
    vertex_map: GMap              # induced vertices -> coalesced vertices
    kind: str = "coalescence"


def _check_fixed(vertices: GSet, point: GSetElem, words, who: str):
    for w in words:
        if not vertices.stabilizes(w, point):
            raise FixedPointViolation(f"{who} is not fixed by {w}")


def c_pushout(group: AmalgamGroup, left_graph: GGraph, right_graph: GGraph,
              x: GSetElem, y: GSetElem) -> GGraph:
    """Glue the induced graphs along the orbits of one fixed vertex on each
    side.  The identified vertex inherits the subgroup generated by the two
    point stabilizers.
    """
    if left_graph.group is not group.left or right_graph.group is not group.right:
        raise GroupMismatch("pushout inputs must live over the two factors")
    into_l, into_r = group.into_left, group.into_right
    _check_fixed(left_graph.vertices, x,
                 [into_l.push(c) for c in group.edge_group.generator_words()], "x")
    _check_fixed(right_graph.vertices, y,
                 [into_r.push(c) for c in group.edge_group.generator_words()], "y")

    mono_l, mono_r = factor_embedding(group, "L"), factor_embedding(group, "R")
    gx = induce_graph(mono_l, left_graph, prefix="X:")
    gy = induce_graph(mono_r, right_graph, prefix="Y:")

    edge_over_g = RestrictedSubgroup(group, into_l.codomain, "L")
    glue = GSet(group, [Orbit("glue", edge_over_g)])
    x_big = gx.vertices.elem(f"X:{x.orbit_id}", mono_l.push(x.rep))
    y_big = gy.vertices.elem(f"Y:{y.orbit_id}", mono_r.push(y.rep))
    phi = GMap(glue, gx.vertices, {"glue": x_big})
    psi = GMap(glue, gy.vertices, {"glue": y_big})
    vpo = pushout_gsets(phi, psi)

    eos = []
    for src, inc in ((gx, vpo.include_s), (gy, vpo.include_t)):
        for eo in src.edge_orbits:
            ends = tuple(inc.apply(p) for p in src.attach[eo.orbit_id])
            eos.append(EdgeOrbit(eo.orbit_id, eo.stabilizer, ends))
    z = vpo.include_s.apply(x_big)
    return GGraph(group, vpo.gset, eos,
                  provenance=PushoutProvenance(z, vpo))


def coalesce(group: HNNGroup, graph: GGraph, x: GSetElem, y: GSetElem,
             require_hypotheses: bool = True) -> GGraph:
    """Quotient of the induced graph identifying the translate of x across
    the stable letter with y.

    When the declared stabilizers of x and y are exactly the edge subgroup
    and its image and the orbits differ, the identified vertex keeps the
    image subgroup as stabilizer and the original graph embeds.
    """
    if graph.group is not group.base:
        raise GroupMismatch("coalescence input must live over the base group")
    _check_fixed(graph.vertices, x, group.edge_handle.generators, "x")
    _check_fixed(graph.vertices, y, group.image_handle.generators, "y")

    mono = factor_embedding(group, "base")
    big = induce_graph(mono, graph)
    t = group.stable_word()

    same_orbit = x.orbit_id == y.orbit_id
    stab_x = graph.vertices.stabilizer(x.orbit_id)
    stab_y = graph.vertices.stabilizer(y.orbit_id)
    hyp = (not same_orbit and not x.rep and not y.rep
           and same_subgroup(stab_x, group.edge_handle)
           and same_subgroup(stab_y, group.image_handle))
    if require_hypotheses and same_orbit:
        raise SameOrbitViolation(
            "the two gluing vertices lie in one orbit; pass "
            "require_hypotheses=False for the general quotient"
        )

    def conj_words(stab, rep):
        ws = [group.normalize(w) for w in stab.generators]
        if rep:
            rep = Word.coerce(rep)
            ws = [group.multiply(rep, w, rep.inverse()) for w in ws]
        return ws

    if hyp:
        z_stab = RestrictedSubgroup(group, group.image_handle, "base")
    else:
        # general quotient: the class of y also gains t Stab(x) t^{-1}; when
        # the orbits coincide the basic relation contributes y_rep^{-1} t
        gens = conj_words(stab_y, y.rep)
        if same_orbit:
            extra = [group.multiply(Word.coerce(y.rep).inverse(), t,
                                    Word.coerce(x.rep))]
        else:
            extra = [group.multiply(t, w, t.inverse())
                     for w in conj_words(stab_x, x.rep)]
        allgens = [w for w in gens + extra if w]
        single = {w[0][0] for w in allgens if len(w) == 1}
        if single >= set(group.generators):
            z_stab = WholeSubgroup(group)
        else:
            z_stab = generated(group, allgens)
    z_id = y.orbit_id

    orbit_objs = []
    for o in big.vertices.orbits:
        if o.orbit_id == x.orbit_id and not same_orbit:
            continue  # the x-orbit folds into the z-orbit
        if o.orbit_id == z_id:
            orbit_objs.append(Orbit(z_id, z_stab))
        else:
            orbit_objs.append(o)
    zverts = GSet(group, orbit_objs)

    x_shift = group.multiply(Word.coerce(x.rep).inverse(), t.inverse(),
                             Word.coerce(y.rep))

    def vmap(elem: GSetElem) -> GSetElem:
        if elem.orbit_id == x.orbit_id and not same_orbit:
            # rho(k . base_x) = k x_rep^{-1} t^{-1} y_rep . base_y
            return zverts.elem(z_id, group.multiply(elem.rep, x_shift))
        return zverts.elem(elem.orbit_id, elem.rep)

    vertex_images = {}
    for o in big.vertices.orbits:
        vertex_images[o.orbit_id] = vmap(big.vertices.elem(o.orbit_id))
    vgm = GMap(big.vertices, zverts, vertex_images, check=False)

    eos = []
    for eo in big.edge_orbits:
        ends = tuple(vmap(p) for p in big.attach[eo.orbit_id])
        eos.append(EdgeOrbit(eo.orbit_id, eo.stabilizer, ends))
    zpoint = zverts.elem(z_id, mono.push(y.rep))
    prov = CoalescenceProvenance(graph, x, y, zpoint, hyp, mono, vgm)
    return GGraph(group, zverts, eos, provenance=prov)


# -- Bass-Serre trees -----------------------------------------------------------


def bass_serre(group, middle=None) -> GGraph:
    """The tree of the splitting, subdivided at edge-group vertices.

    For an amalgam the middle orbit carries the subgroup generated by the
    two edge images (or the two handles supplied in ``middle``); for an HNN
    extension the vertices are base-cosets and edge-subgroup cosets.  The
    tree's ``distinguished`` attribute is the vertex a pushout or
    coalescence projects its identified vertex to: the middle base vertex
    ``vM`` of an amalgam, the stable-letter translate ``t vH`` of an HNN
    extension.
    """
    if isinstance(group, AmalgamGroup):
        if middle is None:
            inner_l = group.into_left.codomain
            inner_r = group.into_right.codomain
        else:
            inner_l, inner_r = middle
        va = RestrictedSubgroup(group, whole(group.left), "L")
        vb = RestrictedSubgroup(group, whole(group.right), "R")
        vm = JoinSubgroup(group, inner_l, inner_r)
        verts = GSet(group, [Orbit("vA", va), Orbit("vM", vm), Orbit("vB", vb)])
        eos = [
            EdgeOrbit("eAM", RestrictedSubgroup(group, inner_l, "L"),
                      (verts.elem("vA"), verts.elem("vM"))),
            EdgeOrbit("eMB", RestrictedSubgroup(group, inner_r, "R"),
                      (verts.elem("vM"), verts.elem("vB"))),
        ]
        tree = GGraph(group, verts, eos)
        tree.distinguished = verts.elem("vM")
        return tree
    if isinstance(group, HNNGroup):
        t = group.stable_word()
        va = RestrictedSubgroup(group, whole(group.base), "base")
        vh = RestrictedSubgroup(group, group.edge_handle, "base")
        verts = GSet(group, [Orbit("vA", va), Orbit("vH", vh)])
        eos = [
            EdgeOrbit("eUp", RestrictedSubgroup(group, group.image_handle, "base"),
                      (verts.elem("vA"), verts.elem("vH", t))),
            EdgeOrbit("eDown", RestrictedSubgroup(group, group.edge_handle, "base"),
                      (verts.elem("vA"), verts.elem("vH"))),
        ]
        tree = GGraph(group, verts, eos)
        tree.distinguished = verts.elem("vH", t)
        return tree
    raise GroupMismatch(f"{group.name} is not an amalgam or HNN extension")


def project_to_tree(zgraph: GGraph):
    """The equivariant projection of a pushout or coalescence onto the tree
    of the splitting; edges between ordinary vertices collapse.

    Returns (tree, morphism).  The preimage of the distinguished tree vertex
    is exactly the identified vertex.
    """
    prov = zgraph.provenance
    if prov is None:
        raise ProvenanceMissing("graph has no recorded construction")
    group = zgraph.group
    vertex_images = {}
    if prov.kind == "pushout":
        merge = prov.vertex_pushout.merge
        if not (isinstance(merge.s_stab, RestrictedSubgroup)
                and isinstance(merge.t_stab, RestrictedSubgroup)):
            raise ProvenanceMissing(
                "tree projection needs base-point gluing data"
            )
        tree = bass_serre(group, middle=(merge.s_stab.inner, merge.t_stab.inner))
        z_orbit = prov.z.orbit_id
        for o in zgraph.vertices.orbits:
            if o.orbit_id == z_orbit:
                vertex_images[o.orbit_id] = tree.vertices.elem("vM")
            elif o.orbit_id.startswith("X:"):
                vertex_images[o.orbit_id] = tree.vertices.elem("vA")
            else:
                vertex_images[o.orbit_id] = tree.vertices.elem("vB")
    elif prov.kind == "coalescence":
        tree = bass_serre(group)
        t = group.stable_word()
        z_orbit = prov.z.orbit_id
        for o in zgraph.vertices.orbits:
            if o.orbit_id == z_orbit:
                vertex_images[o.orbit_id] = tree.vertices.elem("vH", t)
            else:
                vertex_images[o.orbit_id] = tree.vertices.elem("vA")
    else:
        raise ProvenanceMissing(f"unknown provenance kind {prov.kind!r}")
    vgm = GMap(zgraph.vertices, tree.vertices, vertex_images, check=False)
    edge_images = {}
    for eo in zgraph.edge_orbits:
        imgs = [vgm.apply(p) for p in zgraph.attach[eo.orbit_id]]
        edge_images[eo.orbit_id] = _match_tree_edge(tree, imgs)
    return tree, GraphMorphism(zgraph, tree, vgm, edge_images)


def _match_tree_edge(tree: GGraph, imgs):
    """Edge elem covering the image endpoints, or a vertex collapse."""
    distinct = []
    for p in imgs:
        if not any(tree.vertices.elem_equal(p, q) for q in distinct):
            distinct.append(p)
    if len(distinct) == 1:
        return ("vertex", distinct[0])
    p, q = distinct
    for eo in tree.edge_orbits:
        ends = tree.attach[eo.orbit_id]
        for a, b in ((p, q), (q, p)):
            if a.orbit_id != ends[0].orbit_id or b.orbit_id != ends[-1].orbit_id:
                continue
            # solve h . ends = (a, b): h must move the first base end onto a
            stab = tree.vertices.stabilizer(ends[0].orbit_id)
            cands, _ = stab.sample(3)
            for u in cands:
                h = tree.group.multiply(a.rep, u, ends[0].rep.inverse())
                if tree.vertices.elem_equal(tree.vertices.act(h, ends[0]), a) and \
                   tree.vertices.elem_equal(tree.vertices.act(h, ends[-1]), b):
                    return ("edge", tree.edges.elem(eo.orbit_id, h))
    raise GroupMismatch(f"no tree edge covers {imgs}")
