"""Pipeline specs: declarative JSON in, deterministic run reports out.

A spec declares groups, subgroups, injections, graphs and presentations,
then runs a list of steps (constructions, windows, audits, exports).  Steps
that audit something contribute verdicts; the report is byte-deterministic
for a fixed spec (timings are opt-in and default to null).

Exit-code contract: 0 all verdicts pass, 1 some verdict failed, 2 a budget
ran out (partial report), 3 the spec itself was invalid.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from functools import partialmethod

from . import analysis
from .analysis import (
    INFINITE,
    angle_table,
    ball_view,
    cayley_abels_audit,
    cut_vertex_audit,
    delta_estimate,
    embedded_path_count,  # noqa: F401  (re-exported)
    embedded_path_counts,
    fineness_probe,
    gh_graph_audit,
)
from .errors import (
    BudgetExceeded,
    ForgeError,
    GroupMismatch,
    MalformedWord,
    MonomorphismUnverified,
    SpecError,
    StableLetterCollision,
)
from .ggraphs import (
    GGraph,
    bass_serre,
    c_pushout,
    cayley_graph,
    coalesce,
    coned_off,
    edgeless_cosets,
    factor_embedding,
    induce_graph,
    project_to_tree,
    single_vertex_graph,
    validate_graph,
)
from .groups import (
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    ball_enumerate,
)
from .gsets import GSetElem, chain_factorize, collisions
from .relpres import (
    RelPresentation,
    amalgam_presentation,
    dehn_bruteforce,
    hnn_presentation,
    verify_relators,
)
from .subgroups import (
    JoinSubgroup,
    Monomorphism,
    RestrictedSubgroup,
    build_amalgam,
    build_hnn,
    cyclic,
    free_factor,
    generated,
    trivial,
    whole,
    YES,
    NO,
)
from .words import Word

TOP_KEYS = {"name", "groups", "subgroups", "monomorphisms", "graphs",
            "presentations", "pipeline", "budgets", "exports"}

DEFAULT_BUDGETS = {
    "radius": 4,
    "word_budget": None,
    "angle_bound": 4,
    "threshold": 10,
    "max_vertices": 200000,
    "delta_radius": 2,
    "delta_cap": 140,
    "conj_budget": 2,
    "fill_cap": 3,
    "conjugator_cap": 3,
    "h_ball": 1,
    "trust_monomorphisms": False,
}
POSITIVE_BUDGETS = ("radius", "angle_bound", "threshold", "max_vertices")


@dataclass
class RunReport:
    spec_name: str
    steps: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    budgets: dict = field(default_factory=dict)
    timings_ms: dict = None
    budget_exhausted: bool = False

    def record(self, step_id, op, outcome, detail=None, verdicts=()):
        """A step's outcome, then its ``(name, verdict, detail)`` verdicts."""
        self.steps.append({
            "id": step_id, "op": op, "outcome": outcome,
            "detail": detail if detail is not None else {},
        })
        self.verdicts.extend({"step": step_id, "name": name, "verdict": v,
                              "detail": d} for name, v, d in verdicts)

    def check(self, step_id, op, name, ok, detail, summary=""):
        """A step that passes or fails: its ``ok``/``fail`` record and its
        ``pass``/``fail`` verdict, both read off ``ok``."""
        self.record(step_id, op, "ok" if ok else "fail", detail,
                    [(name, "pass" if ok else "fail", summary)])

    @property
    def failed(self):
        return any(v["verdict"] == "fail" for v in self.verdicts)

    def exit_code(self):
        if self.budget_exhausted:
            return 2
        if self.failed:
            return 1
        return 0

    def to_json(self) -> str:
        payload = {
            "spec": self.spec_name,
            "steps": self.steps,
            "verdicts": self.verdicts,
            "budgets": self.budgets,
            "timings_ms": self.timings_ms,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def _known_keys(obj, allowed, where):
    extra = set(obj) - set(allowed)
    _require(not extra, f"{where}: unknown keys {sorted(extra)}")


def _natural(step, key, default=...):
    """``step[key]``, or ``default`` when absent and a default is given: a
    natural number, or ``None`` where the default is ``None``."""
    value = step[key] if default is ... else step.get(key, default)
    _require((value is None and default is None)
             or (isinstance(value, int) and not isinstance(value, bool)
                 and value >= 0),
             f"step {step.get('id', step['op'])!r}: {key} must be a "
             "nonnegative integer")
    return value


def _words(texts, group, where):
    """Parse the declared words and check their letters against group."""
    try:
        words = [Word.parse(t) for t in texts]
        for w in words:
            group.check_word(w)
    except (ValueError, MalformedWord) as exc:
        raise SpecError(f"{where}: {exc}") from None
    return words


class _Decl(dict):
    """A spec object whose missing required keys are spec errors."""

    def __init__(self, obj, where):
        _require(isinstance(obj, dict), f"{where} must be a JSON object")
        super().__init__(obj)
        self.where = where

    def __missing__(self, key):
        raise SpecError(f"{self.where}: missing key {key!r}")


class SpecEnv:
    """Resolves the declaration sections with cycle detection."""

    def __init__(self, spec: dict):
        _require(isinstance(spec, dict), "spec must be a JSON object")
        _known_keys(spec, TOP_KEYS, "top level")
        self.spec = spec
        self.name = spec.get("name", "pipeline")
        self.memo = {}            # (section, id) -> the declared object
        self.constructions = {}   # step products: graphs, balls, tables ...
        self.budgets = dict(DEFAULT_BUDGETS)
        budgets = spec.get("budgets", {})
        _known_keys(budgets, DEFAULT_BUDGETS, "budgets")
        self.budgets.update(budgets)
        for key, value in self.budgets.items():
            default = DEFAULT_BUDGETS[key]
            if isinstance(default, bool):
                _require(isinstance(value, bool),
                         f"budgets.{key} must be true or false")
            elif value is not None or default is not None:
                low = 1 if key in POSITIVE_BUDGETS else 0
                _require(isinstance(value, int)
                         and not isinstance(value, bool) and value >= low,
                         f"budgets.{key} must be a "
                         f"{'positive' if low else 'nonnegative'} integer")
        self._building = set()

    # -- declarations ---------------------------------------------------------

    def _declared(self, section, did):
        """The object declared as ``did`` in ``section``, built once.

        Constructors reject repeated or clashing generator names, a stable
        letter naming a base generator, non-group tables, unreadable words,
        objects over the wrong group, and declared injections they refute
        or cannot certify: each is a spec error naming the declaration.
        """
        key = (section, did)
        if key in self.memo:
            return self.memo[key]
        where = f"{section[:-1]} {did!r}"
        _require(did in self.spec.get(section, {}), f"undeclared {where}")
        _require(key not in self._building, f"cyclic declaration at {where}")
        self._building.add(key)
        decl = _Decl(self.spec[section][did], where)
        try:
            obj = SECTIONS[section](self, did, decl)
        except (ValueError, MalformedWord, GroupMismatch,
                StableLetterCollision, MonomorphismUnverified) as exc:
            raise SpecError(f"{where}: {exc}") from None
        self._building.discard(key)
        self.memo[key] = obj
        return obj

    group = partialmethod(_declared, "groups")
    subgroup = partialmethod(_declared, "subgroups")
    mono = partialmethod(_declared, "monomorphisms")

    def graph(self, gid) -> GGraph:
        return self._built(gid, GGraph, "graphs")

    def presentation(self, pid) -> RelPresentation:
        return self._built(pid, RelPresentation, "presentations")

    def _built(self, cid, cls, section):
        """The step product ``cid`` if a step made one, else the declaration."""
        if cid not in self.constructions:
            return self._declared(section, cid)
        obj = self.constructions[cid]
        _require(isinstance(obj, cls), f"{cid!r} is not a {section[:-1]}")
        return obj

    def _group(self, gid, decl):
        kind = decl.get("kind")
        if kind == "free":
            g = FreeGroup(gid, decl["generators"])
        elif kind == "free_abelian":
            g = FreeAbelianGroup(gid, decl["generators"])
        elif kind == "cyclic":
            g = FiniteGroup.cyclic(decl["order"], decl.get("generator", "a"), gid)
        elif kind == "permutation":
            perms = {k: tuple(v) for k, v in decl["generators"].items()}
            g = FiniteGroup.from_permutations(gid, perms)
        elif kind == "free_product":
            g = FreeProductGroup(gid, [self.group(f) for f in decl["factors"]])
        elif kind == "amalgam":
            g = build_amalgam(
                gid, self.group(decl["left"]), self.group(decl["right"]),
                self.mono(decl["into_left"]), self.mono(decl["into_right"]),
                trust_monomorphisms=self.budgets["trust_monomorphisms"])
        elif kind == "hnn":
            g = build_hnn(
                gid, self.group(decl["base"]), self.subgroup(decl["edge"]),
                self.mono(decl["iso"]), decl["stable_letter"],
                trust_monomorphisms=self.budgets["trust_monomorphisms"])
        else:
            raise SpecError(f"{decl.where}: unknown kind {kind!r}")
        return g

    def _subgroup(self, sid, decl):
        amb = self.group(decl["group"])
        kind = decl.get("kind", "generated")
        if kind == "trivial":
            h = trivial(amb)
        elif kind == "whole":
            h = whole(amb)
        elif kind == "cyclic":
            h = cyclic(amb, _words([decl["generator"]], amb, decl.where)[0])
        elif kind == "free_factor":
            h = free_factor(amb, decl["generators"])
        elif kind == "generated":
            h = generated(amb, _words(decl["generators"], amb, decl.where),
                          budget=decl.get("budget", 12))
        elif kind == "restricted":
            h = RestrictedSubgroup(amb, self.subgroup(decl["inner"]),
                                   decl["side"])
        else:
            raise SpecError(f"{decl.where}: unknown kind {kind!r}")
        return h

    def _mono(self, mid, decl):
        if "domain_subgroup" in decl:
            dom = self.subgroup(decl["domain_subgroup"])
        else:
            dom = whole(self.group(decl["domain"]))
        cod = self.subgroup(decl["codomain_subgroup"])
        images = _words(decl["images"], cod.ambient, decl.where)
        _require(len(images) == len(dom.generators),
                 f"{decl.where}: {len(dom.generators)} domain "
                 f"generators but {len(images)} images")
        return Monomorphism(dom, cod, images)

    def _graph(self, gid, decl):
        kind = decl.get("kind")
        amb = self.group(decl["group"])
        if kind == "coned_off":
            g = coned_off(amb, [self.subgroup(s) for s in decl["peripherals"]],
                          _words(decl["relative_generators"], amb, decl.where),
                          labels=decl.get("labels"))
        elif kind == "cayley":
            gens = decl.get("generators")
            g = cayley_graph(amb, _words(gens, amb, decl.where) if gens else None)
        elif kind == "single_vertex":
            stab = self.subgroup(decl["stabilizer"]) if "stabilizer" in decl else None
            g = single_vertex_graph(amb, stab, label=decl.get("label", "pt"))
        elif kind == "edgeless_cosets":
            g = edgeless_cosets(amb, [self.subgroup(s) for s in decl["subgroups"]],
                                labels=decl.get("labels"))
        else:
            raise SpecError(f"{decl.where}: unknown kind {kind!r}")
        return g

    def _presentation(self, pid, decl):
        peripherals = {lab: self.subgroup(s)
                       for lab, s in decl.get("peripherals", {}).items()}
        pres = RelPresentation(tuple(decl.get("letters", [])), peripherals, [])
        pres.relators = [pres.parse(r) for r in decl.get("relators", [])]
        return pres

    def orbit(self, graph: GGraph, oid):
        """The stabilizer of the vertex orbit ``oid`` of ``graph``."""
        try:
            return graph.vertices.stabilizer(oid)
        except (KeyError, TypeError):
            raise SpecError(f"no vertex orbit {oid!r} among "
                            f"{graph.vertices.orbit_ids()}") from None

    def vertex(self, graph: GGraph, ref) -> GSetElem:
        _require(isinstance(ref, dict) and "orbit" in ref,
                 "vertex references look like {'orbit': ..., 'rep': ...}")
        self.orbit(graph, ref["orbit"])
        rep, = _words([ref.get("rep", "1")], graph.group,
                      f"vertex in orbit {ref['orbit']!r}")
        return graph.vertices.elem(ref["orbit"], rep)

    def ball(self, bid):
        obj = self.constructions.get(bid)
        _require(obj is not None and isinstance(obj, analysis.BallView),
                 f"{bid!r} is not a materialized ball")
        return obj


# declaration section -> the SpecEnv method that builds one declaration of it
SECTIONS = {"groups": SpecEnv._group, "subgroups": SpecEnv._subgroup,
            "monomorphisms": SpecEnv._mono, "graphs": SpecEnv._graph,
            "presentations": SpecEnv._presentation}


def validate_spec(spec: dict) -> SpecEnv:
    """Parse and build every declaration; raises SpecError on nonsense."""
    env = SpecEnv(spec)
    for section in SECTIONS:
        for did in spec.get(section, {}):
            env._declared(section, did)
    _require(isinstance(spec.get("pipeline", []), list), "pipeline must be a list")
    for i, step in enumerate(spec.get("pipeline", [])):
        _require(isinstance(step, dict) and "op" in step,
                 f"pipeline[{i}] needs an 'op'")
        _require(step["op"] in STEP_HANDLERS,
                 f"pipeline[{i}]: unknown op {step['op']!r}")
        _require(isinstance(step.get("id", ""), str),
                 f"pipeline[{i}]: id must be a string")
    for i, exp in enumerate(spec.get("exports", [])):
        _known_keys(exp, {"format", "source", "path", "cut_orbits"},
                    f"exports[{i}]")
        _require(exp.get("format") in ("dot", "json"),
                 f"exports[{i}]: format must be dot or json")
        _require("path" in exp, f"exports[{i}]: missing key 'path'")
    return env


# -- step implementations -------------------------------------------------------


def _step_induce(env, step, report):
    g = env.group(step["group"])
    emb = induce_graph(factor_embedding(g, step["side"]),
                       env.graph(step["graph"]),
                       prefix=step.get("prefix", ""))
    env.constructions[step["id"]] = emb.codomain
    report.record(step["id"], "induce", "ok",
                  {"vertex_orbits": emb.codomain.vertex_orbit_count,
                   "edge_orbits": emb.codomain.edge_orbit_count})


def _step_c_pushout(env, step, report):
    g = env.group(step["group"])
    left = env.graph(step["left"])
    right = env.graph(step["right"])
    res = c_pushout(g, left, right,
                    env.vertex(left, step["x"]), env.vertex(right, step["y"]))
    env.constructions[step["id"]] = res.graph
    env.constructions[f"{step['id']}:result"] = res
    report.record(step["id"], "c_pushout", "ok",
                  {"vertex_orbits": res.graph.vertex_orbit_count,
                   "edge_orbits": res.graph.edge_orbit_count,
                   "z_orbit": res.z.orbit_id})


def _step_coalesce(env, step, report):
    g = env.group(step["group"])
    graph = env.graph(step["graph"])
    res = coalesce(g, graph, env.vertex(graph, step["x"]),
                   env.vertex(graph, step["y"]),
                   require_hypotheses=step.get("require_hypotheses", True))
    env.constructions[step["id"]] = res.graph
    env.constructions[f"{step['id']}:result"] = res
    report.record(step["id"], "coalesce", "ok",
                  {"vertex_orbits": res.graph.vertex_orbit_count,
                   "edge_orbits": res.graph.edge_orbit_count,
                   "z_orbit": res.z.orbit_id,
                   "hypotheses": res.graph.provenance.hypotheses_hold})


def _step_bass_serre(env, step, report):
    g = env.group(step["group"])
    tree = bass_serre(g)
    env.constructions[step["id"]] = tree
    report.record(step["id"], "bass_serre", "ok",
                  {"vertex_orbits": tree.vertex_orbit_count})


def _step_ball(env, step, report):
    graph = env.graph(step["graph"])
    radius = _natural(step, "radius", env.budgets["radius"])
    budget = _natural(step, "word_budget", env.budgets["word_budget"])
    bases = [env.vertex(graph, ref) for ref in step.get("base", [])]
    if not bases:
        prov = graph.provenance
        bases = [prov.z] if prov is not None else \
            [graph.vertices.elem(graph.vertices.orbits[0].orbit_id)]
    view = ball_view(graph, bases, radius, word_budget=budget,
                     max_vertices=env.budgets["max_vertices"])
    env.constructions[step["id"]] = view
    env.constructions[f"{step['id']}:graph"] = graph
    report.record(step["id"], "ball", "ok",
                  {"vertices": view.vertex_count, "edges": view.edge_count,
                   "complete": view.complete})


def _step_validate(env, step, report):
    graph = env.graph(step["graph"])
    rep = validate_graph(graph)
    ok = rep.valid and \
        (rep.simplicial or not step.get("expect_simplicial", True)) and \
        (rep.no_inversions or not step.get("expect_no_inversions", True))
    report.check(step.get("id", step["graph"]), "validate", "graph-valid", ok,
                 {"violations": [str(v) for v in rep.violations]},
                 f"simplicial={rep.simplicial} no_inversions={rep.no_inversions}")


def _step_orbit_counts(env, step, report):
    graph = env.graph(step["graph"])
    ok = True
    detail = {"vertex_orbits": graph.vertex_orbit_count,
              "edge_orbits": graph.edge_orbit_count}
    if "vertices" in step:
        ok &= graph.vertex_orbit_count == _natural(step, "vertices")
    if "edges" in step:
        ok &= graph.edge_orbit_count == _natural(step, "edges")
    report.check(step.get("id", step["graph"]), "orbit_counts", "orbit-counts",
                 ok, detail, json.dumps(detail, sort_keys=True))


def _step_ball_counts(env, step, report):
    view = env.ball(step["ball"])
    ok = True
    if "vertices" in step:
        ok &= view.vertex_count == _natural(step, "vertices")
    if "edges" in step:
        ok &= view.edge_count == _natural(step, "edges")
    detail = {"vertices": view.vertex_count, "edges": view.edge_count}
    report.check(step.get("id", step["ball"]), "ball_counts", "ball-counts",
                 ok, detail, json.dumps(detail, sort_keys=True))


def _step_audit_tree(env, step, report):
    view = env.ball(step["ball"])
    forest = view.is_forest()
    conn = view.connected()
    report.check(step.get("id", step["ball"]), "audit_tree", "window-is-tree",
                 forest and conn, {"forest": forest, "connected": conn},
                 f"forest={forest} connected={conn}")


def _step_audit_paths(env, step, report):
    """Exhaustive embedded-path counts over a window pair sample."""
    view = env.ball(step["ball"])
    bound = _natural(step, "length_bound", 2 * view.radius)
    limit = _natural(step, "pair_limit", 40)
    max_count = _natural(step, "max_count", 1)
    m = min(limit, view.vertex_count)
    ok = True
    worst = 0
    for x in range(m - 1):
        counts = embedded_path_counts(view, x, range(x + 1, m), bound)
        top = max(counts.values())
        worst = max(worst, top)
        ok = ok and top <= max_count
    report.check(step.get("id", step["ball"]), "audit_paths",
                 "embedded-path-counts", ok, {"max_count": worst},
                 f"max={worst}")


def _step_audit_fineness(env, step, report):
    graph = env.graph(step["graph"])
    vertex = env.vertex(graph, step["vertex"])
    cert = fineness_probe(
        graph, vertex,
        _natural(step, "angle_bound", env.budgets["angle_bound"]),
        _natural(step, "radius", env.budgets["radius"]),
        _natural(step, "threshold", env.budgets["threshold"]),
        max_vertices=env.budgets["max_vertices"])
    report.record(step.get("id", "fineness"), "audit_fineness", cert.condition,
                  {"verdict": cert.verdict, "witnesses": len(cert.witness)},
                  [("fineness", cert.condition, cert.verdict)])


def _step_audit_all_angles_infinite(env, step, report):
    view = env.ball(step["ball"])
    bad = []
    for v in range(view.vertex_count):
        if not view.vertices[v].complete:
            continue
        table = angle_table(view, v)
        for (x, y), val in sorted(table.values.items()):
            if x != y and val is not INFINITE:
                bad.append((v, x, y, val))
    report.check(step.get("id", step["ball"]), "audit_all_angles_infinite",
                 "all-angles-infinite", not bad, {"finite_angles": bad[:5]},
                 f"finite angle at {bad[0]}" if bad else "")


def _step_audit_cut_vertex(env, step, report):
    graph = env.graph(step["graph"])
    view = env.ball(step["ball"])
    prov = graph.provenance
    z = prov.z if prov is not None and "vertex" not in step \
        else env.vertex(graph, step["vertex"])
    rep = cut_vertex_audit(graph, view, z)
    verdict = "pass" if rep.passed else "fail"
    report.record(step.get("id", "cut"), "audit_cut_vertex", verdict,
                  {"components": rep.component_count,
                   "details": [str(d) for d in rep.details[:6]],
                   "sampled": rep.inconclusive},
                  [("cut-vertex", verdict, f"components={rep.component_count}")])


def _step_audit_delta(env, step, report):
    view = env.ball(step["ball"])
    est = delta_estimate(view)
    ok = ("expect_delta" not in step) or (est.delta == step["expect_delta"])
    report.check(step.get("id", step["ball"]), "audit_delta", "delta-estimate",
                 ok, {"delta": est.delta}, f"delta={est.delta:g}")


def _peripherals(env, graph, step):
    """The step's peripherals: subgroup ids or ``{"orbit": ...}``
    stabilizers of the graph."""
    return [env.subgroup(s) if isinstance(s, str)
            else env.orbit(graph, s["orbit"])
            for s in step.get("peripherals", [])]


def _report_audit(step, report, op, prefix, audit):
    """An audit step's record, with one ``prefix:name`` verdict per
    condition of the audit report."""
    report.record(step.get("id", step["graph"]), op, audit.verdict,
                  {"conditions": [c.as_tuple() for c in audit.conditions]},
                  [(f"{prefix}:{c.name}", c.verdict, c.detail)
                   for c in audit.conditions])


def _step_audit_gh(env, step, report):
    graph = env.graph(step["graph"])
    _report_audit(step, report, "audit_gh", "gh", gh_graph_audit(
        graph, _peripherals(env, graph, step),
        angle_bound=_natural(step, "angle_bound", env.budgets["angle_bound"]),
        fineness_radius=_natural(step, "radius", env.budgets["radius"] + 4),
        threshold=_natural(step, "threshold", env.budgets["threshold"]),
        delta_radius=_natural(step, "delta_radius", env.budgets["delta_radius"]),
        delta_cap=env.budgets["delta_cap"],
        conj_budget=env.budgets["conj_budget"],
        max_vertices=env.budgets["max_vertices"]))


def _step_audit_cayley_abels(env, step, report):
    graph = env.graph(step["graph"])
    _report_audit(step, report, "audit_cayley_abels", "ca", cayley_abels_audit(
        graph, _peripherals(env, graph, step),
        radius=_natural(step, "radius", env.budgets["radius"]),
        conj_budget=env.budgets["conj_budget"]))


def _step_audit_stabilizer_chains(env, step, report):
    graph = env.graph(step["graph"])
    prov = graph.provenance
    _require(prov is not None and prov.kind == "pushout",
             "stabilizer chains need a pushout graph")
    po = prov.vertex_pushout
    group = graph.group
    z = prov.z
    stab = graph.vertices.stabilizer(z.orbit_id)
    radius = _natural(step, "radius", 3)
    checked = 0
    certified = 0
    mismatches = []
    for w in ball_enumerate(group, group.generator_words(), radius):
        fixes = graph.vertices.elem_equal(graph.vertices.act(w, z), z)
        member = stab.contains(w) == YES
        if fixes != member:
            mismatches.append(str(w))
            continue
        if fixes:
            chain_factorize(po, w, z)  # raises on a bad certificate
            certified += 1
        checked += 1
    report.check(step.get("id", step["graph"]), "audit_stabilizer_chains",
                 "stabilizer-chains", not mismatches,
                 {"checked": checked, "certified": certified,
                  "mismatches": mismatches[:5]},
                 f"{certified} chain certificates over {checked} elements")


def _step_audit_embedding(env, step, report):
    """Injectivity of the original graph inside a coalescence, on a ball."""
    graph = env.graph(step["graph"])
    prov = graph.provenance
    _require(prov is not None and prov.kind == "coalescence",
             "embedding audit needs a coalescence graph")
    result = env.constructions.get(f"{step['graph']}:result")
    _require(result is not None, "missing coalescence result")
    source = prov.graph
    radius = _natural(step, "radius", 4)
    view = ball_view(source, [prov.x, prov.y], radius,
                     max_vertices=env.budgets["max_vertices"])
    big_vertices = result.embedding.codomain.vertices
    push = result.embedding.mono.push
    images = ((v.elem, result.quotient.vertex(
        big_vertices.elem(v.elem.orbit_id, push(v.elem.rep))))
        for v in view.vertices)
    found = [(str(a), str(b)) for a, b in collisions(graph.vertices, images)]
    report.check(step.get("id", step["graph"]), "audit_embedding",
                 "embedding-injective", not found,
                 {"vertices": len(view.vertices), "collisions": found[:5]},
                 f"{len(view.vertices)} vertices embedded")


def _step_stabilizer_check(env, step, report):
    graph = env.graph(step["graph"])
    stab = env.orbit(graph, step["orbit"])
    sid = step.get("id", step["orbit"])
    bad = []
    for key, expected, label in (("contains", YES, "missing"),
                                 ("excludes", NO, "present")):
        texts = step.get(key, [])
        words = _words(texts, graph.group, f"step {sid!r}: {key}")
        bad += [(label, t) for t, w in zip(texts, words)
                if stab.contains(w) != expected]
    report.check(sid, "stabilizer_check", "stabilizer-membership", not bad,
                 {"bad": bad}, str(bad) if bad else "")


def _step_project_tree(env, step, report):
    graph = env.graph(step["graph"])
    tree, pi = project_to_tree(graph)
    env.constructions[step.get("id", "tree")] = tree
    radius = _natural(step, "check_radius", 3)
    group = graph.group
    z = graph.provenance.z
    distinguished = tree.hooks.distinguished
    commuting = all(pi.commutes_on(graph.edges.elem(eo.orbit_id))
                    for eo in graph.edge_orbits)
    preimage_ok = True
    for w in ball_enumerate(group, group.generator_words(), radius):
        v = graph.vertices.act(w, z)
        hits = tree.vertices.elem_equal(pi.vertex(v), distinguished)
        if hits != graph.vertices.elem_equal(v, z):
            preimage_ok = False
            break
    report.check(step.get("id", "tree"), "project_tree", "tree-projection",
                 commuting and preimage_ok,
                 {"commuting": commuting, "preimage_singleton": preimage_ok},
                 f"commuting={commuting} preimage={preimage_ok}")


def _step_presentation_amalgam(env, step, report):
    g = env.group(step["group"])
    p1 = env.presentation(step["left"])
    p2 = env.presentation(step["right"])
    try:
        join = JoinSubgroup(g, p1.peripherals[step["left_label"]],
                            p2.peripherals[step["right_label"]])
    except GroupMismatch as exc:
        raise SpecError(f"step {step['id']!r}: {exc}") from None
    out = amalgam_presentation(p1, step["left_label"], p2, step["right_label"],
                               g, join, join_label=step.get("join_label", "KK"))
    env.constructions[step["id"]] = out
    count_ok = len(out.relators) == len(p1.relators) + len(p2.relators)
    rep = verify_relators(out, g)
    report.check(step["id"], "presentation_amalgam", "amalgam-presentation",
                 count_ok and rep.passed,
                 {"relators": len(out.relators), "count_ok": count_ok,
                  "relators_pass": rep.passed},
                 f"{len(out.relators)} relators")


def _step_presentation_hnn(env, step, report):
    g = env.group(step["group"])
    pres = env.presentation(step["presentation"])
    join = generated(g, _words(step["join_generators"], g,
                               f"step {step['id']!r}"),
                     budget=_natural(step, "budget", 4))
    out = hnn_presentation(pres, step["k_label"], step["l_label"], g, join,
                           join_label=step.get("join_label", "KtL"))
    env.constructions[step["id"]] = out
    count_ok = len(out.relators) == len(pres.relators)
    rep = verify_relators(out, g)
    report.check(step["id"], "presentation_hnn", "hnn-presentation",
                 count_ok and rep.passed,
                 {"relators": len(out.relators), "count_ok": count_ok,
                  "relators_pass": rep.passed},
                 f"{len(out.relators)} relators")


def _step_verify_relators(env, step, report):
    pres = env.presentation(step["presentation"])
    g = env.group(step["group"])
    rep = verify_relators(pres, g)
    report.check(step.get("id", step["presentation"]), "verify_relators",
                 "relators-trivial", rep.passed,
                 {"failures": [str(w) for _, w in rep.failures[:5]]},
                 f"{len(rep.failures)} failures")


def _step_dehn(env, step, report):
    sid = step.get("id", "dehn")
    _require(isinstance(step.get("expect_values", []), list),
             f"step {sid!r}: expect_values must be a list")
    pres = env.presentation(step["presentation"])
    g = env.group(step["group"])
    table = dehn_bruteforce(
        pres, g, _natural(step, "max_length"),
        fill_cap=_natural(step, "fill_cap", env.budgets["fill_cap"]),
        conjugator_cap=_natural(step, "conjugator_cap",
                                env.budgets["conjugator_cap"]),
        h_ball=_natural(step, "h_ball", env.budgets["h_ball"]))
    env.constructions[sid] = table
    values = [e.value for e in table.entries]
    flags = [e.flag() for e in table.entries]
    ok = values == sorted(values)
    if "expect_values" in step:
        ok &= values == step["expect_values"]
    report.check(sid, "dehn", "dehn-table", ok,
                 {"values": values, "flags": flags},
                 f"values={values} flags={flags}")


def _step_hnn2(env, step, report):
    """Stable-letter-into-a-conjugate recipe: reduce to an amalgam with an
    HNN extension of the distinguished subgroup, and certify the natural
    isomorphism on a ball."""
    check_radius = _natural(step, "check_radius", 3)
    g = env.group(step["group"])
    k_group = env.group(step["k_group"])
    k_embed = env.mono(step["k_embed"])
    c_in_g = env.subgroup(step["edge"])
    phi = env.mono(step["iso"])
    s = g.normalize(_words([step.get("conjugator", "1")], g,
                           f"step {step['id']!r}")[0])
    t_name = step.get("stable_letter", "t")
    u_name = step.get("recipe_letter", "u")

    g_phi = build_hnn(f"{step['id']}:hnn_phi", g, c_in_g, phi, t_name,
                      trust_monomorphisms=True)
    psi_images = [g.multiply(s.inverse(), phi.push(w), s)
                  for w in c_in_g.generators]
    psi = Monomorphism(c_in_g, generated(g, psi_images), psi_images)
    g_psi = build_hnn(f"{step['id']}:hnn_psi", g, c_in_g, psi, u_name,
                      trust_monomorphisms=True)

    # the same data inside the subgroup's own presentation
    c_in_k_gens = [k_embed.preimage(w) for w in c_in_g.generators]
    _require(all(w is not None for w in c_in_k_gens),
             "edge subgroup must lie inside the distinguished subgroup")
    c_in_k = generated(k_group, c_in_k_gens)
    psi_k_images = [k_embed.preimage(w) for w in psi_images]
    _require(all(w is not None for w in psi_k_images),
             "conjugated image must return into the distinguished subgroup")
    psi_k = Monomorphism(c_in_k, generated(k_group, psi_k_images), psi_k_images)
    ell = build_hnn(f"{step['id']}:L", k_group, c_in_k, psi_k, u_name,
                    trust_monomorphisms=True)
    into_left = k_embed
    into_right = Monomorphism(whole(k_group),
                              RestrictedSubgroup(ell, whole(k_group), "base"),
                              k_group.generator_words())
    amalg = build_amalgam(f"{step['id']}:amalgam", g, ell, into_left,
                          into_right, trust_monomorphisms=True)

    for name, built in (("hnn_phi", g_phi), ("hnn_psi", g_psi),
                        ("amalgam", amalg)):
        env.constructions[f"{step['id']}:{name}"] = built
        env.memo["groups", f"{step['id']}:{name}"] = built

    t = Word(((t_name, 1),))
    u = Word(((u_name, 1),))

    def to_phi(word):
        out = []
        for name, sign in word:
            if name == u_name:
                rep = s.inverse() * t
                out.extend(rep if sign > 0 else rep.inverse())
            else:
                out.append((name, sign))
        return Word(out)

    relators_ok = all(
        g_phi.is_identity(to_phi(u * w * u.inverse()) *
                          g.multiply(s.inverse(), phi.push(w), s).inverse())
        for w in c_in_g.generators
    )
    ball = ball_enumerate(g_psi, g_psi.generator_words(), check_radius)
    images = {}
    injective = True
    for w in ball:
        img = g_phi.normalize(to_phi(w))
        if img in images and images[img] != w:
            injective = False
            break
        images[img] = w
    amalgam_ok = all(
        amalg.is_identity(u * k_embed.push(w) * u.inverse() *
                          k_embed.push(psi_k.push(w)).inverse())
        for w in c_in_k_gens
    )
    report.check(step["id"], "hnn2", "hnn2-recipe",
                 relators_ok and injective and amalgam_ok,
                 {"relators_ok": relators_ok, "injective_on_ball": injective,
                  "amalgam_relation": amalgam_ok, "ball": len(ball)},
                 f"ball={len(ball)} injective={injective}")


def _step_normalize_check(env, step, report):
    g = env.group(step["group"])
    sid = step.get("id", "normalize")
    lhs, rhs = (g.normalize(w) for w in _words(
        [step["word"], step.get("equals", "1")], g, f"step {sid!r}"))
    report.check(sid, "normalize_check", "normalize", lhs == rhs,
                 {"lhs": str(lhs), "rhs": str(rhs)}, f"{lhs} vs {rhs}")


STEP_HANDLERS = {
    "induce": _step_induce,
    "c_pushout": _step_c_pushout,
    "coalesce": _step_coalesce,
    "bass_serre": _step_bass_serre,
    "ball": _step_ball,
    "validate": _step_validate,
    "orbit_counts": _step_orbit_counts,
    "ball_counts": _step_ball_counts,
    "audit_tree": _step_audit_tree,
    "audit_paths": _step_audit_paths,
    "audit_fineness": _step_audit_fineness,
    "audit_all_angles_infinite": _step_audit_all_angles_infinite,
    "audit_cut_vertex": _step_audit_cut_vertex,
    "audit_delta": _step_audit_delta,
    "audit_gh": _step_audit_gh,
    "audit_cayley_abels": _step_audit_cayley_abels,
    "audit_stabilizer_chains": _step_audit_stabilizer_chains,
    "audit_embedding": _step_audit_embedding,
    "stabilizer_check": _step_stabilizer_check,
    "project_tree": _step_project_tree,
    "presentation_amalgam": _step_presentation_amalgam,
    "presentation_hnn": _step_presentation_hnn,
    "verify_relators": _step_verify_relators,
    "dehn": _step_dehn,
    "hnn2": _step_hnn2,
    "normalize_check": _step_normalize_check,
}


def run_pipeline(spec: dict, *, overrides=None, timings=False) -> RunReport:
    """Execute a validated spec; determinism holds for fixed spec+budgets.

    The cyclic garbage collector is paused for the whole run, spec
    validation included, and left as the caller had it on the way out.  A
    run builds hundreds of thousands of long-lived window and normal-form
    objects and frees what it drops by reference counting alone, so every
    full collection during a run walks the live windows and finds nothing
    to free (``test_runs_make_no_cyclic_garbage`` in
    ``tests/test_pipeline.py`` checks this on every built-in).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        if overrides:
            spec = json.loads(json.dumps(spec))
            spec.setdefault("budgets", {}).update(overrides)
        env = validate_spec(spec)
        # the report echoes the numeric budgets; the one switch,
        # trust_monomorphisms, says whether declared injections are
        # certified, not how far anything is searched, so it is not echoed
        echoed = {k: v for k, v in env.budgets.items()
                  if k != "trust_monomorphisms"}
        report = RunReport(env.name, budgets=echoed)
        if timings:
            report.timings_ms = {}
        for i, step in enumerate(spec.get("pipeline", [])):
            op = step["op"]
            start = time.monotonic()
            try:
                STEP_HANDLERS[op](env, _Decl(step, f"pipeline[{i}]"), report)
            except BudgetExceeded as exc:
                report.record(step.get("id", f"step{i}"), op, "error",
                              {"budget_exceeded": str(exc)})
                report.budget_exhausted = True
                break
            except SpecError:
                raise
            except ForgeError as exc:
                error = f"{type(exc).__name__}: {exc}"
                report.record(step.get("id", f"step{i}"), op, "error",
                              {"error": error}, [(op, "fail", error)])
            if timings:
                key = f"{i}:{op}"
                report.timings_ms[key] = round(
                    (time.monotonic() - start) * 1000, 3)
        report.env = env
        return report
    finally:
        if collecting:
            gc.enable()
