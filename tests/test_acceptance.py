"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

Every expected value is either independently derived in-line (closures,
union-find over enumerated cosets, hand-checked combinatorics recorded in
comments) or produced by a pipeline whose verdicts assert the same thing.
Stated wall-clock bounds are asserted as written.
"""

import hashlib
import importlib.util
import itertools
import json
import sys
import time
from pathlib import Path

from graphforge.analysis import ball_view, delta_estimate, fineness_probe
from graphforge.examples import builtin_examples
from graphforge.ggraphs import bass_serre, coalesce, coned_off, edgeless_cosets
from graphforge.groups import FiniteGroup, ball_enumerate
from graphforge.gsets import GMap, GSet, Orbit, chain_factorize, induce_gset, pushout_gsets
from graphforge.pipeline import run_pipeline
from graphforge.relpres import dehn_bruteforce, verify_relators
from graphforge.subgroups import (
    Monomorphism,
    RestrictedSubgroup,
    cyclic,
    free_factor,
    generated,
    whole,
    YES,
)
from graphforge.words import Word

import grouplib

ANSWERS = Path(__file__).resolve().parent.parent / "bench" / "answers.json"


def _line(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def _timed(bound_s):
    start = time.monotonic()

    def done():
        elapsed = time.monotonic() - start
        assert elapsed < bound_s, f"budget {bound_s}s exceeded: {elapsed:.1f}s"
        return elapsed

    return done


def _verdicts_by_name(report):
    table = {}
    for v in report.verdicts:
        table.setdefault(v["name"], []).append(v)
    return table


def test_criterion_01_pushout_of_points():
    done = _timed(5)
    report = run_pipeline(builtin_examples()["example-amalgam-1"])
    pushout = next(s for s in report.steps if s["op"] == "c_pushout")
    ball = next(s for s in report.steps if s["op"] == "ball")
    ok = (report.exit_code() == 0
          and pushout["detail"]["vertex_orbits"] == 1
          and pushout["detail"]["edge_orbits"] == 0
          and ball["detail"]["vertices"] == 1)
    elapsed = done()
    _line(1, ok, f"single-vertex pushout, ball={ball['detail']} "
                 f"({elapsed:.1f}s)")


def test_criterion_02_coned_pushout():
    done = _timed(60)
    report = run_pipeline(builtin_examples()["example-amalgam-2"])
    pushout = next(s for s in report.steps if s["op"] == "c_pushout")
    names = _verdicts_by_name(report)
    ok = (report.exit_code() == 0
          and pushout["detail"]["vertex_orbits"] == 3
          and pushout["detail"]["edge_orbits"] == 4
          and names["window-is-tree"][0]["verdict"] == "pass"
          and names["embedded-path-counts"][0]["verdict"] == "pass"
          and names["stabilizer-chains"][0]["verdict"] == "pass"
          and names["cut-vertex"][0]["verdict"] == "pass")
    elapsed = done()
    _line(2, ok, f"3/4 orbits, tree window, chains and cut vertex "
                 f"({elapsed:.1f}s)")


def test_criterion_03_dihedral_coalescence():
    done = _timed(5)
    a = grouplib.dihedral_product()
    h1 = free_factor(a, ["p"])
    h2 = free_factor(a, ["q"])
    iso = Monomorphism(h1, h2, ["q"])
    from graphforge.subgroups import build_hnn
    g = build_hnn("D*phi", a, h1, iso, "t")
    xg = edgeless_cosets(a, [h1, h2], labels=["xH1", "yH2"])
    z = coalesce(g, xg, xg.vertices.elem("xH1"), xg.vertices.elem("yH2"))
    ok = z.vertex_orbit_count == 1

    # independent coset arithmetic: rho(g.x) keys must partition the radius-6
    # ball exactly like left cosets of H1
    h1g = RestrictedSubgroup(g, h1, "base")
    rho = z.provenance.vertex_map
    ball = ball_enumerate(g, g.generator_words(), 6)
    by_image = {}
    by_coset = {}
    for i, w in enumerate(ball):
        img = rho.apply(rho.domain.elem("xH1", w))
        by_image.setdefault(z.vertices.elem_key(img), []).append(i)
        by_coset.setdefault(tuple(h1g.coset_rep(w)), []).append(i)
    part_a = {frozenset(v) for v in by_image.values()}
    part_b = {frozenset(v) for v in by_coset.values()}
    ok = ok and part_a == part_b
    elapsed = done()
    _line(3, ok, f"one orbit; {len(ball)} ball elements partition alike "
                 f"({elapsed:.1f}s)")


def test_criterion_04_shift_coalescence_stabilizer():
    done = _timed(30)
    g = grouplib.shift_hnn()
    f = g.base
    xg = coned_off(f, [cyclic(f, "a"), cyclic(f, "b")],
                   [Word.parse("a"), Word.parse("b")], labels=["A", "B"])
    x = xg.vertices.elem("cone:A")
    y = xg.vertices.elem("cone:B")
    z = coalesce(g, xg, x, y)
    zv = z.provenance.z
    hb = RestrictedSubgroup(g, cyclic(f, "b"), "base")
    ball5 = ball_enumerate(g, g.generator_words(), 5)

    # item 1: fixing the identified vertex is exactly membership in <b>;
    # cross-checked by union-find over the raw identifications
    ha = RestrictedSubgroup(g, cyclic(f, "a"), "base")
    t = Word.parse("t")
    parent = {}

    def key(tag, w):
        handle = ha if tag == "A" else hb
        return (tag, tuple(handle.coset_rep(w)))

    def find(k):
        parent.setdefault(k, k)
        while parent[k] != k:
            k = parent[k]
        return k

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for w in ball_enumerate(g, g.generator_words(), 7):
        union(key("A", g.multiply(w, t)), key("B", w))
    zcls = find(key("B", Word()))

    item1 = True
    for w in ball5:
        fixes = z.vertices.elem_equal(z.vertices.act(w, zv), zv)
        member = hb.contains(w) == YES
        oracle = find(key("B", w)) == zcls
        if fixes != member or fixes != oracle:
            item1 = False
            break

    # item 2: the original graph embeds injectively on its radius-5 ball
    view = ball_view(xg, [x, y], 5, max_vertices=300000)
    seen = {}
    item2 = True
    rho = z.provenance.vertex_map
    for v in view.vertices:
        big_elem = rho.domain.elem(
            v.elem.orbit_id, z.provenance.mono.push(v.elem.rep))
        img = rho.apply(big_elem)
        k = z.vertices.elem_key(img)
        if k in seen:
            item2 = False
            break
        seen[k] = v
    ok = item1 and item2
    elapsed = done()
    _line(4, ok, f"stabilizer=<b> over {len(ball5)} elements; "
                 f"{view.vertex_count} vertices embed ({elapsed:.1f}s)")


def _pairs_for_criterion_05():
    s3 = grouplib.sym3()
    z4 = FiniteGroup.cyclic(4, "a", "Z4")
    out = []
    for gname, big, img in (("S3", s3, "y"), ("S3", s3, "x"), ("Z4", z4, "a a")):
        order = {"y": 3, "x": 2, "a a": 2}[img]
        k_group = FiniteGroup.cyclic(order, "k", f"K{order}")
        emb = Monomorphism(whole(k_group),
                           generated(big, [img]), [Word.parse(img)])
        out.append((k_group, big, emb))
    return out


def _gsets_over(group, handles, max_orbits):
    """All multisets of the handle list with at most max_orbits parts."""
    sets = []
    for size in range(1, max_orbits + 1):
        for combo in itertools.combinations_with_replacement(
                range(len(handles)), size):
            orbits = [Orbit(f"o{i}", handles[idx])
                      for i, idx in enumerate(combo)]
            sets.append(GSet(group, orbits))
    return sets


def _point_stab(gset, elem, group):
    return frozenset(
        e for e in group.elements()
        if gset.elem_equal(gset.act(group.word_of(e), elem), elem)
    )


def test_criterion_05_induced_action_suite():
    done = _timed(60)
    checked_maps = 0
    for k_group, big, emb in _pairs_for_criterion_05():
        k_handles = [grouplib.table_subgroup(k_group, elems)
                     for elems in grouplib.all_subgroups(k_group)]
        g_handles = [grouplib.table_subgroup(big, elems)
                     for elems in grouplib.all_subgroups(big)]
        ksets = _gsets_over(k_group, k_handles, 3)
        tsets = _gsets_over(big, g_handles, 3)
        k_elems = [k_group.normalize(k_group.word_of(e))
                   for e in k_group.elements()]
        k_images = {tuple(w): emb.push(w) for w in k_elems}

        for kset in ksets:
            induced, inc = induce_gset(emb, kset)
            # item 1: the inclusion induces an orbit bijection
            assert induced.orbit_count == kset.orbit_count
            image_orbits = {inc.apply(kset.elem(o.orbit_id)).orbit_id
                            for o in kset.orbits}
            assert image_orbits == set(induced.orbit_ids())

            # item 2: K-stabilizers equal G-stabilizers of included points
            for s in kset.elements():
                k_stab = {k_images[tuple(w)]
                          for w in k_elems
                          if kset.elem_equal(kset.act(w, s), s)}
                g_stab = {big.normalize(big.word_of(e))
                          for e in _point_stab(induced, inc.apply(s), big)}
                assert {big.normalize(w) for w in k_stab} == g_stab, (s,)

            # item 4: a translate meeting the image lies in K and fixes it
            image_keys = {induced.elem_key(inc.apply(s))
                          for s in kset.elements()}
            for e in big.elements():
                w = big.word_of(e)
                translated = {induced.elem_key(induced.act(w, inc.apply(s)))
                              for s in kset.elements()}
                if translated & image_keys:
                    assert emb.codomain.contains(w) == YES
                    assert translated == image_keys

        # item 5: stabilizer-preserving K-maps with injective orbit maps
        # induce injective G-maps (targets: G-sets of at most 3 orbits)
        for kset in ksets:
            base_stabs = []
            for o in kset.orbits:
                base_stabs.append([
                    k_images[tuple(w)] for w in k_elems
                    if o.stabilizer.contains(w) == YES
                ])
            for tset in tsets:
                t_elems = tset.elements()
                admissible = []
                for stab_words in base_stabs:
                    good = []
                    for t in t_elems:
                        if all(tset.elem_equal(tset.act(w, t), t)
                               for w in stab_words):
                            # exact stabilizer match, not mere containment
                            pt = _point_stab(tset, t, big)
                            expected = {big.element_of(w) for w in stab_words}
                            if pt == frozenset(expected):
                                good.append(t)
                    admissible.append(good)
                for choice in itertools.product(*admissible):
                    orbit_ids = [t.orbit_id for t in choice]
                    if len(set(orbit_ids)) != len(orbit_ids):
                        continue  # orbit map must be injective
                    induced, inc = induce_gset(emb, kset)
                    images = {}
                    injective = True
                    for o, t in zip(kset.orbits, choice):
                        for e in big.elements():
                            w = big.word_of(e)
                            src = induced.elem_key(
                                induced.act(w, inc.apply(kset.elem(o.orbit_id))))
                            dst = tset.elem_key(tset.act(w, t))
                            if src in images and images[src] != dst:
                                injective = False
                            images[src] = dst
                    distinct = len(set(images.values())) == len(images)
                    assert injective and distinct, (kset, tset, choice)
                    checked_maps += 1
    elapsed = done()
    _line(5, True, f"{checked_maps} stabilizer-preserving maps verified "
                   f"({elapsed:.1f}s)")


def test_criterion_06_pushout_stabilizers_exhaustive():
    done = _timed(10)
    s3 = grouplib.sym3()
    lattice = grouplib.all_subgroups(s3)
    cases = 0
    for c_elems in lattice:
        for k1_elems in lattice:
            for k2_elems in lattice:
                if not (c_elems <= k1_elems and c_elems <= k2_elems):
                    continue
                c = grouplib.table_subgroup(s3, c_elems)
                k1 = grouplib.table_subgroup(s3, k1_elems)
                k2 = grouplib.table_subgroup(s3, k2_elems)
                R = GSet(s3, [Orbit("r", c)])
                S = GSet(s3, [Orbit("s", k1)])
                T = GSet(s3, [Orbit("t", k2)])
                po = pushout_gsets(GMap(R, S, {"r": S.elem("s")}),
                                   GMap(R, T, {"r": T.elem("t")}))
                z = po.include_s.apply(S.elem("s"))
                join = s3.subgroup_closure(k1_elems | k2_elems)
                for e in s3.elements():
                    w = s3.word_of(e)
                    fixes = po.gset.stabilizes(w, z)
                    assert fixes == (e in join), (c_elems, k1_elems, k2_elems)
                    if fixes:
                        chain_factorize(po, w, z)  # raises if uncertifiable
                cases += 1
    elapsed = done()
    _line(6, True, f"{cases} subgroup triples, stabilizers certified "
                   f"({elapsed:.1f}s)")


def test_criterion_07_fineness_probes():
    done = _timed(120)
    # (a) the subdivided tree of the finite-factor amalgam: every window
    # vertex has all angles infinite
    report = run_pipeline(builtin_examples()["example-tree-modular"])
    names = _verdicts_by_name(report)
    part_a = names["all-angles-infinite"][0]["verdict"] == "pass"

    # (b) coned line over the even subgroup: violation at the cone
    z_amb, coned = grouplib.int_line(), None
    coned = coned_off(z_amb, [cyclic(z_amb, "a a")], [Word.parse("a")],
                      labels=["E"])
    cert_b = fineness_probe(coned, coned.vertices.elem("cone:E"), 4, 12, 10)
    part_b = cert_b.verdict == "violation" and len(cert_b.witness) >= 10

    # (c) coned free group over one axis: locally finite at the cone
    f = grouplib.free2()
    coned_f = coned_off(f, [cyclic(f, "a")],
                        [Word.parse("a"), Word.parse("b")], labels=["A"])
    cert_c = fineness_probe(coned_f, coned_f.vertices.elem("cone:A"), 6, 8, 10)
    part_c = cert_c.ok
    ok = part_a and part_b and part_c
    elapsed = done()
    _line(7, ok, f"tree pass / cone violation ({len(cert_b.witness)} witnesses)"
                 f" / free cone pass ({elapsed:.1f}s)")


def _cycle_view(n):
    return grouplib.view_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_criterion_08_delta_estimates():
    done = _timed(5)
    g = grouplib.modular_amalgam()
    tree = bass_serre(g)
    tree_ball = ball_view(tree, [tree.vertices.elem("vA")], 5)
    d_tree = delta_estimate(tree_ball).delta

    d8 = delta_estimate(_cycle_view(8)).delta
    d5 = delta_estimate(_cycle_view(5)).delta
    d7 = delta_estimate(_cycle_view(7)).delta
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(0, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 0)]
    wedge = grouplib.view_from_edges(11, edges)
    d_wedge = delta_estimate(wedge).delta

    ok = d_tree == 0.0 and d8 == 2.0 and d_wedge == max(d5, d7)
    elapsed = done()
    _line(8, ok, f"tree 0, C8 {d8:g}, wedge {d_wedge:g} = max({d5:g},{d7:g}) "
                 f"({elapsed:.1f}s)")


def test_criterion_09_presentation_rewrites():
    done = _timed(10)
    from test_relpres import modular_presentations, toy_hnn_presentation
    from graphforge.relpres import amalgam_presentation, hnn_presentation
    from graphforge.subgroups import JoinSubgroup

    g, p1, p2 = modular_presentations()
    join = JoinSubgroup(g, p1.peripherals["K"], p2.peripherals["K"])
    amal = amalgam_presentation(p1, "K", p2, "K", g, join, join_label="M")
    amal_ok = (len(amal.relators) == len(p1.relators) + len(p2.relators)
               and verify_relators(amal, g).passed)

    h, pres = toy_hnn_presentation()
    join_h = generated(h, ["t a t^-1", "b"], budget=4)
    out = hnn_presentation(pres, "K", "L", h, join_h)
    hnn_ok = (len(out.relators) == len(pres.relators)
              and verify_relators(out, h).passed)
    ok = amal_ok and hnn_ok
    elapsed = done()
    _line(9, ok, f"relator counts preserved and all rewrites trivialize "
                 f"({elapsed:.1f}s)")


def test_criterion_10_dehn_table():
    done = _timed(60)
    from test_relpres import flat_pair
    z2, pres = flat_pair()
    table = dehn_bruteforce(pres, z2, 6)
    values = [e.value for e in table.entries]
    flags = [e.flag() for e in table.entries]
    # the commutator relator itself is the length-4 witness: it is a trivial
    # word of that length and fills with a single relator, pinning the max
    witness = pres.parse("A(a) b A(a^-1) b^-1")
    assert z2.is_identity(
        Word([l for tok in witness for l in
              ([(tok.name, tok.sign)] if hasattr(tok, "name")
               else list(tok.value))]))
    ok = (table.value(4) == 1
          and values == [0, 0, 0, 1, 1, 2]
          and values == sorted(values)
          and all(f == "exact" for f in flags))
    elapsed = done()
    _line(10, ok, f"table {values}, flags {set(flags)} ({elapsed:.1f}s)")


def test_criterion_11_determinism():
    # the recorded answers pin each built-in's exit code and report bytes
    with open(ANSWERS, encoding="utf-8") as fh:
        answers = json.load(fh)["builtins"]
    done = _timed(300)
    mismatched = []
    for name, spec in builtin_examples().items():
        report = run_pipeline(spec)
        first = report.to_json()
        second = run_pipeline(spec).to_json()
        digest = hashlib.sha256(first.encode("utf-8")).hexdigest()
        if first != second or answers[name] != {
                "exit_code": report.exit_code(), "sha256": digest}:
            mismatched.append(name)
    elapsed = done()
    _line(11, not mismatched,
          f"{len(builtin_examples())} pipelines byte-stable and as recorded "
          f"({elapsed:.1f}s)"
          + (f"; mismatched: {mismatched}" if mismatched else ""))


def _bench_module(name):
    """``bench/<name>.py`` loaded as a module, leaving no bytecode behind.

    While it loads, ``bench`` is on the path, as when its scripts run, so
    its own imports (``hooks``, ``workloads``, ``worker``) resolve; they are
    dropped from ``sys.modules`` again afterwards.
    """
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ANSWERS.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes, path = sys.dont_write_bytecode, list(sys.path)
    before = set(sys.modules)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ANSWERS.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        sys.path[:] = path
        for loaded in ("hooks", "workloads", "worker"):
            if loaded not in before:
                sys.modules.pop(loaded, None)
    return module


def _bench_hooks():
    return _bench_module("hooks")


def test_every_binding_of_a_hooked_callable_is_listed():
    # the benchmark self-test's hook check, run here: a new binding of a
    # hooked function, or a subclass overriding a hooked method (say
    # ``Group.normalize``), is traced by no row unless HOOKS lists it
    selftest = _bench_module("selftest")
    listed = {b for h in selftest.hooks.HOOKS for b in h.bindings}
    assert selftest.unlisted_bindings(listed) == []


def test_benchmark_hook_bindings_resolve():
    # a binding that no longer resolves turns every metric of its row to
    # null in the traced benchmark results; a ``[*]`` row binds the items
    # of a table, so the table itself must resolve
    hooks = _bench_hooks()
    broken = []
    for hook in hooks.HOOKS:
        for binding in hook.bindings:
            try:
                hooks._resolve(binding.removesuffix("[*]"))
            except (ImportError, AttributeError, KeyError) as exc:
                broken.append(f"{hook.metric}: {binding} "
                              f"({type(exc).__name__}: {exc})")
    assert not broken, "unresolved hook bindings: " + "; ".join(broken)
