"""Pipeline specs, built-in examples, CLI surface, exports."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphforge

from graphforge.cli import main as cli_main
from graphforge.dot import export_dot
from graphforge.errors import SpecError
from graphforge.examples import builtin_examples
from graphforge.pipeline import (
    DEFAULT_BUDGETS,
    STEP_HANDLERS,
    run_pipeline,
    validate_spec,
)


def test_builtin_catalog():
    names = list(builtin_examples())
    assert len(names) >= 5
    for required in ("example-amalgam-1", "example-amalgam-2",
                     "example-hnn-point", "example-hnn-coalesce",
                     "example-fineness-fail"):
        assert required in names


def test_every_builtin_has_expected_exit_code():
    for name, spec in builtin_examples().items():
        report = run_pipeline(spec)
        expected = 1 if name == "example-fineness-fail" else 0
        assert report.exit_code() == expected, (
            name, [v for v in report.verdicts if v["verdict"] != "pass"])


def unreachable_after_run(spec, **kwargs):
    """Objects the cyclic collector finds after ``spec`` ran with the
    collector off and its report (or its ``SpecError``) was dropped."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        try:
            run_pipeline(spec, **kwargs)
        except SpecError:
            pass
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


BAD_SPEC = {"groups": {"F": {"kind": "free"}}}   # no generators: exit 3


def test_runs_make_no_cyclic_garbage():
    # run_pipeline pauses the collector, which is safe only while a run
    # leaves nothing that reference counting cannot free
    examples = builtin_examples()
    for name, spec in examples.items():
        assert unreachable_after_run(spec) == 0, name
    small = {"max_vertices": 500}
    assert run_pipeline(examples["example-coned-free"],
                        overrides=small).exit_code() == 2
    assert unreachable_after_run(examples["example-coned-free"],
                                 overrides=small) == 0
    assert unreachable_after_run(BAD_SPEC) == 0


def test_run_pipeline_pauses_the_collector_and_restores_it(monkeypatch):
    seen = []

    def validate(spec):
        seen.append(gc.isenabled())
        return validate_spec(spec)

    monkeypatch.setattr("graphforge.pipeline.validate_spec", validate)
    spec = builtin_examples()["example-tree-modular"]
    assert gc.isenabled()
    run_pipeline(spec)
    assert gc.isenabled()
    with pytest.raises(SpecError):
        run_pipeline(BAD_SPEC)
    assert gc.isenabled()
    gc.disable()
    try:
        run_pipeline(spec)
        assert not gc.isenabled()
        with pytest.raises(SpecError):
            run_pipeline(BAD_SPEC)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False] * 4


def test_reports_are_byte_deterministic():
    spec = builtin_examples()["example-tree-modular"]
    a = run_pipeline(spec).to_json()
    b = run_pipeline(spec).to_json()
    assert a == b


def test_audit_gh_probes_honour_max_vertices():
    spec = builtin_examples()["example-coned-free"]
    cut = dict(spec, pipeline=[s for s in spec["pipeline"]
                               if s["op"] == "audit_gh"])
    report = run_pipeline(cut, overrides={"max_vertices": 1000})
    fine, = [v for v in report.verdicts
             if v["name"] == "gh:fine-at-infinite-stabilizers"]
    assert fine["verdict"] == "inconclusive"
    assert "ball exceeded 1000 vertices" in fine["detail"]


def only_steps(spec, op):
    return dict(spec, pipeline=[s for s in spec["pipeline"] if s["op"] == op])


def test_audit_fineness_and_audit_gh_end_on_the_same_budget_message():
    spec = builtin_examples()["example-coned-free"]
    small = {"max_vertices": 1000}
    fineness = run_pipeline(only_steps(spec, "audit_fineness"),
                            overrides=small)
    assert fineness.exit_code() == 2
    message = fineness.steps[-1]["detail"]["budget_exceeded"]
    report = run_pipeline(only_steps(spec, "audit_gh"), overrides=small)
    fine, = [v for v in report.verdicts
             if v["name"] == "gh:fine-at-infinite-stabilizers"]
    assert f"cone:A: inconclusive ({message})" in fine["detail"]


def test_coned_free_builds_its_cone_window_once(monkeypatch):
    built = []
    ball_view = graphforge.analysis.ball_view

    def counted(graph, bases, radius, word_budget=None, **kwargs):
        built.append(([b.orbit_id for b in bases], radius, word_budget))
        return ball_view(graph, bases, radius, word_budget, **kwargs)

    monkeypatch.setattr(graphforge.analysis, "ball_view", counted)
    spec = builtin_examples()["example-coned-free"]
    text = run_pipeline(spec).to_json()
    assert built.count((["cone:A"], 7, 10)) == 1
    # audit_fineness at a translate of the cone vertex shares the probe
    # and the report bytes
    moved = json.loads(json.dumps(spec))
    step, = [s for s in moved["pipeline"] if s["op"] == "audit_fineness"]
    step["vertex"]["rep"] = "b a^-2 b"
    built.clear()
    assert run_pipeline(moved).to_json() == text
    assert built.count((["cone:A"], 7, 10)) == 1


SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "pipeline-schema.md"


def schema_section(title):
    text = SCHEMA.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_schema_doc_lists_every_step_op():
    ops = re.findall(r"^\* `(\w+)` --", schema_section("pipeline steps"),
                     re.MULTILINE)
    assert sorted(ops) == sorted(STEP_HANDLERS)
    assert len(ops) == len(set(ops))


def test_schema_doc_names_every_budget():
    # the section opens with one sentence naming every budget key
    first = schema_section("budgets").strip().split(". ", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", first)) == sorted(DEFAULT_BUDGETS)


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError):
        validate_spec({"groups": {}, "mystery": 1})


def test_undeclared_reference_rejected():
    with pytest.raises(SpecError):
        validate_spec({
            "groups": {"F": {"kind": "free", "generators": ["a"]}},
            "graphs": {"X": {"kind": "cayley", "group": "nope"}},
        })


def test_unknown_op_rejected():
    with pytest.raises(SpecError):
        validate_spec({
            "groups": {"F": {"kind": "free", "generators": ["a"]}},
            "pipeline": [{"op": "frobnicate"}],
        })


def test_bad_budget_rejected():
    with pytest.raises(SpecError):
        validate_spec({"budgets": {"radius": -1}})
    with pytest.raises(SpecError):
        validate_spec({"budgets": {"unknown_budget": 3}})


def test_empty_pipeline_is_fine():
    report = run_pipeline({"name": "empty", "pipeline": []})
    assert report.exit_code() == 0
    assert report.steps == []


def test_cli_examples_listing(capsys):
    assert cli_main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "example-amalgam-1" in out
    assert cli_main(["examples", "example-amalgam-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "example-amalgam-1"
    assert cli_main(["examples", "zzz"]) == 3


def test_cli_run_builtin(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(["run", "example-amalgam-1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["spec"] == "example-amalgam-1"
    assert payload["timings_ms"] is None
    assert all(v["verdict"] == "pass" for v in payload["verdicts"])


def test_cli_run_spec_file(tmp_path):
    spec = builtin_examples()["example-hnn-coalesce"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert cli_main(["run", str(path), "--out", str(out)]) == 0


def test_cli_rejects_bad_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mystery": True}))
    assert cli_main(["run", str(path)]) == 3
    assert cli_main(["run", str(tmp_path / "missing.json")]) == 3
    path.write_text("{not json")
    assert cli_main(["run", str(path)]) == 3


def test_cli_negative_example_exit_code(tmp_path):
    out = tmp_path / "r.json"
    assert cli_main(["run", "example-fineness-fail", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    failing = [v for v in payload["verdicts"] if v["verdict"] == "fail"]
    assert failing and failing[0]["name"] == "fineness"


def test_cli_verify_matches_run(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli_main(["run", "example-hnn-point", "--out", str(out1)]) == 0
    assert cli_main(["verify", "example-hnn-point", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_cli_timings_flag(tmp_path):
    out = tmp_path / "t.json"
    assert cli_main(["run", "example-hnn-point", "--timings",
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["timings_ms"]


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_dot_export_deterministic(tmp_path):
    spec = json.loads(json.dumps(builtin_examples()["example-amalgam-1"]))
    spec["exports"] = [{"format": "dot", "source": "B",
                        "path": str(tmp_path / "ball.dot")}]
    path = _write_spec(tmp_path, spec)
    assert cli_main(["run", path, "--out", str(tmp_path / "r.json")]) == 0
    first = (tmp_path / "ball.dot").read_text()
    assert cli_main(["run", path, "--out", str(tmp_path / "r2.json")]) == 0
    assert (tmp_path / "ball.dot").read_text() == first
    # the pushout of two fixed points is a single node
    assert first.count("n0 [") == 1
    assert first.count(" -- ") == 0


def test_cli_export_writes_what_run_writes(tmp_path, capsys):
    spec = json.loads(json.dumps(builtin_examples()["example-amalgam-1"]))
    spec["exports"] = [{"format": "dot", "source": "B",
                        "path": str(tmp_path / "run.dot")}]
    path = _write_spec(tmp_path, spec)
    assert cli_main(["run", path, "--out", str(tmp_path / "run.json")]) == 0
    for fmt in ("dot", "json"):
        out = tmp_path / f"export.{fmt}"
        assert cli_main(["export", path, "--format", fmt, "--source", "B",
                         "--out", str(out)]) == 0
        assert out.read_text() == (tmp_path / f"run.{fmt}").read_text()
    assert cli_main(["export", path, "--format", "dot", "--source", "C"]) == 3
    assert capsys.readouterr().err == \
        "spec error: 'C' is not a materialized ball\n"


def test_dot_node_count_matches_ball():
    from graphforge.analysis import ball_view
    from graphforge.ggraphs import bass_serre
    import grouplib
    g = grouplib.modular_amalgam()
    tree = bass_serre(g)
    view = ball_view(tree, [tree.vertices.elem("vA")], 3)
    text = export_dot(view, "tree")
    assert text.count("shape=ellipse") == view.vertex_count
    assert text.count(" -- ") == view.edge_count


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "graphforge.cli", "examples"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "example-amalgam-1" in proc.stdout


def _restricted_in_free_group(side="L"):
    return {
        "groups": {"F": {"kind": "free", "generators": ["a", "b"]}},
        "subgroups": {
            "A": {"group": "F", "kind": "cyclic", "generator": "a"},
            "R": {"group": "F", "kind": "restricted", "inner": "A",
                  "side": side},
        },
    }


@pytest.mark.parametrize("side", ["L", "base", "X"])
def test_cli_rejects_restricted_subgroup_of_free_group(tmp_path, capsys,
                                                       side):
    path = _write_spec(tmp_path, _restricted_in_free_group(side))
    assert cli_main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("spec error: subgroup 'R':")
    assert err.count("\n") == 1


def test_restricted_subgroup_rejected_without_asserts(tmp_path):
    # under -O a bare assert would vanish and the run fail later
    path = _write_spec(tmp_path, _restricted_in_free_group())
    src = str(Path(graphforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "graphforge.cli", "run", path],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stderr.startswith("spec error: subgroup 'R':")
    assert proc.stderr.count("\n") == 1


def test_cli_rejects_amalgam_presentation_over_free_group(tmp_path, capsys):
    spec = {
        "groups": {"F": {"kind": "free", "generators": ["a"]}},
        "subgroups": {"A": {"group": "F", "kind": "whole"}},
        "presentations": {"P": {"peripherals": {"K": "A"}}},
        "pipeline": [{"op": "presentation_amalgam", "id": "J", "group": "F",
                      "left": "P", "left_label": "K",
                      "right": "P", "right_label": "K"}],
    }
    assert cli_main(["run", _write_spec(tmp_path, spec)]) == 3
    err = capsys.readouterr().err
    assert err == "spec error: step 'J': a join needs an amalgam, not F\n"


@pytest.mark.parametrize("key", ["radius", "word_budget"])
def test_cli_rejects_negative_ball_budget(tmp_path, capsys, key):
    spec = json.loads(json.dumps(builtin_examples()["example-tree-modular"]))
    ball = next(s for s in spec["pipeline"] if s["op"] == "ball")
    ball[key] = -1
    path = _write_spec(tmp_path, spec)
    assert cli_main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err == (f"spec error: step {ball['id']!r}: {key} must be a "
                   "nonnegative integer\n")


def test_ball_word_budget_zero_builds_the_budget_one_window():
    # every vertex enumerates at least one letter of its stabilizer, so a
    # word budget of 0 is the floor, 1, not the radius
    spec = json.loads(json.dumps(builtin_examples()["example-amalgam-2"]))
    pushout, ball = (next(s for s in spec["pipeline"] if s["op"] == op)
                     for op in ("c_pushout", "ball"))
    spec["pipeline"] = [pushout, ball]
    counts = []
    for budget in (0, 1):
        ball["word_budget"] = budget
        counts.append(run_pipeline(spec).env.ball(ball["id"]).vertex_count)
    assert counts == [519, 519]


def _normalize_spec(word):
    return {
        "groups": {"F": {"kind": "free", "generators": ["a", "b"]}},
        "pipeline": [{"op": "normalize_check", "id": "n", "group": "F",
                      "word": word, "equals": "a"}],
    }


def _uncertified_hnn_spec():
    # the edge subgroup <ab, ba> of F2 has no exact expression of its
    # elements over its generators, so the injection stays uncertified
    return {
        "groups": {"F": {"kind": "free", "generators": ["a", "b"]},
                   "H": {"kind": "hnn", "base": "F", "edge": "E",
                         "iso": "phi", "stable_letter": "t"}},
        "subgroups": {"E": {"group": "F", "generators": ["a b", "b a"]}},
        "monomorphisms": {"phi": {"domain_subgroup": "E",
                                  "codomain_subgroup": "E",
                                  "images": ["a b", "b a"]}},
    }


def test_trusted_injection_skips_certification():
    spec = {**_uncertified_hnn_spec(),
            "budgets": {"trust_monomorphisms": True}}
    assert validate_spec(spec).group("H").name == "H"


@pytest.mark.parametrize("spec, message", [
    ({"groups": {"F": {"kind": "free"}}},
     "group 'F': missing key 'generators'"),
    ({"budgets": {"radius": "x"}}, "budgets.radius must be a positive integer"),
    ({"budgets": {"delta_cap": -1}},
     "budgets.delta_cap must be a nonnegative integer"),
    ({"budgets": {"trust_monomorphisms": 1}},
     "budgets.trust_monomorphisms must be true or false"),
    (_normalize_spec("a z"), "step 'n': letter 'z' is not a generator of F"),
    ({**_normalize_spec("a"), "pipeline": [{"op": "normalize_check"}]},
     "pipeline[0]: missing key 'group'"),
    ({"budgets": {"parallel": True}}, "budgets: unknown keys ['parallel']"),
    (_normalize_spec("a^"), "step 'n': bad exponent in 'a^'"),
    ({"groups": {"F": {"kind": "free", "generators": ["a", "b"]}},
      "graphs": {"C": {"kind": "cayley", "group": "F",
                       "generators": ["a", "z"]}}},
     "graph 'C': letter 'z' is not a generator of F"),
    ({"groups": {"F": {"kind": "free", "generators": ["a"]}},
      "presentations": {"P": {"letters": ["a"]}},
      "pipeline": [{"op": "presentation_hnn", "id": "J", "group": "F",
                    "presentation": "P", "k_label": "K", "l_label": "L",
                    "join_generators": ["z"]}]},
     "step 'J': letter 'z' is not a generator of F"),
    (_uncertified_hnn_spec(),
     "group 'H': injection not certified at budget; trust_monomorphisms "
     "skips this check"),
])
def test_cli_rejects_malformed_spec(tmp_path, capsys, spec, message):
    assert cli_main(["run", _write_spec(tmp_path, spec)]) == 3
    assert capsys.readouterr().err == f"spec error: {message}\n"


def test_normalize_check_on_a_wellformed_word_still_runs():
    report = run_pipeline(_normalize_spec("a b b^-1"))
    assert report.exit_code() == 0
    assert run_pipeline(_normalize_spec("b")).exit_code() == 1


def _mutated(name, path, value):
    """A deep copy of a built-in with the field at ``path`` set to value."""
    spec = json.loads(json.dumps(builtin_examples()[name]))
    obj = spec
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return spec


@pytest.mark.parametrize("name, path, value, message", [
    ("example-hnn2", ("groups", "K", "generators"), ["k", "k"],
     "group 'K': duplicate generator names in K"),
    ("example-amalgam-2", ("groups", "A3", "generators"), ["a1"],
     "group 'A': generator 'a1' appears in two factors"),
    ("example-hnn-point", ("groups", "H", "stable_letter"), "a",
     "group 'H': stable letter 'a' collides with a generator of F"),
    ("example-hnn2", ("subgroups", "aF", "generator"), "a^",
     "subgroup 'aF': bad exponent in 'a^'"),
    ("example-tree-modular", ("subgroups", "K1", "generators"), ["a", "z"],
     "subgroup 'K1': letter 'z' is not a generator of Z4"),
    ("example-amalgam-2", ("subgroups", "KA", "generators"), ["a1", "z"],
     "subgroup 'KA': 'z' is not a generator of A"),
    ("example-hnn2", ("monomorphisms", "kEmbed", "images"), ["a^"],
     "monomorphism 'kEmbed': bad exponent in 'a^'"),
    ("example-hnn2", ("monomorphisms", "kEmbed", "images"), ["z"],
     "monomorphism 'kEmbed': letter 'z' is not a generator of F"),
    ("example-hnn2", ("monomorphisms", "kEmbed", "images"), ["a", "a"],
     "monomorphism 'kEmbed': 1 domain generators but 2 images"),
    ("example-dehn-flat", ("presentations", "P", "relators"), ["Q(a) b"],
     "presentation 'P': undeclared peripheral 'Q'"),
    ("example-dehn-flat", ("presentations", "P", "relators"), ["A(c) b"],
     "presentation 'P': letter 'c' is not a generator of Z2"),
    ("example-dehn-flat", ("presentations", "P", "relators"), ["A(a b"],
     "presentation 'P': unbalanced peripheral letter 'A(a'"),
    ("example-dehn-flat", ("presentations", "P", "relators"), ["A(a) z"],
     "presentation 'P': undeclared letter 'z'"),
    ("example-dehn-flat", ("pipeline", 1, "max_length"), "6",
     "step 'table': max_length must be a nonnegative integer"),
    ("example-dehn-flat", ("pipeline", 1, "h_ball"), -1,
     "step 'table': h_ball must be a nonnegative integer"),
    ("example-hnn2", ("pipeline", 0, "check_radius"), -1,
     "step 'R': check_radius must be a nonnegative integer"),
    ("example-hnn2", ("pipeline", 0, "conjugator"), "z",
     "step 'R': letter 'z' is not a generator of F"),
    ("example-hnn-coalesce", ("pipeline", 2, "contains"), ["p^"],
     "step 'yH2': contains: bad exponent in 'p^'"),
    ("example-hnn-coalesce", ("pipeline", 2, "excludes"), ["p", "z"],
     "step 'yH2': excludes: letter 'z' is not a generator of G"),
    ("example-hnn-coalesce", ("pipeline", 0, "x"), {"orbit": "xH1", "rep": "z"},
     "vertex in orbit 'xH1': letter 'z' is not a generator of D"),
    ("example-coned-free", ("graphs", "coned", "relative_generators"), ["z"],
     "graph 'coned': letter 'z' is not a generator of F"),
    ("example-tree-modular", ("monomorphisms", "d1", "images"), ["a"],
     "group 'G': injection refuted: witness (Word('c'), Word('c'))"),
    # each case below ended in a traceback before steps read their integer
    # fields, orbits and labels through the spec front end
    ("example-amalgam-2", ("pipeline", 6, "length_bound"), "x",
     "step 'audit_paths': length_bound must be a nonnegative integer"),
    ("example-amalgam-2", ("pipeline", 6, "pair_limit"), "x",
     "step 'audit_paths': pair_limit must be a nonnegative integer"),
    ("example-fineness-fail", ("pipeline", 1, "radius"), "8",
     "step 'cone-probe': radius must be a nonnegative integer"),
    ("example-fineness-fail", ("pipeline", 1, "radius"), -1,
     "step 'cone-probe': radius must be a nonnegative integer"),
    ("example-tree-modular", ("pipeline", 6, "delta_radius"), "2",
     "step 'audit_gh': delta_radius must be a nonnegative integer"),
    ("example-amalgam-2", ("pipeline", 7, "radius"), "3",
     "step 'audit_stabilizer_chains': radius must be a nonnegative integer"),
    ("example-shift-coalesce", ("pipeline", 4, "radius"), "4",
     "step 'audit_embedding': radius must be a nonnegative integer"),
    ("example-shift-coalesce", ("pipeline", 5, "check_radius"), "3",
     "step 'T': check_radius must be a nonnegative integer"),
    ("example-tree-modular", ("pipeline", 6),
     {"op": "audit_cut_vertex", "graph": "T", "ball": "B"},
     "pipeline[6]: missing key 'vertex'"),
    ("example-dehn-flat", ("presentations", "P"), ["b"],
     "presentation 'P' must be a JSON object"),
    ("example-dehn-flat", ("pipeline", 1, "id"), ["table"],
     "pipeline[1]: id must be a string"),
    ("example-fineness-fail", ("pipeline", 1, "vertex"), {"orbit": "cone:Q"},
     "no vertex orbit 'cone:Q' among ['el', 'cone:E']"),
    ("example-tree-modular", ("pipeline", 2, "base"), [{"orbit": "vQ"}],
     "no vertex orbit 'vQ' among ['vA', 'vM', 'vB']"),
    ("example-tree-modular", ("pipeline", 6, "peripherals"), [{"orbit": "vQ"}],
     "no vertex orbit 'vQ' among ['vA', 'vM', 'vB']"),
    ("example-hnn-coalesce", ("pipeline", 2, "orbit"), "zH2",
     "no vertex orbit 'zH2' among ['yH2']"),
    ("example-dehn-flat", ("pipeline", 1, "expect_values"), 5,
     "step 'table': expect_values must be a list"),
    ("example-amalgam-2", ("subgroups", "KA"),
     {"group": "G", "kind": "restricted", "inner": "KA", "side": "L"},
     "cyclic declaration at subgroup 'KA'"),
    ("example-amalgam-1", ("exports",),
     [{"format": "dot", "source": "nope", "path": "nope.dot"}],
     "'nope' is not a materialized ball"),
    ("example-coned-free", ("graphs", "coned", "relative_generators"), ["1"],
     "graph 'coned': relative generators must be nontrivial"),
    ("example-shift-coalesce", ("graphs", "X", "labels"), ["A", "A"],
     "graph 'X': duplicate orbit id 'cone:A'"),
    ("example-amalgam-2", ("graphs", "X", "peripherals"), ["KB"],
     "graph 'X': stabilizer of 'cone:KA' lives over B, not A"),
    ("example-shift-coalesce", ("graphs", "X", "labels"), ["A"],
     "graph 'X': 2 subgroups but 1 labels"),
])
def test_cli_rejects_malformed_declarations(tmp_path, capsys, name, path,
                                            value, message):
    spec = _mutated(name, path, value)
    assert cli_main(["run", _write_spec(tmp_path, spec)]) == 3
    assert capsys.readouterr().err == f"spec error: {message}\n"

