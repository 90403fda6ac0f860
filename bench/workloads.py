"""Seeded pipeline specs for the three benchmark workloads.

Every spec a workload runs comes with the answer it must produce:

* a report SHA-256 and exit code recorded in ``answers.json`` for builtins
  and for the benchmark's fixed variants;
* for a translated spec, the answer of the untranslated spec: the seed word
  moves every vertex reference of the spec, and the audits are equivariant,
  so the report bytes must not change;
* for the seeded ``normalize_check`` spec, an oracle: every step checks a
  conjugate of a defining relation, so every verdict must pass.

The same ``(workload, seed)`` always gives the same specs.  Specs are plain
dicts; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

ANSWERS_PATH = Path(__file__).resolve().parent / "answers.json"

WORKLOADS = ("coned-free", "tree-windows", "normal-forms")

# Word lengths are fixed so that a seed changes which words are drawn but
# not how long they are; the work per job then stays comparable across seeds.
TRANSLATE_LENGTH = 5
NF_STEPS = 160
NF_CONJUGATOR_LENGTH = 64
NF_TAIL_LENGTH = 12

# tree-modular at this ball radius: a 53-vertex window, so that
# audit_delta and the angle tables take a real share of the job
TREE_MODULAR_RADIUS = 10

NORMAL_FORM_BUILTINS = (
    "example-amalgam-1",
    "example-hnn-point",
    "example-hnn-coalesce",
    "example-shift-coalesce",
    "example-hnn2",
    "example-dehn-flat",
)

F2_LETTERS = ("a", "b")
MODULAR_LETTERS = ("a", "b")
LATTICE_LETTERS = ("a1", "a2", "b1", "b2")
SHIFT_LETTERS = ("a", "b", "t")

# the relations the normalize_check steps conjugate: a1 = c = b1 in the
# lattice amalgam, t a t^-1 = b in the shift HNN extension
LATTICE_RELATION = "a1 b1^-1"
SHIFT_RELATION = "t a t^-1 b^-1"


class Job:
    """One spec of a workload and the answer its report must give."""

    def __init__(self, label, spec, exit_code=None, sha256=None, oracle=None):
        self.label = label
        self.spec = spec
        self.exit_code = exit_code
        self.sha256 = sha256
        self.oracle = oracle    # callable(report_json_text) -> error or None


def load_answers():
    with open(ANSWERS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reduced_word(rng, letters, length):
    """A freely reduced word of exactly ``length`` letters, as spec text."""
    out = []
    while len(out) < length:
        letter = (rng.choice(letters), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return " ".join(name if sign > 0 else f"{name}^-1" for name, sign in out)


def inverse_text(word):
    letters = []
    for chunk in word.split():
        name, _, exp = chunk.partition("^")
        letters.append(name if exp == "-1" else f"{name}^-1")
    return " ".join(reversed(letters))


def translated(ref, word):
    """The vertex reference ``word . ref`` (reps are left coset reps)."""
    rep = ref.get("rep", "1")
    rep = word if rep in ("", "1") else f"{word} {rep}"
    return {**ref, "rep": rep}


def translate_spec(spec, word, refs):
    """Copy of ``spec`` with every listed vertex reference moved by ``word``.

    ``refs`` maps a pipeline step index to ``{key: default_reference}``; the
    default is used where the step relies on an implicit vertex (the
    pushout's z), which must be made explicit to be translated.  A key that
    holds a list is translated element-wise.
    """
    spec = copy.deepcopy(spec)
    for index, keys in refs.items():
        step = spec["pipeline"][index]
        for key, default in keys.items():
            value = step.get(key, default)
            if isinstance(value, list):
                step[key] = [translated(r, word) for r in value]
            else:
                step[key] = translated(value, word)
    return spec


def step_index(spec, op):
    [index] = [i for i, s in enumerate(spec["pipeline"]) if s["op"] == op]
    return index


def tree_modular_variant(builtins):
    spec = copy.deepcopy(builtins["example-tree-modular"])
    spec["name"] = f"bench-tree-modular-r{TREE_MODULAR_RADIUS}"
    spec["pipeline"][step_index(spec, "ball")]["radius"] = TREE_MODULAR_RADIUS
    return spec


def variants(builtins):
    """The benchmark's fixed variants of builtins, by name."""
    spec = tree_modular_variant(builtins)
    return {spec["name"]: spec}


def normalize_spec(rng):
    """Seeded ``normalize_check`` steps: ``w r w^-1 v`` must equal ``v``."""
    groups = {
        # the lattice amalgam Z^2 *_Z Z^2 of example-amalgam-1
        "A": {"kind": "free_abelian", "generators": ["a1", "a2"]},
        "B": {"kind": "free_abelian", "generators": ["b1", "b2"]},
        "C": {"kind": "free_abelian", "generators": ["c"]},
        "L": {"kind": "amalgam", "left": "A", "right": "B",
              "edge": "C", "into_left": "d1", "into_right": "d2"},
        # the shift HNN extension of example-shift-coalesce
        "F": {"kind": "free", "generators": ["a", "b"]},
        "H": {"kind": "hnn", "base": "F", "edge": "cA", "iso": "phi",
              "stable_letter": "t"},
    }
    subgroups = {
        "K1": {"group": "A", "kind": "cyclic", "generator": "a1"},
        "K2": {"group": "B", "kind": "cyclic", "generator": "b1"},
        "cA": {"group": "F", "kind": "cyclic", "generator": "a"},
        "cB": {"group": "F", "kind": "cyclic", "generator": "b"},
    }
    monomorphisms = {
        "d1": {"domain": "C", "codomain_subgroup": "K1", "images": ["a1"]},
        "d2": {"domain": "C", "codomain_subgroup": "K2", "images": ["b1"]},
        "phi": {"domain_subgroup": "cA", "codomain_subgroup": "cB",
                "images": ["b"]},
    }
    cases = [("L", LATTICE_LETTERS, LATTICE_RELATION),
             ("H", SHIFT_LETTERS, SHIFT_RELATION)]
    pipeline = []
    for i in range(NF_STEPS):
        group, letters, relation = cases[i % 2]
        w = reduced_word(rng, letters, NF_CONJUGATOR_LENGTH)
        v = reduced_word(rng, letters, NF_TAIL_LENGTH)
        pipeline.append({
            "op": "normalize_check", "id": f"n{i}", "group": group,
            "word": f"{w} {relation} {inverse_text(w)} {v}", "equals": v})
    return {"name": "bench-normalize-relations", "groups": groups,
            "subgroups": subgroups, "monomorphisms": monomorphisms,
            "pipeline": pipeline}


def normalize_oracle(text):
    """Every normalize_check step must pass with lhs == rhs."""
    report = json.loads(text)
    for step in report["steps"]:
        detail = step["detail"]
        if step["outcome"] != "ok" or detail["lhs"] != detail["rhs"]:
            return f"step {step['id']}: {detail}"
    if any(v["verdict"] != "pass" for v in report["verdicts"]):
        return "a normalize verdict did not pass"
    if len(report["steps"]) != NF_STEPS:
        return f"expected {NF_STEPS} steps, got {len(report['steps'])}"
    return None


def translations(builtins, rng):
    """The seeded translates the workloads run, by the name of the spec
    they translate.  Each must give the untranslated spec's report bytes.

    example-amalgam-2 is not among them: its window samples infinite
    stabilizers up to a word budget from each vertex's canonical coset
    representative, so a translated window can differ in size (see the
    self-test).
    """
    coned = builtins["example-coned-free"]
    fail = builtins["example-fineness-fail"]
    modular = tree_modular_variant(builtins)
    k = rng.choice((1, 2, 3, 4)) * rng.choice((1, -1))
    return {
        "example-coned-free": translate_spec(
            coned, reduced_word(rng, F2_LETTERS, TRANSLATE_LENGTH),
            {step_index(coned, "audit_fineness"): {"vertex": None}}),
        "example-fineness-fail": translate_spec(
            fail, f"a^{k}",
            {step_index(fail, "audit_fineness"): {"vertex": None}}),
        modular["name"]: translate_spec(
            modular, reduced_word(rng, MODULAR_LETTERS, TRANSLATE_LENGTH),
            {step_index(modular, "ball"): {"base": None}}),
    }


def build(workload, seed, builtins, answers):
    """The jobs of one workload for one seed, in the order they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    expected = {**answers["builtins"], **answers["variants"]}
    moved = translations(builtins, rng)

    def fixed(name, spec):
        return Job(name, spec, expected[name]["exit_code"],
                   expected[name]["sha256"])

    if workload == "coned-free":
        names = ["example-coned-free", "example-fineness-fail"]
        return [fixed(n, moved[n]) for n in names]
    if workload == "tree-windows":
        modular = f"bench-tree-modular-r{TREE_MODULAR_RADIUS}"
        return [fixed("example-amalgam-2", builtins["example-amalgam-2"]),
                fixed(modular, moved[modular])]
    jobs = [fixed(n, builtins[n]) for n in NORMAL_FORM_BUILTINS]
    jobs.append(Job("bench-normalize-relations", normalize_spec(rng),
                    exit_code=0, oracle=normalize_oracle))
    return jobs
