"""Self-test of the benchmark's answers, input generator and hooks.

    python3 bench/selftest.py            # check; exit 1 if any check fails
    python3 bench/selftest.py --record   # re-record bench/answers.json

Run from the root of a checkout.  ``--record`` first checks the oracle
verdicts of the benchmark's own variants and refuses to record a report
that fails them; builtins are recorded as the program produces them, so
record only from a commit whose reports are known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

import hooks
import workloads
from worker import Runner, check, import_program

SEEDS = (1, 2, 3)
# a translate of example-amalgam-2 whose window has one vertex more than the
# untranslated one (7328 against 7327)
AMALGAM2_COUNTEREXAMPLE = "b2^-1 a1 a2^-1 b2^-1 b3^-1"
CONED_AMALGAM_LETTERS = ("a1", "a2", "a3", "b1", "b2", "b3")


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(pipeline, spec):
    report = pipeline.run_pipeline(spec)
    return report, report.to_json()


def tree_variant_oracle(report, text):
    """The tree-modular window is a finite tree, so every audit on it has a
    known verdict: tree, all angles infinite, delta 0."""
    view = report.env.constructions["B"]
    edges = {(min(i, j), max(i, j)) for i, nbrs in enumerate(view.adj)
             for j in nbrs}
    seen, todo = {0}, [0]
    while todo:
        for j in view.adj[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    if len(seen) != view.vertex_count or len(edges) != view.vertex_count - 1:
        return "window is not a tree"
    verdicts = {v["name"]: v for v in json.loads(text)["verdicts"]}
    for name in ("window-is-tree", "all-angles-infinite", "delta-estimate"):
        if verdicts.get(name, {}).get("verdict") != "pass":
            return f"verdict {name} is not pass"
    if verdicts["delta-estimate"]["detail"] != "delta=0":
        return f"delta-estimate says {verdicts['delta-estimate']['detail']}"
    return None


def answers_now(pipeline, builtins):
    """(answers, errors) computed from the program as it is."""
    out = {"builtins": {}, "variants": {}}
    errors = []
    for name, spec in sorted(builtins.items()):
        report, text = run(pipeline, spec)
        out["builtins"][name] = {"exit_code": report.exit_code(),
                                 "sha256": sha(text)}
    for name, spec in sorted(workloads.variants(builtins).items()):
        report, text = run(pipeline, spec)
        why = tree_variant_oracle(report, text)
        if why is not None:
            errors.append(f"{name}: {why}")
        out["variants"][name] = {"exit_code": report.exit_code(),
                                 "sha256": sha(text)}
    return out, errors


def check_answers(pipeline, builtins):
    now, errors = answers_now(pipeline, builtins)
    recorded = workloads.load_answers()
    for kind in ("builtins", "variants"):
        for name, want in recorded[kind].items():
            if now[kind].get(name) != want:
                errors.append(f"{name}: got {now[kind].get(name)}, "
                              f"recorded {want}")
    if set(now["builtins"]) != set(recorded["builtins"]):
        errors.append("the set of builtins differs from the recorded one")
    return errors


def check_workloads(pipeline, builtins):
    """Every job of every workload, for several seeds, gives its answer:
    translated reports equal the untranslated ones byte for byte, and every
    seeded normalize_check passes."""
    errors = []
    answers = workloads.load_answers()
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for job in workloads.build(workload, seed, builtins, answers):
                report, text = run(pipeline, job.spec)
                why = check(job, text, report.exit_code())
                if why is not None:
                    errors.append(f"{workload} seed {seed} {job.label}: {why}")
    return errors


def amalgam2_translate(builtins, word):
    """example-amalgam-2 with its window moved by ``word``.

    Both the ball and the cut-vertex audit default to the pushout's z; both
    must move, or the translated z falls out of the window.
    """
    spec = builtins["example-amalgam-2"]
    z = {"orbit": "X:cone:KA"}
    return workloads.translate_spec(spec, word, {
        workloads.step_index(spec, "ball"): {"base": [z]},
        workloads.step_index(spec, "audit_cut_vertex"): {"vertex": z}})


def check_amalgam2_translation(pipeline, builtins):
    """Whether translating example-amalgam-2's window by a group element
    leaves the report bytes unchanged.  It does not in general: the window
    samples each infinite vertex stabilizer up to a word budget starting
    from the vertex's canonical coset representative, and translation does
    not carry canonical representatives to canonical representatives."""
    base = run(pipeline, builtins["example-amalgam-2"])[1]
    words = [workloads.reduced_word(random.Random(f"amalgam-2:{seed}"),
                                    CONED_AMALGAM_LETTERS,
                                    workloads.TRANSLATE_LENGTH)
             for seed in SEEDS] + [AMALGAM2_COUNTEREXAMPLE]
    errors = []
    for word in words:
        text = run(pipeline, amalgam2_translate(builtins, word))[1]
        if text != base:
            ball = [s for s in json.loads(text)["steps"] if s["op"] == "ball"]
            errors.append(f"translate by {word!r}: report differs "
                          f"(window {ball[0]['detail']})")
    return errors


def graphforge_modules():
    import graphforge
    import importlib
    import pkgutil
    names = ["graphforge"] + [f"graphforge.{m.name}" for m in
                              pkgutil.iter_modules(graphforge.__path__)]
    return {name: importlib.import_module(name) for name in names}


def unlisted_bindings(listed):
    """Bindings of hooked callables that the hook table misses: module
    attributes bound to a hooked function, and overrides of a hooked method
    in a subclass."""
    functions, methods = [], []
    for b in listed:
        if b.endswith("[*]"):
            continue
        owner, name, raw = hooks._resolve(b)
        if isinstance(owner, type):
            # the topmost class defining the method: a new subclass of it
            # that overrides the method must be listed too
            root = [c for c in owner.__mro__ if name in vars(c)
                    and c.__module__.startswith("graphforge")][-1]
            methods.append((root, name))
        else:
            functions.append(raw)
    found = set()
    for module_name, module in graphforge_modules().items():
        for attr, value in vars(module).items():
            if any(value is f for f in functions):
                found.add(f"{module_name}:{attr}")
            if isinstance(value, type) and value.__module__ == module_name:
                for owner, name in methods:
                    if issubclass(value, owner) and value is not owner \
                            and name in vars(value):
                        found.add(f"{module_name}:{attr}.{name}")
    return sorted(found - listed)


def check_hooks(pipeline, builtins):
    errors = []
    listed = {b for h in hooks.HOOKS for b in h.bindings}
    before = {}
    for b in listed:
        if not b.endswith("[*]"):
            before[b] = hooks._resolve(b)[2]
    for b in unlisted_bindings(listed):
        errors.append(f"binding {b} of a hooked callable is not in HOOKS")
    steps = dict(pipeline.STEP_HANDLERS)

    tracer = hooks.Tracer()
    tracer.install()
    try:
        if tracer.missing:
            errors.append(f"unresolved hook rows: {sorted(tracer.missing)}")
        for b, raw in before.items():
            if hooks._resolve(b)[2] is raw:
                errors.append(f"{b} was not wrapped")
        # traced jobs must give the same answers, and the self times must
        # add up to the job time (tree-windows runs pmap on the pool)
        answers = workloads.load_answers()
        times = []
        for workload in ("tree-windows", "normal-forms"):
            runner = Runner(pipeline, workloads.build(workload, 1, builtins,
                                                      answers))
            times.append(tracer.job(runner.run_job))
            runner.check_pending()
            errors.extend(f"traced {workload}: {f}" for f in runner.failures)
        metrics = tracer.metrics(times)
    finally:
        tracer.uninstall()
    for b, raw in before.items():
        if hooks._resolve(b)[2] is not raw:
            errors.append(f"{b} was not restored")
    if dict(pipeline.STEP_HANDLERS) != steps:
        errors.append("STEP_HANDLERS was not restored")
    ratio = metrics["trace.self_sum_ratio"]
    if not 0.97 <= ratio <= 1.03:
        errors.append(f"self times sum to {ratio:.3f} of the job time")
    return errors


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--record", action="store_true",
                   help="re-record answers.json from the program as it is")
    args = p.parse_args(argv)
    pipeline, builtins = import_program()
    if args.record:
        now, errors = answers_now(pipeline, builtins)
        if errors:
            print("\n".join(["not recorded:"] + errors), file=sys.stderr)
            return 1
        workloads.ANSWERS_PATH.write_text(
            json.dumps(now, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {workloads.ANSWERS_PATH}")
        return 0
    failed = False
    for name, test in (("answers", check_answers),
                       ("workloads", check_workloads),
                       ("amalgam-2 translation", check_amalgam2_translation),
                       ("hooks", check_hooks)):
        errors = test(pipeline, builtins)
        print(f"{'FAIL' if errors else 'ok  '} {name}", flush=True)
        for e in errors:
            print(f"     {e}")
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
