"""forge: run and audit group-action pipelines from JSON specs.

    forge run <spec.json | builtin name>     execute a pipeline
    forge verify <spec.json | builtin name>  execute, skipping exports
    forge examples [name]                    list builtins / print one
    forge export --format dot|json ...      re-export from a spec run

Exit codes: 0 ok, 1 an audit failed, 2 a budget ran out, 3 invalid spec.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dot import export_dot
from .errors import SpecError
from .examples import builtin_examples
from .pipeline import run_pipeline


def _load_spec(ref: str) -> dict:
    builtins = builtin_examples()
    if ref in builtins:
        return builtins[ref]
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"no such spec file or builtin: {ref!r}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"{ref}: not valid JSON ({exc})")


def _apply_overrides(args) -> dict:
    overrides = {}
    if args.radius is not None:
        overrides["radius"] = args.radius
    if args.angle_bound is not None:
        overrides["angle_bound"] = args.angle_bound
    if args.threshold is not None:
        overrides["threshold"] = args.threshold
    if args.max_vertices is not None:
        overrides["max_vertices"] = args.max_vertices
    if args.trust_monomorphisms:
        overrides["trust_monomorphisms"] = True
    return overrides


def _write_exports(spec, report, audits_only=False):
    if audits_only:
        return
    env = getattr(report, "env", None)
    for exp in spec.get("exports", []):
        if exp["format"] == "json":
            with open(exp["path"], "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        elif exp["format"] == "dot" and env is not None:
            view = env.ball(exp["source"])
            with open(exp["path"], "w", encoding="utf-8") as fh:
                fh.write(export_dot(view, name=exp["source"],
                                    cut_orbits=exp.get("cut_orbits", ())))


def _run(args, audits_only=False) -> int:
    try:
        spec = _load_spec(args.spec)
        report = run_pipeline(spec, overrides=_apply_overrides(args),
                              audits_only=audits_only, timings=args.timings)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 3
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    try:
        _write_exports(spec, report, audits_only)
    except OSError as exc:
        print(f"export failed: {exc}", file=sys.stderr)
        return 3
    return report.exit_code()


def _examples(args) -> int:
    builtins = builtin_examples()
    if args.name:
        if args.name not in builtins:
            print(f"unknown example {args.name!r}", file=sys.stderr)
            return 3
        print(json.dumps(builtins[args.name], indent=2, sort_keys=True))
        return 0
    for name in builtins:
        print(name)
    return 0


def _export(args) -> int:
    try:
        spec = _load_spec(args.spec)
        report = run_pipeline(spec, overrides=_apply_overrides(args))
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        payload = report.to_json()
    else:
        env = report.env
        try:
            view = env.ball(args.source)
        except SpecError as exc:
            print(f"export error: {exc}", file=sys.stderr)
            return 3
        payload = export_dot(view, name=args.source)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return report.exit_code()


def _add_budget_flags(p):
    p.add_argument("--radius", type=int, default=None,
                   help="window radius budget override")
    p.add_argument("--angle-bound", dest="angle_bound", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None,
                   help="fineness violation threshold override")
    p.add_argument("--max-vertices", dest="max_vertices", type=int,
                   default=None)
    p.add_argument("--trust-monomorphisms", action="store_true",
                   dest="trust_monomorphisms",
                   help="skip injection certification on constructions")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock step timings in the report")
    p.add_argument("--out", default=None, help="write the report here")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="forge", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a pipeline spec")
    p_run.add_argument("spec")
    _add_budget_flags(p_run)

    p_verify = sub.add_parser("verify", help="execute audits, skip exports")
    p_verify.add_argument("spec")
    _add_budget_flags(p_verify)

    p_ex = sub.add_parser("examples", help="list or print built-in specs")
    p_ex.add_argument("name", nargs="?")

    p_exp = sub.add_parser("export", help="run a spec and export one artifact")
    p_exp.add_argument("spec")
    p_exp.add_argument("--format", choices=("dot", "json"), required=True)
    p_exp.add_argument("--source", default=None,
                       help="ball id to render (dot format)")
    _add_budget_flags(p_exp)

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "verify":
        return _run(args, audits_only=True)
    if args.command == "examples":
        return _examples(args)
    if args.command == "export":
        if args.format == "dot" and not args.source:
            parser.error("--source is required for dot export")
        return _export(args)
    return 3


if __name__ == "__main__":
    sys.exit(main())
