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
from .pipeline import DEFAULT_BUDGETS, run_pipeline


def _load_spec(ref: str) -> dict:
    builtins = builtin_examples()
    if ref in builtins:
        return builtins[ref]
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"no such spec file or builtin: {ref!r}")
    except OSError as exc:
        raise SpecError(f"{ref}: cannot read ({exc.strerror})")
    except json.JSONDecodeError as exc:
        raise SpecError(f"{ref}: not valid JSON ({exc})")


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(exp, report):
    if exp["format"] == "json":
        return report.to_json()
    return export_dot(report.env.ball(exp["source"]), name=exp["source"],
                      cut_orbits=exp.get("cut_orbits", ()))


def _run(args) -> int:
    """Run the spec, then write the report and the spec's exports (``run``),
    the report alone (``verify``) or the one asked artifact (``export``).
    Nothing is written unless every output renders."""
    try:
        spec = _load_spec(args.spec)
        # the budget flags are the parsed options named by budget keys
        report = run_pipeline(spec, timings=args.timings, overrides={
            key: value for key, value in vars(args).items()
            if key in DEFAULT_BUDGETS and value is not None})
        if args.command == "export":
            outputs = [(args.out, {"format": args.format, "source": args.source})]
        else:
            outputs = [(args.out, {"format": "json"})]
            if args.command == "run":
                outputs += [(exp["path"], exp) for exp in spec.get("exports", [])]
        texts = [(path, _render(exp, report)) for path, exp in outputs]
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 3
    try:
        for path, text in texts:
            _write(path, text)
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


def _add_budget_flags(p):
    p.add_argument("--radius", type=int, default=None,
                   help="window radius budget override")
    p.add_argument("--angle-bound", dest="angle_bound", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None,
                   help="fineness violation threshold override")
    p.add_argument("--max-vertices", dest="max_vertices", type=int,
                   default=None)
    p.add_argument("--trust-monomorphisms", action="store_const", const=True,
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
    if args.command == "examples":
        return _examples(args)
    if args.command == "export" and args.format == "dot" and not args.source:
        parser.error("--source is required for dot export")
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
