"""The ``repro check`` subcommand: argument wiring and report rendering.

Kept separate from :mod:`repro.cli` so the top-level CLI only pays the
import when the subcommand actually runs, and so tests can drive
:func:`run_check` with a plain namespace.

The ``--format json`` output is a stable envelope: ``version`` (the
analyzer contract version), ``rules`` (metadata for every rule that ran),
``files`` (per-file findings/timings/cached flag, in analysis order), the
flat ``findings`` list plus ``errors``/``warnings``/``infos`` counts,
``profiles`` (one cost model per discovered program when ``--profile`` is
set), ``plans`` (one kernel-plan verdict — digest or located refusal —
per program when ``--kernel-plan`` is set), and ``sanitize``.  New keys
are only ever *added*; consumers must ignore unknown keys.

Exit status: 1 on any ERROR finding, on WARNING findings under
``--strict``, or on a failed sanitizer smoke.  INFO findings (RPC015)
never fail the build.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analyzer import ANALYZER_VERSION, analyze_paths_detailed
from .config import DEFAULT_CONFIG, load_config
from .findings import Severity

__all__ = ["add_check_arguments", "run_check"]


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src/repro/algorithms", "examples"],
        help="files, directories, or dotted modules to analyze "
             "(default: src/repro/algorithms examples)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="finding output format",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="emit a static cost profile (fan-out class, payload model, "
             "combiner/aggregator inference) per vertex program",
    )
    parser.add_argument(
        "--kernel-plan", action="store_true", dest="kernel_plan",
        help="run the vectorization front-end: lift each program to a "
             "dense KernelPlan (RPC015) or report exactly why it cannot "
             "be lifted (RPC016-018), then run the plan optimizer "
             "(RPC019-022: fusion, folding, engine-selection hazards) "
             "with per-pass elapsed_ms in the JSON envelope",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the .repro-cache/ analysis cache",
    )
    parser.add_argument(
        "--select", action="append", metavar="PREFIX",
        help="rule-id prefixes to enable (overrides [tool.repro.check])",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="PREFIX",
        help="rule-id prefixes to disable",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="skip pyproject.toml [tool.repro.check] discovery",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) on WARNING findings too, not just ERROR",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="also run the dynamic sanitizer smoke "
             "(PageRank + BC at 1 vs N workers)",
    )
    parser.add_argument(
        "--sanitize-workers", type=int, default=4,
        help="worker count for the sanitizer determinism diff",
    )
    parser.add_argument(
        "--sanitize-scale", type=float, default=0.05,
        help="dataset scale for the sanitizer smoke graph",
    )


def run_check(args: argparse.Namespace) -> int:
    from .rules import rule_catalog

    if args.list_rules:
        if args.format == "json":
            # Stable, golden-testable envelope: schema-versioned, rules
            # sorted by id (rule_catalog() already sorts).
            print(
                json.dumps(
                    {"version": ANALYZER_VERSION, "rules": rule_catalog()},
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            for rule in rule_catalog():
                print(
                    f"{rule['id']} [{rule['severity']}] {rule['summary']}\n"
                    f"    fix: {rule['hint']}"
                )
        return 0

    config = DEFAULT_CONFIG if args.no_config else load_config()
    config = config.with_overrides(select=args.select, ignore=args.ignore)

    profile = getattr(args, "profile", False)
    kernel_plan = getattr(args, "kernel_plan", False)
    cache = None
    if not getattr(args, "no_cache", False):
        from .cache import AnalysisCache

        cache = AnalysisCache()
    try:
        files = analyze_paths_detailed(
            args.paths, config=config, profile=profile,
            kernel_plan=kernel_plan, cache=cache,
        )
    except FileNotFoundError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2

    findings = sorted(f for fr in files for f in fr.findings)
    profiles = [p for fr in files for p in fr.profiles]
    plans = [v for fr in files for v in fr.plans]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    infos = sum(1 for f in findings if f.severity is Severity.INFO)
    warnings = len(findings) - errors - infos

    smoke = None
    if args.sanitize:
        from .sanitizer import run_sanitize_smoke

        smoke = run_sanitize_smoke(
            scale=args.sanitize_scale, num_workers=args.sanitize_workers
        )

    if args.format == "json":
        payload = {
            "version": ANALYZER_VERSION,
            "rules": [
                r for r in rule_catalog() if config.enabled(r["id"])
            ],
            "files": [
                {
                    "path": fr.path,
                    "findings": [f.as_dict() for f in fr.findings],
                    "elapsed_ms": round(fr.elapsed_ms, 3),
                    "cached": fr.cached,
                }
                for fr in files
            ],
            "findings": [f.as_dict() for f in findings],
            "errors": errors,
            "warnings": warnings,
            "infos": infos,
            "profiles": (
                [p.as_dict() for p in profiles] if profile else None
            ),
            "plans": (
                [v.as_dict() for v in plans] if kernel_plan else None
            ),
            "sanitize": smoke.as_dict() if smoke is not None else None,
        }
        print(json.dumps(payload, indent=2))
    else:
        for f in findings:
            print(f.render())
        summary = (
            f"repro check: {errors} error(s), {warnings} warning(s)"
        )
        if infos:
            summary += f", {infos} info(s)"
        if not findings:
            summary += " — all programs honor the Pregel contract"
        cached_files = sum(1 for fr in files if fr.cached)
        if cached_files:
            summary += f" [{cached_files}/{len(files)} file(s) cached]"
        print(summary)
        if profile:
            if profiles:
                print(f"-- cost profiles ({len(profiles)} program(s)) --")
                for p in profiles:
                    print(p.render())
            else:
                print("-- cost profiles: no vertex programs found --")
        if kernel_plan:
            lifted = sum(
                1 for v in plans
                if v.as_dict().get("status") == "lifted"
            )
            print(
                f"-- kernel plans: {lifted}/{len(plans)} program(s) "
                "lift to a dense plan --"
            )
            for v in plans:
                d = v.as_dict()
                if d.get("status") == "lifted":
                    print(
                        f"  {d['program']}: lifted "
                        f"(digest {d['digest'][:16]}, reduce={d['reduce']}, "
                        f"{d['phases']} phase(s), {d['ops']} op(s))"
                    )
                    opt = d.get("opt")
                    if opt and opt.get("changed"):
                        rewrites = sum(
                            p["rewrites"] for p in opt.get("passes", ())
                        )
                        print(
                            f"    optimized -> {opt['digest'][:16]} "
                            f"({rewrites} rewrite(s), {opt['ops']} op(s), "
                            f"{opt['hoisted']} hoisted)"
                        )
                else:
                    print(
                        f"  {d['program']}: refused {d['rule']} at "
                        f"{d['file']}:{d['refusal_line']} — {d['reason']}"
                    )
        if smoke is not None:
            print(smoke.summary())

    failed = errors > 0 or (args.strict and warnings > 0)
    if smoke is not None and not smoke.ok:
        failed = True
    return 1 if failed else 0
