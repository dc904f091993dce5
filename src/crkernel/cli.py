"""Command line driver: run scenario checks and emit the comparison report.

Exit codes: 0 all checks passed (or non-strict), 1 check failure under
--strict, 2 configuration error, a --filter that matches no scenario, unknown
option or unwritable --out, 3 any other kit error (numerical failure, violated
chart invariant, bad symbol data).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, CRKernelError, NumericalError
from .harness import (
    default_config_doc,
    emit_report,
    parse_config,
    read_config_doc,
    run_scenarios,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Cross-check the kernel-expansion coefficient routes on model charts.",
    )
    parser.add_argument(
        "--config",
        default="default-suite",
        help="path to a JSON scenario config, or 'default-suite' for the built-in full suite",
    )
    parser.add_argument("--strict", action="store_true", help="exit 1 if any check fails")
    parser.add_argument(
        "--format",
        choices=("structured", "csv"),
        default="structured",
        help="report serialization format",
    )
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=None, help="override the config master seed")
    parser.add_argument("--filter", default=None, help="run only scenarios matching this glob")
    parser.add_argument(
        "--no-timings",
        action="store_true",
        help="zero the wall-time fields so reports are byte-identical across runs",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config == "default-suite":
            doc = default_config_doc()
        else:
            doc = read_config_doc(args.config)
        if isinstance(doc, dict) and args.seed is not None:
            doc["seed"] = args.seed
        config = parse_config(doc)
        reports = run_scenarios(config, name_filter=args.filter, timings=not args.no_timings)
        if args.filter and not reports:
            raise ConfigError(f"--filter {args.filter!r} matches no scenario")
        blob = emit_report(reports, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except CRKernelError as exc:
        print(f"kit error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            print(f"cannot write report {args.out!r}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(blob)

    total = sum(len(r.records) for r in reports)
    failed = sum(1 for r in reports for rec in r.records if not rec.passed)
    print(f"{total - failed}/{total} checks passed", file=sys.stderr)
    if args.strict and failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
