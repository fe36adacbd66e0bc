"""Command line entry points: search, verify, report.

Exit codes: 0 success, 2 configuration/usage error, 3 checkpoint error,
4 a search worker died (the same command resumes from its checkpoint).
"""

from __future__ import annotations

import argparse
import sys

from .bounds import load_lauter
from .search import (
    CheckpointError,
    ConfigError,
    SearchConfig,
    SearchStats,
    WorkerLost,
    iter_catalog,
    report,
    run_search,
    verify,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_WORKER = 4


def _parse_fields(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"could not parse field list {text!r}") from None


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = SearchConfig(
        degree=args.degree,
        fields=_parse_fields(args.fields),
        keep_margin=args.threshold,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        lauter_path=args.lauter,
        out_path=args.out,
    )
    stats = SearchStats()
    catalog = run_search(cfg, stats=stats)
    print(
        f"orbits={stats.orbits_seen} trivially-reducible={stats.orbits_trivial} "
        f"counted={stats.counted} kept={stats.kept} "
        f"dropped: threshold={stats.dropped_threshold} "
        f"reducible={stats.dropped_reducible} "
        f"inconsistent={stats.dropped_inconsistent}",
        file=sys.stderr,
    )
    if args.out:
        print(f"catalog: {stats.kept} records appended -> {args.out}", file=sys.stderr)
    sys.stdout.buffer.write(catalog)  # b"" with --out
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    poly = args.poly if args.poly is not None else args.mask
    record = verify(poly, args.field, lauter_path=args.lauter)
    print(record.to_json())
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    records = iter_catalog(args.catalog)
    print(report(records, load_lauter(args.lauter)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvesearch",
        description=(
            "Search binary projective plane curves (degree <= 6) for many "
            "rational points over F_{2^m}, and verify known record counts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run the exhaustive orbit search")
    p_search.add_argument("--degree", type=int, required=True)
    p_search.add_argument(
        "--fields", required=True,
        help="comma separated field orders, e.g. 8,16,32,...,2048",
    )
    p_search.add_argument(
        "--threshold", type=int, default=15,
        help="keep margin below the effective bound (default 15)",
    )
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.add_argument("--checkpoint", default=None, metavar="PATH")
    p_search.add_argument("--lauter", default=None, metavar="PATH")
    p_search.add_argument("--out", default=None, metavar="PATH")
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="analyze one curve over one field")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help='polynomial text, e.g. "x^5 + y^5 + z^5"')
    group.add_argument("--mask", help="mask id, e.g. d6:0x0f00a031")
    p_verify.add_argument("--field", type=int, required=True)
    p_verify.add_argument("--lauter", default=None, metavar="PATH")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="tally a catalog against the bounds")
    p_report.add_argument("--catalog", required=True, metavar="PATH")
    p_report.add_argument("--lauter", default=None, metavar="PATH")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
