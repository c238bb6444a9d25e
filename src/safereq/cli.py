"""Command line entry point.

    safereq run --config project/params.json [--task NAME] [--force]
                [--backend {http,mock}] [--version-tag TAG]
                [--verbose] [--dry-run]

Exit status: 0 when every selected task succeeded or was skipped, 1 when
any task failed or the run could not start, 2 for bad usage.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InvalidConfigError, SafereqError
from .orchestrator import build_backend, load_config, run_all


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safereq",
        description="Requirement analysis pipeline over an architecture model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the tasks of a pipeline config")
    run.add_argument("--config", required=True, help="path to the pipeline config JSON")
    run.add_argument("--task", help="run only this task")
    run.add_argument(
        "--force",
        action="store_true",
        help="re-run tasks even when delta is satisfied, and rewrite an unchanged report set",
    )
    run.add_argument(
        "--backend",
        choices=("http", "mock"),
        help="override the backend named in the config",
    )
    run.add_argument(
        "--version-tag",
        help="output version tag (defaults to today's date, YYYY-MM-DD)",
    )
    run.add_argument("--verbose", action="store_true", help="print per-task progress")
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="validate the config and show what would run, without executing",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    backend = None
    if args.backend:
        cfg = load_config(args.config)
        backend = build_backend(cfg.llm, cfg.config_dir, kind=args.backend)

    report = run_all(
        args.config,
        backend=backend,
        force=args.force,
        version_tag=args.version_tag,
        only_task=args.task,
        dry_run=args.dry_run,
        verbose=args.verbose,
    )
    for result in report.results:
        line = f"{result.name}: {result.status}"
        if result.detail:
            line += f" ({result.detail})"
        if args.verbose and result.backend_calls:
            line += f" [{result.backend_calls} backend calls]"
        print(line)
        if args.verbose:
            for path in result.files:
                print(f"  wrote {path}")
    report_set = report.report_set
    if report_set is not None and report_set.summary_path is not None:
        unchanged = " (unchanged)" if report_set.reused else ""
        print(f"reports: {report_set.summary_path.parent}{unchanged}")
    return 1 if report.failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        raise AssertionError(f"unreachable command {args.command!r}")
    except InvalidConfigError as exc:
        print("invalid config:", file=sys.stderr)
        for task, field, message in exc.problems:
            where = ".".join(part for part in (task, field) if part)
            print(f"  {where or 'config'}: {message}", file=sys.stderr)
        return 1
    except SafereqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
