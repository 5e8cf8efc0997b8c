"""``repro corpus`` — the shell front-end of the workload corpus.

Usage::

    python -m repro corpus run manifest.yaml [--store DIR] [--force] ...
    python -m repro corpus list [--format json]

``run`` executes a batch manifest (see ``docs/corpus.md`` for the
schema) with per-cell isolation: a poisoned cell fails alone, the rest
complete, and the exit status is 1 when any cell failed (2 for usage
errors, 0 otherwise).  Completed cells persist to the content-addressed
artifact store (default ``.repro-store/``), so re-running an identical
manifest is served from disk; ``--force`` re-executes and refreshes the
store, ``--no-store`` disables persistence entirely.

``list`` prints the registered workloads.

The generic scenario path (``python -m repro corpus --manifest PATH``)
runs the same campaign through :class:`repro.api.Session` and emits the
standard result envelope; this subcommand is the batch-native surface
with store and force control.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import _int_at_least, _positive_float


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro corpus",
        description="Manifest-driven batch campaigns over the workload corpus.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    runner = commands.add_parser(
        "run", help="execute a batch manifest (JSON or YAML subset)"
    )
    runner.add_argument("manifest", help="manifest path (see docs/corpus.md)")
    store = runner.add_mutually_exclusive_group()
    store.add_argument(
        "--store",
        default=".repro-store",
        metavar="DIR",
        help="artifact-store directory (default: .repro-store)",
    )
    store.add_argument(
        "--no-store",
        action="store_true",
        help="do not persist (or serve) cell artifacts",
    )
    runner.add_argument(
        "--force",
        action="store_true",
        help="re-execute cells even when the store already has them",
    )
    runner.add_argument(
        "--traces",
        type=_int_at_least("--traces", 1),
        default=None,
        help="global trace override (else each cell's budget/default)",
    )
    runner.add_argument(
        "--seed",
        type=_int_at_least("--seed", 0),
        default=None,
        help="campaign seed override (else the manifest's seed)",
    )
    runner.add_argument(
        "--chunk-size",
        type=_int_at_least("--chunk-size", 1),
        default=None,
        help="stream each cell in chunks of this many traces",
    )
    runner.add_argument(
        "--jobs",
        type=_int_at_least("--jobs", 1),
        default=None,
        help="worker processes for the chunk fan-out within each cell",
    )
    runner.add_argument(
        "--backend",
        choices=("auto", "serial", "fork"),
        default=None,
        help="execution backend for the fan-out (default: auto)",
    )
    runner.add_argument(
        "--precision",
        choices=("float64-exact", "float32"),
        default=None,
        help="acquisition-chain precision override",
    )
    runner.add_argument(
        "--retries",
        type=_int_at_least("--retries", 0),
        default=None,
        metavar="N",
        help="per-chunk retry budget for transient worker faults",
    )
    runner.add_argument(
        "--chunk-timeout",
        type=_positive_float("--chunk-timeout"),
        default=None,
        metavar="SECONDS",
        help="soft per-chunk watchdog deadline",
    )
    runner.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="checkpoint completed cells to DIR (cell-granularity restart)",
    )
    runner.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed batch from --checkpoint DIR",
    )
    runner.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )

    lister = commands.add_parser("list", help="list the registered workloads")
    lister.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return parser


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.corpus.manifest import ManifestError, load_manifest
    from repro.corpus.runner import CorpusCampaign

    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint DIR")
    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as error:
        parser.error(str(error))
    try:
        campaign = CorpusCampaign(
            manifest,
            store=None if args.no_store else args.store,
            force=args.force,
            n_traces=args.traces,
            seed=args.seed,
            chunk_size=args.chunk_size,
            jobs=args.jobs or 1,
            backend=args.backend,
            precision=args.precision,
            retries=args.retries,
            chunk_timeout=args.chunk_timeout,
        )
    except ValueError as error:
        parser.error(str(error))
    result = campaign.run(checkpoint=args.checkpoint, resume=args.resume)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render())
    return 1 if result.failed else 0


def _list(args: argparse.Namespace) -> int:
    from repro.corpus.workloads import workloads
    from repro.experiments.reporting import render_table

    entries = workloads()
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "name": entry.name,
                        "title": entry.title,
                        "default_traces": entry.default_traces,
                        "guesses": len(entry.guesses),
                        "recovers_key": entry.recovers_key,
                        "capabilities": sorted(
                            str(c) for c in entry.capabilities
                        ),
                        "tags": list(entry.tags),
                    }
                    for entry in entries
                ],
                indent=2,
            )
        )
        return 0
    rows = [
        [
            entry.name,
            entry.title,
            str(entry.default_traces),
            str(len(entry.guesses)),
            "yes" if entry.recovers_key else "no",
        ]
        for entry in entries
    ]
    print(
        render_table(
            ["workload", "title", "traces", "guesses", "recovers key"],
            rows,
            title="Registered corpus workloads",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "run":
        return _run(parser, args)
    return _list(args)


if __name__ == "__main__":  # pragma: no cover - exercised via `repro corpus`
    sys.exit(main())
