"""``repro serve`` — the service front-end's command line.

Separate from the scenario-running parser in :mod:`repro.cli` (which
dispatches here when the first argument is ``serve``) so service flags
never collide with run knobs.
"""

from __future__ import annotations

import argparse
import sys

#: Default spool directory (gitignored; holds queue, results, cache).
DEFAULT_SPOOL = ".repro-spool"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve the scenario registry over HTTP/JSON: queued, "
            "deduplicated, quota-governed runs (see docs/service.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8737,
        help="bind port (0 = ephemeral; the bound port lands in <spool>/port)",
    )
    parser.add_argument(
        "--spool", default=DEFAULT_SPOOL, metavar="DIR",
        help=f"persistent queue/results/cache directory (default: {DEFAULT_SPOOL})",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes executing queued jobs (default: 2)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="global queued-job bound; beyond it submissions get 429 (default: 256)",
    )
    parser.add_argument(
        "--quota", type=int, default=16, metavar="N",
        help="default per-tenant in-flight job quota (default: 16)",
    )
    parser.add_argument(
        "--tenant", action="append", default=None, metavar="NAME=TOKEN[:QUOTA]",
        help=(
            "declare a tenant (repeatable). With any tenant declared the "
            "service requires bearer-token auth; without, it is open and "
            "all callers share the anonymous tenant's quota."
        ),
    )
    parser.add_argument(
        "--backend", choices=("auto", "serial", "fork", "pool"), default=None,
        help="execution-backend default for worker sessions",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="per-chunk retry budget default for worker sessions",
    )
    parser.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="per-chunk watchdog deadline default for worker sessions",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be positive, got {args.workers}")
    if args.queue_depth < 1:
        parser.error(f"--queue-depth must be positive, got {args.queue_depth}")
    if args.quota < 1:
        parser.error(f"--quota must be positive, got {args.quota}")

    from repro.service.runtime import ServicePolicy, ServiceRuntime, parse_tenant_spec
    from repro.service.server import serve

    try:
        tenants = tuple(
            parse_tenant_spec(spec, args.quota) for spec in (args.tenant or ())
        )
    except ValueError as error:
        parser.error(str(error))
    policy = ServicePolicy(
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_quota=args.quota,
        backend=args.backend,
        retries=args.retries,
        chunk_timeout=args.chunk_timeout,
        tenants=tenants,
    )
    runtime = ServiceRuntime(args.spool, policy)

    def ready(port: int) -> None:
        print(
            f"repro-serve listening on http://{args.host}:{port} "
            f"(spool: {args.spool}, workers: {args.workers})",
            flush=True,
        )

    try:
        serve(runtime, host=args.host, port=args.port, ready=ready)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via `repro serve`
    sys.exit(main())
