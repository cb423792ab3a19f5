"""``python -m repro.server`` — run the tuning server.

Usage::

    python -m repro.server --port 8451 --jobs 4 --max-sessions 8

Its settings are these flags; see ``docs/server.md`` for the full
table.
"""

import argparse
import sys

from .app import TuningServer


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Multi-tenant configuration-tuning server.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default loopback)",
    )
    parser.add_argument(
        "--port", type=int, default=8451,
        help="TCP port, 0 picks a free one (default 8451)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="measurement-pool width of a session whose request names "
             "no jobs (default 0 = serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="job worker threads (default 2)",
    )
    parser.add_argument(
        "--queue", type=int, default=8,
        help="pending-job bound before 429 backpressure (default 8)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=8,
        help="resident tenant-session cap, and the cap on retained "
             "per-tenant-and-settings artifact stores; LRU eviction "
             "beyond it (default 8)",
    )
    parser.add_argument(
        "--session-ttl", type=float, default=3600.0,
        help="idle seconds before a session, or an artifact store "
             "no session uses, expires (default 3600)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared on-disk artifact cache directory; keys are "
             "tenant-scoped (default off)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log HTTP requests to stderr",
    )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    server = TuningServer(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        queue_capacity=args.queue,
        workers=args.workers,
        measure_jobs=args.jobs,
        artifacts_dir=args.cache_dir,
        verbose=args.verbose,
    )
    print(f"repro tuning server listening on {server.base_url}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
