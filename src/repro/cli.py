"""Command-line entry point: ``python -m repro <experiment|serve>``.

Regenerates any table or figure of the paper's evaluation from the
terminal, e.g.::

    python -m repro table2
    python -m repro table4 --scale 0.2 --no-lm
    python -m repro fig6 --scale 0.15

serves a repository over HTTP (see :mod:`repro.service`)::

    python -m repro serve --store runs/morer_store --port 8640
    python -m repro serve --demo 24        # synthetic fixture repository

or runs the repository-invariant static analyzer
(see :mod:`repro.analysis`)::

    python -m repro lint --strict
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]

_EXPERIMENTS = ("table2", "table4", "table5", "fig2", "fig5", "fig6", "fig7")
_COMMANDS = _EXPERIMENTS + ("serve",)


def build_parser():
    """The argparse parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the MoRER paper's tables and figures on the "
            "scaled-down synthetic corpora, or serve a repository over "
            "HTTP."
        ),
    )
    parser.add_argument(
        "experiment", choices=_COMMANDS,
        help=(
            "which table/figure to regenerate, or 'serve' ('repro lint' "
            "— the static analyzer — has its own flags; see 'repro lint "
            "--help')"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="corpus scale factor (1.0 = the repository default size)",
    )
    parser.add_argument(
        "--no-lm", action="store_true",
        help="skip the slow language-model baselines where applicable",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help=(
            "serve sel_cov streams through MoRER.solve_batch in chunks "
            "of N problems (one graph integration + recluster per "
            "chunk); applies to fig7"
        ),
    )
    gateway = parser.add_argument_group(
        "serve", "options for the 'serve' command"
    )
    gateway.add_argument(
        "--store", metavar="DIR", default=None,
        help="serve a MoRER.save directory (loaded at startup)",
    )
    gateway.add_argument(
        "--demo", type=int, default=None, metavar="N", nargs="?", const=24,
        help=(
            "serve a synthetic fixture repository fitted on N problems "
            "(default 24) instead of a saved store"
        ),
    )
    gateway.add_argument(
        "--host", default="127.0.0.1", help="gateway bind host",
    )
    gateway.add_argument(
        "--port", type=int, default=8640, help="gateway bind port",
    )
    gateway.add_argument(
        "--max-batch-size", type=int, default=None, metavar="N",
        help=(
            "most cov solves the scheduler coalesces into one tick "
            "(default 16)"
        ),
    )
    gateway.add_argument(
        "--max-wait-ms", type=float, default=None, metavar="MS",
        help=(
            "how long a non-full tick waits for more cov solves "
            "(default 2.0)"
        ),
    )
    gateway.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help=(
            "queued cov solves past which submissions fail fast with "
            "429 overloaded (default 256)"
        ),
    )
    gateway.add_argument(
        "--access-log", metavar="PATH", default=None,
        help=(
            "append the structured JSON-lines access log to PATH "
            "instead of stderr"
        ),
    )
    gateway.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        dest="rate_limit_rps",
        help=(
            "per-client token-bucket admission control: each client "
            "(X-Client-Id header or remote address) may submit RPS "
            "mutations per second; over-quota requests get 429 + "
            "Retry-After (default 0: no limit)"
        ),
    )
    gateway.add_argument(
        "--rate-burst", type=float, default=None, metavar="N",
        help=(
            "token-bucket capacity per client (default max(RPS, 1))"
        ),
    )
    gateway.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help=(
            "write-ahead-log directory (requires --store): mutations "
            "are logged before they execute and replayed on startup "
            "after a crash"
        ),
    )
    gateway.add_argument(
        "--fsync", choices=("always", "interval", "off"), default=None,
        help=(
            "WAL fsync policy: per-record (safest, the default), "
            "bounded-interval, or none (survives kill -9 but not power "
            "loss)"
        ),
    )
    gateway.add_argument(
        "--fsync-interval-ms", type=float, default=None, metavar="MS",
        help="max fsync staleness under --fsync interval (default 50)",
    )
    gateway.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help=(
            "with --wal-dir: snapshot to --store and truncate the WAL "
            "after every N logged records (0 = only on /save)"
        ),
    )
    gateway.add_argument(
        "--force-bootstrap", action="store_true",
        help=(
            "with --wal-dir + --demo: bootstrap a fresh fixture even "
            "when the WAL holds acked records that could not be "
            "replayed (DISCARDS those records at the first checkpoint)"
        ),
    )
    return parser


def _set_flags(args, *names):
    """``{name: value}`` of the named flags the command line set."""
    return {
        name: getattr(args, name) for name in names
        if getattr(args, name) is not None
    }


def _serve(args):
    """The ``repro serve`` command: load/fit (or recover), wrap, serve
    forever. With ``--wal-dir`` the startup path is crash recovery:
    last good snapshot under ``--store`` + WAL tail replay, then an
    immediate checkpoint when anything was replayed."""
    from .core import MoRER
    from .core.morer import UnsupportedFormatError
    from .service import InvalidRequest, MoRERService, ServiceHTTPServer

    replayed = False
    if args.wal_dir is not None:
        if args.store is None:
            raise SystemExit(
                "--wal-dir requires --store DIR (the snapshot directory "
                "recovery loads and checkpoints into)"
            )
        from .durability import recover

        try:
            morer, report = recover(args.wal_dir, store=args.store)
        except ValueError as exc:
            # A store or WAL in another format, or a WAL header config
            # naming fields this build does not have.
            raise SystemExit(f"cannot recover: {exc}") from None
        wal_records = (
            0 if report.wal_report is None else report.wal_report.n_records
        )
        if morer is not None and morer.repository is not None:
            origin = (
                f"recovery (snapshot {report.snapshot_path}, "
                f"{report.n_replayed} WAL records replayed)"
            )
            replayed = report.n_replayed > 0
            if report.replay_errors:
                print(
                    f"recovery: {len(report.replay_errors)} record(s) "
                    f"failed on replay (they failed live too): "
                    f"{report.replay_errors}",
                    flush=True,
                )
        elif args.demo is not None:
            if wal_records > 0 and not args.force_bootstrap:
                # The snapshot is gone/unloadable but the WAL still
                # holds acked mutations that replay could not land on a
                # fitted instance (the fit record rotated out at a past
                # checkpoint). Bootstrapping would checkpoint over them
                # and truncate the WAL — silent durable-data loss.
                raise SystemExit(
                    f"refusing --demo bootstrap: the WAL in "
                    f"{args.wal_dir} holds {wal_records} acked "
                    f"record(s) that could not be replayed (no loadable "
                    f"fitted snapshot under {args.store}); bootstrapping "
                    "would truncate and discard them at the first "
                    "checkpoint. Restore the snapshot directory, move "
                    "the WAL aside, or pass --force-bootstrap to "
                    "discard them deliberately."
                )
            # Nothing recoverable: bootstrap the store from the demo
            # fixture (first boot of a durable server).
            from .service.fixtures import demo_morer

            morer = demo_morer(args.demo)
            origin = f"demo bootstrap ({args.demo} problems)"
            replayed = True  # force the initial checkpoint below
        elif wal_records > 0:
            raise SystemExit(
                f"cannot recover: the WAL in {args.wal_dir} holds "
                f"{wal_records} acked record(s) but no loadable fitted "
                f"snapshot exists under {args.store} to replay them "
                "onto; restore the snapshot directory or move the WAL "
                "aside"
            )
        else:
            raise SystemExit(
                f"nothing to recover: no loadable snapshot under "
                f"{args.store} and no replayable WAL in {args.wal_dir}; "
                "bootstrap with --demo [N] or pre-populate the store"
            )
    elif args.store is not None and args.demo is not None:
        raise SystemExit(
            "--store and --demo are mutually exclusive without --wal-dir"
        )
    elif args.store is not None:
        try:
            morer = MoRER.load(args.store)
        except UnsupportedFormatError as exc:
            raise SystemExit(f"cannot load: {exc}") from None
        origin = f"store {args.store}"
    elif args.demo is not None:
        from .service.fixtures import demo_morer

        morer = demo_morer(args.demo)
        origin = f"demo fixture ({args.demo} problems)"
    else:
        raise SystemExit("serve needs --store DIR or --demo [N]")
    # A serving flag left unset keeps the default of the constructor it
    # feeds (MoRERService for the scheduler, WriteAheadLog for the fsync
    # policy, ServiceHTTPServer for the rate limit), so each default is
    # written in one place.
    settings = _set_flags(args, "max_batch_size", "max_wait_ms",
                          "max_queue_depth", "fsync_interval_ms")
    if args.fsync is not None:
        settings["fsync_policy"] = args.fsync
    try:
        service = MoRERService(
            morer, **settings,
            wal_dir=args.wal_dir,
            checkpoint_store=(
                args.store if args.wal_dir is not None else None
            ),
            checkpoint_every=(
                args.checkpoint_every if args.wal_dir is not None else 0
            ),
        )
    except InvalidRequest as exc:
        raise SystemExit(f"cannot serve: {exc}") from None
    gateway_kwargs = _set_flags(args, "rate_limit_rps", "rate_burst")
    if args.access_log is not None:
        from .service import AccessLog

        gateway_kwargs["access_log"] = AccessLog(path=args.access_log)
    try:
        server = ServiceHTTPServer(
            service, (args.host, args.port), **gateway_kwargs,
        )
    except InvalidRequest as exc:
        service.close()
        raise SystemExit(f"cannot serve: {exc}") from None
    if args.wal_dir is not None and replayed:
        # Checkpoint immediately so the next restart starts from a
        # snapshot instead of repeating the replay (and so a demo
        # bootstrap becomes a loadable store at all). Every serving
        # flag is validated by now, so a refused one writes no store.
        service.save(args.store)
        print(f"checkpointed recovered state to {args.store}", flush=True)
    # The serving line is inside the try, so a SIGINT sent as soon as a
    # supervisor reads it still closes the server and the service
    # (scheduler drain, the WAL's final fsync). No shutdown() in the
    # finally: serve_forever has returned or never started by then, and
    # shutdown() would wait forever for one that never started.
    try:
        print(
            f"serving {origin}: {len(morer.repository)} entries at "
            f"{server.url} (max_batch_size={service.max_batch_size}, "
            f"max_wait_ms={service.max_wait_ms:g}, "
            f"max_queue_depth={service.max_queue_depth})",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return server


def main(argv=None):
    """Dispatch to the experiment drivers; returns their result object."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # The analyzer owns its flag namespace (--strict, --rules, ...)
        # and is dispatched before the experiment parser sees them. It
        # is stdlib-only, so this import never pulls in numpy.
        from .analysis.runner import main as lint_main

        code = lint_main(argv[1:])
        if code:
            raise SystemExit(code)
        return code
    args = build_parser().parse_args(argv)
    if args.experiment == "serve":
        return _serve(args)
    from . import experiments

    if args.experiment == "table2":
        return experiments.table2.main(scale=args.scale)
    if args.experiment == "table4":
        return experiments.table4.main(
            scale=args.scale, include_lm=not args.no_lm
        )
    if args.experiment == "table5":
        return experiments.table5.main(scale=args.scale)
    if args.experiment == "fig2":
        return experiments.fig2.main(scale=args.scale)
    if args.experiment == "fig5":
        return experiments.fig5.main(
            scale=args.scale, include_lm=not args.no_lm
        )
    if args.experiment == "fig6":
        return experiments.fig6.main(scale=args.scale)
    if args.experiment == "fig7":
        return experiments.fig7.main(
            scale=args.scale, batch_size=args.batch_size
        )
    raise AssertionError("unreachable")


if __name__ == "__main__":
    main()
