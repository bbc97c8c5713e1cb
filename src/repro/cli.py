"""Command-line interface.

Five subcommands cover the operational loop a downstream user needs
without writing Python:

* ``repro generate`` — materialize a workload (registry dataset, SBM,
  LFR-style, or R-MAT) as an edge-list file (+ optional truth labels);
* ``repro cluster`` — stream an edge-list or event file through the
  clusterer and write ``vertex<TAB>cluster`` labels;
* ``repro score`` — evaluate a labels file against a graph and/or truth
  labels (modularity, conductance, NMI, ARI, F1);
* ``repro serve`` — run the always-on clustering daemon: many tenants,
  socket ingestion, mid-stream queries, per-tenant checkpoints
  (see ``docs/service.md``);
* ``repro send`` — stream a workload file to a running daemon as one
  tenant and write the served snapshot.

``repro cluster`` scales across cores with ``--parallel``: ``inline``
shards the stream in-process (a scalability baseline), and ``pipeline``
streams event frames through persistent worker processes so parsing,
routing, and per-shard clustering overlap (see ``docs/performance.md``).
With the default scalar kernel both modes produce the same partition as
the sequential sharded clusterer for the same seed and ``--workers``
count. Under ``--kernel numpy`` the two modes can draw different,
equally valid samples: the numpy kernel's sample depends on per-shard
batch boundaries, and the two modes cut batches differently.

``repro cluster`` can run as a crash-safe long-lived job: with
``--checkpoint`` the full clusterer state is persisted atomically every
``--checkpoint-every`` events, and ``--resume`` restarts from the last
checkpoint, replaying only the stream tail (identical output to an
uninterrupted run — see ``docs/robustness.md``). Resuming with flags
that conflict with the checkpointed configuration (capacity, kernel,
seed, constraints) is refused with exit code 2 — a silent mismatch
would produce a partition neither run would have produced.

Long-lived jobs are observable: ``--progress-every N`` prints a one-line
progress report (events/s, reservoir fill, clusters, checkpoint lag) to
stderr every N events, and ``--metrics-out PATH`` writes a JSON snapshot
of the internal metrics registry at exit (see ``docs/observability.md``).

Malformed inputs exit with code 2 and a one-line message, not a
traceback; ``--skip-malformed`` tolerates bad lines instead. A stdout
consumer that closes the pipe early (``repro cluster ... | head``) ends
the run quietly instead of with a ``BrokenPipeError`` traceback.
Ctrl-C exits with the conventional code 130 (``128 + SIGINT``) after
running every cleanup path — pipeline workers are reaped, and ``repro
serve`` drains tenant queues and writes per-tenant checkpoints first.

Examples
--------
::

    repro generate --dataset amazon_like --out graph.edges --truth-out truth.labels
    repro cluster graph.edges --capacity 6000 --max-cluster-size 120 --out found.labels
    repro cluster graph.edges --capacity 6000 --checkpoint run.ckpt \
        --checkpoint-every 10000 --resume --out found.labels
    repro score found.labels --graph graph.edges --truth truth.labels
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError, StreamError
from repro.core import (
    ClustererConfig,
    CompositeConstraint,
    ConstraintPolicy,
    MaxClusterSize,
    MinClusterCount,
    StreamingGraphClusterer,
    Unconstrained,
)
from repro.quality import (
    Partition,
    ari,
    average_conductance,
    modularity,
    nmi,
    pairwise_f1,
)

__all__ = ["main", "build_parser"]


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The clusterer-configuration flags ``cluster`` and ``serve`` share
    (one spelling, one help text, one resume-mismatch vocabulary)."""
    parser.add_argument("--capacity", type=int, required=True,
                        help="reservoir capacity (edges)")
    parser.add_argument("--max-cluster-size", type=int,
                        help="bound every cluster's size")
    parser.add_argument("--min-clusters", type=int,
                        help="keep at least this many clusters")
    parser.add_argument("--lean", action="store_true",
                        help="do not track the full graph (reservoir-only memory)")
    parser.add_argument("--kernel", choices=("scalar", "numpy"), default="scalar",
                        help="batch execution kernel: 'scalar' replays the "
                             "per-event RNG bit-for-bit, 'numpy' draws whole "
                             "batches vectorized (faster; distribution-"
                             "equivalent, not bit-identical to scalar)")
    parser.add_argument("--seed", type=int, default=0)


def _add_endpoint_flags(parser: argparse.ArgumentParser, *, role: str) -> None:
    """The service endpoint flags ``serve`` and ``send`` share."""
    parser.add_argument("--host", default="127.0.0.1",
                        help=f"TCP host to {role} (default: 127.0.0.1)")
    parser.add_argument("--port", type=_nonnegative_int, default=7227,
                        metavar="N",
                        help=f"TCP port to {role} (default: 7227; when "
                             "serving, 0 picks an ephemeral port)")
    parser.add_argument("--unix", metavar="PATH",
                        help="use a unix-domain socket at PATH instead of TCP")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clustering streaming graphs by graph reservoir sampling "
        "(reproduction of Eldawy/Khandekar/Wu, ICDCS 2012).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="materialize a workload")
    source = generate.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="registry dataset name (see repro.datasets)")
    source.add_argument("--sbm", nargs=4, metavar=("N", "K", "P_IN", "P_OUT"),
                        help="planted partition: vertices, communities, p_in, p_out")
    source.add_argument("--lfr", nargs=2, metavar=("N", "MU"),
                        help="LFR-style benchmark: vertices, mixing")
    source.add_argument("--rmat", nargs=2, metavar=("SCALE", "EDGES"),
                        help="R-MAT: 2^scale vertices, edge count")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="edge-list output path")
    generate.add_argument("--truth-out", help="ground-truth labels output path")

    cluster = commands.add_parser("cluster", help="cluster a streamed graph")
    cluster.add_argument("input", help="edge-list file (or event stream with --events)")
    cluster.add_argument("--events", action="store_true",
                         help="input is a +/- event stream, not an edge list")
    _add_config_flags(cluster)
    cluster.add_argument("--batch-size", type=_positive_int, default=1024,
                         metavar="N",
                         help="ingest events in batches of N through the fast "
                              "path (default: 1024)")
    cluster.add_argument("--parallel", choices=("inline", "pipeline"),
                         help="shard the stream across --workers shards: "
                              "'inline' runs every shard sequentially in one "
                              "process, 'pipeline' streams through persistent "
                              "worker processes (overlaps parsing, routing, "
                              "and clustering; checkpointable mid-stream)")
    cluster.add_argument("--workers", type=_positive_int, default=4, metavar="N",
                         help="shard/worker count for --parallel (default: 4)")
    cluster.add_argument("--out", help="labels output path (default: stdout)")
    cluster.add_argument("--min-size", type=int, default=1,
                         help="fold clusters smaller than this into one bucket")
    cluster.add_argument("--skip-malformed", action="store_true",
                         help="skip unparseable input lines instead of aborting")
    cluster.add_argument("--checkpoint", metavar="PATH",
                         help="persist clusterer state to PATH (atomic, CRC-checked)")
    cluster.add_argument("--checkpoint-every", type=_nonnegative_int, default=0,
                         metavar="N",
                         help="rewrite the checkpoint every N events (0: only at end)")
    cluster.add_argument("--resume", action="store_true",
                         help="resume from --checkpoint if it exists, replaying "
                              "only the stream tail")
    cluster.add_argument("--metrics-out", metavar="PATH",
                         help="write a JSON snapshot of the internal metrics "
                              "registry to PATH at exit")
    cluster.add_argument("--progress-every", type=_nonnegative_int, default=0,
                         metavar="N",
                         help="print a one-line progress report to stderr every "
                              "N events (0: never)")
    cluster.add_argument("--inject-kill-after", type=_nonnegative_int, metavar="N",
                         help=argparse.SUPPRESS)  # testing aid: hard-exit after N events

    score = commands.add_parser("score", help="evaluate a clustering")
    score.add_argument("labels", help="vertex<TAB>cluster labels file")
    score.add_argument("--graph", help="edge-list file for internal metrics")
    score.add_argument("--truth", help="ground-truth labels file for external metrics")

    serve = commands.add_parser(
        "serve", help="run the streaming clustering service daemon"
    )
    _add_config_flags(serve)
    _add_endpoint_flags(serve, role="listen on")
    serve.add_argument("--max-tenants", type=_positive_int, default=64,
                       metavar="N",
                       help="admission ceiling on concurrent tenants "
                            "(default: 64)")
    serve.add_argument("--max-frame-bytes", type=_positive_int,
                       default=None, metavar="N",
                       help="per-message wire size ceiling "
                            "(default: 4 MiB)")
    serve.add_argument("--queue-depth", type=_positive_int, default=64,
                       metavar="N",
                       help="per-tenant ingest queue bound, in batches; "
                            "a full queue backpressures that tenant's "
                            "producers (default: 64)")
    serve.add_argument("--workers", type=_nonnegative_int, default=0,
                       metavar="N",
                       help="run each tenant on an N-worker pipeline "
                            "(0: in-process clusterer per tenant; default)")
    serve.add_argument("--batch-size", type=_positive_int, default=1024,
                       metavar="N",
                       help="pipeline producer buffer size (with --workers)")
    serve.add_argument("--checkpoint-dir", metavar="DIR",
                       help="write per-tenant checkpoints (<tenant>.rpk) "
                            "under DIR; graceful shutdown always saves")
    serve.add_argument("--checkpoint-every", type=_nonnegative_int, default=0,
                       metavar="N",
                       help="also checkpoint each tenant every N events "
                            "(0: only at shutdown)")
    serve.add_argument("--resume", action="store_true",
                       help="resume tenants from their checkpoint files "
                            "when they reconnect")
    serve.add_argument("--metrics-out", metavar="PATH",
                       help="write a JSON snapshot of the metrics registry "
                            "(incl. serve.tenant.* SLO series) at exit")

    send = commands.add_parser(
        "send", help="stream a workload file to a running service"
    )
    send.add_argument("input", help="edge-list file (or event stream with --events)")
    send.add_argument("--events", action="store_true",
                      help="input is a +/- event stream, not an edge list")
    send.add_argument("--tenant", required=True,
                      help="tenant id to stream as ([A-Za-z0-9._-], <=128 chars)")
    _add_endpoint_flags(send, role="connect to")
    send.add_argument("--seed", type=int, default=0,
                      help="insert-order shuffle seed (match the inline "
                           "run you are comparing against)")
    send.add_argument("--kernel", choices=("scalar", "numpy"),
                      help="require this batch kernel for the tenant's "
                           "session (default: the server's --kernel); a "
                           "conflict with a live session or a resumed "
                           "checkpoint is refused, exit code 2")
    send.add_argument("--batch-size", type=_positive_int, default=1024,
                      metavar="N",
                      help="events per columnar frame (default: 1024); "
                           "match the server's --batch-size so served "
                           "numpy partitions are deterministic")
    send.add_argument("--skip-malformed", action="store_true",
                      help="skip unparseable input lines instead of aborting")
    send.add_argument("--out", help="write the served snapshot labels to "
                                    "PATH (default: stdout)")
    send.add_argument("--no-snapshot", action="store_true",
                      help="stream only; skip the final snapshot query")
    send.add_argument("--metrics-out", metavar="PATH",
                      help="write the tenant's served SLO metrics (JSON) "
                           "to PATH after streaming")
    return parser


def _read_labels(path: str) -> Partition:
    labels: Dict[object, object] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise StreamError(f"{path}:{line_number}: expected 'vertex label'")
            vertex = _parse(parts[0])
            labels[vertex] = parts[1]
    return Partition(labels)


def _parse(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _write_labels(partition: Partition, path: Optional[str]) -> None:
    from repro.serve.protocol import render_snapshot

    text = render_snapshot(partition)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _run_generate(args: argparse.Namespace) -> int:
    from repro.streams import lfr_graph, planted_partition, rmat_edges, write_edge_list

    truth: Optional[Partition] = None
    if args.dataset:
        from repro.datasets import load_dataset

        dataset = load_dataset(args.dataset, seed=args.seed)
        edges, truth = dataset.edges, dataset.truth
    elif args.sbm:
        n, k, p_in, p_out = args.sbm
        graph = planted_partition(int(n), int(k), float(p_in), float(p_out), seed=args.seed)
        edges, truth = graph.edges, graph.truth
    elif args.lfr:
        n, mu = args.lfr
        graph = lfr_graph(int(n), mu=float(mu), seed=args.seed)
        edges, truth = graph.edges, graph.truth
    else:
        scale, num_edges = args.rmat
        edges = rmat_edges(int(scale), int(num_edges), seed=args.seed)
    count = write_edge_list(edges, args.out)
    print(f"wrote {count} edges to {args.out}")
    if args.truth_out:
        if truth is None:
            print("warning: source has no ground truth; --truth-out skipped",
                  file=sys.stderr)
        else:
            _write_labels(truth, args.truth_out)
            print(f"wrote {truth.num_vertices} truth labels to {args.truth_out}")
    return 0


def _build_constraint(args: argparse.Namespace) -> ConstraintPolicy:
    policies: List[ConstraintPolicy] = []
    if args.max_cluster_size:
        policies.append(MaxClusterSize(args.max_cluster_size))
    if args.min_clusters:
        policies.append(MinClusterCount(args.min_clusters))
    if not policies:
        return Unconstrained()
    if len(policies) == 1:
        return policies[0]
    return CompositeConstraint(policies)


#: Resumable ``ClustererConfig`` fields the CLI can set, with the flag
#: spelling used in mismatch messages. Constraints are compared by repr
#: (policy classes are stateless predicates without ``__eq__``).
_RESUME_CHECKED_FIELDS = (
    ("reservoir_capacity", "--capacity"),
    ("seed", "--seed"),
    ("track_graph", "--lean"),
    ("kernel", "--kernel"),
    ("constraint", "--max-cluster-size/--min-clusters"),
)


def _resume_config_mismatches(restored, requested) -> List[str]:
    """Human-readable list of fields where the checkpointed config and
    the one requested on the command line disagree (empty = compatible)."""
    mismatches: List[str] = []
    for field, flag in _RESUME_CHECKED_FIELDS:
        old, new = getattr(restored, field), getattr(requested, field)
        if field == "constraint":
            old, new = repr(old), repr(new)
        if old != new:
            mismatches.append(f"{flag}: checkpoint has {old!r}, requested {new!r}")
    return mismatches


def _run_cluster(args: argparse.Namespace) -> int:
    from repro.core import PipelineClusterer, ShardedClusterer
    from repro.errors import CheckpointError
    from repro.persist import PeriodicCheckpointer
    from repro.streams import (
        insert_only_stream_raw,
        read_edge_list,
        read_event_stream_raw,
    )

    config = ClustererConfig(
        reservoir_capacity=args.capacity,
        constraint=_build_constraint(args),
        track_graph=not args.lean,
        strict=False,
        seed=args.seed,
        kernel=args.kernel,
    )
    metrics_on = bool(args.metrics_out or args.progress_every)
    if metrics_on:
        from repro import obs

        # One CLI run = one metrics epoch: start from a clean registry
        # so the snapshot describes exactly this invocation.
        obs.default_registry().reset()
        obs.enable()
    strict_io = not args.skip_malformed
    batch_size = args.batch_size  # always >= 1 (parser-enforced)
    io_errors: List[str] = []
    # With batching, events stay raw (kind, u, v) tuples end to end;
    # apply_many canonicalizes in bulk. Either way the stream describes
    # the same updates and yields the same clustering.
    if args.events:
        stream = read_event_stream_raw(
            args.input, strict=strict_io, errors=io_errors,
            intern=args.parallel == "pipeline",
        )
    else:
        edges = read_edge_list(args.input, strict=strict_io, errors=io_errors)
        stream = insert_only_stream_raw(edges, seed=args.seed)

    checkpointer: Optional[PeriodicCheckpointer] = None
    if args.checkpoint and args.resume and os.path.exists(args.checkpoint):
        checkpointer = PeriodicCheckpointer.resume(
            args.checkpoint, every=args.checkpoint_every
        )
        clusterer = checkpointer.clusterer
        if args.parallel:
            if not isinstance(clusterer, ShardedClusterer):
                raise CheckpointError(
                    f"{args.checkpoint} holds a {type(clusterer).__name__} "
                    f"checkpoint; --parallel {args.parallel} resumes sharded "
                    "checkpoints only (drop --parallel to resume it)"
                )
            if clusterer.num_shards != args.workers:
                raise CheckpointError(
                    f"{args.checkpoint}: --workers: checkpoint has "
                    f"{clusterer.num_shards} shards, requested {args.workers} "
                    "(shard count is part of the partitioned state)"
                )
        elif not isinstance(clusterer, StreamingGraphClusterer):
            raise CheckpointError(
                f"{args.checkpoint} holds a {type(clusterer).__name__} "
                "checkpoint; resume it with --parallel inline or "
                "--parallel pipeline"
            )
        mismatches = _resume_config_mismatches(clusterer.config, config)
        if mismatches:
            raise CheckpointError(
                f"{args.checkpoint}: cannot --resume with flags that "
                "conflict with the checkpointed configuration: "
                + "; ".join(mismatches)
                + " (re-run with matching flags, or delete the checkpoint "
                "to start fresh)"
            )
        if args.parallel == "pipeline":
            # Re-home the restored shards onto persistent workers; the
            # checkpointer keeps saving the (format-identical) state.
            clusterer = PipelineClusterer.from_state(
                clusterer.get_state(), batch_events=batch_size
            )
            checkpointer.clusterer = clusterer
        stream = checkpointer.remaining(stream)
        print(
            f"resumed from {args.checkpoint} at event {checkpointer.position}",
            file=sys.stderr,
        )
    else:
        if args.parallel == "inline":
            clusterer = ShardedClusterer(config, num_shards=args.workers)
        elif args.parallel == "pipeline":
            clusterer = PipelineClusterer(
                config, args.workers, batch_events=batch_size
            )
        else:
            clusterer = StreamingGraphClusterer(config)
        if args.checkpoint:
            checkpointer = PeriodicCheckpointer(
                clusterer, args.checkpoint, every=args.checkpoint_every
            )

    if args.inject_kill_after is not None:
        from repro.util.faults import kill_at_event

        stream = kill_at_event(
            stream, args.inject_kill_after, action=lambda: os._exit(3)
        )

    if args.progress_every:
        from repro.obs import ProgressReporter

        reporter = ProgressReporter(
            args.progress_every, clusterer, checkpointer=checkpointer
        )
        stream = reporter.wrap(stream)

    try:
        if checkpointer is not None:
            checkpointer.process(stream, batch_size=batch_size)
            checkpointer.save()
        else:
            clusterer.process(stream, batch_size=batch_size)
        snapshot = clusterer.snapshot()
        if isinstance(clusterer, StreamingGraphClusterer):
            stats = clusterer.stats
            summary = (
                f"processed {stats.events} events: {{clusters}} clusters, "
                f"largest {{largest}}, reservoir "
                f"{clusterer.reservoir_size}"
                f"/{clusterer.config.reservoir_capacity}, "
                f"{stats.vetoes} constraint vetoes"
            )
        else:
            summary = (
                f"processed {sum(clusterer.shard_events)} events across "
                f"{clusterer.num_shards} shards: {{clusters}} clusters, "
                f"largest {{largest}}, reservoir "
                f"{clusterer.total_reservoir_size}"
                f"/{clusterer.config.reservoir_capacity}"
            )
        if io_errors:
            print(f"skipped {len(io_errors)} malformed input lines", file=sys.stderr)
        if args.min_size > 1:
            snapshot = snapshot.merged_small_clusters(min_size=args.min_size)
        _write_labels(snapshot, args.out)
        print(
            summary.format(
                clusters=snapshot.num_clusters, largest=snapshot.max_cluster_size
            ),
            file=sys.stderr,
        )
        if args.metrics_out:
            from repro import obs

            clusterer.sync_metrics()
            obs.default_registry().write_json(args.metrics_out)
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    finally:
        if isinstance(clusterer, PipelineClusterer):
            clusterer.close()
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.serve import ClusterService
    from repro.streams.codec import DEFAULT_MAX_WIRE_BYTES

    config = ClustererConfig(
        reservoir_capacity=args.capacity,
        constraint=_build_constraint(args),
        track_graph=not args.lean,
        strict=False,
        seed=args.seed,
        kernel=args.kernel,
    )
    if args.metrics_out:
        from repro import obs

        obs.default_registry().reset()
        obs.enable()
    service = ClusterService(
        config,
        host=args.host,
        port=args.port,
        path=args.unix,
        max_tenants=args.max_tenants,
        max_frame_bytes=args.max_frame_bytes or DEFAULT_MAX_WIRE_BYTES,
        queue_depth=args.queue_depth,
        workers=args.workers,
        batch_size=args.batch_size,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )

    def _announce() -> None:
        # The daemon loop owns the main thread; report readiness from
        # the side so wrappers can wait for this line (CI smoke does).
        if service.started.wait(timeout=60.0):
            endpoint = service.endpoint
            where = (
                endpoint if isinstance(endpoint, str)
                else f"{endpoint[0]}:{endpoint[1]}"
            )
            print(f"serving on {where}", file=sys.stderr, flush=True)

    threading.Thread(target=_announce, daemon=True).start()
    try:
        code = service.run()
    except KeyboardInterrupt:
        # SIGINT before the loop installed its handler (startup window):
        # same graceful contract, same exit code as the handled path.
        code = 130
    if code == 130:
        print("interrupted; tenants drained and checkpointed", file=sys.stderr)
    if args.metrics_out:
        from repro import obs

        obs.default_registry().write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return code


def _run_send(args: argparse.Namespace) -> int:
    from repro.serve import ServiceClient
    from repro.streams import (
        insert_only_columns,
        read_edge_list,
        read_event_columns,
    )

    strict_io = not args.skip_malformed
    io_errors: List[str] = []
    if args.events:
        batches = read_event_columns(
            args.input, args.batch_size, strict=strict_io, errors=io_errors
        )
    else:
        edges = read_edge_list(args.input, strict=strict_io, errors=io_errors)
        batches = insert_only_columns(edges, args.batch_size, seed=args.seed)
    endpoint = args.unix if args.unix else (args.host, args.port)
    with ServiceClient(
        endpoint,
        tenant=args.tenant,
        kernel=args.kernel,
        batch_size=args.batch_size,
    ) as client:
        count = client.send_columns(batches)
        summary = f"sent {count} events as tenant {args.tenant!r}"
        if not args.no_snapshot:
            snapshot = client.snapshot()
            handle = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
            try:
                handle.write(snapshot)
            finally:
                if args.out:
                    handle.close()
            clusters = len({
                line.rpartition("\t")[2]
                for line in snapshot.splitlines() if line
            })
            summary += f": {clusters} clusters"
        if args.metrics_out:
            import json

            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(client.metrics(), handle, indent=2, sort_keys=True)
                handle.write("\n")
    if io_errors:
        print(f"skipped {len(io_errors)} malformed input lines", file=sys.stderr)
    print(summary, file=sys.stderr)
    return 0


def _run_score(args: argparse.Namespace) -> int:
    predicted = _read_labels(args.labels)
    print(f"clusters: {predicted.num_clusters}  vertices: {predicted.num_vertices}  "
          f"largest: {predicted.max_cluster_size}")
    if args.graph:
        from repro.graph import AdjacencyGraph
        from repro.streams import read_edge_list

        graph = AdjacencyGraph(read_edge_list(args.graph))
        print(f"modularity: {modularity(graph, predicted):.4f}")
        print(f"avg_conductance: {average_conductance(graph, predicted):.4f}")
    if args.truth:
        truth = _read_labels(args.truth)
        print(f"nmi: {nmi(predicted, truth):.4f}")
        print(f"ari: {ari(predicted, truth):.4f}")
        print(f"pairwise_f1: {pairwise_f1(predicted, truth):.4f}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (malformed inputs, corrupted checkpoints, service
    refusals, …) exit with code 2 and a one-line message on stderr
    instead of a traceback; an operator interrupt (Ctrl-C / SIGINT)
    exits 130 after cleanup.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _run_generate(args)
        if args.command == "cluster":
            return _run_cluster(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "send":
            return _run_send(args)
        return _run_score(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C on a long run is a normal operator action, not a crash:
        # no traceback, conventional exit code 128 + SIGINT. Cleanup has
        # already run — the interrupt propagated through the command's
        # ``finally`` blocks (pipeline workers reaped, checkpoints
        # flushed) before landing here.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The stdout consumer (e.g. `repro cluster ... | head`) closed
        # the pipe; that's a normal way for a stream job to end, not a
        # crash. Point stdout at devnull so the interpreter's exit-time
        # flush doesn't raise a second, unhandled BrokenPipeError.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except Exception:
            pass  # stdout has no real fd (captured/stubbed): nothing to flush
        return 0
    finally:
        if getattr(args, "metrics_out", None) or getattr(args, "progress_every", 0):
            from repro import obs

            # The emission flag is process-global; don't leak it past
            # the run that asked for it (library users of main()).
            obs.disable()


if __name__ == "__main__":
    raise SystemExit(main())
