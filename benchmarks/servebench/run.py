"""servebench: the served-stream benchmark.

Usage, from the repository root::

    python3 benchmarks/servebench/run.py [--workload NAME] --seed S \
        [--seconds 30] [--trace 0|1] [--out FILE]

The system under test is a real ``python -m repro.cli serve --unix ...
--lean`` subprocess; a fresh one is started for every pass. This process
is the load generator: one ``ServiceClient`` per connection, at most two
connections and two threads. Frames are generated from ``--seed`` and
encoded before any clock starts (``workloads.py``); the server only sees
the frames. When at least two CPUs are available, the load generator
runs on the first and the server on the others, so neither takes CPU
time from the other.

A pass spawns the server and handshakes the tenant (``setup_s``), then
sends the stream in rounds: the warm-up frames, then a few frames at a
time, each round closed by a probe frame and a MEMBERSHIP barrier. On
``read_mix_scalar`` an open-loop writer sends the whole stream instead,
while a reader thread times MEMBERSHIP queries. The pass then checks
the tenant's METRICS and reads it in rounds: each round sends a
one-edge probe frame and times one MEMBERSHIP or one SNAPSHOT.
Every barrier and every read after the stream is compared with the
inline reference. Last, the pass reads the server's ``VmHWM``
(``peak_rss_mib``) and stops it with SIGTERM. Passes repeat while
another one fits in :data:`RUN_SECONDS`, at least three.

Each timed unit (a write round, a MEMBERSHIP, a SNAPSHOT) is short and
does the same work as the others of its kind, so a run holds a hundred
or more of each, spread over the whole run. Every end-to-end metric is
a median over the run: ``ingest_eps`` over its write rounds (on
``read_mix_scalar``, whose writer keeps a fixed rate, over the passes'
achieved rates), ``membership_ms`` and ``snapshot_s`` over its reads,
``setup_s`` and ``peak_rss_mib`` over its passes.

With ``--trace 1``, untraced and traced passes alternate (the traced
server runs under ``traced_serve.py``) and the run reports the per-layer
metrics of the traced passes instead, plus ``trace.overhead_frac``. With
``--out FILE``, the layer totals of the last traced pass are written
next to ``FILE`` as ``trace_<workload>.json``.

Every metric is printed as ``name workload value unit``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A correctness failure exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import workloads as W  # puts the program's sources on sys.path

from repro.errors import ServiceError  # noqa: E402
from repro.serve import ServiceClient  # noqa: E402
from repro.serve.protocol import render_membership  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Measuring time per workload: ``run_seconds`` in BENCHMARK.json. The
#: benchmark sets the run length, so it is the same on every commit;
#: ``--seconds`` is accepted only with this value.
RUN_SECONDS = 30
MIN_PASSES = 3
#: The reader starts once this share of the stream is sent: by then the
#: tenant holds nearly every vertex, so reads see a steady partition size.
READ_AFTER = 0.25
SPAWN_TIMEOUT_S = 60.0
clock = time.perf_counter

#: name -> (unit, better), in print order.
END_TO_END = {
    "ingest_eps": ("events/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "snapshot_s": ("s", "lower"),
    "membership_ms": ("ms", "lower"),
}

_COUNT_LOW = ("count", "lower")
_PCT = ("%", "lower")

PER_LAYER = {
    "codec.decode.calls": _COUNT_LOW,
    "codec.decode.busy_s": ("s", "lower"),
    "codec.decode.us_per_event": ("us", "lower"),
    "server.bytes_per_event": ("bytes", "lower"),
    "session.enqueue.wait_s": ("s", "lower"),
    "session.queue_lag_p50_s": ("s", "lower"),
    "session.queue_lag_p99_s": ("s", "lower"),
    "session.query.calls": ("count", "higher"),
    "session.query.busy_s": ("s", "lower"),
    "session.drops": _COUNT_LOW,
    "clusterer.apply_many.calls": _COUNT_LOW,
    "clusterer.apply_many.busy_s": ("s", "lower"),
    "clusterer.apply_many.us_per_event": ("us", "lower"),
    "clusterer.cluster_members.calls": ("count", "higher"),
    "clusterer.cluster_members.busy_s": ("s", "lower"),
    "clusterer.partition_builds": _COUNT_LOW,
    "clusterer.snapshot.busy_s": ("s", "lower"),
    "batchkernel.apply.busy_pct": _PCT,
    "batchkernel.sync.calls": _COUNT_LOW,
    "batchkernel.sync.busy_pct": _PCT,
    "batchkernel.settle_stats.calls": _COUNT_LOW,
    "batchkernel.settle_stats.busy_pct": _PCT,
    "batchkernel.fallback_frac": ("ratio", "lower"),
    "vectorized.insert_many.busy_pct": _PCT,
    "vectorized.edge_components.calls": _COUNT_LOW,
    "vectorized.edge_components.busy_pct": _PCT,
    "reservoir.admit_frac": ("ratio", "higher"),
    "connectivity.insert_edge.calls": _COUNT_LOW,
    "connectivity.insert_edge.busy_pct": _PCT,
    "connectivity.delete_edge.calls": _COUNT_LOW,
    "connectivity.delete_edge.busy_pct": _PCT,
    "connectivity.components.calls": _COUNT_LOW,
    "connectivity.components.busy_pct": _PCT,
    "connectivity.component_members.calls": _COUNT_LOW,
    "connectivity.component_members.busy_pct": _PCT,
    "partition.build.calls": _COUNT_LOW,
    "partition.build.busy_s": ("s", "lower"),
    "protocol.render.busy_s": ("s", "lower"),
    "persist.save.calls": _COUNT_LOW,
    "persist.save.busy_pct": _PCT,
    "persist.bytes_written": ("bytes", "lower"),
    "intern.vertices": _COUNT_LOW,
    "loadgen.cpu_frac": ("ratio", "lower"),
    "loadgen.query_count": ("count", "higher"),
    "loadgen.write_lag_p99_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _rel(path: Path) -> str:
    """``path`` relative to the working directory, which the server
    shares: a short socket path stays under the AF_UNIX length limit
    wherever the checkout lives."""
    return os.path.relpath(path)


def _percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def cpu_split() -> Optional[Tuple[Set[int], Set[int]]]:
    """(load-generator CPUs, server CPUs): the first available CPU and
    the rest, or None when fewer than two CPUs are available."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


class Server:
    """One ``repro serve`` subprocess, optionally under the tracer."""

    def __init__(self, w: W.Workload, workdir: Path, traced: bool,
                 cpus: Optional[Set[int]] = None) -> None:
        self.w = w
        self.sock = _rel(workdir / "serve.sock")
        self.trace_out = workdir / "trace.json"
        self.metrics_out = workdir / "metrics.json"
        args = [
            "serve", "--unix", self.sock, "--lean",
            "--capacity", str(W.CAPACITY), "--seed", str(W.SERVER_SEED),
            "--kernel", w.kernel, "--batch-size", str(w.frame_events),
        ]
        if w.checkpoint_every:
            args += [
                "--checkpoint-dir", _rel(workdir / "checkpoints"),
                "--checkpoint-every", str(w.checkpoint_every),
            ]
        if traced:
            command = [
                sys.executable, _rel(HERE / "traced_serve.py"), _rel(self.trace_out),
                *args, "--metrics-out", _rel(self.metrics_out),
            ]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(W.ROOT / "src"), env.get("PYTHONPATH")])
        )
        self._log = open(workdir / "serve.log", "ab")
        self.started = clock()
        self.proc = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=self._log,
        )
        if cpus:
            # Threads the server starts later inherit this mask.
            os.sched_setaffinity(self.proc.pid, cpus)
        self.lifetime_s = 0.0

    def connect(self, tenant: str) -> ServiceClient:
        """Connect and handshake, retrying until the socket is up."""
        deadline = clock() + SPAWN_TIMEOUT_S
        while True:
            try:
                return ServiceClient(
                    self.sock, tenant=tenant, kernel=self.w.kernel,
                    batch_size=self.w.frame_events, timeout=120.0,
                )
            except ServiceError:
                if self.proc.poll() is not None or clock() > deadline:
                    raise RuntimeError(
                        f"repro serve did not accept tenant {tenant!r} "
                        f"(exit status {self.proc.poll()}); see serve.log"
                    ) from None
                time.sleep(0.005)

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc/<pid>/status")

    def stop(self) -> int:
        """Graceful SIGTERM, then wait; kill after a minute."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -signal.SIGKILL
        finally:
            self.lifetime_s = clock() - self.started
            self._log.close()


class Pass:
    """What one pass measured and what its oracle found."""

    def __init__(self) -> None:
        self.events = 0
        self.queries = 0
        self.memberships = 0
        self.failed = 0
        self.problems: List[str] = []
        #: events/s of each timed write round.
        self.round_eps: List[float] = []
        self.query_s: List[float] = []
        #: How long each send call took: a round's frames, or one frame
        #: from its due time on the open-loop writer.
        self.write_lag_s: List[float] = []
        self.snapshot_s: List[float] = []
        self.trace: dict = {}
        self.registry: dict = {}
        # Both load-generator threads count into this pass.
        self._lock = threading.Lock()

    def fail(self, count: int, problem: str) -> None:
        with self._lock:
            self.failed += count
            self.problems.append(problem)

    def membership(self, client: ServiceClient, vertex: int) -> frozenset:
        with self._lock:
            self.queries += 1
            self.memberships += 1
        return client.membership(vertex)

    def expect(self, reply: str, want: str, count: int, what: str) -> None:
        """Fail ``count`` when ``reply`` is not the reference's answer."""
        if W.digest(reply) != want:
            self.fail(count, f"{what} differs from the inline reference")


def _write_rounds(p: Pass, w: W.Workload, stream: W.Stream,
                  client: ServiceClient) -> None:
    """Send the stream in rounds. A round sends its frames and a probe
    frame, then waits for a MEMBERSHIP barrier."""
    slices = W.round_slices(w)
    start = clock()
    for r, part in enumerate(slices):
        begin = clock()
        client.send_frames(stream.frames[part] + [stream.probes[r]])
        p.write_lag_s.append(clock() - begin)
        members = p.membership(client, stream.queries[r])
        if r or not w.warmup:
            p.round_eps.append((part.stop - part.start) * w.frame_events
                               / (clock() - begin))
        p.expect(render_membership(members), stream.expected[r], 1,
                 f"round {r}: barrier MEMBERSHIP")
    p.window_s = clock() - start


def _write_beside_reader(p: Pass, w: W.Workload, stream: W.Stream,
                         writer: ServiceClient, reader: ServiceClient,
                         rng: random.Random) -> None:
    """An open-loop writer sends the whole stream at ``w.rate``, then a
    probe frame and a MEMBERSHIP barrier. Meanwhile a reader on a second
    connection times a MEMBERSHIP of a vertex already sent each time
    another frame has gone out, so every read sees a changed tenant."""
    first_seen = dict(zip(stream.vertices.tolist(), stream.first_event.tolist()))
    writing = threading.Event()
    writing.set()
    progress = [0, 0]
    errors: List[BaseException] = []

    def read(query_rng: random.Random) -> None:
        # Mid-stream replies cannot be matched with the reference, as
        # the frames applied before each one depend on timing. Each
        # must hold the vertex and only vertices already sent.
        last = 0
        while writing.is_set():
            sent = min(progress[0], stream.events)
            if sent < READ_AFTER * stream.events or sent == last:
                time.sleep(0.001)
                continue
            last = sent
            vertex = stream.seen_vertex(query_rng, sent)
            begin = clock()
            members = p.membership(reader, vertex)
            p.query_s.append(clock() - begin)
            issued = progress[1]
            if vertex not in members or any(
                first_seen.get(m, issued) >= issued for m in members
            ):
                p.fail(1, f"MEMBERSHIP({vertex}) mid-stream reply "
                          f"{sorted(members)[:8]} is not a cluster of "
                          "vertices already sent")

    def guarded(query_rng: random.Random) -> None:
        try:
            read(query_rng)
        except BaseException as error:  # re-raised on the writer's thread
            errors.append(error)

    thread = threading.Thread(target=guarded, args=(random.Random(rng.random()),))
    thread.start()
    try:
        begin = _write(writer, stream.frames, w.frame_events, w.rate, progress,
                       p.write_lag_s)
        writer.send_frames([stream.probes[0]])
        members = p.membership(writer, stream.queries[0])
        p.window_s = clock() - begin
        p.expect(render_membership(members), stream.expected[0], 1,
                 "barrier MEMBERSHIP")
    finally:
        writing.clear()
        thread.join()
    if errors:
        raise errors[0]


def _write(client, frames, frame_events: int, rate: float, progress: list,
           lags: list) -> float:
    """Send every frame with its own ``send_frames`` call, each due
    ``frame_events / rate`` after the one before; returns the first
    send's start. ``progress`` holds the events whose send returned and
    the events whose send began. A frame's lag is how long after its due
    time its send returned."""
    start = clock()
    for index, frame in enumerate(frames):
        due = start + index * frame_events / rate
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        progress[1] += frame_events
        client.send_frames([frame])
        lags.append(clock() - due)
        progress[0] += frame_events
    return start


def run_pass(w: W.Workload, stream: W.Stream, workdir: Path, rng: random.Random,
             traced: bool = False, cpus: Optional[Set[int]] = None) -> Pass:
    """One pass against a fresh server (see the module docstring)."""
    p = Pass()
    gc.collect()
    server = Server(w, workdir, traced, cpus)
    clients: List[ServiceClient] = []
    try:
        clients.append(server.connect("t0"))
        if w.rate:
            clients.append(server.connect("t0"))
        p.setup_s = clock() - server.started
        client = clients[0]

        cpu_start = time.process_time()
        if w.rate:
            _write_beside_reader(p, w, stream, client, clients[1], rng)
        else:
            _write_rounds(p, w, stream, client)
        p.ingest_eps = stream.events / p.window_s
        p.loadgen_cpu_frac = (time.process_time() - cpu_start) / p.window_s
        base = len(W.round_slices(w))
        p.events = stream.events + base

        info = client.metrics()
        p.queries += 1
        unapplied = p.events - int(info["events"])
        if info["drops"] or unapplied:
            p.fail(max(unapplied, int(info["drops"])),
                   f"drops={info['drops']} unapplied={unapplied}")
        # Read rounds. Each probe adds two vertices, so the timed read
        # rebuilds the partition, as a read of a live tenant does.
        for i, probe in enumerate(stream.probes[base:]):
            client.send_frames([probe])
            p.events += 1
            want = stream.expected[base + i]
            begin = clock()
            if i < w.query_rounds:
                vertex = stream.queries[base + i]
                members = p.membership(client, vertex)
                p.query_s.append(clock() - begin)
                p.expect(render_membership(members), want, 1,
                         f"read round {i}: MEMBERSHIP({vertex})")
            else:
                reply = client.snapshot()
                p.snapshot_s.append(clock() - begin)
                p.queries += 1
                p.expect(reply, want, stream.events, f"read round {i}: SNAPSHOT")
        p.peak_rss_mib = server.peak_rss_mib()
    finally:
        for client in clients:
            client.close()
        code = server.stop()
    p.lifetime_s = server.lifetime_s
    if code != 0:
        p.fail(1, f"repro serve exited with status {code}")
    if traced:
        p.trace = json.loads(server.trace_out.read_text())
        p.registry = json.loads(server.metrics_out.read_text())
    return p


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(w: W.Workload, passes: List[Pass]) -> Dict[str, float]:
    median = statistics.median
    return {
        "ingest_eps": median(p.ingest_eps for p in passes) if w.rate
        else median(eps for p in passes for eps in p.round_eps),
        "setup_s": median(p.setup_s for p in passes),
        "peak_rss_mib": median(p.peak_rss_mib for p in passes),
        "snapshot_s": median(s for p in passes for s in p.snapshot_s),
        "membership_ms": 1e3 * median(s for p in passes for s in p.query_s),
    }


def per_layer(p: Pass) -> Dict[str, float]:
    """Layer metrics of one traced pass (``trace.overhead_frac`` aside)."""
    layers = p.trace["layers"]
    registry = p.registry

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    def counter(name: str) -> float:
        return registry.get(name, {}).get("value", 0)

    lags = p.trace["ingest_seconds"]
    kernel_events = counter("clusterer.kernel_events")
    fallback = counter("clusterer.kernel_fallback_events")
    out = {
        "codec.decode.us_per_event": 1e6 * layer("codec.decode", "busy_s") / p.events,
        "server.bytes_per_event": counter("serve.bytes_received") / p.events,
        "session.enqueue.wait_s": layer("session.enqueue", "busy_s"),
        "session.queue_lag_p50_s": statistics.median(lags),
        "session.queue_lag_p99_s": _percentile(lags, 99),
        "session.drops": sum(
            metric["value"] for name, metric in registry.items()
            if name.startswith("serve.tenant.") and name.endswith(".drops")
        ),
        "clusterer.apply_many.us_per_event":
            1e6 * layer("clusterer.apply_many", "busy_s") / p.events,
        "clusterer.partition_builds": counter("clusterer.partition_builds"),
        "batchkernel.fallback_frac":
            fallback / (kernel_events + fallback) if kernel_events + fallback else 0.0,
        "reservoir.admit_frac":
            counter("clusterer.admissions") / max(1, counter("clusterer.edge_adds")),
        "persist.bytes_written": counter("checkpoint.bytes_written"),
        "intern.vertices": p.trace["intern_vertices"],
        "loadgen.cpu_frac": p.loadgen_cpu_frac,
        "loadgen.query_count": p.memberships,
        "loadgen.write_lag_p99_ms": 1e3 * _percentile(p.write_lag_s, 99),
    }
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in out or field not in ("calls", "busy_s", "busy_pct"):
            continue
        if field == "busy_pct":
            # Share of the pass's server lifetime spent in the layer.
            out[name] = 100.0 * layer(span, "busy_s") / p.lifetime_s
        else:
            out[name] = layer(span, field)
    return out


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_workload(w: W.Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, cpus: Optional[Set[int]] = None,
                 trace_copy: Optional[Path] = None) -> dict:
    """Run passes of ``w`` while another fits in ``seconds`` (at least
    :data:`MIN_PASSES`, or one untraced/traced pair with ``trace``) with
    the server on ``cpus``; returns the result record. With ``trace``,
    the layer totals of the last traced pass are written to
    ``trace_copy``."""
    stream = W.load(w, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    passes: List[Pass] = []
    traced: List[Pass] = []
    start = clock()
    longest = 0.0
    while True:
        begin = clock()
        passes.append(run_pass(w, stream, workdir, rng, cpus=cpus))
        if trace:
            traced.append(run_pass(w, stream, workdir, rng, traced=True, cpus=cpus))
        longest = max(longest, clock() - begin)
        if (len(passes) >= (1 if trace else MIN_PASSES)
                and clock() - start + longest > seconds):
            break
    every = passes + traced
    if trace:
        rows = [per_layer(p) for p in traced]
        metrics = {name: statistics.median(row[name] for row in rows)
                   for name in rows[0]}
        metrics["trace.overhead_frac"] = 1.0 - (
            statistics.median(p.ingest_eps for p in traced)
            / statistics.median(p.ingest_eps for p in passes)
        )
        catalog = PER_LAYER
        if trace_copy is not None:
            trace_copy.write_text(json.dumps(traced[-1].trace, indent=1) + "\n")
    else:
        metrics = end_to_end(w, passes)
        catalog = END_TO_END
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(every),
        "events_per_pass": stream.events,
        "samples": {
            "write_rounds": sum(len(p.round_eps) for p in passes),
            "memberships": sum(len(p.query_s) for p in passes),
            "snapshots": sum(len(p.snapshot_s) for p in passes),
        },
        "attempted": sum(p.events + p.queries for p in every),
        "failed": sum(p.failed for p in every),
        "problems": [problem for p in every for problem in p.problems],
        "per_pass": [
            {
                "traced": p in traced,
                "ingest_eps": p.ingest_eps,
                "setup_s": p.setup_s,
                "window_s": p.window_s,
                "round_eps": p.round_eps,
                "peak_rss_mib": p.peak_rss_mib,
                "snapshot_s": p.snapshot_s,
                "query_s": p.query_s,
            }
            for p in every
        ],
        "metrics": {
            name: {"value": metrics[name], "unit": catalog[name][0]}
            for name in catalog
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS),
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"measuring time per workload; only {RUN_SECONDS}, "
                             "the run_seconds of BENCHMARK.json, is accepted")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", help="append one JSON line per workload record")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}, the benchmark's run length")

    # A SIGTERM unwinds like an error, so every pass still stops its server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = [args.workload] if args.workload else list(W.WORKLOADS)
    split = cpu_split()
    if split is not None:
        os.sched_setaffinity(0, split[0])
    workdir = W.CACHE_DIR / f"run-{os.getpid()}"
    try:
        records = [
            run_workload(
                W.WORKLOADS[name], args.seed, RUN_SECONDS, bool(args.trace), workdir,
                cpus=split[1] if split else None,
                trace_copy=Path(args.out).with_name(f"trace_{name}.json")
                if args.out else None,
            )
            for name in names
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for record in records:
        for name, metric in record["metrics"].items():
            print(f"{name} {record['workload']} {metric['value']!r} {metric['unit']}")
        for problem in record["problems"]:
            print(f"FAILED {record['workload']}: {problem}", file=sys.stderr)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    if args.out:
        environment = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "pinned": split is not None,
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            for record in records:
                record = dict(record, seconds=RUN_SECONDS, environment=environment)
                handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
