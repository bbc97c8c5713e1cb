"""E14 — service-loop overhead on the columnar wire path (extension).

The streaming service (`repro.serve`) puts a socket, a wire codec and a
per-tenant queue between the producer and the clusterer. The number
that matters operationally is the *tax*: events/sec through one socket
tenant versus the same stream applied inline with the same kernel and
the same batch boundaries. With codec-v3 columnar frames the wire path
is frame-to-kernel — `np.frombuffer` straight into the batch kernel —
so the tax is asserted, not just observed: ≤ 20% per kernel, and the
served numpy kernel at least 2.5x the served scalar kernel.

Methodology (see docs/performance.md):

* **Paired A/B.** Inline and served runs of the same kernel are
  interleaved and order-balanced (A/B then B/A), best-of-3 each, in one
  process, so machine drift hits both sides equally.
* **Pre-encoded frames.** The stream is encoded into wire frames once,
  outside every timed region, and replayed verbatim per run
  (`ServiceClient.send_frames`). Client-side encoding shares the GIL
  with the server in a same-process benchmark, so timing it in-band
  would charge the server for producer work that a deployment runs on
  another machine; it is measured separately as the `client_encode`
  row.
* **Frame = batch.** Frames carry exactly ``BATCH`` events (asserted),
  matching the server's ``--batch-size``, so the coalescer never moves
  a boundary and the served numpy partition is deterministic and equal
  to the inline numpy run at the same boundaries. Every served tenant's
  snapshot is asserted against the inline snapshot (outside the timed
  region — snapshot rendering is not ingest).

Expected shape: the scalar kernel pays mostly for its own per-event
apply loop, so the wire adds a modest fraction; the numpy kernel is
fast enough that only the (vectorized) decode and queue hops are left
to pay, and the tax drops to single digits. Concurrent tenants each
have a drain thread, but the threads share one GIL, so aggregate
throughput saturates rather than scales.
"""

import gc
import os
import tempfile
import threading

from bench_common import finish, timed
from repro.bench import ExperimentResult
from repro.core import ClustererConfig, StreamingGraphClusterer
from repro.datasets import load_dataset
from repro.serve import ClusterService, ServiceClient
from repro.serve.protocol import DEFAULT_MAX_WIRE_BYTES, render_snapshot
from repro.streams import insert_only_columns
from repro.streams.codec import FrameEncoder

CAPACITY = 5000
BATCH = 8192
REPS = 3
KERNELS = ("scalar", "numpy")
TENANT_COUNTS = (2, 4)

#: Asserted floors — the E14 gate. Regressions on the wire path fail
#: the benchmark run rather than just shifting a number in the JSON.
MAX_TAX_PCT = 20.0
MIN_SERVED_NUMPY_SPEEDUP = 2.5


def _config(kernel: str = "scalar") -> ClustererConfig:
    return ClustererConfig(
        reservoir_capacity=CAPACITY,
        track_graph=False,
        strict=False,
        seed=14,
        kernel=kernel,
    )


def _inline_run(batches, kernel: str):
    """Apply the column batches inline; returns (clusterer, seconds)."""
    clusterer = StreamingGraphClusterer(_config(kernel))

    def run():
        for batch in batches:
            clusterer.apply_many(batch)

    _, elapsed = timed(run)
    return clusterer, elapsed


def _served_run(
    frames, kernel: str, sock_path: str, *, tenants: int = 1, expected=None
) -> float:
    """Replay the pre-encoded frames as ``tenants`` concurrent tenants
    against a fresh service; returns elapsed seconds for send + barrier.

    The metrics query is the barrier (it reflects everything sent
    before it); snapshot equivalence against ``expected`` is asserted
    after the clock stops, through a fresh connection per tenant.
    """
    service = ClusterService(_config(), path=sock_path, batch_size=BATCH)
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    assert service.started.wait(timeout=30.0)

    def stream(tenant: str) -> None:
        with ServiceClient(
            sock_path, tenant=tenant, kernel=kernel, batch_size=BATCH
        ) as client:
            client.send_frames(frames)
            client.metrics()  # barrier: every frame is applied

    workers = [
        threading.Thread(target=stream, args=(f"t{i}",))
        for i in range(tenants)
    ]
    _, elapsed = timed(lambda: [
        [w.start() for w in workers],
        [w.join() for w in workers],
    ])
    if expected is not None:
        for i in range(tenants):
            with ServiceClient(sock_path, tenant=f"t{i}") as client:
                assert client.snapshot() == expected, f"tenant t{i} diverged"
    service.request_shutdown(0)
    thread.join(timeout=30.0)
    return elapsed


def test_e14_serve(benchmark):
    dataset = load_dataset("lj_like", seed=14)
    batches = list(insert_only_columns(dataset.edges, BATCH, seed=14))
    num_events = sum(len(batch) for batch in batches)
    result = ExperimentResult(
        "e14_serve",
        f"columnar wire-path tax vs inline ({num_events} lj_like events, "
        f"batch {BATCH}, unix socket, paired A/B best-of-{REPS})",
    )

    # Encode once, outside every timed region (rationale in the module
    # docstring); the one-frame-per-batch invariant keeps the server's
    # coalescer from ever moving a batch boundary.
    def encode():
        encoder = FrameEncoder()
        frames = []
        for batch in batches:
            frames.extend(
                encoder.encode_columns(
                    batch.us, batch.vs, max_bytes=DEFAULT_MAX_WIRE_BYTES - 1
                )
            )
        return frames

    frames, encode_s = timed(encode)
    assert len(frames) == len(batches), "frame/batch boundary mismatch"
    result.rows.append({
        "mode": "client_encode", "kernel": "-", "tenants": 1,
        "events_per_s": round(num_events / encode_s),
        "aggregate_events_per_s": round(num_events / encode_s),
        "tax_pct": 0.0,
    })

    inline_eps = {}
    served_eps = {}
    tax = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kernel in KERNELS:
            # Untimed warmup also yields the equivalence reference.
            reference, _ = _inline_run(batches, kernel)
            expected = render_snapshot(reference.snapshot())

            inline_best = None
            served_best = None
            for rep in range(REPS):
                gc.collect()
                sock = os.path.join(tmp, f"{kernel}{rep}.sock")
                inline_first = rep % 2 == 0  # order-balanced pairs
                for side in (0, 1):
                    if (side == 0) == inline_first:
                        _, elapsed = _inline_run(batches, kernel)
                        inline_best = (
                            elapsed if inline_best is None
                            else min(inline_best, elapsed)
                        )
                    else:
                        elapsed = _served_run(
                            frames, kernel, sock, expected=expected
                        )
                        served_best = (
                            elapsed if served_best is None
                            else min(served_best, elapsed)
                        )

            inline_eps[kernel] = num_events / inline_best
            served_eps[kernel] = num_events / served_best
            tax[kernel] = 100.0 * (1.0 - served_eps[kernel] / inline_eps[kernel])
            result.rows.append({
                "mode": "inline", "kernel": kernel, "tenants": 1,
                "events_per_s": round(inline_eps[kernel]),
                "aggregate_events_per_s": round(inline_eps[kernel]),
                "tax_pct": 0.0,
            })
            result.rows.append({
                "mode": "served", "kernel": kernel, "tenants": 1,
                "events_per_s": round(served_eps[kernel]),
                "aggregate_events_per_s": round(served_eps[kernel]),
                "tax_pct": round(tax[kernel], 1),
            })

        # Aggregate scaling under the shared GIL (numpy kernel —
        # the wire path's steady-state deployment shape).
        for tenants in TENANT_COUNTS:
            sock = os.path.join(tmp, f"multi{tenants}.sock")
            elapsed = _served_run(
                frames, "numpy", sock, tenants=tenants, expected=None
            )
            per_tenant = num_events / elapsed
            result.rows.append({
                "mode": "served", "kernel": "numpy", "tenants": tenants,
                "events_per_s": round(per_tenant),
                "aggregate_events_per_s": round(tenants * per_tenant),
                "tax_pct": round(
                    100.0 * (1.0 - per_tenant / inline_eps["numpy"]), 1
                ),
            })

        # The pytest-benchmark row: the steady-state served numpy loop.
        sock = os.path.join(tmp, "bench_loop.sock")
        benchmark.pedantic(
            lambda: _served_run(frames, "numpy", sock),
            rounds=1, iterations=1,
        )

    # The E14 gate.
    for kernel in KERNELS:
        assert tax[kernel] <= MAX_TAX_PCT, (
            f"single-tenant serve tax for {kernel} kernel is "
            f"{tax[kernel]:.1f}% (floor: {MAX_TAX_PCT}%)"
        )
    speedup = served_eps["numpy"] / served_eps["scalar"]
    assert speedup >= MIN_SERVED_NUMPY_SPEEDUP, (
        f"served numpy is only {speedup:.2f}x served scalar "
        f"(floor: {MIN_SERVED_NUMPY_SPEEDUP}x at batch {BATCH})"
    )

    finish(result)
