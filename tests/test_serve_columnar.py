"""Columnar wire-path tests for the streaming service.

The served determinism/equivalence contract under test:

* a tenant streamed as codec-v3 columnar frames under ``--kernel
  numpy`` yields a partition that is a deterministic function of
  (seed, stream, frame boundaries) — two identical served runs agree,
  and both equal an inline ``kernel="numpy"`` run applied at the same
  batch boundaries;
* a scalar tenant stays *byte-identical* to the inline scalar run no
  matter how the stream is framed or coalesced (split invariance);
* the drain loop coalesces adjacent small frames up to the server's
  batch size, visibly in ``coalesced_batches``, without changing the
  scalar result;
* kernel conflicts — against a live session or a resumed checkpoint —
  are refused at HELLO.
"""

import pytest

from repro.core import StreamingGraphClusterer
from repro.errors import ServiceError
from repro.obs import metrics as _obs
from repro.serve import ClusterService, ServiceClient
from repro.serve.protocol import OP_OK, recv_message, render_snapshot, send_message
from repro.streams import insert_delete_stream, planted_partition, insert_only_stream_raw
from repro.streams.codec import FrameEncoder, encode_hello
from repro.streams.events import EventColumns

from tests.test_serve import OP_ERROR, OP_EVENTS, OP_HELLO, _RunningService, _config

BATCH = 256


def _columns(seed=5, n=160, k=4, batch=BATCH):
    graph = planted_partition(n, k, 0.3, 0.002, seed=seed)
    events = insert_only_stream_raw(graph.edges, seed=7)
    us = [e[1] for e in events]
    vs = [e[2] for e in events]
    return [
        EventColumns(us=us[s : s + batch], vs=vs[s : s + batch])
        for s in range(0, len(us), batch)
    ]


def _inline_snapshot(config, batches):
    clusterer = StreamingGraphClusterer(config)
    for batch in batches:
        clusterer.apply_many(batch)
    return render_snapshot(clusterer.snapshot())


class TestServedColumnar:
    def test_served_numpy_deterministic_and_matches_inline(self):
        batches = _columns()
        service = ClusterService(_config(), batch_size=BATCH)
        snapshots = []
        with _RunningService(service) as running:
            for tenant in ("np-a", "np-b"):
                with ServiceClient(
                    running.endpoint,
                    tenant=tenant,
                    kernel="numpy",
                    batch_size=BATCH,
                ) as client:
                    assert client.send_columns(batches) == sum(
                        len(b) for b in batches
                    )
                    snapshots.append(client.snapshot())
        assert snapshots[0] == snapshots[1]
        inline = _inline_snapshot(_config(kernel="numpy"), batches)
        assert snapshots[0] == inline

    def test_served_numpy_deletions_match_inline(self):
        # Batches with deletions travel as v2 frames, which the server
        # decodes to kind columns; the kernel applies the deletions in
        # place, and the state equals an inline run at the same boundaries.
        graph = planted_partition(160, 4, 0.3, 0.002, seed=5)
        events = insert_delete_stream(graph.edges, churn=0.3, seed=3)
        batches = []
        for s in range(0, len(events), BATCH):
            chunk = events[s : s + BATCH]
            batches.append(EventColumns(
                us=[e.u for e in chunk],
                vs=[e.v for e in chunk],
                kinds=[e.kind for e in chunk],
            ))
        service = ClusterService(_config(), batch_size=BATCH)
        with _RunningService(service) as running:
            with ServiceClient(
                running.endpoint, tenant="churn", kernel="numpy", batch_size=BATCH
            ) as client:
                client.send_columns(batches)
                served = client.snapshot()
                clusterer = service._sessions["churn"].clusterer
                assert clusterer.stats.sample_deletions > 0
                assert clusterer.kernel_fallback_events == 0
        assert served == _inline_snapshot(_config(kernel="numpy"), batches)

    def test_served_scalar_byte_identical_to_inline(self):
        batches = _columns()
        service = ClusterService(_config(), batch_size=BATCH)
        with _RunningService(service) as running:
            with ServiceClient(
                running.endpoint, tenant="sc", batch_size=BATCH
            ) as client:
                client.send_columns(batches)
                served = client.snapshot()
        assert served == _inline_snapshot(_config(), batches)

    def test_columnar_frames_counted(self):
        batches = _columns()
        service = ClusterService(_config(), batch_size=BATCH)
        counter = _obs.default_registry().counter("serve.codec_columnar_frames")
        before = counter.value
        with _RunningService(service) as running:
            with ServiceClient(
                running.endpoint, tenant="counted", batch_size=BATCH
            ) as client:
                client.send_columns(batches)
                client.metrics()  # barrier: all frames are through
        assert counter.value - before >= len(batches)

    def test_small_frames_coalesce_without_changing_result(self):
        # 16-event client frames against a 256-event server batch: the
        # drain loop merges adjacent queued frames, the merge shows up
        # in the metrics, and the scalar result is unchanged (split
        # invariance makes coalescing safe).
        small = _columns(batch=16)
        service = ClusterService(_config(), batch_size=BATCH, queue_depth=512)
        with _RunningService(service) as running:
            with ServiceClient(
                running.endpoint, tenant="tiny", batch_size=16
            ) as client:
                client.send_columns(small)
                metrics = client.metrics()
                served = client.snapshot()
        assert metrics["coalesced_batches"] > 0
        assert served == _inline_snapshot(_config(), small)

    def test_session_records_requested_kernel(self):
        service = ClusterService(_config(), batch_size=BATCH)
        with _RunningService(service) as running:
            with ServiceClient(
                running.endpoint, tenant="pinned", kernel="numpy"
            ) as client:
                client.metrics()
                session = service._sessions["pinned"]
                assert session.config.kernel == "numpy"
                assert session.clusterer.config.kernel == "numpy"

    def test_live_kernel_conflict_refused(self):
        service = ClusterService(_config(), batch_size=BATCH)
        with _RunningService(service) as running:
            with ServiceClient(running.endpoint, tenant="t", kernel="numpy"):
                with pytest.raises(ServiceError, match="kernel"):
                    ServiceClient(running.endpoint, tenant="t", kernel="scalar")
                # Same kernel (or no preference) is still admitted.
                with ServiceClient(
                    running.endpoint, tenant="t", kernel="numpy"
                ) as again:
                    again.metrics()
                with ServiceClient(running.endpoint, tenant="t") as agnostic:
                    agnostic.metrics()

    def test_resume_kernel_conflict_refused(self, tmp_path):
        batches = _columns(n=60)
        checkpoints = str(tmp_path)
        service = ClusterService(
            _config(), batch_size=BATCH, checkpoint_dir=checkpoints
        )
        with _RunningService(service) as running:
            with ServiceClient(
                running.endpoint, tenant="durable", kernel="numpy"
            ) as client:
                client.send_columns(batches)
                client.metrics()
        # The final checkpoint recorded kernel="numpy"; a resumed
        # session under a conflicting kernel is refused at HELLO.
        resumed = ClusterService(
            _config(), batch_size=BATCH, checkpoint_dir=checkpoints, resume=True
        )
        with _RunningService(resumed) as running:
            with pytest.raises(ServiceError, match="kernel"):
                ServiceClient(running.endpoint, tenant="durable", kernel="scalar")
            with ServiceClient(
                running.endpoint, tenant="durable", kernel="numpy"
            ) as client:
                assert client.metrics()["position"] == sum(
                    len(b) for b in batches
                )

    def test_corrupt_columnar_frame_rejected_connection_only(self):
        import socket as socket_module

        service = ClusterService(_config(), batch_size=BATCH)
        with _RunningService(service) as running:
            sock = socket_module.create_connection(running.endpoint, timeout=10.0)
            sock.settimeout(10.0)
            send_message(sock, OP_HELLO, encode_hello("surgeon"))
            assert recv_message(sock)[0] == OP_OK
            (frame,) = FrameEncoder().encode_columns([1, 2], [2, 3])
            mangled = bytearray(frame)
            mangled[-1] = 0xFF  # v-index far past the vertex table
            send_message(sock, OP_EVENTS, bytes(mangled))
            op, payload = recv_message(sock)
            assert op == OP_ERROR
            assert b"corrupt event frame" in bytes(payload)
            sock.close()
            # The daemon survives; a fresh client still gets service.
            with ServiceClient(running.endpoint, tenant="surgeon") as client:
                client.send_columns(_columns(n=40))
                assert client.metrics()["events"] > 0
