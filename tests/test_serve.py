"""Tests for the streaming clustering service (repro.serve).

Three layers:

* wire primitives — handshake and length-prefix framing round-trips,
  the delta frame decoder;
* protocol robustness — truncated/oversized/corrupt frames and bad
  handshakes are rejected *per connection* while the daemon and other
  tenants keep serving;
* service semantics — concurrent tenants produce partitions (and
  checkpoint bytes) identical to inline runs of the same streams,
  queries are barriers, backpressure isolates a stalled tenant, and
  graceful shutdown writes loadable per-tenant checkpoints.
"""

import asyncio
import gc
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.core import ClustererConfig, StreamingGraphClusterer
from repro.errors import ProtocolError, ServiceError
from repro.obs import default_registry
from repro.persist import load_checkpoint, save_checkpoint
from repro.serve import ClusterService, ServiceClient
from repro.serve.protocol import (
    OP_ERROR,
    OP_EVENTS,
    OP_HELLO,
    OP_OK,
    recv_message,
    render_snapshot,
    send_message,
    valid_tenant_id,
)
from repro.serve.session import TenantSession
from repro.streams import EventColumns, planted_partition, insert_only_stream_raw
from repro.streams.codec import (
    DeltaBatchDecoder,
    FrameEncoder,
    decode_hello,
    encode_hello,
    pack_wire_message,
    split_wire_message,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _config(**overrides):
    defaults = dict(reservoir_capacity=400, strict=False, seed=7)
    defaults.update(overrides)
    return ClustererConfig(**defaults)


def _events(seed=5, n=120, k=4):
    graph = planted_partition(n, k, 0.3, 0.002, seed=seed)
    return insert_only_stream_raw(graph.edges, seed=7)


def _inline_snapshot(config, events):
    clusterer = StreamingGraphClusterer(config)
    clusterer.apply_many(events)
    return clusterer, render_snapshot(clusterer.snapshot())


class _RunningService:
    """A ClusterService on a daemon thread, for blocking test clients."""

    def __init__(self, service):
        self.service = service
        self.exit_code = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_code = self.service.run()

    def __enter__(self):
        self.thread.start()
        assert self.service.started.wait(timeout=15.0), "service never bound"
        return self

    def stop(self, code=0):
        self.service.request_shutdown(code)
        self.thread.join(timeout=15.0)
        assert not self.thread.is_alive(), "service failed to stop"

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()

    @property
    def endpoint(self):
        return self.service.endpoint


class TestWirePrimitives:
    def test_hello_round_trip(self):
        assert decode_hello(encode_hello("tenant-1")) == ("tenant-1", None)
        assert decode_hello(encode_hello("日本")) == ("日本", None)

    def test_hello_kernel_byte_round_trip(self):
        assert decode_hello(encode_hello("t", "scalar")) == ("t", "scalar")
        assert decode_hello(encode_hello("t", "numpy")) == ("t", "numpy")
        with pytest.raises(ValueError, match="kernel"):
            encode_hello("t", "fortran")
        with pytest.raises(ValueError, match="kernel"):
            decode_hello(encode_hello("t") + b"\x07")
        with pytest.raises(ValueError, match="does not match"):
            decode_hello(encode_hello("t") + b"\x00\x01")

    def test_hello_rejects_bad_magic_version_and_truncation(self):
        good = encode_hello("t")
        with pytest.raises(ValueError, match="magic"):
            decode_hello(b"XXXX" + good[4:])
        with pytest.raises(ValueError, match="wire version"):
            decode_hello(good[:4] + b"\xff" + good[5:])
        with pytest.raises(ValueError, match="does not match"):
            decode_hello(good[:-1])
        with pytest.raises(ValueError, match="truncated"):
            decode_hello(good[:5])

    def test_pack_and_split(self):
        message = pack_wire_message(b"E", b"payload")
        assert message[:4] == (8).to_bytes(4, "little")
        assert split_wire_message(message[4:]) == (b"E", b"payload")
        with pytest.raises(ValueError, match="single byte"):
            pack_wire_message(b"EE")
        with pytest.raises(ValueError, match="empty body"):
            split_wire_message(b"")

    def test_delta_batch_decoder_round_trip(self):
        events = _events()
        encoder = FrameEncoder()
        decoder = DeltaBatchDecoder()
        decoded = []
        for frame in encoder.encode_batches(events, max_bytes=4096):
            batch = decoder.decode(frame)
            # Large edge-only frames decode to columns.
            if type(batch) is EventColumns:
                batch = batch.to_events()
            decoded.extend(batch)
        assert decoded == list(events)
        assert decoder.table_size == encoder.table_size

    def test_delta_batch_decoder_rejects_corruption(self):
        frame = FrameEncoder().encode_batch(_events()[:10])
        with pytest.raises(ValueError):
            DeltaBatchDecoder().decode(frame[:-3])
        with pytest.raises(ValueError, match="delta codec version"):
            DeltaBatchDecoder().decode(b"\x07" + frame[1:])

    def test_tenant_id_validation(self):
        assert valid_tenant_id("alpha-1.B_2")
        assert not valid_tenant_id("")
        assert not valid_tenant_id(".hidden")
        assert not valid_tenant_id("has space")
        assert not valid_tenant_id("slash/y")
        assert not valid_tenant_id("x" * 200)


class TestProtocolRobustness:
    """Bad clients lose their connection; nobody else notices."""

    def _raw_socket(self, endpoint):
        sock = socket.create_connection(endpoint, timeout=10.0)
        sock.settimeout(10.0)
        return sock

    def test_oversized_frame_rejected_without_killing_daemon(self):
        service = ClusterService(_config(), max_frame_bytes=1024)
        with _RunningService(service) as running:
            sock = self._raw_socket(running.endpoint)
            send_message(sock, OP_HELLO, encode_hello("big"))
            assert recv_message(sock)[0] == OP_OK
            # Declare a body far over the 1 KiB ceiling.
            sock.sendall((1 << 20).to_bytes(4, "little"))
            op, payload = recv_message(sock)
            assert op == OP_ERROR
            assert b"oversized" in bytes(payload)
            sock.close()
            # The daemon is fine: a fresh client still gets service.
            with ServiceClient(running.endpoint, tenant="big") as client:
                client.send_events(_events()[:50])
                assert client.metrics()["events"] == 50

    def test_truncated_message_closes_only_that_connection(self):
        service = ClusterService(_config())
        with _RunningService(service) as running:
            sock = self._raw_socket(running.endpoint)
            send_message(sock, OP_HELLO, encode_hello("trunc"))
            assert recv_message(sock)[0] == OP_OK
            # Promise 100 body bytes, deliver 10, hang up.
            sock.sendall((100).to_bytes(4, "little") + b"x" * 10)
            sock.close()
            with ServiceClient(running.endpoint, tenant="trunc") as client:
                client.send_events(_events()[:20])
                assert client.metrics()["events"] == 20

    def test_corrupt_event_frame_rejected(self):
        service = ClusterService(_config())
        with _RunningService(service) as running:
            sock = self._raw_socket(running.endpoint)
            send_message(sock, OP_HELLO, encode_hello("corrupt"))
            assert recv_message(sock)[0] == OP_OK
            send_message(sock, OP_EVENTS, b"\xff\xffgarbage")
            op, payload = recv_message(sock)
            assert op == OP_ERROR
            assert b"corrupt event frame" in bytes(payload)
            sock.close()

    def test_handshake_required_first(self):
        service = ClusterService(_config())
        with _RunningService(service) as running:
            sock = self._raw_socket(running.endpoint)
            send_message(sock, OP_EVENTS, b"")
            op, payload = recv_message(sock)
            assert op == OP_ERROR
            assert b"HELLO" in bytes(payload)
            sock.close()

    def test_bad_tenant_id_refused(self):
        service = ClusterService(_config())
        with _RunningService(service) as running:
            with pytest.raises(ServiceError, match="invalid tenant id"):
                ServiceClient(running.endpoint, tenant="no/slash")

    def test_admission_control_max_tenants(self):
        service = ClusterService(_config(), max_tenants=1)
        with _RunningService(service) as running:
            with ServiceClient(running.endpoint, tenant="first") as first:
                with pytest.raises(ServiceError, match="tenant limit"):
                    ServiceClient(running.endpoint, tenant="second")
                # The admitted tenant is unaffected, and a second
                # connection to the *same* tenant is not a new admission.
                first.send_events(_events()[:30])
                with ServiceClient(running.endpoint, tenant="first") as again:
                    assert again.metrics()["events"] == 30

    def test_client_protocol_error_type(self):
        # recv_message on a socket the server already closed surfaces a
        # ServiceError via the client helpers, not a raw OSError.
        service = ClusterService(_config())
        with _RunningService(service) as running:
            client = ServiceClient(running.endpoint, tenant="gone")
            client._send(OP_EVENTS, b"\x00garbage")  # draws ERROR + close
            with pytest.raises((ServiceError, ProtocolError)):
                client.snapshot()
            client._sock.close()
            client._sock = None


class TestServiceSemantics:
    def test_two_concurrent_tenants_match_inline_runs(self, tmp_path):
        config = _config()
        streams = {
            "alpha": _events(seed=5),
            "beta": _events(seed=11, n=90, k=3),
        }
        inline = {}
        for tenant, events in streams.items():
            clusterer, snapshot = _inline_snapshot(config, events)
            inline[tenant] = (clusterer, snapshot)

        service = ClusterService(
            config, checkpoint_dir=str(tmp_path / "ckpt")
        )
        served = {}
        errors = []

        def _stream(tenant):
            try:
                with ServiceClient(service.endpoint, tenant=tenant) as client:
                    # Interleave in small frames so both tenants are
                    # genuinely concurrent on the server.
                    events = streams[tenant]
                    for start in range(0, len(events), 37):
                        client.send_events(events[start : start + 37])
                    served[tenant] = client.snapshot()
            except Exception as error:  # noqa: BLE001 - report in main thread
                errors.append((tenant, error))

        with _RunningService(service) as running:
            threads = [
                threading.Thread(target=_stream, args=(tenant,))
                for tenant in streams
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not errors, errors
            for tenant, (_, snapshot) in inline.items():
                assert served[tenant] == snapshot, f"tenant {tenant} diverged"
            running.stop()

        # Graceful shutdown wrote one loadable checkpoint per tenant,
        # byte-identical to a checkpoint of the inline run.
        for tenant, events in streams.items():
            path = tmp_path / "ckpt" / f"{tenant}.rpk"
            assert path.exists()
            restored = load_checkpoint(path)
            assert restored.position == len(events)
            assert (
                render_snapshot(restored.clusterer.snapshot())
                == inline[tenant][1]
            )
            reference = tmp_path / f"{tenant}.inline.rpk"
            save_checkpoint(
                inline[tenant][0], reference, position=len(events)
            )
            assert path.read_bytes() == reference.read_bytes()

    def test_mid_stream_snapshot_is_a_barrier(self):
        config = _config()
        events = _events()
        half = len(events) // 2
        clusterer = StreamingGraphClusterer(config)
        clusterer.apply_many(events[:half])
        first_expected = render_snapshot(clusterer.snapshot())
        clusterer.apply_many(events[half:])
        final_expected = render_snapshot(clusterer.snapshot())

        service = ClusterService(config)
        with _RunningService(service) as running:
            with ServiceClient(running.endpoint, tenant="mid") as client:
                client.send_events(events[:half])
                assert client.snapshot() == first_expected
                client.send_events(events[half:])
                assert client.snapshot() == final_expected

    def test_membership_and_metrics_queries(self):
        config = _config()
        events = _events()
        clusterer = StreamingGraphClusterer(config)
        clusterer.apply_many(events)
        probe = events[0][1]
        expected_members = clusterer.cluster_members(probe)

        service = ClusterService(config)
        with _RunningService(service) as running:
            with ServiceClient(running.endpoint, tenant="q") as client:
                client.send_events(events)
                assert client.membership(probe) == expected_members
                metrics = client.metrics()
                assert metrics["tenant"] == "q"
                assert metrics["events"] == len(events)
                assert metrics["position"] == len(events)
                assert metrics["queue_lag_events"] == 0
                assert metrics["drops"] == 0
                assert metrics["events_per_second"] > 0
                assert metrics["p99_ingest_seconds"] is None or (
                    metrics["p99_ingest_seconds"] > 0
                )
                assert metrics["reservoir_size"] == clusterer.reservoir_size

    def test_metrics_builds_no_partition(self):
        config = _config(reservoir_capacity=100)
        events = _events()
        half = len(events) // 2
        clusterer, _ = _inline_snapshot(config, events)

        service = ClusterService(config)
        with _RunningService(service) as running:
            with ServiceClient(running.endpoint, tenant="m") as client:
                client.send_events(events[:half])
                client.metrics()
                tenant = service.tenants["m"].clusterer
                builds = tenant.partition_builds
                client.send_events(events[half:])
                metrics = client.metrics()
                assert tenant.partition_builds == builds
                assert metrics["clusters"] == clusterer.snapshot().num_clusters > 1

    def test_stalled_tenant_does_not_degrade_others(self):
        # Tenant drains are slowed and queues are shallow: "slow" fills
        # its queue and is backpressured while "fast" still completes
        # promptly and correctly.
        config = _config()
        events = _events()
        _, expected = _inline_snapshot(config, events)
        service = ClusterService(
            config, queue_depth=2, ingest_delay=0.05
        )
        with _RunningService(service) as running:
            slow_done = threading.Event()
            lag_seen = []

            def _slow():
                with ServiceClient(running.endpoint, tenant="slow") as client:
                    for start in range(0, len(events), 10):
                        client.send_events(events[start : start + 10])
                    lag_seen.append(client.metrics()["queue_lag_events"])
                slow_done.set()

            slow_thread = threading.Thread(target=_slow)
            slow_thread.start()
            started = time.monotonic()
            with ServiceClient(running.endpoint, tenant="fast") as client:
                client.send_events(events)
                snapshot = client.snapshot()
            fast_elapsed = time.monotonic() - started
            assert snapshot == expected
            # The fast tenant's barrier answered while the slow tenant
            # was still grinding through its throttled queue.
            assert not slow_done.is_set() or fast_elapsed < 2.0
            slow_thread.join(timeout=120.0)
            assert slow_done.is_set()
            # The slow tenant eventually applied everything too (its
            # metrics call was a barrier behind all of its events).
            assert lag_seen == [0]

    def test_blocked_tenants_beyond_executor_size_do_not_stall_others(
        self, monkeypatch
    ):
        # More tenants block in apply than asyncio's default executor
        # has threads; an idle tenant's barrier must still answer well
        # within one blocking period.
        block = 1.0
        executor_threads = min(32, (os.cpu_count() or 1) + 4)
        slow_tenants = executor_threads + 2
        blocking = threading.Semaphore(0)
        apply = TenantSession._apply

        def _apply(self, events):
            if self.tenant_id.startswith("slow"):
                blocking.release()
                time.sleep(block)
            apply(self, events)

        monkeypatch.setattr(TenantSession, "_apply", _apply)
        events = _events()
        service = ClusterService(_config())
        with _RunningService(service) as running:
            for index in range(slow_tenants):
                with ServiceClient(
                    running.endpoint, tenant=f"slow{index}"
                ) as client:
                    client.send_events(events[:10])
            for _ in range(executor_threads):
                assert blocking.acquire(timeout=30.0), "slow applies never began"
            with ServiceClient(running.endpoint, tenant="idle") as client:
                started = time.monotonic()
                client.send_events(events[:1])
                assert client.metrics()["events"] == 1
                elapsed = time.monotonic() - started
        assert elapsed < block / 2, f"idle tenant waited {elapsed:.3f} s"

    def test_cancelled_enqueue_leaves_no_queue_lag(self):
        # A reader blocked on a full queue and then cancelled (as
        # shutdown cancels readers) must not leave its batch counted.
        # batch_size=1 keeps the drain from merging the second batch
        # into the first, which would free the third one's slot.
        events = _events()

        async def _scenario():
            session = TenantSession(
                "cancelled-enqueue", _config(), queue_depth=1,
                batch_size=1, ingest_delay=0.2,
            )
            await session.start()
            await session.enqueue_events(events[:1])  # drain holds it
            await session.enqueue_events(events[1:2])  # fills the queue
            blocked = asyncio.ensure_future(session.enqueue_events(events[2:3]))
            await asyncio.sleep(0.05)
            assert not blocked.done()
            blocked.cancel()
            with pytest.raises(asyncio.CancelledError):
                await blocked
            await session.close(checkpoint=False)
            return session

        session = asyncio.run(_scenario())
        assert session.events_applied == 2
        assert session.pending_events == 0
        assert session.metrics()["queue_lag_events"] == 0
        gauge = default_registry().gauge(
            "serve.tenant.cancelled-enqueue.queue_lag_events"
        )
        assert gauge.value == 0

    def test_concurrent_producers_on_one_tenant_account_every_event(self):
        # Several connections feed one tenant through a two-slot queue
        # while threads switch as often as they can; the loop and the
        # drain thread must still account every event exactly once.
        events = _events()
        producers = 4
        service = ClusterService(_config(), queue_depth=2, batch_size=64)
        errors = []

        def _produce(part):
            try:
                with ServiceClient(
                    service.endpoint, tenant="shared", batch_size=16
                ) as client:
                    client.send_events(events[part::producers])
                    client.metrics()
            except Exception as error:  # noqa: BLE001 - report in main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _RunningService(service) as running:
                threads = [
                    threading.Thread(target=_produce, args=(part,))
                    for part in range(producers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                with ServiceClient(running.endpoint, tenant="shared") as client:
                    metrics = client.metrics()
        finally:
            sys.setswitchinterval(interval)
        assert metrics["events"] == len(events)
        assert metrics["drops"] == 0
        assert metrics["queue_lag_events"] == 0

    def test_zero_queue_depth_is_refused(self):
        with pytest.raises(ValueError, match="queue_depth"):
            TenantSession("zero", _config(), queue_depth=0)

    def test_resume_tenant_across_service_restarts(self, tmp_path):
        config = _config()
        events = _events()
        half = len(events) // 2
        _, expected = _inline_snapshot(config, events)
        ckpt_dir = str(tmp_path / "ckpt")

        service = ClusterService(config, checkpoint_dir=ckpt_dir)
        with _RunningService(service) as running:
            with ServiceClient(running.endpoint, tenant="durable") as client:
                client.send_events(events[:half])

        service = ClusterService(
            _config(), checkpoint_dir=ckpt_dir, resume=True
        )
        with _RunningService(service) as running:
            with ServiceClient(running.endpoint, tenant="durable") as client:
                assert client.metrics()["position"] == half
                client.send_events(events[half:])
                assert client.snapshot() == expected

    def test_resume_refuses_conflicting_service_config(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpt")
        service = ClusterService(_config(), checkpoint_dir=ckpt_dir)
        with _RunningService(service) as running:
            with ServiceClient(running.endpoint, tenant="strict") as client:
                client.send_events(_events()[:20])

        service = ClusterService(
            _config(reservoir_capacity=999), checkpoint_dir=ckpt_dir,
            resume=True,
        )
        with _RunningService(service) as running:
            with pytest.raises(ServiceError, match="conflicting"):
                ServiceClient(running.endpoint, tenant="strict")

    def test_unix_socket_endpoint(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        service = ClusterService(_config(), path=path)
        with _RunningService(service) as running:
            assert running.endpoint == path
            with ServiceClient(path, tenant="ux") as client:
                client.send_events(_events()[:40])
                assert client.metrics()["events"] == 40
        assert not os.path.exists(path)  # cleaned up at shutdown


class TestServeCli:
    def test_send_cli_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        edges = tmp_path / "graph.edges"
        assert main([
            "generate", "--sbm", "100", "4", "0.3", "0.002",
            "--seed", "5", "--out", str(edges),
        ]) == 0
        inline_labels = tmp_path / "inline.labels"
        assert main([
            "cluster", str(edges), "--capacity", "400",
            "--seed", "7", "--out", str(inline_labels),
        ]) == 0
        capsys.readouterr()

        config = ClustererConfig(reservoir_capacity=400, strict=False, seed=7)
        service = ClusterService(config)
        with _RunningService(service) as running:
            host, port = running.endpoint
            served_labels = tmp_path / "served.labels"
            metrics_path = tmp_path / "send.metrics.json"
            code = main([
                "send", str(edges), "--tenant", "cli",
                "--host", host, "--port", str(port), "--seed", "7",
                "--out", str(served_labels),
                "--metrics-out", str(metrics_path),
            ])
            assert code == 0
            assert "sent" in capsys.readouterr().err
            assert served_labels.read_bytes() == inline_labels.read_bytes()
            import json

            metrics = json.loads(metrics_path.read_text())
            assert metrics["tenant"] == "cli"
            assert metrics["events"] > 0

    def test_send_refuses_unreachable_service(self, tmp_path, capsys):
        from repro.cli import main

        edges = tmp_path / "graph.edges"
        edges.write_text("1 2\n2 3\n")
        code = main([
            "send", str(edges), "--tenant", "x",
            "--unix", str(tmp_path / "nope.sock"),
        ])
        assert code == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_failed_unix_connect_closes_its_socket(self, tmp_path):
        """The socket of a failed unix connect is closed, not left for
        the garbage collector to report."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ServiceError, match="cannot connect"):
                ServiceClient(str(tmp_path / "nope.sock"), tenant="x")
            gc.collect()
        leaks = [str(w.message) for w in caught if w.category is ResourceWarning]
        assert leaks == []

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    def test_serve_sigint_exits_130_with_loadable_checkpoints(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        ckpt_dir = tmp_path / "ckpt"
        env = dict(os.environ, PYTHONPATH=SRC)
        with subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--capacity", "400", "--seed", "7",
                "--unix", sock, "--checkpoint-dir", str(ckpt_dir),
            ],
            env=env, stderr=subprocess.PIPE, text=True,
        ) as proc:
            try:
                deadline = time.monotonic() + 30.0
                while not os.path.exists(sock):
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline, "daemon never bound"
                    time.sleep(0.05)
                events = _events()
                with ServiceClient(sock, tenant="alpha") as client:
                    client.send_events(events)
                    # Barrier: everything is applied before the signal.
                    assert client.metrics()["events"] == len(events)
                proc.send_signal(signal.SIGINT)
                code = proc.wait(timeout=30.0)
            finally:
                if proc.poll() is None:
                    proc.kill()
            stderr = proc.stderr.read()
        assert code == 130, stderr
        assert "Traceback" not in stderr
        assert "interrupted" in stderr
        restored = load_checkpoint(ckpt_dir / "alpha.rpk")
        assert restored.position == len(events)
        _, expected = _inline_snapshot(_config(), events)
        assert render_snapshot(restored.clusterer.snapshot()) == expected
