"""The streaming clustering service daemon.

:class:`ClusterService` is an asyncio socket server (TCP or unix
domain) that accepts length-prefixed codec-v2 (tuple) and codec-v3
(columnar) event frames from many concurrent clients and multiplexes
them onto per-tenant clusterer sessions (:mod:`repro.serve.session`). It is the wire-protocol
promotion of the multiprocess pipeline: same frames, same barrier
semantics, but the producers live in other processes on other machines.

Operational contract
--------------------
* **Admission control** — the handshake names a tenant; a new tenant is
  refused once ``max_tenants`` sessions exist, and any message longer
  than ``max_frame_bytes`` is refused before it is read.
* **Backpressure** — each tenant's ingest queue is bounded; when it
  fills, the server stops reading that tenant's sockets and TCP flow
  control reaches the producer. Slow consumers (clients not reading
  replies) block only their own connection's writer.
* **Isolation** — protocol violations (truncated/oversized/corrupt
  frames, bad handshakes) draw an ``ERROR`` reply and close that one
  connection. The daemon and every other tenant keep running.
* **Graceful shutdown** — SIGINT/SIGTERM stop accepting, cancel the
  socket readers, drain every tenant queue to completion, write one
  checkpoint per tenant through :mod:`repro.persist`, and reap pipeline
  workers. ``repro serve`` exits 130 on SIGINT (the conventional
  ``128 + SIGINT``) and 0 on SIGTERM.

The blocking client for this protocol is
:class:`repro.serve.client.ServiceClient`; the CLI front ends are
``repro serve`` and ``repro send`` (see ``docs/service.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
from typing import Dict, Optional, Set, Tuple, Union

from repro.core.config import ClustererConfig
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.obs import metrics as _obs
from repro.serve.protocol import (
    OP_BYE,
    OP_ERROR,
    OP_EVENTS,
    OP_HELLO,
    OP_MEMBERSHIP,
    OP_METRICS,
    OP_OK,
    OP_SNAPSHOT,
    read_message,
    valid_tenant_id,
    wire_message_parts,
)
from repro.serve.session import TenantSession
from repro.streams.codec import (
    DEFAULT_MAX_WIRE_BYTES,
    DeltaBatchDecoder,
    decode_hello,
    pack_wire_message,
)
from repro.streams.events import EventColumns
from repro.util.validation import check_positive

__all__ = ["ClusterService"]

Endpoint = Union[Tuple[str, int], str]

_QUERY_OPS = (OP_SNAPSHOT, OP_MEMBERSHIP, OP_METRICS)


class ClusterService:
    """An always-on clustering daemon serving many tenants over sockets.

    Parameters
    ----------
    config:
        The clusterer configuration every tenant session runs with
        (one service = one policy; run several services for several).
    host, port:
        TCP endpoint (``port=0`` binds an ephemeral port; read
        :attr:`endpoint` after startup). Ignored when ``path`` is set.
    path:
        Unix-domain socket path (preferred for same-host deployments
        and CI — no port collisions).
    max_tenants:
        Admission ceiling on concurrent tenant sessions.
    max_frame_bytes:
        Per-message wire size ceiling (admission control for memory).
    queue_depth:
        Bound of each tenant's ingest queue, in batches (backpressure).
    workers:
        0 runs each tenant on an in-process
        :class:`~repro.core.clusterer.StreamingGraphClusterer`; N > 0
        gives each tenant an N-worker
        :class:`~repro.core.pipeline.PipelineClusterer`.
    batch_size:
        Pipeline producer buffer size (worker-backed tenants only).
    checkpoint_dir:
        Directory for per-tenant checkpoints (``<tenant>.rpk``); None
        disables durability.
    checkpoint_every:
        Periodic checkpoint interval in events (0: only at shutdown).
    resume:
        Resume a tenant from its checkpoint file when one exists.

    Use :meth:`run` for a blocking daemon with signal handling, or
    drive :meth:`start`/:meth:`shutdown` from an existing event loop.
    """

    def __init__(
        self,
        config: ClustererConfig,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
        max_tenants: int = 64,
        max_frame_bytes: int = DEFAULT_MAX_WIRE_BYTES,
        queue_depth: int = 64,
        workers: int = 0,
        batch_size: int = 1024,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        ingest_delay: float = 0.0,
    ) -> None:
        check_positive("max_tenants", max_tenants)
        check_positive("max_frame_bytes", max_frame_bytes)
        check_positive("queue_depth", queue_depth)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.config = config
        self._host = host
        self._port = port
        self._path = path
        self.max_tenants = int(max_tenants)
        self.max_frame_bytes = int(max_frame_bytes)
        self.queue_depth = int(queue_depth)
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.resume = bool(resume)
        self._ingest_delay = ingest_delay  # testing aid (see TenantSession)

        self._sessions: Dict[str, TenantSession] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Future] = None
        self._closing = False
        self._shut_down = False
        #: Set once the server socket is bound — thread-driven tests
        #: wait on this, then read :attr:`endpoint`.
        self.started = threading.Event()
        self.endpoint: Optional[Endpoint] = None

        registry = _obs.default_registry()
        self._connections_counter = registry.counter("serve.connections_total")
        self._frames_counter = registry.counter("serve.frames_received")
        self._bytes_counter = registry.counter("serve.bytes_received")
        self._errors_counter = registry.counter("serve.protocol_errors")
        self._rejects_counter = registry.counter("serve.admission_rejects")
        self._columnar_counter = registry.counter("serve.codec_columnar_frames")
        self._tenants_gauge = registry.gauge("serve.tenants")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ClusterService":
        """Bind the socket and start accepting connections."""
        if self._server is not None:
            return self
        if self.checkpoint_dir:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        if self._path:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self._path
            )
            self.endpoint = self._path
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self._host, self._port
            )
            name = self._server.sockets[0].getsockname()
            self.endpoint = (name[0], name[1])
        self._loop = asyncio.get_running_loop()
        self.started.set()
        return self

    async def shutdown(self) -> None:
        """Graceful stop: drain, checkpoint, reap (idempotent).

        Connection readers are cancelled *before* sessions close, so no
        new events can arrive mid-drain; every batch accepted before
        the shutdown began is applied and covered by the final
        per-tenant checkpoint.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for _, session in sorted(self._sessions.items()):
            await session.close(checkpoint=self.checkpoint_dir is not None)
        self._tenants_gauge.set(0)
        if self._path:
            with contextlib.suppress(OSError):
                os.unlink(self._path)

    def request_shutdown(self, code: int = 0) -> None:
        """Thread-safe graceful-stop trigger (what signals call)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._resolve_stop, code)

    def _resolve_stop(self, code: int) -> None:
        if self._stop is not None and not self._stop.done():
            self._stop.set_result(code)

    def _install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        # Only possible on the main thread of the main interpreter;
        # thread-driven embedders call request_shutdown instead.
        for signum, code in ((signal.SIGINT, 130), (signal.SIGTERM, 0)):
            try:
                loop.add_signal_handler(signum, self.request_shutdown, code)
            except (NotImplementedError, RuntimeError, ValueError):
                return

    async def serve_until_shutdown(self) -> int:
        """Run until a signal or :meth:`request_shutdown`; exit code."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop = loop.create_future()
        await self.start()
        self._install_signal_handlers(loop)
        try:
            code = await self._stop
        finally:
            await self.shutdown()
        return code

    def run(self) -> int:
        """Blocking daemon entry point; returns the process exit code
        (130 after SIGINT, 0 after SIGTERM or a requested stop)."""
        return asyncio.run(self.serve_until_shutdown())

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _on_connection(self, reader, writer) -> None:
        task = asyncio.get_running_loop().create_task(
            self._handle(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    def _admit(self, payload) -> TenantSession:
        """Validate a HELLO and return (possibly creating) its session."""
        tenant, kernel = decode_hello(payload)  # ValueError → protocol reject
        if not valid_tenant_id(tenant):
            raise ServiceError(
                f"invalid tenant id {tenant!r}: use 1-128 chars from "
                "[A-Za-z0-9._-], not starting with a dot"
            )
        session = self._sessions.get(tenant)
        if session is not None:
            if kernel is not None and kernel != session.config.kernel:
                raise ServiceError(
                    f"tenant {tenant!r} is live with kernel "
                    f"{session.config.kernel!r}; refusing to switch to "
                    f"{kernel!r} mid-session"
                )
            return session
        if self._closing:
            raise ServiceError("service is shutting down; new tenants refused")
        if len(self._sessions) >= self.max_tenants:
            raise ServiceError(
                f"tenant limit reached ({self.max_tenants}); "
                f"tenant {tenant!r} refused"
            )
        checkpoint_path = (
            os.path.join(self.checkpoint_dir, f"{tenant}.rpk")
            if self.checkpoint_dir
            else None
        )
        session = TenantSession(
            tenant,
            self.config,
            queue_depth=self.queue_depth,
            workers=self.workers,
            batch_size=self.batch_size,
            checkpoint_path=checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            resume=self.resume,
            ingest_delay=self._ingest_delay,
            kernel=kernel,
        )
        self._sessions[tenant] = session
        self._tenants_gauge.set(len(self._sessions))
        return session

    async def _handle(self, reader, writer) -> None:
        """One connection: handshake, then events + queries until EOF.

        Every exit path closes only this connection; errors are
        reported to the client as an ``ERROR`` message when the socket
        still allows it.
        """
        self._connections_counter.inc()
        max_bytes = self.max_frame_bytes
        try:
            try:
                op, payload = await read_message(reader, max_bytes=max_bytes)
            except EOFError:
                return
            if op != OP_HELLO:
                raise ProtocolError(
                    f"expected HELLO as the first message, got opcode {op!r}"
                )
            try:
                session = self._admit(payload)
            except ValueError as error:
                raise ProtocolError(str(error)) from None
            await session.start()
            writer.write(
                pack_wire_message(
                    OP_OK, self.max_frame_bytes.to_bytes(4, "little")
                )
            )
            await writer.drain()
            decoder = DeltaBatchDecoder()
            while True:
                try:
                    op, payload = await read_message(reader, max_bytes=max_bytes)
                except EOFError:
                    return
                if op == OP_EVENTS:
                    self._frames_counter.inc()
                    self._bytes_counter.inc(len(payload))
                    try:
                        events = decoder.decode(payload)
                    except ValueError as error:
                        raise ProtocolError(str(error)) from None
                    if type(events) is EventColumns and events.kinds is None:
                        # A codec-v3 frame (large v2 frames decode to
                        # columns too, but carry a kind column).
                        self._columnar_counter.inc()
                    await session.enqueue_events(events)
                elif op in _QUERY_OPS:
                    reply = await session.query(op, payload)
                    # Scatter-gather write: the length/opcode prefix and
                    # the (possibly large) reply body go to the transport
                    # as separate buffers instead of one concatenation.
                    writer.writelines(wire_message_parts(op, reply))
                    await writer.drain()
                elif op == OP_BYE:
                    writer.write(pack_wire_message(OP_BYE))
                    await writer.drain()
                    return
                else:
                    raise ProtocolError(f"unknown opcode {op!r}")
        except (ProtocolError, ServiceError, ReproError) as error:
            if isinstance(error, ProtocolError):
                self._errors_counter.inc()
            else:
                self._rejects_counter.inc()
            with contextlib.suppress(Exception):
                writer.write(
                    pack_wire_message(OP_ERROR, str(error).encode("utf-8"))
                )
                await writer.drain()
        except (ConnectionError, TimeoutError):
            pass  # peer vanished; nothing to tell it
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> Dict[str, TenantSession]:
        """Live tenant sessions by id (read-only view for embedders)."""
        return dict(self._sessions)

    def __repr__(self) -> str:
        state = "closed" if self._shut_down else (
            "serving" if self._server is not None else "idle"
        )
        return (
            f"ClusterService(endpoint={self.endpoint!r}, "
            f"tenants={len(self._sessions)}, {state})"
        )
