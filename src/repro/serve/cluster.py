"""`repro.serve.cluster`: the fault-tolerant multi-process front door.

Topology (see ``docs/serving.md`` for the ops guide)::

                       +--------------------------------------+
      TCP clients      |  ClusterServer (this module)         |
    ------------------>|  accept -> parse -> route by         |
      JSONL lines      |  canonical-AST hash -> ticket        |
                       +-------------------+------------------+
                                           | framed pipes
                       +-------------------v------------------+
                       |  Supervisor (supervisor.py)          |
                       |  deadlines - retries - backoff       |
                       |  restarts - heartbeats - hot-swap    |
                       +---+---------------+--------------+---+
                           |               |              |
                     +-----v----+    +-----v----+   +-----v----+
                     | worker 0 |    | worker 1 |   | worker N |
                     | shard 0  |    | shard 1  |   | shard N  |
                     | service  |    | service  |   | service  |
                     +----------+    +----------+   +----------+

Clients speak exactly the single-process JSONL protocol — same request
shapes, same response shapes — plus three cluster additions:

* responses may arrive **out of request order** (they carry the echoed
  ``id``; :class:`ClusterClient` rematches them);
* three admin ops: ``{"op": "cluster_stats"}`` (aggregated supervisor +
  per-worker stats), ``{"op": "metrics"}`` (the merged obs-registry
  snapshot; add ``"format": "prometheus"`` for scrape-ready text), and
  ``{"op": "swap", "model": "<path>"}`` (synchronous blue/green
  rotation — pointing it at the previous checkpoint file is the
  rollback command);
* three structured error codes no single-process client ever sees:
  ``overloaded`` (the target shard is past its high-water mark — shed,
  not queued), ``deadline_exceeded``, and ``worker_failed``.

**Routing = cache affinity.** The front door parses a request's first
source (memoized) and shards on its canonical-AST hash — the same
digest the per-worker embedding LRU keys on — so every request whose
first source is a given tree lands on the same worker, and a repeated
request finds all its trees in that worker's cache. Only the first
source routes: the other sources of a ``compare`` or ``rank`` are
featurized and cached on the same worker, so a tree that comes second
under first sources of different shards is cached, and encoded, on
each of them; the per-shard working sets overlap. Sources that fail to
parse shard on the raw text digest instead: the owning worker produces
the structured parse error, identically every time. Routing needs only
the frontend and the checkpoint header, so the front door process never
loads numpy (see ``docs/serving.md``).
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from array import array

from ..lang.parser import parse
from ..lang.simplify import flatten, simplify
from ..lang.vocab import NodeVocab
from .cache import LruCache, canonical_digest
from .checkpoint_meta import read_checkpoint_meta
from .protocol import (
    ERR_BAD_JSON, ERR_BAD_REQUEST, ERR_OVERLOADED, ERR_SHUTDOWN,
    error_reply, request_sources,
)
from .supervisor import Supervisor, SupervisorConfig, Ticket

__all__ = ["ClusterServer", "ClusterClient", "probe"]


class _Router:
    """source text -> shard index, via the canonical-AST digest.

    Only the *frontend* runs here: parse -> simplify -> flatten, then
    vocabulary IDs from the checkpoint header and the pre-order parent
    list, hashed by :func:`~repro.serve.cache.canonical_digest` exactly
    as a worker's cache keys the same tree. No numpy, no weights, no
    encoder schedule, no adjacency. The shard is memoized on the raw
    text's digest, so routing a repeated source costs one dict lookup
    and no tree outlives its routing.
    """

    def __init__(self, checkpoint_path, n_shards: int,
                 memo_size: int = 8192):
        meta = read_checkpoint_meta(checkpoint_path)
        self._vocab = NodeVocab.from_payload(meta["vocab"])
        self._lock = threading.Lock()   # an unfrozen vocab grows on encode
        self._memo = LruCache(memo_size)
        self.n_shards = n_shards
        self._rr = 0

    def digest(self, source: str) -> str:
        """The canonical-AST digest a worker's cache keys ``source`` on."""
        flat = flatten(simplify(parse(source)))
        parent = array("q", [-1]) * flat.num_nodes
        for index, children in enumerate(flat.children):
            for child in children:
                parent[child] = index
        with self._lock:
            node_ids = array("q", self._vocab.encode_all(flat.kinds))
        return canonical_digest(node_ids, parent)

    def shard_for(self, request: dict) -> int:
        sources = request_sources(request)
        if not sources:
            # no source to route on (e.g. bare stats): round-robin
            with self._lock:
                self._rr += 1
                return self._rr % self.n_shards
        anchor = sources[0]
        memo_key = hashlib.sha256(anchor.encode()).hexdigest()
        hit = self._memo.get(memo_key)
        if hit is not None:
            return hit
        try:
            digest = self.digest(anchor)
        except Exception:
            # unparseable: still deterministic, so the same bad source
            # always yields its error from the same worker's cache path
            digest = memo_key
        shard = int(digest[:16], 16) % self.n_shards
        self._memo.put(memo_key, shard)
        return shard


class ClusterServer:
    """TCP JSONL server over a supervised worker pool.

    ``port=0`` binds an ephemeral port (tests); ``.address`` is the
    actual ``(host, port)`` after :meth:`start`. Use as a context
    manager or call :meth:`close`.
    """

    def __init__(self, checkpoint_path, workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 config: SupervisorConfig | None = None,
                 fault_plans: dict[int, str] | None = None,
                 stats_stream=None, metrics_port: int | None = None):
        self.config = config or SupervisorConfig()
        self.supervisor = Supervisor(checkpoint_path, workers,
                                     config=self.config,
                                     fault_plans=fault_plans,
                                     stats_stream=stats_stream)
        self.router = _Router(checkpoint_path, workers)
        self._host = host
        self._port = port
        self._metrics_port = metrics_port
        self.metrics_server = None
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> "ClusterServer":
        self.supervisor.start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        self._sock = sock
        if self._metrics_port is not None:
            from ..obs.expose import MetricsHTTPServer
            self.metrics_server = MetricsHTTPServer(
                self.supervisor.metrics_snapshot, host=self._host,
                port=self._metrics_port)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="repro-cluster-accept")
        self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._sock is None:
            raise RuntimeError("server not started")
        return self._sock.getsockname()[:2]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.metrics_server is not None:
            self.metrics_server.close()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self.supervisor.shutdown()

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def serve_forever(self) -> None:  # pragma: no cover - CLI loop
        """Block until interrupted (the CLI's foreground mode, where
        SIGTERM interrupts the same way Ctrl-C does)."""
        try:
            while not self._closed:
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return                   # listener closed
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(target=self._client_loop, args=(conn,),
                             daemon=True,
                             name="repro-cluster-client").start()

    def _client_loop(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()

        def reply(response: dict) -> None:
            payload = (json.dumps(response) + "\n").encode()
            with write_lock:
                conn.sendall(payload)

        try:
            # Replies are small writes: with Nagle's algorithm on, each one
            # waits for the client's next request to acknowledge the last.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with conn.makefile("r", encoding="utf-8",
                               errors="replace") as stream:
                for line in stream:
                    if not line.strip():
                        continue
                    self._handle_line(line, reply)
        except (OSError, ValueError):
            pass                          # client disconnected mid-write
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle_line(self, line: str, reply) -> None:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            reply(error_reply(ERR_BAD_JSON, f"bad JSON: {error}"))
            return
        if not isinstance(request, dict):
            reply(error_reply(ERR_BAD_JSON,
                              "request must be a JSON object"))
            return
        request_id = request.get("id")
        op = request.get("op")
        # admin ops are answered by the supervisor, not a worker.
        # `stats` aggregates across the whole cluster (same snapshot as
        # `cluster_stats`): a per-worker service counter dump would be
        # misleading behind a round-robin router.
        if op in ("cluster_stats", "stats"):
            reply({"ok": True, "id": request_id,
                   "stats": self.supervisor.stats()}
                  if request_id is not None else
                  {"ok": True, "stats": self.supervisor.stats()})
            return
        if op == "metrics":
            # cluster-wide merged registry snapshot (supervisor + every
            # shard, incl. retained counters of dead workers); the
            # Prometheus text variant serves scrapers that reach the
            # front door instead of --metrics-port
            snapshot = self.supervisor.metrics_snapshot()
            response = {"ok": True}
            if request_id is not None:
                response["id"] = request_id
            if request.get("format") == "prometheus":
                from ..obs.expose import to_prometheus
                response["metrics_text"] = to_prometheus(snapshot)
            else:
                response["metrics"] = snapshot
            reply(response)
            return
        if op == "swap":
            model = request.get("model")
            if not isinstance(model, str):
                reply(error_reply(ERR_BAD_REQUEST,
                                  "swap needs a 'model' checkpoint path",
                                  request_id=request_id))
                return
            outcome = self.supervisor.swap(model)
            if request_id is not None:
                outcome = dict(outcome, id=request_id)
            reply(outcome)
            return
        if self._closed:
            reply(error_reply(ERR_SHUTDOWN, "server shutting down",
                              request_id=request_id))
            return
        shard = self.router.shard_for(request)
        # load shedding: an explicit overloaded reply beats a silent
        # queue that outlives every deadline
        if (self.supervisor.inflight_for_shard(shard)
                >= self.config.high_water):
            self.supervisor.bump("overload_rejected")
            reply(error_reply(
                ERR_OVERLOADED,
                f"shard {shard} is over its high-water mark "
                f"({self.config.high_water} in flight); retry with "
                "backoff", request_id=request_id))
            return
        timeout_ms = float(request.get("timeout_ms",
                                       self.config.request_timeout_ms))
        with self._seq_lock:
            self._seq += 1
            tid = f"c{self._seq}"
        now_mono, now_unix = time.monotonic(), time.time()
        ticket = Ticket(tid, request, shard, reply,
                        now_mono + timeout_ms / 1000.0,
                        now_unix + timeout_ms / 1000.0)
        self.supervisor.dispatch(ticket)


class ClusterClient:
    """Small blocking client for one TCP connection.

    Replies may arrive out of order; :meth:`request` rematches them by
    the ``id`` it stamps on every request. One instance per thread (or
    one per in-flight request pattern); it is intentionally a thin test
    and load-script helper, not a production SDK.
    """

    def __init__(self, address: tuple[str, int],
                 connect_timeout: float = 10.0):
        self._sock = socket.create_connection(address,
                                              timeout=connect_timeout)
        self._stream = self._sock.makefile("r", encoding="utf-8")
        self._pending: dict[object, dict] = {}
        self._counter = 0

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def send(self, request: dict) -> object:
        """Send one request, stamping an ``id`` if absent; returns the
        id to wait on."""
        if "id" not in request:
            self._counter += 1
            request = dict(request, id=f"q{self._counter}")
        self._sock.sendall((json.dumps(request) + "\n").encode())
        return request["id"]

    def recv(self, request_id, timeout: float = 30.0) -> dict:
        """The reply for ``request_id`` (buffering any other replies
        that arrive first)."""
        if request_id in self._pending:
            return self._pending.pop(request_id)
        self._sock.settimeout(timeout)
        for line in self._stream:
            response = json.loads(line)
            if response.get("id") == request_id:
                return response
            self._pending[response.get("id")] = response
        raise ConnectionError("server closed the connection before "
                              f"replying to {request_id!r}")

    def request(self, request: dict, timeout: float = 30.0) -> dict:
        return self.recv(self.send(request), timeout=timeout)


def probe(address, timeout: float = 5.0) -> dict:
    """Liveness probe (deploy healthcheck): one ``cluster_stats``
    round-trip. Raises on any failure; returns the stats payload."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        address = (host or "127.0.0.1", int(port))
    with ClusterClient(address, connect_timeout=timeout) as client:
        response = client.request({"op": "cluster_stats"}, timeout=timeout)
    if not response.get("ok"):
        raise RuntimeError(f"cluster unhealthy: {response}")
    return response["stats"]
