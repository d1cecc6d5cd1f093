"""The one :class:`KVClient` of the server-hosted baselines.

Server chain replication and primary-backup speak the same request/reply
protocol over the reliable transport: a request names the client, a
request id, the op and the key; a reply carries ``ok`` / ``value`` /
``version`` / ``cas_failed`` / ``not_found``.  They differ only in where
a client sends what -- writes to the chain head and reads to the tail, or
everything to the primary -- so one client, built by each cluster's
``kv_client(host)`` from a write server and a read server, serves both and
resolves :class:`~repro.core.client.KVResult` directly.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.client import KVClient, KVFuture, KVResult, _raw_key
from repro.netsim.host import Host
from repro.netsim.tcp import TcpConnection, TcpEndpoint


class ServerKVClient(KVClient):
    """The unified protocol against a server-hosted baseline.

    ``cluster`` supplies the transport settings, the backend name and the
    per-cluster request-id and client-name counters.  Writes, CAS, deletes
    and inserts go to ``write_server``, reads to ``read_server``; one
    connection serves both when they are the same server.  ``insert`` is
    a write (both baselines create keys on first write); reads of keys the
    servers never stored surface as ``not_found`` (the wire protocol
    reports an empty value at version 0).
    """

    def __init__(self, host: Host, cluster, write_server, read_server) -> None:
        self.host = host
        self.sim = host.sim
        self.cluster = cluster
        self.backend = cluster.backend
        # The name keys the per-client reply endpoints on the servers, so
        # several clients on one host must not collide.
        self.name = f"{cluster.backend}-client-{host.name}-{next(cluster.client_ids)}"
        #: request id -> (op, sent_at, future) of each request awaiting a reply.
        self._pending: Dict[int, Tuple[str, float, KVFuture]] = {}
        self._write_endpoint = self._connect(write_server)
        self._read_endpoint = (self._write_endpoint if read_server is write_server
                               else self._connect(read_server))

    def _connect(self, server) -> TcpEndpoint:
        conn = TcpConnection(self.host, server.host, config=self.cluster.tcp_config)
        server.accept_client(self.name, conn.endpoint(server.host))
        endpoint = conn.endpoint(self.host)
        endpoint.on_message = self._on_reply
        return endpoint

    # -- the five protocol operations ------------------------------------ #

    def read(self, key) -> KVFuture:
        return self._submit("read", "read", key, b"", self._read_endpoint)

    def write(self, key, value) -> KVFuture:
        return self._submit("write", "write", key, value, self._write_endpoint)

    def cas(self, key, expected, new_value) -> KVFuture:
        return self._submit("cas", "cas", key, new_value, self._write_endpoint,
                            expected=_value_bytes(expected))

    def delete(self, key) -> KVFuture:
        return self._submit("delete", "delete", key, b"", self._write_endpoint)

    def insert(self, key, value=b"") -> KVFuture:
        return self._submit("insert", "write", key, value, self._write_endpoint)

    # -- wire protocol ---------------------------------------------------- #

    def _submit(self, op: str, wire_op: str, key, value, endpoint: TcpEndpoint,
                **extra: Any) -> KVFuture:
        future = KVFuture(self.sim, op=op, key=_raw_key(key))
        request_id = next(self.cluster.request_ids)
        message = {"kind": "request", "request_id": request_id, "op": wire_op,
                   "key": _key_str(key), "value": _value_bytes(value),
                   "client": self.name}
        message.update(extra)
        self._pending[request_id] = (op, self.sim.now, future)
        endpoint.send(message, self.cluster.message_bytes)
        return future

    def _on_reply(self, message: Dict[str, Any]) -> None:
        if message.get("kind") != "reply":
            return
        pending = self._pending.pop(message.get("request_id"), None)
        if pending is None:
            return
        op, sent_at, future = pending
        value = message.get("value", b"")
        version = message.get("version", 0)
        cas_failed = message.get("cas_failed", False)
        not_found = message.get("not_found", False) or (
            op == "read" and version == 0 and not value)
        ok = message.get("ok", False) and not not_found
        future.resolve(KVResult(
            ok=ok, op=op, key=future.key, value=value,
            not_found=not_found, cas_failed=cas_failed,
            error=None if ok else ("cas_failed" if cas_failed
                                   else "key_not_found" if not_found
                                   else "failed"),
            latency=self.sim.now - sent_at, backend=self.backend,
            version=(0, version) if ok else None))


def _key_str(key) -> str:
    return key.decode("utf-8", "replace") if isinstance(key, bytes) else str(key)


def _value_bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    return str(value).encode("utf-8")
