"""Server-based chain replication (the design NetChain moves into switches).

Section 2.2 motivates chain replication over classical primary-backup: in a
chain of ``n`` nodes a write costs ``n+1`` messages and needs no per-query
bookkeeping at the primary, which is what makes it implementable in a
switch ASIC.  This module implements the original, server-hosted protocol
(Van Renesse & Schneider, FAWN-KV style) on simulated hosts over the
reliable transport, both as a functional baseline and for the
message-count/latency ablation against NetChain and primary-backup.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.server_kv import ServerKVClient
from repro.netsim.host import Host
from repro.netsim.tcp import TcpConfig, TcpConnection, TcpEndpoint


class ServerChainReplica:
    """One server in the chain."""

    def __init__(self, index: int, host: Host, message_bytes: int = 150) -> None:
        self.index = index
        self.host = host
        self.sim = host.sim
        self.message_bytes = message_bytes
        self.store: Dict[str, Tuple[bytes, int]] = {}
        self.next_endpoint: Optional[TcpEndpoint] = None
        self.client_endpoints: Dict[str, TcpEndpoint] = {}
        self.messages_processed = 0

    def connect_next(self, endpoint: TcpEndpoint) -> None:
        """Attach the transport to the chain successor."""
        self.next_endpoint = endpoint

    def accept_client(self, client_name: str, endpoint: TcpEndpoint) -> None:
        """Attach a client connection."""
        self.client_endpoints[client_name] = endpoint
        endpoint.on_message = self.handle_message

    def handle_message(self, message: Dict[str, Any]) -> None:
        """Process a read, a (possibly forwarded) write/cas, or a delete."""
        self.messages_processed += 1
        op = message["op"]
        if op == "read":
            value, version = self.store.get(message["key"], (b"", 0))
            self._reply(message, value=value, version=version)
        elif op in ("write", "cas"):
            stored_value, stored_version = self.store.get(message["key"], (b"", 0))
            if op == "cas" and "version" not in message:
                # Head of the chain: evaluate the comparison once; an
                # accepted CAS propagates down the chain exactly like a
                # write (the resolved version travels with it).
                if stored_value != message.get("expected", b""):
                    self._reply(message, ok=False, cas_failed=True,
                                value=stored_value, version=stored_version)
                    return
            version = message.get("version", stored_version + 1)
            self.store[message["key"]] = (message["value"], version)
            if self.next_endpoint is not None:
                forwarded = dict(message)
                forwarded["version"] = version
                self.next_endpoint.send(forwarded, self.message_bytes)
            else:
                self._reply(message, value=message["value"], version=version)
        elif op == "delete":
            if "existed" not in message:
                message = dict(message)
                message["existed"] = message["key"] in self.store
            self.store.pop(message["key"], None)
            if self.next_endpoint is not None:
                self.next_endpoint.send(dict(message), self.message_bytes)
            else:
                self._reply(message, not_found=not message["existed"])

    def _reply(self, message: Dict[str, Any], **fields: Any) -> None:
        endpoint = self.client_endpoints.get(message["client"])
        if endpoint is None:
            return
        reply = {"kind": "reply", "request_id": message["request_id"], "ok": True,
                 "op": message["op"], "key": message["key"]}
        reply.update(fields)
        endpoint.send(reply, self.message_bytes)


class ServerChainCluster:
    """A chain of replicas on servers, plus client factory."""

    backend = "server-chain"

    def __init__(self, hosts: List[Host], tcp_config: Optional[TcpConfig] = None,
                 message_bytes: int = 150) -> None:
        if not hosts:
            raise ValueError("a chain needs at least one server")
        self.tcp_config = tcp_config or TcpConfig()
        self.message_bytes = message_bytes
        self.request_ids = itertools.count(1)
        self.client_ids = itertools.count(1)
        self.replicas = [ServerChainReplica(i, host, message_bytes)
                         for i, host in enumerate(hosts)]
        for left, right in zip(self.replicas, self.replicas[1:], strict=False):
            conn = TcpConnection(left.host, right.host, config=self.tcp_config)
            left.connect_next(conn.endpoint(left.host))
            right_endpoint = conn.endpoint(right.host)
            right_endpoint.on_message = right.handle_message

    def head(self) -> ServerChainReplica:
        return self.replicas[0]

    def tail(self) -> ServerChainReplica:
        return self.replicas[-1]

    def kv_client(self, host: Host) -> ServerKVClient:
        """A client on ``host``: writes go to the head, reads to the tail
        (which also sends every reply), as in the original protocol."""
        return ServerKVClient(host, self, write_server=self.head(),
                              read_server=self.tail())

    def preload(self, items: Dict[str, bytes]) -> None:
        """Bulk-load keys on every replica without simulating the writes."""
        for key, value in items.items():
            for replica in self.replicas:
                replica.store[key] = (value, 1)

    def messages_per_write(self) -> int:
        """Messages a write costs end to end: n forwards + 1 reply
        (Section 2.2: n+1 for chain replication)."""
        return len(self.replicas) + 1
