"""Peer discovery backends: a global DHT-style store and a link-local one.

Both backends answer the same two questions — "remember that I can serve
this content key" and "who can serve this content key?" — from one record
store and one lookup. They differ only in scope and in their publish
event. The global backend's one scope is the wan link, reachable from any
node with wan connectivity; it traces ``provide`` (or ``provide_lost``).
The local backend's scopes are the live LAN links a node sits on, standing
in for multicast announcement on a segment; it traces one ``advertise`` per
link. Routing mechanics are deliberately not simulated because the
protocol above only depends on record semantics and timing.

Lookups poll: the querying side typically starts before the provider has
published, so a one-shot fetch would miss it. A stream yields each provider
whose record is within its TTL, at most once. It has no deadline of its own:
it queries only while its reader waits in ``next()``, so the reader's scope
ends it. A stopped node reaches no scope on either backend: it neither
publishes nor finds. As on a real DHT, a record it published before it
stopped stays until its TTL; dialing it is what fails. A stopped backend
is, to every node, what a stopped node is to itself: it reaches no scope,
so a publish goes nowhere and a lookup answers nothing until its reader's
scope ends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import kernel as ker
from .errors import InvalidArgument
from .simnet import WAN_LINK, LatencyRange, PeerAddress, SimNode, SimulatedNetwork, VirtualLink

DEFAULT_TTL = 86_400.0  # records may linger for up to 24 hours


@dataclass
class ProviderRecord:
    provider: PeerAddress
    published_at: float

    def live(self, now: float) -> bool:
        return self.published_at + DEFAULT_TTL > now


class ProviderStream:
    """Single-consumer incremental lookup, polled on the task that reads it.

    ``next()`` returns the next provider not returned before, waiting as
    long as it takes. With nothing buffered it queries the backend, at most
    once per ``query_interval`` after the previous query ended. Bound it
    with the reader's ``Scope``: a query in flight when that scope is
    cancelled is cancelled with it, and its answer dropped. Each provider is
    traced once, as ``provider_found``, when the stream takes it in. A
    stream nobody reads does no work.
    """

    def __init__(self, backend: "DiscoveryBackend", node: SimNode, key: bytes):
        self._backend = backend
        self._node = node
        self._key = key
        self._yielded: set[str] = set()
        self._ready: deque[PeerAddress] = deque()
        self._next_query = node.kernel.now()

    async def next(self) -> PeerAddress:
        kernel = self._node.kernel
        while True:
            if self._ready:
                return self._ready.popleft()
            now = kernel.now()
            if now < self._next_query:
                await ker.sleep(self._next_query - now)
                continue
            answers = await self._backend._query_once(self._node, self._key)
            self._next_query = kernel.now() + self._backend.query_interval
            for addr in answers:
                if addr.peer_id not in self._yielded and addr.peer_id != self._node.address.peer_id:
                    self._yielded.add(addr.peer_id)
                    self._ready.append(addr)
                    self._node.network.trace.emit(
                        "provider_found",
                        backend=self._backend.tag,
                        node=self._node.address.short(),
                        key=self._key.hex()[:16],
                        provider=addr.short(),
                    )


class DiscoveryBackend:
    """One record store and one lookup, shared by both backend families.

    Records live under ``link id -> content key -> peer id``; re-providing
    refreshes the publish time. A backend differs only in its default
    timings, its ``tag``, the scopes (links) a node reaches through it, and
    the traced method that publishes. Each operation sleeps a uniform draw
    from ``op_latency`` seconds on the ``"<tag>.latency"`` RNG stream;
    lookups poll every ``query_interval`` seconds. Both are checked here, so
    a bad sim config fails with InvalidArgument.
    """

    op_latency: tuple[float, float]
    query_interval: float
    tag: str

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        op_latency: tuple[float, float] | None = None,
        query_interval: float | None = None,
    ):
        self.network = network
        self.kernel = network.kernel
        self.started = True
        if op_latency is not None:
            self.op_latency = op_latency
        if query_interval is not None:
            self.query_interval = query_interval
        if not self.query_interval > 0:
            raise InvalidArgument(f"query interval must be positive, got {self.query_interval}")
        self._latency = LatencyRange(*self.op_latency)
        self._rng = self.kernel.rng(f"{self.tag}.latency")
        self._records: dict[str, dict[bytes, dict[str, ProviderRecord]]] = {}

    def stop(self) -> None:
        """Take the backend down for every node: from now on it reaches no scope.

        Records already stored stay, but no node reaches them; a publish
        stores nothing and a lookup answers nothing, as under a partition.
        """
        self.started = False

    async def provide(self, node: SimNode, key: bytes):
        raise NotImplementedError

    def _scopes(self, node: SimNode) -> list[VirtualLink]:
        """The links this backend reaches from ``node``, right now."""
        raise NotImplementedError

    def _reach(self, node: SimNode) -> list[VirtualLink]:
        """``_scopes``, or none once ``node`` or this backend is stopped."""
        return self._scopes(node) if self.started and not node.stopped else []

    def find_providers(self, node: SimNode, key: bytes) -> ProviderStream:
        """A lookup from ``node``; it queries only while read, until its reader's scope ends."""
        return ProviderStream(self, node, key)

    async def _publish(self, node: SimNode, key: bytes) -> list[VirtualLink]:
        """Store ``node``'s record under every scope it reaches; return those scopes."""
        await ker.sleep(self._latency.draw(self._rng))
        record = ProviderRecord(node.address, self.kernel.now())
        scopes = self._reach(node)
        for link in scopes:
            by_peer = self._records.setdefault(link.link_id, {}).setdefault(key, {})
            by_peer[node.address.peer_id] = record
        return scopes

    async def _query_once(self, node: SimNode, key: bytes) -> list[PeerAddress]:
        """One answer: every record within its TTL on every scope, less what the link loses.

        Stale records are dropped before the loss roll, so they draw
        nothing from the loss stream.
        """
        await ker.sleep(self._latency.draw(self._rng))
        now = self.kernel.now()
        found: dict[str, PeerAddress] = {}
        for link in self._reach(node):
            for record in self._records.get(link.link_id, {}).get(key, {}).values():
                if record.live(now) and not self.network.loss_roll(link):
                    found.setdefault(record.provider.peer_id, record.provider)
        return list(found.values())


class SimulatedDht(DiscoveryBackend):
    """Global provider-record store: one scope, the wan link.

    Nodes without wan reachability see the store as empty and their
    publishes go nowhere, which is how partitions starve discovery without
    turning into hard errors.
    """

    op_latency = (0.2, 0.8)
    query_interval = 0.5
    tag = "dht"

    def _scopes(self, node: SimNode) -> list[VirtualLink]:
        return [self.network.link(WAN_LINK)] if self.network.wan_reachable(node) else []

    async def provide(self, node: SimNode, key: bytes):
        short, key_hex = node.address.short(), key.hex()[:16]
        if not await self._publish(node, key):
            self.network.trace.emit("provide_lost", backend=self.tag, node=short, key=key_hex)
            return
        self.network.trace.emit(
            "provide", backend=self.tag, node=short, key=key_hex, ttl=DEFAULT_TTL
        )


class SimulatedMdns(DiscoveryBackend):
    """Link-scoped advertisements standing in for multicast discovery."""

    op_latency = (0.002, 0.008)
    query_interval = 0.25
    tag = "mdns"

    def _scopes(self, node: SimNode) -> list[VirtualLink]:
        links = (self.network.link(link_id) for link_id in node.links if link_id != WAN_LINK)
        return [link for link in links if link.up]

    async def provide(self, node: SimNode, key: bytes):
        await self.local_advertise(node, key)

    async def local_advertise(self, node: SimNode, key: bytes):
        """The body of ``provide``: announce on every live local link.

        Kept under its own name because the benchmark's span tracer
        (``perfbench/tracing.py``) wraps ``SimulatedMdns.local_advertise``
        by name; call ``provide`` instead.
        """
        for link in await self._publish(node, key):
            self.network.trace.emit(
                "advertise",
                backend=self.tag,
                node=node.address.short(),
                link=link.link_id,
                key=key.hex()[:16],
            )
