"""Peer discovery backends: a global DHT-style store and a link-local one.

Both backends answer the same two questions — "remember that I can serve
this content key" and "who can serve this content key?" — but differ in
scope. The global backend is one shared record store reachable from any
node with wan connectivity, queried with a configurable per-operation
latency; routing mechanics are deliberately not simulated because the
protocol above only depends on record semantics and timing. The local
backend scopes advertisements to the link(s) a node sits on, standing in
for multicast announcement on a LAN segment.

Lookups poll: the querying side typically starts before the provider has
published, so a one-shot fetch would miss it. A stream yields each live
provider at most once and ends at its deadline; it queries only while its
reader waits in ``next()``, so dropping or cancelling the reader ends it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import kernel as ker
from .errors import BackendUnavailable, InvalidArgument
from .simnet import WAN_LINK, LatencyRange, PeerAddress, SimNode, SimulatedNetwork

DEFAULT_TTL = 86_400.0  # records may linger for up to 24 hours


@dataclass
class ProviderRecord:
    content_key: bytes
    provider: PeerAddress
    published_at: float
    ttl: float = DEFAULT_TTL

    def live(self, now: float) -> bool:
        return self.published_at + self.ttl > now


class ProviderStream:
    """Single-consumer incremental lookup, polled on the task that reads it.

    ``next()`` returns the next previously-unseen live provider, or None
    once the deadline has passed. With nothing buffered it queries the
    backend, at most once per ``query_interval`` after the previous query
    ended; an answer that lands after the deadline is dropped. A stream
    nobody reads does no work.
    """

    def __init__(self, backend: "DiscoveryBackend", node: SimNode, key: bytes, deadline: float):
        self._backend = backend
        self._node = node
        self._key = key
        self._deadline = deadline  # absolute virtual time
        self._yielded: set[str] = set()
        self._ready: deque[PeerAddress] = deque()
        self._next_query = node.kernel.now()

    async def next(self) -> PeerAddress | None:
        kernel = self._node.kernel
        while True:
            if not self._backend.started:
                raise BackendUnavailable("backend stopped during lookup")
            if self._ready:
                return self._ready.popleft()
            now = kernel.now()
            if now >= self._deadline:
                return None
            if now < self._next_query:
                await ker.sleep(min(self._next_query, self._deadline) - now)
                continue
            answers = await self._backend._query_once(self._node, self._key)
            self._next_query = kernel.now() + self._backend.query_interval
            if kernel.now() > self._deadline:
                return None  # the answer landed too late: dropped
            for addr in answers:
                if addr.peer_id not in self._yielded and addr.peer_id != self._node.address.peer_id:
                    self._yielded.add(addr.peer_id)
                    self._ready.append(addr)


class DiscoveryBackend:
    """Common surface both backend families implement.

    Each operation sleeps a uniform draw from ``op_latency`` seconds on the
    backend's own RNG stream; lookups poll every ``query_interval`` seconds.
    Both are checked here, so a bad sim config fails with InvalidArgument.
    """

    op_latency: tuple[float, float]
    query_interval: float
    rng_stream: str

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
        self._rng = self.kernel.rng(self.rng_stream)

    @property
    def name(self) -> str:
        return type(self).__name__

    def stop(self) -> None:
        self.started = False

    def _check_started(self) -> None:
        if not self.started:
            raise BackendUnavailable(f"{self.name} is stopped")

    async def provide(self, node: SimNode, key: bytes, ttl: float = DEFAULT_TTL):
        raise NotImplementedError

    def find_providers(self, node: SimNode, key: bytes, deadline: float) -> ProviderStream:
        """A lookup ending ``deadline`` seconds from now; it queries only while read."""
        self._check_started()
        return ProviderStream(self, node, key, self.kernel.now() + deadline)

    async def _query_once(self, node: SimNode, key: bytes) -> list[PeerAddress]:
        raise NotImplementedError


class SimulatedDht(DiscoveryBackend):
    """Global provider-record store with per-operation latency.

    Records are keyed (content key, peer id); re-providing refreshes the
    publish time. Nodes without wan reachability see the store as empty
    and their publishes go nowhere, which is how partitions starve
    discovery without turning into hard errors.
    """

    op_latency = (0.2, 0.8)
    query_interval = 0.5
    rng_stream = "dht.latency"

    def __init__(self, network: SimulatedNetwork, **timing):
        super().__init__(network, **timing)
        self._records: dict[bytes, dict[str, ProviderRecord]] = {}

    async def provide(self, node: SimNode, key: bytes, ttl: float = DEFAULT_TTL):
        self._check_started()
        await ker.sleep(self._latency.draw(self._rng))
        if not self.network.wan_reachable(node):
            self.network.trace.emit(
                "provide_lost", backend="dht", node=node.address.short(), key=key.hex()[:16]
            )
            return
        record = ProviderRecord(key, node.address, self.kernel.now(), ttl)
        self._records.setdefault(key, {})[node.address.peer_id] = record
        self.network.trace.emit(
            "provide", backend="dht", node=node.address.short(), key=key.hex()[:16], ttl=ttl
        )

    async def _query_once(self, node: SimNode, key: bytes) -> list[PeerAddress]:
        self._check_started()
        await ker.sleep(self._latency.draw(self._rng))
        if not self.network.wan_reachable(node):
            return []
        now = self.kernel.now()
        found = []
        for record in self._records.get(key, {}).values():
            if record.live(now) and self.network.is_live(record.provider.peer_id):
                found.append(record.provider)
        for addr in found:
            self.network.trace.emit(
                "provider_found",
                backend="dht",
                node=node.address.short(),
                key=key.hex()[:16],
                provider=addr.short(),
            )
        return found


class SimulatedMdns(DiscoveryBackend):
    """Link-scoped advertisement table standing in for multicast discovery."""

    op_latency = (0.002, 0.008)
    query_interval = 0.25
    rng_stream = "mdns.latency"

    def __init__(self, network: SimulatedNetwork, **timing):
        super().__init__(network, **timing)
        # link id -> key -> peer id -> record
        self._ads: dict[str, dict[bytes, dict[str, ProviderRecord]]] = {}

    def _local_links(self, node: SimNode):
        for link_id in node.links:
            if link_id == WAN_LINK:
                continue
            link = self.network.link(link_id)
            if link.up:
                yield link

    async def provide(self, node: SimNode, key: bytes, ttl: float = DEFAULT_TTL):
        await self.local_advertise(node, key, ttl)

    async def local_advertise(self, node: SimNode, key: bytes, ttl: float = DEFAULT_TTL):
        """The body of ``provide``: announce on every live local link.

        Kept under its own name because the benchmark's span tracer
        (``perfbench/tracing.py``) wraps ``SimulatedMdns.local_advertise``
        by name; call ``provide`` instead.
        """
        self._check_started()
        await ker.sleep(self._latency.draw(self._rng))
        record = ProviderRecord(key, node.address, self.kernel.now(), ttl)
        for link in self._local_links(node):
            table = self._ads.setdefault(link.link_id, {}).setdefault(key, {})
            table[node.address.peer_id] = record
            self.network.trace.emit(
                "advertise",
                backend="mdns",
                node=node.address.short(),
                link=link.link_id,
                key=key.hex()[:16],
            )

    async def _query_once(self, node: SimNode, key: bytes) -> list[PeerAddress]:
        self._check_started()
        await ker.sleep(self._latency.draw(self._rng))
        now = self.kernel.now()
        found: dict[str, PeerAddress] = {}
        for link in self._local_links(node):
            for record in self._ads.get(link.link_id, {}).get(key, {}).values():
                if not record.live(now):
                    continue
                if not self.network.is_live(record.provider.peer_id):
                    continue
                if self.network.loss_roll(link):
                    continue  # this answer got lost on the segment
                found[record.provider.peer_id] = record.provider
        for addr in found.values():
            self.network.trace.emit(
                "provider_found",
                backend="mdns",
                node=node.address.short(),
                key=key.hex()[:16],
                provider=addr.short(),
            )
        return list(found.values())
