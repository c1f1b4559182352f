"""In-process simulated network: nodes, links, streams, and fault injection.

Nodes join named links (LAN segments). A network may also carry an
implicit "wan" link that every node joins, standing in for internet
routing; severing it takes down both cross-link dialing and the global
discovery backend. Connections are reliable ordered duplex byte streams
(TCP-like): per-direction delivery times are drawn from the link's latency
range but never reorder, and a drop (abort, partition, node stop) surfaces
as ConnectionLost on both ends. All randomness comes from the owning
kernel's seeded RNG streams, so a seed fully determines every trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import kernel as ker
from .errors import ConnectionLost, DialError, InvalidArgument

WAN_LINK = "wan"

DEFAULT_LAN_LATENCY = (0.001, 0.005)
DEFAULT_WAN_LATENCY = (0.02, 0.08)


@dataclass(frozen=True)
class PeerAddress:
    """Opaque node identity (random 16-byte id, hex) plus a transport hint."""

    peer_id: str
    endpoint: str

    def short(self) -> str:
        return self.peer_id[:8]


class LatencyRange:
    """Uniform one-way delay range in seconds."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        if lo < 0 or hi < lo:
            raise InvalidArgument(f"bad latency range ({lo}, {hi})")
        self.lo = lo
        self.hi = hi

    def draw(self, rng: random.Random) -> float:
        if self.hi == self.lo:
            return self.lo
        return rng.uniform(self.lo, self.hi)

    @property
    def mean(self) -> float:
        return (self.lo + self.hi) / 2


class VirtualLink:
    def __init__(self, link_id: str, latency: LatencyRange, loss: float = 0.0):
        if not 0.0 <= loss < 1.0:
            raise InvalidArgument("loss probability must be in [0, 1)")
        self.link_id = link_id
        self.latency = latency
        self.loss = loss
        self.up = True
        self.members: set[str] = set()  # peer ids


class SimulatedNetwork:
    """The shared world: links, nodes, and the trace log."""

    def __init__(
        self,
        kernel: ker.Kernel,
        *,
        wan: bool = True,
        wan_latency: tuple[float, float] = DEFAULT_WAN_LATENCY,
    ):
        self.kernel = kernel
        self.trace = kernel.trace
        self._links: dict[str, VirtualLink] = {}
        self._nodes: dict[str, SimNode] = {}
        self._rng_latency = kernel.rng("net.latency")
        self._rng_ids = kernel.rng("net.ids")
        self._rng_loss = kernel.rng("net.loss")
        self._node_seq = 0
        self._conn_seq = 0
        if wan:
            self.create_link(WAN_LINK, latency=wan_latency)

    # -- topology ----------------------------------------------------------

    def create_link(
        self,
        link_id: str,
        latency: tuple[float, float] = DEFAULT_LAN_LATENCY,
        loss: float = 0.0,
    ) -> VirtualLink:
        if link_id in self._links:
            raise InvalidArgument(f"link {link_id!r} already exists")
        link = VirtualLink(link_id, LatencyRange(*latency), loss)
        self._links[link_id] = link
        return link

    def link(self, link_id: str) -> VirtualLink:
        try:
            return self._links[link_id]
        except KeyError:
            raise InvalidArgument(f"unknown link {link_id!r}") from None

    def spawn_node(self, links: tuple[str, ...] | list[str] = ()) -> "SimNode":
        memberships = list(dict.fromkeys(links))
        for link_id in memberships:
            self.link(link_id)  # validate before mutating anything
        if WAN_LINK in self._links and WAN_LINK not in memberships:
            memberships.append(WAN_LINK)
        self._node_seq += 1
        peer_id = self._rng_ids.getrandbits(128).to_bytes(16, "big").hex()
        address = PeerAddress(peer_id=peer_id, endpoint=f"sim:{self._node_seq}")
        node = SimNode(self, address, tuple(memberships))
        self._nodes[peer_id] = node
        for link_id in memberships:
            self._links[link_id].members.add(peer_id)
        self.trace.emit("node_spawned", node=address.short(), links=list(memberships))
        return node

    def partition(self, link_id: str, severed: bool = True) -> None:
        """Sever or heal a link; severing drops in-flight traffic on it."""
        link = self.link(link_id)
        link.up = not severed
        self.trace.emit("partition", link=link_id, severed=severed)
        if severed:
            for node in list(self._nodes.values()):
                for conn in list(node._conns):
                    if conn.core.link is link:
                        conn.core.drop("partition")

    # -- lookups used by discovery and dialing -----------------------------

    def node_for(self, peer_id: str) -> "SimNode | None":
        return self._nodes.get(peer_id)

    def is_live(self, peer_id: str) -> bool:
        node = self._nodes.get(peer_id)
        return node is not None and not node.stopped

    def wan_reachable(self, node: "SimNode") -> bool:
        link = self._links.get(WAN_LINK)
        return (
            link is not None
            and link.up
            and not node.stopped
            and node.address.peer_id in link.members
        )

    def shared_live_links(self, a: "SimNode", b: "SimNode") -> list[VirtualLink]:
        """Live links both nodes sit on, cheapest first (stable order)."""
        shared = []
        for link_id in a.links:
            link = self._links[link_id]
            if link.up and b.address.peer_id in link.members:
                shared.append(link)
        shared.sort(key=lambda l: (l.latency.mean, l.link_id))
        return shared

    def loss_roll(self, link: VirtualLink) -> bool:
        """True if a discovery-layer message on this link should be lost."""
        return link.loss > 0 and self._rng_loss.random() < link.loss


class SimNode:
    """A protocol endpoint: can dial, accept, and run discovery."""

    def __init__(self, network: SimulatedNetwork, address: PeerAddress, links: tuple[str, ...]):
        self.network = network
        self.kernel = network.kernel
        self.address = address
        self.links = links
        self.stopped = False
        self._inbound: ker.Queue = ker.Queue()
        self._conns: dict[Connection, None] = {}  # insertion-ordered set

    def __repr__(self) -> str:
        return f"<SimNode {self.address.short()}>"

    @property
    def clock(self) -> ker.VirtualClock:
        return self.kernel.clock

    def stop(self) -> None:
        """Take the node offline; existing connections drop."""
        if self.stopped:
            return
        self.stopped = True
        self.network.trace.emit("node_stopped", node=self.address.short())
        for conn in list(self._conns):
            conn.core.drop("node-stopped")

    async def accept(self) -> "Connection":
        """Wait for the next inbound connection."""
        if self.stopped:
            raise DialError("node is stopped")
        return await self._inbound.get()

    async def dial(self, to: PeerAddress, relay: bool = False) -> "Connection":
        """Open a duplex stream to ``to``; one round trip before it returns."""
        if self.stopped:
            raise DialError("dialing node is stopped")
        if to.peer_id == self.address.peer_id:
            self._dial_failed(to, "self-dial")
        target = self.network.node_for(to.peer_id)
        if target is None:
            self._dial_failed(to, "unknown-peer")
        links = self.network.shared_live_links(self, target)
        if not links:
            self._dial_failed(to, "unreachable")
        link = links[0]
        core = _ConnectionCore(self.network, link, relay)
        await ker.sleep(core.draw_delay())  # connect request travels
        if target.stopped or not link.up:
            self._dial_failed(to, "peer-down")
        local_end, remote_end = Connection(core, self), Connection(core, target)
        local_end.peer, remote_end.peer = remote_end, local_end
        core.ends = (local_end, remote_end)
        target._inbound.put(remote_end)
        self.network.trace.emit(
            "conn_open",
            conn=core.conn_id,
            src=self.address.short(),
            dst=to.short(),
            link=link.link_id,
            relay=relay,
        )
        await ker.sleep(core.draw_delay())  # accept response travels back
        if core.error is not None:
            raise DialError(f"connection lost during dial: {core.error}")
        return local_end

    def _dial_failed(self, to: PeerAddress, reason: str):
        self.network.trace.emit(
            "dial_failed", src=self.address.short(), dst=to.short(), reason=reason
        )
        raise DialError(f"cannot reach {to.short()}: {reason}")


class _Stream:
    """One direction of a connection as seen by its reader."""

    __slots__ = ("buffer", "eof", "floor", "activity")

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.eof = False
        self.floor = 0.0  # in-order delivery horizon
        self.activity = ker.Event()

    def wake(self) -> None:
        self.activity.set()
        self.activity = ker.Event()


class _ConnectionCore:
    """State shared by both endpoints of one connection."""

    def __init__(self, network: SimulatedNetwork, link: VirtualLink, relay: bool):
        network._conn_seq += 1
        self.network = network
        self.kernel = network.kernel
        self.link = link
        self.relay = relay
        self.conn_id = f"c{network._conn_seq}"
        self.error: str | None = None
        self.ends: tuple[Connection, ...] = ()  # (dialer's end, acceptor's end)

    def draw_delay(self) -> float:
        d = self.link.latency.draw(self.network._rng_latency)
        if self.relay:
            d += self.link.latency.draw(self.network._rng_latency)
        return d

    def deliver(self, inbox: _Stream, payload: bytes | None) -> None:
        """Queue ``payload`` (None is EOF) for ``inbox``; a drop before arrival discards it."""
        deliver_at = max(self.kernel.now() + self.draw_delay(), inbox.floor)
        inbox.floor = deliver_at

        def arrive():
            if self.error is not None:
                return
            if payload is None:
                inbox.eof = True
            else:
                inbox.buffer.extend(payload)
            inbox.wake()

        self.kernel.call_at(deliver_at, arrive)

    def drop(self, reason: str) -> None:
        """Hard failure: kill in-flight data, error both directions."""
        if self.error is not None:
            return
        self.error = reason
        for end in self.ends:
            end.inbox.wake()
            end.node._conns.pop(end, None)
        self.network.trace.emit("conn_drop", conn=self.conn_id, reason=reason)


class Connection:
    """One endpoint's handle on a duplex reliable stream."""

    def __init__(self, core: _ConnectionCore, node: SimNode):
        self.core = core
        self.node = node
        self.local = node.address
        self.inbox = _Stream()
        self.peer: Connection | None = None  # the other end, linked by dial()
        self.send_closed = False
        node._conns[self] = None

    @property
    def remote(self) -> PeerAddress:
        return self.peer.local

    async def send(self, data: bytes) -> None:
        core = self.core
        if core.error is not None:
            raise ConnectionLost(f"connection {core.conn_id} is down: {core.error}")
        if self.send_closed:
            raise ConnectionLost("send on closed connection")
        core.deliver(self.peer.inbox, bytes(data))

    async def recv(self, max_bytes: int = 65536) -> bytes:
        """Next chunk of bytes; b'' on clean EOF; ConnectionLost on drop."""
        stream = self.inbox
        while True:
            if stream.buffer:
                n = min(max_bytes, len(stream.buffer))
                chunk = bytes(stream.buffer[:n])
                del stream.buffer[:n]
                return chunk
            if self.core.error is not None:
                raise ConnectionLost(f"connection dropped: {self.core.error}")
            if stream.eof:
                return b""
            await stream.activity.wait()

    async def recv_exactly(self, n: int) -> bytes:
        """Exactly n bytes; EOF before n counts as a lost connection."""
        parts = bytearray()
        while len(parts) < n:
            chunk = await self.recv(n - len(parts))
            if not chunk:
                raise ConnectionLost("stream ended mid-message")
            parts.extend(chunk)
        return bytes(parts)

    async def close(self) -> None:
        """Graceful shutdown of our sending direction (peer sees EOF)."""
        core = self.core
        if core.error is None and not self.send_closed:
            self.send_closed = True
            core.deliver(self.peer.inbox, None)
        self.node._conns.pop(self, None)
        if core.error is None and self.peer.send_closed:
            core.network.trace.emit("conn_closed", conn=core.conn_id)

    def abort(self) -> None:
        """Hard drop; both ends observe a terminal stream error."""
        self.core.drop("reset")
