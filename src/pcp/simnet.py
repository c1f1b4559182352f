"""In-process simulated network: nodes, links, streams, and fault injection.

Nodes join named links (LAN segments). A network may also carry an
implicit "wan" link that every node joins, standing in for internet
routing; severing it takes down both cross-link dialing and the global
discovery backend. Connections are reliable ordered duplex byte streams
(TCP-like): per-direction delivery times are drawn from the link's latency
range but never reorder, and a drop (abort, partition, node stop) surfaces
as ConnectionLost on both ends. Each connection end is one ``Connection``
that keeps the connection's id and link, its own error and its own inbox,
and each node keeps its own accept backlog; a reader waits on a kernel Event
that the producer sets, then replaces. All randomness comes from the owning
kernel's seeded RNG streams, so a seed fully determines every trace.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from . import kernel as ker
from .errors import ConnectionLost, DialError, InvalidArgument

WAN_LINK = "wan"

DEFAULT_LAN_LATENCY = (0.001, 0.005)
DEFAULT_WAN_LATENCY = (0.02, 0.08)


@dataclass(frozen=True)
class PeerAddress:
    """Opaque node identity: a random 16-byte id, hex."""

    peer_id: str

    def short(self) -> str:
        return self.peer_id[:8]


class LatencyRange:
    """Uniform one-way delay range in seconds."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
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
        peer_id = self._rng_ids.getrandbits(128).to_bytes(16, "big").hex()
        address = PeerAddress(peer_id=peer_id)
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
                    if conn.link is link:
                        conn.drop("partition")

    # -- lookups used by discovery and dialing -----------------------------

    def node_for(self, peer_id: str) -> "SimNode | None":
        return self._nodes.get(peer_id)

    def wan_reachable(self, node: "SimNode") -> bool:
        link = self._links.get(WAN_LINK)
        return link is not None and link.up and node.address.peer_id in link.members

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
        self._inbound: deque[Connection] = deque()  # dialed in, not yet accepted, FIFO
        self._arrival = ker.Event()  # what accept() waits on; replaced after each set
        self._conns: dict[Connection, None] = {}  # insertion-ordered set

    def __repr__(self) -> str:
        return f"<SimNode {self.address.short()}>"

    def stop(self) -> None:
        """Take the node offline; existing connections drop and ``accept`` fails."""
        if self.stopped:
            return
        self.stopped = True
        self.network.trace.emit("node_stopped", node=self.address.short())
        for conn in list(self._conns):
            conn.drop("node-stopped")
        self._arrival.set()  # a task parked in accept() wakes to fail

    async def accept(self) -> "Connection":
        """Wait for the next inbound connection; DialError once the node is stopped."""
        while not self.stopped:
            if self._inbound:
                return self._inbound.popleft()
            await self._arrival.wait()
        raise DialError("node is stopped")

    async def dial(self, to: PeerAddress) -> "Connection":
        """Open a duplex stream to ``to``; one round trip before it returns."""
        if self.stopped:
            self._dial_failed(to, "dialer-stopped")
        if to.peer_id == self.address.peer_id:
            self._dial_failed(to, "self-dial")
        target = self.network.node_for(to.peer_id)
        if target is None:
            self._dial_failed(to, "unknown-peer")
        links = self.network.shared_live_links(self, target)
        if not links:
            self._dial_failed(to, "unreachable")
        link, network = links[0], self.network
        network._conn_seq += 1
        conn_id = f"c{network._conn_seq}"
        await ker.sleep(link.latency.draw(network._rng_latency))  # connect request travels
        if self.stopped:
            self._dial_failed(to, "dialer-stopped")
        if target.stopped or not link.up:
            self._dial_failed(to, "peer-down")
        local_end = Connection(conn_id, link, self)
        remote_end = local_end.peer = Connection(conn_id, link, target, peer=local_end)
        target._inbound.append(remote_end)
        target._arrival.set()
        target._arrival = ker.Event()
        network.trace.emit(
            "conn_open",
            conn=conn_id,
            src=self.address.short(),
            dst=to.short(),
            link=link.link_id,
        )
        await ker.sleep(link.latency.draw(network._rng_latency))  # accept response travels back
        if local_end.error is not None:
            raise DialError(f"connection lost during dial: {local_end.error}")
        return local_end

    def _dial_failed(self, to: PeerAddress, reason: str):
        self.network.trace.emit(
            "dial_failed", src=self.address.short(), dst=to.short(), reason=reason
        )
        raise DialError(f"cannot reach {to.short()}: {reason}")


class Connection:
    """One end of a duplex reliable stream: its inbox, and its send direction.

    ``dial`` makes both ends at once and links them through ``peer``; each
    end keeps the connection's id and link, and a drop errors both together.
    """

    def __init__(
        self, conn_id: str, link: VirtualLink, node: SimNode, peer: "Connection | None" = None
    ):
        self.conn_id = conn_id
        self.link = link
        self.node = node
        self.local = node.address
        self.peer = peer  # the other end; dial() makes its own end first, without one
        self.dialer = peer is None  # a drop wakes the dialer's end first
        self.error: str | None = None  # why the connection dropped, on both ends at once
        self.send_closed = False
        self.segments: deque = deque()  # delivered, unread; a part-read head is a memoryview
        self.eof = False
        self.floor = 0.0  # in-order delivery horizon
        self.activity = ker.Event()  # what recv() waits on; replaced after each set
        node._conns[self] = None

    def wake(self) -> None:
        self.activity.set()
        self.activity = ker.Event()

    @property
    def remote(self) -> PeerAddress:
        return self.peer.local

    def deliver(self, payload: bytes | None) -> None:
        """Queue ``payload`` (None is EOF) for this end; a drop before arrival discards it.

        The object itself is delivered, not a copy.
        """
        net = self.node.network
        self.floor = max(net.kernel.now() + self.link.latency.draw(net._rng_latency), self.floor)

        def arrive():
            if self.error is not None:
                return
            if payload is None:
                self.eof = True
            elif payload:
                self.segments.append(payload)
            self.wake()

        net.kernel.call_at(self.floor, arrive)

    def drop(self, reason: str) -> None:
        """Hard failure: kill in-flight data, error both ends, the dialer's first."""
        if self.error is not None:
            return
        for end in (self, self.peer) if self.dialer else (self.peer, self):
            end.error = reason
            end.wake()
            end.node._conns.pop(end, None)
        self.node.network.trace.emit("conn_drop", conn=self.conn_id, reason=reason)

    async def send(self, data: bytes) -> None:
        """Queue ``data`` for the peer; the connection takes ownership of it.

        No copy is made: the peer's reads return ``data`` itself or views of
        it, so the caller must not mutate it afterwards.
        """
        if self.error is not None:
            raise ConnectionLost(f"connection {self.conn_id} is down: {self.error}")
        if self.send_closed:
            raise ConnectionLost("send on closed connection")
        self.peer.deliver(data)

    async def recv(self, max_bytes: int = 65536) -> bytes:
        """Next bytes of at most one sent segment; b'' on clean EOF; ConnectionLost on drop.

        A segment that fits in ``max_bytes`` is returned whole, as the object
        the peer sent or a memoryview of its unread rest. A longer one gives a
        bytes copy of its first ``max_bytes`` and keeps a view of the rest.
        """
        segments = self.segments
        while True:
            if segments:
                head = segments[0]
                if len(head) <= max_bytes:
                    return segments.popleft()
                view = memoryview(head)
                segments[0] = view[max_bytes:]
                return bytes(view[:max_bytes])
            if self.error is not None:
                raise ConnectionLost(f"connection dropped: {self.error}")
            if self.eof:
                return b""
            await self.activity.wait()

    async def recv_exactly(self, n: int) -> bytes:
        """Exactly n bytes; EOF before n counts as a lost connection.

        When one ``recv`` returns them all, that result is returned as it is;
        only bytes that span segments are joined into a new bytes object.
        """
        parts = []
        missing = n
        while missing:
            chunk = await self.recv(missing)
            if not chunk:
                raise ConnectionLost("stream ended mid-message")
            parts.append(chunk)
            missing -= len(chunk)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    async def close(self) -> None:
        """Graceful shutdown of our sending direction (peer sees EOF)."""
        if self.error is None and not self.send_closed:
            self.send_closed = True
            self.peer.deliver(None)
        self.node._conns.pop(self, None)
        if self.error is None and self.peer.send_closed:
            self.node.network.trace.emit("conn_closed", conn=self.conn_id)

    def abort(self) -> None:
        """Hard drop; both ends observe a terminal stream error."""
        self.drop("reset")
