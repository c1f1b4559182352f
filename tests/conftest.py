"""Shared helpers: prebuilt simulation worlds and a paired-session driver."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import pytest

from pcp import session
from pcp.discovery import SimulatedDht, SimulatedMdns
from pcp.kernel import DEFAULT_START_TIME, Kernel, spawn
from pcp.rendezvous import discovery_key, truncate_to_slot
from pcp.session import SessionConfig, run_receiver, run_sender
from pcp.simnet import SimulatedNetwork
from pcp.transfer import manifest_for_file, open_source, send_file


@dataclass
class World:
    kernel: Kernel
    net: SimulatedNetwork
    dht: SimulatedDht
    mdns: SimulatedMdns

    @property
    def backends(self):
        return (self.dht, self.mdns)

    def node(self, links=("lan0",)):
        return self.net.spawn_node(list(links))

    def config(self, **overrides) -> SessionConfig:
        base = dict(backends=self.backends, discovery_deadline=60.0)
        base.update(overrides)
        return SessionConfig(**base)


def build_world(
    seed: int = 0,
    *,
    start_time: float = DEFAULT_START_TIME,
    lan_latency=(0.001, 0.005),
    wan: bool = True,
    dht_latency=(0.05, 0.2),
    dht_interval: float = 0.25,
    mdns_latency=(0.002, 0.008),
    mdns_interval: float = 0.1,
    extra_links=(),
) -> World:
    kernel = Kernel(seed=seed, start_time=start_time)
    net = SimulatedNetwork(kernel, wan=wan)
    net.create_link("lan0", latency=lan_latency)
    for link_id in extra_links:
        net.create_link(link_id, latency=lan_latency)
    dht = SimulatedDht(net, op_latency=dht_latency, query_interval=dht_interval)
    mdns = SimulatedMdns(net, op_latency=mdns_latency, query_interval=mdns_interval)
    return World(kernel, net, dht, mdns)


def publish_only_slot_of(monkeypatch, unix_time: float) -> None:
    """Make every sender publish under one slot's key and never re-publish.

    A stand-in for a sender that stops re-publishing at a slot rollover, so a
    receiver can find it only through the slots it queries: the key always
    names the slot holding ``unix_time``, which the publisher has already
    published after its first pass. The key's slot follows the clock, so the
    publisher still sleeps to each slot boundary instead of polling.
    """

    def publish_key(channel: int, now: float):
        key = discovery_key(channel, truncate_to_slot(unix_time))
        return dataclasses.replace(key, slot=truncate_to_slot(now))

    monkeypatch.setattr(session, "sender_publish_key", publish_key)


async def send_path(chan, path: str):
    """``send_file`` of the file at ``path``, opened once for the hash and the body."""
    with open_source(path) as source:
        return await send_file(chan, source, manifest_for_file(path, source))


async def accept_all(manifest):
    return True


async def reject_all(manifest):
    return False


def run_pair(
    world: World,
    src_path: str,
    dest_dir: str,
    *,
    config: SessionConfig | None = None,
    receive_config: SessionConfig | None = None,
    receiver_delay: float = 0.2,
    decide=accept_all,
    passphrase=None,
    receive_words: str | None = None,
):
    """Drive one sender and one receiver to completion on the given world."""
    cfg = config or world.config()
    recv_cfg = receive_config or cfg
    sender = world.node()
    receiver = world.node()
    code_box: list[str] = []

    async def main():
        st = spawn(
            run_sender(sender, cfg, src_path, passphrase=passphrase,
                       on_code=code_box.append),
            name="sender",
        )
        from pcp.kernel import sleep

        while not code_box:
            await sleep(0.01)
        if receiver_delay > 0:
            await sleep(receiver_delay)
        words = receive_words if receive_words is not None else code_box[0]
        rt = spawn(
            run_receiver(receiver, recv_cfg, words, dest_dir=dest_dir, decide=decide),
            name="receiver",
        )
        receiver_out = await rt.join()
        sender_out = await st.join()
        return sender_out, receiver_out

    sender_out, receiver_out = world.kernel.run(main())
    return sender_out, receiver_out, code_box[0] if code_box else None


@pytest.fixture
def payload_file(tmp_path):
    """Factory writing deterministic pseudo-random payloads to disk."""

    def make(size: int, seed: int = 1234, name: str = "payload.bin") -> str:
        import random

        path = tmp_path / name
        path.write_bytes(random.Random(seed).randbytes(size))
        return str(path)

    return make
