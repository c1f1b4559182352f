import pytest

from pcp.discovery import DEFAULT_TTL, SimulatedDht, SimulatedMdns
from pcp.errors import DialError
from pcp.kernel import Kernel, Scope, WaitTimeout, current_time, sleep, spawn
from pcp.simnet import SimulatedNetwork

K1 = bytes.fromhex("11" * 32)


def make(seed=0, **dht_kw):
    k = Kernel(seed=seed)
    net = SimulatedNetwork(k)
    net.create_link("lan0", latency=(0.001, 0.001))
    net.create_link("lan1", latency=(0.001, 0.001))
    dht = SimulatedDht(net, **({"op_latency": (0.05, 0.05), "query_interval": 0.1} | dht_kw))
    mdns = SimulatedMdns(net, op_latency=(0.002, 0.002), query_interval=0.05)
    return k, net, dht, mdns


async def collect(stream, within):
    """Read a provider stream in a ``within``-second scope; return what it found by then."""
    found = []
    try:
        async with Scope(within):
            while True:
                found.append(await stream.next())
    except WaitTimeout:
        return found


def test_default_ttl_is_24h():
    assert DEFAULT_TTL == 86_400


def test_provide_then_find_from_other_node():
    k, net, dht, _ = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await dht.provide(a, K1)
        found = await collect(dht.find_providers(b, K1), 2.0)
        assert [f.peer_id for f in found] == [a.address.peer_id]

    k.run(main())


@pytest.mark.parametrize("which", ["dht", "mdns"])
def test_record_expires_after_ttl(which):
    k, net, dht, mdns = make()
    backend = {"dht": dht, "mdns": mdns}[which]

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await backend.provide(a, K1)
        await sleep(DEFAULT_TTL + 1.0)
        assert await collect(backend.find_providers(b, K1), 0.5) == []
        # never reappears unless re-provided
        assert await collect(backend.find_providers(b, K1), 0.5) == []
        await backend.provide(a, K1)
        found = await collect(backend.find_providers(b, K1), 0.5)
        assert len(found) == 1

    k.run(main())


def test_provide_without_wan_is_lost_and_stores_nothing():
    k, net, dht, _ = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        net.partition("wan")
        await dht.provide(a, K1)
        net.partition("wan", severed=False)
        # the healed wan does not bring back a publish that went nowhere
        assert await collect(dht.find_providers(b, K1), 0.5) == []
        await dht.provide(a, K1)
        found = await collect(dht.find_providers(b, K1), 0.5)
        assert [f.peer_id for f in found] == [a.address.peer_id]

    k.run(main())
    publishes = [e["event"] for e in net.trace.events if e["event"] in ("provide", "provide_lost")]
    assert publishes == ["provide_lost", "provide"]


def test_reprovide_refreshes_publish_time():
    k, net, dht, _ = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await dht.provide(a, K1)
        await sleep(0.75 * DEFAULT_TTL)
        await dht.provide(a, K1)  # refresh
        await sleep(0.5 * DEFAULT_TTL)  # 1.25 TTLs after first publish, 0.5 after refresh
        found = await collect(dht.find_providers(b, K1), 0.5)
        assert len(found) == 1

    k.run(main())


def test_multiple_providers_reported():
    k, net, dht, _ = make()

    async def main():
        a = net.spawn_node(["lan0"])
        b = net.spawn_node(["lan0"])
        c = net.spawn_node(["lan1"])
        await dht.provide(a, K1)
        await dht.provide(c, K1)
        found = await collect(dht.find_providers(b, K1), 2.0)
        assert sorted(f.peer_id for f in found) == sorted(
            [a.address.peer_id, c.address.peer_id]
        )

    k.run(main())


def test_no_duplicate_yield_in_one_stream():
    k, net, dht, _ = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await dht.provide(a, K1)

        async def republish():
            for _ in range(5):
                await sleep(0.2)
                await dht.provide(a, K1)

        spawn(republish())
        found = await collect(dht.find_providers(b, K1), 1.5)
        assert len(found) == 1

    k.run(main())


def test_no_providers_empty_not_error():
    k, net, dht, _ = make()

    async def main():
        b = net.spawn_node(["lan0"])
        t0 = current_time()
        found = await collect(dht.find_providers(b, K1), 0.1)
        assert found == []
        assert current_time() - t0 >= 0.1 - 1e-6

    k.run(main())


def test_provider_published_after_query_start_is_found():
    k, net, dht, _ = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

        async def late_publish():
            await sleep(0.15)
            await dht.provide(a, K1)

        spawn(late_publish())
        addr = await dht.find_providers(b, K1).next()
        assert addr.peer_id == a.address.peer_id
        # found strictly after the publish completed, within a second
        assert 0.15 < current_time() - 1_700_000_000.0 <= 1.0

    k.run(main())


def test_unread_lookup_does_no_work():
    k, net, dht, _ = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await dht.provide(a, K1)
        dht.find_providers(b, K1)  # never read
        await sleep(2.0)

    k.run(main())
    assert [e for e in net.trace.events if e["event"] == "provider_found"] == []


def test_answer_landing_after_deadline_is_dropped():
    k, net, dht, _ = make(op_latency=(0.5, 0.5))

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await dht.provide(a, K1)
        with pytest.raises(WaitTimeout):
            async with Scope(0.3):
                await dht.find_providers(b, K1).next()
        await sleep(0.5)  # past the time the cancelled query's answer would have landed
        assert [e for e in net.trace.events if e["event"] == "provider_found"] == []
        # the record is there: a read that outlives one query finds it
        found = await collect(dht.find_providers(b, K1), 1.0)
        assert [f.peer_id for f in found] == [a.address.peer_id]

    k.run(main())


def test_read_without_a_bound_of_its_own_waits_for_a_late_provider():
    k, net, dht, _ = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

        async def late_publish():
            await sleep(5.0)
            await dht.provide(a, K1)

        spawn(late_publish())
        t0 = current_time()
        addr = await dht.find_providers(b, K1).next()
        assert addr.peer_id == a.address.peer_id
        assert current_time() - t0 > 5.0

    k.run(main())


@pytest.mark.parametrize("which", ["dht", "mdns"])
def test_querier_never_sees_itself(which):
    k, net, dht, mdns = make()
    backend = {"dht": dht, "mdns": mdns}[which]

    async def main():
        a = net.spawn_node(["lan0"])
        await backend.provide(a, K1)
        # own records are filtered; visible to peers only
        assert await collect(backend.find_providers(a, K1), 0.5) == []

    k.run(main())


def test_local_advertise_scope_isolation():
    k, net, _, mdns = make()

    async def main():
        a = net.spawn_node(["lan0"])
        b = net.spawn_node(["lan0"])
        c = net.spawn_node(["lan1"])
        await mdns.provide(a, K1)
        same = await collect(mdns.find_providers(b, K1), 0.5)
        other = await collect(mdns.find_providers(c, K1), 0.5)
        assert [f.peer_id for f in same] == [a.address.peer_id]
        assert other == []

    k.run(main())


def test_two_local_advertisers_both_reported():
    k, net, _, mdns = make()

    async def main():
        a = net.spawn_node(["lan0"])
        b = net.spawn_node(["lan0"])
        c = net.spawn_node(["lan0"])
        await mdns.provide(a, K1)
        await mdns.provide(c, K1)
        found = await collect(mdns.find_providers(b, K1), 0.5)
        assert sorted(f.peer_id for f in found) == sorted(
            [a.address.peer_id, c.address.peer_id]
        )

    k.run(main())


def test_stopped_backend_raises_unavailable():
    """A stopped backend raises nothing any more: it reaches no scope, as a stopped node
    reaches none itself, so a publish goes nowhere and every lookup finds nothing."""
    for which in ("dht", "mdns"):
        k, net, dht, mdns = make()
        backend = {"dht": dht, "mdns": mdns}[which]

        async def main():
            a, b, c = (net.spawn_node(["lan0"]) for _ in range(3))
            await backend.provide(a, K1)
            made_before = backend.find_providers(b, K1)
            backend.stop()
            await backend.provide(c, K1)
            # the store holds a's record from before the stop and nothing from c
            assert [set(by_key[K1]) for by_key in backend._records.values()] == [
                {a.address.peer_id}
            ]
            assert await collect(made_before, 0.5) == []
            assert await collect(backend.find_providers(b, K1), 0.5) == []
            return c.address.short()

        late = k.run(main())
        published = [
            (e["event"], e["backend"]) for e in net.trace.events
            if e["event"] in ("provide", "provide_lost", "advertise") and e["node"] == late
        ]
        assert published == ([("provide_lost", "dht")] if which == "dht" else [])


def test_backend_stopped_mid_lookup_raises_at_the_next_query():
    """A backend stopped mid-lookup raises nothing: the reader keeps what it found before
    the stop, finds no provider published after it, and its read ends with its own scope."""
    for which in ("dht", "mdns"):
        k, net, dht, mdns = make()
        backend = {"dht": dht, "mdns": mdns}[which]

        async def main():
            a, b, c = (net.spawn_node(["lan0"]) for _ in range(3))
            await backend.provide(a, K1)

            async def stopper():
                await sleep(0.3)
                backend.stop()
                await backend.provide(c, K1)

            spawn(stopper())
            t0 = current_time()
            found = await collect(backend.find_providers(b, K1), 1.0)
            assert [f.peer_id for f in found] == [a.address.peer_id]
            assert current_time() - t0 == pytest.approx(1.0)

        k.run(main())


def test_stopped_provider_reported_until_its_ttl():
    """A record outlives its provider, as in a real DHT; the dial is what fails."""
    k, net, dht, mdns = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await dht.provide(a, K1)
        await mdns.provide(a, K1)
        a.stop()
        for backend in (dht, mdns):
            found = await collect(backend.find_providers(b, K1), 0.5)
            assert [f.peer_id for f in found] == [a.address.peer_id]
        with pytest.raises(DialError):
            await b.dial(found[0])

    k.run(main())
    fails = [e["reason"] for e in net.trace.events if e["event"] == "dial_failed"]
    assert fails == ["peer-down"]


def test_stopped_node_neither_publishes_nor_finds():
    """A stopped node reaches no scope on either backend; a live one still finds the rest."""
    k, net, dht, mdns = make()

    async def main():
        a, b, c = (net.spawn_node(["lan0"]) for _ in range(3))
        b.stop()
        for backend in (dht, mdns):
            await backend.provide(a, K1)
            await backend.provide(b, K1)
            assert await collect(backend.find_providers(b, K1), 0.5) == []
            found = await collect(backend.find_providers(c, K1), 0.5)
            assert [f.peer_id for f in found] == [a.address.peer_id]
        return b.address.short()

    stopped = k.run(main())
    published = [
        (e["event"], e["backend"]) for e in net.trace.events
        if e["event"] in ("provide", "provide_lost", "advertise") and e["node"] == stopped
    ]
    assert published == [("provide_lost", "dht")]


def test_wan_partition_blinds_global_backend_only():
    k, net, dht, mdns = make()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await dht.provide(a, K1)
        await mdns.provide(a, K1)
        net.partition("wan")
        assert await collect(dht.find_providers(b, K1), 0.5) == []
        found = await collect(mdns.find_providers(b, K1), 0.5)
        assert [f.peer_id for f in found] == [a.address.peer_id]
        net.partition("wan", severed=False)
        found = await collect(dht.find_providers(b, K1), 0.5)
        assert [f.peer_id for f in found] == [a.address.peer_id]

    k.run(main())


def test_lossy_link_delays_but_does_not_prevent_discovery():
    k = Kernel(seed=4)
    net = SimulatedNetwork(k)
    net.create_link("lan0", latency=(0.001, 0.001), loss=0.7)
    mdns = SimulatedMdns(net, op_latency=(0.002, 0.002), query_interval=0.05)

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await mdns.provide(a, K1)
        found = await collect(mdns.find_providers(b, K1), 10.0)
        assert [f.peer_id for f in found] == [a.address.peer_id]

    k.run(main())


def test_local_backend_faster_than_global():
    k, net, dht, mdns = make(op_latency=(0.5, 0.5), query_interval=0.5)

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        await dht.provide(a, K1)
        await mdns.provide(a, K1)
        t0 = current_time()
        results = []

        async def probe(backend, tag):
            stream = backend.find_providers(b, K1)
            addr = await stream.next()
            results.append((current_time() - t0, tag, addr.peer_id))

        t1 = spawn(probe(mdns, "mdns"))
        t2 = spawn(probe(dht, "dht"))
        await t1.join()
        await t2.join()
        results.sort()
        assert [tag for _, tag, _ in results] == ["mdns", "dht"]

    k.run(main())
