import pytest
from hypothesis import given, settings, strategies as st

from pcp.errors import ConnectionLost, DialError, InvalidArgument
from pcp.kernel import Kernel, Scope, current_time, sleep, spawn
from pcp.simnet import SimulatedNetwork


def make_net(seed=0, *, wan=True, lan=(0.005, 0.005)):
    k = Kernel(seed=seed)
    net = SimulatedNetwork(k, wan=wan)
    net.create_link("lan0", latency=lan)
    return k, net


async def echo_once(node):
    conn = await node.accept()
    while True:
        data = await conn.recv()
        if not data:
            await conn.close()
            return
        await conn.send(data)


def test_dial_and_echo_roundtrip():
    k, net = make_net()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        spawn(echo_once(b))
        conn = await a.dial(b.address)
        await conn.send(b"ping")
        assert await conn.recv_exactly(4) == b"ping"
        await conn.close()
        assert await conn.recv() == b""

    k.run(main())


def test_fixed_latency_rtt():
    k, net = make_net(lan=(0.005, 0.005), wan=False)

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        spawn(echo_once(b))
        conn = await a.dial(b.address)
        t0 = current_time()
        await conn.send(b"x")
        await conn.recv_exactly(1)
        # abs tolerance: virtual unix-seconds floats quantize near 1e-7
        assert current_time() - t0 == pytest.approx(0.010, abs=1e-5)  # 2 x 5 ms

    k.run(main())


def test_dial_stopped_node_fails():
    k, net = make_net()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        b.stop()
        with pytest.raises(DialError):
            await a.dial(b.address)

    k.run(main())


def test_dialer_stopped_during_its_dial_gets_no_connection():
    k, net = make_net(lan=(0.010, 0.010), wan=False)

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

        async def stop_dialer():
            await sleep(0.005)  # halfway through the connect leg
            a.stop()

        spawn(stop_dialer())
        with pytest.raises(DialError):
            await a.dial(b.address)
        assert a._conns == {} and b._conns == {}
        assert len(b._inbound) == 0
        assert _dial_failures(k) == [
            {"src": a.address.short(), "dst": b.address.short(), "reason": "dialer-stopped"}
        ]

    k.run(main())


def test_dialer_stopped_before_it_dials_gets_a_traced_failure():
    k, net = make_net(wan=False)

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        a.stop()
        with pytest.raises(DialError):
            await a.dial(b.address)
        assert a._conns == {} and b._conns == {}
        assert len(b._inbound) == 0
        assert _dial_failures(k) == [
            {"src": a.address.short(), "dst": b.address.short(), "reason": "dialer-stopped"}
        ]

    k.run(main())


def test_accept_waits_for_the_first_connection_and_keeps_landing_order():
    k, net = make_net(wan=False)

    async def main():
        b = net.spawn_node(["lan0"])
        first, second = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        t0 = current_time()
        accepted = []

        async def acceptor():
            for _ in range(2):
                conn = await b.accept()
                accepted.append((conn.remote, current_time() - t0))

        spawn(acceptor())
        await sleep(0.002)  # the acceptor is parked before anyone dials
        assert accepted == []

        async def dial_after(node, delay):
            await sleep(delay)
            return await node.dial(b.address)

        dials = [spawn(dial_after(first, 0.0)), spawn(dial_after(second, 0.001))]
        for dial in dials:
            await dial.join()
        # each lands after its 5 ms connect leg, and accept returns in that tick
        assert [peer for peer, _ in accepted] == [first.address, second.address]
        assert [at for _, at in accepted] == [
            pytest.approx(0.007, abs=1e-5), pytest.approx(0.008, abs=1e-5)
        ]

    k.run(main())


def test_stopped_node_cannot_accept():
    k, net = make_net()

    async def main():
        b = net.spawn_node(["lan0"])
        b.stop()
        with pytest.raises(DialError):
            await b.accept()

    k.run(main())


def _dial_failures(k):
    return [
        {key: e[key] for key in ("src", "dst", "reason")}
        for e in k.trace.events
        if e["event"] == "dial_failed"
    ]


def test_disjoint_links_without_wan_unreachable():
    k = Kernel(seed=0)
    net = SimulatedNetwork(k, wan=False)
    net.create_link("lan0")
    net.create_link("lan1")

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan1"])
        with pytest.raises(DialError):
            await a.dial(b.address)

    k.run(main())


def test_unknown_link_rejected():
    k, net = make_net()
    with pytest.raises(InvalidArgument):
        net.spawn_node(["nope"])
    with pytest.raises(InvalidArgument):
        net.partition("nope")


def test_hundred_nodes_unique_peer_ids():
    k, net = make_net()
    ids = {net.spawn_node(["lan0"]).address.peer_id for _ in range(100)}
    assert len(ids) == 100
    assert all(len(i) == 32 for i in ids)


def test_in_order_delivery_under_jitter():
    k, net = make_net(seed=3, lan=(0.001, 0.050))

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

        async def server():
            conn = await b.accept()
            got = bytearray()
            while len(got) < 200:
                got.extend(await conn.recv())
            return bytes(got)

        srv = spawn(server())
        conn = await a.dial(b.address)
        for i in range(200):
            await conn.send(bytes([i % 256]))
        got = await srv.join()
        assert got == bytes(i % 256 for i in range(200))

    k.run(main())


@given(st.lists(st.binary(min_size=1, max_size=500), min_size=1, max_size=30),
       st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_stream_reliability_random_write_schedule(chunks, seed):
    k, net = make_net(seed=seed, lan=(0.001, 0.02))
    total = b"".join(chunks)

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

        async def server():
            conn = await b.accept()
            got = bytearray()
            while True:
                data = await conn.recv()
                if not data:
                    return bytes(got)
                got.extend(data)

        srv = spawn(server())
        conn = await a.dial(b.address)
        rng = k.rng("writer")
        for chunk in chunks:
            await conn.send(chunk)
            if rng.random() < 0.5:
                await sleep(rng.uniform(0, 0.01))
        await conn.close()
        assert await srv.join() == total

    k.run(main())


def test_partition_drops_both_ends_and_heals():
    k, net = make_net()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

        async def server():
            conn = await b.accept()
            with pytest.raises(ConnectionLost):
                while True:
                    await conn.recv()
            return True

        srv = spawn(server())
        conn = await a.dial(b.address)
        net.partition("wan")  # the lan connection must be unaffected
        await conn.send(b"still works")
        await sleep(0.1)
        net.partition("lan0")
        with pytest.raises(ConnectionLost):
            await conn.recv()
        assert await srv.join() is True
        with pytest.raises(DialError):
            await a.dial(b.address)
        net.partition("lan0", severed=False)
        spawn(echo_once(b))
        conn2 = await a.dial(b.address)
        await conn2.send(b"hi")
        assert await conn2.recv_exactly(2) == b"hi"

    k.run(main())


def test_partition_kills_in_flight_bytes():
    k, net = make_net(lan=(0.5, 0.5), wan=False)

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

        async def server():
            conn = await b.accept()
            with pytest.raises(ConnectionLost):
                await conn.recv()

        srv = spawn(server())
        conn = await a.dial(b.address)
        await conn.send(b"never arrives")  # 500 ms in flight
        await sleep(0.1)
        net.partition("lan0")
        await srv.join()

    k.run(main())


def test_abort_observable_by_peer():
    k, net = make_net()

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

        async def server():
            conn = await b.accept()
            with pytest.raises(ConnectionLost):
                await conn.recv()

        srv = spawn(server())
        conn = await a.dial(b.address)
        conn.abort()
        with pytest.raises(ConnectionLost):
            await conn.send(b"x")
        await srv.join()

    k.run(main())


def test_latency_draws_within_range_and_reproducible():
    def arrivals(seed):
        k, net = make_net(seed=seed, lan=(0.002, 0.040))
        times = []

        async def main():
            a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

            async def server():
                conn = await b.accept()
                for _ in range(30):
                    await conn.recv_exactly(1)
                    times.append(current_time())

            srv = spawn(server())
            conn = await a.dial(b.address)
            for _ in range(30):
                await conn.send(b"z")
                await sleep(0.1)
            await srv.join()

        k.run(main())
        return times

    first = arrivals(11)
    assert arrivals(11) == first
    assert arrivals(12) != first


def trace_of_scripted_run(seed):
    k, net = make_net(seed=seed)

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        spawn(echo_once(b))
        conn = await a.dial(b.address)
        await conn.send(b"abc")
        await conn.recv_exactly(3)
        await conn.close()
        c = net.spawn_node(["lan0"])
        c.stop()
        try:
            await a.dial(c.address)
        except DialError:
            pass
        net.partition("lan0")
        net.partition("lan0", severed=False)

    k.run(main())
    return k.trace.sha256()


def test_trace_determinism_same_seed():
    assert trace_of_scripted_run(21) == trace_of_scripted_run(21)


def test_trace_differs_across_seeds():
    assert trace_of_scripted_run(21) != trace_of_scripted_run(22)


def test_stop_wakes_a_task_parked_in_accept():
    k, net = make_net()

    async def main():
        b = net.spawn_node(["lan0"])

        async def stop_later():
            await sleep(1)
            b.stop()

        spawn(stop_later())
        with pytest.raises(DialError):
            async with Scope(3600):
                await b.accept()
        return current_time()

    assert k.run(main()) == k.now() == 1_700_000_001.0
