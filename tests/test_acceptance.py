"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every test prints one "ACCEPTANCE <n> ... PASS" line on success (visible
with pytest -s or -rA); a failed assertion marks the criterion red. All
expected values come from independent oracles: digests recomputed from the
raw bytes in the test, slot arithmetic recomputed with plain integer math,
counts from set semantics.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from pcp import auth, cli
from pcp.auth import PakeSecret, confirm_key, pake_handshake
from pcp.errors import AuthenticationFailure, ConnectionLost
from pcp.kernel import sleep, spawn
from pcp.passphrase import Passphrase, generate_passphrase
from pcp.session import run_receiver, run_sender
from pcp.simworld import SimWorld
from pcp.wordlist import load_wordlist

from conftest import accept_all, build_world, publish_only_slot_of, run_pair, send_path
from relay import FrameRelay, TamperPlan


def _sha256_file(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_acceptance_1_end_to_end_happy_path(payload_file, tmp_path):
    """1 MiB seeded transfer: bytes and digest equal, under 5 s wall-clock."""
    started = time.perf_counter()
    world = build_world(seed=101)
    src = payload_file(1_048_576, seed=42)
    dest = str(tmp_path / "inbox")
    s_out, r_out, _ = run_pair(world, src, dest)
    wall = time.perf_counter() - started
    assert s_out.status == "completed"
    assert r_out.status == "completed"
    src_bytes = open(src, "rb").read()
    got_bytes = open(r_out.path, "rb").read()
    assert got_bytes == src_bytes
    assert hashlib.sha256(got_bytes).hexdigest() == hashlib.sha256(src_bytes).hexdigest()
    assert wall < 5.0, f"took {wall:.2f}s"
    print(f"\nACCEPTANCE 1 end-to-end 1 MiB happy path ({wall:.2f}s): PASS")


def test_acceptance_2_slot_boundary_exhaustion(tmp_path, monkeypatch):
    """All 600 receiver offsets; success iff slot delta is 0 or 300 s."""
    started = time.perf_counter()
    width = 300
    base = 1_700_000_100  # multiple of 300
    t_send = base + 150
    publish_only_slot_of(monkeypatch, t_send)  # the sender publishes at t_send only
    src = tmp_path / "tiny.bin"
    src.write_bytes(b"slot coverage payload")
    phrase = Passphrase(("abandon", "zoo", "zebra", "wrap"))
    results = {}
    for delta in range(600):
        world = build_world(seed=3000 + delta, start_time=float(t_send))
        cfg = world.config(discovery_deadline=615 + 30)
        recv_cfg = world.config(discovery_deadline=10)
        dest = tmp_path / f"inbox-{delta}"
        s_out, r_out, _ = run_pair(
            world, str(src), str(dest),
            config=cfg, receive_config=recv_cfg,
            receiver_delay=float(delta), passphrase=phrase,
        )
        results[delta] = (s_out.status, r_out.status)

    for delta, (s_status, r_status) in results.items():
        # independent oracle: plain integer slot arithmetic
        slot_delta = ((t_send + delta) // width) * width - (t_send // width) * width
        expected = slot_delta in (0, width)
        assert (r_status == "completed") == expected, (
            f"delta={delta}: slot_delta={slot_delta}, got receiver={r_status}"
        )
        assert (s_status == "completed") == expected, (
            f"delta={delta}: slot_delta={slot_delta}, got sender={s_status}"
        )
    wall = time.perf_counter() - started
    assert wall < 60.0, f"took {wall:.2f}s"
    successes = sum(1 for s, _ in results.values() if s == "completed")
    print(
        f"\nACCEPTANCE 2 slot-boundary exhaustion 600/600 cases "
        f"({successes} succeed, {600 - successes} fail as required, {wall:.1f}s): PASS"
    )


def test_acceptance_3_collision_safety_eight_pairs(tmp_path):
    """8 pairs share the channel word; every transfer stays inside its pair."""
    world = build_world(seed=103)
    cfg = world.config(discovery_deadline=120)
    rng = random.Random(8)
    wordlist = load_wordlist()
    phrases = []
    while len(phrases) < 8:
        tail = tuple(wordlist.words[rng.randrange(2048)] for _ in range(3))
        p = Passphrase(("abandon",) + tail)
        if all(p.words != q.words for q in phrases):
            phrases.append(p)

    sources, dests, pair_nodes = [], [], []
    for i, phrase in enumerate(phrases):
        src = tmp_path / f"pair{i}.bin"
        src.write_bytes(random.Random(500 + i).randbytes(20_000 + i * 1000))
        sources.append(str(src))
        dests.append(str(tmp_path / f"inbox{i}"))

    async def main():
        tasks = []
        for i, phrase in enumerate(phrases):
            sender, receiver = world.node(), world.node()
            pair_nodes.append((sender, receiver))
            tasks.append(spawn(run_sender(sender, cfg, sources[i], passphrase=phrase)))
        await sleep(0.5)
        for i, phrase in enumerate(phrases):
            tasks.append(
                spawn(
                    run_receiver(
                        pair_nodes[i][1], cfg, phrase.render(),
                        dest_dir=dests[i], decide=accept_all,
                    )
                )
            )
        return [await t.join() for t in tasks]

    outcomes = world.kernel.run(main())
    assert all(o.status == "completed" for o in outcomes), [o.status for o in outcomes]
    for i, r_out in enumerate(outcomes[8:]):
        assert _sha256_file(r_out.path) == _sha256_file(sources[i]), f"pair {i}"

    # cross-pair safety: every manifest frame stayed within its own pair
    allowed = {
        (s.address.short(), r.address.peer_id[:8]) for s, r in pair_nodes
    }
    manifest_events = [
        e for e in world.kernel.trace.events if e["event"] == "manifest_sent"
    ]
    assert len(manifest_events) == 8
    observed = {(e["src"], e["dst"]) for e in manifest_events}
    assert observed <= allowed
    assert len(observed) == 8
    print("\nACCEPTANCE 3 collision safety, 8 pairs, zero cross-pair manifests: PASS")


def test_acceptance_4_authentication_rejection():
    """1000 perturbed passphrases all fail confirmation; controls all pass."""
    world = build_world(seed=104, lan_latency=(0.001, 0.001))
    net = world.net
    wordlist = load_wordlist()
    rng = random.Random(77)
    BINDING = "/pcp/1700000000/0"

    async def one_attempt(a, b, pw_initiator: bytes, pw_responder: bytes):
        """Returns (initiator_failed, responder_failed, app_frames_possible)."""
        results = {}

        async def responder():
            conn = await b.accept()
            try:
                keys, transcript, _ = await pake_handshake(
                    conn, PakeSecret(pw_responder, ""), auth.ROLE_RESPONDER,
                    world.kernel.rng("crypto"), allowed_bindings={BINDING},
                )
                chan = await confirm_key(conn, keys, transcript)
                results["responder"] = chan
            except (AuthenticationFailure, ConnectionLost) as e:
                results["responder"] = e

        resp = spawn(responder())
        conn = await a.dial(b.address)
        try:
            keys, transcript, _ = await pake_handshake(
                conn, PakeSecret(pw_initiator, BINDING), auth.ROLE_INITIATOR,
                world.kernel.rng("crypto"),
            )
            chan = await confirm_key(conn, keys, transcript)
            results["initiator"] = chan
        except (AuthenticationFailure, ConnectionLost) as e:
            results["initiator"] = e
        await resp.join()
        return results

    async def main():
        a, b = world.node(), world.node()
        wrong_failures = 0
        control_failures = 0
        for i in range(1000):
            phrase = generate_passphrase(4, rng)
            words = list(phrase.words)
            pos = rng.randrange(4)
            replacement = wordlist.words[rng.randrange(2048)]
            while replacement == words[pos]:
                replacement = wordlist.words[rng.randrange(2048)]
            perturbed = words[:]
            perturbed[pos] = replacement
            results = await one_attempt(
                a, b,
                "-".join(perturbed).encode(),
                phrase.render().encode(),
            )
            init_failed = isinstance(results["initiator"], Exception)
            resp_failed = isinstance(results["responder"], Exception)
            if init_failed and resp_failed:
                wrong_failures += 1
            # neither side may ever have sent an app frame
            for side in results.values():
                if isinstance(side, auth.SecureChannel):
                    assert side._send_counter == 0
        for i in range(200):
            phrase = generate_passphrase(4, rng)
            results = await one_attempt(
                a, b, phrase.secret_bytes(), phrase.secret_bytes()
            )
            if isinstance(results["initiator"], Exception) or isinstance(
                results["responder"], Exception
            ):
                control_failures += 1
        return wrong_failures, control_failures

    wrong_failures, control_failures = world.kernel.run(main())
    assert wrong_failures == 1000, f"only {wrong_failures}/1000 rejected"
    assert control_failures == 0, f"{control_failures} control handshakes failed"
    print(
        "\nACCEPTANCE 4 authentication: 1000/1000 wrong-passphrase rejections, "
        "0/200 control failures, zero app frames: PASS"
    )


def test_acceptance_5_tamper_detection(tmp_path):
    """>=200 random single-byte flips after the handshake: always aborted."""
    from pcp.transfer import receive_file

    trials = 220
    rng = random.Random(55)
    payload = random.Random(56).randbytes(130_000)  # 2 full chunks + tail
    src = tmp_path / "t.bin"
    src.write_bytes(payload)

    for trial in range(trials):
        # rev = sender->receiver: manifest(2), chunks(3,4), end(5)
        # fwd = receiver->sender: accept(2)
        if rng.random() < 0.85:
            plan = TamperPlan(
                direction="rev",
                frame_index=rng.randrange(2, 6),
                byte_index=rng.randrange(1, 4096),
            )
        else:
            plan = TamperPlan(direction="fwd", frame_index=2, byte_index=rng.randrange(24))
        world = build_world(seed=9000 + trial, lan_latency=(0.001, 0.001))
        dest = str(tmp_path / f"inbox-{trial}")

        async def main():
            sender_node, receiver_node = world.node(), world.node()
            relay_node = world.node()
            relay = FrameRelay(relay_node, sender_node.address, tamper=plan)
            relay.start()
            box = {}

            async def send_side():
                conn = await sender_node.accept()
                keys, transcript, _ = await pake_handshake(
                    conn, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER,
                    world.kernel.rng("crypto"), allowed_bindings={"/pcp/1700000000/0"},
                )
                chan = await confirm_key(conn, keys, transcript)
                box["sender"] = await send_path(chan, str(src))

            st = spawn(send_side())
            conn = await receiver_node.dial(relay.address)
            keys, transcript, _ = await pake_handshake(
                conn, PakeSecret(b"pw-pw", "/pcp/1700000000/0"), auth.ROLE_INITIATOR,
                world.kernel.rng("crypto"),
            )
            chan = await confirm_key(conn, keys, transcript)
            box["receiver"] = await receive_file(chan, accept_all, dest)
            await st.join()
            return box

        box = world.kernel.run(main())
        assert box["receiver"].status == "aborted", (plan, box)
        assert box["sender"].status != "completed", (plan, box)
        assert not os.path.isdir(dest) or os.listdir(dest) == [], (plan, dest)
    print(f"\nACCEPTANCE 5 tamper detection {trials}/{trials} aborts, no files: PASS")


def test_acceptance_6_local_backend_always_wins(payload_file, tmp_path):
    """5 ms local vs 500 ms DHT: the local path wins 100 of 100 seeded runs."""
    src = payload_file(10_000)
    for run in range(100):
        world = build_world(
            seed=20_000 + run,
            lan_latency=(0.005, 0.005),
            dht_latency=(0.5, 0.5),
            dht_interval=0.5,
            mdns_latency=(0.005, 0.005),
            mdns_interval=0.05,
        )
        dest = str(tmp_path / f"inbox-{run}")
        t0 = world.kernel.now()
        s_out, r_out, _ = run_pair(world, src, dest, receiver_delay=0.0)
        assert r_out.status == "completed"
        events = world.kernel.trace.events
        winner = next(e for e in events if e["event"] == "winner" and e["role"] == "receiver")
        first_found = next(
            e for e in events
            if e["event"] == "provider_found" and e["provider"] == winner["peer"]
        )
        assert first_found["backend"] == "mdns", (run, first_found)
        # confirmed before the global backend could even answer once
        assert winner["t"] - t0 < 0.5, (run, winner["t"] - t0)
    print("\nACCEPTANCE 6 local-vs-global ordering 100/100 via local backend: PASS")


def test_acceptance_7_edge_size_transfers(tmp_path):
    """Sizes 0, 1, 65535, 65536, 65537 all verify end to end."""
    for size in (0, 1, 65_535, 65_536, 65_537):
        world = build_world(seed=300 + size % 1000)
        src = tmp_path / f"edge-{size}.bin"
        src.write_bytes(random.Random(size).randbytes(size))
        dest = str(tmp_path / f"inbox-{size}")
        s_out, r_out, _ = run_pair(world, str(src), dest)
        assert s_out.status == r_out.status == "completed", size
        assert r_out.bytes_received == size
        assert r_out.digest_verified
        got = open(r_out.path, "rb").read()
        assert got == src.read_bytes()
    print("\nACCEPTANCE 7 edge-size transfers {0,1,65535,65536,65537}: PASS")


def _scenario_battery(seed: int, root: str) -> str:
    """A fixed multi-scenario simnet suite; returns the trace hash."""
    os.makedirs(root, exist_ok=True)

    # scenario A: happy path
    world = build_world(seed=seed)
    src = os.path.join(root, "a.bin")
    with open(src, "wb") as f:
        f.write(random.Random(seed).randbytes(150_000))
    run_pair(world, src, os.path.join(root, "inbox-a"))
    hashes = [world.kernel.trace.sha256()]

    # scenario B: wrong last word, then a successful retry
    world = build_world(seed=seed + 1)
    phrase = Passphrase(("abandon", "zoo", "zebra", "wrap"))
    wrong = Passphrase(("abandon", "zoo", "zebra", "wolf"))
    run_pair(
        world, src, os.path.join(root, "inbox-b"),
        passphrase=phrase, receive_words=wrong.render(),
        config=world.config(discovery_deadline=10),
    )
    hashes.append(world.kernel.trace.sha256())

    # scenario C: two colliding pairs
    world = build_world(seed=seed + 2)
    cfg = world.config(discovery_deadline=60)
    p1 = Passphrase(("abandon", "able", "able", "able"))
    p2 = Passphrase(("abandon", "zoo", "zoo", "zoo"))

    async def collision():
        s1, s2, r1, r2 = (world.node() for _ in range(4))
        t1 = spawn(run_sender(s1, cfg, src, passphrase=p1))
        t2 = spawn(run_sender(s2, cfg, src, passphrase=p2))
        await sleep(0.4)
        t3 = spawn(run_receiver(r1, cfg, p1.render(),
                                dest_dir=os.path.join(root, "inbox-c1"), decide=accept_all))
        t4 = spawn(run_receiver(r2, cfg, p2.render(),
                                dest_dir=os.path.join(root, "inbox-c2"), decide=accept_all))
        for t in (t1, t2, t3, t4):
            await t.join()

    world.kernel.run(collision())
    hashes.append(world.kernel.trace.sha256())

    # scenario D: partition mid-transfer
    world = build_world(seed=seed + 3, lan_latency=(0.004, 0.05))
    progressed = []

    async def partitioned():
        cfg2 = world.config(discovery_deadline=20)
        sender, receiver = world.node(), world.node()
        code = []
        st = spawn(run_sender(sender, cfg2, src, on_code=code.append))
        while not code:
            await sleep(0.01)

        async def cutter():
            while len(progressed) < 2:
                await sleep(0.001)
            world.net.partition("lan0")
            world.net.partition("wan")

        spawn(cutter())
        rt = spawn(
            run_receiver(
                receiver, cfg2, code[0], dest_dir=os.path.join(root, "inbox-d"),
                decide=accept_all, progress=lambda d, t: progressed.append(d),
            )
        )
        await rt.join()
        await st.join()

    world.kernel.run(partitioned())
    hashes.append(world.kernel.trace.sha256())

    return hashlib.sha256("".join(hashes).encode()).hexdigest()


def test_acceptance_8_deterministic_traces(tmp_path):
    """Same seed, same battery, byte-identical event traces, twice."""
    h1 = _scenario_battery(1234, str(tmp_path / "run1"))
    h2 = _scenario_battery(1234, str(tmp_path / "run2"))
    assert h1 == h2
    h3 = _scenario_battery(4321, str(tmp_path / "run3"))
    assert h3 != h1
    print(f"\nACCEPTANCE 8 determinism: identical trace hash {h1[:16]}…: PASS")


def test_acceptance_9_cli_round_trip(tmp_path):
    """Printed passphrase piped into `pcp receive --yes --sim-config …`."""
    sim_cfg = {
        "seed": 17,
        "links": {"lan0": {"latency_ms": [1, 4]}},
        "dht": {"op_latency_ms": [50, 150], "query_interval_ms": 200},
        "mdns": {"op_latency_ms": [2, 6], "query_interval_ms": 100},
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(sim_cfg))

    # in-process: send's stdout code becomes receive's argv on one kernel
    world = SimWorld.load(str(cfg_path))
    parser = cli.build_parser()
    payload = random.Random(17).randbytes(300_000)
    src = tmp_path / "file.bin"
    src.write_bytes(payload)
    inbox = tmp_path / "inbox"
    send_out, recv_out = io.StringIO(), io.StringIO()

    async def scenario():
        send_args = parser.parse_args(["send", "--sim-config", str(cfg_path), str(src)])
        send_task = world.kernel.spawn(cli.send_command(send_args, world, send_out))
        code = None
        while code is None:
            await sleep(0.05)
            for line in send_out.getvalue().splitlines():
                if line.startswith(cli.CODE_PREFIX):
                    code = line[len(cli.CODE_PREFIX):]
        recv_args = parser.parse_args(
            ["receive", "--yes", "--dir", str(inbox), "--sim-config", str(cfg_path), code]
        )
        recv_rc = await cli.receive_command(recv_args, world, recv_out)
        return await send_task.join(), recv_rc

    send_rc, recv_rc = world.kernel.run(scenario())
    assert send_rc == 0 and recv_rc == 0
    assert (inbox / "file.bin").read_bytes() == payload

    # and through the real console entry point in a fresh OS process
    result = subprocess.run(
        [sys.executable, "-m", "pcp", "simulate", "--sim-config", str(cfg_path),
         "--scenario", "transfer", "--size", "50000"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "send exit 0, receive exit 0" in result.stdout
    print("\nACCEPTANCE 9 CLI round trip (in-process + subprocess): PASS")
