import os
import random

from pcp.kernel import sleep, spawn
from pcp.passphrase import Passphrase, generate_passphrase
from pcp.session import (
    PHASE_ORDER,
    receiver_query_keys,
    run_receiver,
    run_sender,
    sender_publish_key,
)

from conftest import accept_all, build_world, reject_all, run_pair


def _phases(world, role):
    return [e["phase"] for e in world.kernel.trace.events
            if e["event"] == "phase" and e["role"] == role]


class TestHappyPath:
    def test_transfer_completes_and_bytes_match(self, payload_file, tmp_path):
        world = build_world(seed=1)
        src = payload_file(100_000)
        dest = str(tmp_path / "inbox")
        s_out, r_out, code = run_pair(world, src, dest)
        assert s_out.status == "completed"
        assert r_out.status == "completed"
        got = open(r_out.path, "rb").read()
        assert got == open(src, "rb").read()
        assert code and len(code.split("-")) == 4

    def test_phase_sequences_are_monotone(self, payload_file, tmp_path):
        world = build_world(seed=2)
        run_pair(world, payload_file(1000), str(tmp_path / "inbox"))
        for role in ("sender", "receiver"):
            seen = _phases(world, role)
            indices = [PHASE_ORDER.index(p) for p in seen if p in PHASE_ORDER]
            assert indices == sorted(indices)
            assert seen[-1] == "done"
            assert seen[0] == "discovering"

    def test_sender_phases_on_accept(self, payload_file, tmp_path):
        world = build_world(seed=2)
        run_pair(world, payload_file(1000), str(tmp_path / "inbox"))
        assert _phases(world, "sender") == list(PHASE_ORDER)

    def test_completion_within_config_derived_bound(self, payload_file, tmp_path):
        world = build_world(seed=3)
        t0 = world.kernel.now()
        run_pair(world, payload_file(50_000), str(tmp_path / "inbox"),
                 receiver_delay=0.0)
        elapsed = world.kernel.now() - t0
        # generous closed-form bound: discovery poll + dht op + a dozen
        # lan hops for dial/handshake/transfer plus the code-wait polls
        bound = 0.25 + 0.2 + 12 * 0.005 + 0.5
        assert elapsed <= bound

    def test_single_winner_one_manifest(self, payload_file, tmp_path):
        world = build_world(seed=4)
        run_pair(world, payload_file(1000), str(tmp_path / "inbox"))
        manifests = [e for e in world.kernel.trace.events if e["event"] == "manifest_sent"]
        assert len(manifests) == 1


class TestTimingScenarios:
    def test_receiver_four_minutes_late_uses_previous_slot(self, payload_file, tmp_path):
        # sender publishes mid-slot; receiver starts 240 s later in the next
        # slot, so only its previous-slot query can find the record
        world = build_world(seed=5, start_time=1_700_000_000 + 200)
        cfg = world.config(discovery_deadline=400, republish_on_rollover=False)
        s_out, r_out, _ = run_pair(
            world, payload_file(5000), str(tmp_path / "inbox"),
            config=cfg, receiver_delay=240.0,
        )
        assert s_out.status == "completed"
        assert r_out.status == "completed"

    def test_receiver_starts_before_sender_publishes(self, payload_file, tmp_path):
        world = build_world(seed=6)
        cfg = world.config()
        sender, receiver = world.node(), world.node()
        src = payload_file(2000)
        dest = str(tmp_path / "inbox")
        code_box = []

        async def main():
            passphrase = generate_passphrase(4, random.Random(77))
            rt = spawn(run_receiver(receiver, cfg, passphrase.render(),
                                    dest_dir=dest, decide=accept_all))
            await sleep(10.0)  # receiver polls an empty world for a while
            st = spawn(run_sender(sender, cfg, src, passphrase=passphrase,
                                  on_code=code_box.append))
            return await st.join(), await rt.join()

        s_out, r_out = world.kernel.run(main())
        assert s_out.status == "completed"
        assert r_out.status == "completed"

    def test_sender_republish_on_rollover_keeps_discoverable(self, payload_file, tmp_path):
        # receiver arrives two slots after publish: only a re-published
        # record can be found
        world = build_world(seed=7, start_time=1_700_000_000 + 150)
        cfg = world.config(discovery_deadline=900)
        s_out, r_out, _ = run_pair(
            world, payload_file(3000), str(tmp_path / "inbox"),
            config=cfg, receiver_delay=650.0,
        )
        assert s_out.status == "completed"
        assert r_out.status == "completed"

    def test_publish_once_mode_times_out_after_two_slots(self, payload_file, tmp_path):
        world = build_world(seed=8, start_time=1_700_000_000 + 150)
        cfg = world.config(discovery_deadline=900, republish_on_rollover=False)
        recv_cfg = world.config(discovery_deadline=30, republish_on_rollover=False)
        s_out, r_out, _ = run_pair(
            world, payload_file(3000), str(tmp_path / "inbox"),
            config=cfg, receiver_delay=650.0, receive_config=recv_cfg,
        )
        assert r_out.status == "failed"
        assert r_out.reason == "not-found"

    def test_no_sender_times_out_not_found(self, tmp_path):
        world = build_world(seed=9)
        cfg = world.config(discovery_deadline=5)
        receiver = world.node()

        async def main():
            return await run_receiver(
                receiver, cfg, "abandon-zoo", dest_dir=str(tmp_path), decide=accept_all
            )

        out = world.kernel.run(main())
        assert out.status == "failed" and out.reason == "not-found"

    def test_sender_without_receiver_times_out(self, payload_file):
        world = build_world(seed=10)
        cfg = world.config(discovery_deadline=5)
        sender = world.node()

        async def main():
            return await run_sender(sender, cfg, payload_file(10))

        out = world.kernel.run(main())
        assert out.status == "failed" and out.reason == "timeout"


class TestAuthScenarios:
    def test_wrong_last_word_fails_then_right_receiver_succeeds(
        self, payload_file, tmp_path
    ):
        world = build_world(seed=11)
        cfg = world.config(discovery_deadline=40)
        recv_cfg = world.config(discovery_deadline=8)
        sender = world.node()
        wrong = world.node()
        right = world.node()
        src = payload_file(4000)
        code_box = []

        async def main():
            st = spawn(run_sender(sender, cfg, src, on_code=code_box.append))
            while not code_box:
                await sleep(0.01)
            words = code_box[0].split("-")
            perturbed = words[:-1] + ["zoo" if words[-1] != "zoo" else "zebra"]
            w_out = await run_receiver(
                wrong, recv_cfg, "-".join(perturbed),
                dest_dir=str(tmp_path / "wrong"), decide=accept_all,
            )
            assert w_out.status == "failed"
            assert w_out.reason == "auth-exhausted"
            # the sender survived the failed confirmation and is still serving
            r_out = await run_receiver(
                right, recv_cfg, code_box[0],
                dest_dir=str(tmp_path / "right"), decide=accept_all,
            )
            s_out = await st.join()
            return s_out, r_out

        s_out, r_out = world.kernel.run(main())
        assert s_out.status == "completed"
        assert r_out.status == "completed"
        fails = [e for e in world.kernel.trace.events if e["event"] == "auth_fail"]
        assert any(e["role"] == "sender" for e in fails)
        assert any(e["role"] == "receiver" for e in fails)

    def test_session_survives_a_stopped_backend(self, payload_file, tmp_path):
        # the global backend is down for the whole session; the local one
        # carries discovery alone and the transfer still completes
        world = build_world(seed=16)
        world.dht.stop()
        s_out, r_out, _ = run_pair(world, payload_file(2500), str(tmp_path / "inbox"))
        assert s_out.status == "completed"
        assert r_out.status == "completed"

    def test_receiver_decline_gives_rejected_on_both_sides(self, payload_file, tmp_path):
        world = build_world(seed=12)
        s_out, r_out, _ = run_pair(
            world, payload_file(1000), str(tmp_path / "inbox"), decide=reject_all
        )
        assert s_out.status == "rejected"
        assert r_out.status == "rejected"
        assert not os.path.exists(tmp_path / "inbox" / "payload.bin")

    def test_sender_phases_on_reject(self, payload_file, tmp_path):
        world = build_world(seed=12)
        run_pair(world, payload_file(1000), str(tmp_path / "inbox"), decide=reject_all)
        phases = [e for e in world.kernel.trace.events
                  if e["event"] == "phase" and e["role"] == "sender"]
        assert [e["phase"] for e in phases] == [
            "discovering", "authenticating", "awaiting-confirmation", "failed"
        ]
        assert phases[-1]["detail"] == "rejected"


class TestCollisionScenarios:
    def _same_channel_passphrases(self, count, seed=0):
        rng = random.Random(seed)
        words = []
        while len(words) < count:
            p = generate_passphrase(4, rng)
            candidate = Passphrase(("abandon",) + p.words[1:])
            if all(candidate.words != w.words for w in words):
                words.append(candidate)
        return words

    def test_two_pairs_same_channel_word_complete_independently(
        self, payload_file, tmp_path
    ):
        world = build_world(seed=13)
        cfg = world.config(discovery_deadline=40)
        p1, p2 = self._same_channel_passphrases(2, seed=5)
        src1, src2 = payload_file(9000, seed=1, name="one.bin"), payload_file(
            12_000, seed=2, name="two.bin"
        )
        dest1, dest2 = str(tmp_path / "d1"), str(tmp_path / "d2")

        async def main():
            s1 = world.node()
            s2 = world.node()
            r1 = world.node()
            r2 = world.node()
            t1 = spawn(run_sender(s1, cfg, src1, passphrase=p1))
            t2 = spawn(run_sender(s2, cfg, src2, passphrase=p2))
            await sleep(0.3)
            t3 = spawn(run_receiver(r1, cfg, p1.render(), dest_dir=dest1, decide=accept_all))
            t4 = spawn(run_receiver(r2, cfg, p2.render(), dest_dir=dest2, decide=accept_all))
            return await t1.join(), await t2.join(), await t3.join(), await t4.join()

        s1_out, s2_out, r1_out, r2_out = world.kernel.run(main())
        assert [o.status for o in (s1_out, s2_out, r1_out, r2_out)] == ["completed"] * 4
        assert open(r1_out.path, "rb").read() == open(src1, "rb").read()
        assert open(r2_out.path, "rb").read() == open(src2, "rb").read()

    def test_duplicate_senders_tie_break_on_peer_id(self, payload_file, tmp_path):
        # two senders share the FULL passphrase; with constant latencies both
        # confirmations land in the same virtual tick, so the receiver must
        # pick the lexicographically smaller peer id and close the other
        world = build_world(
            seed=14,
            lan_latency=(0.004, 0.004),
            dht_latency=(0.1, 0.1),
            mdns_latency=(0.005, 0.005),
        )
        cfg = world.config(discovery_deadline=30)
        phrase = Passphrase(("abandon", "zoo", "zoo", "zoo"))
        src = payload_file(2000)
        dest = str(tmp_path / "inbox")

        async def main():
            s1, s2, r = world.node(), world.node(), world.node()
            t1 = spawn(run_sender(s1, cfg, src, passphrase=phrase))
            t2 = spawn(run_sender(s2, cfg, src, passphrase=phrase))
            await sleep(2.0)
            rt = spawn(run_receiver(r, cfg, phrase.render(), dest_dir=dest,
                                    decide=accept_all))
            r_out = await rt.join()
            outcomes = {s1.address.peer_id: await t1.join(),
                        s2.address.peer_id: await t2.join()}
            return r_out, outcomes

        r_out, outcomes = world.kernel.run(main())
        assert r_out.status == "completed"
        winner_events = [e for e in world.kernel.trace.events
                         if e["event"] == "winner" and e["role"] == "receiver"]
        assert len(winner_events) == 1
        expected_winner = min(outcomes)  # lexicographic peer id
        assert winner_events[0]["peer"] == expected_winner[:8]
        assert outcomes[expected_winner].status == "completed"
        loser = max(outcomes)
        assert outcomes[loser].status == "failed"
        manifests = [e for e in world.kernel.trace.events if e["event"] == "manifest_sent"]
        assert len(manifests) == 1

    def test_late_provider_never_dialed_after_winner(self, payload_file, tmp_path):
        world = build_world(seed=15)
        cfg = world.config(discovery_deadline=40)
        phrase = Passphrase(("abandon", "zoo", "zebra", "wrap"))
        src = payload_file(1500)

        async def main():
            s1, r = world.node(), world.node()
            late = world.node()
            t1 = spawn(run_sender(s1, cfg, src, passphrase=phrase))
            await sleep(0.3)
            rt = spawn(run_receiver(r, cfg, phrase.render(),
                                    dest_dir=str(tmp_path / "inbox"), decide=accept_all))
            r_out = await rt.join()
            # a new provider shows up only after the receiver already finished
            t2 = spawn(run_sender(late, cfg, src, passphrase=phrase))
            await sleep(1.0)
            t2.cancel()
            t1_out = await t1.join()
            return r_out, t1_out, late.address.peer_id

        r_out, s_out, late_peer = world.kernel.run(main())
        assert r_out.status == "completed" and s_out.status == "completed"
        dials = [e for e in world.kernel.trace.events
                 if e["event"] == "conn_open" and e["dst"] == late_peer[:8]]
        assert dials == []


class TestSlotHelpers:
    def test_config_requires_a_backend(self):
        import pytest
        from pcp.session import SessionConfig

        with pytest.raises(ValueError):
            SessionConfig(backends=())

    def test_sender_key_is_current_slot(self):
        key = sender_publish_key(5, 1_700_000_123, 300)
        assert key.id_string == "/pcp/1700000100/5"

    def test_receiver_queries_current_and_previous(self):
        keys = receiver_query_keys(5, 1_700_000_123, 300)
        assert [k.id_string for k in keys] == [
            "/pcp/1700000100/5",
            "/pcp/1699999800/5",
        ]

    def test_receiver_near_epoch_has_single_key(self):
        keys = receiver_query_keys(9, 120, 300)
        assert [k.id_string for k in keys] == ["/pcp/0/9"]
