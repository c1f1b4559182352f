import os
import random
import signal
import tracemalloc

import pytest

from pcp import auth, framing, pake, session
from pcp.kernel import Event, TaskCancelled, current_kernel, sleep, spawn
from pcp.passphrase import Passphrase, generate_passphrase
from pcp.rendezvous import receiver_query_keys, sender_publish_key
from pcp.session import PHASE_ORDER, run_receiver, run_sender

from conftest import accept_all, build_world, publish_only_slot_of, reject_all, run_pair


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

    def test_receiver_phases_on_accept(self, payload_file, tmp_path):
        world = build_world(seed=2)
        run_pair(world, payload_file(1000), str(tmp_path / "inbox"))
        assert _phases(world, "receiver") == list(PHASE_ORDER)

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
    def test_receiver_four_minutes_late_uses_previous_slot(
        self, payload_file, tmp_path, monkeypatch
    ):
        # sender publishes mid-slot and never again; receiver starts 240 s
        # later in the next slot, so only its previous-slot query can find
        # the record
        start = 1_700_000_000 + 200
        publish_only_slot_of(monkeypatch, start)
        world = build_world(seed=5, start_time=start)
        cfg = world.config(discovery_deadline=400)
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
        assert out.status == "failed" and out.reason == "not-found"
        assert out.detail == "discovery-timeout"


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

    def test_backend_stopped_after_the_publish_is_skipped_by_the_lookup(
        self, payload_file, tmp_path
    ):
        # the sender's record is already on the DHT, but the DHT is down by
        # the time the receiver looks: its lookup is skipped and mDNS
        # carries discovery alone
        world = build_world(seed=16)
        cfg = world.config()
        sender, receiver = world.node(), world.node()
        code_box = []

        async def main():
            st = spawn(run_sender(sender, cfg, payload_file(2500), on_code=code_box.append))
            while not code_box:
                await sleep(0.01)
            await sleep(1.0)  # well past the slowest DHT write
            world.dht.stop()
            rt = spawn(run_receiver(receiver, cfg, code_box[0],
                                    dest_dir=str(tmp_path / "inbox"), decide=accept_all))
            return await st.join(), await rt.join()

        s_out, r_out = world.kernel.run(main())
        assert (s_out.status, r_out.status) == ("completed", "completed")
        events = world.kernel.trace.events
        assert [e["backend"] for e in events if e["event"] == "provide"] == ["dht"]
        assert {e["backend"] for e in events if e["event"] == "provider_found"} == {"mdns"}

    def test_provider_stopped_before_the_dial_lands(self, payload_file, tmp_path):
        world = build_world(seed=17)
        cfg = world.config(discovery_deadline=5)
        sender, receiver = world.node(), world.node()
        code_box = []
        dial = receiver.dial

        async def dial_a_stopping_sender(addr):
            sender.stop()  # the connect request is already on its way
            return await dial(addr)

        receiver.dial = dial_a_stopping_sender

        async def main():
            st = spawn(run_sender(sender, cfg, payload_file(2500), on_code=code_box.append))
            while not code_box:
                await sleep(0.01)
            r_out = await run_receiver(receiver, cfg, code_box[0],
                                       dest_dir=str(tmp_path / "inbox"), decide=accept_all)
            return await st.join(), r_out

        # kernel.run raises if any task failed
        s_out, r_out = world.kernel.run(main())
        assert (r_out.status, r_out.reason) == ("failed", "not-found")
        assert (s_out.reason, s_out.detail) == ("not-found", "discovery-timeout")
        dials = [(e["event"], e.get("reason")) for e in world.kernel.trace.events
                 if e["event"] in ("dial_failed", "conn_open")]
        assert dials == [("dial_failed", "peer-down")]

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

    def test_receiver_phases_on_reject(self, payload_file, tmp_path):
        world = build_world(seed=12)
        run_pair(world, payload_file(1000), str(tmp_path / "inbox"), decide=reject_all)
        phases = [e for e in world.kernel.trace.events
                  if e["event"] == "phase" and e["role"] == "receiver"]
        assert [e["phase"] for e in phases] == [
            "discovering", "authenticating", "awaiting-confirmation", "failed"
        ]
        assert phases[-1]["detail"] == "rejected"


class TestDeadlineOutcomes:
    """How each role ends when its deadline passes without a confirmed peer."""

    @staticmethod
    def _last_phase(world, role):
        return [e for e in world.kernel.trace.events
                if e["event"] == "phase" and e["role"] == role][-1]

    def test_sender_alone_ends_in_discovery_timeout(self, payload_file):
        world = build_world(seed=10)
        sender = world.node()

        async def main():
            return await run_sender(sender, world.config(discovery_deadline=5), payload_file(10))

        out = world.kernel.run(main())
        assert (out.status, out.reason, out.detail) == ("failed", "not-found", "discovery-timeout")
        assert _phases(world, "sender") == ["discovering", "failed"]
        assert self._last_phase(world, "sender")["detail"] == "discovery-timeout"

    def test_receiver_alone_ends_in_not_found(self, tmp_path):
        world = build_world(seed=9)
        receiver = world.node()

        async def main():
            return await run_receiver(
                receiver, world.config(discovery_deadline=5), "abandon-zoo",
                dest_dir=str(tmp_path), decide=accept_all,
            )

        out = world.kernel.run(main())
        assert (out.status, out.reason) == ("failed", "not-found")
        assert _phases(world, "receiver") == ["discovering", "failed"]
        assert self._last_phase(world, "receiver")["detail"] == "not-found"

    def test_wrong_last_word_ends_in_auth_exhausted_and_sender_timeout(
        self, payload_file, tmp_path
    ):
        world = build_world(seed=11)
        phrase = Passphrase(("abandon", "zoo", "zebra", "wrap"))
        wrong = Passphrase(("abandon", "zoo", "zebra", "wolf"))
        s_out, r_out, _ = run_pair(
            world, payload_file(4000), str(tmp_path / "inbox"),
            config=world.config(discovery_deadline=10), passphrase=phrase,
            receive_config=world.config(discovery_deadline=8), receive_words=wrong.render(),
        )
        assert (r_out.status, r_out.reason) == ("failed", "auth-exhausted")
        assert _phases(world, "receiver") == ["discovering", "authenticating", "failed"]
        assert self._last_phase(world, "receiver")["detail"] == "auth-exhausted"
        assert (s_out.status, s_out.reason, s_out.detail) == (
            "failed", "not-found", "discovery-timeout"
        )
        assert _phases(world, "sender") == ["discovering", "authenticating", "failed"]
        assert self._last_phase(world, "sender")["detail"] == "discovery-timeout"


class TestCancelledSession:
    """A receiver whose session task is cancelled must not strand the sender.

    Each test cancels the receiver at one point of its lifecycle and checks
    that its confirmed channel is reset in that tick, so the sender learns
    of it at once instead of waiting for ever on a channel nobody reads.
    """

    @staticmethod
    def _run(world, src_path, dest_dir, *, decide=accept_all, arm=None, cancel_after=None):
        """Run one pair; cancel the receiver via ``arm(sender, receiver_task)`` or after a delay.

        Returns the sender's outcome and the virtual times of every reset.
        """
        sender, receiver = world.node(), world.node()
        codes: list[str] = []
        kernel = world.kernel

        async def main():
            st = spawn(run_sender(sender, world.config(), src_path, on_code=codes.append))
            while not codes:
                await sleep(0.01)
            rt = spawn(run_receiver(receiver, world.config(), codes[0],
                                    dest_dir=dest_dir, decide=decide))
            if arm is not None:
                arm(sender, rt)
            else:
                await sleep(cancel_after)
                rt.cancel()
            with pytest.raises(TaskCancelled):
                await rt.join()
            return await st.join()

        out = kernel.run(main())
        resets = [e["t"] for e in kernel.trace.events
                   if e["event"] == "conn_drop" and e["reason"] == "reset"]
        return out, resets

    @staticmethod
    def _cancel_on_confirm(monkeypatch, before_put: bool):
        """Cancel the receiver when its sender candidate joins the confirmed list.

        Cancelling just before the session is woken leaves the candidate
        listed while the session is parked in its wait. Cancelling in a
        callback queued just after the wake lands once the session has woken
        and yielded for same-tick arbitration.
        """
        armed = {}

        class Confirmation(Event):
            def __init__(self, confirmed):
                super().__init__()
                self.confirmed = confirmed

            def set(self):
                if self.confirmed[-1].peer_id != armed.get("sender"):
                    return super().set()
                kernel = current_kernel()
                armed["cancelled_at"] = kernel.now()
                if before_put:
                    armed["task"].cancel()
                    super().set()
                else:
                    super().set()
                    kernel.call_at(kernel.now(), armed["task"].cancel)

        init = session._Session.__init__

        def hooked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.any_confirmed = Confirmation(self.confirmed)

        monkeypatch.setattr(session._Session, "__init__", hooked_init)

        def arm(sender, receiver_task):
            armed.update(sender=sender.address.peer_id, task=receiver_task)

        return arm, armed

    def test_cancel_during_transfer_aborts_the_winning_channel(self, payload_file, tmp_path):
        async def slow_decide(manifest):
            await sleep(5.0)
            return True

        world = build_world(seed=3)
        t0 = world.kernel.now()
        out, resets = self._run(world, payload_file(1000), str(tmp_path),
                                decide=slow_decide, cancel_after=2.0)
        assert (out.status, out.reason) == ("aborted", "connection-lost")
        assert len(resets) == 1 and 2.0 < resets[0] - t0 < 2.1
        assert world.kernel.now() - resets[0] < 0.1  # the sender ended at once

    @pytest.mark.parametrize("before_put", [False, True], ids=["arbitrating", "queued"])
    def test_cancel_holding_a_confirmed_candidate_resets_it(
        self, before_put, payload_file, tmp_path, monkeypatch
    ):
        """The receiver confirms first: the reset reaches the sender still in confirmation.

        ``arbitrating``: the session is in the same-tick yield. ``queued``:
        it has not woken yet. Either way the candidate is still listed, and
        is aborted on the way out.
        """
        world = build_world(seed=3)
        arm, armed = self._cancel_on_confirm(monkeypatch, before_put)
        out, resets = self._run(world, payload_file(1000), str(tmp_path), arm=arm)
        assert resets == [round(armed["cancelled_at"], 6)]
        fails = [e for e in world.kernel.trace.events
                 if e["event"] == "auth_fail" and e["role"] == "sender"]
        assert len(fails) == 1 and fails[0]["t"] - resets[0] < 0.1
        # the sender hunts on to its deadline instead of hanging in transfer
        assert (out.status, out.reason) == ("failed", "not-found")


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

    def test_each_session_computes_its_password_values_once(
        self, payload_file, tmp_path, monkeypatch
    ):
        # 3 pairs on one channel word run 8 handshakes (16 parties) for 6
        # sessions, so some sessions run several with one password
        parties = []
        fixed_base = []
        arguments = []
        real_init, real_pow = pake.PakeParty.__init__, pake._pow

        def counting_init(self, *args):
            parties.append(args[1])
            real_init(self, *args)

        def counting_pow(base, exp):
            arguments.append((base, exp))
            if base in (pake._G, pake._M, pake._N):
                fixed_base.append((base, exp))
            return real_pow(base, exp)

        monkeypatch.setattr(pake.PakeParty, "__init__", counting_init)
        monkeypatch.setattr(pake, "_pow", counting_pow)
        world = build_world(seed=16)
        cfg = world.config(discovery_deadline=40)
        phrases = self._same_channel_passphrases(3, seed=6)
        srcs = [payload_file(3000 + i, seed=i, name=f"p{i}.bin") for i in range(3)]

        async def main():
            senders = [world.node() for _ in phrases]
            receivers = [world.node() for _ in phrases]
            tasks = [spawn(run_sender(n, cfg, src, passphrase=p))
                     for n, src, p in zip(senders, srcs, phrases)]
            await sleep(0.3)
            tasks += [spawn(run_receiver(n, cfg, p.render(), dest_dir=str(tmp_path / f"d{i}"),
                                         decide=accept_all))
                      for i, (n, p) in enumerate(zip(receivers, phrases))]
            return [await t.join() for t in tasks]

        outcomes = world.kernel.run(main())
        assert [o.status for o in outcomes] == ["completed"] * 6
        password_values = [c for c in fixed_base if c[0] != pake._G]
        # no password value is computed twice: each of the 6 sessions uses
        # at most its own blinding and unblinding term
        assert len(set(password_values)) == len(password_values) <= 2 * 6
        assert len(fixed_base) == len(parties) + len(password_values)
        assert (len(parties), len(password_values), len(fixed_base)) == (16, 12, 28)
        # the OpenSSL binding reads magnitudes: every base is reduced and
        # every exponent is positive and at most q
        assert arguments
        assert all(0 <= base < pake._P and 0 < exp <= pake._Q for base, exp in arguments)


class TestSlotHelpers:
    def test_config_requires_a_backend(self):
        import pytest
        from pcp.session import SessionConfig

        with pytest.raises(ValueError):
            SessionConfig(backends=())

    def test_sender_key_is_current_slot(self):
        key = sender_publish_key(5, 1_700_000_123)
        assert key.id_string == "/pcp/1700000100/5"

    def test_receiver_queries_current_and_previous(self):
        keys = receiver_query_keys(5, 1_700_000_123)
        assert [k.id_string for k in keys] == [
            "/pcp/1700000100/5",
            "/pcp/1699999800/5",
        ]

    def test_receiver_near_epoch_has_single_key(self):
        keys = receiver_query_keys(9, 120)
        assert [k.id_string for k in keys] == ["/pcp/0/9"]


class TestSenderStart:
    """What the sender checks before it shows its code, and when it hashes."""

    @staticmethod
    def _send_alone(path, monkeypatch, manifest=None):
        """Run a lone sender; returns its outcome and the order of code and hash."""
        order = []
        real_manifest = manifest or session.manifest_for_file

        def recording_manifest(*args):
            order.append("hash")
            return real_manifest(*args)

        monkeypatch.setattr(session, "manifest_for_file", recording_manifest)
        world = build_world(seed=10)
        sender = world.node()

        async def main():
            return await run_sender(
                sender, world.config(discovery_deadline=2), path,
                on_code=lambda code: order.append("code"),
            )

        return world.kernel.run(main()), order, world

    def test_code_is_shown_before_any_byte_is_hashed(self, payload_file, monkeypatch):
        out, order, _ = self._send_alone(payload_file(5000), monkeypatch)
        assert (out.status, out.reason, out.detail) == ("failed", "not-found", "discovery-timeout")
        assert order == ["code", "hash"]

    @pytest.mark.parametrize(
        "kind", ["missing", "directory", "name-with-backslash", "fifo", "device"]
    )
    def test_unsendable_file_fails_before_the_code(self, kind, tmp_path, monkeypatch):
        # a FIFO would block the open until a writer came, and /dev/zero
        # would be hashed for ever; the alarm turns such a hang into a failure
        path = {"missing": tmp_path / "absent.bin", "directory": tmp_path / "folder",
                "name-with-backslash": tmp_path / "a\\b.bin", "fifo": tmp_path / "pipe",
                "device": "/dev/zero"}[kind]
        if kind == "directory":
            path.mkdir()
        elif kind == "name-with-backslash":
            path.write_bytes(b"hello")
        elif kind == "fifo":
            os.mkfifo(path)

        def hung(signum, frame):
            pytest.fail(f"the sender blocked on {path}")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            out, order, world = self._send_alone(str(path), monkeypatch)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (out.status, out.reason) == ("failed", "io")
        assert out.detail.startswith(f"cannot send {str(path)!r}: ")
        if kind in ("directory", "fifo", "device"):
            assert out.detail.endswith(": not a regular file")
        assert order == []
        assert "session_start" not in [e["event"] for e in world.kernel.trace.events]

    def test_read_error_during_the_hash_ends_io_after_the_code(
        self, payload_file, monkeypatch
    ):
        def unreadable(*args):
            raise OSError("read failed")

        out, order, world = self._send_alone(payload_file(5000), monkeypatch, unreadable)
        assert (out.status, out.reason) == ("failed", "io")
        assert order == ["code", "hash"]
        assert "session_start" not in [e["event"] for e in world.kernel.trace.events]


class TestPreAuthentication:
    def test_oversize_msg1_announcements_stay_under_a_mebibyte(self, payload_file):
        # eight dialers each announce a 16 MiB message 1 and send 1 KiB of
        # it; the per-type frame bound refuses each at its header
        world = build_world(seed=21)
        sender = world.node()
        announced = (16 << 20).to_bytes(4, "big")
        header = bytes((framing.PROTOCOL_VERSION, framing.TYPE_PAKE_MSG_1)) + announced

        async def dialer():
            conn = await world.node().dial(sender.address)
            await conn.send(header + bytes(1024))

        async def main():
            task = spawn(run_sender(sender, world.config(discovery_deadline=5), payload_file(100)))
            await sleep(0.1)
            for _ in range(8):
                spawn(dialer())
            return await task.join()

        tracemalloc.start()
        try:
            out = world.kernel.run(main())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out.status, out.reason, out.detail) == ("failed", "not-found", "discovery-timeout")
        failures = [e for e in world.kernel.trace.events if e["event"] == "auth_fail"]
        assert [e["reason"] for e in failures] == ["ProtocolError"] * 8
        assert peak < 1 << 20, peak

    def test_silent_dialer_times_out_and_a_real_receiver_completes(
        self, payload_file, tmp_path
    ):
        # a node dials the sender and never sends message 1: the sender drops
        # it HANDSHAKE_TIMEOUT after the connection opens and keeps serving
        world = build_world(seed=22)
        cfg = world.config()
        sender, silent, receiver = world.node(), world.node(), world.node()
        code_box = []

        async def main():
            st = spawn(run_sender(sender, cfg, payload_file(2000), on_code=code_box.append))
            await sleep(0.1)
            await silent.dial(sender.address)
            await sleep(auth.HANDSHAKE_TIMEOUT + 1)
            r_out = await run_receiver(
                receiver, cfg, code_box[0], dest_dir=str(tmp_path / "inbox"), decide=accept_all
            )
            return await st.join(), r_out

        s_out, r_out = world.kernel.run(main())
        assert (s_out.status, r_out.status) == ("completed", "completed")
        events = world.kernel.trace.events
        opened = next(e for e in events
                      if e["event"] == "conn_open" and e["src"] == silent.address.short())
        failures = [e for e in events if e["event"] == "auth_fail"]
        assert [(e["role"], e["peer"], e["reason"]) for e in failures] == [
            ("sender", silent.address.short(), "HandshakeTimeout")
        ]
        assert failures[0]["t"] == pytest.approx(opened["t"] + auth.HANDSHAKE_TIMEOUT, abs=1e-5)
