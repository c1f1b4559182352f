import errno
import mmap
import random
import weakref

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from pcp import auth, framing, transfer
from pcp.auth import PakeSecret, confirm_key, derive_session_keys, pake_handshake
from pcp.errors import (
    AuthenticationFailure,
    ChannelExhausted,
    ConnectionLost,
    DecryptError,
    HandshakeTimeout,
    ProtocolError,
)
from pcp.kernel import Kernel, sleep, spawn
from pcp.pake import ELEMENT_LEN, PakeParty, decode_element
from pcp.passphrase import generate_passphrase
from pcp.simnet import SimulatedNetwork

from relay import FrameRelay, TamperPlan

BINDING = "/pcp/1700000000/42"


def make_net(seed=0):
    k = Kernel(seed=seed)
    net = SimulatedNetwork(k, wan=False)
    net.create_link("lan0", latency=(0.001, 0.001))
    return k, net


async def _respond_ok(node, password, results, allowed):
    conn = await node.accept()
    keys, transcript, binding = await pake_handshake(
        conn,
        PakeSecret(password, ""),
        auth.ROLE_RESPONDER,
        node.kernel.rng("crypto"),
        allowed_bindings=allowed,
    )
    chan = await confirm_key(conn, keys, transcript)
    results.append((keys, chan, binding))


def _handshake_pair(k, net, pw_initiator, pw_responder, allowed):
    """Full exchange over the simnet; returns both ends' results or raises."""

    async def main():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        results = []
        resp = spawn(_respond_ok(b, pw_responder, results, allowed))
        conn = await a.dial(b.address)
        keys, transcript, _ = await pake_handshake(
            conn, PakeSecret(pw_initiator, BINDING), auth.ROLE_INITIATOR, k.rng("crypto")
        )
        chan = await confirm_key(conn, keys, transcript)
        await resp.join()
        return (keys, chan), results[0]

    return k.run(main())


class TestFramingGoldenVectors:
    def test_app_data_frame_bytes(self):
        assert framing.pack_frame(0x10, b"hello") == bytes.fromhex("0110") + bytes.fromhex(
            "00000005"
        ) + b"hello"

    def test_empty_payload_frame(self):
        assert framing.pack_frame(0x03, b"") == bytes.fromhex("010300000000")

    def test_pake_msg1_type_byte(self):
        frame = framing.pack_frame(0x01, b"\xaa")
        assert frame[0] == 0x01  # protocol version
        assert frame[1] == 0x01  # pake message 1
        assert frame[2:6] == (1).to_bytes(4, "big")

    def test_header_parse_roundtrip(self):
        frame = framing.pack_frame(0x02, b"xyz")
        ftype, length = framing.parse_header(frame[:6])
        assert (ftype, length) == (0x02, 3)

    def test_bad_version_rejected(self):
        with pytest.raises(ProtocolError):
            framing.parse_header(bytes.fromhex("021000000000"))

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError):
            framing.parse_header(bytes.fromhex("017700000000"))

    def test_oversized_length_rejected(self):
        with pytest.raises(ProtocolError):
            framing.parse_header(bytes.fromhex("0110ffffffff"))


def _header(frame_type, length):
    """A bare frame header, built here from the wire layout rather than by pcp."""
    return bytes((0x01, frame_type)) + length.to_bytes(4, "big")


def _conn_pair(net):
    """A raw simnet connection pair: (dialer's end, acceptor's end)."""

    async def pair():
        a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
        accepted = spawn(b.accept())
        conn = await a.dial(b.address)
        return conn, await accepted.join()

    return pair()


class TestFrameReading:
    def test_payload_of_a_frame_sent_whole_is_a_view_of_the_sent_object(self):
        k, net = make_net()

        async def main():
            a, b = await _conn_pair(net)
            frame = bytearray(framing.pack_frame(framing.TYPE_APP_DATA, b"zero-copy"))
            await a.send(frame)
            ftype, payload = await framing.read_frame(b, 64)
            assert ftype == framing.TYPE_APP_DATA
            assert payload == b"zero-copy"
            assert isinstance(payload, memoryview) and payload.obj is frame

        k.run(main())

    def test_frame_sent_in_one_byte_pieces_reassembles(self):
        k, net = make_net()
        frames = [
            framing.pack_frame(framing.TYPE_PAKE_MSG_2, bytes(range(40))),
            framing.pack_frame(framing.TYPE_CONFIRM_TAG, b""),
            framing.pack_frame(framing.TYPE_APP_DATA, b"tail"),
        ]

        async def main():
            a, b = await _conn_pair(net)
            for byte in b"".join(frames):
                await a.send(bytes([byte]))
            assert await framing.expect_frame(b, framing.TYPE_PAKE_MSG_2, 40) == bytes(range(40))
            assert await framing.expect_frame(b, framing.TYPE_CONFIRM_TAG, 32) == b""
            assert await framing.expect_frame(b, framing.TYPE_APP_DATA, 4) == b"tail"

        k.run(main())

    @pytest.mark.parametrize("cut", [3, framing.HEADER_LEN + 5])
    def test_eof_inside_a_frame_is_a_lost_connection(self, cut):
        k, net = make_net()

        async def main():
            a, b = await _conn_pair(net)
            await a.send(framing.pack_frame(framing.TYPE_APP_DATA, b"0123456789")[:cut])
            await a.close()
            with pytest.raises(ConnectionLost):
                await framing.read_frame(b, 64)

        k.run(main())

    def test_length_over_the_bound_fails_on_the_header(self):
        # only the header is ever sent: waiting for the payload would deadlock
        k, net = make_net()

        async def main():
            a, b = await _conn_pair(net)
            await a.send(_header(framing.TYPE_CONFIRM_TAG, 33))
            with pytest.raises(ProtocolError, match="bound"):
                await framing.expect_frame(b, framing.TYPE_CONFIRM_TAG, 32)

        k.run(main())


class TestPakeCore:
    def test_equal_passwords_agree(self):
        rng = random.Random(1)
        for _ in range(20):
            pw = generate_passphrase(4, rng).secret_bytes()
            a = PakeParty(pw, auth.ROLE_INITIATOR, BINDING, rng)
            b = PakeParty(pw, auth.ROLE_RESPONDER, BINDING, rng)
            assert a.derive(b.message()) == b.derive(a.message())

    def test_different_passwords_disagree(self):
        rng = random.Random(2)
        for _ in range(20):
            a = PakeParty(
                generate_passphrase(4, rng).secret_bytes(), auth.ROLE_INITIATOR, BINDING, rng
            )
            b = PakeParty(
                generate_passphrase(4, rng).secret_bytes(), auth.ROLE_RESPONDER, BINDING, rng
            )
            assert a.derive(b.message()) != b.derive(a.message())

    def test_different_bindings_disagree(self):
        rng = random.Random(3)
        pw = b"alfa-bravo-charlie-delta"
        a = PakeParty(pw, auth.ROLE_INITIATOR, "/pcp/0/1", rng)
        b = PakeParty(pw, auth.ROLE_RESPONDER, "/pcp/300/1", rng)
        assert a.derive(b.message()) != b.derive(a.message())

    def test_messages_are_fixed_length_and_validated(self):
        rng = random.Random(4)
        party = PakeParty(b"pw-pw", auth.ROLE_INITIATOR, BINDING, rng)
        assert len(party.message()) == ELEMENT_LEN
        with pytest.raises(ProtocolError):
            decode_element(b"\x00" * ELEMENT_LEN)  # zero is out of range
        with pytest.raises(ProtocolError):
            decode_element(b"\x01" + b"\x00" * (ELEMENT_LEN - 1))  # identity
        with pytest.raises(ProtocolError):
            decode_element(b"\xff" * ELEMENT_LEN)  # >= p
        with pytest.raises(ProtocolError):
            decode_element(b"\x00" * (ELEMENT_LEN - 1) + b"\x05")  # not in subgroup

    def test_key_agreement_property_thousand_passphrases(self):
        # module invariant: equal secrets => byte-equal directional keys
        rng = random.Random(20240202)
        for i in range(1000):
            pw = generate_passphrase(4, rng).secret_bytes()
            a = PakeParty(pw, auth.ROLE_INITIATOR, BINDING, rng)
            b = PakeParty(pw, auth.ROLE_RESPONDER, BINDING, rng)
            ka = derive_session_keys(a.derive(b.message()), auth.ROLE_INITIATOR)
            kb = derive_session_keys(b.derive(a.message()), auth.ROLE_RESPONDER)
            assert ka.k_send == kb.k_recv
            assert ka.k_recv == kb.k_send
            assert ka.k_confirm == kb.k_confirm
            assert len({ka.k_send, ka.k_recv, ka.k_confirm}) == 3


class TestHandshakeOverSimnet:
    def test_equal_secrets_yield_mirrored_keys(self):
        k, net = make_net()
        pw = b"alfa-bravo-charlie-delta"
        (keys_i, chan_i), (keys_r, chan_r, binding) = _handshake_pair(
            k, net, pw, pw, allowed={BINDING}
        )
        assert keys_i.k_send == keys_r.k_recv
        assert keys_i.k_recv == keys_r.k_send
        assert binding == BINDING

    def test_wrong_password_fails_at_confirm_on_both_sides(self):
        k, net = make_net()

        async def main():
            a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
            failures = []

            async def responder():
                conn = await b.accept()
                keys, transcript, _ = await pake_handshake(
                    conn, PakeSecret(b"alfa-bravo-charlie-echo", ""),
                    auth.ROLE_RESPONDER, k.rng("crypto"), allowed_bindings={BINDING},
                )
                try:
                    await confirm_key(conn, keys, transcript)
                except (AuthenticationFailure, ConnectionLost):
                    failures.append("responder")

            resp = spawn(responder())
            conn = await a.dial(b.address)
            keys, transcript, _ = await pake_handshake(
                conn, PakeSecret(b"alfa-bravo-charlie-delta", BINDING),
                auth.ROLE_INITIATOR, k.rng("crypto"),
            )
            with pytest.raises(AuthenticationFailure):
                await confirm_key(conn, keys, transcript)
            failures.append("initiator")
            await resp.join()
            assert sorted(failures) == ["initiator", "responder"]

        k.run(main())

    @pytest.mark.parametrize("allowed", [{"allowed_bindings": {"/pcp/600/9"}}, {}],
                             ids=["other-id", "none-given"])
    def test_unpublished_binding_refused_before_reply(self, allowed, monkeypatch):
        k, net = make_net()
        roles_built = []

        def spy_party(password, role, binding, rng):
            roles_built.append(role)
            return PakeParty(password, role, binding, rng)

        monkeypatch.setattr(auth, "PakeParty", spy_party)

        async def main():
            a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

            async def responder():
                conn = await b.accept()
                with pytest.raises(ProtocolError):
                    await pake_handshake(
                        conn, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER,
                        k.rng("crypto"), **allowed,
                    )
                assert roles_built == [auth.ROLE_INITIATOR]  # none for the responder

            resp = spawn(responder())
            conn = await a.dial(b.address)
            with pytest.raises((ProtocolError, ConnectionLost)):
                keys, transcript, _ = await pake_handshake(
                    conn, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR,
                    k.rng("crypto"),
                )
                await confirm_key(conn, keys, transcript)
            await resp.join()

        k.run(main())

    def test_handshake_timeout_when_peer_silent(self):
        k, net = make_net()

        async def main():
            a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])

            async def silent():
                await b.accept()
                await sleep(1000)

            spawn(silent())
            conn = await a.dial(b.address)
            with pytest.raises(HandshakeTimeout):
                await pake_handshake(
                    conn, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR,
                    k.rng("crypto"),
                )

        k.run(main())

    @pytest.mark.parametrize("announced", [2 + auth.MAX_BINDING_LEN + ELEMENT_LEN + 1,
                                           framing.MAX_PAYLOAD])
    def test_oversize_msg1_header_refused_before_its_payload(self, announced):
        k, net = make_net()

        async def main():
            a, b = await _conn_pair(net)
            await a.send(_header(framing.TYPE_PAKE_MSG_1, announced))
            t0 = k.now()
            with pytest.raises(ProtocolError):
                await pake_handshake(
                    b, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER, k.rng("crypto"),
                    allowed_bindings={BINDING},
                )
            assert k.now() - t0 < 0.01  # the header's one-way delay, not the timeout
            with pytest.raises(ConnectionLost):
                await a.recv()  # aborted

        k.run(main())

    def test_oversize_msg2_header_refused_before_its_payload(self):
        k, net = make_net()

        async def main():
            a, b = await _conn_pair(net)
            await b.send(_header(framing.TYPE_PAKE_MSG_2, ELEMENT_LEN + 1))
            with pytest.raises(ProtocolError):
                await pake_handshake(
                    a, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR, k.rng("crypto"),
                )
            with pytest.raises(ConnectionLost):
                await b.recv_exactly(1 << 20)  # msg1, then the abort

        k.run(main())

    def test_oversize_confirm_header_refused_before_its_payload(self):
        k, net = make_net()

        async def main():
            a, b = await _conn_pair(net)

            async def responder():
                await pake_handshake(
                    b, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER, k.rng("crypto"),
                    allowed_bindings={BINDING},
                )
                await b.send(_header(framing.TYPE_CONFIRM_TAG, 33))

            resp = spawn(responder())
            keys, transcript, _ = await pake_handshake(
                a, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR, k.rng("crypto")
            )
            await resp.join()
            with pytest.raises(ProtocolError):
                await confirm_key(a, keys, transcript)

        k.run(main())

    def test_binding_that_is_not_utf8_is_a_protocol_error(self):
        k, net = make_net()
        element = PakeParty(b"pw-pw", auth.ROLE_INITIATOR, "x", random.Random(1)).message()
        msg1 = (1).to_bytes(2, "big") + b"\xff" + element

        async def main():
            a, b = await _conn_pair(net)
            await a.send(framing.pack_frame(framing.TYPE_PAKE_MSG_1, msg1))
            with pytest.raises(ProtocolError):
                await pake_handshake(
                    b, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER, k.rng("crypto")
                )
            with pytest.raises(ConnectionLost):
                await a.recv()

        k.run(main())

    @pytest.mark.parametrize(
        "msg1, error",
        [
            (b"\x00", "truncated key-exchange message"),
            ((0).to_bytes(2, "big") + bytes(ELEMENT_LEN), "malformed key-exchange message"),
            ((auth.MAX_BINDING_LEN + 1).to_bytes(2, "big") + b"a" * auth.MAX_BINDING_LEN
             + bytes(ELEMENT_LEN), "malformed key-exchange message"),
            ((1).to_bytes(2, "big") + b"a" + bytes(ELEMENT_LEN + 1),
             "malformed key-exchange message"),
        ],
        ids=["truncated-length", "empty-binding", "binding-over-512-bytes", "length-mismatch"],
    )
    def test_malformed_msg1_refused_with_a_reset(self, msg1, error):
        k, net = make_net()

        async def main():
            a, b = await _conn_pair(net)
            await a.send(_header(framing.TYPE_PAKE_MSG_1, len(msg1)) + msg1)
            with pytest.raises(ProtocolError, match=error):
                await pake_handshake(
                    b, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER, k.rng("crypto"),
                    allowed_bindings={BINDING},
                )
            with pytest.raises(ConnectionLost):
                await a.recv()

        k.run(main())

    def test_short_msg2_refused_with_a_reset(self):
        k, net = make_net()

        async def main():
            a, b = await _conn_pair(net)
            short = bytes(ELEMENT_LEN - 1)
            await b.send(_header(framing.TYPE_PAKE_MSG_2, len(short)) + short)
            with pytest.raises(ProtocolError):
                await pake_handshake(
                    a, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR, k.rng("crypto"),
                )
            with pytest.raises(ConnectionLost):
                await b.recv_exactly(1 << 20)  # msg1, then the abort

        k.run(main())

    @pytest.mark.parametrize("plan", [
        TamperPlan(direction="fwd", frame_index=0, byte_index=100),  # pake msg 1
        TamperPlan(direction="rev", frame_index=0, byte_index=50),   # pake msg 2
        TamperPlan(direction="fwd", frame_index=0, byte_index=1, header=True),
        TamperPlan(direction="fwd", frame_index=1, byte_index=3),    # confirm tag
        TamperPlan(direction="rev", frame_index=1, byte_index=0),    # confirm tag
    ])
    def test_tampered_handshake_prevents_any_data_flow(self, plan):
        # whichever message gets flipped, at least one side fails key
        # confirmation, the connection drops, and no app data ever round-trips
        k, net = make_net()

        async def main():
            a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
            m = net.spawn_node(["lan0"])
            relay = FrameRelay(m, b.address, tamper=plan)
            relay.start()
            outcomes = []

            async def responder():
                conn = await b.accept()
                try:
                    keys, transcript, _ = await pake_handshake(
                        conn, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER,
                        k.rng("crypto"), allowed_bindings={BINDING},
                    )
                    chan = await confirm_key(conn, keys, transcript)
                    assert await chan.recv() == b"probe"
                    await chan.send(b"reply")
                    outcomes.append("responder-exchanged-data")
                except (AuthenticationFailure, ConnectionLost, ProtocolError,
                        HandshakeTimeout, DecryptError):
                    outcomes.append("responder-failed")

            resp = spawn(responder())
            conn = await a.dial(relay.address)
            try:
                keys, transcript, _ = await pake_handshake(
                    conn, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR,
                    k.rng("crypto"),
                )
                chan = await confirm_key(conn, keys, transcript)
                await chan.send(b"probe")
                assert await chan.recv() == b"reply"
                outcomes.append("initiator-exchanged-data")
            except (AuthenticationFailure, ConnectionLost, ProtocolError,
                    HandshakeTimeout, DecryptError):
                outcomes.append("initiator-failed")
            await resp.join()
            assert "responder-exchanged-data" not in outcomes
            assert "initiator-exchanged-data" not in outcomes
            assert "responder-failed" in outcomes and "initiator-failed" in outcomes

        k.run(main())


class TestSecureChannel:
    PW = b"alfa-bravo-charlie-delta"

    def _channel_pair(self, seed=0):
        k, net = make_net(seed=seed)
        (keys_i, chan_i), (keys_r, chan_r, _) = _handshake_pair(
            k, net, self.PW, self.PW, allowed={BINDING}
        )
        return k, chan_i, chan_r

    def test_seal_open_roundtrip(self):
        k, chan_i, chan_r = self._channel_pair()

        async def main():
            await chan_i.send(b"attack at dawn")
            assert await chan_r.recv() == b"attack at dawn"
            await chan_r.send(b"ack")
            assert await chan_i.recv() == b"ack"

        k.run(main())

    def test_seal_is_the_aead_of_the_plaintext_in_an_app_data_frame(self):
        k, net = make_net(seed=0)
        (keys_i, chan_i), _ = _handshake_pair(k, net, self.PW, self.PW, allowed={BINDING})
        plaintext = random.Random(2).randbytes(1000)
        expected = framing.pack_frame(
            framing.TYPE_APP_DATA,
            ChaCha20Poly1305(keys_i.k_send).encrypt(
                bytes(12), plaintext, auth.LABEL_SEND_INITIATOR
            ),
        )
        assert chan_i.seal(plaintext) == expected

    def test_reusing_the_plaintext_buffer_leaves_the_frame_unchanged(self):
        k, chan_i, chan_r = self._channel_pair()
        buffer = bytearray(b"first message")
        frame = chan_i.seal(memoryview(buffer))
        snapshot = bytes(frame)
        buffer[:] = b"second buffer"
        assert frame == snapshot
        assert chan_r.open(memoryview(frame)[framing.HEADER_LEN:]) == b"first message"

    def test_oversize_message_refused_without_spending_a_nonce(self):
        k, chan_i, chan_r = self._channel_pair()
        with pytest.raises(ProtocolError):
            chan_i.seal(bytes(framing.MAX_PAYLOAD))
        assert chan_i._send_counter == 0 and not chan_i.aborted
        frame = chan_i.seal(b"next")
        assert chan_r.open(frame[framing.HEADER_LEN:]) == b"next"

    def test_oversize_app_data_header_refused_before_its_payload(self):
        k, chan_i, chan_r = self._channel_pair()

        async def main():
            limit = 1 + 8 + transfer.MAX_CHUNK_SIZE + 16  # sub-type, offset, chunk, tag
            await chan_i.conn.send(_header(framing.TYPE_APP_DATA, limit + 1))
            with pytest.raises(ProtocolError):
                await chan_r.recv()
            assert chan_r.aborted
            with pytest.raises(ConnectionLost):
                await chan_i.conn.recv()

        k.run(main())

    def test_identical_plaintexts_encrypt_differently(self):
        _, chan_i, _ = self._channel_pair()
        f1 = chan_i.seal(b"same bytes")
        f2 = chan_i.seal(b"same bytes")
        assert f1 != f2  # distinct nonces
        assert chan_i._send_counter == 2

    def test_bit_flip_detected_and_terminal(self):
        k, chan_i, chan_r = self._channel_pair()
        frame = bytearray(chan_i.seal(b"payload"))
        frame[10] ^= 0x01
        with pytest.raises(DecryptError):
            chan_r.open(bytes(frame[6:]))
        assert chan_r.aborted
        with pytest.raises(DecryptError):
            chan_r.open(b"anything")  # no resynchronization

    def test_reordered_frame_rejected(self):
        k, chan_i, chan_r = self._channel_pair()
        first = chan_i.seal(b"one")
        second = chan_i.seal(b"two")
        with pytest.raises(DecryptError):
            chan_r.open(second[6:])  # counter mismatch

    def test_reflection_rejected(self):
        k, chan_i, chan_r = self._channel_pair()
        frame = chan_i.seal(b"mirror")
        with pytest.raises(DecryptError):
            chan_i.open(frame[6:])  # own frame bounced back

    def test_counter_exhaustion_aborts(self):
        k, chan_i, _ = self._channel_pair()
        chan_i._send_counter = 2**64
        with pytest.raises(ChannelExhausted):
            chan_i.seal(b"x")
        assert chan_i.aborted

    def test_held_frames_of_mixed_sizes_all_open_intact(self):
        _, chan_i, chan_r = self._channel_pair()
        rng = random.Random(7)
        plaintexts = [rng.randbytes(rng.choice((0, 1, 100, 4096, 65545, 200_000)))
                      for _ in range(320)]
        plaintexts[150] = rng.randbytes(auth.MAX_PLAINTEXT)
        frames = [chan_i.seal(p) for p in plaintexts]
        assert len({id(f.obj) for f in frames}) < len(frames)  # frames share slabs
        for frame, plaintext in zip(frames, plaintexts):
            assert framing.parse_header(frame[: framing.HEADER_LEN]) == (
                framing.TYPE_APP_DATA, len(plaintext) + 16
            )
            assert chan_r.open(frame[framing.HEADER_LEN :]) == plaintext

    def test_frames_of_a_16_MiB_body_come_from_few_mappings(self):
        _, chan_i, _ = self._channel_pair()
        chunk = bytes(transfer.CHUNK_HEADER_LEN + transfer.DEFAULT_CHUNK_SIZE)
        frames = [chan_i.seal(chunk) for _ in range(16 * 1024 * 1024 // len(chunk) + 1)]
        slabs = {id(f.obj): f.obj for f in frames}.values()
        assert len(slabs) <= 10
        huge = 2 * 1024 * 1024
        assert all(len(s) % huge == 0 for s in slabs if len(s) >= huge)

    def test_small_frames_share_one_small_slab(self):
        _, chan_i, _ = self._channel_pair()
        frames = [chan_i.seal(b"small message") for _ in range(3)]
        assert len({id(f.obj) for f in frames}) == 1
        assert len(frames[0].obj) <= 64 * 1024

    def test_slab_is_unmapped_once_its_frames_are_dropped(self):
        _, chan_i, _ = self._channel_pair()
        frame = chan_i.seal(b"first")
        slab = weakref.ref(frame.obj)
        later = chan_i.seal(bytes(100_000))  # too big for the rest of the first slab
        assert later.obj is not slab()
        assert slab() is not None  # still held by ``frame``
        del frame
        assert slab() is None

    def test_sealing_works_where_madvise_fails(self, monkeypatch):
        advised = []

        class NoHugePages(mmap.mmap):
            def madvise(self, *args):
                advised.append(args)
                raise OSError(errno.EINVAL, "no transparent huge pages")

        _, chan_i, chan_r = self._channel_pair()
        monkeypatch.setattr(auth.mmap, "mmap", NoHugePages)
        plaintexts = [bytes([i]) * auth.MAX_PLAINTEXT for i in range(2)]
        frames = [chan_i.seal(p) for p in plaintexts]
        assert advised
        for frame, plaintext in zip(frames, plaintexts):
            assert chan_r.open(frame[framing.HEADER_LEN :]) == plaintext

    def test_nonce_counters_strictly_monotone(self):
        k, chan_i, chan_r = self._channel_pair()

        async def main():
            for i in range(50):
                await chan_i.send(bytes([i]))
            for i in range(50):
                assert await chan_r.recv() == bytes([i])

        k.run(main())
        assert chan_i._send_counter == 50
        assert chan_r._recv_counter == 50

    def test_wire_confidentiality_no_plaintext_substring(self):
        # payload >= 1 KiB via a recording relay: no 16-byte window leaks
        k, net = make_net(seed=6)
        payload = random.Random(5).randbytes(2048)

        async def main():
            a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
            m = net.spawn_node(["lan0"])
            relay = FrameRelay(m, b.address)
            relay.start()

            async def responder():
                conn = await b.accept()
                keys, transcript, _ = await pake_handshake(
                    conn, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER,
                    k.rng("crypto"), allowed_bindings={BINDING},
                )
                chan = await confirm_key(conn, keys, transcript)
                got = await chan.recv()
                await chan.send(b"ok")
                return got

            resp = spawn(responder())
            conn = await a.dial(relay.address)
            keys, transcript, _ = await pake_handshake(
                conn, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR, k.rng("crypto")
            )
            chan = await confirm_key(conn, keys, transcript)
            await chan.send(payload)
            assert await chan.recv() == b"ok"
            assert await resp.join() == payload
            return bytes(relay.log.fwd) + bytes(relay.log.rev)

        wire = k.run(main())
        assert payload not in wire
        for i in range(0, len(payload) - 16):
            assert payload[i : i + 16] not in wire

    def test_at_most_two_round_trips_before_confirm(self):
        # message-visible contract: 0x01, 0x02, then one 0x03 each way
        k, net = make_net(seed=9)

        async def main():
            a, b = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
            m = net.spawn_node(["lan0"])
            relay = FrameRelay(m, b.address)
            relay.start()

            async def responder():
                conn = await b.accept()
                keys, transcript, _ = await pake_handshake(
                    conn, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER,
                    k.rng("crypto"), allowed_bindings={BINDING},
                )
                await confirm_key(conn, keys, transcript)

            resp = spawn(responder())
            conn = await a.dial(relay.address)
            keys, transcript, _ = await pake_handshake(
                conn, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR, k.rng("crypto")
            )
            await confirm_key(conn, keys, transcript)
            await resp.join()
            assert [t for t, _ in relay.log.fwd_frames] == [0x01, 0x03]
            assert [t for t, _ in relay.log.rev_frames] == [0x02, 0x03]

        k.run(main())
