import hashlib
import os
import random

import pytest

from pcp import auth, transfer
from pcp.auth import PakeSecret, confirm_key, pake_handshake
from pcp.errors import InvalidArgument, ProtocolError
from pcp.kernel import Kernel, sleep, spawn
from pcp.simnet import SimulatedNetwork
from pcp.transfer import (
    EMPTY_SHA256,
    TransferManifest,
    manifest_for_file,
    receive_file,
    send_file,
)

BINDING = "/pcp/1700000000/7"


def _no_partials(dest_dir):
    if not os.path.isdir(dest_dir):
        return True
    return all(not n.startswith(".partial-") for n in os.listdir(dest_dir))


class TestManifest:
    def test_canonical_encoding_golden(self):
        m = TransferManifest(
            name="paper.pdf",
            size=1_048_576,
            sha256_hex="ab" * 32,
            chunk_size=65536,
        )
        expected = (
            b'{"chunk":65536,"name":"paper.pdf","sha256":"'
            + b"ab" * 32
            + b'","size":1048576}'
        )
        assert m.encode() == expected

    def test_decode_roundtrip(self):
        m = TransferManifest("a.bin", 7, "00" * 32, 1024)
        assert TransferManifest.decode(m.encode()) == m

    def test_decode_rejects_extra_or_missing_keys(self):
        with pytest.raises(ProtocolError):
            TransferManifest.decode(b'{"name":"a","size":1}')
        with pytest.raises(ProtocolError):
            TransferManifest.decode(
                b'{"chunk":1,"extra":1,"name":"a","sha256":"' + b"00" * 32 + b'","size":0}'
            )
        with pytest.raises(ProtocolError):
            TransferManifest.decode(b"not json at all")

    @pytest.mark.parametrize("bad", ["../../etc/passwd", "a/b", "a\\b", ".", "..", "", "x\x00y"])
    def test_path_escape_names_rejected(self, bad):
        with pytest.raises(InvalidArgument):
            TransferManifest(bad, 1, "00" * 32)

    def test_decoded_malicious_name_rejected(self):
        doc = b'{"chunk":1,"name":"../evil","sha256":"' + b"00" * 32 + b'","size":0}'
        with pytest.raises(ProtocolError):
            TransferManifest.decode(doc)

    def test_overlong_name_rejected(self):
        with pytest.raises(InvalidArgument):
            TransferManifest("x" * 256, 1, "00" * 32)

    def test_bad_digest_format_rejected(self):
        with pytest.raises(InvalidArgument):
            TransferManifest("a", 1, "zz" * 32)
        with pytest.raises(InvalidArgument):
            TransferManifest("a", 1, "ab" * 16)

    def test_empty_file_manifest_has_wellknown_digest(self, tmp_path):
        # sha256 of empty input, cross-checked with an external digest tool
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        m = manifest_for_file(str(p))
        assert m.size == 0
        assert m.sha256_hex == EMPTY_SHA256
        assert (
            EMPTY_SHA256
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_manifest_for_file(self, tmp_path):
        payload = random.Random(3).randbytes(100_000)
        p = tmp_path / "data.bin"
        p.write_bytes(payload)
        m = manifest_for_file(str(p), chunk_size=4096)
        assert m.size == 100_000
        assert m.sha256_hex == hashlib.sha256(payload).hexdigest()
        assert m.name == "data.bin"
        assert m.chunk_size == 4096


class _ChannelFixture:
    """A confirmed secure-channel pair over the simnet."""

    def __init__(self, seed=0, latency=(0.001, 0.001)):
        self.kernel = Kernel(seed=seed)
        self.net = SimulatedNetwork(self.kernel, wan=False)
        self.net.create_link("lan0", latency=latency)
        self.a = self.net.spawn_node(["lan0"])
        self.b = self.net.spawn_node(["lan0"])

    async def channels(self):
        box = {}

        async def responder():
            conn = await self.b.accept()
            keys, transcript, _ = await pake_handshake(
                conn, PakeSecret(b"pw-pw", ""), auth.ROLE_RESPONDER,
                self.kernel.rng("crypto"), allowed_bindings=None,
            )
            box["responder"] = await confirm_key(conn, keys, transcript)

        resp = spawn(responder())
        conn = await self.a.dial(self.b.address)
        keys, transcript, _ = await pake_handshake(
            conn, PakeSecret(b"pw-pw", BINDING), auth.ROLE_INITIATOR,
            self.kernel.rng("crypto"),
        )
        chan_i = await confirm_key(conn, keys, transcript)
        await resp.join()
        return box["responder"], chan_i  # (sender side, receiver side)


async def accept_all(manifest):
    return True


async def reject_all(manifest):
    return False


def _run_transfer(payload: bytes, tmp_path, decide=accept_all, chunk_size=65536, seed=0):
    fx = _ChannelFixture(seed=seed)
    src = tmp_path / "src.bin"
    src.write_bytes(payload)
    dest = str(tmp_path / "inbox")

    async def main():
        chan_s, chan_r = await fx.channels()
        st = spawn(send_file(chan_s, str(src), manifest_for_file(str(src), chunk_size)))
        rt = spawn(receive_file(chan_r, decide, dest, decision_timeout=60))
        return await st.join(), await rt.join(), chan_s

    s_out, r_out, chan_s = fx.kernel.run(main())
    return s_out, r_out, dest, chan_s


class TestEndToEnd:
    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 3 * 1024 * 1024])
    def test_sizes_roundtrip_with_digest(self, size, tmp_path):
        payload = random.Random(size).randbytes(size)
        s_out, r_out, dest, _ = _run_transfer(payload, tmp_path)
        assert s_out.status == r_out.status == "completed"
        assert r_out.bytes_received == size
        assert r_out.digest_verified and s_out.digest_verified
        got = open(r_out.path, "rb").read()
        assert got == payload
        assert hashlib.sha256(got).hexdigest() == hashlib.sha256(payload).hexdigest()
        assert _no_partials(dest)

    def test_exact_chunk_frame_count_for_1mib(self, tmp_path):
        payload = random.Random(1).randbytes(1_048_576)
        s_out, r_out, dest, chan_s = _run_transfer(payload, tmp_path)
        assert s_out.status == "completed"
        # manifest + 16 full 64 KiB chunks + end marker
        assert chan_s.frames_sealed == 1 + 16 + 1

    def test_progress_monotone_and_complete(self, tmp_path):
        fx = _ChannelFixture()
        payload = random.Random(8).randbytes(200_000)
        src = tmp_path / "src.bin"
        src.write_bytes(payload)
        seen = []

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src)))
            rt = spawn(
                receive_file(
                    chan_r, accept_all, str(tmp_path / "inbox"),
                    progress=lambda done, total: seen.append((done, total)),
                )
            )
            await st.join()
            await rt.join()

        fx.kernel.run(main())
        assert seen == sorted(seen)
        assert seen[-1] == (200_000, 200_000)

    def test_reject_sends_no_body(self, tmp_path):
        payload = b"secret content"
        s_out, r_out, dest, chan_s = _run_transfer(payload, tmp_path, decide=reject_all)
        assert s_out.status == "rejected"
        assert r_out.status == "rejected"
        assert chan_s.frames_sealed == 1  # the manifest only, never any chunk
        assert not os.path.exists(os.path.join(dest, "src.bin"))
        assert _no_partials(dest)

    def test_default_deny_without_decider(self, tmp_path):
        s_out, r_out, dest, chan_s = _run_transfer(b"data", tmp_path, decide=None)
        assert s_out.status == "rejected"
        assert r_out.status == "rejected"
        assert chan_s.frames_sealed == 1

    def test_decision_timeout_rejects(self, tmp_path):
        async def stall_forever(manifest):
            await sleep(10_000)
            return True

        s_out, r_out, dest, chan_s = _run_transfer(b"data", tmp_path, decide=stall_forever)
        assert s_out.status == "rejected"
        assert r_out.status == "rejected"
        assert chan_s.frames_sealed == 1

    def test_destination_collision_appends_counter(self, tmp_path):
        dest = tmp_path / "inbox"
        dest.mkdir()
        (dest / "src.bin").write_bytes(b"already here")
        payload = b"new content"
        s_out, r_out, _, _ = _run_transfer(payload, tmp_path)
        assert r_out.status == "completed"
        assert os.path.basename(r_out.path) == "src (1).bin"
        assert (dest / "src.bin").read_bytes() == b"already here"
        assert open(r_out.path, "rb").read() == payload
        # and a second collision picks the next suffix
        s_out, r_out2, _, _ = _run_transfer(b"third copy", tmp_path)
        assert os.path.basename(r_out2.path) == "src (2).bin"

    def test_partition_mid_stream_aborts_and_leaves_nothing(self, tmp_path):
        # jittered latency so chunk arrivals spread over distinct ticks
        fx = _ChannelFixture(latency=(0.005, 0.08))
        payload = random.Random(9).randbytes(1_048_576)
        src = tmp_path / "src.bin"
        src.write_bytes(payload)
        dest = str(tmp_path / "inbox")
        progressed = []

        async def main():
            chan_s, chan_r = await fx.channels()

            async def cut_after_three_chunks():
                while len(progressed) < 3:
                    await sleep(0.001)
                fx.net.partition("lan0")

            spawn(cut_after_three_chunks())
            st = spawn(send_file(chan_s, str(src)))
            rt = spawn(
                receive_file(
                    chan_r, accept_all, dest,
                    progress=lambda done, total: progressed.append(done),
                )
            )
            return await st.join(), await rt.join()

        s_out, r_out = fx.kernel.run(main())
        assert r_out.status == "aborted"
        assert s_out.status == "aborted"
        assert not os.path.exists(os.path.join(dest, "src.bin"))
        assert _no_partials(dest)

    def test_source_mutated_after_manifest_aborts(self, tmp_path):
        # same size, different bytes: receiver's digest check must catch it
        fx = _ChannelFixture()
        src = tmp_path / "src.bin"
        src.write_bytes(b"A" * 5000)
        manifest = manifest_for_file(str(src))
        src.write_bytes(b"B" * 5000)
        dest = str(tmp_path / "inbox")

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src), manifest))
            rt = spawn(receive_file(chan_r, accept_all, dest))
            return await st.join(), await rt.join()

        s_out, r_out = fx.kernel.run(main())
        assert r_out.status == "aborted"
        assert r_out.reason == "content digest mismatch"
        assert not os.listdir(dest)

    def test_source_grown_after_manifest_aborts(self, tmp_path):
        fx = _ChannelFixture()
        src = tmp_path / "src.bin"
        src.write_bytes(b"A" * 100)
        manifest = manifest_for_file(str(src))
        src.write_bytes(b"A" * 200)
        dest = str(tmp_path / "inbox")

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src), manifest))
            rt = spawn(receive_file(chan_r, accept_all, dest))
            return await st.join(), await rt.join()

        s_out, r_out = fx.kernel.run(main())
        assert s_out.status == "aborted"
        assert r_out.status == "aborted"
        assert _no_partials(dest)


class TestConfirmedPeerMisbehaves:
    """A peer that passed key confirmation still gets every message checked."""

    @pytest.mark.parametrize(
        "frame, reason",
        [
            (transfer._app_frame(transfer.SUB_MANIFEST, b"{not json"), "unreadable manifest"),
            (b"", "empty application frame"),
        ],
        ids=["unparseable-manifest", "empty-app-frame"],
    )
    def test_receiver_aborts_on_malformed_first_frame(self, frame, reason, tmp_path):
        fx = _ChannelFixture()
        dest = str(tmp_path / "inbox")

        async def main():
            chan_s, chan_r = await fx.channels()
            rt = spawn(receive_file(chan_r, accept_all, dest))
            await chan_s.send(frame)
            return await rt.join(), chan_r

        r_out, chan_r = fx.kernel.run(main())
        assert r_out.status == "aborted"
        assert r_out.reason.startswith(reason)
        assert chan_r.aborted
        assert _no_partials(dest)

    def test_sender_aborts_on_unexpected_reply_subtype(self, tmp_path):
        fx = _ChannelFixture()
        src = tmp_path / "src.bin"
        src.write_bytes(b"body that must never be sent")

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src)))
            await chan_r.recv()  # the manifest
            await chan_r.send(transfer._app_frame(transfer.SUB_CHUNK))
            return await st.join(), chan_s

        s_out, chan_s = fx.kernel.run(main())
        assert s_out.status == "aborted"
        assert s_out.reason == "expected accept/reject, got sub-type 0x04"
        assert chan_s.aborted
        assert chan_s.frames_sealed == 1  # the manifest only, never any chunk
        assert _no_partials(str(tmp_path))
