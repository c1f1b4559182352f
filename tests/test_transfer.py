import errno
import hashlib
import json
import os
import random
import signal
import stat
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pcp import auth, transfer
from pcp.auth import PakeSecret, confirm_key, pake_handshake
from pcp.errors import ConnectionLost, InvalidArgument, ProtocolError
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


def _holds_only(dest_dir, before=(), placed=None):
    """dest_dir lists exactly the files it held before, plus the placed file if any."""
    listing = sorted(os.listdir(dest_dir)) if os.path.isdir(dest_dir) else []
    return listing == sorted([*before, *([os.path.basename(placed)] if placed else [])])


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

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"chunk":true,"name":"a","sha256":"' + b"00" * 32 + b'","size":1}',
            b'{"chunk":1,"name":"a","sha256":"' + b"00" * 32 + b'","size":false}',
        ],
        ids=["chunk-true", "size-false"],
    )
    def test_decode_rejects_booleans(self, doc):
        with pytest.raises(ProtocolError, match="manifest field of wrong type"):
            TransferManifest.decode(doc)

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
        m = manifest_for_file(str(p))
        assert m.size == 100_000
        assert m.sha256_hex == hashlib.sha256(payload).hexdigest()
        assert m.name == "data.bin"
        assert m.chunk_size == transfer.DEFAULT_CHUNK_SIZE

    def test_small_file_is_hashed_with_a_small_buffer(self, tmp_path):
        p = tmp_path / "small.bin"
        p.write_bytes(random.Random(6).randbytes(4096))
        tracemalloc.start()
        try:
            manifest_for_file(str(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("initial", [0, 4096])
    def test_file_appended_to_while_hashed_is_read_to_its_end(
        self, tmp_path, monkeypatch, initial
    ):
        p = tmp_path / "growing.bin"
        head = random.Random(7).randbytes(initial)
        tail = random.Random(8).randbytes(3 * 4096 + 7)
        p.write_bytes(head)
        real_fstat = os.fstat

        def fstat_then_grow(fd):
            st = real_fstat(fd)
            with open(p, "ab") as g:
                g.write(tail)
            return st

        monkeypatch.setattr(os, "fstat", fstat_then_grow)
        m = manifest_for_file(str(p))
        assert m.size == initial + len(tail)
        assert m.sha256_hex == hashlib.sha256(head + tail).hexdigest()


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
                self.kernel.rng("crypto"), allowed_bindings={BINDING},
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


async def _yes_after_the_timeout(manifest):
    await sleep(transfer.DECISION_TIMEOUT + 10)
    return True


def _run_transfer(payload: bytes, tmp_path, decide=accept_all, seed=0, name="src.bin"):
    fx = _ChannelFixture(seed=seed)
    src = tmp_path / name
    src.write_bytes(payload)
    dest = str(tmp_path / "inbox")

    async def main():
        chan_s, chan_r = await fx.channels()
        st = spawn(send_file(chan_s, str(src), manifest_for_file(str(src))))
        rt = spawn(receive_file(chan_r, decide, dest))
        return await st.join(), await rt.join(), chan_s

    s_out, r_out, chan_s = fx.kernel.run(main())
    return s_out, r_out, dest, chan_s


_KILLED_PAST_HALF_THE_BODY = """
import os, signal, sys
from test_transfer import _ChannelFixture, accept_all
from pcp.kernel import spawn
from pcp.transfer import manifest_for_file, receive_file, send_file

src, dest = sys.argv[1:]
fx = _ChannelFixture()

def kill_past_half(done, total):
    if done > total // 2:
        os.kill(os.getpid(), signal.SIGKILL)

async def main():
    chan_s, chan_r = await fx.channels()
    spawn(send_file(chan_s, src, manifest_for_file(src)))
    await spawn(receive_file(chan_r, accept_all, dest, progress=kill_past_half)).join()

fx.kernel.run(main())
"""


def _in_a_fresh_process(script, *args):
    """Run ``script`` in a new interpreter that can import this module and pcp."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(__file__), os.path.dirname(os.path.dirname(transfer.__file__))]
    ))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=60,
    )


_UNDER_A_FILE_SIZE_LIMIT = """
import json, resource, signal, sys
from test_transfer import _ChannelFixture, accept_all
from pcp.kernel import spawn
from pcp.transfer import manifest_for_file, receive_file, send_file

src, dest, limit = sys.argv[1], sys.argv[2], int(sys.argv[3])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
fx = _ChannelFixture()

async def main():
    chan_s, chan_r = await fx.channels()
    st = spawn(send_file(chan_s, src, manifest_for_file(src)))
    r_out = await spawn(receive_file(chan_r, accept_all, dest)).join()
    return await st.join(), r_out, chan_s

s_out, r_out, chan_s = fx.kernel.run(main())
print(json.dumps([s_out.status, r_out.status, r_out.reason, r_out.detail, chan_s._send_counter]))
"""


class TestEndToEnd:
    @pytest.mark.parametrize(
        "size", [0, 1, 65535, 65536, 65537, 1048575, 1048576, 1048577, 3 * 1024 * 1024]
    )
    def test_sizes_roundtrip_with_digest(self, size, tmp_path):
        payload = random.Random(size).randbytes(size)
        s_out, r_out, dest, _ = _run_transfer(payload, tmp_path)
        assert s_out.status == r_out.status == "completed"
        assert r_out.bytes_received == size
        assert r_out.digest_verified and s_out.digest_verified
        got = open(r_out.path, "rb").read()
        assert got == payload
        assert hashlib.sha256(got).hexdigest() == hashlib.sha256(payload).hexdigest()
        assert stat.S_IMODE(os.stat(r_out.path).st_mode) == 0o600
        assert _holds_only(dest, placed=r_out.path)

    def test_exact_chunk_frame_count_for_1mib(self, tmp_path):
        payload = random.Random(1).randbytes(1_048_576)
        s_out, r_out, dest, chan_s = _run_transfer(payload, tmp_path)
        assert s_out.status == "completed"
        # manifest + 16 full 64 KiB chunks + end marker
        assert chan_s._send_counter == 1 + 16 + 1

    def test_progress_monotone_and_complete(self, tmp_path):
        fx = _ChannelFixture()
        payload = random.Random(8).randbytes(200_000)
        src = tmp_path / "src.bin"
        src.write_bytes(payload)
        seen = []

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src), manifest_for_file(str(src))))
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
        assert chan_s._send_counter == 1  # the manifest only, never any chunk
        assert not os.path.exists(os.path.join(dest, "src.bin"))
        assert _holds_only(dest)

    def test_unwritable_destination_aborts_before_accept(self, tmp_path):
        fx = _ChannelFixture()
        src = tmp_path / "src.bin"
        src.write_bytes(b"data")
        not_a_dir = tmp_path / "inbox"
        not_a_dir.write_bytes(b"a regular file")

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src), manifest_for_file(str(src))))
            rt = spawn(receive_file(chan_r, accept_all, str(not_a_dir)))
            return await st.join(), await rt.join(), chan_r

        s_out, r_out, chan_r = fx.kernel.run(main())
        assert r_out.status == "aborted"
        assert s_out.status == "aborted"
        assert chan_r._send_counter == 0  # the sender was never told to stream
        assert not_a_dir.read_bytes() == b"a regular file"
        assert sorted(os.listdir(tmp_path)) == ["inbox", "src.bin"]

    def test_default_deny_without_decider(self, tmp_path):
        s_out, r_out, dest, chan_s = _run_transfer(b"data", tmp_path, decide=None)
        assert s_out.status == "rejected"
        assert r_out.status == "rejected"
        assert chan_s._send_counter == 1

    def test_decision_timeout_rejects(self, tmp_path):
        async def stall_forever(manifest):
            await sleep(10_000)
            return True

        s_out, r_out, dest, chan_s = _run_transfer(b"data", tmp_path, decide=stall_forever)
        assert s_out.status == "rejected"
        assert r_out.status == "rejected"
        assert chan_s._send_counter == 1

    @pytest.mark.parametrize(
        "decide, calls",
        [(accept_all, [0]), (reject_all, []), (_yes_after_the_timeout, []), (None, [])],
        ids=["accept", "reject", "decision-timeout", "no-decider"],
    )
    def test_on_accept_runs_once_before_the_accept_frame(self, decide, calls, tmp_path):
        # each call records how many frames the receiver had sealed by then
        fx = _ChannelFixture()
        src = tmp_path / "src.bin"
        src.write_bytes(b"data")
        seen = []

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src), manifest_for_file(str(src))))
            rt = spawn(receive_file(
                chan_r, decide, str(tmp_path / "inbox"),
                on_accept=lambda: seen.append(chan_r._send_counter),
            ))
            return await st.join(), await rt.join()

        s_out, r_out = fx.kernel.run(main())
        assert seen == calls
        assert r_out.status == ("completed" if calls else "rejected")

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

    @pytest.mark.parametrize(
        "name, placed_as",
        [
            ("a" * 251 + ".bin", "a" * 247 + " (1).bin"),
            # the cut falls inside a two-byte code point, which is dropped whole
            ("\u00e9" * 125 + "x.bin", "\u00e9" * 123 + " (1).bin"),
            # the extension leaves no room for the stem, so the whole name is cut
            ("a." + "b" * 253, "a." + "b" * 249 + " (1)"),
        ],
        ids=["ascii", "cut-inside-a-code-point", "extension-leaves-no-room"],
    )
    def test_colliding_255_byte_name_gets_a_counter_that_fits(self, name, placed_as, tmp_path):
        dest = tmp_path / "inbox"
        dest.mkdir()
        (dest / name).write_bytes(b"already here")
        s_out, r_out, _, _ = _run_transfer(b"new content", tmp_path, name=name)
        assert s_out.status == r_out.status == "completed"
        assert os.path.basename(r_out.path) == placed_as
        assert len(placed_as.encode()) <= transfer.MAX_NAME_BYTES
        assert (dest / name).read_bytes() == b"already here"
        assert open(r_out.path, "rb").read() == b"new content"

    def test_file_appearing_at_the_chosen_name_is_never_replaced(self, tmp_path, monkeypatch):
        # Another writer creates the chosen name just before the receiver's
        # first filesystem call on it (a claim, a rename, a replace or a link).
        inbox = str(tmp_path / "inbox")
        target = os.path.join(inbox, "src.bin")
        appeared = []

        def interloper_first(real, path_arg):
            def call(*args, **kwargs):
                path = args[path_arg]
                if kwargs.get("dst_dir_fd") is not None:
                    path = os.path.join(inbox, path)
                if path == target and not appeared:
                    appeared.append(target)
                    with open(target, "xb") as f:
                        f.write(b"written by someone else")
                return real(*args, **kwargs)
            return call

        for fn_name, path_arg in (("open", 0), ("rename", 1), ("replace", 1), ("link", 1)):
            monkeypatch.setattr(os, fn_name, interloper_first(getattr(os, fn_name), path_arg))
        s_out, r_out, dest, _ = _run_transfer(b"new content", tmp_path)
        assert appeared
        assert r_out.status == "completed"
        assert open(target, "rb").read() == b"written by someone else"
        assert os.path.basename(r_out.path) == "src (1).bin"
        assert open(r_out.path, "rb").read() == b"new content"
        assert _holds_only(dest, before=["src.bin"], placed=r_out.path)

    def test_failed_placement_leaves_nothing(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError("placement refused")

        monkeypatch.setattr(os, "link", refuse)
        s_out, r_out, dest, _ = _run_transfer(b"new content", tmp_path)
        assert r_out.status == "aborted"
        assert (r_out.reason, r_out.detail) == ("io", "placement refused")
        assert os.listdir(dest) == []

    def test_file_system_refusing_unnamed_files_aborts_before_accept(self, tmp_path, monkeypatch):
        real_open = os.open

        def no_tmpfile(path, flags, *args, **kwargs):
            if flags & os.O_TMPFILE == os.O_TMPFILE:
                raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", no_tmpfile)
        s_out, r_out, dest, chan_s = _run_transfer(b"new content", tmp_path)
        assert s_out.status == r_out.status == "aborted"
        assert chan_s._send_counter == 1  # the manifest only, never any chunk
        assert _holds_only(dest)

    def test_destination_without_room_aborts_before_accept(self, tmp_path, monkeypatch):
        def no_space(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", no_space)
        s_out, r_out, dest, chan_s = _run_transfer(b"new content", tmp_path)
        assert s_out.status == r_out.status == "aborted"
        assert (r_out.reason, r_out.detail) == (
            "io", f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        )
        assert chan_s._send_counter == 1  # the manifest only, never any chunk
        assert _holds_only(dest)

    def test_file_size_limit_below_the_body_aborts_before_accept(self, tmp_path):
        # a fresh process lowers RLIMIT_FSIZE below the body and ignores
        # SIGXFSZ, so growing the file past the limit fails with EFBIG
        src = tmp_path / "src.bin"
        src.write_bytes(random.Random(11).randbytes(1_048_576))
        dest = tmp_path / "inbox"
        result = _in_a_fresh_process(_UNDER_A_FILE_SIZE_LIMIT, src, dest, 65536)
        assert result.returncode == 0, result.stderr
        s_status, r_status, reason, detail, sent = json.loads(result.stdout)
        assert (s_status, r_status, reason) == ("aborted", "aborted", "io")
        assert detail == f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
        assert sent == 1  # the manifest only, never any chunk
        assert _holds_only(dest)

    def test_receiver_killed_mid_body_leaves_nothing(self, tmp_path):
        # A fresh process runs the pair and SIGKILLs itself from the receiver's
        # progress callback at the first call past half the body, so no
        # cleanup code of its own gets to run.
        src = tmp_path / "src.bin"
        src.write_bytes(random.Random(10).randbytes(1_048_576))
        dest = tmp_path / "inbox"
        result = _in_a_fresh_process(_KILLED_PAST_HALF_THE_BODY, src, dest)
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert os.listdir(dest) == []

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
            st = spawn(send_file(chan_s, str(src), manifest_for_file(str(src))))
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
        assert _holds_only(dest)

    @pytest.mark.parametrize(
        "before, after",
        [
            (b"A" * 5000, b"B" * 5000),
            # the receiver hashes this body in batches; only the last byte moved
            (b"A" * (3 * 1024 * 1024 + 1), b"A" * (3 * 1024 * 1024) + b"B"),
        ],
        ids=["5000", "3MiB+1-last-byte"],
    )
    def test_source_mutated_after_manifest_aborts(self, before, after, tmp_path):
        # same size, different bytes: receiver's digest check must catch it
        fx = _ChannelFixture()
        src = tmp_path / "src.bin"
        src.write_bytes(before)
        manifest = manifest_for_file(str(src))
        src.write_bytes(after)
        dest = str(tmp_path / "inbox")

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src), manifest))
            rt = spawn(receive_file(chan_r, accept_all, dest))
            return await st.join(), await rt.join()

        s_out, r_out = fx.kernel.run(main())
        assert r_out.status == "aborted"
        assert (r_out.reason, r_out.detail) == ("peer-error", "content digest mismatch")
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
        assert _holds_only(dest)


def _app_frame_manifest(name_json, size_json):
    doc = f'{{"chunk":65536,"name":{name_json},"sha256":"{EMPTY_SHA256}","size":{size_json}}}'
    return transfer._app_frame(transfer.SUB_MANIFEST, doc.encode())


_BODY = b"the real body"
_BODY_MANIFEST = TransferManifest("src.bin", len(_BODY), hashlib.sha256(_BODY).hexdigest())


def _chunk_frame(offset, data):
    return transfer._app_frame(transfer.SUB_CHUNK, offset.to_bytes(8, "big") + data)


class TestConfirmedPeerMisbehaves:
    """A peer that passed key confirmation still gets every message checked."""

    @pytest.mark.parametrize(
        "frame, reason",
        [
            (transfer._app_frame(transfer.SUB_MANIFEST, b"{not json"), "unreadable manifest"),
            (b"", "empty application frame"),
            (_app_frame_manifest('"\\ud800"', "0"), "manifest failed validation"),
            (_app_frame_manifest('"a"', "9" * 5000), "unreadable manifest"),
            (transfer._app_frame(transfer.SUB_MANIFEST, b"[" * 100_000), "unreadable manifest"),
        ],
        ids=[
            "unparseable-manifest", "empty-app-frame", "lone-surrogate-name",
            "size-beyond-int-digit-limit", "nesting-beyond-recursion-limit",
        ],
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
        assert r_out.reason == "peer-error"
        assert r_out.detail.startswith(reason)
        assert chan_r.aborted
        assert _holds_only(dest)

    @pytest.mark.parametrize(
        "first, detail",
        [
            # an empty chunk moves no offset, so a stream of them would never end
            (_chunk_frame(0, b""), "empty chunk"),
            (transfer._app_frame(transfer.SUB_CHUNK, bytes(5)), "short chunk header"),
            (_chunk_frame(1, _BODY), "chunk out of order"),
            (_chunk_frame(0, _BODY + b"!"), "chunk out of order"),
            (transfer._app_frame(transfer.SUB_MANIFEST, _BODY_MANIFEST.encode()),
             "unexpected sub-type 0x01"),
            (transfer._app_frame(transfer.SUB_ACCEPT), "unexpected sub-type 0x02"),
        ],
        ids=[
            "empty-chunk", "short-chunk-header", "chunk-at-offset-1",
            "chunk-past-the-size", "second-manifest", "accept",
        ],
    )
    def test_receiver_aborts_on_a_bad_frame_after_accept(self, first, detail, tmp_path):
        fx = _ChannelFixture()
        dest = str(tmp_path / "inbox")

        async def main():
            chan_s, chan_r = await fx.channels()
            rt = spawn(receive_file(chan_r, accept_all, dest))
            await chan_s.send(transfer._app_frame(transfer.SUB_MANIFEST, _BODY_MANIFEST.encode()))
            await chan_s.recv()  # the accept
            try:
                for frame in (first, _chunk_frame(0, _BODY)):
                    await chan_s.send(frame)
                await chan_s.send(transfer._app_frame(transfer.SUB_END))
            except ConnectionLost:
                pass  # the receiver gave up first
            return await rt.join()

        r_out = fx.kernel.run(main())
        assert r_out.status == "aborted"
        assert (r_out.reason, r_out.detail) == ("peer-error", detail)
        assert _holds_only(dest)

    def test_sender_aborts_on_unexpected_reply_subtype(self, tmp_path):
        fx = _ChannelFixture()
        src = tmp_path / "src.bin"
        src.write_bytes(b"body that must never be sent")

        async def main():
            chan_s, chan_r = await fx.channels()
            st = spawn(send_file(chan_s, str(src), manifest_for_file(str(src))))
            await chan_r.recv()  # the manifest
            await chan_r.send(transfer._app_frame(transfer.SUB_CHUNK))
            return await st.join(), chan_s

        s_out, chan_s = fx.kernel.run(main())
        assert s_out.status == "aborted"
        assert (s_out.reason, s_out.detail) == (
            "peer-error", "expected accept/reject, got sub-type 0x04"
        )
        assert chan_s.aborted
        assert chan_s._send_counter == 1  # the manifest only, never any chunk
        assert _holds_only(str(tmp_path), before=["src.bin"])


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)


# Any JSON value, strings drawn from every code point including lone surrogates.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.characters(exclude_categories=()), max_size=8),
    _json_containers,
    max_leaves=6,
)
_manifest_payloads = st.one_of(
    st.binary(max_size=32),
    _json_values.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({
        "chunk": st.integers(-1, 2 * transfer.MAX_CHUNK_SIZE) | _json_values,
        "name": st.text(st.characters(exclude_categories=()), max_size=12) | _json_values,
        "sha256": st.just(EMPTY_SHA256) | st.text(max_size=64) | _json_values,
        "size": st.integers(-1, 64) | _json_values,
    }).map(lambda doc: json.dumps(doc).encode()),
)
_chunk_payloads = st.builds(
    lambda offset, data: offset.to_bytes(8, "big") + data,
    st.integers(0, 64) | st.integers(0, 2**64 - 1),
    st.binary(max_size=64),
)
_app_frames = st.one_of(
    _manifest_payloads.map(lambda p: transfer._app_frame(transfer.SUB_MANIFEST, p)),
    _chunk_payloads.map(lambda p: transfer._app_frame(transfer.SUB_CHUNK, p)),
    st.sampled_from([transfer.SUB_ACCEPT, transfer.SUB_REJECT, transfer.SUB_END]).map(
        transfer._app_frame),
    st.binary(max_size=16),  # any sub-type byte and payload, or an empty frame
)


class TestReceiverFuzz:
    """Whatever a confirmed peer sends before it closes, the receiver ends cleanly."""

    @settings(max_examples=50, deadline=None)
    @given(frames=st.lists(_app_frames, max_size=6), accept=st.booleans())
    def test_any_frame_sequence_ends_in_an_outcome(self, frames, accept):
        fx = _ChannelFixture()

        async def decide(manifest):
            return accept

        async def main(dest):
            chan_s, chan_r = await fx.channels()
            rt = spawn(receive_file(chan_r, decide, dest))
            try:
                for frame in frames:
                    await chan_s.send(frame)
                await chan_s.close()
            except ConnectionLost:
                pass  # the receiver gave up first
            return await rt.join()

        with tempfile.TemporaryDirectory() as root:
            dest = os.path.join(root, "inbox")
            outcome = fx.kernel.run(main(dest))
            assert isinstance(outcome, transfer.TransferOutcome)
            assert _holds_only(dest, placed=outcome.path)


class TestSenderFuzz:
    """Whatever a confirmed receiver answers to the manifest, the sender ends cleanly."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(frames=st.lists(_app_frames, max_size=6))
    def test_any_reply_sequence_ends_in_an_outcome(self, frames):
        fx = _ChannelFixture()

        async def main(src):
            chan_s, chan_r = await fx.channels()
            st_ = spawn(send_file(chan_s, src, manifest_for_file(src)))
            try:
                await chan_r.recv()  # the manifest
                for frame in frames:
                    await chan_r.send(frame)
                await chan_r.close()
            except ConnectionLost:
                pass  # the sender gave up first
            return await st_.join(), chan_s

        with tempfile.TemporaryDirectory() as root:
            src = os.path.join(root, "src.bin")
            with open(src, "wb") as f:
                f.write(random.Random(len(frames)).randbytes(3 * 65536 + 5))
            outcome, chan_s = fx.kernel.run(main(src))
        assert isinstance(outcome, transfer.TransferOutcome)
        if not frames or frames[0][:1] != bytes([transfer.SUB_ACCEPT]):
            assert outcome.status != "completed"
            assert chan_s._send_counter == 1  # the manifest only: no body without an accept
