"""File transfer over an established secure channel.

Frame layout inside the encrypted app-data frames: one sub-type byte, then
the sub-payload. The sender opens with a manifest (canonical JSON), waits
for the receiver's explicit accept, then streams fixed-size chunks, each
tagged with its byte offset, and finishes with an empty end marker. The
receiver writes into an unnamed file (``O_TMPFILE``) in the destination
directory, allocated to the body's size before it accepts, verifies the
whole-file digest, and only then links it to a free name. The chunks are
written as they arrive and hashed on pcp.kernel's worker thread, in batches
of DIGEST_BATCH bytes with at most one batch outstanding. A failed,
rejected or killed transfer leaves nothing, because the kernel frees an
unnamed file with its last descriptor, and ``linkat`` never replaces an
existing file. The receiver is Linux-only for this.

Nothing is transmitted without an accept: silence, timeout, or a scripted
"no" all mean reject.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import stat
from dataclasses import dataclass
from enum import Enum
from typing import Awaitable, BinaryIO, Callable

from .auth import MAX_PLAINTEXT, SecureChannel
from .errors import ConnectionLost, InvalidArgument, PcpError, ProtocolError
from .kernel import Scope, WaitTimeout, submit

logger = logging.getLogger("pcp.transfer")

SUB_MANIFEST = 0x01
SUB_ACCEPT = 0x02
SUB_REJECT = 0x03
SUB_CHUNK = 0x04
SUB_END = 0x05

CHUNK_HEADER_LEN = 9  # sub-type byte and 8-byte offset
DEFAULT_CHUNK_SIZE = 65536
MAX_CHUNK_SIZE = MAX_PLAINTEXT - CHUNK_HEADER_LEN  # 8 MiB
MAX_NAME_BYTES = 255
DECISION_TIMEOUT = 60.0  # seconds the receiver's decision may take; silence is a no
DIGEST_BATCH = 1024 * 1024  # body bytes per SHA-256 job of the receiver's worker

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

STATUS_COMPLETED = "completed"
STATUS_REJECTED = "rejected"
STATUS_ABORTED = "aborted"
STATUS_FAILED = "failed"

ProgressFn = Callable[[int, int], None]
DecideFn = Callable[["TransferManifest"], Awaitable[bool]]


def check_name(name: str) -> None:
    """Refuse a file name that a manifest cannot carry."""
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidArgument("filename is not valid UTF-8") from None
    if not name or len(raw) > MAX_NAME_BYTES:
        raise InvalidArgument("filename must be 1..255 bytes")
    if name in (".", "..") or any(sep in name for sep in ("/", "\\", "\x00")):
        raise InvalidArgument(f"filename {name!r} is not a plain base name")


@dataclass(frozen=True)
class TransferManifest:
    """What the receiver is asked to approve before any body bytes flow."""

    name: str
    size: int
    sha256_hex: str
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        check_name(self.name)
        if self.size < 0:
            raise InvalidArgument("size must be non-negative")
        if not 0 < self.chunk_size <= MAX_CHUNK_SIZE:
            raise InvalidArgument("chunk size out of range")
        if len(self.sha256_hex) != 64 or any(
            c not in "0123456789abcdef" for c in self.sha256_hex
        ):
            raise InvalidArgument("content digest must be 64 lowercase hex chars")

    def encode(self) -> bytes:
        """Canonical JSON: sorted keys, no whitespace (byte-exact on the wire)."""
        doc = {
            "chunk": self.chunk_size,
            "name": self.name,
            "sha256": self.sha256_hex,
            "size": self.size,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def decode(cls, raw: bytes) -> "TransferManifest":
        try:
            doc = json.loads(str(raw, "utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, too many digits, too deep
            raise ProtocolError(f"unreadable manifest: {e}") from None
        if not isinstance(doc, dict) or set(doc) != {"chunk", "name", "sha256", "size"}:
            raise ProtocolError("manifest must have exactly chunk/name/sha256/size")
        if (
            not isinstance(doc["name"], str)
            or not isinstance(doc["sha256"], str)
            # json gives bool for true and false, an int subclass that is no size
            or type(doc["size"]) is not int
            or type(doc["chunk"]) is not int
        ):
            raise ProtocolError("manifest field of wrong type")
        try:
            return cls(
                name=doc["name"],
                size=doc["size"],
                sha256_hex=doc["sha256"],
                chunk_size=doc["chunk"],
            )
        except InvalidArgument as e:
            raise ProtocolError(f"manifest failed validation: {e}") from None


class Ending(str, Enum):
    """Every way a session can end, the same names for both roles."""

    COMPLETED = "completed"
    NOT_FOUND = "not-found"  # no peer confirmed before the discovery deadline
    AUTH_EXHAUSTED = "auth-exhausted"  # the receiver's candidates all failed confirmation
    DECLINED = "declined"
    IO = "io"  # our own file: unreadable source, changed source, write or placement
    CONNECTION_LOST = "connection-lost"
    PEER_ERROR = "peer-error"  # a confirmed peer broke the protocol or a frame's seal


# The CLI's exit code for each ending; README "CLI" holds the same table.
EXIT_CODES = {
    Ending.COMPLETED: 0,
    Ending.NOT_FOUND: 3,
    Ending.AUTH_EXHAUSTED: 4,
    Ending.DECLINED: 5,
    Ending.IO: 6,
    Ending.CONNECTION_LOST: 6,
    Ending.PEER_ERROR: 6,
}


@dataclass
class TransferOutcome:
    """How one role's session ended: a status, its ending and, if any, why in words."""

    status: str
    reason: Ending
    bytes_received: int = 0
    detail: str | None = None  # the error text behind an unsuccessful ending
    path: str | None = None  # receiver side: final destination

    def __post_init__(self) -> None:
        self.reason = Ending(self.reason)  # anything outside the set raises ValueError

    @property
    def digest_verified(self) -> bool:
        return self.reason is Ending.COMPLETED


def _ended_by(error: Exception) -> Ending:
    """The ending of a data phase that ``error`` cut short."""
    if isinstance(error, OSError):
        return Ending.IO
    if isinstance(error, ConnectionLost):
        return Ending.CONNECTION_LOST
    return Ending.PEER_ERROR


def open_source(path: str) -> BinaryIO:
    """Open the file to send for reading.

    Anything but a regular file raises OSError. The open never blocks, so a
    FIFO put at ``path`` fails here instead of hanging the process until a
    writer comes.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError("not a regular file")
    return open(fd, "rb")


def manifest_for_file(path: str, source: BinaryIO | None = None) -> TransferManifest:
    """Pre-pass over ``source``, the file open at ``path``: size and whole-body SHA-256.

    With no ``source``, ``path`` is opened through ``open_source`` for the
    pass. The read buffer is sized to the file, at most 1 MiB and at least
    one byte, so a small file costs a small buffer and a file that grows
    meanwhile is still read to its end.
    """
    if source is None:
        with open_source(path) as own:
            return manifest_for_file(path, own)
    h = hashlib.sha256()
    size = 0
    block = memoryview(bytearray(min(1024 * 1024, max(1, source.seek(0, os.SEEK_END)))))
    source.seek(0)
    while n := source.readinto(block):
        h.update(block[:n])
        size += n
    return TransferManifest(
        name=os.path.basename(path),
        size=size,
        sha256_hex=h.hexdigest(),
    )


def _hash_all(digest, parts: list) -> None:
    for part in parts:
        digest.update(part)


def _app_frame(subtype: int, payload: bytes = b"") -> bytes:
    return bytes((subtype,)) + payload


def _split_app_frame(plaintext: bytes) -> tuple[int, memoryview]:
    if not plaintext:
        raise ProtocolError("empty application frame")
    return plaintext[0], memoryview(plaintext)[1:]


# -- sender side -------------------------------------------------------------


async def stream_file(
    chan: SecureChannel,
    source: BinaryIO,
    manifest: TransferManifest,
    progress: ProgressFn | None = None,
) -> TransferOutcome:
    """Send the body as offset-tagged chunks, then the end marker.

    The receiver's clean close is the completion signal: it only closes
    gracefully after its digest check passed and the file is in place.

    Each chunk is read into one reusable buffer behind its sub-type byte and
    offset; ``seal`` encrypts it, before the next read, into a frame carved
    from the channel's send slab. No read goes past the manifest's size: a
    source that ends early, or still has a byte after it, aborts with
    ``source-size-changed`` before the end marker.
    """
    sent = 0
    message = memoryview(bytearray(CHUNK_HEADER_LEN + manifest.chunk_size))
    message[0] = SUB_CHUNK
    body = message[CHUNK_HEADER_LEN:]
    try:
        while n := source.readinto(body[: manifest.size - sent]):
            message[1:CHUNK_HEADER_LEN] = sent.to_bytes(8, "big")
            await chan.send(message[: CHUNK_HEADER_LEN + n])
            sent += n
            if progress:
                progress(sent, manifest.size)
        if sent != manifest.size or source.read(1):
            raise OSError("source-size-changed")
        await chan.send(_app_frame(SUB_END))
        eof = await chan.conn.recv()
        if eof != b"":
            raise ProtocolError("unexpected-trailing-data")
    except (PcpError, OSError) as e:
        chan.abort()
        return TransferOutcome(STATUS_ABORTED, _ended_by(e), sent, detail=str(e))
    await chan.close()
    return TransferOutcome(STATUS_COMPLETED, Ending.COMPLETED, sent)


async def send_file(
    chan: SecureChannel,
    source: BinaryIO,
    manifest: TransferManifest,
    progress: ProgressFn | None = None,
    on_accept: Callable[[], None] | None = None,
) -> TransferOutcome:
    """Announce the file, wait for the receiver's decision, then stream ``source`` from its start.

    ``on_accept`` runs once the receiver accepts, before any body bytes.
    The caller keeps ``source`` and closes it.
    """
    try:
        await chan.send(_app_frame(SUB_MANIFEST, manifest.encode()))
        subtype = _split_app_frame(await chan.recv())[0]
        if subtype == SUB_REJECT:
            await chan.close()
            return TransferOutcome(STATUS_REJECTED, Ending.DECLINED, detail="receiver-declined")
        if subtype != SUB_ACCEPT:
            raise ProtocolError(f"expected accept/reject, got sub-type 0x{subtype:02x}")
        if on_accept:
            on_accept()
        source.seek(0)
        return await stream_file(chan, source, manifest, progress)
    except (PcpError, OSError) as e:
        chan.abort()
        return TransferOutcome(STATUS_ABORTED, _ended_by(e), detail=str(e))


# -- receiver side ------------------------------------------------------------


async def await_confirmation(manifest: TransferManifest, decide: DecideFn | None) -> bool:
    """Ask the decision source; anything but a yes within DECISION_TIMEOUT is a no."""
    if decide is None:
        return False
    try:
        async with Scope(DECISION_TIMEOUT):
            return bool(await decide(manifest))
    except WaitTimeout:
        logger.info("confirmation timed out after %.0fs; rejecting", DECISION_TIMEOUT)
        return False


def _link_into_place(fd: int, dest_dir: str, name: str) -> str:
    """Link the unnamed file open at 'fd' as 'name', else 'name (1)', ...; return its path.

    linkat never replaces a name, so a file that appears at the chosen name
    meanwhile stays as it is. A ' (n)' name is cut at a code-point boundary
    to fit MAX_NAME_BYTES: its stem, or the whole name if the extension
    leaves no room. A non-default dir fd makes CPython call linkat(...,
    AT_SYMLINK_FOLLOW), which follows /proc/self/fd to the inode; link(2)
    would not.
    """
    stem, ext = os.path.splitext(name)
    candidate, n = name, 0
    dir_fd = os.open(dest_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        while True:
            try:
                os.link(f"/proc/self/fd/{fd}", candidate, dst_dir_fd=dir_fd)
                return os.path.join(dest_dir, candidate)
            except FileExistsError:
                n += 1
                suffix = f" ({n})"
                if len((suffix + ext).encode()) >= MAX_NAME_BYTES:
                    stem, ext = name, ""
                room = MAX_NAME_BYTES - len((suffix + ext).encode())
                candidate = stem.encode()[:room].decode("utf-8", "ignore") + suffix + ext
    finally:
        os.close(dir_fd)


async def receive_file(
    chan: SecureChannel,
    decide: DecideFn | None,
    dest_dir: str,
    progress: ProgressFn | None = None,
    on_accept: Callable[[], None] | None = None,
) -> TransferOutcome:
    """Run the receiving half: manifest, decision, body, verify, place.

    ``on_accept`` runs once the decision is a timely yes, before the accept
    frame is sent.

    Any protocol violation, lost connection or local I/O error aborts the
    channel and ends in an aborted outcome. The body has no name until its
    digest checks out, so nothing is left behind, even if the process dies.
    """
    received = 0
    try:
        subtype, payload = _split_app_frame(await chan.recv())
        if subtype != SUB_MANIFEST:
            raise ProtocolError("expected manifest first")
        manifest = TransferManifest.decode(payload)

        if not await await_confirmation(manifest, decide):
            await chan.send(_app_frame(SUB_REJECT))
            await chan.close()
            return TransferOutcome(STATUS_REJECTED, Ending.DECLINED)
        if on_accept:
            on_accept()

        # a destination that cannot take or hold the body fails here, before
        # the sender is told to stream
        os.makedirs(dest_dir, exist_ok=True)
        # the body's SHA-256 runs on the worker, one batch of chunks at a
        # time; waiting for a batch before the next is submitted holds about
        # two batches of plaintext. A batch still hashing when the transfer
        # aborts finishes on its own and is dropped: hashing bytes cannot fail
        digest, batch, batched, hashing = hashlib.sha256(), [], 0, None
        with open(os.open(dest_dir, os.O_TMPFILE | os.O_WRONLY, 0o600), "wb") as body:
            if manifest.size:
                os.posix_fallocate(body.fileno(), 0, manifest.size)
            await chan.send(_app_frame(SUB_ACCEPT))
            while True:
                subtype, payload = _split_app_frame(await chan.recv())
                if subtype == SUB_END:
                    break
                if subtype != SUB_CHUNK:
                    raise ProtocolError(f"unexpected sub-type 0x{subtype:02x}")
                if len(payload) < 8:
                    raise ProtocolError("short chunk header")
                if len(payload) == 8:
                    raise ProtocolError("empty chunk")
                offset = int.from_bytes(payload[:8], "big")
                data = payload[8:]
                if len(data) > manifest.chunk_size:
                    raise ProtocolError("chunk larger than announced")
                if offset != received or received + len(data) > manifest.size:
                    raise ProtocolError("chunk out of order")
                body.write(data)
                batch.append(data)
                batched += len(data)
                if batched >= DIGEST_BATCH:
                    if hashing:
                        hashing.result()
                    hashing = submit(_hash_all, digest, batch)
                    batch, batched = [], 0
                received += len(data)
                if progress:
                    progress(received, manifest.size)

            if hashing:
                hashing.result()
            _hash_all(digest, batch)
            if received != manifest.size or digest.hexdigest() != manifest.sha256_hex:
                raise ProtocolError("content digest mismatch")
            body.flush()
            final_path = _link_into_place(body.fileno(), dest_dir, manifest.name)
    except (PcpError, OSError) as e:
        chan.abort()
        return TransferOutcome(STATUS_ABORTED, _ended_by(e), received, detail=str(e))

    await chan.close()
    return TransferOutcome(STATUS_COMPLETED, Ending.COMPLETED, received, path=final_path)
