"""File transfer over an established secure channel.

Frame layout inside the encrypted app-data frames: one sub-type byte, then
the sub-payload. The sender opens with a manifest (canonical JSON), waits
for the receiver's explicit accept, then streams fixed-size chunks, each
tagged with its byte offset, and finishes with an empty end marker. The
receiver writes into a temporary file in the destination directory,
verifies the whole-file digest, and only then renames into place — a
failed or rejected transfer never leaves partial artifacts.

Nothing is transmitted without an accept: silence, timeout, or a scripted
"no" all mean reject.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from typing import Awaitable, BinaryIO, Callable

from .auth import SecureChannel
from .errors import InvalidArgument, PcpError, ProtocolError
from .kernel import WaitTimeout, wait_for

logger = logging.getLogger("pcp.transfer")

SUB_MANIFEST = 0x01
SUB_ACCEPT = 0x02
SUB_REJECT = 0x03
SUB_CHUNK = 0x04
SUB_END = 0x05

DEFAULT_CHUNK_SIZE = 65536
MAX_CHUNK_SIZE = 8 * 1024 * 1024
MAX_NAME_BYTES = 255

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

STATUS_COMPLETED = "completed"
STATUS_REJECTED = "rejected"
STATUS_ABORTED = "aborted"
STATUS_FAILED = "failed"

ProgressFn = Callable[[int, int], None]
DecideFn = Callable[["TransferManifest"], Awaitable[bool]]


@dataclass(frozen=True)
class TransferManifest:
    """What the receiver is asked to approve before any body bytes flow."""

    name: str
    size: int
    sha256_hex: str
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        raw = self.name.encode("utf-8")
        if not self.name or len(raw) > MAX_NAME_BYTES:
            raise InvalidArgument("filename must be 1..255 bytes")
        if self.name in (".", "..") or any(sep in self.name for sep in ("/", "\\", "\x00")):
            raise InvalidArgument(f"filename {self.name!r} is not a plain base name")
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
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ProtocolError(f"unreadable manifest: {e}") from None
        if not isinstance(doc, dict) or set(doc) != {"chunk", "name", "sha256", "size"}:
            raise ProtocolError("manifest must have exactly chunk/name/sha256/size")
        if (
            not isinstance(doc["name"], str)
            or not isinstance(doc["sha256"], str)
            or not isinstance(doc["size"], int)
            or not isinstance(doc["chunk"], int)
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


@dataclass
class TransferOutcome:
    status: str
    bytes_received: int = 0
    digest_verified: bool = False
    reason: str | None = None
    path: str | None = field(default=None)  # receiver side: final destination

    @property
    def ok(self) -> bool:
        return self.status == STATUS_COMPLETED


def manifest_for_file(path: str, chunk_size: int = DEFAULT_CHUNK_SIZE) -> TransferManifest:
    """Pre-pass over the file: size and whole-body SHA-256."""
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as f:
        while block := f.read(1024 * 1024):
            h.update(block)
            size += len(block)
    return TransferManifest(
        name=os.path.basename(path),
        size=size,
        sha256_hex=h.hexdigest(),
        chunk_size=chunk_size,
    )


def _app_frame(subtype: int, payload: bytes = b"") -> bytes:
    return bytes((subtype,)) + payload


def _split_app_frame(plaintext: bytes) -> tuple[int, bytes]:
    if not plaintext:
        raise ProtocolError("empty application frame")
    return plaintext[0], plaintext[1:]


# -- sender side -------------------------------------------------------------


async def send_manifest(chan: SecureChannel, manifest: TransferManifest) -> bool:
    """Announce the file; block until the receiver decides. True = accepted."""
    await chan.send(_app_frame(SUB_MANIFEST, manifest.encode()))
    reply = await chan.recv()
    subtype, _ = _split_app_frame(reply)
    if subtype == SUB_ACCEPT:
        return True
    if subtype == SUB_REJECT:
        return False
    raise ProtocolError(f"expected accept/reject, got sub-type 0x{subtype:02x}")


async def stream_file(
    chan: SecureChannel,
    source: BinaryIO,
    manifest: TransferManifest,
    progress: ProgressFn | None = None,
) -> TransferOutcome:
    """Send the body as offset-tagged chunks, then the end marker.

    The receiver's clean close is the completion signal: it only closes
    gracefully after its digest check passed and the file is in place.
    """
    sent = 0
    try:
        while True:
            block = source.read(manifest.chunk_size)
            if not block:
                break
            await chan.send(_app_frame(SUB_CHUNK, sent.to_bytes(8, "big") + block))
            sent += len(block)
            if progress:
                progress(sent, manifest.size)
        if sent != manifest.size:
            raise ProtocolError("source-size-changed")
        await chan.send(_app_frame(SUB_END))
        eof = await chan.conn.recv()
        if eof != b"":
            raise ProtocolError("unexpected-trailing-data")
    except (PcpError, OSError) as e:
        chan.abort()
        return TransferOutcome(STATUS_ABORTED, sent, reason=str(e))
    await chan.close()
    return TransferOutcome(STATUS_COMPLETED, sent, digest_verified=True)


async def send_file(
    chan: SecureChannel,
    path: str,
    manifest: TransferManifest | None = None,
    progress: ProgressFn | None = None,
    on_accept: Callable[[], None] | None = None,
) -> TransferOutcome:
    """Manifest exchange plus body streaming; ``on_accept`` runs before any body bytes."""
    try:
        if manifest is None:
            manifest = manifest_for_file(path)
        if not await send_manifest(chan, manifest):
            await chan.close()
            return TransferOutcome(STATUS_REJECTED, 0, reason="receiver-declined")
        if on_accept:
            on_accept()
        with open(path, "rb") as f:
            return await stream_file(chan, f, manifest, progress)
    except (PcpError, OSError) as e:
        chan.abort()
        return TransferOutcome(STATUS_ABORTED, 0, reason=str(e))


# -- receiver side ------------------------------------------------------------


async def await_confirmation(
    manifest: TransferManifest,
    decide: DecideFn | None,
    timeout: float,
) -> bool:
    """Ask the decision source; anything but a timely yes is a no."""
    if decide is None:
        return False
    try:
        return bool(await wait_for(decide(manifest), timeout))
    except WaitTimeout:
        logger.info("confirmation timed out after %.0fs; rejecting", timeout)
        return False


def _reserve_destination(dest_dir: str, name: str) -> str:
    """Pick a non-clobbering final path: 'name', then 'name (1)', ..."""
    candidate = os.path.join(dest_dir, name)
    stem, ext = os.path.splitext(name)
    n = 0
    while os.path.lexists(candidate):
        n += 1
        candidate = os.path.join(dest_dir, f"{stem} ({n}){ext}")
    return candidate


async def receive_file(
    chan: SecureChannel,
    decide: DecideFn | None,
    dest_dir: str,
    decision_timeout: float = 60.0,
    progress: ProgressFn | None = None,
) -> TransferOutcome:
    """Run the receiving half: manifest, decision, body, verify, rename.

    Any protocol violation, lost connection or local I/O error aborts the
    channel and ends in an aborted outcome; no partial file is left behind.
    """
    received = 0
    tmp_name = None
    try:
        subtype, payload = _split_app_frame(await chan.recv())
        if subtype != SUB_MANIFEST:
            raise ProtocolError("expected manifest first")
        manifest = TransferManifest.decode(payload)

        if not await await_confirmation(manifest, decide, decision_timeout):
            await chan.send(_app_frame(SUB_REJECT))
            await chan.close()
            return TransferOutcome(STATUS_REJECTED, 0, reason="declined")

        # a destination we cannot write fails here, before the sender is told to stream
        os.makedirs(dest_dir, exist_ok=True)
        digest = hashlib.sha256()
        with tempfile.NamedTemporaryFile(
            mode="wb", dir=dest_dir, prefix=".partial-", suffix=".pcp", delete=False
        ) as tmp:
            tmp_name = tmp.name
            await chan.send(_app_frame(SUB_ACCEPT))
            while True:
                subtype, payload = _split_app_frame(await chan.recv())
                if subtype == SUB_END:
                    break
                if subtype != SUB_CHUNK:
                    raise ProtocolError(f"unexpected sub-type 0x{subtype:02x}")
                if len(payload) < 8:
                    raise ProtocolError("short chunk header")
                offset = int.from_bytes(payload[:8], "big")
                data = payload[8:]
                if offset != received or received + len(data) > manifest.size:
                    raise ProtocolError("chunk out of order")
                tmp.write(data)
                digest.update(data)
                received += len(data)
                if progress:
                    progress(received, manifest.size)

        if received != manifest.size or digest.hexdigest() != manifest.sha256_hex:
            raise ProtocolError("content digest mismatch")

        final_path = _reserve_destination(dest_dir, manifest.name)
        os.rename(tmp_name, final_path)
    except (PcpError, OSError) as e:
        chan.abort()
        return TransferOutcome(STATUS_ABORTED, received, reason=str(e))
    finally:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass  # renamed into place on success

    await chan.close()
    return TransferOutcome(
        STATUS_COMPLETED,
        received,
        digest_verified=True,
        path=final_path,
    )
