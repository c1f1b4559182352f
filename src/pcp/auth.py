"""Authentication layer: key exchange, confirmation, and the secure channel.

The dialing side initiates. Its first message carries the rendezvous id
string it found the peer under, so both sides bind the derived keys to the
same session identity; a responder that never published under that id
refuses before answering. After the exchange both sides hold three keys —
two directional data keys and a confirmation key — and prove agreement by
exchanging transcript MACs with direction-distinct labels. Only then does
application data flow, each frame sealed with an AEAD under a strictly
increasing per-direction counter.
"""

from __future__ import annotations

import hmac
import hashlib
import mmap
import random
from dataclasses import dataclass
from typing import Collection, Coroutine

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import framing
from .errors import (
    AuthenticationFailure,
    ChannelExhausted,
    DecryptError,
    HandshakeTimeout,
    PcpError,
    ProtocolError,
)
from .kernel import Cancelled, Scope, WaitTimeout
from .pake import ELEMENT_LEN, ROLE_INITIATOR, ROLE_RESPONDER, PakeParty, PakePassword
from .simnet import Connection

LABEL_SEND_INITIATOR = b"pcp/send/initiator"
LABEL_SEND_RESPONDER = b"pcp/send/responder"
LABEL_CONFIRM = b"pcp/confirm"
CONFIRM_LABEL = {ROLE_INITIATOR: b"confirm/initiator", ROLE_RESPONDER: b"confirm/responder"}

HANDSHAKE_TIMEOUT = 30.0  # seconds for the key exchange, and again for key confirmation
MAX_BINDING_LEN = 512
_NONCE_LIMIT = 2**64
_TAG_LEN = 16  # Poly1305
# the largest message the transfer layer seals: a sub-type byte, an 8-byte
# offset and one 8 MiB chunk
MAX_PLAINTEXT = 1 + 8 + 8 * 1024 * 1024

# per-type payload bounds, checked on each frame header before its payload is read
_MAX_MSG1 = 2 + MAX_BINDING_LEN + ELEMENT_LEN
_CONFIRM_TAG_LEN = hashlib.sha256().digest_size
_MAX_SEALED = MAX_PLAINTEXT + _TAG_LEN

# Sealed frames are carved from send slabs: anonymous private mappings. The
# first fits the first frame (at least _SLAB_MIN), each later one doubles the
# last up to _SLAB_MAX, and a larger frame gets a slab of its own. Slabs of a
# huge page or more are whole huge pages and advised MADV_HUGEPAGE, so a body
# in flight faults in 2 MiB pages, not 4 KiB ones.
_SLAB_MIN = 64 * 1024
_SLAB_MAX = 8 * 1024 * 1024
_HUGE_PAGE = 2 * 1024 * 1024
_MADV_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)


def _new_slab(size: int) -> memoryview:
    huge = size >= _HUGE_PAGE
    if huge:
        size = -(-size // _HUGE_PAGE) * _HUGE_PAGE
    slab = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if huge and _MADV_HUGEPAGE is not None:
        try:
            slab.madvise(_MADV_HUGEPAGE)
        except OSError:  # a kernel without transparent huge pages
            pass
    return memoryview(slab)


@dataclass(frozen=True)
class PakeSecret:
    """The exchange inputs: the password plus session identity.

    ``password`` is the canonical passphrase bytes, or a PakePassword that
    the session shares across all of its handshakes.
    """

    password: bytes | PakePassword
    session_binding: str


@dataclass(frozen=True)
class SessionKeys:
    k_send: bytes
    k_recv: bytes
    k_confirm: bytes
    role: str


def _hkdf(master: bytes, label: bytes) -> bytes:
    """HKDF-SHA256, fixed salt, single 32-byte expand block per label."""
    prk = hmac.new(b"pcp/keys/v1", master, hashlib.sha256).digest()
    return hmac.new(prk, label + b"\x01", hashlib.sha256).digest()


def derive_session_keys(master: bytes, role: str) -> SessionKeys:
    """Split the exchange output into directional data keys + confirm key."""
    k_init = _hkdf(master, LABEL_SEND_INITIATOR)
    k_resp = _hkdf(master, LABEL_SEND_RESPONDER)
    k_confirm = _hkdf(master, LABEL_CONFIRM)
    if role == ROLE_INITIATOR:
        return SessionKeys(k_send=k_init, k_recv=k_resp, k_confirm=k_confirm, role=role)
    return SessionKeys(k_send=k_resp, k_recv=k_init, k_confirm=k_confirm, role=role)


def _encode_msg1(binding: str, element: bytes) -> bytes:
    raw = binding.encode("utf-8")
    if not raw or len(raw) > MAX_BINDING_LEN:
        raise ProtocolError("bad session binding length")
    return len(raw).to_bytes(2, "big") + raw + element


def _decode_msg1(payload: bytes) -> tuple[str, bytes]:
    if len(payload) < 2:
        raise ProtocolError("truncated key-exchange message")
    blen = int.from_bytes(payload[:2], "big")
    if blen == 0 or blen > MAX_BINDING_LEN or len(payload) != 2 + blen + ELEMENT_LEN:
        raise ProtocolError("malformed key-exchange message")
    try:
        binding = str(payload[2 : 2 + blen], "utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("session binding is not UTF-8") from None
    return binding, payload[2 + blen :]


async def _guarded(conn: Connection, step: Coroutine, what: str):
    """Run one handshake step under HANDSHAKE_TIMEOUT; any failure aborts ``conn``."""
    try:
        async with Scope(HANDSHAKE_TIMEOUT):
            return await step
    except WaitTimeout:
        conn.abort()
        raise HandshakeTimeout(f"{what} timed out") from None
    except (PcpError, Cancelled):
        conn.abort()
        raise


async def _initiate(
    conn: Connection, secret: PakeSecret, rng: random.Random
) -> tuple[SessionKeys, bytes, str]:
    party = PakeParty(secret.password, ROLE_INITIATOR, secret.session_binding, rng)
    msg1 = framing.pack_frame(
        framing.TYPE_PAKE_MSG_1, _encode_msg1(secret.session_binding, party.message())
    )
    await conn.send(msg1)
    payload = await framing.expect_frame(conn, framing.TYPE_PAKE_MSG_2, ELEMENT_LEN)
    master = party.derive(payload)  # refuses a short reply, like any malformed element
    transcript = msg1 + framing.pack_frame(framing.TYPE_PAKE_MSG_2, payload)
    return derive_session_keys(master, ROLE_INITIATOR), transcript, secret.session_binding


async def _respond(
    conn: Connection,
    password: bytes | PakePassword,
    rng: random.Random,
    allowed_bindings: Collection[str],
) -> tuple[SessionKeys, bytes, str]:
    payload = await framing.expect_frame(conn, framing.TYPE_PAKE_MSG_1, _MAX_MSG1)
    binding, peer_element = _decode_msg1(payload)
    if binding not in allowed_bindings:
        raise ProtocolError(f"peer bound to unknown rendezvous id {binding!r}")
    party = PakeParty(password, ROLE_RESPONDER, binding, rng)
    msg2 = framing.pack_frame(framing.TYPE_PAKE_MSG_2, party.message())
    await conn.send(msg2)
    master = party.derive(peer_element)
    transcript = framing.pack_frame(framing.TYPE_PAKE_MSG_1, payload) + msg2
    return derive_session_keys(master, ROLE_RESPONDER), transcript, binding


async def pake_handshake(
    conn: Connection,
    secret: PakeSecret,
    role: str,
    rng: random.Random,
    *,
    allowed_bindings: Collection[str] = frozenset(),
) -> tuple[SessionKeys, bytes, str]:
    """Run the exchange; returns (keys, transcript bytes, session binding).

    The dialer passes ``role=ROLE_INITIATOR`` with the binding inside
    ``secret``; the accepting side passes ``ROLE_RESPONDER`` and the set of
    rendezvous ids it actually published under, and refuses a peer bound to
    any other id (with none given, every peer) before it computes anything.
    The initiator ignores ``allowed_bindings``. A mismatched passphrase is
    NOT detected here — both sides still derive keys, they just differ;
    confirm_key() is where a mismatch surfaces.

    Any failure aborts the connection: malformed input raises ProtocolError
    and HandshakeTimeout follows HANDSHAKE_TIMEOUT seconds without a result.
    A frame header announcing more than its type allows fails before the
    payload is read. The transcript holds both frames byte for byte; a
    received frame is packed again from its payload, which gives the same
    bytes because a header depends only on the type and the length.
    """
    if role == ROLE_INITIATOR:
        step = _initiate(conn, secret, rng)
    else:
        step = _respond(conn, secret.password, rng, allowed_bindings)
    return await _guarded(conn, step, "key exchange")


async def _confirm(conn: Connection, keys: SessionKeys, transcript: bytes) -> "SecureChannel":
    own = hmac.new(keys.k_confirm, CONFIRM_LABEL[keys.role] + transcript, hashlib.sha256)
    await conn.send(framing.pack_frame(framing.TYPE_CONFIRM_TAG, own.digest()))
    peer_tag = await framing.expect_frame(conn, framing.TYPE_CONFIRM_TAG, _CONFIRM_TAG_LEN)
    other_role = ROLE_RESPONDER if keys.role == ROLE_INITIATOR else ROLE_INITIATOR
    expected = hmac.new(
        keys.k_confirm, CONFIRM_LABEL[other_role] + transcript, hashlib.sha256
    ).digest()
    if not hmac.compare_digest(peer_tag, expected):
        raise AuthenticationFailure("key confirmation failed; dropping connection")
    return SecureChannel(conn, keys)


async def confirm_key(conn: Connection, keys: SessionKeys, transcript: bytes) -> "SecureChannel":
    """Mutual proof that both sides derived the same keys.

    Each side MACs the handshake transcript under its own direction label
    and checks the peer's tag under the opposite label. Any mismatch —
    wrong passphrase, tampered handshake bytes — aborts the connection.

    As with any handshake, corruption of the final tag in flight is caught
    only by its receiver; the other side learns of it when the aborted
    connection refuses to carry data. The step fails with HandshakeTimeout
    after HANDSHAKE_TIMEOUT.
    """
    return await _guarded(conn, _confirm(conn, keys, transcript), "key confirmation")


class SecureChannel:
    """AEAD-framed duplex channel over a confirmed connection.

    Nonces are the per-direction 64-bit send counters, so they can never
    repeat under a key; the direction label rides along as associated data,
    which kills reflection. Any decrypt failure is terminal: the channel
    aborts rather than resynchronize.
    """

    def __init__(self, conn: Connection, keys: SessionKeys):
        self.conn = conn
        self._seal = ChaCha20Poly1305(keys.k_send)
        self._open = ChaCha20Poly1305(keys.k_recv)
        self._send_label = (
            LABEL_SEND_INITIATOR if keys.role == ROLE_INITIATOR else LABEL_SEND_RESPONDER
        )
        self._recv_label = (
            LABEL_SEND_RESPONDER if keys.role == ROLE_INITIATOR else LABEL_SEND_INITIATOR
        )
        self._send_counter = 0
        self._recv_counter = 0
        self._slab_tail = memoryview(b"")  # the unused rest of the current send slab
        self.aborted = False

    @staticmethod
    def _nonce(counter: int) -> bytes:
        return b"\x00\x00\x00\x00" + counter.to_bytes(8, "big")

    def seal(self, plaintext: bytes) -> memoryview:
        """Encrypt one message into a complete wire frame, a view of the send slab.

        The ciphertext is written straight after the header, and
        ``plaintext`` is not kept, so the caller may reuse its buffer. No
        later seal writes into a returned frame; a slab is unmapped once its
        last frame is dropped and the channel has moved on. A message over
        ``MAX_PLAINTEXT`` is refused before it spends a nonce.
        """
        if self.aborted:
            raise DecryptError("channel already aborted")
        if self._send_counter >= _NONCE_LIMIT:
            self.abort()
            raise ChannelExhausted("send counter exhausted; refusing nonce reuse")
        if len(plaintext) > MAX_PLAINTEXT:
            raise ProtocolError(f"message of {len(plaintext)} bytes exceeds the sealing limit")
        length = len(plaintext) + _TAG_LEN
        size = framing.HEADER_LEN + length
        if size > len(self._slab_tail):
            doubled = min(2 * len(self._slab_tail.obj), _SLAB_MAX)
            self._slab_tail = _new_slab(max(size, _SLAB_MIN, doubled))
        frame = self._slab_tail[:size]
        self._slab_tail = self._slab_tail[size:]
        frame[: framing.HEADER_LEN] = framing.pack_header(framing.TYPE_APP_DATA, length)
        self._seal.encrypt_into(
            self._nonce(self._send_counter),
            plaintext,
            self._send_label,
            frame[framing.HEADER_LEN :],
        )
        self._send_counter += 1
        return frame

    def open(self, ciphertext: bytes) -> bytes:
        """Decrypt one app-data payload (any bytes-like object); any failure aborts the channel."""
        if self.aborted:
            raise DecryptError("channel already aborted")
        if self._recv_counter >= _NONCE_LIMIT:
            self.abort()
            raise ChannelExhausted("receive counter exhausted")
        try:
            pt = self._open.decrypt(self._nonce(self._recv_counter), ciphertext, self._recv_label)
        except InvalidTag:
            self.abort()
            raise DecryptError("frame failed authentication; channel aborted") from None
        self._recv_counter += 1
        return pt

    async def send(self, plaintext: bytes) -> None:
        await self.conn.send(self.seal(plaintext))

    async def recv(self) -> bytes:
        """Receive and open the next app-data frame."""
        try:
            payload = await framing.expect_frame(self.conn, framing.TYPE_APP_DATA, _MAX_SEALED)
        except ProtocolError:
            self.abort()
            raise
        return self.open(payload)

    async def close(self) -> None:
        await self.conn.close()

    def abort(self) -> None:
        self.aborted = True
        self.conn.abort()
