"""Byte-exact wire framing shared by the handshake and the data channel.

Every frame on a connection looks like:

    [1 byte protocol version][1 byte message type][4 bytes payload length,
     big endian][payload]

Frame types 0x01/0x02 carry the two key-exchange messages, 0x03 the key
confirmation tag, and 0x10 encrypted application data.
"""

from __future__ import annotations

from .errors import ProtocolError
from .simnet import Connection

PROTOCOL_VERSION = 0x01

TYPE_PAKE_MSG_1 = 0x01
TYPE_PAKE_MSG_2 = 0x02
TYPE_CONFIRM_TAG = 0x03
TYPE_APP_DATA = 0x10

_KNOWN_TYPES = {TYPE_PAKE_MSG_1, TYPE_PAKE_MSG_2, TYPE_CONFIRM_TAG, TYPE_APP_DATA}

HEADER_LEN = 6
MAX_PAYLOAD = 16 * 1024 * 1024  # sanity bound, far above any legal frame


def pack_header(frame_type: int, length: int) -> bytes:
    """The 6-byte header of a frame whose payload is ``length`` bytes.

    Only pcp's own frame types and lengths reach here, so nothing is checked;
    ``parse_header`` checks what a peer sends.
    """
    return bytes((PROTOCOL_VERSION, frame_type)) + length.to_bytes(4, "big")


def pack_frame(frame_type: int, payload: bytes) -> bytes:
    return pack_header(frame_type, len(payload)) + payload


def parse_header(header: bytes) -> tuple[int, int]:
    """Validate a 6-byte header; returns (frame_type, payload_length)."""
    if len(header) != HEADER_LEN:
        raise ProtocolError("short frame header")
    version, frame_type = header[0], header[1]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version 0x{version:02x}")
    if frame_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown frame type 0x{frame_type:02x}")
    length = int.from_bytes(header[2:6], "big")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame length {length} exceeds limit")
    return frame_type, length


async def read_frame(conn: Connection, max_len: int) -> tuple[int, bytes]:
    """Read one frame; returns (type, payload).

    The header is checked, its length against ``max_len`` too, before any
    payload byte is read. The payload is bytes-like: for a frame that
    arrived whole it is a memoryview of the object the peer sent.
    """
    header = await conn.recv_exactly(HEADER_LEN)
    frame_type, length = parse_header(header)
    if length > max_len:
        raise ProtocolError(
            f"frame type 0x{frame_type:02x} of {length} bytes exceeds its {max_len}-byte bound"
        )
    return frame_type, await conn.recv_exactly(length)


async def expect_frame(conn: Connection, frame_type: int, max_len: int) -> bytes:
    """Read one frame of at most ``max_len`` payload bytes and require its type."""
    got_type, payload = await read_frame(conn, max_len)
    if got_type != frame_type:
        raise ProtocolError(
            f"expected frame type 0x{frame_type:02x}, got 0x{got_type:02x}"
        )
    return payload
