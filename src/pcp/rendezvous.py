"""Time-slotted rendezvous keys.

Both peers derive the same discovery id from shared state only: the
channel number carried by the first passphrase word and the current unix
time truncated to a slot boundary. The wire-visible id string is

    /pcp/{slot_start_seconds}/{channel}

and the 32-byte content key under which provider records are published is
the SHA-256 of that string's ASCII bytes. Changing either format breaks
interoperability.

The slot policy lives here too: a sender publishes under the current
slot's key, a receiver queries the current and the previous slot, and
each waits for the next slot boundary before it looks again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import InvalidArgument

ID_PREFIX = "/pcp"
SLOT_WIDTH = 300  # seconds; protocol constant
CHANNEL_MAX = 2047


@dataclass(frozen=True)
class TimeSlot:
    """A half-open window [start, start + SLOT_WIDTH) on the unix timeline."""

    start: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise InvalidArgument("slot start must be non-negative")
        if self.start % SLOT_WIDTH != 0:
            raise InvalidArgument(
                f"slot start {self.start} is not a multiple of {SLOT_WIDTH}"
            )


@dataclass(frozen=True)
class DiscoveryKey:
    """A rendezvous point: canonical id string plus its content key."""

    channel: int
    slot: TimeSlot
    id_string: str
    content_key: bytes


def truncate_to_slot(now: float) -> TimeSlot:
    """Truncate a unix timestamp down to its slot boundary."""
    if now < 0:
        raise InvalidArgument("timestamp must be non-negative")
    return TimeSlot(start=(int(now) // SLOT_WIDTH) * SLOT_WIDTH)


def previous_slot(slot: TimeSlot) -> TimeSlot:
    """The slot immediately before ``slot``; underflow at the epoch is an error."""
    if slot.start < SLOT_WIDTH:
        raise InvalidArgument("no slot before the epoch")
    return TimeSlot(start=slot.start - SLOT_WIDTH)


def next_slot_delay(slot: TimeSlot, now: float) -> float:
    """Seconds from ``now`` until ``slot`` ends; at least 1 ms, so a loop that
    waits for the next slot always moves virtual time forward."""
    return max(slot.start + SLOT_WIDTH - now, 0.001)


def discovery_key(channel: int, slot: TimeSlot) -> DiscoveryKey:
    """Derive the canonical id string and content key for (channel, slot)."""
    if not 0 <= channel <= CHANNEL_MAX:
        raise InvalidArgument(f"channel {channel} outside 0..{CHANNEL_MAX}")
    id_string = f"{ID_PREFIX}/{slot.start}/{channel}"
    content_key = hashlib.sha256(id_string.encode("ascii")).digest()
    return DiscoveryKey(
        channel=channel, slot=slot, id_string=id_string, content_key=content_key
    )


def sender_publish_key(channel: int, now: float) -> DiscoveryKey:
    """The single key a sender publishes under at time ``now``."""
    return discovery_key(channel, truncate_to_slot(now))


def receiver_query_keys(channel: int, now: float) -> list[DiscoveryKey]:
    """Current slot plus, when it exists, the previous slot."""
    slot = truncate_to_slot(now)
    keys = [discovery_key(channel, slot)]
    if slot.start >= SLOT_WIDTH:
        keys.append(discovery_key(channel, previous_slot(slot)))
    return keys
