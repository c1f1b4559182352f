import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from pcp.errors import InvalidArgument
from pcp.rendezvous import (
    SLOT_WIDTH,
    TimeSlot,
    discovery_key,
    previous_slot,
    truncate_to_slot,
)

# sha256 of the ASCII id strings, computed with the sha256sum tool
KEY_PCP_0_0 = "4e8acdc02652f139b0c0b2b9156ca42be4f28b1a741fd4fd2e4639cc3bf23ea6"
KEY_PCP_1617283200_42 = "87b3de3e41dfaa5b441e94360afd12f7af3155719e4e22d01191eea222f32ef4"


class TestTruncate:
    def test_mid_slot_timestamp(self):
        slot = truncate_to_slot(1617283473)
        # oracle: independent integer arithmetic
        assert slot.start == (1617283473 // 300) * 300 == 1617283200

    def test_zero(self):
        assert truncate_to_slot(0).start == 0

    def test_boundaries(self):
        assert truncate_to_slot(299).start == 0
        assert truncate_to_slot(300).start == 300

    @given(st.integers(0, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, now):
        slot = truncate_to_slot(now)
        assert truncate_to_slot(slot.start) == slot
        assert slot.start <= now < slot.start + SLOT_WIDTH


class TestPreviousSlot:
    def test_subtracts_width(self):
        assert previous_slot(TimeSlot(1617283200)).start == 1617282900

    def test_first_regular_slot(self):
        assert previous_slot(TimeSlot(300)).start == 0

    def test_epoch_underflow(self):
        with pytest.raises(InvalidArgument):
            previous_slot(TimeSlot(0))


class TestDiscoveryKey:
    def test_wire_id_format(self):
        key = discovery_key(42, TimeSlot(1617283200))
        assert key.id_string == "/pcp/1617283200/42"
        assert key.content_key == bytes.fromhex(KEY_PCP_1617283200_42)

    def test_zero_case_external_digest(self):
        key = discovery_key(0, TimeSlot(0))
        assert key.id_string == "/pcp/0/0"
        assert key.content_key == bytes.fromhex(KEY_PCP_0_0)

    def test_two_parties_compute_identical_keys(self):
        a = discovery_key(7, TimeSlot(600))
        b = discovery_key(7, TimeSlot(600))
        assert a.content_key == b.content_key
        assert a.id_string == b.id_string

    def test_channel_out_of_range(self):
        with pytest.raises(InvalidArgument):
            discovery_key(2048, TimeSlot(0))
        with pytest.raises(InvalidArgument):
            discovery_key(-1, TimeSlot(0))

    def test_no_padding_in_id(self):
        assert discovery_key(5, TimeSlot(0)).id_string == "/pcp/0/5"

    def test_distinct_ids_all_channels_three_slots(self):
        ids = {
            discovery_key(c, TimeSlot(s)).id_string
            for c in range(2048)
            for s in (0, 300, 600)
        }
        assert len(ids) == 2048 * 3

    def test_content_key_is_plain_digest_of_id(self):
        key = discovery_key(1023, TimeSlot(900))
        assert key.content_key == hashlib.sha256(key.id_string.encode("ascii")).digest()


class TestSlotCoverage:
    def test_receiver_query_set_covers_sender_slot(self):
        # exhaustive over a 4-slot window at 1 second resolution: whenever the
        # receiver's slot equals or directly follows the sender's, the pair
        # {current, previous} contains the sender's slot
        width = SLOT_WIDTH
        for t_send in range(0, 4 * width, 1):
            send_slot = truncate_to_slot(t_send)
            for offset in range(0, 2 * width + 1):
                t_recv = t_send + offset
                recv_slot = truncate_to_slot(t_recv)
                delta = recv_slot.start - send_slot.start
                queried = {recv_slot.start}
                if recv_slot.start >= width:
                    queried.add(previous_slot(recv_slot).start)
                if delta in (0, width):
                    assert send_slot.start in queried
                else:
                    assert send_slot.start not in queried
