"""Pinned trace hashes of the acceptance-8 scenario battery.

Acceptance 8 only checks that a seed reproduces its own trace. These pins
also catch a change that alters the trace the same way on every run: a
refactor that should leave behaviour alone must leave these hashes alone.
A change that alters the trace on purpose updates the pin and says why.
The values were computed on CPython 3.11.7.

Last update: a session's hunt is one kernel scope that cancels and joins
its tasks before the session traces ``losers_cancelled``, so the reset of
a loser's connection, aborted as its handshake is cancelled, is traced
before ``losers_cancelled`` and the ``awaiting-confirmation`` phase of the
same tick instead of after them. Each event kind's count, every event's
time and every field are unchanged; only events with the same ``t`` moved.
"""

import pytest

from test_acceptance import _scenario_battery

GOLDEN = {
    1234: "76a7f7a2b05bd958e6470fd464375f48f2852f62e9a64016d01ae8fc9959eecd",
    4321: "bbb946beb9fc1daac2d2f135cde5663bf7ff84fd1fe42fa0f13f79668523e066",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_scenario_battery_trace_hash_is_pinned(seed, tmp_path):
    assert _scenario_battery(seed, str(tmp_path)) == GOLDEN[seed]
