"""Pinned trace hashes of the acceptance-8 scenario battery.

Acceptance 8 only checks that a seed reproduces its own trace. These pins
also catch a change that alters the trace the same way on every run: a
refactor that should leave behaviour alone must leave these hashes alone.
A change that alters the trace on purpose updates the pin and says why.
The values were computed on CPython 3.11.7.
"""

import pytest

from test_acceptance import _scenario_battery

GOLDEN = {
    1234: "40bc467fe99818439fd4de2d4db6f376bd93ae2b5a2a4d420d12d891e3907c63",
    4321: "03fe29b90c86c081f0bb72cf36be3f4ad7ed871df0e7f976d58a2e4b6be95e1a",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_scenario_battery_trace_hash_is_pinned(seed, tmp_path):
    assert _scenario_battery(seed, str(tmp_path)) == GOLDEN[seed]
