"""Pinned trace hashes of the acceptance-8 scenario battery.

Acceptance 8 only checks that a seed reproduces its own trace. These pins
also catch a change that alters the trace the same way on every run: a
refactor that should leave behaviour alone must leave these hashes alone.
A change that alters the trace on purpose updates the pin and says why.
The values were computed on CPython 3.11.7.

Last update: a lookup traces ``provider_found`` once per provider, when
its stream takes the provider in, instead of once per poll that answers
with it; each pin is the previous battery trace less every repeated
``provider_found`` (same node, key, backend and provider within one
trace), renumbered.
"""

import pytest

from test_acceptance import _scenario_battery

GOLDEN = {
    1234: "47ff030913493c76c0d52854dd2e6a03eea46ece499f4c6959f691485abeab50",
    4321: "aaca52438413d2698eebcbbfa87be7c0e6575a28731f431daa08140e2ed51251",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_scenario_battery_trace_hash_is_pinned(seed, tmp_path):
    assert _scenario_battery(seed, str(tmp_path)) == GOLDEN[seed]
