"""Pinned trace hashes of the acceptance-8 scenario battery.

Acceptance 8 only checks that a seed reproduces its own trace. These pins
also catch a change that alters the trace the same way on every run: a
refactor that should leave behaviour alone must leave these hashes alone.
A change that alters the trace on purpose updates the pin and says why.
The values were computed on CPython 3.11.7.

Last update: ``conn_open`` events no longer carry a ``relay`` key, since
simnet has no relay hop; each pin is the previous battery trace with only
that key removed from every ``conn_open``.
"""

import pytest

from test_acceptance import _scenario_battery

GOLDEN = {
    1234: "713f00a7c036cf28b49b72ba486165abab6579e4d37c7b2f7e6ede87fe7cbdd3",
    4321: "e40076d77d3d22d6d968fae1e975f434e3545c4e3059e4d321578c6ea8b00238",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_scenario_battery_trace_hash_is_pinned(seed, tmp_path):
    assert _scenario_battery(seed, str(tmp_path)) == GOLDEN[seed]
