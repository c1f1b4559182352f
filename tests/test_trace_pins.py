"""The acceptance-8 scenario battery's trace, pinned line by line.

``tests/test_trace_golden.py`` pins the battery's hash, which says only
whether the trace moved. These pins hold the JSONL lines themselves, one
gzipped file per seed, so a change that moves the trace shows the first
event that differs. A change that moves the trace on purpose rewrites the
pins with

    PYTHONPATH=src python tests/test_trace_pins.py

and says why, next to the new hashes in ``tests/test_trace_golden.py``.
"""

import gzip
import sys
from pathlib import Path

import pytest

from pcp.kernel import TraceLog
from test_acceptance import _scenario_battery

HERE = Path(__file__).resolve().parent
SEEDS = (1234, 4321)


def _pin_path(seed: int) -> Path:
    return HERE / f"trace_battery_{seed}.jsonl.gz"


def _battery_lines(seed: int, root: str, patch) -> list[str]:
    """Run the battery; return every line of each trace it hashes, in order."""
    lines = []
    hash_lines = TraceLog.sha256

    def recording(trace):
        lines.extend(trace.lines())
        return hash_lines(trace)

    patch(TraceLog, "sha256", recording)
    _scenario_battery(seed, root)
    return lines


@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_battery_trace_lines_are_pinned(seed, tmp_path, monkeypatch):
    got = _battery_lines(seed, str(tmp_path), monkeypatch.setattr)
    pinned = gzip.decompress(_pin_path(seed).read_bytes()).decode("utf-8").splitlines()
    for i, (want, line) in enumerate(zip(pinned, got)):
        assert line == want, f"line {i + 1} of {len(pinned)} differs:\npinned {want}\n   got {line}"
    assert len(got) == len(pinned)


if __name__ == "__main__":
    import tempfile

    for seed in SEEDS:
        hash_lines = TraceLog.sha256
        try:
            with tempfile.TemporaryDirectory() as root:
                lines = _battery_lines(seed, root, setattr)
        finally:
            TraceLog.sha256 = hash_lines
        raw = "".join(line + "\n" for line in lines).encode("utf-8")
        # mtime 0, so the same lines always give the same bytes
        _pin_path(seed).write_bytes(gzip.compress(raw, mtime=0))
        print(f"{_pin_path(seed).name}: {len(lines)} lines", file=sys.stderr)
