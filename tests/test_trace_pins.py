"""The acceptance-8 scenario battery's trace, pinned line by line.

``tests/test_trace_golden.py`` pins the battery's hash, which says only
whether the trace moved. These pins hold the JSONL lines themselves, one
gzipped file per seed, so a change that moves the trace shows the first
event that differs. A change that moves the trace on purpose rewrites the
pins with

    PYTHONPATH=src python tests/test_trace_pins.py

and says why, next to the new hashes in ``tests/test_trace_golden.py``.
A failing pin and the rewrite both print each event kind's count, pinned
against got, so a moved trace shows which kinds moved.
"""

import gzip
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from pcp.kernel import TraceLog
from test_acceptance import _scenario_battery

HERE = Path(__file__).resolve().parent
SEEDS = (1234, 4321)


def _pin_path(seed: int) -> Path:
    return HERE / f"trace_battery_{seed}.jsonl.gz"


def _pinned_lines(seed: int) -> list[str]:
    return gzip.decompress(_pin_path(seed).read_bytes()).decode("utf-8").splitlines()


def _kind_counts(pinned: list[str], got: list[str]) -> str:
    """A table of each event kind's count, pinned against got; '*' marks a change."""
    old, new = (Counter(json.loads(line)["event"] for line in lines) for lines in (pinned, got))
    rows = [f"{'event':<24}{'pinned':>8}{'got':>8}"]
    for kind in sorted(old | new):
        mark = "" if old[kind] == new[kind] else "  *"
        rows.append(f"{kind:<24}{old[kind]:>8}{new[kind]:>8}{mark}")
    rows.append(f"{'(all)':<24}{len(pinned):>8}{len(got):>8}")
    return "\n".join(rows)


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
    pinned = _pinned_lines(seed)
    # an assert's message is built only when it fails
    for i, (want, line) in enumerate(zip(pinned, got)):
        assert line == want, (
            f"line {i + 1} of {len(pinned)} differs:\npinned {want}\n   got {line}\n"
            + _kind_counts(pinned, got)
        )
    assert len(got) == len(pinned), _kind_counts(pinned, got)


if __name__ == "__main__":
    import tempfile

    for seed in SEEDS:
        pinned = _pinned_lines(seed) if _pin_path(seed).exists() else []
        hash_lines = TraceLog.sha256
        try:
            with tempfile.TemporaryDirectory() as root:
                lines = _battery_lines(seed, root, setattr)
        finally:
            TraceLog.sha256 = hash_lines
        raw = "".join(line + "\n" for line in lines).encode("utf-8")
        # mtime 0, so the same lines always give the same bytes
        _pin_path(seed).write_bytes(gzip.compress(raw, mtime=0))
        print(f"{_pin_path(seed).name}: {len(pinned)} -> {len(lines)} lines", file=sys.stderr)
        print(_kind_counts(pinned, lines), file=sys.stderr)
