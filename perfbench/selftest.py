#!/usr/bin/env python3
"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

It checks, in about four minutes:

1. secret hygiene: the span-file scan finds a planted passphrase in each of
   its spellings and passes a clean file, and real traced runs pass it;
2. determinism: two traced runs with the same seed give bit-identical
   virtual-time metrics and identical counts, and a different seed changes
   them, so the workloads really consume the seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

COUNTS = ("pake.parties", "auth.handshakes", "kernel.trace_events", "discovery.lookups")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def secret_forms(code: str) -> list[str]:
    """Spellings of a passphrase that must never appear in trace output."""
    words = code.split("-")
    return [code, " ".join(words), json.dumps(words), "-".join(words[1:])]


def check_hygiene_scan() -> None:
    code = "abandon-zoo-zebra-wrap"
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        path = Path(tmp) / "spans.jsonl"
        path.write_text('{"name":"auth.seal","err":null}\n')
        check(run.find_secrets(path, [code]) == [], "clean span file reported as leaking")
        for form in secret_forms(code):
            path.write_text(f'{{"name":"auth.seal","err":{json.dumps(form)}}}\n')
            check(run.find_secrets(path, [code]) == [code], f"missed leaked form {form!r}")
    print("selftest: hygiene scan catches every planted spelling", flush=True)


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    stamp, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    check(result["correct"] and not stamp["details"]["violations"], str(stamp["details"]))
    counts = {k: result["metrics"][k]["value"] for k in COUNTS}
    return {"virtual": stamp["details"]["virtual"], "counts": counts}


def check_determinism(workload: str) -> None:
    first, again, other = traced_run(workload, 11), traced_run(workload, 11), traced_run(workload, 12)
    check(first == again, f"{workload}: same seed, different results:\n{first}\n{again}")
    check(all(first["virtual"][k] != other["virtual"][k] for k in first["virtual"]),
          f"{workload}: a virtual-time metric ignored the seed:\n{first}\n{other}")
    print(f"selftest: {workload} is deterministic per seed and seed-sensitive: "
          f"{json.dumps(first)}", flush=True)


def main() -> int:
    check_hygiene_scan()
    for workload in ("small-wan", "collision-lan"):
        check_determinism(workload)
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
