"""Micro mode: each hot public call of pcp timed on its own.

These figures are the low-noise reference for the traced per-layer numbers,
and are cross-checked against the baseline recorded in ROADMAP.md (Python
3.11, no gmpy2): about 9 ms per modular exponentiation, about 92 ms per
two-party handshake, and 75-110 MiB/s for the whole data path.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import run

FRAME = 64 * 1024
BASELINE = {"pow_ms": 9.0, "handshake_pair_ms": 92.0, "data_path_MiBps": (75.0, 110.0)}


def per_call(fn, calls: int, batches: int) -> float:
    """Median seconds per call over ``batches`` batches of ``calls`` calls."""
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def run_micro(pcp: dict) -> int:
    pake, auth, framing, transfer = pcp["pake"], pcp["auth"], pcp["framing"], pcp["transfer"]
    rng = random.Random(1)
    password, binding = b"alpha-bravo-charlie-delta", "/pcp/1700000100/0"

    def party(role):
        return pake.PakeParty(password, role, binding, rng)

    initiator, responder = party(pake.ROLE_INITIATOR), party(pake.ROLE_RESPONDER)
    peer_message = responder.message()

    def handshake_pair():
        a, b = party(pake.ROLE_INITIATOR), party(pake.ROLE_RESPONDER)
        a.derive(b.message())
        b.derive(a.message())

    master = initiator.derive(peer_message)
    sealer = auth.SecureChannel(None, auth.derive_session_keys(master, pake.ROLE_INITIATOR))
    opener = auth.SecureChannel(None, auth.derive_session_keys(master, pake.ROLE_RESPONDER))
    plaintext = rng.randbytes(FRAME)
    frames = [sealer.seal(plaintext)[framing.HEADER_LEN:] for _ in range(8 * 64)]
    opened = iter(frames)
    header = framing.pack_frame(framing.TYPE_APP_DATA, plaintext)[:framing.HEADER_LEN]

    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "micro-manifest.bin"
    size_mib = 16
    run.write_random(path, rng, size_mib * run.MiB)
    try:
        manifest_s = per_call(lambda: transfer.manifest_for_file(str(path)), 1, 5) / size_mib
    finally:
        path.unlink()

    s = {
        "pake.party": per_call(lambda: party(pake.ROLE_INITIATOR), 1, 15),
        "pake.derive": per_call(lambda: initiator.derive(peer_message), 1, 15),
        "pake.decode_element": per_call(lambda: pake.decode_element(peer_message), 1, 15),
        "pake.handshake_pair": per_call(handshake_pair, 1, 7),
        "auth.seal_64KiB": per_call(lambda: sealer.seal(plaintext), 64, 7),
        "auth.open_64KiB": per_call(lambda: opener.open(next(opened)), 64, 7),
        "framing.pack_frame_64KiB": per_call(
            lambda: framing.pack_frame(framing.TYPE_APP_DATA, plaintext), 64, 7),
        "framing.parse_header": per_call(lambda: framing.parse_header(header), 1000, 7),
        "transfer.manifest_per_MiB": manifest_s,
    }
    micro = {
        "pake.party_ms": s["pake.party"] * 1e3,
        "pake.derive_ms": s["pake.derive"] * 1e3,
        "pake.decode_element_ms": s["pake.decode_element"] * 1e3,
        "pake.handshake_pair_ms": s["pake.handshake_pair"] * 1e3,
        "auth.seal_64KiB_us": s["auth.seal_64KiB"] * 1e6,
        "auth.open_64KiB_us": s["auth.open_64KiB"] * 1e6,
        "framing.pack_frame_64KiB_us": s["framing.pack_frame_64KiB"] * 1e6,
        "framing.parse_header_us": s["framing.parse_header"] * 1e6,
        "transfer.manifest_ms_per_MiB": s["transfer.manifest_per_MiB"] * 1e3,
    }
    # A party computes two exponentiations and decode_element one, so both
    # give the cost of one pow; the data-path subset is seal, open, framing
    # and the digest pre-pass for one MiB, without simnet and the disk write.
    per_mib = 16 * (s["auth.seal_64KiB"] + s["auth.open_64KiB"]
                    + s["framing.pack_frame_64KiB"] + s["framing.parse_header"])
    measured = {
        "pow_ms": statistics.mean([micro["pake.party_ms"] / 2, micro["pake.decode_element_ms"]]),
        "handshake_pair_ms": micro["pake.handshake_pair_ms"],
        "data_path_subset_MiBps": 1.0 / (per_mib + s["transfer.manifest_per_MiB"]),
    }
    lo, hi = BASELINE["data_path_MiBps"]
    check = {
        "pow_ms": {"measured": measured["pow_ms"], "baseline": BASELINE["pow_ms"],
                   "ratio": measured["pow_ms"] / BASELINE["pow_ms"]},
        "handshake_pair_ms": {
            "measured": measured["handshake_pair_ms"],
            "baseline": BASELINE["handshake_pair_ms"],
            "ratio": measured["handshake_pair_ms"] / BASELINE["handshake_pair_ms"]},
        "data_path_subset_MiBps": {
            "measured": measured["data_path_subset_MiBps"],
            "baseline_whole_path": [lo, hi],
            "note": "a subset of the path, so it should read above the whole-path range"},
    }
    print(json.dumps({"env": run.env_stamp(None), "micro": micro, "baseline_check": check}))
    return 0
