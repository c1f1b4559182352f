#!/usr/bin/env python3
"""pcp benchmark: seeded workloads on the in-process simulator.

Run from the repository root:

    python3 perfbench/run.py --workload small-wan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload bulk-lan --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --micro

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it is the environment stamp and the details (sample counts, the
virtual-time metrics, layer shares of wall time). Result and span files go to
``.bench_out/`` in the repository root. perfbench/README.md describes the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MiB = 1024 * 1024
SLOT_BASE = 1_700_000_100  # a slot boundary (multiple of 300 s)
SLOT_WIDTH = 300
SETUP_PROBES = 5
WARMUP_S = 3.0  # untimed units before the measured loop

clock = time.perf_counter

PCP_MODULES = (
    "kernel", "simnet", "discovery", "pake", "auth", "framing", "transfer",
    "session", "passphrase", "rendezvous", "wordlist", "simworld",
)


def import_pcp() -> dict:
    """Import the pcp package from this checkout's src/, never from elsewhere."""
    if not (SRC / "pcp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pcp sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"pcp.{name}") for name in PCP_MODULES}
    if Path(modules["kernel"].__file__).resolve().parent != SRC / "pcp":
        sys.exit("perfbench: imported pcp is not this checkout's src/pcp")
    return modules


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    sender_link: str
    receiver_link: str
    pairs: int  # concurrent sender/receiver pairs in one unit
    min_units: int  # deterministic prefix: virtual-time metrics and counts


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline case: DHT rendezvous over wan, handshake-bound.
        Workload("small-wan", "lan0", "lan1", 1, 200),
        # The data path dominates; PAKE work is negligible.
        Workload("bulk-lan", "lan0", "lan0", 1, 45),
        # Shared channel word: most handshakes fail confirmation.
        Workload("collision-lan", "lan0", "lan0", 4, 20),
    )
}

# The documented SimConfig defaults, spelled out: SimWorld's built-in mDNS
# fallback is (2, 8) seconds rather than milliseconds, and a fix to that must
# not shift this benchmark's virtual times.
WORLD = dict(
    links={"lan0": {"latency_ms": [1, 5]}, "lan1": {"latency_ms": [1, 5]}},
    wan={"latency_ms": [20, 80]},
    dht={"op_latency_ms": [200, 800], "query_interval_ms": 500},
    mdns={"op_latency_ms": [2, 8], "query_interval_ms": 250},
)
BULK_SIZE = 64 * MiB
SMALL_SIZE = 4096
COLLISION_RECEIVER_DELAY = 0.5


@dataclass
class PairSpec:
    delay: float  # virtual seconds between sender spawn and receiver spawn
    src: str
    size: int
    sha256: str
    words: tuple[str, ...] | None  # None: the sender draws its own passphrase


@dataclass
class UnitSpec:
    kernel_seed: int
    start_time: float
    pairs: list[PairSpec]


def write_random(path: Path, rng: random.Random, size: int) -> str:
    """Write ``size`` seeded bytes in 1 MiB pieces; returns their SHA-256."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        left = size
        while left:
            block = rng.randbytes(min(left, MiB))
            f.write(block)
            digest.update(block)
            left -= len(block)
    return digest.hexdigest()


class Plan:
    """The seeded inputs of one run; unit ``i`` depends only on (seed, i).

    Measured units count up from 0; warm-up units count down from -1.
    """

    def __init__(self, pcp: dict, workload: Workload, seed: int, work: Path):
        self.pcp = pcp
        self.workload = workload
        self.seed = seed
        self.work = work
        self.bulk: tuple[str, str] | None = None

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        if self.workload.name == "bulk-lan":
            src = self.work / "bulk.bin"
            rng = random.Random(f"bulk-lan/{self.seed}/file")
            self.bulk = (str(src), write_random(src, rng, BULK_SIZE))
            # Flush it now, so that its writeback does not run during the
            # measured loop.
            with open(src, "rb") as f:
                os.fsync(f.fileno())

    def unit(self, i: int, write_files: bool = True) -> UnitSpec:
        rng = random.Random(f"{self.workload.name}/{self.seed}/{i}")
        kernel_seed = rng.getrandbits(32)
        start = SLOT_BASE + rng.uniform(0, SLOT_WIDTH)
        name = self.workload.name
        pairs = []
        if name == "small-wan":
            delay = rng.uniform(0.0, 10.0)  # the receiver's typing delay
            src = self.work / "note.txt"
            digest = write_random(src, rng, SMALL_SIZE) if write_files else ""
            pairs.append(PairSpec(delay, str(src), SMALL_SIZE, digest, None))
        elif name == "bulk-lan":
            delay = rng.uniform(1.0, 3.0)
            src, digest = self.bulk or ("", "")
            pairs.append(PairSpec(delay, src, BULK_SIZE, digest, None))
        else:
            words = self.pcp["wordlist"].load_wordlist().words
            channel_word = words[rng.randrange(len(words))]
            tails: set[tuple[str, ...]] = set()
            for k in range(self.workload.pairs):
                tail = tuple(words[rng.randrange(len(words))] for _ in range(3))
                while tail in tails:
                    tail = tuple(words[rng.randrange(len(words))] for _ in range(3))
                tails.add(tail)
                size = 20_000 + 1000 * k
                src = self.work / f"pair{k}.bin"
                digest = write_random(src, rng, size) if write_files else ""
                pairs.append(PairSpec(COLLISION_RECEIVER_DELAY, str(src), size, digest,
                                      (channel_word,) + tail))
        return UnitSpec(kernel_seed, start, pairs)


def build_world(pcp: dict, workload: Workload, spec: UnitSpec):
    simworld = pcp["simworld"]
    world = simworld.SimWorld(
        simworld.SimConfig(seed=spec.kernel_seed, start_time=spec.start_time, **WORLD)
    )
    nodes = [
        (world.new_node([workload.sender_link]), world.new_node([workload.receiver_link]))
        for _ in spec.pairs
    ]
    return world, nodes


# -- running one unit ----------------------------------------------------------


@dataclass
class PairResult:
    size: int
    completed: bool
    wall_s: float  # sender spawn -> both outcomes
    file_s: float  # sender spawn -> verified file on disk (receiver outcome)
    rendezvous_v: float | None  # receiver start -> receiver winner event
    done_v: float | None  # receiver start -> receiver transfer_done event


@dataclass
class UnitResult:
    index: int
    makespan_s: float
    pairs: list[PairResult]
    codes: list[str]
    violations: list[str] = field(default_factory=list)


async def _accept(_manifest) -> bool:
    return True


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(MiB):
            digest.update(block)
    return digest.hexdigest()


def run_unit(pcp: dict, plan: Plan, i: int, dests: list[Path]) -> UnitResult:
    kernel_mod, session = pcp["kernel"], pcp["session"]
    spec = plan.unit(i)
    world, nodes = build_world(pcp, plan.workload, spec)
    config = world.session_config()
    kernel = world.kernel
    codes: list[str] = []
    timing: list[tuple] = [None] * len(spec.pairs)

    async def pair(k: int) -> None:
        p, (sender, receiver) = spec.pairs[k], nodes[k]
        shown: list[str] = []
        words = pcp["passphrase"].Passphrase(p.words) if p.words else None
        t0 = clock()
        st = kernel.spawn(
            session.run_sender(sender, config, p.src, passphrase=words, on_code=shown.append),
            name="bench-sender",
        )
        await kernel_mod.sleep(p.delay)
        if not shown:
            raise RuntimeError("sender showed no passphrase before the receiver started")
        codes.append(shown[0])
        v0 = kernel.now()
        rt = kernel.spawn(
            session.run_receiver(receiver, config, shown[0], dest_dir=str(dests[k]),
                                 decide=_accept),
            name="bench-receiver",
        )
        r_out = await rt.join()
        t_file = clock()
        s_out = await st.join()
        timing[k] = (t0, t_file, clock(), v0, s_out, r_out)

    async def main() -> float:
        t0 = clock()
        tasks = [kernel.spawn(pair(k), name=f"bench-pair{k}") for k in range(len(spec.pairs))]
        for task in tasks:
            await task.join()
        return clock() - t0

    makespan = kernel.run(main())

    marks: dict[tuple[str, str], float] = {}
    for e in kernel.trace.events:
        if e["event"] in ("winner", "transfer_done") and e.get("role") == "receiver":
            marks.setdefault((e["event"], e["node"]), e["t"])
    result = UnitResult(i, makespan, [], codes)
    for k, (p, (sender, receiver)) in enumerate(zip(spec.pairs, nodes)):
        t0, t_file, t_end, v0, s_out, r_out = timing[k]
        short = receiver.address.short()
        win, done = marks.get(("winner", short)), marks.get(("transfer_done", short))
        completed = s_out.status == "completed" and r_out.status == "completed"
        result.pairs.append(PairResult(
            p.size, completed, t_end - t0, t_file - t0,
            None if win is None else win - v0, None if done is None else done - v0,
        ))
        if r_out.status == "completed":
            if r_out.path is None or sha256_file(r_out.path) != p.sha256:
                result.violations.append(f"unit {i} pair {k}: received bytes differ from source")
            if r_out.path is not None:
                os.unlink(r_out.path)
        leftovers = [n for n in os.listdir(dests[k]) if n.startswith(".partial-")]
        if leftovers:
            result.violations.append(f"unit {i} pair {k}: partial files left: {len(leftovers)}")
        for n in leftovers:
            os.unlink(dests[k] / n)
    if len(spec.pairs) > 1:
        result.violations += _cross_pair_violations(kernel, nodes, i)
    return result


def _cross_pair_violations(kernel, nodes, i: int) -> list[str]:
    """Exactly one manifest per pair, each sent to its own pair's receiver."""
    allowed = {(s.address.short(), r.address.peer_id[:8]) for s, r in nodes}
    sent = [(e["src"], e["dst"]) for e in kernel.trace.events if e["event"] == "manifest_sent"]
    if len(sent) != len(nodes) or set(sent) != allowed:
        return [f"unit {i}: {len(sent)} manifests, expected one inside each of {len(nodes)} pairs"]
    return []


# -- statistics ------------------------------------------------------------------


def pct(values: list[float], q: float) -> float:
    """Quantile by linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def e2e_metrics(units: list[UnitResult], min_units: int) -> dict:
    pairs = [p for u in units for p in u.pairs]
    done = [p for p in pairs if p.completed]
    prefix = [p for u in units if u.index < min_units for p in u.pairs if p.completed]
    walls = [p.wall_s * 1e3 for p in done]
    rendezvous = [p.rendezvous_v for p in prefix]
    finished = [p.done_v for p in prefix]
    return {
        "session_wall_ms_p50": (pct(walls, 0.5), "ms"),
        "session_wall_ms_p90": (pct(walls, 0.9), "ms"),
        "goodput_MiBps": (statistics.median(p.size / MiB / p.file_s for p in done), "MiB/s"),
        "rendezvous_virt_s_p50": (pct(rendezvous, 0.5), "s"),
        "rendezvous_virt_s_p90": (pct(rendezvous, 0.9), "s"),
        "done_virt_s_p50": (pct(finished, 0.5), "s"),
        "done_virt_s_p90": (pct(finished, 0.9), "s"),
        "makespan_s": (statistics.median(u.makespan_s for u in units), "s"),
        "completed_ratio": (len(done) / len(pairs), "ratio"),
    }


# -- setup time -------------------------------------------------------------------


def setup_probe(workload: Workload, seed: int) -> None:
    """Child side of a setup measurement: get to the first session, then stop."""
    pcp = import_pcp()
    pcp["wordlist"].load_wordlist()
    plan = Plan(pcp, workload, seed, OUT)
    build_world(pcp, workload, plan.unit(0, write_files=False))
    print("ready", flush=True)


def measure_setup(workload: Workload, seed: int) -> float:
    """Process start to first session ready, measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    t0 = clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        t1 = clock()
        child.stdout.read()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
    return t1 - t0


# -- environment stamp and secret hygiene -------------------------------------------


def env_stamp(tracing_overhead_ms: float | None) -> dict:
    import cryptography

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "cryptography": cryptography.__version__,
        "nproc": nproc,
        "platform": platform.platform(),
        "tracing_overhead_ms": tracing_overhead_ms,
    }


def find_secrets(path: Path, codes: list[str]) -> list[str]:
    """Passphrases whose words, or whose secret words, occur in order in the file.

    Any run of up to 8 non-letters may separate the words, which covers the
    dash-joined and space-joined forms and a JSON list, also JSON-escaped.
    """
    text = path.read_text()
    tokens = set(re.findall(r"[a-z]+", text))
    leaked = set()
    for code in codes:
        words = code.split("-")
        if not set(words[1:]) <= tokens:
            continue
        for seq in (words, words[1:]):
            pattern = "[^a-z]{1,8}".join(map(re.escape, seq))
            if re.search(rf"(?<![a-z]){pattern}(?![a-z])", text):
                leaked.add(code)
    return sorted(leaked)


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(tracer, unit_stats: dict, units: list[UnitResult], min_units: int) -> tuple:
    """Per-layer metrics from the traced units; counts over the deterministic prefix."""
    spans = tracer.spans
    busy = tracer.busy_times()
    prefix_units = {i for i in unit_stats if i < min_units}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, prefix_only=False):
        return [s for s in by_name.get(name, ()) if not prefix_only or s.unit in prefix_units]

    def count(name):
        return len(named(name, True))

    def failed(name):
        return sum(1 for s in named(name, True) if s.err not in (None, "Cancelled"))

    def p50_busy_ms(name):
        return pct([busy[s.id] for s in named(name)], 0.5) * 1e3

    def mean_self_us(name):
        xs = named(name)
        return sum(s.self_s for s in xs) / len(xs) * 1e6

    def self_total(name):
        return sum(s.self_s for s in named(name))

    def virt_ms(name):
        xs = [(s.v1 - s.v0) * 1e3 for s in named(name, True) if s.err is None and s.v1 is not None]
        return pct(xs, 0.5)

    def stat_count(key):
        return sum(unit_stats[i].counts[key] for i in prefix_units)

    # pake time nested under each span (outermost pake spans only)
    pake_under = [0.0] * len(spans)
    for s in reversed(spans):
        if s.parent is not None:
            pake_under[s.parent] += busy[s.id] if s.name.startswith("pake.") else pake_under[s.id]

    completed_pairs = sum(p.completed for u in units if u.index in prefix_units for p in u.pairs)
    mib_sent = sum(p.size for u in units for p in u.pairs) / MiB
    mib_done = sum(p.size for u in units for p in u.pairs if p.completed) / MiB
    handshakes = named("auth.pake_handshake")
    handshake_self = sum(busy[s.id] - pake_under[s.id] for s in handshakes) + sum(
        busy[s.id] - pake_under[s.id] for s in named("auth.confirm_key"))
    first = [f for i in prefix_units for f in unit_stats[i].first_provider]
    recv_self = self_total("simnet.recv") + self_total("simnet.recv_exactly")

    m = {
        "pake.party_ms": (p50_busy_ms("pake.party"), "ms"),
        "pake.derive_ms": (p50_busy_ms("pake.derive"), "ms"),
        "pake.decode_element_ms": (p50_busy_ms("pake.decode_element"), "ms"),
        "pake.parties": (count("pake.party"), "count"),
        "auth.handshakes": (count("auth.pake_handshake"), "count"),
        "auth.handshake_fail": (failed("auth.pake_handshake"), "count"),
        "auth.confirm_fail": (failed("auth.confirm_key"), "count"),
        "auth.useful_ratio": (2 * completed_pairs / count("auth.pake_handshake"), "ratio"),
        "auth.handshake_self_ms": (handshake_self / len(handshakes) * 1e3, "ms"),
        "auth.seal_us": (mean_self_us("auth.seal"), "us"),
        "auth.open_us": (mean_self_us("auth.open"), "us"),
        "auth.frames": (count("auth.seal"), "count"),
        "framing.pack_frame_us": (mean_self_us("framing.pack_frame"), "us"),
        "framing.read_frame_self_us": (mean_self_us("framing.read_frame"), "us"),
        "simnet.send_us": (mean_self_us("simnet.send"), "us"),
        "simnet.recv_busy_us": (recv_self / len(named("framing.read_frame")) * 1e6, "us"),
        "simnet.bytes_sent": (stat_count("simnet.bytes_sent"), "count"),
        "simnet.inflight_peak_MiB": (
            max(unit_stats[i].inflight_peak for i in prefix_units) / MiB, "MiB"),
        "simnet.dials": (count("simnet.dial"), "count"),
        "simnet.dial_virt_ms": (virt_ms("simnet.dial"), "ms"),
        "discovery.provide_virt_ms.dht": (virt_ms("discovery.provide.dht"), "ms"),
        "discovery.provide_virt_ms.mdns": (virt_ms("discovery.provide.mdns"), "ms"),
        "discovery.first_provider_virt_ms": (pct([v * 1e3 for _, v in first], 0.5), "ms"),
        "discovery.first_provider_dht_share": (
            sum(b == "dht" for b, _ in first) / len(first), "ratio"),
        "discovery.lookups": (count("discovery.find_providers"), "count"),
        "discovery.providers_yielded": (stat_count("discovery.providers_yielded"), "count"),
        "transfer.manifest_ms_per_MiB": (
            self_total("transfer.manifest_for_file") * 1e3 / mib_sent, "ms/MiB"),
        "transfer.stream_self_ms_per_MiB": (
            self_total("transfer.stream_file") * 1e3 / mib_done, "ms/MiB"),
        "transfer.receive_self_ms_per_MiB": (
            self_total("transfer.receive_file") * 1e3 / mib_done, "ms/MiB"),
        "session.sender_self_ms": (
            pct([s.self_s for s in named("session.run_sender")], 0.5) * 1e3, "ms"),
        "session.receiver_self_ms": (
            pct([s.self_s for s in named("session.run_receiver")], 0.5) * 1e3, "ms"),
        "session.candidates": (stat_count("session.candidates"), "count"),
        "kernel.tasks_spawned": (stat_count("kernel.tasks_spawned"), "count"),
        "kernel.timers": (stat_count("kernel.timers"), "count"),
        "kernel.trace_events": (stat_count("kernel.trace_events"), "count"),
        "kernel.unaccounted_ms": (
            pct([t for st in unit_stats.values() for t in st.unaccounted_s], 0.5) * 1e3, "ms"),
        "simworld.build_ms": (p50_busy_ms("simworld.build"), "ms"),
        "rendezvous.discovery_keys": (stat_count("rendezvous.discovery_keys"), "count"),
    }

    wall = sum(u.makespan_s for u in units)
    top_pake = sum(busy[s.id] for s in spans
                   if s.name.startswith("pake.")
                   and (s.parent is None or not spans[s.parent].name.startswith("pake.")))
    data_path = sum(s.self_s for s in spans if s.name in (
        "auth.seal", "auth.open") or s.name.split(".")[0] in ("framing", "simnet", "transfer"))
    unaccounted = sum(t for st in unit_stats.values() for t in st.unaccounted_s)
    shares = {
        "pake_busy": top_pake / wall,
        "data_path_self": data_path / wall,
        "kernel_unaccounted": unaccounted / wall,
    }
    return m, shares


# -- the run ----------------------------------------------------------------------------


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    pcp = import_pcp()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    try:
        return _measure(pcp, workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(pcp, workload: Workload, args, work: Path) -> int:
    plan = Plan(pcp, workload, args.seed, work)
    plan.prepare()
    dests = [work / f"inbox{k}" for k in range(workload.pairs)]
    for d in dests:
        d.mkdir()

    tracer = Tracer(pcp["kernel"]) if args.trace else None
    unit_stats = {}
    units: list[UnitResult] = []
    replays: list[UnitResult] = []  # traced units run again untraced

    def collected(result: UnitResult) -> UnitResult:
        # A unit's world is a reference cycle. Collect it between units, out
        # of any timing, so that earlier units' garbage neither piles up into
        # the peak RSS nor is freed inside a later unit's timed window.
        gc.collect()
        return result

    # Warm-up: the first units of a process are slower while the heap grows.
    # They are checked but enter no metric.
    warmups: list[UnitResult] = []
    warm_begin = clock()
    while not warmups or clock() - warm_begin < WARMUP_S:
        warmups.append(collected(run_unit(pcp, plan, -1 - len(warmups), dests)))
    begin = clock()
    i = 0
    # Setup probes are spread over the measured loop, between units, so that
    # their median samples the host across the run and not in one moment.
    setup_times: list[float] = []
    while i < workload.min_units or clock() - begin < args.seconds:
        probe_due = len(setup_times) * args.seconds / SETUP_PROBES
        if len(setup_times) < SETUP_PROBES and clock() - begin >= probe_due:
            setup_times.append(measure_setup(workload, args.seed))
        if tracer is None:
            units.append(collected(run_unit(pcp, plan, i, dests)))
            i += 1
            continue
        # Every other unit is traced and then replayed untraced, so the
        # tracing overhead compares the same work with and without spans.
        tracer.begin_unit(i)
        tracer.install(pcp)
        try:
            traced = run_unit(pcp, plan, i, dests)
        finally:
            tracer.uninstall()
            unit_stats[i] = tracer.stats
        units.append(collected(traced))
        replays.append(collected(run_unit(pcp, plan, i, dests)))
        i += 2
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(measure_setup(workload, args.seed))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = warmups + units + replays
    violations = [v for u in checked for v in u.violations]
    pairs = [p for u in checked for p in u.pairs]
    attempted = len(pairs)
    failed = sum(not p.completed for p in pairs)
    e2e = e2e_metrics(units, workload.min_units) if attempted > failed else {}
    e2e["setup_s"] = (statistics.median(setup_times), "s")
    e2e["peak_rss_MiB"] = (peak_rss, "MiB")

    details: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "units": len(units) + len(replays),
        "warmup_units": len(warmups),
        "sessions": attempted,
        "prefix_units": workload.min_units,
        "measured_s": clock() - begin,
        "setup_samples_s": setup_times,
        "virtual": {k: v for k, (v, _) in e2e.items() if "_virt_" in k},
    }
    overhead = None
    metrics = e2e
    if tracer is not None:
        traced_walls = [p.wall_s for u in units for p in u.pairs]
        plain_walls = [p.wall_s for u in replays for p in u.pairs]
        overhead = (pct(traced_walls, 0.5) - pct(plain_walls, 0.5)) * 1e3
        metrics, details["wall_shares"] = layer_metrics(
            tracer, unit_stats, units, workload.min_units)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(str(spans_path))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        leaked = find_secrets(spans_path, [c for u in units for c in u.codes])
        if leaked:
            violations.append(f"{len(leaked)} passphrases found in {spans_path.name}")
    details["violations"] = violations

    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    stamp = {"env": env_stamp(overhead), "details": details}
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({**stamp, "result": result}, indent=1) + "\n")
    print(json.dumps(stamp))
    print(json.dumps(result))
    return 0 if not violations else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--micro", action="store_true",
                        help="time each hot public call on its own and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.micro:
        from micro import run_micro

        return run_micro(import_pcp())
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(WORKLOADS[args.workload], args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
