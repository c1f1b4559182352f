"""The benchmark's span tracer still fits the code it wraps.

``perfbench/tracing.py`` replaces pcp functions and methods by name, and
only a traced benchmark run (``perfbench/run.py --trace 1``) exercises it.
A rename in ``src/pcp`` would break that run while every untraced run and
every other test stays green; these tests fail instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import build_world, run_pair

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_run(monkeypatch):
    """perfbench's run.py, loaded as a module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look their module up
    spec.loader.exec_module(run)
    return run


@pytest.fixture
def bench(bench_run):
    """perfbench's tracing module and the pcp modules its run.py hands it."""
    pcp = {name: importlib.import_module(f"pcp.{name}") for name in bench_run.PCP_MODULES}
    return sys.modules[bench_run.Tracer.__module__], pcp


def test_every_wrapped_name_is_defined_where_the_tracer_looks(bench):
    tracing, pcp = bench
    targets = tracing._targets(tracing.Tracer(pcp["kernel"]), pcp)
    assert targets
    for owner, attr, _ in targets:
        # install() reads owner.__dict__[attr]; an inherited name is not enough
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_uninstall_restores_every_patched_attribute(bench):
    tracing, pcp = bench
    tracer = tracing.Tracer(pcp["kernel"])
    # install() patches every loaded pcp module plus the classes it wraps
    owners = [m for n, m in sys.modules.items() if n == "pcp" or n.startswith("pcp.")]
    owners += [owner for owner, _, _ in tracing._targets(tracer, pcp) if isinstance(owner, type)]
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer.install(pcp)
    try:
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, snapshot in before:
        now = vars(owner)
        for attr, value in snapshot.items():
            assert now[attr] is value, f"{getattr(owner, '__name__', owner)}.{attr}"


def test_every_workload_world_builds_a_session_config(bench_run, bench, tmp_path):
    # perfbench spells out its SimConfig fields; a field removed from
    # SimConfig would otherwise break only a benchmark run
    run, (_, pcp) = bench_run, bench
    for workload in run.WORKLOADS.values():
        spec = run.Plan(pcp, workload, 1, tmp_path).unit(0, write_files=False)
        world, nodes = run.build_world(pcp, workload, spec)
        config = world.session_config()
        assert len(nodes) == workload.pairs
        assert config.backends == tuple(world.backends)


def test_traced_session_records_every_layer(bench, tmp_path):
    tracing, pcp = bench
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(range(256)) * 40)
    world = build_world(seed=2)
    tracer = tracing.Tracer(pcp["kernel"])
    tracer.begin_unit(0)
    tracer.install(pcp)
    try:
        s_out, r_out, _ = run_pair(world, str(src), str(tmp_path / "inbox"))
    finally:
        tracer.uninstall()
    assert s_out.status == r_out.status == "completed"
    names = {span.name for span in tracer.spans}
    # conftest holds its own references to run_sender/run_receiver, so the
    # session spans are absent here; the layers below them must all show
    for name in (
        "auth.pake_handshake", "auth.confirm_key", "discovery.provide.dht",
        "discovery.provide.mdns", "discovery.find_providers", "discovery.next",
        "transfer.stream_file", "transfer.receive_file",
    ):
        assert name in names
    # the receiver dials exactly one candidate: the tracer reads the
    # handshake role from its third positional argument
    assert tracer.stats.counts["session.candidates"] == 1
    # the in-flight count adds what Connection.send's data argument carries
    # and subtracts what Connection.recv returns, so it only balances when
    # every read goes through recv
    assert tracer.stats.counts["simnet.bytes_sent"] > 0
    assert tracer.stats.inflight == 0
