"""Outside-in span tracing for the pcp benchmark.

The benchmark never edits ``src/``. In a traced unit it replaces public
functions and methods of the ``pcp`` modules with thin wrappers, and puts the
originals back afterwards. Wrapped names are replaced wherever a ``pcp``
module holds them (``from .auth import pake_handshake`` copies the function
into ``session``), and methods are replaced on their class.

Every ``pcp`` layer except the crypto and framing helpers is a coroutine on a
cooperative kernel, so a wall-clock span around an ``await`` would also count
every task that ran meanwhile. The tracer therefore keeps one *current
context* (a span, or None for scheduler and glue code) and charges each
wall-clock interval to exactly one context:

- a wrapped sync call switches to its span for the duration of the call;
- a wrapped coroutine switches to its span for each ``send``/``throw`` that
  resumes it, so its time is the sum of its own resumptions;
- a task spawned while span S is current runs every resumption in S's
  context (``wait_for`` runs a handshake in a child task, and the session
  spawns its candidates, publishers and lookups as tasks).

A span's *self* time is what was charged to it directly; its *busy* time adds
the busy time of the spans created under it; its *wait* is the virtual-time
duration. Spans hold a name, their parent, the unit (session or round) they
belong to, wall time, virtual start/end and the exception class name if the
call raised. They never record call arguments or results.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "unit", "name", "self_s", "v0", "v1", "err")

    def __init__(self, sid, parent, unit, name, v0):
        self.id = sid
        self.parent = parent
        self.unit = unit
        self.name = name
        self.self_s = 0.0
        self.v0 = v0
        self.v1 = None
        self.err = None


@dataclass
class UnitStats:
    """Counters of one traced unit that are not span counts."""

    counts: Counter = field(default_factory=Counter)
    inflight: int = 0
    inflight_peak: int = 0
    first_provider: list = field(default_factory=list)  # (backend, virtual s)
    streams: dict = field(default_factory=dict)  # stream -> (backend, start)
    unaccounted_s: list = field(default_factory=list)  # one per Kernel.run


class Tracer:
    def __init__(self, pcp_kernel):
        self._kernel_mod = pcp_kernel
        self.spans: list[Span] = []
        self.cur: Span | None = None
        self.glue_s = 0.0
        self.unit = -1
        self.stats = UnitStats()
        self._mark = _clock()
        self._patches: list[tuple[object, str, object]] = []

    # -- context accounting -----------------------------------------------

    def switch(self, span: Span | None) -> Span | None:
        now = _clock()
        if self.cur is None:
            self.glue_s += now - self._mark
        else:
            self.cur.self_s += now - self._mark
        self._mark = now
        prev, self.cur = self.cur, span
        return prev

    def vnow(self) -> float | None:
        try:
            return self._kernel_mod.current_time()
        except RuntimeError:
            return None

    def open(self, name: str) -> Span:
        parent = self.cur.id if self.cur is not None else None
        span = Span(len(self.spans), parent, self.unit, name, self.vnow())
        self.spans.append(span)
        return span

    def finish(self, span: Span, err: BaseException | None) -> None:
        span.v1 = self.vnow()
        if err is not None:
            span.err = type(err).__name__

    def begin_unit(self, unit: int) -> None:
        self.unit = unit
        self.stats = UnitStats()

    # -- wrappers -----------------------------------------------------------

    def wrap_sync(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            prev = tracer.switch(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.finish(span, err)
                raise
            else:
                tracer.finish(span, None)
                if hook is not None:
                    hook(tracer.stats, args, result)
                return result
            finally:
                tracer.switch(prev)

        return traced

    def wrap_async(self, fn, name, hook=None, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer.stats, args)
            return _SpanCoro(
                tracer, fn(*args, **kwargs), tracer.open(name),
                args if hook is not None else None, hook,
            )

        return traced

    def wrap_count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.stats.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def install(self, pcp_modules: dict) -> None:
        """Replace every target with its wrapper; uninstall() undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sys.modules.items() if n == "pcp" or n.startswith("pcp.")]
        for owner, attr, wrapper in _targets(self, pcp_modules):
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.switch(None)

    # -- output -------------------------------------------------------------

    def busy_times(self) -> list[float]:
        """Busy (self plus descendants) seconds for every span, by id."""
        busy = [s.self_s for s in self.spans]
        for span in reversed(self.spans):
            if span.parent is not None:
                busy[span.parent] += busy[span.id]
        return busy

    def write_jsonl(self, path: str) -> None:
        busy = self.busy_times()
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id,
                    "parent": s.parent,
                    "unit": s.unit,
                    "name": s.name,
                    "self_us": round(s.self_s * 1e6, 3),
                    "busy_us": round(busy[s.id] * 1e6, 3),
                    "v0": s.v0,
                    "v1": s.v1,
                    "err": s.err,
                }, separators=(",", ":")))
                out.write("\n")


class _SpanCoro:
    """A wrapped coroutine: each resumption is charged to its span."""

    __slots__ = ("_tracer", "_inner", "_span", "_args", "_hook")

    def __init__(self, tracer, inner, span, args, hook):
        self._tracer = tracer
        self._inner = inner
        self._span = span
        self._args = args
        self._hook = hook

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._inner.send, None)

    def send(self, value):
        return self._resume(self._inner.send, value)

    def throw(self, *exc):
        return self._resume(self._inner.throw, *exc)

    def close(self):
        self._inner.close()

    def _resume(self, step, *arg):
        tracer = self._tracer
        prev = tracer.switch(self._span)
        try:
            return step(*arg)
        except StopIteration as stop:
            tracer.finish(self._span, None)
            if self._hook is not None:
                self._hook(tracer.stats, self._args, stop.value)
            self._args = None
            raise
        except BaseException as err:
            tracer.finish(self._span, err)
            self._args = None
            raise
        finally:
            tracer.switch(prev)


class _TaskCoro:
    """A spawned task's coroutine, resumed in the context it was spawned in."""

    __slots__ = ("_tracer", "_inner", "_ctx")

    def __init__(self, tracer, inner, ctx):
        self._tracer = tracer
        self._inner = inner
        self._ctx = ctx

    def send(self, value):
        prev = self._tracer.switch(self._ctx)
        try:
            return self._inner.send(value)
        finally:
            self._tracer.switch(prev)

    def throw(self, *exc):
        prev = self._tracer.switch(self._ctx)
        try:
            return self._inner.throw(*exc)
        finally:
            self._tracer.switch(prev)

    def close(self):
        self._inner.close()


# -- hooks: counters that need a call's arguments or result ------------------


def _on_send(stats, args, _result):
    n = len(args[1])
    stats.counts["simnet.bytes_sent"] += n
    stats.inflight += n
    stats.inflight_peak = max(stats.inflight_peak, stats.inflight)


def _on_recv(stats, _args, result):
    stats.inflight -= len(result)


_BACKEND = {"SimulatedDht": "dht", "SimulatedMdns": "mdns"}


def _on_find_providers(tracer):
    def hook(stats, args, stream):
        stats.streams[stream] = (_BACKEND.get(type(args[0]).__name__, "other"), tracer.vnow())
    return hook


def _on_next(tracer):
    def hook(stats, args, addr):
        if addr is None:
            return
        stats.counts["discovery.providers_yielded"] += 1
        started = stats.streams.pop(args[0], None)
        if started is not None:
            backend, v0 = started
            stats.first_provider.append((backend, tracer.vnow() - v0))
    return hook


def _on_handshake(stats, args):
    if args[2] == "initiator":
        stats.counts["session.candidates"] += 1


def _targets(tracer: Tracer, m: dict):
    """(owner, attribute, wrapper) for every traced public call."""
    sync, aw, count = tracer.wrap_sync, tracer.wrap_async, tracer.wrap_count
    pake, auth, framing = m["pake"], m["auth"], m["framing"]
    simnet, discovery, transfer = m["simnet"], m["discovery"], m["transfer"]
    session, kernel, rendezvous, simworld = (
        m["session"], m["kernel"], m["rendezvous"], m["simworld"])
    Kernel = kernel.Kernel

    def spawn(kernel_self, coro, name=None):
        tracer.stats.counts["kernel.tasks_spawned"] += 1
        return orig_spawn(kernel_self, _TaskCoro(tracer, coro, tracer.cur), name)

    def run(kernel_self, coro, name="main"):
        tracer.switch(None)
        glue0 = tracer.glue_s
        try:
            return orig_run(kernel_self, coro, name)
        finally:
            tracer.switch(None)
            tracer.stats.unaccounted_s.append(tracer.glue_s - glue0)

    orig_spawn, orig_run = Kernel.spawn, Kernel.run
    C, N = simnet.Connection, simnet.SimNode
    return [
        (pake.PakeParty, "__init__", sync(pake.PakeParty.__init__, "pake.party")),
        (pake.PakeParty, "derive", sync(pake.PakeParty.derive, "pake.derive")),
        (pake, "decode_element", sync(pake.decode_element, "pake.decode_element")),
        (auth, "pake_handshake",
         aw(auth.pake_handshake, "auth.pake_handshake", on_call=_on_handshake)),
        (auth, "confirm_key", aw(auth.confirm_key, "auth.confirm_key")),
        (auth.SecureChannel, "seal", sync(auth.SecureChannel.seal, "auth.seal")),
        (auth.SecureChannel, "open", sync(auth.SecureChannel.open, "auth.open")),
        (framing, "pack_frame", sync(framing.pack_frame, "framing.pack_frame")),
        (framing, "read_frame", aw(framing.read_frame, "framing.read_frame")),
        (C, "send", aw(C.send, "simnet.send", _on_send)),
        (C, "recv", aw(C.recv, "simnet.recv", _on_recv)),
        (C, "recv_exactly", aw(C.recv_exactly, "simnet.recv_exactly")),
        (N, "dial", aw(N.dial, "simnet.dial")),
        (discovery.SimulatedDht, "provide",
         aw(discovery.SimulatedDht.provide, "discovery.provide.dht")),
        (discovery.SimulatedMdns, "local_advertise",
         aw(discovery.SimulatedMdns.local_advertise, "discovery.provide.mdns")),
        (discovery.DiscoveryBackend, "find_providers",
         sync(discovery.DiscoveryBackend.find_providers, "discovery.find_providers",
              _on_find_providers(tracer))),
        (discovery.ProviderStream, "next",
         aw(discovery.ProviderStream.next, "discovery.next", _on_next(tracer))),
        (transfer, "manifest_for_file",
         sync(transfer.manifest_for_file, "transfer.manifest_for_file")),
        (transfer, "stream_file", aw(transfer.stream_file, "transfer.stream_file")),
        (transfer, "receive_file", aw(transfer.receive_file, "transfer.receive_file")),
        (session, "run_sender", aw(session.run_sender, "session.run_sender")),
        (session, "run_receiver", aw(session.run_receiver, "session.run_receiver")),
        (rendezvous, "discovery_key",
         count(rendezvous.discovery_key, "rendezvous.discovery_keys")),
        (simworld.SimWorld, "__init__",
         sync(simworld.SimWorld.__init__, "simworld.build")),
        (Kernel, "spawn", spawn),
        (Kernel, "run", run),
        (Kernel, "call_at", count(Kernel.call_at, "kernel.timers")),
        (kernel.TraceLog, "emit", count(kernel.TraceLog.emit, "kernel.trace_events")),
    ]
