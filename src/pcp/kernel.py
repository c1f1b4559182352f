"""Deterministic cooperative task kernel driven by a virtual clock.

All protocol code in this package is written as coroutines awaiting the
primitives defined here (sleep, events, scopes). The kernel runs
them single-threaded over a priority queue of (virtual time, sequence
number) entries, so a given seed and script always produce the identical
interleaving: time jumps straight to the next pending event instead of
waiting on the wall clock, which is what makes exhaustive slot-boundary
and timeout testing cheap.

The scheduler is intentionally tiny: tasks suspend by yielding a single
"park" trap, and one call, ``Task._resume``, puts a parked task back on the
run queue. ``Event`` is the only waiter, and everything else (sleeps, joins,
deadlines) is built from it: a producer keeps its own items, then sets and
replaces its reader's event. A wait that ends without its ``set`` takes its
task out of the event's waiter list, so no wake-up can arrive stale.
Cancellation is a ``Cancelled`` throw at the task's current park, or at
its next step if it is not parked (before its first line if it has not run
yet), and is prompt: a cancelled task runs its cleanup on the very next
tick. A second request before it finishes adds nothing.

Every deadline and every child task belongs to a ``Scope``, used as
``async with Scope(timeout):`` in the style of Trio's cancel scopes and
nurseries:

- the deadline is fixed when the scope is made; when it passes, the body
  is cancelled at its park and, once its cleanup has run, the ``async
  with`` raises ``WaitTimeout``;
- a task spawned in the body, or by a task of the scope that has opened
  no scope itself, belongs to the scope; on exit, for any reason, the
  scope cancels and joins its tasks;
- a child that fails cancels the body and its siblings, and the scope
  raises that first error (there is no exception group); a cancellation
  of the task or of an enclosing scope passes through unchanged;
- ``Kernel.run`` runs ``main`` in the outermost scope, so no task outlives
  it.

Besides the kernel's own thread there is one process-wide worker thread
for the two CPU floors of a session: the PAKE's exponentiations that do not
depend on each other, and the receiver's SHA-256 of the body. Every job
reaches it through ``submit``; its first call, never an import, starts the
thread. The thread runs on the allowed CPUs other than the one the first
submitter is on: a Linux cpuset with load balancing off never moves a
thread, and a new thread starts on its creator's CPU, so left alone the two
would take turns on one CPU while another idles. With one CPU allowed, or
no ``/proc`` to say which CPU the submitter is on, the worker is left where
it starts; the submitter's own affinity is never touched, so a scheduler
that balances can still move it off the worker's CPU. Its rules keep the
schedule, the RNG draws and the trace the same as on one thread:

- a job is a leaf call into C code that releases the GIL (``_pow``, a
  ``hashlib`` ``update``), and touches no kernel state;
- a job never submits another job and never waits on one;
- the kernel thread takes a result only through ``Future.result()``, inside
  a synchronous call, so no task can tell that the worker exists.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import os
import random
from concurrent import futures
from typing import Any, Callable, Coroutine, Iterator

logger = logging.getLogger("pcp.kernel")

DEFAULT_START_TIME = 1_700_000_000.0  # fixed epoch for reproducible runs

# the worker thread, started by the first submit; its rules are in the module docstring
_worker: futures.ThreadPoolExecutor | None = None
_THREAD_STAT = "/proc/thread-self/stat"


def submit(job: Callable[..., Any], *args: Any) -> futures.Future:
    """Run ``job(*args)`` on the worker thread; the first call starts it."""
    global _worker
    if _worker is None:
        _worker = _start_worker()
    return _worker.submit(job, *args)


def _current_cpu() -> int | None:
    """The CPU this thread is on now, field 39 of its stat; None without ``/proc``."""
    try:
        with open(_THREAD_STAT, "rb") as stat:
            # the name in field 2 may hold spaces and ")"
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _start_worker() -> futures.ThreadPoolExecutor:
    """A one-thread pool whose thread runs off the CPU this thread is on now."""
    allowed, cpu = os.sched_getaffinity(0), _current_cpu()
    place = len(allowed) > 1 and cpu in allowed
    return futures.ThreadPoolExecutor(
        max_workers=1,
        thread_name_prefix="pcp-worker",
        initializer=_run_on if place else None,
        initargs=(allowed - {cpu},),
    )


def _run_on(cpus: set[int]) -> None:
    """Limit the calling thread to ``cpus``; if the allowed set has changed since, stay put."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def overlap(job: Callable[[], Any], here: Callable[[], Any]) -> tuple[Any, Any]:
    """Run ``job`` on the worker while this thread runs ``here``; return both results.

    The job is waited for even when ``here`` raises, so none outlives the
    call: its outcome is then dropped and ``here``'s error propagates.
    """
    future = submit(job)
    try:
        mine = here()
    except BaseException:
        futures.wait((future,))
        raise
    return future.result(), mine


class Cancelled(BaseException):
    """Thrown into a task at its suspension point when it is cancelled.

    BaseException so that ``except Exception`` in protocol code cannot
    accidentally swallow a cancellation.
    """


class TaskCancelled(Exception):
    """Raised by join() when the awaited task was cancelled."""


class WaitTimeout(TimeoutError):
    """A scope's deadline passed before its body finished."""


class KernelDeadlock(RuntimeError):
    """No runnable work remains but the main task has not finished."""


class TraceLog:
    """Append-only structured event log; hashable for determinism checks."""

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self.events: list[dict] = []

    def emit(self, kind: str, **detail: Any) -> None:
        event = {"i": len(self.events), "t": round(self._kernel.now(), 6), "event": kind}
        event.update(detail)
        self.events.append(event)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("trace %s", event)

    def lines(self) -> Iterator[str]:
        for e in self.events:
            yield json.dumps(e, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        h = hashlib.sha256()
        for line in self.lines():
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


class _ParkTrap:
    """The single scheduler trap; only ``Event.wait`` parks, and leaves its list when it ends."""

    __slots__ = ()

    def __await__(self):
        yield self


_PARK = _ParkTrap()

# task states
_READY = "ready"
_PARKED = "parked"
_DONE = "done"


class Task:
    """A spawned coroutine plus its completion state."""

    _counter = 0

    def __init__(self, kernel: "Kernel", coro: Coroutine, name: str | None, scope: "Scope"):
        Task._counter += 1
        self.kernel = kernel
        self.coro = coro
        self.name = name or f"task-{Task._counter}"
        self.state = _READY
        self.result: Any = None
        self.exception: BaseException | None = None
        self.cancelled = False
        self.done = Event()
        # the scope that owns this task, then the scopes it has open, innermost last
        self.scopes = [scope]
        self._pending_cancel = False
        self._cancel_called = False

    def __repr__(self) -> str:
        return f"<Task {self.name} {self.state}>"

    @property
    def finished(self) -> bool:
        return self.state == _DONE

    def cancel(self) -> bool:
        """Request a ``Cancelled`` throw at the task's next step; False if it already finished."""
        if self.state == _DONE:
            return False
        if not self._cancel_called:
            self._cancel_called = True
            self._resume(Cancelled())
        return True

    def _resume(self, exc: BaseException | None = None) -> None:
        """Run a parked task again, ``exc`` thrown at its park; else keep ``exc`` for later."""
        if self.state == _PARKED:
            self.state = _READY
            self.kernel._push_resume(self, exc)
        elif exc is not None:
            self._pending_cancel = True

    async def join(self) -> Any:
        """Wait for completion; re-raises the task's exception, if any."""
        await self.done.wait()
        if self.exception is not None:
            raise self.exception
        return self.result


class Scope:
    """A deadline and the tasks spawned inside one ``async with``; see the module docstring."""

    def __init__(self, timeout: float | None = None):
        self.deadline = None if timeout is None else current_time() + timeout
        self.tasks: dict[Task, None] = {}  # live children, in spawn order
        self.failed: Task | None = None  # the first child that failed
        self.cancelled = False  # the deadline passed or a child failed
        self._owner: Task | None = None  # the task running the body, while it runs

    async def __aenter__(self) -> "Scope":
        kernel = current_kernel()
        self._owner = kernel.current_task
        self._owner.scopes.append(self)
        if self.deadline is not None:
            kernel.call_at(self.deadline, self._cancel)
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        owner, self._owner = self._owner, None
        late = None
        while self.tasks:
            for task in list(self.tasks):
                task.cancel()
            try:
                await next(iter(self.tasks)).done.wait()
            except Cancelled as err:  # meant for an enclosing scope: the children go first
                late = err
        owner.scopes.pop()
        if self.failed is not None:
            raise self.failed.exception
        if late is not None:
            raise late
        if isinstance(exc, Cancelled) and self.cancelled and not owner._cancel_called and not any(
            scope.cancelled for scope in owner.scopes
        ):
            owner._pending_cancel = False  # a second expiry in the same tick was ours too
            raise WaitTimeout() from None
        return False

    def _cancel(self) -> None:
        self.cancelled = True
        if self._owner is not None:
            self._owner._resume(Cancelled())
        for task in list(self.tasks):
            task.cancel()

    def _child_done(self, task: Task) -> None:
        del self.tasks[task]
        if task.exception is not None and not task.cancelled and self.failed is None:
            self.failed = task
            self._cancel()


class Kernel:
    """Owns virtual time (unix seconds), the run queue, the trace log, and seeded RNG streams."""

    def __init__(self, seed: int = 0, start_time: float = DEFAULT_START_TIME):
        self.seed = seed
        self._now = float(start_time)
        self.trace = TraceLog(self)
        self.current_task: Task | None = None
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._rngs: dict[str, random.Random] = {}
        self._root = Scope()  # the outermost scope of the next run
        self._running = False

    # -- rng streams -------------------------------------------------------

    def rng(self, label: str) -> random.Random:
        """A named deterministic RNG stream derived from the kernel seed."""
        r = self._rngs.get(label)
        if r is None:
            material = hashlib.sha256(f"{self.seed}/{label}".encode()).digest()
            r = random.Random(int.from_bytes(material[:8], "big"))
            self._rngs[label] = r
        return r

    # -- scheduling --------------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (max(when, self._now), self._seq, fn))

    def spawn(self, coro: Coroutine, name: str | None = None) -> Task:
        """Start ``coro`` in the calling task's innermost scope; outside a run, at the next run."""
        parent = self.current_task
        scope = self._root if parent is None else parent.scopes[-1]
        task = Task(self, coro, name, scope)
        scope.tasks[task] = None
        self._push_resume(task)
        return task

    def _push_resume(self, task: Task, exc: BaseException | None = None) -> None:
        self.call_at(self._now, lambda: self._step(task, exc))

    # -- task stepping -----------------------------------------------------

    def _step(self, task: Task, exc: BaseException | None) -> None:
        if task.state == _DONE:
            return
        if task._pending_cancel and exc is None:
            task._pending_cancel = False
            exc = Cancelled()
        self.current_task = task
        try:
            if exc is not None:
                trap = task.coro.throw(exc)
            else:
                trap = task.coro.send(None)
        except StopIteration as stop:
            self._finalize(task, result=stop.value)
        except Cancelled:
            task.cancelled = True
            self._finalize(task, exception=TaskCancelled(task.name))
        except BaseException as err:  # noqa: BLE001 - kernel boundary
            self._finalize(task, exception=err)
        else:
            if trap is not _PARK:
                bad = TypeError(f"task {task.name} yielded {trap!r}; only kernel "
                                f"primitives may be awaited")
                self._finalize(task, exception=bad)
            else:
                task.state = _PARKED
                if task._pending_cancel:  # cancelled while it ran: throw at this park
                    task._pending_cancel = False
                    task._resume(Cancelled())
        finally:
            self.current_task = None

    def _finalize(
        self, task: Task, result: Any = None, exception: BaseException | None = None
    ) -> None:
        task.state = _DONE
        task.result = result
        task.exception = exception
        task.scopes[0]._child_done(task)
        task.done.set()

    # -- main loop ---------------------------------------------------------

    def run(self, coro: Coroutine, name: str = "main") -> Any:
        """Run ``coro`` as ``main`` in the outermost scope, auto-advancing virtual time.

        Returns once ``main`` and every task still live when it finished
        have finished. ``main``'s own error is raised as it is; an error of
        any other task, raised first, as a RuntimeError.
        """
        global _current_kernel
        if self._running:
            raise RuntimeError("kernel is already running")
        previous, _current_kernel = _current_kernel, self
        self._running = True
        root = self._root
        main = self.spawn(coro, name=name)
        try:
            while root.tasks:
                if main.finished:
                    for task in list(root.tasks):
                        task.cancel()
                if not self._heap:
                    raise KernelDeadlock(
                        f"no runnable work but {next(iter(root.tasks)).name} has not finished"
                    )
                # call_at never schedules in the past, so time never moves back
                self._now, _, fn = heapq.heappop(self._heap)
                fn()
        finally:
            self._running = False
            self._root = Scope()
            _current_kernel = previous
        if root.failed is not None and root.failed is not main:
            raise RuntimeError(
                f"unhandled task failure in: {root.failed.name}"
            ) from root.failed.exception
        if main.exception is not None:
            raise main.exception
        return main.result

    def now(self) -> float:
        return self._now


_current_kernel: Kernel | None = None


def current_kernel() -> Kernel:
    if _current_kernel is None:
        raise RuntimeError("no kernel is running")
    return _current_kernel


def current_time() -> float:
    return current_kernel().now()


def spawn(coro: Coroutine, name: str | None = None) -> Task:
    return current_kernel().spawn(coro, name)


async def sleep(seconds: float) -> None:
    """Suspend for ``seconds`` of virtual time (0 yields one scheduler tick)."""
    wakeup = Event()
    current_kernel().call_at(current_time() + seconds, wakeup.set)
    await wakeup.wait()


class Event:
    """Level-triggered flag; bound a wait with a ``Scope``."""

    __slots__ = ("_flag", "_waiters")

    def __init__(self) -> None:
        self._flag = False
        self._waiters: list[Task] = []  # the tasks parked in wait(), in arrival order

    def set(self) -> None:
        self._flag = True
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            task._resume()

    async def wait(self) -> None:
        """Return once set."""
        task = current_kernel().current_task
        while not self._flag:
            self._waiters.append(task)
            try:
                await _PARK
            finally:
                if not self._flag:  # ended by a cancellation: leave the list
                    self._waiters.remove(task)
