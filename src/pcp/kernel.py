"""Deterministic cooperative task kernel driven by a virtual clock.

All protocol code in this package is written as coroutines awaiting the
primitives defined here (sleep, queues, events, timeouts). The kernel runs
them single-threaded over a priority queue of (virtual time, sequence
number) entries, so a given seed and script always produce the identical
interleaving: time jumps straight to the next pending event instead of
waiting on the wall clock, which is what makes exhaustive slot-boundary
and timeout testing cheap.

The scheduler is intentionally tiny: tasks suspend by yielding a single
"park" trap, and everything else (events, queues, joins, timeouts) is
built from wake-ups with stale-wake protection. Cancellation is delivered
as a ``Cancelled`` throw at the task's next suspension point and is prompt:
a cancelled task runs its cleanup on the very next tick.

Besides the kernel's own thread there is one process-wide worker thread,
``WORKER``, for the two CPU floors of a session: the PAKE's exponentiations
that do not depend on each other, and the receiver's SHA-256 of the body.
Its thread starts on the first submit, never at import. Its rules keep the
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
import random
from collections import deque
from concurrent import futures
from typing import Any, Callable, Coroutine, Iterator

logger = logging.getLogger("pcp.kernel")

DEFAULT_START_TIME = 1_700_000_000.0  # fixed epoch for reproducible runs

# the worker thread; its rules are in the module docstring
WORKER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="pcp-worker")


def overlap(job: Callable[[], Any], here: Callable[[], Any]) -> tuple[Any, Any]:
    """Run ``job`` on the worker while this thread runs ``here``; return both results.

    The job is waited for even when ``here`` raises, so none outlives the
    call: its outcome is then dropped and ``here``'s error propagates.
    """
    future = WORKER.submit(job)
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
    """Raised by join()/wait_for() when the awaited task was cancelled."""


class WaitTimeout(TimeoutError):
    """A timed wait elapsed before the awaited condition held."""


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
    """The single scheduler trap: suspend until woken or timed out."""

    __slots__ = ("timeout",)

    def __init__(self, timeout: float | None):
        self.timeout = timeout

    def __await__(self):
        woken = yield self
        return woken


# task states
_READY = "ready"
_RUNNING = "running"
_PARKED = "parked"
_DONE = "done"


class Task:
    """A spawned coroutine plus its completion state."""

    _counter = 0

    def __init__(self, kernel: "Kernel", coro: Coroutine, name: str | None):
        Task._counter += 1
        self.kernel = kernel
        self.coro = coro
        self.name = name or f"task-{Task._counter}"
        self.state = _READY
        self.result: Any = None
        self.exception: BaseException | None = None
        self.cancelled = False
        self.done = Event()
        self._park_seq = 0
        self._pending_cancel = False
        self._started = False
        self._observed = False  # someone consumed the result via join/wait_for

    def __repr__(self) -> str:
        return f"<Task {self.name} {self.state}>"

    @property
    def finished(self) -> bool:
        return self.state == _DONE

    def cancel(self) -> bool:
        """Request cancellation; returns False if the task already finished."""
        if self.state == _DONE:
            return False
        if not self._started:
            # never dispatched: close the coroutine right here
            self.coro.close()
            self.cancelled = True
            self.kernel._finalize(self, exception=TaskCancelled(self.name))
            return True
        if self.state == _PARKED:
            self.state = _READY
            self.kernel._push_resume(self, exc=Cancelled())
        else:
            # ready or running: throw at the next dispatch/suspension point
            self._pending_cancel = True
        return True

    async def join(self) -> Any:
        """Wait for completion; re-raises the task's exception, if any."""
        await self.done.wait()
        self._observed = True
        if self.exception is not None:
            raise self.exception
        return self.result


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
        self._unhandled: list[Task] = []
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
        task = Task(self, coro, name)
        self._push_resume(task, value=None)
        return task

    def _push_resume(
        self, task: Task, value: Any = None, exc: BaseException | None = None
    ) -> None:
        self.call_at(self._now, lambda: self._step(task, value, exc))

    def _wake(self, task: Task, park_seq: int, value: Any) -> bool:
        """Wake a parked task if it is still in the same park; else no-op."""
        if task.state != _PARKED or task._park_seq != park_seq:
            return False
        task.state = _READY
        self._push_resume(task, value=value)
        return True

    # -- task stepping -----------------------------------------------------

    def _step(self, task: Task, value: Any, exc: BaseException | None) -> None:
        if task.state == _DONE:
            return
        task._started = True
        if task._pending_cancel and exc is None:
            task._pending_cancel = False
            exc = Cancelled()
        self.current_task = task
        task.state = _RUNNING
        try:
            if exc is not None:
                trap = task.coro.throw(exc)
            else:
                trap = task.coro.send(value)
        except StopIteration as stop:
            self._finalize(task, result=stop.value)
        except Cancelled:
            task.cancelled = True
            self._finalize(task, exception=TaskCancelled(task.name))
        except BaseException as err:  # noqa: BLE001 - kernel boundary
            self._finalize(task, exception=err)
        else:
            if not isinstance(trap, _ParkTrap):
                bad = TypeError(f"task {task.name} yielded {trap!r}; only kernel "
                                f"primitives may be awaited")
                self._finalize(task, exception=bad)
            elif task._pending_cancel:
                task._pending_cancel = False
                task.state = _READY
                self._push_resume(task, exc=Cancelled())
            else:
                task.state = _PARKED
                task._park_seq += 1
                if trap.timeout is not None:
                    seq = task._park_seq
                    self.call_at(self._now + trap.timeout, lambda: self._wake(task, seq, False))
        finally:
            self.current_task = None

    def _finalize(
        self, task: Task, result: Any = None, exception: BaseException | None = None
    ) -> None:
        task.state = _DONE
        task.result = result
        task.exception = exception
        if exception is not None and not task.cancelled:
            self._unhandled.append(task)
        task.done._set_from(self)

    # -- main loop ---------------------------------------------------------

    def run(self, coro: Coroutine, name: str = "main") -> Any:
        """Run ``coro`` to completion, auto-advancing virtual time."""
        global _current_kernel
        if self._running:
            raise RuntimeError("kernel is already running")
        previous, _current_kernel = _current_kernel, self
        self._running = True
        main = self.spawn(coro, name=name)
        try:
            while not main.finished:
                if not self._heap:
                    raise KernelDeadlock(
                        f"no runnable work but {main.name} has not finished"
                    )
                # call_at never schedules in the past, so time never moves back
                self._now, _, fn = heapq.heappop(self._heap)
                fn()
        finally:
            self._running = False
            _current_kernel = previous
        self._unhandled = [t for t in self._unhandled if t is not main and not t._observed]
        if self._unhandled:
            names = ", ".join(t.name for t in self._unhandled)
            failed = self._unhandled[0]
            self._unhandled = []
            raise RuntimeError(
                f"unhandled task failure(s) in: {names}"
            ) from failed.exception
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
    await _ParkTrap(max(0.0, seconds))


async def _park(timeout: float | None = None) -> bool:
    """Suspend until woken (True) or the timeout elapses (False)."""
    return await _ParkTrap(timeout)


async def wait_for(coro: Coroutine, timeout: float) -> Any:
    """Run ``coro`` with a deadline; cancel it and raise WaitTimeout on expiry."""
    kernel = current_kernel()
    child = kernel.spawn(coro, name="wait_for")
    try:
        fired = await child.done.wait(timeout)
    except BaseException:
        # the waiter itself was cancelled: take the child down with us
        child.cancel()
        child._observed = True
        raise
    if not fired:
        child.cancel()
        await child.done.wait(None)
        child._observed = True
        raise WaitTimeout()
    child._observed = True
    if child.exception is not None:
        raise child.exception
    return child.result


class Event:
    """Level-triggered flag; waiters may time out without missing a set()."""

    __slots__ = ("_flag", "_waiters")

    def __init__(self) -> None:
        self._flag = False
        self._waiters: deque[tuple[Task, int]] = deque()

    def set(self) -> None:
        self._set_from(current_kernel() if self._waiters else None)

    def _set_from(self, kernel: Kernel | None) -> None:
        self._flag = True
        while self._waiters:
            task, seq = self._waiters.popleft()
            assert kernel is not None
            kernel._wake(task, seq, True)

    async def wait(self, timeout: float | None = None) -> bool:
        """Return True once set; False if the timeout elapses first."""
        kernel = current_kernel()
        deadline = None if timeout is None else kernel.now() + timeout
        while not self._flag:
            remaining = None if deadline is None else deadline - kernel.now()
            if remaining is not None and remaining <= 0:
                return False
            task = kernel.current_task
            assert task is not None
            # the upcoming park bumps _park_seq exactly once
            self._waiters.append((task, task._park_seq + 1))
            await _park(remaining)
        return True


class Queue:
    """Unbounded FIFO; puts are synchronous, a get waits for an item."""

    __slots__ = ("_items", "_waiters")

    def __init__(self) -> None:
        self._items: deque = deque()
        self._waiters: deque[tuple[Task, int]] = deque()

    def put(self, item: Any) -> None:
        self._items.append(item)
        kernel = current_kernel()
        while self._waiters:
            task, seq = self._waiters.popleft()
            if kernel._wake(task, seq, True):
                break

    async def get(self) -> Any:
        """Pop the next item, waiting until one is put."""
        kernel = current_kernel()
        while not self._items:
            task = kernel.current_task
            assert task is not None
            self._waiters.append((task, task._park_seq + 1))
            await _park()
        return self._items.popleft()
