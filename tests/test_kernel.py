import inspect
import os
from concurrent import futures

import pytest

from pcp import kernel
from pcp.kernel import (
    Event,
    Kernel,
    KernelDeadlock,
    Scope,
    TaskCancelled,
    WaitTimeout,
    current_time,
    sleep,
    spawn,
)

START = 1_700_000_000.0


def test_sleep_advances_virtual_time_only():
    k = Kernel(seed=0, start_time=1000.0)

    async def main():
        await sleep(3600)
        return current_time()

    assert k.run(main()) == 4600.0


def test_timers_fire_in_timestamp_order():
    k = Kernel(seed=0)
    fired = []

    async def later(tag, delay):
        await sleep(delay)
        fired.append(tag)

    async def main():
        for tag, delay in [("c", 3), ("a", 1), ("b", 2)]:
            spawn(later(tag, delay))
        await sleep(10)

    k.run(main())
    assert fired == ["a", "b", "c"]


def test_same_time_entries_run_fifo():
    k = Kernel(seed=0)
    order = []

    async def worker(tag):
        order.append(tag)

    async def main():
        for tag in "abcd":
            spawn(worker(tag))
        await sleep(0)
        await sleep(0)

    k.run(main())
    assert order == list("abcd")


def test_event_wait_set_and_timeout():
    k = Kernel(seed=0)

    async def setter(ev):
        await sleep(1)
        ev.set()

    async def main():
        ev = Event()
        with pytest.raises(WaitTimeout):
            async with Scope(0.5):
                await ev.wait()
        spawn(setter(ev))
        async with Scope(10):
            await ev.wait()
        assert current_time() == START + 1.5
        async with Scope(0):
            await ev.wait()  # level-triggered: a set event does not park
        return current_time()

    assert k.run(main()) == START + 1.5


def test_a_wait_ended_without_its_set_leaves_the_waiter_list():
    """A wait cut short by a deadline or a cancel takes its task out of the event's list."""
    k = Kernel(seed=0)
    ev = Event()

    async def main():
        with pytest.raises(WaitTimeout):
            async with Scope(0.5):
                await ev.wait()
        assert not ev._waiters
        waiter = spawn(ev.wait())
        await sleep(0.5)
        assert list(ev._waiters) == [waiter]
        waiter.cancel()
        with pytest.raises(TaskCancelled):
            await waiter.join()
        assert not ev._waiters

    k.run(main())


def test_scope_result_timeout_and_error():
    k = Kernel(seed=0)
    cleaned = []

    async def fast():
        await sleep(1)
        return 42

    async def slow():
        try:
            await sleep(100)
        finally:
            cleaned.append(current_time())

    async def broken():
        raise ValueError("boom")

    async def main():
        async with Scope(5):
            result = await fast()
        assert result == 42
        with pytest.raises(WaitTimeout):
            async with Scope(2):
                await slow()
        # the body was cancelled at its park, and its cleanup ran, at exactly the deadline
        assert cleaned == [START + 3] and current_time() == START + 3
        with pytest.raises(ValueError):
            async with Scope(2):
                await broken()
        return current_time()

    assert k.run(main()) == START + 3


def test_an_inner_scope_expiry_belongs_to_the_inner_scope():
    k = Kernel(seed=0)

    async def main():
        async with Scope(10) as outer:
            with pytest.raises(WaitTimeout):
                async with Scope(1) as inner:
                    await sleep(5)
            assert inner.cancelled and not outer.cancelled
            await sleep(2)  # the outer body runs on, uncancelled
        return current_time()

    assert k.run(main()) == START + 3


@pytest.mark.parametrize("inner_timeout", [5, 1], ids=["inner-later", "same-tick"])
def test_an_outer_cancellation_is_never_swallowed_by_an_inner_scope(inner_timeout):
    k = Kernel(seed=0)
    swallowed = []

    async def main():
        with pytest.raises(WaitTimeout):
            async with Scope(1):
                try:
                    async with Scope(inner_timeout):
                        await sleep(100)
                except WaitTimeout:
                    swallowed.append(current_time())
                await sleep(100)
        await sleep(1)  # no stray cancellation is left for the next park
        return current_time()

    assert k.run(main()) == START + 2
    assert swallowed == []


def test_a_cancelled_task_is_not_turned_into_a_timeout():
    k = Kernel(seed=0)

    async def victim():
        async with Scope(1):
            await sleep(100)
        return "timed out"

    async def main():
        t = spawn(victim())
        await sleep(1)  # wakes just before the victim's deadline, in the same tick
        t.cancel()
        with pytest.raises(TaskCancelled):
            await t.join()
        assert t.cancelled
        return current_time()

    assert k.run(main()) == START + 1


def test_a_failing_child_cancels_its_siblings_and_fails_the_scope():
    k = Kernel(seed=0)
    cleaned = []

    async def sibling():
        try:
            await sleep(100)
        finally:
            cleaned.append(("sibling", current_time()))

    async def failing():
        await sleep(1)
        raise ValueError("boom")

    async def main():
        with pytest.raises(ValueError, match="boom"):
            async with Scope() as scope:
                other = spawn(sibling())
                spawn(failing())
                try:
                    await sleep(100)
                finally:
                    cleaned.append(("body", current_time()))
        assert other.cancelled and not scope.tasks
        return current_time()

    assert k.run(main()) == START + 1
    assert sorted(cleaned) == [("body", START + 1), ("sibling", START + 1)]


class _Recording(Kernel):
    """A kernel that keeps every task it starts."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.started = []

    def spawn(self, coro, name=None):
        task = super().spawn(coro, name)
        self.started.append(task)
        return task


def test_no_task_outlives_kernel_run():
    k = _Recording(seed=0)
    cleaned = []

    async def sleeper():
        try:
            await sleep(3600)
        finally:
            cleaned.append(current_time())

    async def nested():
        async with Scope():
            spawn(sleeper())
            await sleep(3600)

    async def main():
        spawn(sleeper())
        spawn(nested())
        await sleep(1)
        return "done"

    # main returns while three tasks sleep: each one's finally has run
    # before run() returns, and nothing it started is left unfinished
    assert k.run(main()) == "done"
    assert cleaned == [START + 1, START + 1]
    assert len(k.started) == 4 and all(t.finished for t in k.started)


def test_cancel_before_first_step_closes_the_coroutine():
    k = Kernel(seed=0)
    ran = []

    async def victim():
        ran.append("body")

    async def main():
        coro = victim()
        t = spawn(coro)
        assert t.cancel() is True  # main has not yielded: victim never stepped
        with pytest.raises(TaskCancelled):
            await t.join()
        assert t.cancelled
        assert inspect.getcoroutinestate(coro) == inspect.CORO_CLOSED

    k.run(main())
    assert ran == []


@pytest.mark.parametrize("how", ["direct", "failing-sibling"])
def test_a_task_cancelled_before_its_first_step_ends_at_that_step(how):
    k = Kernel(seed=0)
    ran, done_order, tasks = [], [], {}

    async def victim():
        ran.append("body")

    async def failing():
        raise ValueError("boom")

    async def watch(name):
        await tasks[name].done.wait()
        done_order.append(name)

    async def main():
        if how == "direct":
            tasks["victim"] = spawn(victim())
            assert tasks["victim"].cancel() is True
            assert not tasks["victim"].finished  # it ends at its own first step
            await sleep(0)
        else:
            # the watchers first run once main parks, so both tasks exist by then
            spawn(watch("failing"))
            spawn(watch("victim"))
            with pytest.raises(ValueError, match="boom"):
                async with Scope():
                    tasks["failing"] = spawn(failing())
                    tasks["victim"] = spawn(victim())  # cancelled by failing's first step
                    await sleep(100)
            await sleep(0)  # the watchers' tick
            assert done_order == ["failing", "victim"]
        victim_task = tasks["victim"]
        assert victim_task.finished and victim_task.cancelled and ran == []
        return current_time()

    assert k.run(main()) == START


def test_task_that_cancels_itself_is_cancelled_at_its_next_park():
    k = Kernel(seed=0)
    seen = []

    async def victim():
        me = k.current_task
        try:
            assert me.cancel() is True
            seen.append("after cancel")  # the request takes effect only at a park
            await sleep(1000)
            seen.append("after park")
        finally:
            seen.append(current_time())

    async def main():
        t = spawn(victim())
        with pytest.raises(TaskCancelled):
            await t.join()
        assert t.cancelled

    k.run(main())
    assert seen == ["after cancel", 1_700_000_000.0]  # prompt, not at the sleep deadline


def test_cancel_parked_task_runs_cleanup():
    k = Kernel(seed=0)
    cleaned = []

    async def victim():
        try:
            await sleep(1000)
        finally:
            cleaned.append(current_time())

    async def main():
        t = spawn(victim())
        await sleep(1)
        assert t.cancel() is True
        with pytest.raises(TaskCancelled):
            await t.join()
        assert t.cancelled
        assert t.cancel() is False  # already finished

    k.run(main())
    assert cleaned == [1_700_000_001.0]  # prompt, not at the sleep deadline


def test_unhandled_task_failure_surfaces():
    k = Kernel(seed=0)

    async def bad():
        raise RuntimeError("lost")

    async def main():
        spawn(bad())
        await sleep(1)

    with pytest.raises(RuntimeError, match="unhandled task failure"):
        k.run(main())


def test_deadlock_detection():
    k = Kernel(seed=0)

    async def main():
        await Event().wait()

    with pytest.raises(KernelDeadlock):
        k.run(main())


def test_rng_streams_are_stable_and_independent():
    a, b = Kernel(seed=5), Kernel(seed=5)
    assert [a.rng("x").random() for _ in range(4)] == [
        b.rng("x").random() for _ in range(4)
    ]
    assert Kernel(seed=5).rng("x").random() != Kernel(seed=5).rng("y").random()
    assert Kernel(seed=5).rng("x").random() != Kernel(seed=6).rng("x").random()


def test_trace_hash_reproducible():
    def run_once():
        k = Kernel(seed=9)

        async def main():
            for i in range(5):
                k.trace.emit("tick", n=i)
                await sleep(0.5)

        k.run(main())
        return k.trace.sha256()

    assert run_once() == run_once()


def test_two_kernels_identical_interleaving():
    def script(k):
        log = []

        async def chatter(tag, period):
            for _ in range(5):
                await sleep(period)
                log.append((tag, current_time()))

        async def main():
            spawn(chatter("a", 0.31))
            spawn(chatter("b", 0.17))
            await sleep(3)

        k.run(main())
        return log

    assert script(Kernel(seed=1)) == script(Kernel(seed=1))


ALLOWED = sorted(os.sched_getaffinity(0))


def _placement(cpus):
    """Start a worker from a fresh thread limited to ``cpus``; the CPUs each thread may use."""

    def start():
        os.sched_setaffinity(0, cpus)
        worker = kernel._start_worker()
        try:
            return worker.submit(os.sched_getaffinity, 0).result(), os.sched_getaffinity(0)
        finally:
            worker.shutdown()

    with futures.ThreadPoolExecutor(max_workers=1) as starter:
        return starter.submit(start).result(timeout=60)


@pytest.mark.skipif(
    len(ALLOWED) < 2, reason="fewer than 2 CPUs are allowed, so the worker has no other CPU"
)
def test_the_worker_runs_off_the_cpu_of_the_thread_that_starts_it(monkeypatch):
    two, seen, read = set(ALLOWED[:2]), [], kernel._current_cpu

    def recorded():
        seen.append(read())
        return seen[-1]

    monkeypatch.setattr(kernel, "_current_cpu", recorded)
    worker, starter = _placement(two)
    assert seen and seen[0] in two
    assert worker == two - {seen[0]}
    assert starter == two


def test_with_one_cpu_allowed_the_worker_is_left_where_it_starts():
    one = {ALLOWED[0]}
    assert _placement(one) == (one, one)


def test_without_the_thread_stat_the_worker_is_left_where_it_starts(monkeypatch, tmp_path):
    monkeypatch.setattr(kernel, "_THREAD_STAT", str(tmp_path / "missing"))
    cpus = set(ALLOWED[:2])
    assert _placement(cpus) == (cpus, cpus)
