import inspect

import pytest

from pcp.kernel import (
    Event,
    Kernel,
    KernelDeadlock,
    TaskCancelled,
    WaitTimeout,
    current_time,
    sleep,
    spawn,
    wait_for,
)


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
        assert await ev.wait(timeout=0.5) is False
        spawn(setter(ev))
        assert await ev.wait(timeout=10) is True
        assert await ev.wait(timeout=0) is True  # level-triggered
        return True

    assert k.run(main())


def test_wait_for_result_timeout_and_error():
    k = Kernel(seed=0)

    async def fast():
        await sleep(1)
        return 42

    async def slow():
        await sleep(100)

    async def broken():
        raise ValueError("boom")

    async def main():
        assert await wait_for(fast(), 5) == 42
        with pytest.raises(WaitTimeout):
            await wait_for(slow(), 2)
        with pytest.raises(ValueError):
            await wait_for(broken(), 2)
        return current_time()

    # the timed-out child cancels promptly; time stops at its deadline
    assert k.run(main()) == pytest.approx(1_700_000_003.0)


def test_cancel_before_first_step_closes_the_coroutine():
    k = Kernel(seed=0)
    ran = []

    async def victim():
        ran.append("body")

    async def main():
        coro = victim()
        t = spawn(coro)
        assert t.cancel() is True  # main has not yielded: victim never stepped
        assert inspect.getcoroutinestate(coro) == inspect.CORO_CLOSED
        with pytest.raises(TaskCancelled):
            await t.join()
        assert t.cancelled

    k.run(main())
    assert ran == []


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
