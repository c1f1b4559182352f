"""Session orchestration: the full sender and receiver lifecycles.

Sender: generate and display the words, publish the rendezvous key on
every configured backend (re-publishing when the slot rolls over), accept
inbound connections, authenticate each as responder, and hand the first
confirmed channel to the transfer stage.

Receiver: derive the channel from the words, query every backend for the
current and previous slots in parallel, dial providers as they stream in,
authenticate as initiator, and go with the first channel that passes key
confirmation — every other candidate is cancelled promptly. A failed
confirmation drops only that connection; the hunt continues until the
discovery deadline.

At most one channel per session ever reaches the transfer stage; ties
inside one virtual tick break deterministically on lexicographic peer id.

Each session builds one PakePassword from its words, and every handshake it
runs shares it, so the password-only exponentiations run once per session.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable

from . import kernel as ker
from .auth import ROLE_INITIATOR, ROLE_RESPONDER, PakeSecret, SecureChannel, confirm_key, pake_handshake
from .discovery import DiscoveryBackend, ProviderStream
from .errors import BackendUnavailable, DialError, InvalidArgument, PcpError
from .kernel import Queue, QueueEmpty, WaitTimeout
from .pake import PakePassword
from .passphrase import (
    DEFAULT_WORD_COUNT,
    MIN_WORDS,
    Passphrase,
    channel_id,
    generate_passphrase,
    parse_passphrase,
)
from .rendezvous import next_slot_delay, receiver_query_keys, sender_publish_key
from .simnet import Connection, PeerAddress, SimNode
from .transfer import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    DecideFn,
    ProgressFn,
    TransferOutcome,
    manifest_for_file,
    receive_file,
    send_file,
)

logger = logging.getLogger("pcp.session")

ROLE_SENDER = "sender"
ROLE_RECEIVER = "receiver"

PHASE_ORDER = (
    "discovering",
    "authenticating",
    "awaiting-confirmation",
    "transferring",
    "done",
)
PHASE_FAILED = "failed"

HANDSHAKE_TIMEOUT = 30.0  # seconds for the PAKE exchange, and again for key confirmation


@dataclass
class SessionConfig:
    backends: tuple[DiscoveryBackend, ...]
    word_count: int = DEFAULT_WORD_COUNT
    discovery_deadline: float = 120.0
    republish_on_rollover: bool = True

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("at least one discovery backend is required")
        if self.word_count < MIN_WORDS:
            raise ValueError(f"word_count must be >= {MIN_WORDS}, got {self.word_count}")


@dataclass
class _Candidate:
    peer_id: str
    chan: SecureChannel
    binding: str
    confirmed_at: float


class _SessionState:
    """Phase bookkeeping with monotone transitions, mirrored to the trace."""

    def __init__(self, node: SimNode, role: str):
        self.node = node
        self.role = role
        self.phase = PHASE_ORDER[0]
        self.winner: _Candidate | None = None
        self.auth_failures = 0
        self._tasks: list[ker.Task] = []
        self._cancelled = False
        node.network.trace.emit(
            "phase", role=role, node=node.address.short(), phase=self.phase
        )

    def advance(self, phase: str, **detail) -> None:
        if phase != PHASE_FAILED:
            if PHASE_ORDER.index(phase) <= PHASE_ORDER.index(self.phase):
                return
        elif self.phase == PHASE_FAILED:
            return
        self.phase = phase
        self.node.network.trace.emit(
            "phase", role=self.role, node=self.node.address.short(), phase=phase, **detail
        )

    def finish(self, outcome: TransferOutcome) -> TransferOutcome:
        """Record how the transfer stage ended: the last phase, then ``transfer_done``."""
        if outcome.status == STATUS_COMPLETED:
            self.advance("done")
        else:
            self.advance(PHASE_FAILED, detail=outcome.status)
        self.node.network.trace.emit(
            "transfer_done",
            role=self.role,
            node=self.node.address.short(),
            status=outcome.status,
            bytes=outcome.bytes_received,
        )
        return outcome

    def track(self, task: ker.Task) -> ker.Task:
        self._tasks.append(task)
        return self._tasks[-1]

    def cancel_losers(self, winners: Queue) -> None:
        """Tear down everything except the winning channel, promptly."""
        while True:
            try:
                late: _Candidate = winners.get_nowait()
            except QueueEmpty:
                break
            late.chan.abort()
        if self._cancelled:
            return
        self._cancelled = True
        for task in self._tasks:
            task.cancel()
        self.node.network.trace.emit(
            "losers_cancelled", role=self.role, node=self.node.address.short()
        )


async def _pick_winner(state: _SessionState, winners: Queue, deadline_at: float) -> _Candidate | None:
    """First confirmed candidate wins; same-tick ties break on peer id."""
    kernel = state.node.kernel
    remaining = deadline_at - kernel.now()
    if remaining <= 0:
        return None
    try:
        first: _Candidate = await winners.get(timeout=remaining)
    except WaitTimeout:
        try:
            first = winners.get_nowait()  # confirmed exactly at the deadline
        except QueueEmpty:
            return None
    await ker.sleep(0)  # let same-tick confirmations land before arbitration
    tied = [first]
    while True:
        try:
            tied.append(winners.get_nowait())
        except QueueEmpty:
            break
    same_tick = [c for c in tied if c.confirmed_at == first.confirmed_at]
    winner = min(same_tick, key=lambda c: c.peer_id)
    for candidate in tied:
        if candidate is not winner:
            candidate.chan.abort()
    state.winner = winner
    state.node.network.trace.emit(
        "winner",
        role=state.role,
        node=state.node.address.short(),
        peer=winner.peer_id[:8],
        binding=winner.binding,
    )
    return winner


async def _authenticate(
    state: _SessionState,
    conn: Connection,
    secret: PakeSecret,
    role: str,
    rng: random.Random,
    winners: Queue,
    allowed_bindings: set[str] | None = None,
) -> None:
    """Handshake and confirm one candidate; a confirmed channel joins ``winners``.

    A failure drops only this connection: the auth layer aborts it on every
    failure and on cancellation. ``role`` goes to ``pake_handshake``
    positionally: the benchmark's span tracer reads it as the third argument.
    """
    node = state.node
    peer = conn.remote
    try:
        state.advance("authenticating", peer=peer.short())
        keys, transcript, binding = await pake_handshake(
            conn,
            secret,
            role,
            rng,
            allowed_bindings=allowed_bindings,
            timeout=HANDSHAKE_TIMEOUT,
        )
        chan = await confirm_key(conn, keys, transcript, timeout=HANDSHAKE_TIMEOUT)
    except PcpError as e:
        state.auth_failures += 1
        node.network.trace.emit(
            "auth_fail",
            role=state.role,
            node=node.address.short(),
            peer=peer.short(),
            reason=type(e).__name__,
        )
        return
    node.network.trace.emit(
        "auth_ok", role=state.role, node=node.address.short(), peer=peer.short()
    )
    winners.put(_Candidate(peer.peer_id, chan, binding, node.kernel.now()))


async def run_sender(
    node: SimNode,
    config: SessionConfig,
    path: str,
    *,
    passphrase: Passphrase | None = None,
    on_code: Callable[[str], None] | None = None,
    progress: ProgressFn | None = None,
    rng: random.Random | None = None,
) -> TransferOutcome:
    """Whole sender lifecycle; returns the final transfer outcome."""
    rng = rng or node.kernel.rng("session")
    try:
        manifest = manifest_for_file(path)
    except (OSError, InvalidArgument) as e:  # unreadable, or a name the manifest cannot carry
        logger.error("cannot send %s: %s", path, e)
        return TransferOutcome(STATUS_FAILED, reason="io")

    words = passphrase or generate_passphrase(config.word_count, rng)
    if on_code:
        on_code(words.render())
    channel = channel_id(words)
    password = PakePassword(words.secret_bytes())

    kernel = node.kernel
    state = _SessionState(node, ROLE_SENDER)
    deadline_at = kernel.now() + config.discovery_deadline
    published: set[str] = set()
    winners: Queue = Queue()
    node.network.trace.emit(
        "session_start", role=ROLE_SENDER, node=node.address.short(), channel=channel
    )

    async def publisher() -> None:
        while True:
            key = sender_publish_key(channel, kernel.now())
            if key.id_string not in published:
                published.add(key.id_string)
                # all backends in parallel: a slow global publish must not
                # hold back the local advertisement
                writes = [
                    state.track(kernel.spawn(backend.provide(node, key.content_key), name="publish"))
                    for backend in config.backends
                ]
                for write in writes:
                    try:
                        await write.join()
                    except PcpError as e:
                        logger.warning("publish failed on one backend: %s", e)
            if not config.republish_on_rollover:
                return
            await ker.sleep(next_slot_delay(key.slot, kernel.now()))

    async def acceptor() -> None:
        secret = PakeSecret(password, "")
        while True:
            conn = await node.accept()
            auth = _authenticate(state, conn, secret, ROLE_RESPONDER, rng, winners, published)
            state.track(kernel.spawn(auth, name="sender-candidate"))

    state.track(kernel.spawn(publisher(), name="sender-publish"))
    state.track(kernel.spawn(acceptor(), name="sender-accept"))
    try:
        winner = await _pick_winner(state, winners, deadline_at)
        if winner is None:
            state.advance(PHASE_FAILED, detail="discovery-timeout")
            return TransferOutcome(STATUS_FAILED, reason="timeout")
        state.cancel_losers(winners)
        state.advance("awaiting-confirmation", peer=winner.peer_id[:8])
        node.network.trace.emit(
            "manifest_sent",
            src=node.address.short(),
            dst=winner.peer_id[:8],
            name=manifest.name,
            size=manifest.size,
            sha256=manifest.sha256_hex,
        )
        outcome = await send_file(
            winner.chan, path, manifest, progress,
            on_accept=lambda: state.advance("transferring"),
        )
        return state.finish(outcome)
    finally:
        state.cancel_losers(winners)


async def run_receiver(
    node: SimNode,
    config: SessionConfig,
    passphrase_text: str,
    *,
    dest_dir: str,
    decide: DecideFn | None = None,
    progress: ProgressFn | None = None,
    rng: random.Random | None = None,
) -> TransferOutcome:
    """Whole receiver lifecycle; returns the final transfer outcome."""
    rng = rng or node.kernel.rng("session")
    words = parse_passphrase(passphrase_text)
    channel = channel_id(words)
    password = PakePassword(words.secret_bytes())

    kernel = node.kernel
    state = _SessionState(node, ROLE_RECEIVER)
    deadline_at = kernel.now() + config.discovery_deadline
    winners: Queue = Queue()
    dialed: set[str] = set()
    node.network.trace.emit(
        "session_start", role=ROLE_RECEIVER, node=node.address.short(), channel=channel
    )

    async def candidate(addr: PeerAddress, binding: str) -> None:
        try:
            conn = await node.dial(addr)
        except DialError:
            return  # simnet already traced the failed dial
        await _authenticate(
            state, conn, PakeSecret(password, binding), ROLE_INITIATOR, rng, winners
        )

    async def pump(stream: ProviderStream, binding: str) -> None:
        """Read one lookup to its deadline, dialing each provider not dialed yet."""
        try:
            while (addr := await stream.next()) is not None:
                if addr.peer_id not in dialed:
                    dialed.add(addr.peer_id)
                    state.track(kernel.spawn(candidate(addr, binding), name="receiver-candidate"))
        except BackendUnavailable:
            logger.warning("a discovery backend stopped mid-lookup")

    async def querier() -> None:
        started: set[str] = set()
        while True:
            remaining = deadline_at - kernel.now()
            if remaining <= 0:
                return
            keys = receiver_query_keys(channel, kernel.now())
            for key in keys:
                if key.id_string in started:
                    continue
                started.add(key.id_string)
                for backend in config.backends:
                    try:
                        stream = backend.find_providers(node, key.content_key, deadline=remaining)
                    except BackendUnavailable:
                        continue
                    state.track(kernel.spawn(pump(stream, key.id_string), name="pump"))
            await ker.sleep(next_slot_delay(keys[0].slot, kernel.now()))

    state.track(kernel.spawn(querier(), name="receiver-query"))
    try:
        winner = await _pick_winner(state, winners, deadline_at)
        if winner is None:
            if state.auth_failures:
                state.advance(PHASE_FAILED, detail="auth-exhausted")
                return TransferOutcome(STATUS_FAILED, reason="auth-exhausted")
            state.advance(PHASE_FAILED, detail="not-found")
            return TransferOutcome(STATUS_FAILED, reason="not-found")
        state.cancel_losers(winners)
        state.advance("awaiting-confirmation", peer=winner.peer_id[:8])

        async def deciding(manifest) -> bool:
            accepted = bool(await decide(manifest)) if decide is not None else False
            if accepted:
                state.advance("transferring")
            return accepted

        outcome = await receive_file(winner.chan, deciding, dest_dir, progress=progress)
        return state.finish(outcome)
    finally:
        state.cancel_losers(winners)
