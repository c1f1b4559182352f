"""Session orchestration: one lifecycle that both roles run through.

Both roles derive the channel and the password from the words, hunt for
peers until the discovery deadline, authenticate every connection they find,
and hand the first channel that passes key confirmation to the transfer
stage. The hunt is one kernel scope with the discovery deadline, which
cancels and joins all of its tasks as it ends. A failed confirmation drops
only that connection; the hunt continues until the deadline.

Only the hunt and the transfer stage differ. The sender opens its file
once, a regular file whose name can be sent, generates and displays the
words, then hashes the open file, publishes the rendezvous key
on every configured backend (re-publishing when the slot rolls over),
accepts inbound connections and authenticates each as responder, then sends
the bytes it hashed. The receiver queries every backend for the current and
previous slots in parallel, dials providers as they stream in and
authenticates as initiator, then receives.

At most one channel per session ever reaches the transfer stage. The
session wakes on the first confirmation and yields once; of the candidates
confirmed by then, the lowest peer id wins. A candidate that confirms later,
even in the same virtual tick, is aborted.

Each session builds one PakePassword from its words, and every handshake it
runs shares it, so the password-only exponentiations run once per session.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Collection

from . import kernel as ker
from .auth import ROLE_INITIATOR, ROLE_RESPONDER, PakeSecret, SecureChannel, confirm_key, pake_handshake
from .discovery import DiscoveryBackend, ProviderStream
from .errors import DialError, InvalidArgument, PcpError
from .pake import PakePassword
from .passphrase import (
    DEFAULT_WORD_COUNT,
    MIN_WORDS,
    Passphrase,
    channel_id,
    generate_passphrase,
    parse_passphrase,
)
from .rendezvous import DiscoveryKey, next_slot_delay, receiver_query_keys, sender_publish_key
from .simnet import Connection, PeerAddress, SimNode
from .transfer import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    DecideFn,
    Ending,
    ProgressFn,
    TransferOutcome,
    check_name,
    manifest_for_file,
    open_source,
    receive_file,
    send_file,
)

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


@dataclass
class SessionConfig:
    backends: tuple[DiscoveryBackend, ...]
    word_count: int = DEFAULT_WORD_COUNT
    discovery_deadline: float = 120.0

    def __post_init__(self) -> None:
        if not self.backends:
            raise InvalidArgument("at least one discovery backend is required")
        if self.word_count < MIN_WORDS:
            raise InvalidArgument(f"word_count must be >= {MIN_WORDS}, got {self.word_count}")


@dataclass
class _Candidate:
    peer_id: str
    chan: SecureChannel
    binding: str


class _Session:
    """One session's lifecycle, the same for both roles.

    Holds the channel, the password every handshake shares, the hunt
    scope with the discovery deadline, the rendezvous ids it is bound to
    and the list of confirmed candidates. Phases only move forward and are
    mirrored to the trace. A role supplies the tasks it starts in the hunt,
    what it starts for each rendezvous key, what a missed deadline means,
    and its transfer stage; ``each_slot`` and ``run`` do the rest.
    """

    def __init__(
        self,
        node: SimNode,
        role: str,
        config: SessionConfig,
        words: Passphrase,
        rng: random.Random | None = None,
    ):
        self.node = node
        self.role = role
        self.rng = rng or node.kernel.rng("session")
        self.channel = channel_id(words)
        self.password = PakePassword(words.secret_bytes())
        self.phase = PHASE_ORDER[0]
        self.auth_failures = 0
        self.bindings: set[str] = set()
        self.confirmed: list[_Candidate] = []
        self.any_confirmed = ker.Event()
        self.emit("phase", phase=self.phase)
        self.hunt = ker.Scope(config.discovery_deadline)
        self.emit("session_start", channel=self.channel)

    def emit(self, kind: str, **detail) -> None:
        self.node.network.trace.emit(
            kind, role=self.role, node=self.node.address.short(), **detail
        )

    def advance(self, phase: str, **detail) -> None:
        if phase != PHASE_FAILED:
            if PHASE_ORDER.index(phase) <= PHASE_ORDER.index(self.phase):
                return
        elif self.phase == PHASE_FAILED:
            return
        self.phase = phase
        self.emit("phase", phase=phase, **detail)

    async def authenticate(
        self, conn: Connection, binding: str, allowed_bindings: Collection[str] = frozenset()
    ) -> None:
        """Handshake and confirm one candidate; a confirmed one joins ``confirmed``.

        The sender is always the responder and the receiver the initiator.
        A failure drops only this connection: the auth layer aborts it on
        every failure and on cancellation. The auth role goes to
        ``pake_handshake`` positionally: the benchmark's span tracer reads it
        as the third argument.
        """
        peer = conn.remote
        auth_role = ROLE_RESPONDER if self.role == ROLE_SENDER else ROLE_INITIATOR
        try:
            self.advance("authenticating", peer=peer.short())
            keys, transcript, binding = await pake_handshake(
                conn,
                PakeSecret(self.password, binding),
                auth_role,
                self.rng,
                allowed_bindings=allowed_bindings,
            )
            chan = await confirm_key(conn, keys, transcript)
        except PcpError as e:
            self.auth_failures += 1
            self.emit("auth_fail", peer=peer.short(), reason=type(e).__name__)
            return
        self.emit("auth_ok", peer=peer.short())
        self.confirmed.append(_Candidate(peer.peer_id, chan, binding))
        self.any_confirmed.set()

    async def each_slot(
        self,
        keys_at: Callable[[int, float], list[DiscoveryKey]],
        start: Callable[[DiscoveryKey], None],
    ) -> None:
        """At each slot boundary, ``start`` every key whose id is not in ``bindings`` yet."""
        kernel = self.node.kernel
        while True:
            keys = keys_at(self.channel, kernel.now())
            for key in keys:
                if key.id_string not in self.bindings:
                    self.bindings.add(key.id_string)
                    start(key)
            await ker.sleep(next_slot_delay(keys[0].slot, kernel.now()))

    async def run(
        self,
        begin: Callable[[], object],
        no_winner: Callable[[], TransferOutcome],
        transfer: Callable[[_Candidate], Awaitable[TransferOutcome]],
    ) -> TransferOutcome:
        """Pick the winner, end the hunt, run the transfer stage, record how it ended.

        ``begin`` spawns the role's tasks inside the ``hunt`` scope, which
        cancels and joins all of them once a winner is picked, the
        discovery deadline passes or the session is cancelled.
        ``no_winner`` gives the outcome when the deadline passes without a
        confirmed candidate; the failed phase carries its detail, or else
        its ending. A session cancelled while it holds a confirmed channel
        aborts that channel, so the peer sees a reset at once. A cancelled
        session ends in phase ``failed`` with detail ``cancelled``, after
        ``losers_cancelled``, and re-raises.
        """
        try:
            try:
                async with self.hunt:
                    begin()
                    winner = await self._pick_winner()
            except ker.WaitTimeout:
                outcome = no_winner()
                self.advance(PHASE_FAILED, detail=outcome.detail or outcome.reason.value)
                return outcome
            finally:
                for late in self.confirmed:  # left here only by a cancelled session
                    late.chan.abort()
                self.emit("losers_cancelled")
            self.advance("awaiting-confirmation", peer=winner.peer_id[:8])
            try:
                outcome = await transfer(winner)
            except BaseException:  # cancelled: the peer must not wait on this channel for ever
                winner.chan.abort()
                raise
        except ker.Cancelled:
            self.advance(PHASE_FAILED, detail="cancelled")
            raise
        if outcome.status == STATUS_COMPLETED:
            self.advance("done")
        else:
            self.advance(PHASE_FAILED, detail=outcome.status)
        self.emit("transfer_done", status=outcome.status, bytes=outcome.bytes_received)
        return outcome

    async def _pick_winner(self) -> _Candidate:
        """Wake on the first confirmation, yield once, then take the lowest peer id listed."""
        await self.any_confirmed.wait()
        await ker.sleep(0)  # let same-tick confirmations land before arbitration
        winner = min(self.confirmed, key=lambda c: c.peer_id)
        self.confirmed.remove(winner)
        for loser in self.confirmed:
            loser.chan.abort()
        self.confirmed.clear()
        self.emit("winner", peer=winner.peer_id[:8], binding=winner.binding)
        return winner


def _cannot_send(path: str, error: Exception) -> TransferOutcome:
    return TransferOutcome(STATUS_FAILED, Ending.IO, detail=f"cannot send {path!r}: {error}")


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
    """Whole sender lifecycle; returns the final transfer outcome.

    The file is opened once, before the code is shown; the body streamed is
    read from that open file, so a file renamed over ``path`` afterwards is
    not sent. It is closed when the session ends.
    """
    rng = rng or node.kernel.rng("session")
    try:  # what can fail without reading the file fails before the code is shown
        check_name(os.path.basename(path))
        source = open_source(path)
    except (OSError, InvalidArgument) as e:
        return _cannot_send(path, e)

    with source:
        words = passphrase or generate_passphrase(config.word_count, rng)
        if on_code:
            on_code(words.render())
        try:  # the whole-file hash runs once the code is out, before the deadline starts
            manifest = manifest_for_file(path, source)
        except OSError as e:
            return _cannot_send(path, e)
        session = _Session(node, ROLE_SENDER, config, words, rng)

        def publish(key: DiscoveryKey) -> None:
            # all backends in parallel: a slow global publish must not hold
            # back the local advertisement
            for backend in config.backends:
                ker.spawn(backend.provide(node, key.content_key), name="publish")

        async def acceptor() -> None:
            while True:
                try:
                    conn = await node.accept()
                except DialError:
                    return  # the node is stopped
                ker.spawn(session.authenticate(conn, "", session.bindings), name="sender-candidate")

        def begin() -> None:
            ker.spawn(
                # sender_publish_key is looked up at each call, so tests can replace it
                session.each_slot(lambda channel, now: [sender_publish_key(channel, now)], publish),
                name="sender-publish",
            )
            ker.spawn(acceptor(), name="sender-accept")

        async def transfer(winner: _Candidate) -> TransferOutcome:
            node.network.trace.emit(
                "manifest_sent",
                src=node.address.short(),
                dst=winner.peer_id[:8],
                name=manifest.name,
                size=manifest.size,
                sha256=manifest.sha256_hex,
            )
            return await send_file(
                winner.chan, source, manifest, progress,
                on_accept=lambda: session.advance("transferring"),
            )

        return await session.run(
            begin,
            lambda: TransferOutcome(STATUS_FAILED, Ending.NOT_FOUND, detail="discovery-timeout"),
            transfer,
        )


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
    session = _Session(node, ROLE_RECEIVER, config, parse_passphrase(passphrase_text), rng)
    dialed: set[str] = set()

    async def candidate(addr: PeerAddress, binding: str) -> None:
        try:
            conn = await node.dial(addr)
        except DialError:
            return  # simnet already traced the failed dial
        await session.authenticate(conn, binding)

    async def pump(stream: ProviderStream, binding: str) -> None:
        """Read one lookup until the hunt ends, dialing each provider not dialed yet."""
        while True:
            addr = await stream.next()
            if addr.peer_id not in dialed:
                dialed.add(addr.peer_id)
                ker.spawn(candidate(addr, binding), name="receiver-candidate")

    def query(key: DiscoveryKey) -> None:
        for backend in config.backends:
            stream = backend.find_providers(node, key.content_key)
            ker.spawn(pump(stream, key.id_string), name="pump")

    def no_winner() -> TransferOutcome:
        return TransferOutcome(
            STATUS_FAILED, Ending.AUTH_EXHAUSTED if session.auth_failures else Ending.NOT_FOUND
        )

    return await session.run(
        lambda: ker.spawn(session.each_slot(receiver_query_keys, query), name="receiver-query"),
        no_winner,
        lambda winner: receive_file(
            winner.chan, decide, dest_dir, progress=progress,
            on_accept=lambda: session.advance("transferring"),
        ),
    )
