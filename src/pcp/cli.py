"""Command-line interface: ``pcp send``, ``pcp receive``, ``pcp simulate``.

The real-network transport is an adapter slot that is not bundled, so both
commands require ``--sim-config`` pointing at a simulation world (see
simworld). ``simulate`` runs scripted scenarios — most usefully the full
send/receive round trip in one process, with the printed passphrase fed
from the sender's output into the receiver's argv.

Exit codes: the table in README "CLI". A session's exit code is its
ending's row in ``pcp.transfer.EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import io
import logging
import os
import sys
import tempfile

from . import kernel as ker
from .errors import InvalidArgument, PassphraseParseError
from .passphrase import DEFAULT_WORD_COUNT
from .session import run_receiver, run_sender
from .simworld import SimWorld
from .transfer import EXIT_CODES, STATUS_COMPLETED, TransferManifest, TransferOutcome

logger = logging.getLogger("pcp.cli")

EXIT_USAGE = 2
EXIT_IO = 6
EXIT_INTERRUPTED = 7

CODE_PREFIX = "Code is: "
_PAYLOAD_PIECE = 64 * 1024  # simulate writes its payload in pieces of this many bytes


def _byte_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a whole number of bytes, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcp",
        description="Passphrase-rendezvous peer-to-peer file copy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_send = sub.add_parser("send", help="offer a file and print the passphrase")
    p_send.add_argument("-w", "--word-count", type=int, default=None,
                        help=f"number of passphrase words (default {DEFAULT_WORD_COUNT})")
    p_send.add_argument("--sim-config", metavar="F", default=None,
                        help="run on the simulated network described by F")
    p_send.add_argument("file", help="path of the file to send")

    p_recv = sub.add_parser("receive", help="fetch the file behind a passphrase")
    p_recv.add_argument("--yes", action="store_true",
                        help="accept the transfer without prompting")
    p_recv.add_argument("--dir", default=".", metavar="D",
                        help="destination directory (default: current)")
    p_recv.add_argument("--sim-config", metavar="F", default=None,
                        help="run on the simulated network described by F")
    p_recv.add_argument("words", help="dash-joined passphrase from the sender")

    p_sim = sub.add_parser("simulate", help="run a scripted scenario hermetically")
    p_sim.add_argument("--sim-config", metavar="F", required=True)
    p_sim.add_argument("--scenario", metavar="S", default="transfer",
                       help="scenario name (available: transfer)")
    p_sim.add_argument("--size", type=_byte_count, default=65536,
                       help="payload size in bytes for the transfer scenario")
    return parser


def _use_color(out) -> bool:
    return getattr(out, "isatty", lambda: False)() and not os.environ.get("NO_COLOR")


def _emit_code(code: str, out) -> None:
    line = f"{CODE_PREFIX}{code}"
    if _use_color(out):
        line = f"\033[1m{line}\033[0m"
    print(line, file=out, flush=True)


def render_progress(bytes_done: int, total: int, elapsed: float) -> str:
    """One status line: percentage and mean throughput."""
    pct = 100 if total == 0 else min(100, bytes_done * 100 // total)
    rate = bytes_done / elapsed if elapsed > 0 else 0.0
    return f"{pct:3d}% {_human(bytes_done)}/{_human(total)} {_human(rate)}/s"


def _human(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f} {unit}" if unit == "B" else f"{n:.1f} {unit}"
        n /= 1024


class _ProgressPrinter:
    """Monotone progress display; prints 100% exactly once, newline-terminated."""

    def __init__(self, out, kernel: ker.Kernel):
        self.out = out
        self.kernel = kernel
        self.started_at: float | None = None
        self.last_line = ""
        self.finished = False

    def __call__(self, bytes_done: int, total: int) -> None:
        if self.finished:
            return
        if self.started_at is None:
            self.started_at = self.kernel.now()
        line = render_progress(bytes_done, total, self.kernel.now() - self.started_at)
        if line == self.last_line:
            return
        self.last_line = line
        interactive = getattr(self.out, "isatty", lambda: False)()
        end = "\r" if interactive else "\n"
        done = total > 0 and bytes_done >= total
        if done:
            self.finished = True
            end = "\n"
        print(line, end=end, file=self.out, flush=True)

    def finish(self) -> None:
        if not self.finished and self.last_line:
            print("", file=self.out, flush=True)
        self.finished = True


def outcome_exit_code(outcome: TransferOutcome) -> int:
    return EXIT_CODES[outcome.reason]


async def send_command(args, world: SimWorld, out) -> int:
    overrides = {}
    if args.word_count is not None:
        overrides["word_count"] = args.word_count
    config = world.session_config(**overrides)
    node = world.new_node()
    progress = _ProgressPrinter(out, world.kernel)
    outcome = await run_sender(
        node,
        config,
        args.file,
        on_code=lambda code: _emit_code(code, out),
        progress=progress,
        rng=world.kernel.rng("sender"),
    )
    progress.finish()
    print(f"pcp: {_describe(outcome)}", file=out)
    return outcome_exit_code(outcome)


async def receive_command(args, world: SimWorld, out) -> int:
    decide = _make_decider(args, out)
    config = world.session_config()
    node = world.new_node()
    progress = _ProgressPrinter(out, world.kernel)
    outcome = await run_receiver(
        node,
        config,
        args.words,
        dest_dir=args.dir,
        decide=decide,
        progress=progress,
        rng=world.kernel.rng("receiver"),
    )
    progress.finish()
    if outcome.path:
        print(f"pcp: saved to {outcome.path}", file=out)
    print(f"pcp: {_describe(outcome)}", file=out)
    return outcome_exit_code(outcome)


def _describe(outcome: TransferOutcome) -> str:
    if outcome.status == STATUS_COMPLETED:
        return f"transfer completed ({outcome.bytes_received} bytes, digest verified)"
    detail = f": {outcome.detail}" if outcome.detail else ""
    return f"transfer {outcome.status} ({outcome.reason.value}){detail}"


def _make_decider(args, out):
    if args.yes:
        async def accept(manifest: TransferManifest) -> bool:
            print(
                f"Receiving '{manifest.name}' ({manifest.size} bytes); accepting (--yes)",
                file=out,
            )
            return True
        return accept

    if sys.stdin.isatty():
        async def prompt(manifest: TransferManifest) -> bool:
            try:
                answer = input(
                    f"Receive '{manifest.name}' ({manifest.size} bytes)? [y/N] "
                )
            except EOFError:  # Ctrl-D at the prompt is a no
                return False
            return answer.strip().lower() in ("y", "yes")
        return prompt

    async def deny(manifest: TransferManifest) -> bool:
        print(
            f"pcp: declining '{manifest.name}' ({manifest.size} bytes): "
            "stdin is not a terminal and --yes was not given",
            file=out,
        )
        return False
    return deny


async def _scenario_transfer(args, world: SimWorld, out) -> int:
    """CLI round trip on one kernel: send's printed code feeds receive."""
    rng = world.kernel.rng("scenario.payload")
    with tempfile.TemporaryDirectory(prefix="pcp-sim-") as workdir:
        src = os.path.join(workdir, "payload.bin")
        with open(src, "wb") as f:
            # whole 32-bit words per piece give the bytes one randbytes(size)
            # call would, and that call overflows from 2**28 bytes on
            for done in range(0, args.size, _PAYLOAD_PIECE):
                f.write(rng.randbytes(min(_PAYLOAD_PIECE, args.size - done)))
        inbox = os.path.join(workdir, "inbox")

        parser = build_parser()
        send_out = io.StringIO()
        send_args = parser.parse_args(["send", "--sim-config", args.sim_config, src])
        send_task = world.kernel.spawn(send_command(send_args, world, send_out), name="cli-send")

        # bounded: the sender prints its code before its first await, or ends by its deadline
        code = None
        while code is None and not send_task.finished:
            await ker.sleep(0.05)
            for line in send_out.getvalue().splitlines():
                if line.startswith(CODE_PREFIX):
                    code = line[len(CODE_PREFIX):].strip()
                    break
        if code is None:
            print("simulate: sender never printed a passphrase", file=out)
            return EXIT_IO

        recv_args = parser.parse_args(
            ["receive", "--yes", "--dir", inbox, "--sim-config", args.sim_config, code]
        )
        recv_rc = await receive_command(recv_args, world, out)
        send_rc = await send_task.join()
    for line in send_out.getvalue().splitlines():
        print(f"[send] {line}", file=out)
    print(f"simulate: send exit {send_rc}, receive exit {recv_rc}", file=out)
    return send_rc or recv_rc


SCENARIOS = {"transfer": _scenario_transfer}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    if args.command in ("send", "receive") and not args.sim_config:
        print(
            "pcp: the real-network transport is not bundled in this build; "
            "pass --sim-config to run on a simulated network (see README)",
            file=out,
        )
        return EXIT_USAGE

    try:
        world = SimWorld.load(args.sim_config)
    except (OSError, ValueError) as e:  # InvalidArgument is a ValueError
        print(f"pcp: cannot load sim config: {e}", file=out)
        return EXIT_USAGE

    try:
        if args.command == "send":
            return world.kernel.run(send_command(args, world, out))
        if args.command == "receive":
            return world.kernel.run(receive_command(args, world, out))
        scenario = SCENARIOS.get(args.scenario)
        if scenario is None:
            print(
                f"pcp: unknown scenario {args.scenario!r} "
                f"(available: {', '.join(sorted(SCENARIOS))})",
                file=out,
            )
            return EXIT_USAGE
        return world.kernel.run(scenario(args, world, out))
    except KeyboardInterrupt:
        print("pcp: interrupted", file=out)
        return EXIT_INTERRUPTED
    except ker.KernelDeadlock as e:
        # every task is waiting on something that nothing will deliver
        print(f"pcp: stalled: {e}", file=out)
        return EXIT_IO
    except PassphraseParseError as e:
        print(f"pcp: bad passphrase: {e}", file=out)
        return EXIT_USAGE
    except InvalidArgument as e:
        print(f"pcp: {e}", file=out)
        return EXIT_USAGE


def _setup_logging() -> None:
    level_name = os.environ.get("PCP_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, None)
        if isinstance(level, int):
            logging.basicConfig(
                level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s"
            )


if __name__ == "__main__":
    sys.exit(main())
