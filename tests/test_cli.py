import io
import json
import os
import subprocess
import sys

import pytest

from pcp import cli
from pcp.cli import CODE_PREFIX, build_parser, main, render_progress
from pcp.errors import InvalidArgument
from pcp.passphrase import parse_passphrase
from pcp.simworld import SimConfig, SimWorld


@pytest.fixture
def sim_config_path(tmp_path):
    doc = {
        "seed": 3,
        "links": {"lan0": {"latency_ms": [1, 4]}},
        "dht": {"op_latency_ms": [50, 150], "query_interval_ms": 200},
        "mdns": {"op_latency_ms": [2, 6], "query_interval_ms": 100},
        "discovery_deadline": 60,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_send_requires_sim_config(self, tmp_path):
        f = tmp_path / "a.bin"
        f.write_bytes(b"x")
        out = io.StringIO()
        assert main(["send", str(f)], out=out) == 2
        assert "--sim-config" in out.getvalue()

    def test_missing_file_exits_io(self, sim_config_path):
        out = io.StringIO()
        rc = main(["send", "--sim-config", sim_config_path, "definitely-missing.bin"], out=out)
        assert rc == 6
        assert "definitely-missing.bin" in out.getvalue()

    def test_bad_passphrase_word_is_usage_error(self, sim_config_path, tmp_path):
        out = io.StringIO()
        rc = main(
            ["receive", "--dir", str(tmp_path), "--sim-config", sim_config_path,
             "abandon-notaword"],
            out=out,
        )
        assert rc == 2
        assert "notaword" in out.getvalue()

    def test_two_word_passphrase_is_accepted_not_usage_error(self, sim_config_path, tmp_path):
        # word count is inferred from the input, so a short code proceeds to
        # discovery (and times out in an empty world) instead of failing usage
        out = io.StringIO()
        rc = main(
            ["receive", "--dir", str(tmp_path), "--sim-config", sim_config_path,
             "abandon-zoo"],
            out=out,
        )
        assert rc == 3
        assert "not-found" in out.getvalue()

    def test_bad_sim_config_reported(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{\"unknown_field\": 1}")
        src = tmp_path / "a.bin"
        src.write_bytes(b"x")
        out = io.StringIO()
        assert main(["send", "--sim-config", str(f), str(src)], out=out) == 2


class TestSendAlone:
    def test_prints_four_word_code_then_times_out(self, sim_config_path, tmp_path):
        src = tmp_path / "a.bin"
        src.write_bytes(b"hello")
        out = io.StringIO()
        rc = main(["send", "--sim-config", sim_config_path, str(src)], out=out)
        assert rc == 3  # nobody ever dialed; discovery deadline reached
        lines = out.getvalue().splitlines()
        code_lines = [l for l in lines if l.startswith(CODE_PREFIX)]
        assert len(code_lines) == 1
        words = code_lines[0][len(CODE_PREFIX):]
        assert len(words.split("-")) == 4
        parse_passphrase(words)  # printed line round-trips through the parser

    def test_word_count_flag(self, sim_config_path, tmp_path):
        src = tmp_path / "a.bin"
        src.write_bytes(b"hello")
        out = io.StringIO()
        main(["send", "--sim-config", sim_config_path, "-w", "6", str(src)], out=out)
        code = next(
            l for l in out.getvalue().splitlines() if l.startswith(CODE_PREFIX)
        )[len(CODE_PREFIX):]
        assert len(code.split("-")) == 6

    def test_word_count_below_minimum_is_usage_error(self, sim_config_path, tmp_path):
        src = tmp_path / "a.bin"
        src.write_bytes(b"hello")
        out = io.StringIO()
        rc = main(["send", "--sim-config", sim_config_path, "-w", "1", str(src)], out=out)
        assert rc == 2
        assert "word_count must be >= 2" in out.getvalue()
        assert CODE_PREFIX not in out.getvalue()


class TestExitCodes:
    def test_outcome_to_exit_code_table(self):
        from pcp.cli import outcome_exit_code
        from pcp.transfer import TransferOutcome

        assert outcome_exit_code(TransferOutcome("completed")) == 0
        assert outcome_exit_code(TransferOutcome("rejected")) == 5
        assert outcome_exit_code(TransferOutcome("failed", reason="timeout")) == 3
        assert outcome_exit_code(TransferOutcome("failed", reason="not-found")) == 3
        assert outcome_exit_code(TransferOutcome("failed", reason="auth-exhausted")) == 4
        assert outcome_exit_code(TransferOutcome("failed", reason="io")) == 6
        assert outcome_exit_code(TransferOutcome("aborted")) == 6


class TestProgressRendering:
    def test_zero_percent(self):
        assert render_progress(0, 100, 0.0).strip().startswith("0%")

    def test_fifty_percent(self):
        assert "50%" in render_progress(50, 100, 1.0)

    def test_hundred_percent(self):
        assert "100%" in render_progress(100, 100, 2.0)

    def test_monotone_never_exceeds_100(self):
        assert "100%" in render_progress(250, 100, 1.0)

    def test_throughput_shown(self):
        line = render_progress(1024 * 1024, 2 * 1024 * 1024, 1.0)
        assert "MiB/s" in line

    def test_printer_emits_100_exactly_once(self):
        class FakeClock:
            t = 0.0

            def now(self):
                self.t += 0.1
                return self.t

        out = io.StringIO()
        printer = cli._ProgressPrinter(out, FakeClock())
        printer(50, 100)
        printer(100, 100)
        printer(100, 100)
        printer.finish()
        lines = [l for l in out.getvalue().splitlines() if l.strip()]
        assert sum("100%" in l for l in lines) == 1
        assert out.getvalue().endswith("\n")


class TestRoundTrip:
    def test_in_process_pipe_code_into_receive(self, sim_config_path, tmp_path):
        # the printed passphrase, passed verbatim as receive's argv, completes
        # a transfer on one shared kernel
        world = SimWorld.load(sim_config_path)
        parser = build_parser()
        src = tmp_path / "roundtrip.bin"
        payload = os.urandom(50_000)
        src.write_bytes(payload)
        inbox = tmp_path / "inbox"
        send_out, recv_out = io.StringIO(), io.StringIO()

        async def scenario():
            send_args = parser.parse_args(["send", "--sim-config", sim_config_path, str(src)])
            send_task = world.kernel.spawn(cli.send_command(send_args, world, send_out))
            from pcp.kernel import sleep

            code = None
            while code is None:
                await sleep(0.05)
                for line in send_out.getvalue().splitlines():
                    if line.startswith(CODE_PREFIX):
                        code = line[len(CODE_PREFIX):]
            recv_args = parser.parse_args(
                ["receive", "--yes", "--dir", str(inbox), "--sim-config",
                 sim_config_path, code]
            )
            recv_rc = await cli.receive_command(recv_args, world, recv_out)
            send_rc = await send_task.join()
            return send_rc, recv_rc

        send_rc, recv_rc = world.kernel.run(scenario())
        assert send_rc == 0 and recv_rc == 0
        assert (inbox / "roundtrip.bin").read_bytes() == payload
        assert "digest verified" in recv_out.getvalue()

    def test_dir_naming_a_regular_file_aborts_both_sides(self, sim_config_path, tmp_path):
        world = SimWorld.load(sim_config_path)
        parser = build_parser()
        src = tmp_path / "payload.bin"
        src.write_bytes(os.urandom(5_000))
        not_a_dir = tmp_path / "inbox"
        not_a_dir.write_bytes(b"a regular file")
        send_out, recv_out = io.StringIO(), io.StringIO()

        async def scenario():
            send_args = parser.parse_args(["send", "--sim-config", sim_config_path, str(src)])
            send_task = world.kernel.spawn(cli.send_command(send_args, world, send_out))
            from pcp.kernel import sleep

            code = None
            while code is None:
                await sleep(0.05)
                for line in send_out.getvalue().splitlines():
                    if line.startswith(CODE_PREFIX):
                        code = line[len(CODE_PREFIX):]
            recv_args = parser.parse_args(
                ["receive", "--yes", "--dir", str(not_a_dir), "--sim-config",
                 sim_config_path, code]
            )
            recv_rc = await cli.receive_command(recv_args, world, recv_out)
            return await send_task.join(), recv_rc

        send_rc, recv_rc = world.kernel.run(scenario())
        assert recv_rc == 6
        assert "pcp: transfer aborted (" in recv_out.getvalue()
        assert send_rc == 6
        assert "pcp: transfer aborted (" in send_out.getvalue()
        assert not_a_dir.read_bytes() == b"a regular file"
        assert sorted(os.listdir(tmp_path)) == ["inbox", "payload.bin", "sim.json"]

    def test_simulate_scenario_subprocess(self, sim_config_path):
        # the real console entry point, as a separate OS process
        result = subprocess.run(
            [sys.executable, "-m", "pcp", "simulate", "--sim-config", sim_config_path,
             "--scenario", "transfer", "--size", "30000"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert CODE_PREFIX in result.stdout
        assert "send exit 0, receive exit 0" in result.stdout

    def test_interrupt_maps_to_exit_7(self, sim_config_path, tmp_path, monkeypatch):
        async def boom(args, world, out):
            raise KeyboardInterrupt()

        monkeypatch.setattr(cli, "send_command", boom)
        src = tmp_path / "a.bin"
        src.write_bytes(b"x")
        out = io.StringIO()
        rc = main(["send", "--sim-config", sim_config_path, str(src)], out=out)
        assert rc == 7
        assert "interrupted" in out.getvalue()

    def test_pcp_log_env_enables_debug_logging(self, sim_config_path):
        env = dict(os.environ, PCP_LOG="DEBUG")
        result = subprocess.run(
            [sys.executable, "-m", "pcp", "simulate", "--sim-config", sim_config_path,
             "--scenario", "transfer", "--size", "1000"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0
        assert "trace" in result.stderr  # kernel trace events logged at DEBUG

    def test_simulate_unknown_scenario(self, sim_config_path):
        out = io.StringIO()
        rc = main(
            ["simulate", "--sim-config", sim_config_path, "--scenario", "nope"], out=out
        )
        assert rc == 2
        assert "transfer" in out.getvalue()  # lists what exists

    def test_non_interactive_without_yes_rejects(self, sim_config_path, tmp_path):
        # default-deny: stdin is not a tty in the test runner and --yes absent
        world = SimWorld.load(sim_config_path)
        parser = build_parser()
        src = tmp_path / "x.bin"
        src.write_bytes(b"data")
        send_out, recv_out = io.StringIO(), io.StringIO()

        async def scenario():
            send_args = parser.parse_args(["send", "--sim-config", sim_config_path, str(src)])
            send_task = world.kernel.spawn(cli.send_command(send_args, world, send_out))
            from pcp.kernel import sleep

            code = None
            while code is None:
                await sleep(0.05)
                for line in send_out.getvalue().splitlines():
                    if line.startswith(CODE_PREFIX):
                        code = line[len(CODE_PREFIX):]
            recv_args = parser.parse_args(
                ["receive", "--dir", str(tmp_path / "inbox"), "--sim-config",
                 sim_config_path, code]
            )
            recv_rc = await cli.receive_command(recv_args, world, recv_out)
            return await send_task.join(), recv_rc

        send_rc, recv_rc = world.kernel.run(scenario())
        assert recv_rc == 5 and send_rc == 5
        assert "declining" in recv_out.getvalue()
        assert not (tmp_path / "inbox" / "x.bin").exists()


class TestSimConfig:
    def test_defaults_give_working_world(self):
        world = SimWorld(SimConfig())
        assert len(world.backends) == 2

    def test_backend_timing_defaults_come_from_the_backends(self):
        world = SimWorld(SimConfig())
        timing = {type(b).__name__: (b.op_latency, b.query_interval) for b in world.backends}
        assert timing == {
            "SimulatedDht": ((0.2, 0.8), 0.5),
            "SimulatedMdns": ((0.002, 0.008), 0.25),
        }

    def test_backend_spec_overrides_only_what_it_sets(self):
        world = SimWorld(SimConfig.from_dict({"mdns": {"query_interval_ms": 100}}))
        mdns = world.backends[1]
        assert mdns.op_latency == (0.002, 0.008)
        assert mdns.query_interval == 0.1

    @pytest.mark.parametrize(
        "spec",
        [
            {"dht": {"op_latency_ms": [800, 200]}},
            {"mdns": {"op_latency_ms": [-5, -1]}},
            {"dht": {"query_interval_ms": 0}},
            {"mdns": {"op_latency_ms": 0, "query_interval_ms": 0}},
        ],
    )
    def test_bad_backend_timing_is_usage_error(self, spec, tmp_path):
        with pytest.raises(InvalidArgument):
            SimWorld(SimConfig.from_dict(spec))
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(spec))
        out = io.StringIO()
        assert main(["simulate", "--sim-config", str(path)], out=out) == 2
        assert "cannot load sim config" in out.getvalue()

    def test_null_disables_backend(self):
        cfg = SimConfig.from_dict({"dht": None})
        world = SimWorld(cfg)
        assert [type(b).__name__ for b in world.backends] == ["SimulatedMdns"]

    def test_all_backends_disabled_rejected(self):
        with pytest.raises(Exception):
            SimWorld(SimConfig.from_dict({"dht": None, "mdns": None}))

    def test_unknown_fields_rejected(self):
        with pytest.raises(Exception):
            SimConfig.from_dict({"bogus": 1})

    def test_scalar_latency_accepted(self):
        cfg = SimConfig.from_dict({"links": {"lan0": {"latency_ms": 5}}})
        world = SimWorld(cfg)
        link = world.network.link("lan0")
        assert link.latency.lo == link.latency.hi == 0.005
