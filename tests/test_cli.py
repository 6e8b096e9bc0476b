import io
import json
import os
import subprocess
import sys

from dbnet import cli, dsl
from dbnet.cli import EXIT_BROKEN_PIPE, EXIT_CONFIG, main
from dbnet.scenarios import scenario_path, scenario_text
from dbnet.semantics import binding_from_json, fire, snapshot_digest

TICKET = str(scenario_path("ticket"))
RELAY = str(scenario_path("relay"))
NU = str(scenario_path("nu_demo"))


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestValidate:
    def test_bundled_scenarios_are_valid(self, capsys):
        for path in (TICKET, RELAY, NU):
            assert main(["validate", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.dbnet"
        bad.write_text(
            "schema { R(int) }\n"
            "net { place p : (int)\n"
            "  transition t { vars { x: int, y: int } in { p -> <x> } guard x < y } }\n"
        )
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "guard variable 'y'" in err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/path.dbnet"]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "syn.dbnet"
        bad.write_text("schema { R(int }\n")
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_numeral_that_is_not_a_digit_exits_one(self, tmp_path):
        # `str.isdigit` accepts `²`, `int()` does not.
        bad = tmp_path / "sup.dbnet"
        bad.write_text("schema { R(int) }\ninit { facts { R(²) } }\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "dbnet", "validate", str(bad)],
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert proc.returncode == 1
        assert "2:18: error: unexpected character '²'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_integer_literal_too_long_exits_one(self, tmp_path):
        bad = tmp_path / "long.dbnet"
        bad.write_text("schema { R(int) }\ninit { facts { R(" + "1" * 5000 + ") } }\n")
        proc = subprocess.run(
            [sys.executable, "-m", "dbnet", "validate", str(bad)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "2:18: error: integer literal too long" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_diagnostics_keep_declaration_order_across_hash_seeds(self, tmp_path):
        bad = tmp_path / "reg.dbnet"
        bad.write_text(scenario_text("ticket").replace("action reg(t:int", "action reg(t:string"))
        errs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "dbnet", "validate", str(bad)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 1
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert errs[0].index("add Ticket") < errs[0].index("add Resp")


class TestSimulate:
    def test_seeded_run_writes_trace_and_final_db(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        final = tmp_path / "final.txt"
        code = main(
            ["simulate", TICKET, "--seed", "42", "--steps", "10",
             "--out", str(out), "--final-db", str(final)]
        )
        assert code == 0
        records = read_jsonl(out)
        assert len(records) <= 11
        summary = records[-1]
        assert summary["summary"] is True
        assert "final_db" in summary
        firing_records = records[:-1]
        assert all(r["step"] == i + 1 for i, r in enumerate(firing_records))
        assert final.exists()

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["simulate", TICKET, "--seed", "7", "--steps", "15", "--out", str(a)])
        main(["simulate", TICKET, "--seed", "7", "--steps", "15", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_come_from_config_section(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", TICKET, "--out", "t.jsonl"]) == 0  # seed 42 from config
        records = read_jsonl(tmp_path / "t.jsonl")
        assert records[-1]["steps"] <= 10

    def test_random_without_seed_is_config_error(self, tmp_path, capsys):
        scenario = tmp_path / "s.dbnet"
        scenario.write_text(scenario_text("relay"))
        assert main(["simulate", str(scenario), "--out", str(tmp_path / "t.jsonl")]) == 3
        assert "random policy requires" in capsys.readouterr().err

    def test_deadlock_reported(self, tmp_path):
        scenario = tmp_path / "dead.dbnet"
        scenario.write_text("schema { }\nnet { place p : (int) }\n")
        out = tmp_path / "t.jsonl"
        assert main(["simulate", str(scenario), "--seed", "1", "--steps", "5", "--out", str(out)]) == 0
        records = read_jsonl(out)
        assert len(records) == 1
        assert records[0]["deadlock"] is True
        assert records[0]["steps"] == 0

    def test_trace_replays_to_same_digests(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main(["simulate", TICKET, "--seed", "9", "--steps", "25", "--out", str(out)])
        records = read_jsonl(out)
        scenario = dsl.elaborate(dsl.parse(scenario_text("ticket")))
        net, snap = scenario.net, scenario.initial
        for record in records[:-1]:
            t = net.transitions[record["transition"]]
            sigma = binding_from_json(t, record["binding"])
            snap, committed = fire(net, snap, t, sigma)
            assert committed == record["committed"]
            assert snapshot_digest(net, snap) == record["state"]
        assert snapshot_digest(net, snap) == records[-1]["state"]

    def test_interactive_policy_reads_indices(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "t.jsonl"
        # Lines that are no index in range are answered with the hint: a
        # superscript digit, a numeral over int()'s digit limit, one too big.
        junk = ["²", "9" * 5000, "1"]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join([*junk, "0", "0", "", ""])))
        code = main(
            ["simulate", RELAY, "--policy", "interactive", "--steps", "5", "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out.count("please enter an index between 0 and 0") == len(junk)
        records = read_jsonl(out)
        # one firing (src -> dst), then deadlock before the blank line matters
        assert records[-1]["steps"] == 1

    def test_interactive_view_tokens_keep_canonical_order_across_hash_seeds(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "dbnet", "simulate", TICKET, "--policy", "interactive",
                 "--out", str(tmp_path / "t.jsonl"), "--final-db", str(tmp_path / "f.txt")],
                input="0\n0\n\n",
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert 'IdleEmps: <"ann">, <"bob">' in outs[0]

    def test_rollback_firings_traced(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        main(["simulate", TICKET, "--seed", "3", "--steps", "60", "--out", str(out)])
        records = read_jsonl(out)
        rolled = [r for r in records[:-1] if not r["committed"]]
        assert rolled, "a 60-step run should hit at least one rollback"
        for r in rolled:
            assert r["added"] == [] and r["deleted"] == []


class TestExplore:
    def test_relay_goal(self, tmp_path, capsys):
        out = tmp_path / "lts.json"
        code = main(
            ["explore", RELAY, "--goal", "marking(dst) >= 1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["states"] == 2
        assert report["edges"] == 1
        assert report["truncated"] is False
        assert report["goal"]["reachable"] is True
        assert report["goal"]["witness_length"] == 1
        assert report["goal"]["witness"][0]["transition"] == "step"

    def test_depth_budget_over_deadlocks_only_is_not_truncation(self, capsys):
        # relay's only state at depth 1 is a deadlock: the budget cuts nothing.
        assert main(["explore", RELAY, "--max-depth", "1", "--goal", "marking(src) >= 2"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[:3] == ["states: 2", "edges: 1", "truncated: no"]
        assert "goal: not reachable anywhere (exploration exhausted)" in out
        assert err == ""

    def test_ticket_log_goal_reachable(self, tmp_path):
        out = tmp_path / "lts.json"
        code = main(
            [
                "explore", TICKET,
                "--goal", "exists t:int . exists e:string . exists d:string . Log(t, e, d)",
                "--max-states", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["goal"]["reachable"] is True
        assert any(w["transition"] == "close" for w in report["goal"]["witness"])

    def test_constraint_violation_unreachable(self, tmp_path):
        out = tmp_path / "lts.json"
        goal = (
            "exists e:string . exists t1:int . exists t2:int . "
            "Resp(e, t1) and Resp(e, t2) and not t1 = t2"
        )
        code = main(
            ["explore", TICKET, "--goal", goal, "--max-states", "400", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["goal"]["reachable"] is False

    def test_goal_marking_flag_conjoined(self, tmp_path):
        out = tmp_path / "lts.json"
        code = main(
            [
                "explore", TICKET,
                "--goal", "exists t:int . exists e:string . exists d:string . Log(t, e, d)",
                "--goal-marking", "marking(staff) >= 3",
                "--max-states", "300",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["goal"]["specified"] is True

    def test_bad_goal_is_config_error(self, capsys):
        assert main(["explore", RELAY, "--goal", "marking(nowhere) >= 1"]) == 3
        assert "unknown place" in capsys.readouterr().err
        huge = "marking(dst) >= " + "9" * 5000  # over int()'s digit limit
        for flag in ("--goal", "--goal-marking"):
            assert main(["explore", RELAY, flag, huge]) == 3
            assert "config error: marking count" in capsys.readouterr().err

    def test_goal_query_with_free_vars_rejected(self, capsys, tmp_path):
        assert main(["explore", TICKET, "--goal", "Emp(e)"]) == 3

    def test_missing_domain_is_config_error(self, tmp_path, capsys):
        text = scenario_text("ticket")
        start = text.index("domains {")
        end = text.index("}", start) + 1
        scenario = tmp_path / "nodomain.dbnet"
        scenario.write_text(text[:start] + text[end:])
        assert main(["explore", str(scenario), "--max-states", "10"]) == 3
        assert "input domain" in capsys.readouterr().err

    def test_zero_state_budget_flag_is_config_error(self, capsys):
        assert main(["explore", RELAY, "--max-states", "0"]) == 3
        assert "state budget must be at least 1" in capsys.readouterr().err

    def test_zero_state_budget_config_is_config_error(self, tmp_path, capsys):
        scenario = tmp_path / "zero.dbnet"
        scenario.write_text(scenario_text("relay") + "\nconfig { max_states: 0 }\n")
        assert main(["explore", str(scenario)]) == 3
        assert "state budget must be at least 1" in capsys.readouterr().err

    def test_truncation_warns_but_exits_zero(self, tmp_path, capsys):
        code = main(["explore", TICKET, "--max-states", "50"])
        assert code == 0
        assert "truncated" in capsys.readouterr().err

    def test_default_state_budget(self, monkeypatch, capsys):
        # nu_demo's fresh values make its state space infinite, and its
        # config sets no budget.
        monkeypatch.setattr(cli, "DEFAULT_MAX_STATES", 50)
        assert main(["explore", NU]) == 0
        out, err = capsys.readouterr()
        assert "states: 50\n" in out
        assert "truncated: yes (state budget reached)" in out
        assert "warning: exploration truncated: state budget reached" in err

    def test_monitors_printed(self, capsys):
        main(["explore", RELAY, "--max-states", "10"])
        out = capsys.readouterr().out
        assert "bound monitors" in out
        assert "max tokens in a place" in out


class TestEntryPoint:
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dbnet", "validate", TICKET],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    def test_closed_stdout_ends_quietly(self):
        # The reader is gone before the first line is written, as with
        # `dbnet explore ... | head -1` when head exits first; the write fails
        # with EPIPE every time, not only when the timing is unlucky.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dbnet", "explore", TICKET, "--max-states", "300"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr

    def test_usage_error_is_config_error(self):
        # argparse exits 2 on its own, which would read as an I/O failure.
        for command, *flags in (
            ["explore", "--workers", "4"],
            ["explore", "--max-states", "abc"],
            ["explore", "--max-states", "-5"],
            ["explore", "--max-depth", "-1"],
            ["simulate", "--steps", "-3"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "dbnet", command, TICKET, *flags],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == EXIT_CONFIG
            assert "usage:" in proc.stderr
            assert "Traceback" not in proc.stderr
        assert main(["explore", "--help"]) == 0

    def test_color_env_disables_ansi(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DBNET_COLOR", "0")
        main(["validate", "/nonexistent.dbnet"])
        assert "\x1b[" not in capsys.readouterr().err

    def test_color_env_forces_ansi(self, monkeypatch, capsys):
        monkeypatch.setenv("DBNET_COLOR", "1")
        main(["validate", "/nonexistent.dbnet"])
        assert "\x1b[" in capsys.readouterr().err


class TestGoldenTrace:
    """The canonical seed-42 run, recorded once and frozen."""

    def test_seed_42_ten_steps(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        final = tmp_path / "final.txt"
        code = main(
            ["simulate", TICKET, "--seed", "42", "--steps", "10",
             "--policy", "random", "--out", str(out), "--final-db", str(final)]
        )
        assert code == 0
        records = read_jsonl(out)
        assert [r.get("transition") for r in records[:-1]] == [
            "close", "open", "open", "drop", "drop", "open", "drop", "open", "take", "take",
        ]
        assert [r["committed"] for r in records[:-1]] == [True] * 9 + [False]
        assert records[-1]["state"] == (
            "1dc0c3b016fc23f920eaf1ac8b0233964ee66ba93cf53e22656f88a841b82006"
        )
        import hashlib

        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "549a4f50bcbaf4da747d748c77c30c39674217522440c5776af625cb8a33147b"
        )
        assert final.read_text() == (
            'Emp("ann")\nEmp("bob")\nLog(1, "bob", "bug")\nResp("ann", 5)\n'
            'Resp("bob", 5)\nTicket(2, "bug")\nTicket(3, "bug")\nTicket(4, "bug")\n'
            'Ticket(5, "bug")\n'
        )
