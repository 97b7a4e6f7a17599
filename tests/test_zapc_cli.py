"""CLI front-end tests."""

import pytest

from repro.zapc import main, run_demo


def test_snapshot_demo(capsys):
    assert run_demo("snapshot", "CPI", 2, scale=0.1) is True
    out = capsys.readouterr().out
    assert "checkpoint: ok" in out
    assert "answer verified: True" in out


def test_migrate_demo(capsys):
    assert run_demo("migrate", "CPI", 2, scale=0.1) is True
    out = capsys.readouterr().out
    assert "restart: ok" in out


def test_recover_demo(capsys):
    assert run_demo("recover", "CPI", 2, scale=0.1) is True
    out = capsys.readouterr().out
    assert "checkpoint: ok" in out and "restart: ok" in out


def test_main_exit_codes(capsys):
    assert main(["snapshot", "--app", "CPI", "--nodes", "2", "--scale", "0.1"]) == 0


def test_unsupported_node_count_rejected():
    with pytest.raises(SystemExit):
        run_demo("snapshot", "BT/NAS", 2)


def test_sixteen_node_migration_lands_two_pods_per_dual_cpu_spare(capsys):
    """16 "nodes" are 8 dual-CPU blades: the pods of blade k move to
    spare blade 8 + k, two per spare — every destination exists."""
    assert run_demo("migrate", "CPI", 16, scale=0.05) is True
    out = capsys.readouterr().out
    assert "cpi-0:blade0->blade8" in out and "cpi-8:blade0->blade8" in out
    assert "blade16" not in out
    assert "checkpoint: ok" in out and "restart: ok" in out


def test_a_run_too_short_for_its_first_checkpoint_exits_with_one_line(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["snapshot", "--app", "CPI", "--nodes", "2", "--scale", "0.002"])
    message = str(exited.value.code)
    assert "\n" not in message
    assert "CPI" in message and "2 nodes" in message and "0.002" in message
    assert "checkpoint: ok" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (["migrate", "--cas"], "--cas"),
    (["fleet", "--live"], "--live"),
    (["recover", "--managers", "2"], "--managers"),
    (["fleet", "--trace", "out.json"], "--trace"),
    (["migrate", "--async"], "--async"),
])
def test_a_flag_the_action_does_not_read_is_refused_by_name(argv, flag, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    message = str(exited.value.code)
    assert "\n" not in message
    assert flag in message and argv[0] in message
    assert capsys.readouterr().out == ""     # nothing ran


def test_snapshot_with_chrome_trace_and_metrics(tmp_path, capsys):
    from repro.obs.validate import CHECKPOINT_SPAN_NAMES, validate_file

    trace = tmp_path / "trace.json"
    assert run_demo("snapshot", "CPI", 2, scale=0.1, trace=str(trace),
                    trace_format="chrome", metrics=True) is True
    out = capsys.readouterr().out
    assert "trace:" in out
    assert "phase timeline" in out
    assert "metrics" in out
    assert validate_file(str(trace), require=list(CHECKPOINT_SPAN_NAMES)) == []


def test_snapshot_with_jsonl_trace(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.jsonl"
    assert run_demo("snapshot", "CPI", 2, scale=0.1, trace=str(trace),
                    trace_format="jsonl") is True
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    assert len(lines) > 10
    names = {json.loads(line)["name"] for line in lines}
    assert "manager.checkpoint" in names and "agent.phase.suspend" in names


def test_main_trace_flags(tmp_path, capsys):
    trace = tmp_path / "out.json"
    assert main(["recover", "--app", "CPI", "--nodes", "2", "--scale", "0.1",
                 "--trace", str(trace), "--trace-format", "chrome",
                 "--metrics"]) == 0
    capsys.readouterr()
    assert trace.exists() and trace.stat().st_size > 0
