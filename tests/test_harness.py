"""Harness and figures-CLI tests (small scales for speed)."""

import pytest

from repro.harness import (
    APPS,
    build_cluster,
    layout,
    placement,
    run_fig5_cell,
    run_fig5_row,
    run_fig6_cell,
    run_fig6b_cell,
)

SCALE = 0.05


class TestLayout:
    def test_uniprocessor_configs(self):
        assert layout(1) == (1, 1)
        assert layout(8) == (8, 1)
        assert layout(9) == (9, 1)

    def test_sixteen_is_eight_dual_blades(self):
        assert layout(16) == (8, 2)

    def test_unsupported_counts_rejected(self):
        with pytest.raises(ValueError):
            layout(32)

    def test_placement_round_robins_blades(self):
        assert placement(4) == [0, 1, 2, 3]
        assert placement(16) == [i % 8 for i in range(16)]

    def test_build_cluster_shapes(self):
        c = build_cluster(16)
        assert len(c.nodes) == 8
        assert all(n.kernel.ncpus == 2 for n in c.nodes)


class TestAppSpecs:
    def test_all_four_apps_registered(self):
        assert set(APPS) == {"CPI", "BT/NAS", "PETSc", "POV-Ray"}

    def test_bt_requires_square_counts(self):
        assert APPS["BT/NAS"].node_counts == (1, 4, 9, 16)

    def test_work_estimates_scale_down_with_nodes(self):
        for spec in APPS.values():
            t1 = spec.work_seconds(spec.node_counts[0], 1.0)
            tn = spec.work_seconds(spec.node_counts[-1], 1.0)
            assert tn < t1


def test_fig5_cell_runs_and_verifies():
    t = run_fig5_cell("CPI", 2, "zapc", scale=SCALE)
    assert t > 0


def test_fig5_rejects_unknown_system():
    with pytest.raises(ValueError):
        run_fig5_cell("CPI", 2, "docker", scale=SCALE)


def test_fig5_row_base_not_slower():
    cell = run_fig5_row("CPI", 2, scale=SCALE)
    assert cell.zapc_time >= cell.base_time
    assert cell.overhead_pct < 1.0


def test_fig6_cell_collects_checkpoints():
    cell = run_fig6_cell("CPI", 2, scale=0.3, n_checkpoints=3)
    assert 1 <= len(cell.checkpoint_times) <= 3
    assert all(t > 0 for t in cell.checkpoint_times)
    assert cell.mean_image_size > 1_000_000


def test_fig6b_cell_restarts_midrun():
    cell = run_fig6b_cell("CPI", 2, scale=0.3)
    assert cell.restart_time is not None and cell.restart_time > 0
    assert cell.network_restart_time > 0


def test_fig6_cell_that_took_no_checkpoint_raises():
    # at this scale CPI on 4 nodes finishes before the first interval
    with pytest.raises(RuntimeError, match=r"^CPI on 4 nodes at scale 0\.002 "):
        run_fig6_cell("CPI", 4, scale=0.002)


def test_fig6b_cell_that_never_restarted_raises():
    with pytest.raises(RuntimeError, match=r"^CPI on 2 nodes at scale 0\.002 "):
        run_fig6b_cell("CPI", 2, scale=0.002)


@pytest.mark.parametrize("fig", ["6a", "6b", "6c"])
def test_figures_cli_names_a_short_run_and_exits(fig, capsys):
    from repro.figures import main

    # no ZeroDivisionError / TypeError traceback, no 0.0 MB row: the
    # cell's one-line reason as the exit message
    with pytest.raises(SystemExit) as exit_:
        main(["--fig", fig, "--app", "CPI", "--scale", "0.002"])
    message = exit_.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith("CPI on ") and "at scale 0.002" in message
    assert capsys.readouterr().out == ""


def test_figures_cli_smoke(capsys):
    from repro.figures import main

    main(["--fig", "5", "--app", "CPI", "--scale", "0.02"])
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "CPI" in out
