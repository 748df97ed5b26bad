"""CLI: every subcommand, against captured stdout."""

import pytest

from repro.cli import _stack, build_parser, main
from repro.protocol import HerrmannProtocol


class TestGraph:
    def test_render_cells(self, capsys):
        assert main(["graph", "cells"]) == 0
        out = capsys.readouterr().out
        assert 'HoLU (Relation "cells")' in out
        assert "- - -> effectors" in out

    def test_render_effectors(self, capsys):
        assert main(["graph", "effectors"]) == 0
        assert 'BLU ("tool")' in capsys.readouterr().out

    def test_unknown_relation_fails(self, capsys):
        assert main(["graph", "nope"]) == 1
        assert "unknown relation" in capsys.readouterr().err

    def test_synthetic_database(self, capsys):
        assert main(["--cells", "2", "graph", "cells"]) == 0


class TestFigure7:
    def test_lock_placement_printed(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "X    db1/seg1/cells/c1/robots/r1" in out
        assert "S    db1/seg2/effectors/e2" in out
        assert "concurrently" in out


class TestExplain:
    def test_explain_q2_plan(self, capsys):
        code = main(["explain", "robots[r1]", "--mode", "X", "--modify", "cells"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(target)" in out
        assert "(downward)" in out

    def test_explain_read_object(self, capsys):
        assert main(["explain", "--mode", "S"]) == 0
        out = capsys.readouterr().out
        assert "(ancestor)" in out


class TestCompare:
    def test_table_shape(self, capsys):
        assert main(["compare", "--transactions", "20"]) == 0
        out = capsys.readouterr().out
        for name in ("herrmann", "system_r_tuple", "system_r_relation", "xsql"):
            assert name in out

    def test_herrmann_wins_in_output(self, capsys):
        main(["compare", "--transactions", "30"])
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in (
                "herrmann", "system_r_tuple", "system_r_relation", "xsql"
            ):
                rows[parts[0]] = float(parts[1])
        assert rows["herrmann"] >= max(rows.values()) - 1e-9


class TestPlanCacheFlag:
    """The simulation commands follow the library's plan-cache default."""

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_default_stack_has_the_cache_on(self, command):
        args = build_parser().parse_args([command])
        stack = _stack(args, HerrmannProtocol)
        assert stack.protocol.use_plan_cache is True

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_no_plan_cache_switches_it_off(self, command):
        args = build_parser().parse_args([command, "--no-plan-cache"])
        stack = _stack(args, HerrmannProtocol)
        assert stack.protocol.use_plan_cache is False

    def test_compare_runs_uncached(self, capsys):
        assert main(["compare", "--transactions", "10", "--no-plan-cache"]) == 0
        assert "herrmann" in capsys.readouterr().out


class TestSweep:
    @pytest.mark.parametrize("axis", ["work_time", "update_fraction", "think_time"])
    def test_axes(self, axis, capsys):
        assert main(["sweep", "--axis", axis, "--transactions", "15"]) == 0
        out = capsys.readouterr().out
        assert "herrmann/xsql" in out
        assert len(out.strip().splitlines()) == 4  # header + 3 settings


class TestTrace:
    def test_narrative_printed(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "acquire" in out
        assert "release_all" in out
        assert "-> granted" in out
        # Q2's target appears
        assert "db1/seg1/cells/c1/robots/r1 X" in out
