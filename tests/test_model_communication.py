"""Tests for repro.model.communication."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.model.communication import (
    FullInformation,
    GraphPattern,
    NoCommunication,
)


class TestNoCommunication:
    def test_nobody_sees_anything(self):
        pattern = NoCommunication(4)
        for i in range(4):
            assert pattern.observed_by(i) == frozenset()

    def test_is_silent(self):
        assert NoCommunication(3).is_silent()

    def test_total_messages(self):
        assert NoCommunication(5).total_messages() == 0

    def test_player_range_validation(self):
        pattern = NoCommunication(3)
        with pytest.raises(ValueError):
            pattern.observed_by(3)
        with pytest.raises(ValueError):
            pattern.observed_by(-1)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            NoCommunication(0)


class TestFullInformation:
    def test_everyone_sees_everyone_else(self):
        pattern = FullInformation(3)
        assert pattern.observed_by(0) == frozenset({1, 2})
        assert pattern.observed_by(2) == frozenset({0, 1})

    def test_not_silent(self):
        assert not FullInformation(2).is_silent()

    def test_total_messages(self):
        assert FullInformation(4).total_messages() == 12

    def test_visibility_table(self):
        table = FullInformation(2).visibility_table()
        assert table == {0: frozenset({1}), 1: frozenset({0})}


class TestGraphPattern:
    def test_edge_direction(self):
        # 0 -> 1 means player 1 sees x_0
        pattern = GraphPattern(3, [(0, 1)])
        assert pattern.observed_by(1) == frozenset({0})
        assert pattern.observed_by(0) == frozenset()

    def test_from_networkx_digraph(self):
        nx = pytest.importorskip("networkx")
        g = nx.DiGraph()
        g.add_edge(0, 2)
        pattern = GraphPattern(3, g)
        assert pattern.observed_by(2) == frozenset({0})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            GraphPattern(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            GraphPattern(3, [(0, 3)])

    def test_chain(self):
        pattern = GraphPattern.chain(4)
        assert pattern.observed_by(0) == frozenset()
        assert pattern.observed_by(1) == frozenset({0})
        assert pattern.observed_by(3) == frozenset({2})
        assert pattern.total_messages() == 3

    def test_star(self):
        pattern = GraphPattern.star(4, center=1)
        assert pattern.observed_by(1) == frozenset({0, 2, 3})
        assert pattern.observed_by(0) == frozenset()

    def test_edges_are_immutable(self):
        pattern = GraphPattern(3, [(0, 1)])
        assert pattern.edges == frozenset({(0, 1)})
        with pytest.raises(AttributeError):
            pattern.edges.add((1, 2))
        assert pattern.observed_by(2) == frozenset()

    def test_empty_graph_is_silent(self):
        assert GraphPattern(3, []).is_silent()


def test_package_and_cli_work_without_networkx():
    """networkx is not a declared dependency: importing the package and
    running a CLI command must not need it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import runpy, sys\n"
        "sys.modules['networkx'] = None  # any import of it now fails\n"
        "import repro\n"
        "sys.argv = ['repro.cli', 'case', '--n', '3', '--delta', '1']\n"
        "runpy.run_module('repro.cli', run_name='__main__')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
