"""Smoke tests of the scripts under ``tools/``."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from forking import can_split
from igarad.pipeline import RunConfig, run

ROOT = Path(__file__).resolve().parents[1]
LADDER = ROOT / "tools" / "ordering_ladder.py"


def test_ordering_ladder_smoke(tmp_path):
    """One small point of the ordering ladder: a run's report, whose tree
    LDL^T preconditions GMRES to one cycle.  The point runs twice, and its
    times and resident sets are medians within their range."""
    out = tmp_path / "ladder.json"
    proc = subprocess.run(
        [sys.executable, str(LADDER), "--sizes", "40x30", "--repeat", "2", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (p,) = json.loads(out.read_text())["points"]
    assert (p["n"], p["m"], p["ordering"], p["repeat"]) == (40, 30, "ldl", 2)
    # the blocks of a run's report, key for key
    report = run(RunConfig.from_json(ROOT / "configs" / "desk_radiation_k300.json", n=40, m=30),
                 write_outputs=False).report()
    for block in ("config", "derived", "solve", "timings", "peak_rss_mib", "outputs"):
        assert list(p[block]) == list(report[block]), block
    assert p["config"]["full_scale"] is True
    assert p["solve"]["outer_iterations"] == 1
    assert p["solve"]["true_residual"] <= 1e-10
    # each child's peak is its own, reported by the object that forked it
    for key in ("child_peak_rss_mib", "assemble_child_peak_rss_mib"):
        assert (p["derived"][key] is not None) == can_split()
    ranges = [(p[block][key], *span) for block, spans in p["range"].items() for key, span in spans.items()]
    assert len(ranges) == 2 * len(report["timings"]) + 1 + 2 * can_split()
    assert all(low <= median <= high for median, low, high in ranges)


def test_ordering_ladder_merges_into_out(tmp_path):
    """An existing ``--out`` keeps every row but the ``ldl`` rows of the
    sizes measured: the committed rows, the SuperLU ones among them, come
    through byte-identical, and a stale ``ldl`` row of a measured size is
    replaced where it stood."""
    committed = json.loads((ROOT / "BENCH_ordering.json").read_text())["points"]
    assert {"mmd", "nd"} <= {p["ordering"] for p in committed}
    stale = {"n": 40, "m": 30, "ordering": "ldl", "stale": True}
    out = tmp_path / "ladder.json"
    out.write_text(json.dumps({"environment": {}, "points": [stale, *committed]}, indent=2) + "\n")
    proc = subprocess.run(
        [sys.executable, str(LADDER), "--sizes", "40x30", "--out", str(out)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    first, *rest = json.loads(text)["points"]
    assert (first["n"], first["m"], first["ordering"]) == (40, 30, "ldl") and "stale" not in first
    assert first["git_commit"] == json.loads(text)["environment"]["git_commit"]
    assert rest == committed
    for row in committed:  # each row as json.dump lays out an item of "points"
        assert textwrap.indent(json.dumps(row, indent=2), "    ") in text


@pytest.mark.parametrize(
    "size, code, message",
    [
        ("40x", 2, "argument --sizes: '40x' is not NxM"),
        ("40x30x2", 2, "argument --sizes: '40x30x2' is not NxM"),
        ("40x3", 1, "error: need 2 <= order_xi <= n and 2 <= order_eta <= m"),
        ("3x30", 1, "error: need 0 < a < r"),
    ],
)
def test_ordering_ladder_bad_size(tmp_path, size, code, message):
    """A size that is not ``NxM`` is a usage error; one the run rejects ends
    with the point's own message.  Neither prints a traceback or writes."""
    out = tmp_path / "ladder.json"
    proc = subprocess.run(
        [sys.executable, str(LADDER), "--sizes", size, "--out", str(out)], capture_output=True, text=True
    )
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert ("usage:" in proc.stderr) == (code == 2)
    assert "Traceback" not in proc.stderr
    assert not out.exists()
