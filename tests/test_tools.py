"""Smoke tests of the scripts under ``tools/``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ordering_ladder_smoke(tmp_path):
    """One small point of the ordering ladder: every factor preconditions
    GMRES to one cycle, and the tree's LDL^T stores fewer entries than
    SuperLU under minimum degree (129,596 against 206,478 measured).  Each
    point runs twice, and its times and peak are medians within their range."""
    out = tmp_path / "ladder.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ordering_ladder.py"), "--sizes", "40x30", "--repeat", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    points = {p["ordering"]: p for p in json.loads(out.read_text())["points"]}
    assert sorted(points) == ["ldl", "mmd", "nd"]
    assert points["ldl"]["lu_nnz"] < points["mmd"]["lu_nnz"]
    for p in points.values():
        assert p["direct_residual"] <= 1e-10
        assert p["true_residual"] <= 1e-10
        assert p["gmres_cycles"] == 1
        assert p["repeat"] == 2
        for key in ("assemble_s", "factor_s", "ru_maxrss_mib", "rss_before_factor_mib"):
            if p[key] is not None:  # the resident set before the factor needs /proc
                assert p[f"{key}_min"] <= p[key] <= p[f"{key}_max"]
        assert p["rss_before_factor_mib"] is None or p["rss_before_factor_mib"] <= p["ru_maxrss_mib"]
