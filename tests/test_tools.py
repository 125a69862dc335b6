"""Smoke tests of the scripts under ``tools/``."""

import json
import subprocess
import sys
from pathlib import Path

from forking import can_split

ROOT = Path(__file__).resolve().parents[1]


def test_ordering_ladder_smoke(tmp_path):
    """One small point of the ordering ladder: the tree's LDL^T preconditions
    GMRES to one cycle.  The point runs twice, and its times and resident
    sets are medians within their range."""
    out = tmp_path / "ladder.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ordering_ladder.py"), "--sizes", "40x30", "--repeat", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (p,) = json.loads(out.read_text())["points"]
    assert p["ordering"] == "ldl"
    assert p["direct_residual"] <= 1e-10
    assert p["true_residual"] <= 1e-10
    assert p["gmres_cycles"] == 1
    assert p["repeat"] == 2
    for key in ("assemble_s", "factor_s", "ru_maxrss_mib", "assemble_child_peak_rss_mib",
                "factor_child_peak_rss_mib", "rss_before_factor_mib", "rss_after_factor_mib", "rss_after_gmres_mib"):
        if p[key] is not None:  # the resident sets need /proc, the children's peaks two cores
            assert p[f"{key}_min"] <= p[key] <= p[f"{key}_max"]
    # each child's peak is its own, reported by the object that forked it
    assert (p["assemble_child_peak_rss_mib"] is not None) == can_split()
    assert (p["factor_child_peak_rss_mib"] is not None) == can_split()
    assert "ru_maxrss_children_mib" not in p
    # the later two can sit at the peak, which the kernel's ru_maxrss counts
    # with a lag of a few pages; the first is well below it
    assert p["rss_before_factor_mib"] is None or p["rss_before_factor_mib"] <= p["ru_maxrss_mib"]
