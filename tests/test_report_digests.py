"""Fixed-seed reruns are byte-identical to the committed report digests.

``tests/report_digests.json`` holds the sha256 of every report file of the
grid in ``tools/output_digests.py``, made by the committed code.  This test
reruns the grid in a fresh interpreter and compares.  A change that alters
report bytes on purpose re-records the file in the same commit:

    python tools/output_digests.py --out tests/report_digests.json

The digests are bit-level, so they are pinned to the Python version, numpy
version and machine that recorded them; on another stamp the test fails and
names both.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RECORDED = REPO / "tests" / "report_digests.json"


def test_report_bytes_match_the_recorded_digests(tmp_path):
    out = tmp_path / "digests.json"
    # -B: the grid imports perfbench/workloads.py and must leave no bytecode there
    proc = subprocess.run([sys.executable, "-B", str(REPO / "tools" / "output_digests.py"),
                           "--out", str(out)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    want, got = json.loads(RECORDED.read_text()), json.loads(out.read_text())
    assert got["stamp"] == want["stamp"], (
        f"digests recorded on {want['stamp']}, rerun on {got['stamp']}: re-record them")
    want, got = want["digests"], got["digests"]
    changed = sorted(k for k in set(want) & set(got) if want[k] != got[k])
    new = sorted(set(got) - set(want))
    missing = sorted(set(want) - set(got))
    assert not (changed or new or missing), (
        f"changed: {changed}\nnew: {new}\nmissing: {missing}")
