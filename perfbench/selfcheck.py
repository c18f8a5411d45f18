"""Show that the output checks reject broken outputs.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/selfcheck.py

Feeds ``checks.py`` a coverage CSV with inner above outer, two same-seed
rounds with different bytes, and reference summaries that moved too far, and
exits non-zero unless every one is rejected (and the intact inputs pass).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

COVERAGE = """# config_digest=0
seed,n,regime,outer_measure,inner_measure,tail_union_measure
0,6,divergent,0.5,{inner},0.75
0,7,divergent,0.25,0.125,0.5
"""


def main() -> int:
    failures = []

    def expect(rejected: bool, problems: list, what: str):
        if bool(problems) != rejected:
            failures.append(f"{what}: expected {'rejection' if rejected else 'pass'}, "
                            f"got {problems}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coverage.csv"
        for inner, rejected in (("0.25", False), ("0.625", True)):
            path.write_text(COVERAGE.format(inner=inner))
            expect(rejected, checks.invariants("coverage", None, [path]),
                   f"coverage CSV with inner={inner}")
            if not rejected:
                good = checks.summarize(path)

    same = {"coverage": {"coverage.csv": "aa"}}
    expect(False, checks.byte_check([same, dict(same)]), "identical same-seed bytes")
    expect(True, checks.byte_check([same, {"coverage": {"coverage.csv": "ab"}}]),
           "same-seed rerun with different bytes")

    expect(False, checks.compare_reference("coverage.csv", good, good), "unchanged reference")
    moved = {**good, "columns": {**good["columns"], "outer_measure": [0.1, 0.0, 0.1]}}
    expect(True, checks.compare_reference("coverage.csv", moved, good),
           "outer sum below the recorded inner sum")

    for line in failures:
        print(f"selfcheck: {line}", file=sys.stderr)
    print("selfcheck:", "FAILED" if failures else "all broken inputs rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
