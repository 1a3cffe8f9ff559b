"""Record the oracle reference values the ``oracle_grid`` workload checks against.

Run once from the repository root when the references must be re-anchored:

    python3 bench/record_oracle_refs.py

It evaluates the criterion-9 roster at the workload's resolution with the
current library and overwrites ``bench/oracle_refs.json``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from supernorms import NormQuery, brute_force_oracle, random_superop  # noqa: E402

from workloads import ORACLE_REFS, ORACLE_RESOLUTION, oracle_roster  # noqa: E402


def main() -> None:
    values = {}
    for j, q, p in oracle_roster():
        phi = random_superop(2, 2, 2, 7000 + 13 * j)
        values[str(j)] = brute_force_oracle(phi, NormQuery(q, p, True), ORACLE_RESOLUTION)
    doc = {"resolution": ORACLE_RESOLUTION, "values": values}
    ORACLE_REFS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
