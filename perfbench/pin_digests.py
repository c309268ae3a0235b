"""Write digests.json: the SHA-256 of each fixed-input op's JSON export.

    python3 perfbench/pin_digests.py

Run it at the commit whose output is the reference, and only when a change
of output bytes is intended and explained; the oracle counts any op whose
export differs from the pinned digest as failed. Seeded aliquot sequences
are not pinned: the oracle re-encodes them independently instead.
"""

from __future__ import annotations

import json
import sys

from oracle import DIGESTS_FILE, sha256
from run import SRC, fresh_import
from workloads import SIZES, WORKLOADS, make_ops, resolve


def main() -> int:
    sys.path.insert(0, str(SRC))
    package = fresh_import()
    digests = {}
    for size in SIZES.values():
        for workload in WORKLOADS:
            for op in make_ops(workload, 0, size, nproc=2):
                if op.kind == "aliquot_sequence" or op.key in digests:
                    continue
                package.numeric.factorize.cache_clear()
                result = resolve(package, op)(*op.args, **dict(op.kwargs))
                digests[op.key] = sha256(package.export_report(result, "json"))
    DIGESTS_FILE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests in {DIGESTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
