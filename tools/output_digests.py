"""Print the sha256 of every benchmark op's checked output at one seed.

Run from the repository root:

    python3 tools/output_digests.py --seed 0

It builds the three workloads of ``perfbench/workloads.py`` (imported, not
changed) in a temporary directory, runs every op once, and prints one line
per op: the workload, the op's position and kind, and the sha256 of the
output bytes its check returns, followed by the check's failure if any.
``compute`` reports embed their input path; the temporary directory is
replaced by a fixed token before hashing, so the lines of two checkouts
compare with ``diff``.  A refactor that keeps every report byte prints the
same lines as its parent.  The program is imported from ``src/`` of the
checkout that holds this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deep-grid", "local-fits", "oracle-suites")


def digests(workload: str, seed: int) -> list[str]:
    """One line per op of ``workload`` at ``seed``."""
    import workloads
    lines = []
    with tempfile.TemporaryDirectory() as work:
        wl = workloads.WORKLOADS[workload](seed, work)
        token = json.dumps(work)[1:-1].encode()
        for i, op in enumerate(wl.ops):
            data, err = op.check(op.run())
            digest = hashlib.sha256(data.replace(token, b"<work>"))
            line = f"{workload}\t{i}\t{op.kind}\t{digest.hexdigest()}"
            lines.append(line if err is None else f"{line}\tFAILED: {err}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    # the benchmark's thread pins, set before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    failed = False
    for workload in WORKLOADS:
        for line in digests(workload, args.seed):
            print(line, flush=True)
            failed |= "\tFAILED: " in line
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
