"""Record the digests of the sampled output columns that the benchmark checks.

    python3 benchmarks/record_digests.py

Runs each Monte Carlo workload once per generator seed used by benchmark
seeds 0..RECORDED_SEEDS-1 and writes ``digests.json``.  Run it only at a
revision whose sampled output is known to be right: afterwards every run
compares its output with these digests, bit for bit.
"""
from __future__ import annotations

import json
import shutil
import sys

import run

RECORDED_SEEDS = 32


def main() -> int:
    run._import_betamix()
    import workloads

    workdir = run.ROOT / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    try:
        for cls in (workloads.MarkovDeviation, workloads.MdepWeakError,
                    workloads.MarkovUnionBound):
            workload = cls(0, workdir)
            seeds = range(RECORDED_SEEDS * workloads.SEEDS_PER_RUN)
            out[cls.name] = {str(s): workload.digest_of(s) for s in seeds}
            print(f"{cls.name}: {len(out[cls.name])} digests", file=sys.stderr)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
