"""Record the output digests that bench/run.py checks every run against.

    python3 bench/record.py

Run from the repository root. Runs every workload three times per
workload seed in run.WORKLOAD_SEEDS (untraced, 2 threads, one fresh
worker per seed), requires the three to agree, and writes
bench/expected.json. The digests
are the correctness reference for later commits, so record them only on a
commit whose outputs are trusted; the package promises bitwise-identical
outputs, so a later commit should never need to re-record.
"""

import json
import shutil
import sys
from pathlib import Path

from run import HERE, WORKLOAD_SEEDS, WORKLOADS, config_text, spawn


def main():
    root = Path.cwd().resolve()
    work = root / ".bench_out" / "record"
    out = {}
    try:
        work.mkdir(parents=True, exist_ok=True)
        for workload in WORKLOADS:
            out[workload] = {}
            for seed in WORKLOAD_SEEDS:
                config = work / f"{workload}-{seed}.ini"
                config.write_text(config_text(workload, seed))
                failures = []
                result = spawn(root, ["e2e", root, config, work / "out", 0],
                               failures)
                runs = result["runs"] if result is not None else []
                if not runs or any(r["code"] != 0
                                   or r["digests"] != runs[0]["digests"]
                                   for r in runs):
                    print(f"{workload} seed {seed} failed: {failures} {runs}",
                          file=sys.stderr)
                    return 1
                out[workload][str(seed)] = runs[0]["digests"]
                print(f"{workload} seed {seed}: {runs[0]['wall_s']:.2f}s",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(out, indent=1,
                                                   sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
