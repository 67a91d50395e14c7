"""Pin the output digests the benchmark checks against.

Runs each workload once with one worker and once with two (different
seeds, so full-length's submission order differs too), requires the two
digest sets to be identical, and writes ``pinned/<workload>-<scale>.json``.
Run it from the repository root only when outputs are meant to change:

    python3 perfbench/pin.py --scale tiny
    python3 perfbench/pin.py --scale full --workload fig3-grid
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from run import HERE, PINNED, WORK, RepFailed, spawn_rep
import workloads


def pin(workload: str, scale: str) -> int:
    work = WORK / f"pin-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        digests = []
        for seed, jobs in ((1, 1), (2, 2)):
            _, doc = spawn_rep(
                work / f"jobs{jobs}",
                ["--workload", workload, "--seed", str(seed), "--scale", scale,
                 "--jobs", str(jobs)],
                time.perf_counter() + 3600,
            )
            digests.append(doc["outputs"])
    except RepFailed as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if digests[0] != digests[1]:
        differing = sorted(
            key for key in set(digests[0]) | set(digests[1])
            if digests[0].get(key) != digests[1].get(key)
        )
        print(f"{workload}: jobs=1 and jobs=2 differ on {differing[:5]}",
              file=sys.stderr)
        return 1
    PINNED.mkdir(exist_ok=True)
    path = PINNED / f"{workload}-{scale}.json"
    doc = {"workload": workload, "scale": scale,
           "outputs": dict(sorted(digests[0].items()))}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{path.relative_to(HERE.parent)}: {len(digests[0])} outputs, "
          "identical with 1 and 2 workers")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.RUNNERS))
    args = parser.parse_args()
    chosen = [args.workload] if args.workload else list(workloads.RUNNERS)
    return max(pin(workload, args.scale) for workload in chosen)


if __name__ == "__main__":
    sys.exit(main())
