#!/usr/bin/env python3
"""Record the pass digests that ``run.py`` checks outputs against.

Run it from the repository root after a change that is meant to alter
outputs (reports, landscapes, datasets, loss traces), and commit the
updated ``perfbench/digests.json`` together with that change::

    python3 perfbench/record_digests.py --seeds 0-19

Each seed's digest comes from one serial pass of each workload; reports
do not depend on the worker count.
"""

import argparse
import json
import sys

import run  # pins BLAS threads before numpy loads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))

    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in range(first, last + 1):
            state = workload.setup(seed)
            log = run.PassLog(workload.tasks(seed, state, 1))
            log.run_pass()
            problems = log.problems + workload.check(seed, log.summaries)
            if problems or log.failed:
                print(f"{name} seed {seed}: not recorded: {problems} failed={log.failed}", file=sys.stderr)
                return 1
            digest = log.digest(workload.setup_data(state))
            recorded.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
            # Rewrite after every seed so that a cut run keeps what it recorded.
            run.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
