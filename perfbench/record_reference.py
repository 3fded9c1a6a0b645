"""Record the reference results that run.py compares every pass against.

    python3 perfbench/record_reference.py [workload ...]

Runs one untraced pass per workload and input set and stores its
results.csv under reference/<workload>/inputs-<k>.csv. The committed files
were recorded on the commit that introduced the benchmark; record again
only when a change to the results is intended, and say so in CHANGES.md.
"""

import json
import shutil
import sys
import time

import run


def main(names) -> int:
    for workload in names or sorted(run.WORKLOADS):
        jobs = run.WORKLOADS[workload]["jobs"] or run.nproc()
        for k in range(run.INPUT_SETS):
            raw, _ = run.make_config(workload, k)
            work = run.WORK / "record" / f"{workload}-{k}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cfg_path = work / "config.json"
            cfg_path.write_text(json.dumps(raw, indent=1))
            unit = run.run_unit(work / "pass", cfg_path, jobs, "runs",
                                time.perf_counter() + run.DEADLINE_S)
            results = unit["out"] / "results.csv"
            if unit["sweep_rc"] != 0 or unit["analyze_rc"] != 0 or not results.is_file():
                print(f"{workload} inputs {k}: pass failed; see {work}", file=sys.stderr)
                return 1
            target = run.reference_path(workload, k)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(results, target)
            print(f"{workload} inputs {k}: {unit['wall_s']:.1f} s -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
