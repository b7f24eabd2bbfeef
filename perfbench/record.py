"""Record the stdout digest of every job in a workload's case pool.

    python3 perfbench/record.py octonion-sparse [more workloads]

Runs every case of each pool once through the worker, checks each job
against the references in workloads.py, and only if all of them hold,
writes ``digests/<workload>.json``: case seed -> one digest per job.  Run
it at the commit whose outputs later runs must reproduce byte for byte.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def record(workload):
    cases = [workloads.make_case(workload, s) for s in range(workloads.POOL_SIZE[workload])]
    run.OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"record-{workload}-", dir=run.OUT))
    try:
        outcome = run.run_worker(cases, rundir, "record", budget=None, trace=False,
                                 deadline=time.monotonic() + 3600)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    attempted, failures, finished = run.verify(cases, outcome, {}, use_digests=False)
    if outcome["final"] is None or failures:
        for line in failures[:20]:
            print(f"FAILED {line}")
        print(f"{workload}: {len(failures)} of {attempted} jobs failed; nothing written")
        return False
    by_job = {(r["case"], r["job"]): r["stdout"] for r in outcome["results"]}
    digests = {
        str(case.seed): [run.digest(by_job[(ci, ji)]) for ji in range(len(case.jobs))]
        for ci, case in enumerate(cases)
    }
    path = run.HERE / "digests" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{workload}: {attempted} jobs in {sum(r['latency'] for r in finished):.1f} s of latency; wrote {path.name}")
    return True


if __name__ == "__main__":
    names = sys.argv[1:] or workloads.WORKLOADS
    ok = [record(name) for name in names]
    sys.exit(0 if all(ok) else 1)
