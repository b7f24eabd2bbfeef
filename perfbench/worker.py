"""Run planned hombol CLI jobs, one at a time, in this fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py PLAN.json

The plan (written by run.py) lists cases of jobs.  Each job's input
documents are written to files first; then ``hombol.cli.main(argv)`` runs
with stdout and stderr captured, and its latency is the time from the call
to its return.  One JSON line goes to the plan's results file before each
case starts and after each job ends, so the results survive if the worker
is killed at its deadline.  With a time budget, the worker starts another
case only while the budget is expected to outlast it.  With
``setup_every_s``, it times a fresh ``import hombol.cli`` interpreter
between jobs whenever that many seconds have passed since the last one, so
the set-up samples are spread over the run.  Each job and set-up time is
recorded with the time of a fixed reference kernel just before and just
after it.  With tracing on, tracing.install wraps hombol before the first
job, and the wrapper's cost is calibrated after every job.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import workloads


def _materialize(job, outputs, prefix, workdir):
    paths = {}
    for name, source in job["inputs"].items():
        path = os.path.join(workdir, f"{prefix}_{name}.txt")
        text = outputs[source] if isinstance(source, int) else source  # int: an earlier job
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return [arg.format(**paths) if "{" in arg else arg for arg in job["argv"]]


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            error = traceback.format_exc()
        latency = time.perf_counter() - start
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "latency": latency, "error": error}


_UNITS = [{i: Fraction(1)} for i in range(7)]


def reference_seconds():
    """Wall time of a fixed kernel: Jacobiators of the octonion cross
    product in the benchmark's own sparse Fraction arithmetic
    (workloads.py), which works much like hombol's inner loops but runs no
    hombol code.  run.py divides each job and set-up time by the kernel's
    time around it, so a host that is running slower just then does not
    read as a slower program."""
    table = workloads.fano_product()
    start = time.perf_counter()
    for i in range(7):
        for j in range(7):
            z = workloads._vadd(dict(_UNITS[(i + j) % 7]), _UNITS[(i * j + 1) % 7], Fraction(1, 2))
            workloads._jacobiator(table, _UNITS[i], _UNITS[j], z)
    return time.perf_counter() - start


def _setup_seconds():
    """Wall time of a fresh interpreter that imports hombol.cli.  No timeout:
    Popen.wait polls in steps of up to 50 ms when given one, which would
    round the time up; run.py kills the worker's process group at its
    deadline instead."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hombol.cli"], check=True)
    return time.perf_counter() - start


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import hombol.cli

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    budget = plan["budget_s"]
    setup_every = plan["setup_every_s"]
    last_setup = None
    case_seconds = []
    with open(plan["results"], "w", encoding="utf-8") as results:
        ref = reference_seconds()
        started = time.perf_counter()
        for ci, case in enumerate(plan["cases"]):
            if budget is not None and case_seconds:
                mean = sum(case_seconds) / len(case_seconds)
                if time.perf_counter() - started + mean / 2 >= budget:
                    break
            results.write(json.dumps({"case": ci, "start": True}) + "\n")
            results.flush()
            case_start = time.perf_counter()
            outputs = {}
            for job in case["jobs"]:
                if setup_every is not None and (last_setup is None or time.perf_counter() - last_setup >= setup_every):
                    setup = _setup_seconds()
                    results.write(json.dumps({"setup": setup, "ref": [ref, ref := reference_seconds()]}) + "\n")
                    last_setup = time.perf_counter()
                argv = _materialize(job, outputs, f"c{ci}_j{job['index']}", plan["workdir"])
                result = _run(hombol.cli.main, argv)
                outputs[job["index"]] = result["stdout"]
                result.update(case=ci, job=job["index"], ref=[ref, ref := reference_seconds()])
                if tracer is not None:
                    tracer.settle(tracing.calibrate())
                results.write(json.dumps(result) + "\n")
                results.flush()
            case_seconds.append(time.perf_counter() - case_start)
        final = {"done": True, "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            final["trace"] = tracer.summary()
            tracer.write_spans(plan["spans"])
        results.write(json.dumps(final) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
