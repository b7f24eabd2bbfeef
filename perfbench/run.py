"""The hombol benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload octonion-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere; it finds the repository as the parent of its own
directory and runs hombol from ``src`` (PYTHONPATH=src), so nothing needs to
be installed.

One run is a closed loop with one client.  A fresh worker interpreter
(worker.py) runs the workload's seeded jobs one at a time through
``hombol.cli.main(argv)``; each job's stdout, exit code, verdict and counts
are checked against this benchmark's own references (workloads.py) and
against the stdout digest recorded at the seed commit (digests/, written by
record.py).  A job that fails a check, raises, or is cut off when the worker
passes its deadline counts as failed.

With ``--trace 0`` the run measures, for ``--seconds`` seconds:

    setup_s       median time of a fresh ``python3 -c "import hombol.cli"``
                  interpreter, started by the worker between jobs about every
                  SETUP_EVERY_S seconds: the fixed cost of every CLI call
    jobs_per_s    jobs completed per second of job latency
    job_p50_s     median job latency, from the main(argv) call to its return
    peak_rss_mib  the worker's peak resident memory

and prints job_p90_s (with its sample count, when at least 100 jobs ran) and
failed_ratio with them.

Times are in seconds at a reference speed.  Between jobs the worker times a
fixed reference kernel (worker.py), and each job or set-up time is scaled by
REF_S over the mean of the kernel's times just before and just after it.
A 2-vCPU Xeon VM at 2.0 GHz on a shared host runs the same code up to 1.7
times slower for stretches of seconds to minutes, in CPU time as much as in
wall time.  Between the two back-to-back sets of runs in BENCH_1.json the
plain wall-time medians moved by up to 21%, the scaled ones by at most 6%.
The plain wall-time figures are kept in the run record (``raw_*``).

With ``--trace 1`` it runs a fixed number of cases twice, plain and with
every hombol module wrapped by tracing.py, and reports per-layer self times
and counts, each layer's import time from ``python -X importtime``, and the
tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  Working files go to ``.bench_out/`` in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_EVERY_S = 1.5  # a plain run times a fresh interpreter this often

# Seconds the worker's reference kernel takes on a 2-vCPU Xeon VM at 2.0 GHz
# when its host is quiet.  Timings are reported in seconds at this reference
# speed; see scaled().
REF_S = 0.004
IMPORTTIME_SPAWNS = 3
RUN_DEADLINE_S = 170  # every run ends well inside 180 s

# Cases a traced run covers: about a quarter of --seconds at the seed
# commit on a 2-CPU x86-64 machine.  The run makes them twice, plain and
# traced, and tracing about doubles their time.
TRACE_CASES = {
    "octonion-sparse": 1,
    "symbolic-tower": 2,
    "morphism-grid": 7,
}

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_digests(workload):
    path = HERE / "digests" / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_record(workload, seed, seconds, trace):
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_rev": rev,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "start_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# processes


def _import_hombol(*flags):
    return subprocess.run([sys.executable, *flags, "-c", "import hombol.cli"], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)


def import_seconds():
    """Median self import time per layer, from ``python -X importtime``."""
    _import_hombol()
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_SPAWNS):
        for layer, seconds in tracing.parse_importtime(_import_hombol("-X", "importtime").stderr).items():
            samples[layer].append(seconds)
    return {layer: statistics.median(values) for layer, values in samples.items()}


def run_worker(cases, rundir, tag, *, budget, trace, deadline, setup_every=None):
    """Run cases in a fresh worker; kill it at ``deadline`` (time.monotonic)."""
    workdir = rundir / tag
    workdir.mkdir()
    plan = {
        "trace": trace,
        "budget_s": budget,
        "setup_every_s": setup_every,
        "workdir": str(workdir),
        "results": str(rundir / f"{tag}.jsonl"),
        "spans": str(rundir / f"{tag}.spans.json"),
        "cases": [
            {"jobs": [{"index": i, "argv": job.argv, "inputs": job.inputs} for i, job in enumerate(case.jobs)]}
            for case in cases
        ],
    }
    plan_path = rundir / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    killed = False
    with open(rundir / f"{tag}.stderr", "w", encoding="utf-8") as err:
        # its own process group, so a kill also reaches a set-up interpreter it started
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            killed = True
        proc.wait()
    results, setups, started, final = [], [], 0, None
    results_path = Path(plan["results"])
    if results_path.is_file():
        for line in results_path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:  # cut off mid-line by a kill
                continue
            if record.get("done"):
                final = record
            elif record.get("start"):
                started = record["case"] + 1
            elif "setup" in record:
                setups.append(record)
            else:
                results.append(record)
    return {"results": results, "setups": setups, "started": started, "final": final, "killed": killed,
            "stderr": (rundir / f"{tag}.stderr").read_text(encoding="utf-8")}


# ---------------------------------------------------------------------------
# correctness


def _last_line(text):
    lines = text.rstrip("\n").splitlines()
    return lines[-1] if lines else ""


def _column(text, labels):
    """A linear combination like '-e2', 'e1 + 1/2*e3' or '0' as coordinates."""
    vec = [Fraction(0)] * len(labels)
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok == "0":
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff, _, label = tok.rpartition("*")
        vec[labels.index(label)] += sign * (Fraction(coeff) if coeff else 1)
        sign = 1
    return tuple(vec)


def _grid_maps(text):
    """Matrices (as column tuples) printed after 'grid search: N solution(s)'."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("grid search:")), None)
    if start is None:
        return None, []
    maps, cols, labels = [], [], None
    for line in lines[start + 1:]:
        if line.startswith("basis "):
            labels = line.split()[1:]
        elif line.startswith("alpha "):
            cols.append(_column(line.split("=", 1)[1], labels))
            if len(cols) == len(labels):
                maps.append(tuple(cols))
                cols = []
    return int(lines[start].split()[2]), sorted(maps)


def check_job(job, result, recorded):
    """None when the job's result is right, else the reason it is not.
    ``recorded`` is its stdout digest from the seed commit (None: skip)."""
    if result.get("error"):
        return "raised " + result["error"].strip().splitlines()[-1]
    exp = workloads.resolve_expect(job)
    out = result["stdout"]
    if result["exit"] != exp["exit"]:
        return f"exit code {result['exit']}, expected {exp['exit']}: {result['stderr'].strip()[:200]}"
    if "verdict" in exp and _last_line(out) != f"  => {exp['verdict']}":
        return f"verdict line {_last_line(out)!r}, expected {exp['verdict']}"
    if "failing" in exp:
        failing = sorted(line.split(":")[0].strip() for line in out.splitlines() if ": FAIL at (" in line)
        if failing != sorted(exp["failing"]):
            return f"failing identities {failing}, expected {exp['failing']}"
    if "doc" in exp and not out.startswith(f"dim {exp['doc']}\n"):
        return f"expected a dim-{exp['doc']} algebra document"
    if "mismatches" in exp:
        want = f"  => {exp['mismatches']} mismatch(es) in {exp['rows']} row(s)"
        if _last_line(out) != want:
            return f"cross-check total {_last_line(out)!r}, expected {want!r}"
    if "solution_set" in exp:
        count, maps = _grid_maps(out)
        if count != len(exp["solution_set"]) or maps != exp["solution_set"]:
            return f"{count} grid solutions, expected {len(exp['solution_set'])} (or a different set)"
    if "grid_solutions" in exp:
        want = f"  grid check: {exp['grid_solutions']} solution(s), zero map included"
        if want not in out.splitlines():
            return f"expected {want.strip()!r}"
    if recorded is not None and digest(out) != recorded:
        return "stdout differs from the digest recorded at the seed commit"
    return None


def verify(cases, outcome, digests, use_digests=True):
    """(attempted, failures, finished): the worker's records of the jobs
    that finished, in order.  Every job of a case the worker started is
    attempted; one it did not finish has failed."""
    by_job = {(r["case"], r["job"]): r for r in outcome["results"]}
    attempted, failures, finished = 0, [], []
    for ci in range(min(outcome["started"], len(cases))):
        case = cases[ci]
        recorded = digests.get(str(case.seed), [])
        for ji, job in enumerate(case.jobs):
            attempted += 1
            result = by_job.get((ci, ji))
            where = f"case {case.seed} job {ji} ({' '.join(job.argv)})"
            if result is None:
                failures.append(f"{where}: not finished before the worker's deadline")
                continue
            finished.append(result)
            if use_digests and ji >= len(recorded):
                reason = "no stdout digest recorded for this job"
            else:
                reason = check_job(job, result, recorded[ji] if use_digests else None)
            if reason:
                failures.append(f"{where}: {reason}")
    return attempted, failures, finished


# ---------------------------------------------------------------------------
# one run


def _worker_problem(outcome, tag):
    """Why the worker did not finish its plan, or None.  Jobs it left
    unfinished already count as failed; this also catches a worker that
    died between cases or while writing its summary."""
    if outcome["killed"]:
        return f"{tag} worker killed at its deadline"
    if outcome["final"] is None:
        return f"{tag} worker exited early: " + outcome["stderr"].strip()[-300:]
    return None


def scaled(seconds, ref):
    """A time measured between two reference-kernel times ``ref``, in
    seconds at the reference speed REF_S."""
    return seconds * REF_S / statistics.fmean(ref)


def run_plain(workload, seed, seconds, rundir, start):
    cases = [workloads.make_case(workload, s) for s in workloads.case_order(workload, seed)]
    outcome = run_worker(cases, rundir, "plain", budget=seconds, trace=False,
                         deadline=start + RUN_DEADLINE_S, setup_every=SETUP_EVERY_S)
    attempted, failures, finished = verify(cases, outcome, load_digests(workload))
    problems = [p for p in [_worker_problem(outcome, "plain")] if p]
    if outcome["final"] is not None:
        rss_kib = outcome["final"]["rss_kib"]
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups = [scaled(r["setup"], r["ref"]) for r in outcome["setups"]]
    lat = [scaled(r["latency"], r["ref"]) for r in finished]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "jobs_per_s": len(lat) / sum(lat) if lat else 0.0,
        "job_p50_s": statistics.median(lat) if lat else 0.0,
        "peak_rss_mib": rss_kib / 1024,
    }
    notes = {"jobs": len(lat), "cases": outcome["started"], "setup_spawns": len(setups),
             "failed_ratio": len(failures) / attempted if attempted else 1.0}
    if len(lat) >= 100:
        notes["job_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    if setups and finished:  # the same figures in plain wall time
        raw = [r["latency"] for r in finished]
        notes.update(raw_setup_s=statistics.median(r["setup"] for r in outcome["setups"]),
                     raw_jobs_per_s=len(raw) / sum(raw), raw_job_p50_s=statistics.median(raw),
                     ref_p50_s=statistics.median(t for r in finished for t in r["ref"]))
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, failures, problems, metrics, notes


def run_traced(workload, seed, seconds, rundir, start):
    import_s = import_seconds()
    order = workloads.case_order(workload, seed)[: TRACE_CASES[workload]]
    cases = [workloads.make_case(workload, s) for s in order]
    digests = load_digests(workload)
    remaining = start + RUN_DEADLINE_S - time.monotonic()
    plain = run_worker(cases, rundir, "plain", budget=None, trace=False,
                       deadline=time.monotonic() + remaining * 0.35)
    traced = run_worker(cases, rundir, "traced", budget=None, trace=True,
                        deadline=start + RUN_DEADLINE_S)
    attempted, failures, problems = 0, [], []
    latency = {}
    for tag, outcome in (("plain", plain), ("traced", traced)):
        n, fails, finished = verify(cases, outcome, digests)
        problems += [p for p in [_worker_problem(outcome, tag)] if p]
        attempted += n
        failures += [f"{tag}: {f}" for f in fails]
        latency[tag] = sum(r["latency"] for r in finished)
    summary = (traced["final"] or {}).get("trace") or {"self_s": dict.fromkeys(tracing.LAYERS, 0.0),
                                                        "counts": {}, "extra": {}}
    spans = rundir / "traced.spans.json"
    if spans.is_file():
        shutil.copy(spans, OUT / f"spans-{workload}-{seed}.json")
    metrics = tracing.layer_metrics(summary, import_s, latency["traced"] - latency["plain"])
    notes = {"cases": len(cases), "spans_kept": summary.get("spans_kept", 0)}
    return attempted, failures, problems, metrics, notes


def run_one(workload, seed, seconds, trace):
    start = time.monotonic()
    record = run_record(workload, seed, seconds, trace)
    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        runner = run_traced if trace else run_plain
        attempted, failures, problems, metrics, notes = runner(workload, seed, seconds, rundir, start)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record.update(wall_s=time.monotonic() - start, notes=notes, failures=failures[:50], problems=problems,
                  attempted=attempted, failed=len(failures), correct=not failures and not problems,
                  metrics=metrics)
    (OUT / f"run-{workload}-{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _print_record(record):
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}"
          f" rev={record['git_rev'][:12]} python={record['python']} nproc={record['nproc']}"
          f" loadavg={' '.join(f'{x:.2f}' for x in record['loadavg'])} wall={record['wall_s']:.1f}s")
    for name, m in record["metrics"].items():
        print(f"{name:32} {m['value']:>14.6g} {m['unit']}")
    notes = record["notes"]
    if "job_p90_s" in notes:
        print(f"{'job_p90_s':32} {notes['job_p90_s']:>14.6g} s (n={notes['jobs']})")
    for name in ("raw_setup_s", "raw_jobs_per_s", "raw_job_p50_s"):
        if name in notes:
            print(f"{name:32} {notes[name]:>14.6g} (plain wall time)")
    if "failed_ratio" in notes:
        print(f"{'failed_ratio':32} {notes['failed_ratio']:>14.6g} ({record['failed']}/{record['attempted']})")
    for line in record["problems"] + record["failures"][:10]:
        print(f"FAILED {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hombol" / "cli.py").is_file():
        print(f"error: no hombol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":  # one table for every workload, no JSON line
        records = [run_one(name, args.seed, args.seconds, args.trace) for name in workloads.WORKLOADS]
        for record in records:
            _print_record(record)
        return 0 if all(r["correct"] for r in records) else 1
    record = run_one(args.workload, args.seed, args.seconds, args.trace)
    _print_record(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
