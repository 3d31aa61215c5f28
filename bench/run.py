"""The linearcat benchmark: one workload, one run.

    python3 bench/run.py --workload plin-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run makes the workload's inputs from the
seed, then starts one fresh interpreter per repeat, one at a time, each with
its own PYTHONHASHSEED; the number of repeats follows from --seconds.  Each
child samples the machine's speed while it works (see ``common.py``), and
every phase time is rescaled to reference seconds.  Interference only ever
adds time, so the run takes, for each phase of the job, the fastest of its
repeats and reports their sum as ``wall_s``.  ``setup_s`` (launch until the
inputs are built, also rescaled) and ``peak_rss_mb`` (per child, read with
``os.wait4``) are medians over the repeats.  A separate child then checks
the outputs with the workload's oracles, and the repeats, each under
another hash seed, must agree byte for byte.

With ``--trace 1`` the run makes one untraced and one traced repeat and
reports the per-layer metrics of the traced one, plus the difference of the
two rescaled wall times as ``trace.overhead_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything a run writes goes
under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH, MIN_REPEATS, NOMINAL_REPEAT_S, OUT,  # noqa: E402
                    REQUIRED, ROOT, check_documents, hash_seeds,
                    load_expected, plin_sample, scaled_seconds)
from tracer import metric_names  # noqa: E402

CHILD = BENCH / "child.py"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class ChildFailed(Exception):
    pass


def repeat_count(workload: str, seconds: int) -> int:
    return max(MIN_REPEATS, int(seconds // NOMINAL_REPEAT_S[workload]))


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    if workload == "plin-sweep":
        expected = load_expected()
        sample = plin_sample(seed, expected["candidates"])
        return {"seed": seed, "sample": sample,
                "expected_evaluations": {
                    "n0": expected["evaluations"]["n0"],
                    "n1": expected["evaluations"]["n1"],
                    "n2": sum(p["evaluations"] for p in sample)}}
    if workload == "check-ptset":
        return {"seed": seed, "docs": check_documents(seed, workdir)}
    return {"seed": seed}


def launch(args: list[str], hash_seed: int, log: Path, deadline: float):
    """Run one child to its end; return (last JSON line, launch time, peak
    RSS in MB of that child alone)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    with open(log, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"child {args[:2]} exited {proc.returncode}; see {log}")
    return json.loads(out.splitlines()[-1]), started, usage.ru_maxrss / 1024.0


def digest(ops: list[dict]) -> str:
    blob = json.dumps([[op["name"], op["ok"], op["result"]] for op in ops],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def scaled_phases(run: dict) -> list[float]:
    return [scaled_seconds(t0, t1, run["samples"]) for _, t0, t1 in run["phases"]]


def scaled_setup(run: dict) -> float:
    return scaled_seconds(run["started"], run["setup_end"], run["samples"])


def phase_floor(runs: list[dict]) -> float:
    """Sum over phases of the fastest repeat of each phase."""
    scaled = [scaled_phases(run) for run in runs]
    return sum(min(column) for column in zip(*scaled))


def total(run: dict) -> float:
    return sum(scaled_phases(run))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) else "count"


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = OUT / f"{workload}-{seed}-t{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(workload, seed, workdir)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=1, sort_keys=True) + "\n")

    repeats = 1 if trace else repeat_count(workload, seconds)
    seeds = hash_seeds(workload, seed, repeats + 2)
    job_args = ["job", workload, str(inputs_path)]
    runs = []
    for r in range(repeats):
        doc, started, rss = launch(job_args, seeds[r], workdir / f"job{r}.log", deadline)
        doc.update(started=started, rss_mb=rss, hash_seed=seeds[r])
        runs.append(doc)
    traced = None
    if trace:
        trace_path = workdir / "trace.json"
        traced, _, _ = launch(job_args + ["--trace", str(trace_path)], seeds[repeats],
                              workdir / "traced.log", deadline)
        layers = json.loads(trace_path.read_text())["metrics"]

    results_path = workdir / "results.json"
    results_path.write_text(json.dumps(runs[0]["ops"], indent=1, sort_keys=True) + "\n")
    verdict, _, _ = launch(["verify", workload, str(inputs_path), str(results_path)],
                           seeds[repeats + 1], workdir / "verify.log", deadline)
    problems = list(verdict["problems"])
    children = runs + ([traced] if traced else [])
    if len({digest(c["ops"]) for c in children}) != 1:
        problems.append("outputs differ between repeats run under different hash"
                        " seeds" + (" or with tracing" if traced else ""))

    attempted = sum(len(c["ops"]) for c in children)
    failed = sum(not op["ok"] for c in children for op in c["ops"])
    if trace:
        metrics = {name: metric(layers[name], layer_unit(name))
                   for name in metric_names() if name in layers}
        metrics["trace.overhead_s"] = metric(total(traced) - total(runs[0]), "s")
    else:
        metrics = {
            "wall_s": metric(phase_floor(runs), "s"),
            "setup_s": metric(statistics.median(scaled_setup(r) for r in runs), "s"),
            "peak_rss_mb": metric(statistics.median(run["rss_mb"] for run in runs), "MB"),
        }
    summary = {"correct": not problems, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (workdir / "summary.json").write_text(json.dumps(
        {"summary": summary, "problems": problems, "repeats": [
            {"hash_seed": r["hash_seed"], "rss_mb": r["rss_mb"],
             "setup_s": r["setup_end"] - r["started"],
             "phases": [[n, t1 - t0] for n, t0, t1 in r["phases"]],
             "samples": len(r["samples"]), "scaled_phases": scaled_phases(r),
             "failed": [op["name"] for op in r["ops"] if not op["ok"]]}
            for r in runs]}, indent=1) + "\n")
    return summary, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_REPEAT_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"run from a linearcat checkout; missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        summary, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
