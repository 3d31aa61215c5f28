"""One child process of a benchmark run.

    python3 bench/child.py job <workload> <inputs.json> [--trace <trace.json>]
    python3 bench/child.py verify <workload> <inputs.json> <results.json>

``job`` starts the speed sampler, imports the package, builds the inputs,
runs the workload's operations once and prints one JSON line: the monotonic
time at which set-up ended, the start and end of each phase, the speed
samples, and each operation's outcome.  With ``--trace`` it first wraps the
package's public functions and also writes the per-layer table to the given
file.

``verify`` runs the workload's oracles on the results of a job and prints
one JSON line with the problems found.  It is never timed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, SpeedSampler  # noqa: E402

sys.path.insert(0, str(SRC))


def job(workload: str, inputs: dict, trace_path: str | None) -> dict:
    sampler = SpeedSampler()
    sampler.start()
    from jobs import JOBS

    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = JOBS[workload](inputs)
    setup_end = time.monotonic()
    phases, outcomes = [], []
    for name, call in ops:
        t0 = time.monotonic()
        try:
            ok, result = call()
        except Exception as exc:  # a crashed operation counts as failed
            ok, result = False, {"error": f"{type(exc).__name__}: {exc}"}
        phases.append([name, t0, time.monotonic()])
        outcomes.append({"name": name, "ok": ok, "result": result})
    sampler.stop()
    if tracer is not None:
        Path(trace_path).write_text(json.dumps(
            {"workload": workload, "stats": tracer.stats,
             "metrics": tracer.table()}, indent=1, sort_keys=True) + "\n")
    return {"setup_end": setup_end, "phases": phases, "ops": outcomes,
            "samples": sampler.samples}


def main(argv: list[str]) -> int:
    mode, workload, inputs_path = argv[:3]
    inputs = json.loads(Path(inputs_path).read_text())
    if mode == "job":
        trace_path = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None
        out = job(workload, inputs, trace_path)
    elif mode == "verify":
        from oracles import ORACLES
        results = json.loads(Path(argv[3]).read_text())
        problems = ORACLES[workload](inputs, results)
        out = {"problems": problems}
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
