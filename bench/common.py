"""Paths, workload constants, seeded input generation and the speed sampler.

Nothing here imports ``linearcat``: the parent process uses this module too,
and its own memory and start-up stay out of the children's figures.
"""

from __future__ import annotations

import json
import random
import signal
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

MONOIDS = "models/commutative_monoids_3.json"
PTSETS = "models/pointed_sets_3.json"
PTSETS_FAULTY = "models/pointed_sets_3_faulty.json"
REQUIRED = (SRC / "linearcat" / "__init__.py", ROOT / MONOIDS, ROOT / PTSETS,
            ROOT / PTSETS_FAULTY)

# Nominal cold time of one repeat on the reference box.  A run makes
# seconds // nominal repeats, at least MIN_REPEATS, so the number of
# repeats is fixed by --seconds and never by how fast the machine happens to
# be during the run.  (Three repeats of check-ptset were no steadier than
# two, and would stretch a run to 55 s when the box is slow.)
NOMINAL_REPEAT_S = {"plin-sweep": 10.0, "check-ptset": 14.0, "laws": 8.0}
MIN_REPEATS = 2

# The speed of this kind of shared box drifts by a third and more over
# tens of milliseconds to minutes, and a job slows down together with a
# plain interpreter loop timed in the same process.  So every child samples
# the machine's speed while it works: a SIGALRM handler times a short fixed
# loop every SAMPLE_INTERVAL_S.  Each phase's time, less the handler's own
# time, is rescaled to a machine on which one sample loop takes
# REFERENCE_SAMPLE_S (about the fastest the reference box runs it), by the
# mean speed the samples inside the phase saw, raised to SPEED_ELASTICITY:
# the jobs slow down by less than the loop does (fitted on five runs of each
# workload; 0.8 was best or close to best on all three).  Times are
# reported in those reference seconds.
SAMPLE_LOOPS = 2_000
SAMPLE_INTERVAL_S = 0.025
REFERENCE_SAMPLE_S = 0.0004
SPEED_ELASTICITY = 0.8
MIN_SAMPLES = 4  # a shorter phase borrows the samples nearest to it

_SPIN_TABLE = {(i & 255, (i >> 8) & 15): 0 for i in range(4096)}


def spin() -> float:
    """Seconds one run of the sample loop takes right now."""
    table = _SPIN_TABLE
    t0 = time.perf_counter()
    for i in range(SAMPLE_LOOPS):
        k = (i & 255, (i >> 8) & 15)
        table[k] = table[k] + 1
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the sample loop on a wall-clock timer, from ``start`` on."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (monotonic start, seconds)

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.monotonic(), spin()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled_seconds(start: float, end: float, samples: list) -> float:
    """Reference seconds of the work done between two monotonic times."""
    inside = [(t, d) for t, d in samples if start <= t < end]
    busy = sum(d for _, d in inside)  # time the sampler itself took
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        inside = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
    speed = sum(REFERENCE_SAMPLE_S / d for _, d in inside) / len(inside)
    return (end - start - busy) * speed ** SPEED_ELASTICITY


# plin-sweep: criterion 3's length-0 and length-1 corpora (depth 6, objects
# of size <= 2), cut into chunks so that each chunk is one timed phase.
PLIN_DEPTH = 6
PLIN_MAX_SIZE = 2
PLIN_CORPORA = ((0, 1, 1), (1, 1, 2))  # (length, mixed stride, heavy stride)
PLIN_L2_STRIDES = (8, 16)              # criterion 3's length-2 corpus
PLIN_CHUNK = 5                         # deduplicated pairs per phase
PLIN_POOL = 24                         # length-2 pairs the sample draws from
PLIN_SAMPLE = 2                        # length-2 pairs per run, one per stratum
PLIN_ORACLE_DEPTH = 3
PLIN_ORACLE_CASES = 4                  # length-1 pairs; every sampled pair too


def hash_seeds(workload: str, seed: int, count: int) -> list[int]:
    """PYTHONHASHSEED for each child of a run, derived from the run seed."""
    rng = random.Random(f"{workload}/hash/{seed}")
    return [rng.randrange(1, 2 ** 32 - 1) for _ in range(count)]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def plin_pool(candidates: list[dict]) -> list[dict]:
    """The PLIN_POOL candidates whose flood-state counts lie nearest the
    median, ordered by flood states."""
    ranked = sorted(candidates, key=lambda p: (p["flood_states"], p["index"]))
    lo = (len(ranked) - PLIN_POOL) // 2
    return ranked[lo:lo + PLIN_POOL]


def plin_sample(seed: int, candidates: list[dict]) -> list[dict]:
    """One pool pair from each of PLIN_SAMPLE strata of equal size, in
    corpus order."""
    rng = random.Random(f"plin-sweep/{seed}")
    pool = plin_pool(candidates)
    size = len(pool) // PLIN_SAMPLE
    picks = [rng.choice(pool[k * size:(k + 1) * size]) for k in range(PLIN_SAMPLE)]
    return sorted(picks, key=lambda p: p["index"])


# check-ptset: one seeded single-table corruption per structure family.
# The sum and the product family each take one unitor and one associator
# candidate list; every run corrupts a unitor in one of them and an
# associator in the other (which one is seeded), so both kinds are covered
# across seeds while each run does the same amount of work.  The corrupted
# graph is the zero map (everything to the basepoint), which is never a
# bijection.  Every candidate sits at objects the coherence sweeps use (sizes
# <= 2), and with the zero map the identity-matrix sweep fails at n = 2 for
# each of them, so every corrupted check exits its sweeps early.  (A graph
# such as [0, 1, 2, 1] for assoc_prod at (P2, P1, P2) passes that sweep and
# makes the check twice as long.)
FAMILIES = {
    "sum": {
        "unitor": [(t, ("P2",)) for t in ("lunit_sum", "runit_sum",
                                          "lunit_sum_inv", "runit_sum_inv")],
        "assoc": [(t, objs) for t in ("assoc_sum", "assoc_sum_inv")
                  for objs in (("P2", "P2", "P1"), ("P2", "P1", "P2"),
                               ("P1", "P2", "P2"))],
    },
    "prod": {
        "unitor": [(t, ("P2",)) for t in ("lunit_prod", "runit_prod",
                                          "lunit_prod_inv", "runit_prod_inv")],
        "assoc": [(t, objs) for t in ("assoc_prod", "assoc_prod_inv")
                  for objs in (("P2", "P2", "P1"), ("P2", "P1", "P2"),
                               ("P1", "P2", "P2"))],
    },
    "i": {"i": [("i", ("P2", "P1")), ("i", ("P1", "P2"))]},
}
# Laws whose name starts with one of these prefixes belong to the family.
FAMILY_LAWS = {"sum": ("sum/",), "prod": ("prod/",), "i": ("i-",)}

# Inputs the CLI must reject with exit 2 and today does not.  They do not
# depend on the seed: each fails on every run, so the failed share is fixed.
MALFORMED = (
    ("malformed-out-of-range", [0, 7]),
    ("malformed-negative", [0, -1]),
)


def _domain_size(table: str, objects: tuple[str, ...]) -> int:
    """Size of the domain of a pointed-set structure component."""
    sizes = [int(name[1:]) for name in objects]
    if table == "i" or table.startswith("assoc_sum"):
        return sum(sizes) - len(sizes) + 1  # a wedge
    if table.startswith("assoc_prod"):
        return sizes[0] * sizes[1] * sizes[2]
    return sizes[0]  # a unitor's domain is as large as its object


def check_documents(seed: int, workdir: Path) -> list[dict]:
    """The check-ptset inputs, in the order one repeat checks them.

    Writes the generated model documents under ``workdir``; the bundled
    ones are read in place.  Paths are relative to the repository root.
    """
    rng = random.Random(f"check-ptset/{seed}")
    base = json.loads((ROOT / PTSETS).read_text())
    docs = [{"name": "pointed_sets_3", "path": PTSETS, "expect": 0},
            {"name": "pointed_sets_3_faulty", "path": PTSETS_FAULTY,
             "expect": 1, "family": "sum"}]
    generated = []
    kinds = ["unitor", "assoc"]
    rng.shuffle(kinds)
    picks = {"sum": kinds[0], "prod": kinds[1], "i": "i"}
    for family, by_kind in FAMILIES.items():
        table, objects = rng.choice(by_kind[picks[family]])
        graph = [0] * _domain_size(table, objects)
        generated.append((f"corrupt-{family}", family, table, objects, graph))
    for name, graph in MALFORMED:
        generated.append((name, None, "lunit_sum", ("P2",), graph))
    workdir.mkdir(parents=True, exist_ok=True)
    for name, family, table, objects, graph in generated:
        doc = dict(base, overrides=[
            {"table": table, "objects": list(objects), "graph": graph}])
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        entry = {"name": name, "path": str(path.relative_to(ROOT)),
                 "table": table, "objects": list(objects), "graph": graph}
        if family is None:
            entry["expect"] = 2
        else:
            entry.update(expect=1, family=family)
        docs.append(entry)
    return docs
