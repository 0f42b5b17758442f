"""qsatake benchmark: cold-process CLI workloads with digest-checked reports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src`` as
is, so there is nothing to build.  Every invocation of ``python -m
qsatake.cli`` runs in a fresh interpreter, one at a time, because a user of
the CLI pays the cold-cache cost on every run.  Children get an environment
holding only ``PATH`` and ``PYTHONPATH``.

Each invocation's stdout sha256 and exit code must match ``golden.json``,
recorded at the seed commit; a mismatch counts as a failed invocation and
makes this command exit 1.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``.  A cluster
  is a run of pairs of a ``reference.py`` sample and a setup sample, one pair
  per two seconds of the last pass (at least ``MIN_PAIRS``).  The run opens
  with a cluster, then repeats a pass over the workload's invocations
  followed by a cluster, for as long as the next pass and cluster are
  expected to end within ``--seconds`` of the start (and at least
  ``MIN_PASSES`` times).  Each metric is the median over passes, and
  ``setup_s`` the median over setup samples.  Times are rescaled to a host
  that runs the reference program in ``REFERENCE_S`` seconds: the speed of a
  shared host drifts by tens of percent within an hour, and the reference,
  sampled around every pass, moves with it.  The raw medians and the scale
  factors go to stderr as one line, ``raw`` followed by a JSON object.
* ``--trace 1``: the per-layer metrics.  ``TRACE_PAIRS`` times, one untraced
  pass is followed by one pass run under ``traced.py``; each metric is the
  median over the traced passes, and ``trace.overhead_s`` the median of the
  traced minus the untraced wall time of each pair.  ``--seconds`` is not
  used.

Exit codes: 0 all invocations correct, 1 some invocation failed, 2 the
checkout cannot run the package (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from traced import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN_FILE = HERE / "golden.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

MIN_PASSES = 3
MIN_PAIRS = 3
TRACE_PAIRS = 3
REFERENCE_S = 0.1

# homdim draws one orientation of each unordered pair of even labels in
# 18..24 at distance <= 2.  Both orientations solve a system of the same
# size, so the seed changes the queries but hardly the work of a pass.
HOMDIM_PAIRS = ((18, 18), (18, 20), (20, 20), (20, 22), (22, 22), (22, 24), (24, 24))


def _homdim(rng: random.Random) -> list[list[str]]:
    calls = []
    for a, b in HOMDIM_PAIRS:
        if rng.random() < 0.5:
            a, b = b, a
        calls.append(["homdim", str(a), str(b), "--format", "json"])
    return calls


WORKLOADS = {
    "zigzag": lambda rng: [["verify", "zigzag", "--max", "8"]],
    "frobenius": lambda rng: [["verify", "frobenius", "--max", "9", "--format", "json"]],
    "homdim": _homdim,
    "combinatorics": lambda rng: [
        ["verify", "relations", "--max", "12"],
        ["verify", "clebsch-gordan", "--max", "40", "--force", "--format", "json"],
        ["verify", "bgg", "--max", "40", "--force", "--format", "json"],
    ],
}


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI argument lists for this seed, in the order run.

    Each invocation runs in its own process, so the seeded order changes no
    result.
    """
    rng = random.Random(seed)
    calls = WORKLOADS[workload](rng)
    rng.shuffle(calls)
    return calls


def child_env() -> dict[str, str]:
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC)}


@dataclass
class Child:
    exit_code: int
    sha256: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def work_dir() -> Path:
    """Scratch space for child stderr and span dumps, inside the checkout."""
    WORK.mkdir(exist_ok=True)
    return WORK


def run_child(cmd: list[str]) -> Child:
    """Run one process to completion and take its resource usage from wait4."""
    with tempfile.TemporaryFile(dir=work_dir()) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(
        proc.returncode,
        hashlib.sha256(out).hexdigest(),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        stderr,
    )


def is_failure(child: Child, argv: list[str], golden: dict) -> bool:
    """A nonzero exit or a report that differs from the golden one fails."""
    want = golden.get(" ".join(argv))
    return (
        child.exit_code != 0
        or want is None
        or child.exit_code != want["exit"]
        or child.sha256 != want["sha256"]
    )


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failed: list[str] = field(default_factory=list)
    dumps: list[dict] = field(default_factory=list)


def run_pass(calls: list[list[str]], golden: dict, traced: bool = False) -> Pass:
    """Run every invocation once, in order, one process at a time."""
    children, failed, dumps = [], [], []
    start = time.perf_counter()
    for argv in calls:
        if traced:
            fd, spans_file = tempfile.mkstemp(dir=work_dir(), suffix=".json")
            os.close(fd)
            try:
                child = run_child([sys.executable, str(HERE / "traced.py"), spans_file, *argv])
                if child.exit_code == 0:
                    with open(spans_file, encoding="utf-8") as fh:
                        dumps.append(json.load(fh))
            finally:
                os.unlink(spans_file)
        else:
            child = run_child([sys.executable, "-m", "qsatake.cli", *argv])
        children.append(child)
        if is_failure(child, argv, golden):
            failed.append(" ".join(argv))
            sys.stderr.write(f"FAILED: qsatake {' '.join(argv)} (exit {child.exit_code})\n")
            sys.stderr.write(child.stderr[-2000:])
    wall = time.perf_counter() - start
    return Pass(
        wall,
        sum(c.cpu_s for c in children),
        max(c.rss_mb for c in children),
        failed,
        dumps,
    )


def setup_s() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    child = run_child([sys.executable, "-c", "import qsatake.cli"])
    if child.exit_code != 0:
        raise RuntimeError(f"cannot import qsatake.cli from {SRC}:\n{child.stderr}")
    return child.wall_s


def measure(calls, golden, seconds: float) -> tuple[dict, list[Pass]]:
    clusters, setup, passes = [], [], []

    def sample_cluster(pairs: int) -> None:
        refs = []
        for _ in range(pairs):
            refs.append(run_child([sys.executable, str(HERE / "reference.py")]))
            setup.append(setup_s())
        clusters.append(refs)

    start = time.perf_counter()
    sample_cluster(MIN_PAIRS)
    while True:
        passes.append(run_pass(calls, golden))
        sample_cluster(max(MIN_PAIRS, round(passes[-1].wall_s / 2)))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    med = statistics.median
    refs = [r for c in clusters for r in c]
    raw = {
        "wall_s": med(p.wall_s for p in passes),
        "cpu_s": med(p.cpu_s for p in passes),
        "setup_s": med(setup),
        "wall_scale": REFERENCE_S / med(r.wall_s for r in refs),
        "cpu_scale": REFERENCE_S / med(r.cpu_s for r in refs),
    }
    sys.stderr.write("raw " + json.dumps(raw) + "\n")
    wall_scale, cpu_scale = raw["wall_scale"], raw["cpu_scale"]
    values = {
        "wall_s": raw["wall_s"] * wall_scale,
        "cpu_s": raw["cpu_s"] * cpu_scale,
        "peak_rss_mb": med(p.peak_rss_mb for p in passes),
        "setup_s": raw["setup_s"] * wall_scale,
    }
    return values, passes


def measure_traced(calls, golden) -> tuple[dict, list[Pass]]:
    """Alternate untraced and traced passes; per-layer metrics are medians."""
    setup_s()
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_pass(calls, golden))
        traced.append(run_pass(calls, golden, traced=True))
    values = {}
    if not any(t.failed for t in traced):
        layers = [layer_metrics(t.dumps) for t in traced]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(
        t.wall_s - p.wall_s for p, t in zip(plain, traced)
    )
    return values, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsatake" / "cli.py").is_file():
        sys.stderr.write(f"error: no qsatake package under {SRC}\n")
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    calls = invocations(args.workload, args.seed)
    try:
        if args.trace:
            values, passes = measure_traced(calls, golden)
        else:
            values, passes = measure(calls, golden, args.seconds)
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    attempted = sum(len(calls) for _ in passes)
    failed = sum(len(p.failed) for p in passes)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    sys.stderr.write(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, "
        f"fail_ratio={failed / attempted:.3f} ({failed}/{attempted})\n"
    )
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
