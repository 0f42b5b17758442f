"""Run every workload over ten seeds and write a results record.

    python3 perfbench/record.py [--out perfbench/results/NAME.json]

For each workload of ``BENCHMARK.json`` this runs ``run.py --trace 0`` once
per seed in ``SEEDS`` and ``run.py --trace 1`` ``TRACED_RUNS`` times on the
first seed, exactly as ``BENCHMARK.json`` states the command.  It prints every
end-to-end metric by name and unit with its median, quartiles and spread
(interquartile range over median; ``>bound`` marks a spread above the
metric's bound), the spread of the unscaled times next to it, the failure
ratio and how long a run took.  It exits 1 if any invocation failed, any run
was incorrect, or a per-layer count differed between traced runs.

The record holds the git commit, the machine and interpreter, the seeds, and
per workload the summaries of every end-to-end metric, of the unscaled
medians and reference scale factors ``run.py`` puts on stderr, and of the
run lengths, and the per-layer metrics of the first traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACED_RUNS = 2


def bench(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            *spec["command"],
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        check=False,
    )
    run_s = time.perf_counter() - start
    err = proc.stderr.decode("utf-8", "replace")
    sys.stderr.write(err)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = proc.returncode
    result["run_s"] = run_s
    raw = [line[4:] for line in err.splitlines() if line.startswith("raw {")]
    if raw:
        result["raw"] = json.loads(raw[-1])
    return result


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    ok = True
    record = {**machine(), "seeds": SEEDS, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(spec, workload, seed, seconds, 0) for seed in SEEDS]
        attempted = sum(r.get("attempted", 0) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        ok &= all(r["exit"] == 0 and r.get("correct") for r in runs)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted if attempted else 1.0,
            "run_s": summary([r["run_s"] for r in runs]),
            "metrics": {},
            "raw": {},
        }
        print(
            f"{workload}: {len(runs)} runs of {entry['run_s']['median']:.1f} s "
            f"(longest {max(entry['run_s']['values']):.1f} s), "
            f"fail_ratio {entry['fail_ratio']:.3f} ({failed}/{attempted})"
        )
        raws = [r["raw"] for r in runs if "raw" in r]
        for key in raws[0] if raws else ():
            entry["raw"][key] = summary([r[key] for r in raws])
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r.get("metrics", {})]
            if not values:
                ok = False
                continue
            s = summary(values)
            entry["metrics"][m["name"]] = {"unit": m["unit"], **s}
            flag = "  >bound" if s["spread"] > m["bound"] else ""
            unscaled = entry["raw"].get(m["name"])
            unscaled = f" (unscaled {unscaled['spread']:.3f})" if unscaled else ""
            print(
                f"  {m['name']:12s} {s['median']:10.4f} {m['unit']:3s} "
                f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}{unscaled} "
                f"(bound {m['bound']}){flag}"
            )
        traced = [bench(spec, workload, SEEDS[0], seconds, 1) for _ in range(TRACED_RUNS)]
        ok &= all(r["exit"] == 0 and r.get("correct") for r in traced)
        exact = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
        first = traced[0].get("metrics", {})
        repeats = all(
            r.get("metrics", {}).get(name) == first.get(name) for r in traced for name in exact
        )
        ok &= repeats
        entry["per_layer"] = {k: v["value"] for k, v in first.items()}
        entry["per_layer_counts_repeat"] = repeats
        entry["traced_run_s"] = [r["run_s"] for r in traced]
        print(f"  per-layer counts repeat over {len(traced)} traced runs: {repeats}")
        record["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
