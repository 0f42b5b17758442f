"""Record the golden stdout digest and exit code of every benchmark invocation.

    python3 perfbench/record_golden.py

Run once at the commit whose reports are the reference; it rewrites
``perfbench/golden.json``.  Every invocation any seed can draw is recorded,
so homdim gets both orientations of each label pair.
"""

from __future__ import annotations

import json
import sys

import run


def all_invocations() -> list[list[str]]:
    calls = []
    for name, make in run.WORKLOADS.items():
        if name == "homdim":
            for a, b in run.HOMDIM_PAIRS:
                for x, y in {(a, b), (b, a)}:
                    calls.append(["homdim", str(x), str(y), "--format", "json"])
        else:
            calls.extend(make(None))
    return calls


def main() -> int:
    golden = {}
    for argv in all_invocations():
        child = run.run_child([sys.executable, "-m", "qsatake.cli", *argv])
        if child.exit_code != 0:
            sys.stderr.write(f"qsatake {' '.join(argv)} exited {child.exit_code}\n{child.stderr}")
            return 1
        golden[" ".join(argv)] = {"sha256": child.sha256, "exit": child.exit_code}
        print(f"{child.sha256}  {child.exit_code}  qsatake {' '.join(argv)}")
    run.GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
