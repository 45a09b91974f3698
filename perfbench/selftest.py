"""Self-test of the benchmark's checker and job limits.

    python3 perfbench/selftest.py

Runs one pass of the `bounds` workload as it is, then again with
  * one expected value corrupted,
  * one job given an argument ratslice must refuse (exit code 1),
  * one more expected value corrupted on a job marked as a known defect,
and checks that each counts as a wrong answer, that only the first two
make the run incorrect, and that a job over the address-space cap fails.
Exits 0 when every check holds.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402

SEED = 7


def _corrupt(jobs) -> None:
    jobs[0].expected["tau_interval"]["lo"] += "0"
    jobs[1].argv = ["braid-info", "--braid", "0: 1"]
    jobs[2].expected["report"]["bound_value"] = "999/1"
    jobs[2].known_defect = "self-test"


def _known_only(jobs) -> None:
    jobs[2].expected["report"]["bound_value"] = "999/1"
    jobs[2].known_defect = "self-test"


def main() -> int:
    failures = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {label}")
        if not ok:
            failures.append(label)

    clean, _ = run.run_workload("bounds", SEED, 0, False)
    expect("clean pass has no wrong answer", clean["correct"] and clean["failed"] == 0)

    bad, rows = run.run_workload("bounds", SEED, 0, False, jobs_hook=_corrupt)
    expect("corrupted, refused and known-defect jobs all count",
           bad["failed"] == clean["failed"] + 3)
    expect("a refused job counts by its exit code",
           rows[1]["exit_code"] == 1 and rows[1]["verdict"].startswith("wrong: exit code"))
    expect("an unexpected wrong answer makes the run incorrect", not bad["correct"])

    known, _ = run.run_workload("bounds", SEED, 0, False, jobs_hook=_known_only)
    expect("a known defect counts but keeps the run correct",
           known["failed"] == 1 and known["correct"])

    over = run.spawn([sys.executable, "-c", f"bytearray({run.ADDRESS_SPACE_CAP})"],
                     subprocess.DEVNULL, subprocess.DEVNULL)
    expect("a job over the address-space cap fails", over["exit_code"] != 0)

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
