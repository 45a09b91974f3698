"""CLI-level benchmark of ratslice: one workload per run, every job a process.

    python3 perfbench/run.py --workload grid|complex|bounds|all \
        --seed N --seconds S --trace 0|1

Each job runs as `python -m ratslice.cli ...` in a fresh child process
against this checkout's src/ (via PYTHONPATH), one at a time from this
single process: a closed loop with one client, in the caller's
environment. Inputs are written from the seed; every output is checked
against an answer that does not come from ratslice.

--trace 0 repeats the job list while --seconds allow (at least once) and
reports the median pass. --trace 1 runs one plain pass and one pass
through perfbench/shim.py, and reports the per-layer metrics of the
traced pass and trace.overhead_s, the difference of the two pass times.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. `failed` counts every wrong answer or unexpected exit code
(the wrong_answers of the job list). `correct` is false when any of them
is not a known defect listed in workloads.py. Every run also writes a
record with per-job rows to perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import check, shim, workloads  # noqa: E402

SRC = ROOT / "src"
WORK = HERE / "work"
# Address-space cap of each job process (not of run.py itself): a runaway
# job fails and counts as a wrong answer instead of exhausting memory.
# The largest job, size-8 --hfk, peaks near 0.45 GB resident.
ADDRESS_SPACE_CAP = 3 << 30
JOB_TIMEOUT_S = 150
SETUP_SAMPLES = 11
REFUSED_ENV = ("RATSLICE_THREADS", "RATSLICE_GF2_BACKEND")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Refused(Exception):
    pass


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def _job_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(cmd: list[str], stdout, stderr) -> dict:
    """Run one child to completion; wall, CPU and peak RSS from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=_job_env(),
                            cwd=ROOT, preexec_fn=_cap_address_space)

    def kill(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.alarm(JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
    }


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ratslice.cli."""
    cmd = [sys.executable, "-c", "import ratslice.cli"]
    times = []
    for _ in range(SETUP_SAMPLES):
        row = spawn(cmd, subprocess.DEVNULL, subprocess.DEVNULL)
        if row["exit_code"] != 0:
            raise Refused("importing ratslice.cli failed")
        times.append(row["wall_s"])
    return statistics.median(times)


def run_pass(workload: str, jobs: list, out_dir: Path, traced: bool) -> tuple[float, list]:
    """Run the job list back to back, then check every output."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    start = time.perf_counter()
    for k, job in enumerate(jobs):
        stem = out_dir / f"{k:02d}"
        if traced:
            cmd = [sys.executable, str(HERE / "shim.py"), f"{stem}.trace.json", job.name, "--"]
        else:
            cmd = [sys.executable, "-m", "ratslice.cli"]
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            row = spawn(cmd + job.argv, out, err)
        rows.append({"workload": workload, "job": job.name, "argv": job.argv, **row})
    wall = time.perf_counter() - start
    for k, (job, row) in enumerate(zip(jobs, rows)):
        stdout = (out_dir / f"{k:02d}.out").read_text(encoding="utf-8", errors="replace")
        reason = check.verdict(job, row["exit_code"], stdout)
        row["verdict"] = "ok" if not reason else (
            f"wrong (known defect: {job.known_defect}): {reason}" if job.known_defect
            else f"wrong: {reason}")
        row["unexpected"] = bool(reason) and not job.known_defect
    return wall, rows


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _backend() -> str:
    out = subprocess.run(
        [sys.executable, "-c", "import ratslice.gf2 as g; print(g.BACKEND_NAME)"],
        env=_job_env(), cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 jobs_hook=None) -> tuple[dict, list]:
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    jobs = workloads.make_jobs(workload, seed, run_dir / "inputs")
    if jobs_hook is not None:
        jobs_hook(jobs)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "gf2_backend": _backend(), "cpu_count": os.cpu_count(),
        "address_space_cap_bytes": ADDRESS_SPACE_CAP,
        "job_timeout_s": JOB_TIMEOUT_S,
    }
    passes = []
    if trace:
        plain_wall, plain_rows = run_pass(workload, jobs, run_dir / "plain", False)
        traced_wall, traced_rows = run_pass(workload, jobs, run_dir / "traced", True)
        passes = [plain_rows, traced_rows]
        # A job killed by its timeout or memory cap leaves no trace; it
        # already counts as a wrong answer.
        trace_files = [run_dir / "traced" / f"{k:02d}.trace.json" for k in range(len(jobs))]
        traces = [json.loads(f.read_text()) for f in trace_files if f.exists()]
        values = shim.summarize(traces)
        values["trace.overhead_s"] = traced_wall - plain_wall
        units = {name: unit for name, (_, unit) in shim.METRICS.items()}
        units["trace.overhead_s"] = "s"
        metrics = {name: _metric(value, units[name]) for name, value in values.items()}
        with open(run_dir / "spans.json", "w", encoding="utf-8") as handle:
            json.dump([span for t in traces for span in t["spans"]], handle)
    else:
        setup_s = measure_setup()
        walls, cpus, rss = [], [], []
        began = time.perf_counter()
        while True:
            wall, rows = run_pass(workload, jobs, run_dir / "plain", False)
            passes.append(rows)
            walls.append(wall)
            cpus.append(sum(r["cpu_s"] for r in rows))
            rss.append(max(r["rss_mb"] for r in rows))
            # Start another pass only if a typical one still fits.
            if time.perf_counter() - began + statistics.median(walls) > seconds:
                break
        values = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": statistics.median(rss), "setup_s": setup_s}
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
        record["pass_walls_s"] = walls
    rows = [row for rows in passes for row in rows]
    result = {
        "correct": not any(r["unexpected"] for r in rows),
        "attempted": len(rows),
        "failed": sum(1 for r in rows if r["verdict"] != "ok"),
        "metrics": metrics,
    }
    record.update(result=result, jobs_per_pass=len(jobs), passes=len(passes), rows=rows)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{run_dir.name}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return result, rows


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def _print_report(workload: str, result: dict, rows: list) -> None:
    for row in rows:
        if row["verdict"] != "ok":
            print(f"{workload}: {row['job']}: {row['verdict']}")
    print(f"{workload}: wrong_answers {result['failed']} of {result['attempted']} jobs attempted")
    for name, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{workload}: {name} {value} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        set_env = [name for name in REFUSED_ENV if os.environ.get(name)]
        if set_env:
            raise Refused(f"{', '.join(set_env)} set: results must reflect the default")
        if not (SRC / "ratslice" / "cli.py").is_file():
            raise Refused(f"no ratslice source tree at {SRC}")
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result, rows = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_report(name, result, rows)
            print(json.dumps(result), flush=True)
    except (Refused, subprocess.CalledProcessError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
