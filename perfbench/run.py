"""Benchmark of the `poroweights` CLI: one workload per call.

    python3 perfbench/run.py --workload {lattice,cantor,suites} --seed N \\
        --seconds S --trace {0,1}

With `--trace 0` it times the workload's job list end to end: whole
repetitions of the job list run back to back, each in a fresh process, for
at most S seconds (at least one), and set-up is probed in fresh processes
before and after them.  It prints `wall_s`, `setup_s` and `peak_rss_mb` as
medians.

With `--trace 1` it runs one untraced and one traced repetition, then the
per-query microbenchmarks, and prints the per-layer metrics and the tracing
overhead.

Every verdict is checked against its expectation (see `workloads.py`), and
report digests must agree between repetitions, between traced and untraced
runs, and with earlier runs of the same source tree and seed.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Scratch files go to `.perfbench_out/`
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 10
DEADLINE_S = 170.0  # every run ends well inside 180 s, or fails without a result


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    """Environment of the measured processes: one worker and one thread each."""
    env = {k: v for k, v in os.environ.items() if k != "POROWEIGHTS_WORKERS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


class Runner:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload, self.seed, self.work, self.deadline = workload, seed, work, deadline
        self.count = 0

    def __call__(self, mode: str, *extra: str) -> dict:
        self.count += 1
        result = self.work / f"{mode}{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", self.workload,
               "--seed", str(self.seed), "--result", str(result), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{mode} process passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0:
            raise HarnessError(f"{mode} process exited {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(result.read_text())

    def rep(self, *extra: str) -> dict:
        out = self.work / f"rep{self.count + 1}"
        res = self("rep", "--out", str(out), *extra)
        shutil.rmtree(out, ignore_errors=True)
        return res


def source_hash() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Verdicts:
    """Tallies verdicts over repetitions and checks report digests."""

    def __init__(self, workload: str, seed: int):
        self.jobs = WORKLOADS[workload].jobs
        self.key = f"{workload}/{seed}"
        self.attempted = self.failed = self.known = 0
        self.notes: list[str] = []
        self.harness_problems: list[str] = []
        self.reps: list[list[dict]] = []

    def add(self, rep: dict, label: str) -> None:
        self.reps.append([dict(j, label=label) for j in rep["jobs"]])

    def _mismatch(self, k: int, want: str, why: str) -> None:
        for rep in self.reps:
            rep[k]["digest_ok"] = rep[k]["digest_ok"] and rep[k]["digest"] == want
            if rep[k]["digest"] != want:
                self.notes.append(f"job {k} ({rep[k]['label']}): report digest differs {why}")

    def tally(self, digests_file: Path) -> None:
        """Compare digests within the run and with earlier runs, then count."""
        for rep in self.reps:
            for j in rep:
                j["digest_ok"] = True
        stored = json.loads(digests_file.read_text()) if digests_file.exists() else {}
        tree = stored.setdefault(source_hash(), {})
        for k in range(len(self.jobs)):
            first = self.reps[0][k]["digest"]
            self._mismatch(k, first, "between runs in this process tree")
            earlier = tree.get(f"{self.key}/{k}")
            if earlier is not None:
                self._mismatch(k, earlier, "from an earlier run of the same source and seed")
            tree[f"{self.key}/{k}"] = first
        tmp = digests_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        tmp.replace(digests_file)
        for rep in self.reps:
            for j in rep:
                oks = j["verdicts"] if j["digest_ok"] else [False] * len(j["verdicts"])
                bad = oks.count(False)
                self.attempted += len(oks)
                self.failed += bad
                if j["digest_ok"] and j["known_defect"]:
                    self.known += bad

    @property
    def correct(self) -> bool:
        """True when every failed verdict is the seed's known defect."""
        return self.failed == self.known and not self.harness_problems

    def lines(self) -> list[str]:
        out = []
        for k, job in enumerate(self.jobs):
            runs = [rep[k] for rep in self.reps]
            secs = ", ".join(f"{j['seconds']:.3f}" for j in runs)
            state = "ok" if all(all(j["verdicts"]) and j["digest_ok"] for j in runs) else "FAILED"
            if state == "FAILED" and all(j["known_defect"] for j in runs):
                state = "FAILED (known seed defect)"
            out.append(f"job {k}: {job.argv} | exit {runs[0]['exit']} | {state} | s: {secs}"
                       f" | digest {runs[0]['digest'][:16]}")
            if state != "ok":
                out.append(f"  {runs[0]['detail'] or runs[0]['stdout']}")
        return out + self.notes + self.harness_problems


def measure(run: Runner, verdicts: Verdicts, seconds: float) -> dict[str, tuple[float, str]]:
    # half the set-up probes before the repetitions and half after, so that
    # they sample the machine at two moments rather than one
    setup = [run("setup") for _ in range(SETUP_PROBES // 2)]
    reps, durations = [], []
    t0 = monotonic()
    while True:
        t = monotonic()
        rep = run.rep()
        durations.append(monotonic() - t)
        verdicts.add(rep, f"rep {len(reps)}")
        reps.append(rep)
        if monotonic() - t0 + statistics.median(durations) > seconds:
            break
    setup += [run("setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    print("repetitions: " + "; ".join(f"{r['wall_s']:.4f} s measured x {r['speed']:.4f} speed" for r in reps))
    print("setup probes: " + "; ".join(f"{p['setup_s']:.4f} s x {p['speed']:.4f}" for p in setup))
    return {
        "wall_s": (statistics.median(r["wall_s"] * r["speed"] for r in reps), "s"),
        "setup_s": (statistics.median(p["setup_s"] * p["speed"] for p in setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def traced(run: Runner, verdicts: Verdicts, workload: str) -> dict[str, tuple[float, str]]:
    plain = run.rep()
    verdicts.add(plain, "untraced")
    trace_file = OUT / f"trace-{workload}.npz"
    rep = run.rep("--trace-file", str(trace_file))
    verdicts.add(rep, "traced")
    if rep["leftover_wrappers"]:
        verdicts.harness_problems.append(f"wrappers left after the traced run: {rep['leftover_wrappers']}")
    metrics = {k: tuple(v) for k, v in rep["layers"].items()}
    metrics.update({k: tuple(v) for k, v in rep["query"].items()})
    metrics["trace.overhead_frac"] = (rep["wall_s"] * rep["speed"] / (plain["wall_s"] * plain["speed"]) - 1.0, "ratio")
    print(f"untraced {plain['wall_s']:.4f} s x {plain['speed']:.4f} speed; "
          f"traced {rep['wall_s']:.4f} s x {rep['speed']:.4f} speed; "
          f"{rep['spans']} spans written to {trace_file.relative_to(ROOT)}")
    print("microbench samples: " + ", ".join(f"{k} n={n}" for k, n in rep["query_samples"].items()))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run exits through subprocess.run, which kills and waits for the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = monotonic() + DEADLINE_S
    if not (SRC / "poroweights" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} cpus={os.cpu_count()} "
          f"python={sys.version.split()[0]} load_before={load_before[0]:.2f},{load_before[1]:.2f},{load_before[2]:.2f}")
    run = Runner(args.workload, args.seed, work, deadline)
    verdicts = Verdicts(args.workload, args.seed)
    try:
        if args.trace:
            metrics = traced(run, verdicts, args.workload)
        else:
            metrics = measure(run, verdicts, args.seconds)
        verdicts.tally(OUT / "digests.json")
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()
    for line in verdicts.lines():
        print(line)
    print(f"load_after={load_after[0]:.2f},{load_after[1]:.2f},{load_after[2]:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    frac = verdicts.failed / verdicts.attempted
    print(f"failed_frac {frac:.6g} ratio ({verdicts.failed}/{verdicts.attempted} verdicts, "
          f"{verdicts.known} from known seed defects)")
    print(json.dumps({
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
