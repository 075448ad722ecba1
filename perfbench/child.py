"""One fresh benchmark process: a set-up probe or one workload repetition.

    python3 perfbench/child.py setup --workload W --seed N --result FILE
    python3 perfbench/child.py rep --workload W --seed N --out DIR --result FILE
        [--trace-file FILE] [--smoke]

A traced repetition also runs the per-query microbenchmarks, untraced, after
every wrapper has been removed again.

`run.py` starts one of these per measurement, so the `_cantor_endpoints`
cache and other warm state never carry over, as for a real CLI user.  The
result goes to FILE as JSON; the process exits non-zero only when the
program under test cannot be imported or the harness itself breaks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, SetupSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE_PERIOD_S = 0.02
REFERENCE_PROBE_S = 100e-6  # probe duration that defines the reference speed


def _probe_work() -> int:
    """Fixed work like the program's: allocation, calls, sorting, dict updates."""
    xs = [((i * 7919) % 1009) * 0.001 for i in range(100)]
    xs.sort()
    counts: dict[float, int] = {}
    for a, b in zip(xs, xs[1:]):
        gap = round(b - a, 3)
        counts[gap] = counts.get(gap, 0) + 1
    return len(counts)


class SpeedProbe:
    """Samples the machine's speed while the program runs.

    Shared machines change speed by up to about twofold within seconds, and
    process CPU time follows wall time, so it does not show that.  Every
    20 ms a timer signal runs a fixed piece of pure-Python work twice (about
    0.1 ms each, so 1% of the time) and records the duration of the second
    pass, whose caches the first pass has warmed; timing the cold pass
    instead overstates the slowdown the program sees.  `factor` is the
    reference duration times the mean of 1/duration: the machine's speed
    over the window relative to the reference speed, averaged over time.
    A measured time times `factor` is the time at the reference speed.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self._tick()  # at least one sample, whatever the window's length
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_signal_args) -> None:
        _probe_work()
        t = perf_counter()
        _probe_work()
        self.samples.append(perf_counter() - t)

    @property
    def factor(self) -> float:
        return REFERENCE_PROBE_S * sum(1.0 / s for s in self.samples) / len(self.samples)


def _import_program():
    """Import the CLI from this checkout's `src/`, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import poroweights.cli

    if not Path(poroweights.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"poroweights resolved outside {SRC}")
    return poroweights.cli


def run_setup(workload: str, seed: int) -> dict:
    """Cold import plus the workload's presets and probe families."""
    wl = WORKLOADS[workload]
    with SpeedProbe() as speed:
        t0 = perf_counter()
        _import_program()
        from poroweights import presets
        from poroweights.intervals import Interval
        from poroweights.muckenhoupt import TripleFamily
        from poroweights.porosity import ProbeFamily, certification_probes

        sets = [(presets.preset(s.preset, cantor_depth=s.cantor_depth, seed=seed), s) for s in wl.setup]
        if wl.catalog:
            sets += [(e, SetupSpec(name)) for name, e in presets.catalog(seed=seed, cantor_depth=8)]
        for e, spec in sets:
            window = Interval(*spec.window)
            ProbeFamily.default(e, window, anchor_cap=spec.anchor_cap, random_count=spec.random_probes, seed=seed)
            certification_probes(e, window, seed=seed)
            TripleFamily.default(e, window)
        setup = perf_counter() - t0
    return {"setup_s": setup, "speed": speed.factor}


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out_dir.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _call(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI job in-process: (exit code, error, first stdout line)."""
    out = io.StringIO()
    error = ""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raised job is a failed verdict, not a harness failure
        rc, error = 2, traceback.format_exc(limit=3).strip().splitlines()[-1]
    first = out.getvalue().strip().splitlines()
    return rc, error, first[0] if first else ""


def _verdicts(job, rc: int, error: str, out_dir: Path, smoke: bool) -> tuple[list[bool], bool, str]:
    """(one ok-flag per verdict, failure matches the seed's known defect, detail)."""
    if error or rc == 2:
        return [False] * job.verdicts, False, error or "exit 2"
    if smoke:
        return [True] * job.verdicts, False, ""
    try:
        body = json.loads((out_dir / job.report).read_text())["body"]
        oks = job.check(body)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [False] * job.verdicts, False, f"report unreadable: {exc!r}"
    if len(oks) != job.verdicts or rc != job.exit_code:
        oks = [False] * job.verdicts
    known = not all(oks) and job.seed_defect is not None and bool(job.seed_defect(rc, body))
    return oks, known, "" if all(oks) else f"exit {rc}, expected {job.exit_code}: {job.why}"


def run_rep(workload: str, seed: int, out: Path, trace_file: str | None, smoke: bool) -> dict:
    cli = _import_program()
    wl = WORKLOADS[workload]
    tracer = None
    if trace_file:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runs = []
    with SpeedProbe() as speed:
        t_first = perf_counter()
        for k, job in enumerate(wl.jobs):
            job_dir = out / f"job{k}"
            if tracer:
                tracer.begin_job(k)
            t0 = perf_counter()
            try:
                rc, error, first = _call(cli, job.args(seed, smoke) + ["--out", str(job_dir)])
            finally:
                if tracer:
                    tracer.end_job()
            runs.append((job, job_dir, rc, error, first, perf_counter() - t0))
        wall = perf_counter() - t_first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result: dict = {"wall_s": wall, "speed": speed.factor, "peak_rss_mb": peak_rss_mb, "jobs": []}
    if tracer:
        from tracer import SpanTable, layer_metrics, leftover_wrappers
        tracer.uninstall()
        result["leftover_wrappers"] = leftover_wrappers()
        table = SpanTable(tracer.names, tracer.spans())
        result["layers"] = layer_metrics(table, tracer.intervals_created)
        result["spans"] = len(table.dur)
        tracer.save(trace_file)
        del tracer, table
    for job, job_dir, rc, error, first, seconds in runs:
        oks, known, detail = _verdicts(job, rc, error, job_dir, smoke)
        result["jobs"].append({
            "argv": job.argv, "exit": rc, "seconds": seconds, "stdout": first,
            "digest": _digest(job_dir) if job_dir.is_dir() else "", "verdicts": oks,
            "known_defect": known, "detail": detail,
        })
    if trace_file:
        import microbench
        result["query"], result["query_samples"] = microbench.run(seed)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("setup", "rep"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--trace-file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        result = run_setup(args.workload, args.seed)
    else:
        result = run_rep(args.workload, args.seed, args.out, args.trace_file, args.smoke)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
