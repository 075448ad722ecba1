"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

1. Smoke: every workload's job list runs with tiny caps, in a fresh process,
   and no job raises or exits 2.
2. Tracing changes no output: `--no-timestamp` report digests of a traced
   smoke run equal those of the untraced one, job by job.
3. Restore: after a traced run no wrapper is left anywhere in the package,
   and every wrapped attribute is the original object again.
4. The traced run emits exactly the per-layer metrics of `BENCHMARK.json`.

Exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from time import monotonic

from run import OUT, ROOT, HarnessError, Runner
from workloads import WORKLOADS


def _snapshot() -> dict[str, object]:
    """Every function-like attribute of the package's modules and classes."""
    import inspect

    import tracer

    found = {}
    for mod in tracer.package_modules():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                found[f"{mod.__name__}.{attr}"] = obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, raw in vars(obj).items():
                    found[f"{mod.__name__}.{obj.__name__}.{cattr}"] = raw
    return found


def check_restore() -> list[str]:
    """Install and uninstall the tracer in this process; report what differs."""
    from child import _import_program
    from tracer import Tracer, leftover_wrappers

    _import_program()
    before = _snapshot()
    t = Tracer()
    t.install()
    wrapped = leftover_wrappers()
    t.uninstall()
    after = _snapshot()
    problems = []
    if len(wrapped) < 50:
        problems.append(f"only {len(wrapped)} bindings were wrapped")
    problems += [f"still wrapped: {name}" for name in leftover_wrappers()]
    problems += [f"not restored: {k}" for k in before if after.get(k) is not before[k]]
    return problems


def check_metric_names(traced: dict) -> list[str]:
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    emitted = set(traced["layers"]) | set(traced["query"]) | {"trace.overhead_frac"}
    return ([f"declared but not emitted: {n}" for n in sorted(declared - emitted)]
            + [f"emitted but not declared: {n}" for n in sorted(emitted - declared)])


def main() -> int:
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    for name in sorted(WORKLOADS):
        work = OUT / "selftest" / name
        work.mkdir(parents=True, exist_ok=True)
        run = Runner(name, 0, work, monotonic() + 600)
        t = monotonic()
        try:
            plain = run.rep("--smoke")
            traced = run.rep("--smoke", "--trace-file", str(work / "trace.npz"))
        except HarnessError as exc:
            problems.append(f"{name}: {exc}")
            continue
        print(f"{name}: smoke wall_s {plain['wall_s']:.2f} s untraced, {traced['wall_s']:.2f} s traced "
              f"({monotonic() - t:.1f} s with process start)")
        for k, (a, b) in enumerate(zip(plain["jobs"], traced["jobs"])):
            if a["exit"] not in (0, 1) or not all(a["verdicts"]):
                problems.append(f"{name} job {k} ({a['argv']}): exit {a['exit']} {a['detail']}")
            if a["digest"] != b["digest"]:
                problems.append(f"{name} job {k} ({a['argv']}): reports differ with tracing on")
        problems += [f"{name}: left wrapped after the traced run: {w}" for w in traced["leftover_wrappers"]]
        problems += check_metric_names(traced)
    shutil.rmtree(OUT / "selftest", ignore_errors=True)
    problems += check_restore()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
