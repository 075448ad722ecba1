"""Golden-report gate: small-cap CLI runs must write byte-identical reports.

Each job runs ``poroweights.cli.main`` in-process with ``--no-timestamp`` and
writes into a fresh directory; the SHA-256 of every report file is compared
with the digest recorded before the window-summary query engine landed.  A
change that moves any reported figure by one ulp fails here.

To print the digests of the current tree (e.g. after an intended output
change), run ``PYTHONPATH=src python -m tests.test_golden``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from poroweights.cli import main

CAPS = ("--anchor-cap", "8", "--random-probes", "40", "--octaves", "6", "--seed", "3")
CANTOR6 = ("--preset", "cantor", "--cantor-depth", "6")
RANDOM = ("--preset", "random_finite", "--random-count", "24")

JOBS = {
    "analyze-cantor6": ("analyze", *CANTOR6, *CAPS),
    "analyze-random": ("analyze", *RANDOM, *CAPS),
    "analyze-sweep-cantor6": ("analyze", *CANTOR6, *CAPS, "--sweep", "--side", "left"),
    "a1-cantor6": ("a1", *CANTOR6, *CAPS, "--alpha", "0.5", "--side", "two_sided"),
    "a1-random": ("a1", *RANDOM, *CAPS, "--alpha", "0.75"),
    "critical-alpha-cantor6": ("critical-alpha", *CANTOR6, *CAPS, "--tol", "0.125"),
    "critical-alpha-random": ("critical-alpha", *RANDOM, *CAPS, "--tol", "0.125"),
    "verify-distance-envelope-cantor6": ("verify", *CANTOR6, *CAPS, "--suite", "distance-envelope"),
    "verify-decay-cantor6": ("verify", *CANTOR6, *CAPS, "--suite", "decay", "--gamma", "0.25"),
}

# (exit code, {report file: sha256}) per job
GOLDEN: dict[str, tuple[int, dict[str, str]]] = {
    'a1-cantor6': (0, {
        'a1_report.csv': '5c4241cc82036515b9b318ca3e32e483f04a190aa0e7ce3023fd8802885526b3',
        'a1_report.json': 'c132ce0a28c99198f5fc83c205451227cbef12161283a00356b425c2f7e54e4d',
    }),
    'a1-random': (0, {
        'a1_report.csv': 'b456802847727add6d214fd15a5ab3f87a6020e80806703eb0bdeb2990c3b5c4',
        'a1_report.json': '7ef7deff9526232ef62ce107fc1a0f17084bbd037534b6e3a1916a18b2b938cd',
    }),
    'analyze-cantor6': (0, {
        'porosity_report.csv': '3e2a30741b81c189ae8be8e83b4291dbcc96068e8a919162b768db681f6baa0e',
        'porosity_report.json': '01c210512658a0f8735041b975beb09b5c2a40c78fe4a345074fd625326ac6b6',
    }),
    'analyze-random': (1, {
        'porosity_report.csv': '6c1d19e86313a52d045a39bae236fe517b8f827a093b42cc126bf0387509453c',
        'porosity_report.json': '959a7165c88f5d075eeea4772d71715cc02745cdca4e7168e532910fb97d8024',
    }),
    'analyze-sweep-cantor6': (0, {
        'porosity_sweep.json': 'e10832eb275c514b1cc46e946225ccd38855fb59887a63c3cca551b583f0b62e',
    }),
    'critical-alpha-cantor6': (0, {
        'critical_alpha.json': 'fe7d04bdfb42b92cfbd1a457df8777ae5323e68093b2abf8cc8deb4a2f46be69',
    }),
    'critical-alpha-random': (0, {
        'critical_alpha.json': '614c5da44f3823ecba5d033c4c145dca795341176e9f482956fd0670ce3d7709',
    }),
    'verify-decay-cantor6': (0, {
        'decay_measures.csv': 'f1819dfd27e9a8d883a5286dbb1f290c4bbbc36d5945b1cf8c21fc67c974141b',
        'verify_decay.json': 'ba0ad48c6ed4ddadc5d9f64498110c4fc133d289d2bafdc56417b589694cfa0c',
    }),
    'verify-distance-envelope-cantor6': (0, {
        'verify_distance_envelope.json': 'f3a4d145061b6ebc813ab4f00c1f9f8dbb963529fa35bd6378cedeb9c759f436',
    }),
}


def run_job(argv: tuple[str, ...]) -> tuple[int, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--no-timestamp", "--workers", "1", "--out", str(out)])
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
    return code, digests


@pytest.mark.parametrize("job", sorted(JOBS))
def test_report_bytes_match_golden(job):
    assert run_job(JOBS[job]) == GOLDEN[job]


if __name__ == "__main__":
    for name in sorted(JOBS):
        code, digests = run_job(JOBS[name])
        print(f"    {name!r}: ({code}, {{")
        for fname, h in digests.items():
            print(f"        {fname!r}: {h!r},")
        print("    }),")
    sys.exit(0)
