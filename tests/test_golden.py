"""Golden-report gate: small-cap CLI runs must write byte-identical reports.

Each job runs ``poroweights.cli.main`` in-process with ``--no-timestamp`` and
writes into a fresh directory; the SHA-256 of every report file is compared
with a digest recorded on the tree before the source change it gates: the
first nine jobs before the window-summary query engine, the next thirteen
before the porosity/sampler/maximal-average consolidation, and the last
three (right-side ``analyze``, ``critical-alpha`` on the minus and two-sided
branches) before the probe and triple tables, and the last two (a two-sided
``a1`` whose plus side diverges with witnesses while its minus side stays
bounded, and a two-sided ``critical-alpha`` on geometric_naturals) before
the shared triple-window table.  Together the jobs run
every subcommand that writes a report and every ``verify`` suite.  A change
that moves any reported figure by one ulp fails here.

To print the digests of the current tree (e.g. after an intended output
change), run ``PYTHONPATH=src python -m tests.test_golden``.

``PYTHONPATH=src python -m tests.test_golden --wide`` instead prints one
digest per job of ``WIDE``: 50 runs at the default caps and window (seed 7),
too slow for the test suite.  To compare two trees beyond the gate, run it
with ``PYTHONPATH`` set to each tree's ``src`` and diff the outputs.
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
from poroweights.presets import PRESET_NAMES

CAPS = ("--anchor-cap", "8", "--random-probes", "40", "--octaves", "6", "--seed", "3")
CANTOR6 = ("--preset", "cantor", "--cantor-depth", "6")
RANDOM = ("--preset", "random_finite", "--random-count", "24")
INTEGERS = ("--preset", "integers")
GEOMETRIC = ("--preset", "geometric_naturals")
W = ("--window", "-8", "8")

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
    "analyze-integers": ("analyze", *INTEGERS, *CAPS),
    "analyze-sweep-geometric": ("analyze", *GEOMETRIC, *CAPS, "--sweep", "--side", "right"),
    "analyze-left-reflected-geometric": (
        "analyze", "--preset", "reflected_geometric_naturals", *CAPS, "--side", "left"),
    "a1-minus-geometric": (
        "a1", *GEOMETRIC, *CAPS, "--side", "minus", "--alpha", "0.5", "--table-points", "16"),
    "critical-alpha-naturals": ("critical-alpha", "--preset", "naturals", *CAPS, *W, "--tol", "0.125"),
    "verify-sided-transport-geometric": ("verify", *GEOMETRIC, *CAPS, *W, "--suite", "sided-transport"),
    "verify-sided-transport-cantor6": ("verify", *CANTOR6, *CAPS, "--suite", "sided-transport"),
    "verify-left-propagation-cantor6": (
        "verify", *CANTOR6, *CAPS, "--suite", "left-propagation", "--gamma", "0.25"),
    "verify-hole-control-geometric": ("verify", *GEOMETRIC, *CAPS, *W, "--suite", "hole-control"),
    "verify-pore-transport-geometric": ("verify", *GEOMETRIC, *CAPS, *W, "--suite", "pore-transport"),
    "verify-dimension-cantor6": ("verify", *CANTOR6, *CAPS, "--suite", "dimension"),
    "dimension-random": ("dimension", *RANDOM, *CAPS),
    "verify-equivalence-integers": (
        "verify", *INTEGERS, *CAPS, "--window", "-2", "2", "--suite", "equivalence"),
    "analyze-right-geometric": ("analyze", *GEOMETRIC, *CAPS, *W, "--side", "right"),
    "critical-alpha-minus-reflected-naturals": (
        "critical-alpha", "--preset", "reflected_naturals", *CAPS, *W, "--side", "minus", "--tol", "0.125"),
    "critical-alpha-two-sided-random": (
        "critical-alpha", *RANDOM, *CAPS, "--side", "two_sided", "--tol", "0.125"),
    # 24 octaves: the 6 of CAPS are too few rungs for the plus ladder to diverge
    "a1-two-sided-reflected-geometric": (
        "a1", "--preset", "reflected_geometric_naturals", *CAPS, "--octaves", "24",
        "--side", "two_sided", "--alpha", "0.5", *W),
    "critical-alpha-two-sided-geometric": (
        "critical-alpha", *GEOMETRIC, *CAPS, *W, "--side", "two_sided", "--tol", "0.125"),
}


def _wide_jobs() -> dict[str, tuple[str, ...]]:
    """Default caps and window, seed 7: per preset ``a1`` (two-sided at 0.5,
    minus at 0.9), ``critical-alpha`` on each side and the right-sided sweep;
    plus the two widest ``verify`` runs."""
    jobs = {}
    for p in PRESET_NAMES:
        preset = ("--preset", p, "--seed", "7")
        jobs[f"a1-two-sided-{p}"] = ("a1", *preset, "--side", "two_sided", "--alpha", "0.5")
        jobs[f"a1-minus-{p}"] = ("a1", *preset, "--side", "minus", "--alpha", "0.9")
        for side in ("plus", "minus", "two_sided"):
            jobs[f"critical-alpha-{side}-{p}"] = ("critical-alpha", *preset, "--side", side)
        jobs[f"analyze-sweep-right-{p}"] = ("analyze", *preset, "--sweep", "--side", "right")
    jobs["verify-equivalence-integers"] = ("verify", *INTEGERS, "--seed", "7", "--suite", "equivalence")
    jobs["verify-all-geometric_naturals"] = ("verify", *GEOMETRIC, "--seed", "7", "--suite", "all")
    return jobs


WIDE = _wide_jobs()

# (exit code, {report file: sha256}) per job
GOLDEN: dict[str, tuple[int, dict[str, str]]] = {
    'a1-cantor6': (0, {
        'a1_report.csv': '5c4241cc82036515b9b318ca3e32e483f04a190aa0e7ce3023fd8802885526b3',
        'a1_report.json': 'c132ce0a28c99198f5fc83c205451227cbef12161283a00356b425c2f7e54e4d',
    }),
    'a1-minus-geometric': (0, {
        'a1_report.csv': 'b19b3d498cced7be7e28f10644e877ff97325c49a382eaf448687adba0820dc6',
        'a1_report.json': '0838529be9e751e1af21368b15e9418830d88795bd5e73015ee75089cde991b8',
        'weight_table.csv': 'ff723c75e0b75c578768e175fcb147f1758b4792047c86d77802302ff38ec6c8',
    }),
    'a1-random': (0, {
        'a1_report.csv': 'b456802847727add6d214fd15a5ab3f87a6020e80806703eb0bdeb2990c3b5c4',
        'a1_report.json': '7ef7deff9526232ef62ce107fc1a0f17084bbd037534b6e3a1916a18b2b938cd',
    }),
    'a1-two-sided-reflected-geometric': (1, {
        'a1_report.csv': '48c4c514b17125542e357ccb5c08aa1261e4d5689dbceb47f031e3feff05d168',
        'a1_report.json': '63840d3870994dc4723214ad8cfe9eba96efbdb01368769b2aa18710a1fc4352',
    }),
    'analyze-cantor6': (0, {
        'porosity_report.csv': '3e2a30741b81c189ae8be8e83b4291dbcc96068e8a919162b768db681f6baa0e',
        'porosity_report.json': '01c210512658a0f8735041b975beb09b5c2a40c78fe4a345074fd625326ac6b6',
    }),
    'analyze-integers': (0, {
        'porosity_report.csv': '5ac5726160b007deb433badcb7428e1f3588ea37e05700934038904b884778e9',
        'porosity_report.json': '6e3b9efe9aa29e087deb8eab532dc828527f9f5fec3b1bca9f4dde14d6b200a5',
    }),
    'analyze-left-reflected-geometric': (0, {
        'porosity_report.csv': '1035b8d22adae2aa606392bb614b91ef048086ab1ce26b2c5690ab2991248e55',
        'porosity_report.json': '87c3066f39d1a25554b5bae2259e69eec22c53f1e706d2d9bf96996a1a38df33',
    }),
    'analyze-random': (1, {
        'porosity_report.csv': '6c1d19e86313a52d045a39bae236fe517b8f827a093b42cc126bf0387509453c',
        'porosity_report.json': '959a7165c88f5d075eeea4772d71715cc02745cdca4e7168e532910fb97d8024',
    }),
    'analyze-right-geometric': (0, {
        'porosity_report.csv': '948569a2fb9dbc9ed9f1f614634cc61c7d8da5096750afa73f98eed1e6de8f5b',
        'porosity_report.json': 'f1783f93042b501527cb593b5a18fd212c89b3334593c6907b5c1562d8482354',
    }),
    'analyze-sweep-cantor6': (0, {
        'porosity_sweep.json': 'e10832eb275c514b1cc46e946225ccd38855fb59887a63c3cca551b583f0b62e',
    }),
    'analyze-sweep-geometric': (0, {
        'porosity_sweep.json': 'acc447716e9881648688a700cafc742bbb1c9b0f5623b96d8443fe8da8b34f9a',
    }),
    'critical-alpha-cantor6': (0, {
        'critical_alpha.json': 'fe7d04bdfb42b92cfbd1a457df8777ae5323e68093b2abf8cc8deb4a2f46be69',
    }),
    'critical-alpha-minus-reflected-naturals': (0, {
        'critical_alpha.json': '05b8b27ed99993f0b14151f1401c8f0f386c98ee6ea7b10c55f80f93d1344387',
    }),
    'critical-alpha-naturals': (0, {
        'critical_alpha.json': '182ce2e35afa17f7b7252eb77079501e50346bb2eac398ac5b186f80e72d5e22',
    }),
    'critical-alpha-random': (0, {
        'critical_alpha.json': '614c5da44f3823ecba5d033c4c145dca795341176e9f482956fd0670ce3d7709',
    }),
    'critical-alpha-two-sided-geometric': (0, {
        'critical_alpha.json': '70ace8c987ec833809bcff7671acb06bb6dba653d19b0e2140d3f359ffde476c',
    }),
    'critical-alpha-two-sided-random': (0, {
        'critical_alpha.json': '1501f31489b61b634a09fccf80f565b027c6ea75f191994887c377b49cd09611',
    }),
    'dimension-random': (0, {
        'dimension_report.csv': 'e6c454cb0476436cb6fb74ad46eda3d21ef14c650bbcd7f08e418067a9f3c84f',
        'dimension_report.json': 'f4ae53dac1ed6e6582b8269a540320e83b1844fa21c9f04049ff1c6ea7bb74bb',
    }),
    'verify-decay-cantor6': (0, {
        'decay_measures.csv': 'f1819dfd27e9a8d883a5286dbb1f290c4bbbc36d5945b1cf8c21fc67c974141b',
        'verify_decay.json': 'ba0ad48c6ed4ddadc5d9f64498110c4fc133d289d2bafdc56417b589694cfa0c',
    }),
    'verify-dimension-cantor6': (0, {
        'verify_dimension.json': 'cab6dfb4d4d566ce60b264310fcb7fc47ced3a55437d610d0ce1aa4ea5104889',
    }),
    'verify-distance-envelope-cantor6': (0, {
        'verify_distance_envelope.json': 'f3a4d145061b6ebc813ab4f00c1f9f8dbb963529fa35bd6378cedeb9c759f436',
    }),
    'verify-equivalence-integers': (0, {
        'summary_matrix.csv': 'c45188d373961cac61dc94c467b76df22aca05c4a21cb997087b69b5b2fddf7b',
        'verify_equivalence.json': '8ac825531bb1378d1ec26bab9cfd5dd07fcdea3567b78970e43b6a10b6dc4cb2',
    }),
    'verify-hole-control-geometric': (0, {
        'verify_hole_control.json': '4526f682c6e9250c374437a77a699fbab3b7a11c6fb2dd6852a4761f5a3dbd2b',
    }),
    'verify-left-propagation-cantor6': (0, {
        'verify_left_propagation.json': '4c838aa0c7e5622ecb6a66a96e42d8e4604494140ba5a07f775ef2d6ca293efc',
    }),
    'verify-pore-transport-geometric': (0, {
        'verify_pore_transport.json': '16ac22e082160f4d0de820ba29ee2bbd99a3e43cb7cdf7e1b93f1b8aa2f7ca7f',
    }),
    'verify-sided-transport-cantor6': (0, {
        'verify_sided_transport.json': 'ddb92c5d8f2d4dbda9b66458524ba1580dc98b55dff1b7ba6f37982c3cf49998',
    }),
    'verify-sided-transport-geometric': (0, {
        'verify_sided_transport.json': 'de269e22a0d5079e8d2e4fdb7ad99c6682102ca3dbf1f985ba2326c3d6942223',
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
    if sys.argv[1:] == ["--wide"]:
        for name, argv in WIDE.items():
            code, digests = run_job(argv)
            joined = "".join(f"{fname} {h}\n" for fname, h in digests.items())
            print(name, code, hashlib.sha256(joined.encode()).hexdigest(), flush=True)
        sys.exit(0)
    for name in sorted(JOBS):
        code, digests = run_job(JOBS[name])
        print(f"    {name!r}: ({code}, {{")
        for fname, h in digests.items():
            print(f"        {fname!r}: {h!r},")
        print("    }),")
    sys.exit(0)
