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
the shared triple-window table, and the last two (a right ``analyze --sweep``
and a two-sided ``a1`` on the near-arithmetic finite set of
``data/near_arithmetic.json``) before the run index of finite point sets,
and the last four (a right ``analyze`` and a minus ``a1`` on a reflected
non-dyadic left lattice, a right ``analyze --sweep`` on the reflected
near-arithmetic set, and ``verify --suite left-propagation`` at a requested
``--sigma``/``--gamma`` pair) before the closed-form lattice summaries,
and the last four (a two-sided and a right ``analyze``, a left
``analyze --sweep`` and ``verify --suite sided-transport`` on the integers
at window (-8, 8) and the default caps, whose families repeat 14% of their
probes) before the one evaluation per distinct probe.  The two-sided
``critical-alpha`` on geometric_naturals was re-recorded (exit 0 to 1)
before the two-sided search came to require the right and the left
porosity certificates: the left sweep refutes that set.  The last three
(one-sided ``critical-alpha`` runs whose swept side is refuted on the
whole gamma grid: naturals and geometric_naturals on the minus side, the
reflected geometric_naturals on the plus side) were recorded before the
sweep came to skip the thresholds that cannot lower sigma* and to stop
once every swept side is zero.  The five ``analyze --sweep`` jobs and
``verify-equivalence-integers`` were re-recorded when ``analyze --sweep``
came to sweep the certification family (``certification_probes``) that
``critical-alpha`` and ``verify`` sweep, and the equivalence matrix to
probe each certified set at the alpha of its admissible pair: every sweep
table moves, and no exit code.  ``verify-dimension-cantor6`` was
re-recorded when ``verify`` came to run the dimension task at the right
sweep's admissible pair, as it runs the porosity suites: its bound, null
before, reads 0.9106 against the fitted 0.5050, and the exit code stays 0.
The eight fixed-pair ``analyze`` jobs, the four ``analyze --sweep`` jobs
at ``CAPS`` and the seven ``verify`` jobs of the family suites and
sided-transport were re-recorded when ``analyze`` and ``verify`` came to
build one probe family per call, ``certification_probes`` sized by
``--anchor-cap`` and ``--random-probes``, and ``certify`` stopped
reporting a doubling estimate.  ``analyze-cantor6`` went from exit 0 to 1:
``--octaves 6`` had left the old family no probe shorter than 4, and the
probe (2/3, 19/24) of the depth-6 iterate has sigma 8/27 < 1/2.
Together the jobs run
every subcommand that writes a report and every ``verify`` suite.  A change
that moves any reported figure by one ulp fails here.

To print the digests of the current tree (e.g. after an intended output
change), run ``PYTHONPATH=src python -m tests.test_golden``.

``PYTHONPATH=src python -m tests.test_golden --wide`` instead prints one
digest per job of ``WIDE``: 52 runs at the default caps and window (seed 7),
too slow for the test suite.  To compare two trees beyond the gate, save
that output on one tree and pass the file on the other:
``python -m tests.test_golden --wide before.txt`` names every job whose
line differs from the file's and then exits 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Optional

import pytest

from poroweights import Interval, certification_probes
from poroweights.cli import main
from poroweights.presets import PRESET_NAMES, preset

# the probe family's caps; --octaves sizes a1's triple ladder only
CAPS = ("--anchor-cap", "8", "--random-probes", "40", "--octaves", "6", "--seed", "3")
CANTOR6 = ("--preset", "cantor", "--cantor-depth", "6")
RANDOM = ("--preset", "random_finite", "--random-count", "24")
INTEGERS = ("--preset", "integers")
GEOMETRIC = ("--preset", "geometric_naturals")
W = ("--window", "-8", "8")
# default caps: the probe family of analyze, analyze --sweep and sided-transport holds 2,081
# probes, 1,779 distinct
INTEGERS_W = (*INTEGERS, *W)
DATA = Path(__file__).parent / "data"
# a finite set read with --set-file: a 40-point progression that a run
# re-spelled from its second point would miss, a dyadic run, a decimal
# progression that rounds into short runs, and isolated points
NEAR_ARITHMETIC = ("--set-file", str(DATA / "near_arithmetic.json"),
                   "--window", "-4", "32")
# its mirror image, and the mirror of a left lattice whose step is no dyadic
REFLECTED_NEAR_ARITHMETIC = ("--set-file", str(DATA / "reflected_near_arithmetic.json"),
                             "--window", "-32", "4")
REFLECTED_LEFT_LATTICE = ("--set-file", str(DATA / "reflected_left_lattice.json"))

JOBS = {
    "analyze-cantor6": ("analyze", *CANTOR6, *CAPS),
    "analyze-random": ("analyze", *RANDOM, *CAPS),
    "analyze-sweep-cantor6": ("analyze", *CANTOR6, *CAPS, "--sweep", "--side", "left"),
    "a1-cantor6": ("a1", *CANTOR6, *CAPS, "--alpha", "0.5", "--side", "two_sided"),
    "a1-random": ("a1", *RANDOM, *CAPS, "--alpha", "0.75"),
    "critical-alpha-cantor6": ("critical-alpha", *CANTOR6, *CAPS, "--tol", "0.125"),
    "critical-alpha-random": ("critical-alpha", *RANDOM, *CAPS, "--tol", "0.125"),
    "verify-distance-envelope-cantor6": ("verify", *CANTOR6, *CAPS, "--suite", "distance-envelope"),
    "verify-decay-cantor6": ("verify", *CANTOR6, *CAPS, "--suite", "decay"),
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
        "verify", *CANTOR6, *CAPS, "--suite", "left-propagation"),
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
    "analyze-sweep-near-arithmetic": ("analyze", *NEAR_ARITHMETIC, *CAPS, "--sweep", "--side", "right"),
    "a1-near-arithmetic": ("a1", *NEAR_ARITHMETIC, *CAPS, "--alpha", "0.5", "--side", "two_sided"),
    "analyze-right-reflected-left-lattice": ("analyze", *REFLECTED_LEFT_LATTICE, *CAPS, "--side", "right"),
    "a1-minus-reflected-left-lattice": (
        "a1", *REFLECTED_LEFT_LATTICE, *CAPS, "--side", "minus", "--alpha", "0.5"),
    "analyze-sweep-reflected-near-arithmetic": (
        "analyze", *REFLECTED_NEAR_ARITHMETIC, *CAPS, "--sweep", "--side", "right"),
    # a pair the CAPS sweep certifies, not the one verify would choose (0.703704, 0.03125)
    "verify-left-propagation-requested-cantor6": (
        "verify", *CANTOR6, *CAPS, "--suite", "left-propagation", "--sigma", "0.5", "--gamma", "0.0625"),
    "analyze-integers-default-caps": ("analyze", *INTEGERS_W),
    "analyze-right-integers-default-caps": ("analyze", *INTEGERS_W, "--side", "right"),
    "analyze-sweep-left-integers-default-caps": ("analyze", *INTEGERS_W, "--sweep", "--side", "left"),
    "verify-sided-transport-integers-default-caps": ("verify", *INTEGERS_W, "--suite", "sided-transport"),
    # every side these sweep is refuted on the whole gamma grid
    "critical-alpha-minus-naturals-refuted": (
        "critical-alpha", "--preset", "naturals", *CAPS, *W, "--side", "minus", "--tol", "0.125"),
    "critical-alpha-minus-geometric-refuted": (
        "critical-alpha", *GEOMETRIC, *CAPS, *W, "--side", "minus", "--tol", "0.125"),
    "critical-alpha-plus-reflected-geometric-refuted": (
        "critical-alpha", "--preset", "reflected_geometric_naturals", *CAPS, *W, "--side", "plus", "--tol", "0.125"),
}


def _wide_jobs() -> dict[str, tuple[str, ...]]:
    """Default caps and window, seed 7: per preset ``a1`` (two-sided at 0.5,
    minus at 0.9), ``critical-alpha`` on each side and the right-sided sweep;
    plus the two widest ``verify`` runs, and a plus ``critical-alpha`` at Cantor
    depth 12 and a plus ``a1`` at 0.9 on the default Cantor iterate."""
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
    # the integrals of a deep finite set: many windows per exponent, many exponents
    jobs["critical-alpha-plus-cantor-depth12"] = (
        "critical-alpha", "--preset", "cantor", "--seed", "7", "--side", "plus", "--cantor-depth", "12")
    jobs["a1-plus-cantor-alpha0.9"] = ("a1", "--preset", "cantor", "--seed", "7", "--alpha", "0.9")
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
    'a1-minus-reflected-left-lattice': (0, {
        'a1_report.csv': '5e6ec122b1fef66d76c72faa3ee04f61e8c0f758e4879b3a74ae734e415d960c',
        'a1_report.json': '410234acb0eb5cdf47ca0468b8c77347ef2087a3fa9611bbdb3f2a08e8cfdf79',
    }),
    'a1-near-arithmetic': (0, {
        'a1_report.csv': 'd955f11b2b8382588deb7bf63fdb7266ad5d9480d4b92d65eb9a607eb1df185f',
        'a1_report.json': '7a559b412a735f9918cce9e1424f82887ee9520f36915a88aa67b160704b4f34',
    }),
    'a1-random': (0, {
        'a1_report.csv': 'b456802847727add6d214fd15a5ab3f87a6020e80806703eb0bdeb2990c3b5c4',
        'a1_report.json': '7ef7deff9526232ef62ce107fc1a0f17084bbd037534b6e3a1916a18b2b938cd',
    }),
    'a1-two-sided-reflected-geometric': (1, {
        'a1_report.csv': '48c4c514b17125542e357ccb5c08aa1261e4d5689dbceb47f031e3feff05d168',
        'a1_report.json': '63840d3870994dc4723214ad8cfe9eba96efbdb01368769b2aa18710a1fc4352',
    }),
    'analyze-cantor6': (1, {
        'porosity_report.csv': '5075bcf2f2051b67c3abb265019485c625411e48a1818537fc70e4c30f4dd736',
        'porosity_report.json': '00cbf4c5dbbd182a579eca67cc858fd0e9ae4c8baa1583295e4b6f737caedf17',
    }),
    'analyze-integers': (0, {
        'porosity_report.csv': '896a4975e4f6bfbcdadc4d0a876d446f92c315f06f158d250ae47bde03b1b9d1',
        'porosity_report.json': '404097e5318427bc2d911b718f944aad48e005413565fc61071e8c351871f77e',
    }),
    'analyze-integers-default-caps': (0, {
        'porosity_report.csv': '296d612bd0ab263679ec5e6ec277785e86d5722564b4597695d4d3a91f8819ae',
        'porosity_report.json': 'dec206428247643fa35d0ddd3d984a459f88e362624e5e8552cebf61d7159e71',
    }),
    'analyze-left-reflected-geometric': (0, {
        'porosity_report.csv': 'd06721ff427efc7cc4c3e57659276dcae60c8451f6b345246e73fa54a824f2ae',
        'porosity_report.json': '8ea696103c4df55688b09eaf264c4e5c6c160a5a382cc087c9569dd3666d4ad6',
    }),
    'analyze-random': (1, {
        'porosity_report.csv': '1e0dc2fc14627dddcd9b6df3df7b19d7837f079b1265d76407e49888a9a94300',
        'porosity_report.json': 'a3295bf65f45b8dcb6e5e76fae61f2e85b9d5fa1b2a03eb77f9d9bbbf440564b',
    }),
    'analyze-right-geometric': (0, {
        'porosity_report.csv': '1aa3022d62e83209ae6bc2b854f6ad4f437d01b7c7124c34174d06d593f554ab',
        'porosity_report.json': '00ea87393b104b4c9c8f1df0d76cf4436c63872f2f6fc464e0efd692311652d0',
    }),
    'analyze-right-integers-default-caps': (0, {
        'porosity_report.csv': '630a7ab469b7879b647ccabf2b78b54210b00366f323fcc01d1836d203f99512',
        'porosity_report.json': '87114218ab3a57af5f804accba0ece1a4fd55cf410bcef1b48a77b475bd22f88',
    }),
    'analyze-right-reflected-left-lattice': (0, {
        'porosity_report.csv': 'f7b1bb303f9c1d8af6e5b89681a4ecf67feb2a56f65562f443ed075b5d0186c8',
        'porosity_report.json': '7a9fbbca2da64f849c2abe2a4f200d0269bd726033b49de738519bb2f3bdac40',
    }),
    'analyze-sweep-cantor6': (0, {
        'porosity_sweep.json': '8bae871a23ab17305972e0ca8648fd74bbac261145369c05643f90201fa9a396',
    }),
    'analyze-sweep-geometric': (0, {
        'porosity_sweep.json': 'dc85cbf933dc5ad5203b4e5d8effa60076a5d766b44cd34523f9dc68cc66a3bc',
    }),
    'analyze-sweep-left-integers-default-caps': (0, {
        'porosity_sweep.json': 'fb3f8033cc449ffb7fe67f52db493c12cd6f494de1cc7fc0a26e022380bd363d',
    }),
    'analyze-sweep-near-arithmetic': (0, {
        'porosity_sweep.json': '224a58cebf03f3395975d7a033c121d70639f55fa2ca1cdab919d42109c0395f',
    }),
    'analyze-sweep-reflected-near-arithmetic': (0, {
        'porosity_sweep.json': '81957ee8ffc769a8cc9d6c6e4a7d570c9d201bb10c7ed145e3b104fa630c690c',
    }),
    'critical-alpha-cantor6': (0, {
        'critical_alpha.json': 'fe7d04bdfb42b92cfbd1a457df8777ae5323e68093b2abf8cc8deb4a2f46be69',
    }),
    'critical-alpha-minus-geometric-refuted': (1, {
        'critical_alpha.json': 'cde8bfbc3ade200458ba496b0280fea05684bedf1e2d57cac58d115ae2c039f6',
    }),
    'critical-alpha-minus-naturals-refuted': (1, {
        'critical_alpha.json': 'f45f848047521f7135d1813aa2d9d780ccf8fa9b4de5ac3e056f8dc38c1bc2a6',
    }),
    'critical-alpha-minus-reflected-naturals': (0, {
        'critical_alpha.json': '05b8b27ed99993f0b14151f1401c8f0f386c98ee6ea7b10c55f80f93d1344387',
    }),
    'critical-alpha-naturals': (0, {
        'critical_alpha.json': '182ce2e35afa17f7b7252eb77079501e50346bb2eac398ac5b186f80e72d5e22',
    }),
    'critical-alpha-plus-reflected-geometric-refuted': (1, {
        'critical_alpha.json': 'f4f2594318a6a66e365a7f1fc6468aefb4766bbb363f2bb0869cf4d0fe34776c',
    }),
    'critical-alpha-random': (0, {
        'critical_alpha.json': '614c5da44f3823ecba5d033c4c145dca795341176e9f482956fd0670ce3d7709',
    }),
    'critical-alpha-two-sided-geometric': (1, {
        'critical_alpha.json': '7599ec91514a09cfd427e3a0bbaad80ee442c2601632fe225bf435156e5eab0c',
    }),
    'critical-alpha-two-sided-random': (0, {
        'critical_alpha.json': '1501f31489b61b634a09fccf80f565b027c6ea75f191994887c377b49cd09611',
    }),
    'dimension-random': (0, {
        'dimension_report.csv': 'e6c454cb0476436cb6fb74ad46eda3d21ef14c650bbcd7f08e418067a9f3c84f',
        'dimension_report.json': 'f4ae53dac1ed6e6582b8269a540320e83b1844fa21c9f04049ff1c6ea7bb74bb',
    }),
    'verify-decay-cantor6': (0, {
        'decay_measures.csv': 'ef3006603440e32e6e39cb6b8623b473dab6d92b088fc095b97526e8f9be76d3',
        'verify_decay.json': '9e12e7ace23d0364df41e2751e887b21226cde7d6807647b6cbc859a5d24c93d',
    }),
    'verify-dimension-cantor6': (0, {
        'verify_dimension.json': '8866987ce7d7ca8a193119ae28689a8408a902b00b19740d915481e65f1eae8d',
    }),
    'verify-distance-envelope-cantor6': (0, {
        'verify_distance_envelope.json': 'b4300f6474819ed9e0c2f93ddb6dd6162d020ff425ed6e9735846827ee2b3eba',
    }),
    'verify-equivalence-integers': (0, {
        'summary_matrix.csv': '89295ae3fceb64ba6e4c429b315c5fb197eee26d99b4521994bd398d3bf0f373',
        'verify_equivalence.json': '7f9520a2e447acd762c659dfba5e7d2cdd6c7bc541163648388d951fe7295ba1',
    }),
    'verify-hole-control-geometric': (0, {
        'verify_hole_control.json': 'bafbbc5adb18efa7395fa9f15659d6261a0af4a847424515c2f7126b1765ac22',
    }),
    'verify-left-propagation-cantor6': (0, {
        'verify_left_propagation.json': 'eab7e9963daefa0041e14f430a2e8524c726c781a2d63ba11b2c363f3197a126',
    }),
    'verify-left-propagation-requested-cantor6': (0, {
        'verify_left_propagation.json': 'fb49aef9b91eb70664217ef4cb92f10b191d7e6044b0810a1d895b153eba1105',
    }),
    'verify-pore-transport-geometric': (0, {
        'verify_pore_transport.json': '5f8e32e95f64e6d16e301570ab04055e04aca65d293da4651c21314b8b977841',
    }),
    'verify-sided-transport-cantor6': (0, {
        'verify_sided_transport.json': '3cfb6f656c0cb9efec65f52fd915753c9b59c3eb78983bf942470edaa0d8ac57',
    }),
    'verify-sided-transport-geometric': (0, {
        'verify_sided_transport.json': '0e894c640ca12534675d715812c4438bd9e32f9c030b586cdb6af2d94b079bd4',
    }),
    'verify-sided-transport-integers-default-caps': (0, {
        'verify_sided_transport.json': '210ca638aea89c0f08e0d738b843e79a018d86c9e1745b681e100896c035be36',
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


def test_the_default_cap_integer_families_repeat_probes():
    # (probes, distinct probes) of the one family the default-caps jobs read:
    # analyze, analyze --sweep and sided-transport build it alike
    probes = certification_probes(preset("integers"), Interval(-8.0, 8.0)).intervals()
    assert (len(probes), len({i.as_pair() for i in probes})) == (2081, 1779)


def wide(earlier: Optional[Path]) -> int:
    """Print one line per ``WIDE`` job; 1 if an earlier run's file is given and a line differs."""
    before = {}
    if earlier is not None:
        before = {line.split(" ", 1)[0]: line for line in earlier.read_text().splitlines() if line}
    differ = []
    for name, argv in WIDE.items():
        code, digests = run_job(argv)
        joined = "".join(f"{fname} {h}\n" for fname, h in digests.items())
        line = f"{name} {code} {hashlib.sha256(joined.encode()).hexdigest()}"
        print(line, flush=True)
        if earlier is not None and before.get(name) != line:
            differ.append(name)
    for name in differ:
        print(f"differs from {earlier}: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--wide"] and len(sys.argv) <= 3:
        sys.exit(wide(Path(sys.argv[2]) if len(sys.argv) == 3 else None))
    for name in sorted(JOBS):
        code, digests = run_job(JOBS[name])
        print(f"    {name!r}: ({code}, {{")
        for fname, h in digests.items():
            print(f"        {fname!r}: {h!r},")
        print("    }),")
    sys.exit(0)
