"""Golden-report gate: small-cap CLI runs must write byte-identical reports.

Each job runs ``poroweights.cli.main`` in-process with ``--no-timestamp`` and
writes into a fresh directory; the SHA-256 of every report file and the exit
code are compared with those recorded in ``GOLDEN``.  Together the jobs run
every subcommand that writes a report and every ``verify`` suite.  A change
that moves any reported figure by one ulp fails here.  A digest is
re-recorded only in a commit of its own, before the source change that
moves it, and CHANGES.md says which jobs moved and why.

To print the digests of the current tree (e.g. after an intended output
change), run ``python -m tests.test_golden`` from the repository root.  Run
so, the module puts ``src/`` on the path as pytest does, so
``PYTHONPATH=src`` is optional.

``python -m tests.test_golden --wide`` instead prints one
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

if __name__ == "__main__":  # as pytest's ``pythonpath = ["src"]`` does, for ``python -m tests.test_golden``
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from poroweights import Interval, certification_probes
from poroweights.cli import main
from poroweights.presets import PRESET_NAMES, preset

# the caps of the probe family and of the triple ladder of a1 and critical-alpha
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
        'critical_alpha.json': '055708d96bf3801698fc75c05f39a1b63908f915e836979e8fdbf1379584e033',
    }),
    'critical-alpha-minus-geometric-refuted': (1, {
        'critical_alpha.json': '79b1f67754a4c984b924b5aafb4af4e544a0bdef3a316dc46d11443451987d07',
    }),
    'critical-alpha-minus-naturals-refuted': (1, {
        'critical_alpha.json': '48aab7ed61b3e1066934df58effdcc87b9f622e1cecc7848ac944c8f4468b688',
    }),
    'critical-alpha-minus-reflected-naturals': (0, {
        'critical_alpha.json': '671703cd5a4434cfb2cd91b6b3d108fc957bbedffb4cfce7dcb7fa653a2de8fd',
    }),
    'critical-alpha-naturals': (0, {
        'critical_alpha.json': '47b81003b41a201259fcf53c4f86564dde1709dd108e44e49a4290f1eb0bd2f3',
    }),
    'critical-alpha-plus-reflected-geometric-refuted': (1, {
        'critical_alpha.json': '8faa2f9a6a64c44d39d6daaa74a564f389a962e1bda995cb97f2d09637428ef8',
    }),
    'critical-alpha-random': (0, {
        'critical_alpha.json': 'a289fc7c3b5cfef4a49ed06191a68d83142962bf5bbb0a543738667e85dbc0ae',
    }),
    'critical-alpha-two-sided-geometric': (1, {
        'critical_alpha.json': 'fb78926d94d37d758947b5573cfd6322b393ac6cc474dff71a1c332b6c7ef09e',
    }),
    'critical-alpha-two-sided-random': (0, {
        'critical_alpha.json': '4feaa40f7d418832abddc3af99c78e60f284a1ae09493361cc980089d9f3bee2',
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
            code = main([*argv, "--no-timestamp", "--out", str(out)])
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
