"""Hostile set descriptions fail at parse time with exit code 2 and a readable message."""

import pytest

from poroweights import SetFormatError, from_dict, from_json
from poroweights.cli import main

CANTOR_FRACTIONAL_DEPTH = '{"kind": "cantor", "lo": 0, "hi": 1, "middle": 0.3, "depth": 2.7}'


def _nested(levels: int) -> str:
    lattice = '{"kind": "lattice", "origin": 0.0, "step": 1.0}'
    return '{"kind": "reflect", "inner": ' * levels + lattice + "}" * levels


HOSTILE = {
    "fractional-depth": (CANTOR_FRACTIONAL_DEPTH, "$.depth: expected an integer, got 2.7"),
    "infinite-origin": ('{"kind": "lattice", "origin": Infinity, "step": 1}', "Infinity is not a finite number"),
    "nan-step": ('{"kind": "lattice", "origin": 0, "step": NaN}', "NaN is not a finite number"),
    "negative-infinite-point": ('{"kind": "finite", "points": [0, -Infinity]}', "-Infinity is not a finite number"),
    "overflowing-literal": ('{"kind": "lattice", "origin": 1e400, "step": 1}', "$.origin: expected a finite number"),
    "overflowing-integer": ('{"kind": "translate", "shift": 1' + "0" * 400 + ', "inner": {"kind": "finite", "points": [0]}}',
                            "$.shift: expected a finite number"),
    "nested-sets": (_nested(200), "nest at most 64 levels deep"),
    "nested-sets-beyond-the-decoder": (_nested(5000), "nested too deeply"),
    "nested-arrays": ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_cli_exits_2_with_message(case, tmp_path, capsys):
    text, message = HOSTILE[case]
    path = tmp_path / "set.json"
    path.write_text(text)
    code = main(["analyze", "--set-file", str(path), "--out", str(tmp_path / "out"), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ")
    assert message in err
    assert "Traceback" not in err


def test_python_values_checked_too():
    with pytest.raises(SetFormatError, match="finite"):
        from_dict({"kind": "lattice", "origin": float("nan"), "step": 1.0})
    with pytest.raises(SetFormatError, match=r"points\[1\]"):
        from_dict({"kind": "finite", "points": [0.0, float("inf")]})
    with pytest.raises(SetFormatError, match="integer"):
        from_dict({"kind": "cantor", "lo": 0, "hi": 1, "middle": 0.5, "depth": True})


def test_integral_values_still_accepted():
    e = from_json('{"kind": "cantor", "lo": 0, "hi": 1, "middle": 0.5, "depth": 3.0}')
    assert e.depth == 3 and isinstance(e.depth, int)
    assert from_json(_nested(64)) is not None
