"""The command-line front end: exit codes, configuration errors and the process pool."""

import contextlib
import io

import pytest

from poroweights.cli import main
from poroweights.presets import PRESET_NAMES

from .test_golden import CANTOR6, CAPS


def _reports(argv, out) -> tuple[int, dict[str, bytes]]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--no-timestamp", "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_process_pool_writes_the_same_reports(tmp_path):
    # the one fork in the CLI: suites mapped over a 2-process pool must write
    # what the in-process loop writes, byte for byte, with the same exit code
    argv = ("verify", *CANTOR6, *CAPS, "--window", "-2", "2", "--suite", "all")
    pooled = _reports([*argv, "--workers", "2"], tmp_path / "pooled")
    serial = _reports([*argv, "--workers", "1"], tmp_path / "serial")
    assert len(serial[1]) == 10
    assert pooled == serial


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--window", "1", "0"], "configuration error: window must satisfy lo < hi"),
        (["analyze", "--preset", "integers", "--set-file", "set.json"],
         "configuration error: give either --preset or --set-file, not both"),
        (["analyze", "--set-file", "missing.json"], "error: [Errno 2] No such file or directory"),
    ],
    ids=["empty-window", "preset-and-set-file", "missing-set-file"],
)
def test_configuration_errors_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text('{"kind": "finite", "points": [0.0]}')
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_presets_lists_the_catalog(capsys):
    assert main(["presets"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(PRESET_NAMES)
    assert len(listed) == 8
