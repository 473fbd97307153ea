"""The comparison tools under ``tools/`` tell a broken run from a result:
a base revision that cannot be read exits 2 with one ``error:`` line, not
with a traceback or with the "numbers moved" status 1."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
import same_bits  # noqa: E402


@pytest.mark.parametrize("main, args", [
    (same_bits.main, ["no-such-ref"]),
    (bench_pairs.main, ["no-such-ref", "--out", "unwritten.json"]),
], ids=["same_bits", "bench_pairs"])
def test_unknown_base_ref_exits_2_with_one_error_line(capsys, main, args):
    # Only git runs: the ref fails before any worker or benchmark run.
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: git ") and "no-such-ref" in err
    assert err.count("\n") == 1
