"""tools/ulp_diff.py: numeric differences are counted, anything else fails."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ulp_diff", Path(__file__).resolve().parent.parent / "tools" / "ulp_diff.py")
ulp_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ulp_diff)


def test_ulps_counts_doubles_between():
    assert ulp_diff.ulps(1.0, 1.0000000000000002) == 1
    assert ulp_diff.ulps(-0.0, 0.0) == 0
    assert ulp_diff.ulps(-5e-324, 5e-324) == 2
    assert ulp_diff.ulps(1.0, float("inf")) == float("inf")


def test_compare_reports_numeric_tokens():
    count, worst_ulps, worst_rel, structural = ulp_diff.compare(
        "a3-s0 h 0.1 2.5e-05\n", "a3-s0 h 0.10000000000000002 2.5e-05\n")
    assert (count, worst_ulps, structural) == (1, 1.0, None)
    assert worst_rel == pytest.approx(1.3878e-17, rel=1e-3)


@pytest.mark.parametrize("b", ["x 1\ny 2\n", "z 1\n"])
def test_compare_flags_structure(b):
    assert ulp_diff.compare("x 1\n", b)[3] is not None


def test_main_exit_status(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "f.stdout").write_text("max 1.5\n")
    (b / "f.stdout").write_text("max 1.5000000000000002\n")
    assert ulp_diff.main([str(a), str(b)]) == 0
    assert "f.stdout: 1 numeric tokens differ, worst 1 ulp" in capsys.readouterr().out
    (b / "g.exit").write_text("0\n")
    assert ulp_diff.main([str(a), str(b)]) == 1
