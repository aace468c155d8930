"""Negative controls: a broken program must make the check that guards it FAIL.

Each control monkeypatches one mutation into the package and names the
check line it must turn to FAIL (mutation analysis: DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).

The mutations below break the stacked smooth step g, which the stacked
tube map (h = u*g(u)) and the stacked cap blend of the radius field use,
and so every finite-difference check of verify. Only check_profile's
"stacked h equals its jet on (0,2]" line sees them: it compares the
map's h with the jets the rest of check_profile certifies.

Blind spots, mutations no verify check catches:
- g mutated in the scalar _g0 alone, keeping g(1/2) = 1/2 (any of the
  mutations below that leaves u = 1/2 alone). _g0 serves the per-point
  map, eval_h at order 0 and the scalar cap blend (_radius_at); verify
  reads it only in h(1/2), in validate_tubes' radii and where it sizes
  and places its probes. Only
  test_row_kernel_bits.py::test_stacked_g_equals_scalar_g, which holds
  _g0 to the stacked g bit for bit, catches it.
"""

import numpy as np
import pytest

from orbitfold import smoothing
from orbitfold.verify import check_profile

LINE = "stacked h equals its jet on (0,2]"
_g_rows = smoothing._g_rows


def _damped_near_one(u):
    """g times 0.9 on 0.75 < u < 1: H jumps at u = 0.75 in every tube."""
    return _g_rows(u) * np.where((u > 0.75) & (u < 1.0), 0.9, 1.0)


def _damped_below_one(u):
    """g times 0.9 for u < 1: H jumps at the tube boundary."""
    return _g_rows(u) * np.where(u < 1.0, 0.9, 1.0)


def _kinked(u):
    """A C^0 kink at u = 1/2; g stays flat at 0 and 1 and within [0, 1]."""
    g = _g_rows(u)
    return g + 0.04 * np.abs(u - 0.5) * g * (1.0 - g)


def test_profile_line_passes_unmutated():
    (result,) = [r for r in check_profile() if r.name == LINE]
    assert result.passed and result.value == 0.0


@pytest.mark.parametrize("mutation", [_damped_near_one, _damped_below_one, _kinked])
def test_stacked_g_mutation_fails_the_profile_line(monkeypatch, mutation):
    monkeypatch.setattr(smoothing, "_g_rows", mutation)
    failed = [r.name for r in check_profile() if not r.passed]
    assert failed == [LINE]
