"""Negative controls: a broken program must make the check that guards it FAIL.

Each control monkeypatches one mutation into the package and names the
check line it must turn to FAIL (mutation analysis: DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).

The mutations below break the stacked smooth step g, which the stacked
tube map (h = u*g(u)) and the stacked cap blend of the radius field use,
and so every finite-difference check of verify. Only check_profile's
"stacked h equals its jet on (0,2]" line sees them: it compares the
map's h with the jets the rest of check_profile certifies.

Two controls break the stacked maps verify evaluates. With every tube
map F_i replaced by the identity, "flat normal derivatives at strata"
must fail: the normal derivative of the identity is 1, against 1e-6. With
the smoothing scaled by 1 + 1e-9, "identity outside all tubes" must
fail: H moves tail points by about 1e-8, against 1e-12.

check_closure finds each product's element by its key. Two controls
hold it: keys that all miss must give the full comparison's values bit
for bit, and a group with one element rotated slightly off must fail
"closure under products".

Blind spots, mutations no verify check catches:
- g mutated in the scalar _g0 alone, keeping g(1/2) = 1/2 (any of the
  mutations below that leaves u = 1/2 alone). _g0 gives the h of the
  per-point map and of eval_h at order 0 (h = u*_g0(u)) and the scalar
  cap blend (_radius_at); verify reads it only in check_profile's h(1/2),
  in validate_tubes' radii and where it sizes and places its probes. Only
  test_row_kernel_bits.py::test_stacked_g_equals_scalar_g, which holds
  _g0 to the stacked g bit for bit, catches it.

Checks with no control yet:
- The fold: check_fold holds the public and stacked folds to each other
  and to the orbit, but no control breaks either one here.
- check_injectivity, check_regular_jacobian, check_wall_preservation,
  check_growth and the wall and origin decay lines.
"""

import dataclasses

import numpy as np
import pytest

from orbitfold import smoothing, verify
from orbitfold.groups import GroupElement, preset_group
from orbitfold.smoothing import build_chain
from orbitfold.verify import check_closure, check_flatness, check_identity_tail, check_profile

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


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_closure_keys_that_all_miss_give_the_same_values(monkeypatch, preset):
    group = preset_group(preset)
    keyed = [r.value for r in check_closure(group, group.order)]
    monkeypatch.setattr(verify, "_matrix_keys", lambda mats: [b""] * len(mats))
    assert [r.value for r in check_closure(group, group.order)] == keyed


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_a_slightly_rotated_element_fails_closure(preset):
    """Element 1 turned by 1e-6 rad in the plane of the first two axes: no
    product of it finds its key, and its distance to the group is ~1e-6."""
    group = preset_group(preset)
    c, s = np.cos(1e-6), np.sin(1e-6)
    turn = np.eye(group.dimension)
    turn[:2, :2] = [[c, -s], [s, c]]
    moved = GroupElement._unchecked(turn @ group.elements[1].matrix, group.elements[1].word)
    elements = group.elements[:1] + (moved,) + group.elements[2:]
    broken = dataclasses.replace(group, elements=elements)
    (result,) = [r for r in check_closure(broken) if r.name == "closure under products"]
    assert not result.passed and 1e-7 < result.value < 1e-5


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_identity_tube_maps_fail_flatness(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    assert check_flatness(chain, points_per_level=10, seed=1).passed
    monkeypatch.setattr(verify, "_apply_F_rows", lambda chain, level, points: points.copy())
    result = check_flatness(chain, points_per_level=10, seed=1)
    assert result.name == "flat normal derivatives at strata"
    assert not result.passed and result.value > 0.5


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_scaled_smoothing_fails_the_identity_tail(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    assert check_identity_tail(chain, count=100, seed=1).passed
    partial = verify._apply_partial_rows
    monkeypatch.setattr(verify, "_apply_partial_rows",
                        lambda chain, i, points: partial(chain, i, points) * (1.0 + 1e-9))
    result = check_identity_tail(chain, count=100, seed=1)
    assert result.name == "identity outside all tubes"
    assert not result.passed and result.value > 1e-9
