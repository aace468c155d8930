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

Three controls break the maps the fold and smoothness checks hold to
their claims. With the stacked fold of verify replaced by the identity,
"fold orbit invariance" must fail: the images of one orbit no longer
agree. With the smoothing after the fold replaced by the identity, so
that H is the fold, both "wall jump decay slope" lines must fail: the
fold's derivatives jump across a wall at every offset. With H replaced
by the stacked fold on the origin lines, both "origin line jump decay"
lines must fail for the same reason.

check_closure certifies the element list from the generators, and finds
each product's element by its key (groups._matrix_keys). Keys that all
miss must give the scan's values bit for bit. An element list with one
element dropped, with an orthogonal matrix outside the group appended,
or with two words swapped must fail "closure under products" on a3, b3
and B4, and so must a group with one element rotated slightly off. Each
such copy of the group has its element list set, as the cached property
of ReflectionGroup allows.

check_roots holds the mirrors, which generate_group closes from the
roots, to the simple reflections. A group with one mirror dropped, or
with one mirror normal turned by 1e-6 rad, must fail "roots closed under
the simple reflections" on i2-5, a3, b3 and H4: some image of a mirror
normal is then no mirror normal, about 0.1 or more away from every one,
or about 1e-6 away.

With every point G maps moved by 1e-6 along the chamber's witness, so
that wall points leave their walls, "wall sets preserved by the
composite" must fail. So must it with one wall point's image alone moved
off its wall by 1e-6 times its norm: the image's wall set changes. With
eps/|p|^2 (eps = 1e-3) added along the witness to the map
growth_bound_check probes, the growth lines of levels 0 and 1
must fail: the probes of every level close in on the origin as their
distance shrinks, and the term's derivatives grow there like |p|^-3 and
|p|^-4. growth_bound_check lives in calculus and binds
_apply_partial_rows there, so that control patches the caller's binding,
calculus._apply_partial_rows.

With h = 0 inside the level-0 tube, so that G maps every point that
tube holds to its foot, "separated points stay separated" must fail by
its value on i2-5 and b3: the foot is the origin, and two separated
points in the tube meet there. b3 needs the check's default 1000 pairs:
at 100 no pair has both points in the tube. That control patches
verify._apply_G_rows, the binding check_injectivity calls.

With one output coordinate of G set to 0, "Jacobian determinant
bounded away from zero" must fail by its value: every |det DG| is 0. The
wall probe's fold control must fail by value too. With the fold the probes
use (calculus._fold_rows, the binding _wall_reports calls) replaced by the
identity, the control's first-derivative jump is 0 and "fold control jump
stays large" must fail; "fold control slope stays flat" must fail too,
with value inf, as no control jump rises above the rounding floor to
fit. With it replaced by the smooth p + <p, w>^2*w, w the unit chamber
witness, the control's jump decays linearly with the offset, and "fold
control slope stays flat" must fail with a slope near 1.

check_tubes holds the tube geometry the maps need. With every tube
radius widened 8x (the tube kernels' _radius_rows and the heights the
check samples at) and the wall-distance rule that assumes the slope bound
switched off (smoothing._reach), "same-level tubes disjoint" must fail on
b2, a3 and b3. A chain whose last tube level has a slope 1e-6 over
sin(theta_min)/4 must fail "tube slope within sin(theta_min)/4", and only
that line: its tubes still sample as disjoint.

A map broken badly enough to raise inside a check is reported, not
raised: with the stacked fold of verify replaced by the identity, an a3
run_verification must return, fail "fold orbit invariance" and one
"<check> raised" line for each check whose G refuses the unfolded points,
and `orbitfold verify` must exit 1 with no traceback.

A blind spot of check_growth alone: an added |p|^2 term. It is smooth
and its derivatives shrink toward every stratum the growth probes
approach, so every growth exponent stays under its limit;
check_identity_tail sees the term in the map it evaluates.

A blind spot of check_injectivity alone: the level-0 collapse above on
a group with a fixed subspace (a3, a2). The feet lie on the fixed line,
and two points of a pair keep their distinct fixed parts, so every image
pair stays separated (on a3 the value does not move). verify still sees
the collapse there: check_regular_jacobian reads |det DG| = 0 on a3 and
a2 (1000 points, seed 1) under the same mutation.

Checks with no control yet:
- The scalar fold loop (chamber._reflect_into_chamber, which fold and
  apply_H run): check_fold holds its images to the orbit and to the
  stacked fold, but no control breaks it here. The public fold's element
  is not checked by verify; tier-1 tests hold it.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from orbitfold import calculus, groups, smoothing, verify
from orbitfold.chamber import _fold_rows, _incident_rows, _square_sums
from orbitfold.cli import main
from orbitfold.groups import GroupElement, preset_group
from orbitfold.smoothing import build_chain
from orbitfold.verify import (
    check_closure,
    check_regular_jacobian,
    check_flatness,
    check_fold,
    check_identity_tail,
    check_origin_smoothness,
    check_growth,
    check_profile,
    check_roots,
    check_tubes,
    check_wall_preservation,
    check_wall_smoothness,
    run_verification,
)
from normals_groups import named_group

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


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3", "B4"])
def test_closure_keys_that_all_miss_give_the_same_values(monkeypatch, preset):
    group = named_group(preset)
    keyed = [r.value for r in check_closure(group, group.order)]
    monkeypatch.setattr(groups, "_matrix_keys", lambda mats: [b""] * len(mats))
    assert [r.value for r in check_closure(group, group.order)] == keyed


def _with_elements(group, elements):
    """A copy of the group whose element list is `elements`: the copy's
    cached elements property is set, so it closes nothing."""
    broken = dataclasses.replace(group)
    broken.elements = elements
    return broken


def _dropped(group):
    """The group less its last element, the longest word."""
    return _with_elements(group, group.elements[:-1])


def _stranger(group):
    """The group with one more element: element 1 turned by 0.3 rad in the
    plane of the first two axes, an orthogonal matrix outside the group,
    spelled as a word no element has."""
    c, s = np.cos(0.3), np.sin(0.3)
    turn = np.eye(group.dimension)
    turn[:2, :2] = [[c, -s], [s, c]]
    word = (0,) * (len(group.elements[-1].word) + 2)
    stranger = GroupElement._unchecked(turn @ group.elements[1].matrix, word)
    return _with_elements(group, group.elements + (stranger,))


def _misspelled(group):
    """The group with the words of elements 1 and 2, s_0 and s_1, swapped."""
    first, second = group.elements[1:3]
    swapped = (GroupElement._unchecked(first.matrix.copy(), second.word),
               GroupElement._unchecked(second.matrix.copy(), first.word))
    return _with_elements(group, group.elements[:1] + swapped + group.elements[3:])


@pytest.mark.parametrize("mutation", [_dropped, _stranger, _misspelled])
@pytest.mark.parametrize("name", ["a3", "b3", "B4"])
def test_a_broken_element_list_fails_closure(name, mutation):
    """Each mutation breaks one fact of the certificate. With an element
    dropped, some generator times some element lies about 1.0 from every
    element left. An element outside the group, and a wrong word, each
    leave a word that does not spell its element, which reads 1.0."""
    group = named_group(name)
    assert all(r.passed for r in check_closure(group, group.order))
    (result,) = [r for r in check_closure(mutation(group))
                 if r.name == "closure under products"]
    assert not result.passed and result.value > 0.9


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
    broken = _with_elements(group, elements)
    (result,) = [r for r in check_closure(broken) if r.name == "closure under products"]
    assert not result.passed and 1e-7 < result.value < 1e-5


def _mirror_dropped(group):
    """The group less its last mirror."""
    return dataclasses.replace(group, mirrors=group.mirrors[:-1])


def _mirror_turned(group):
    """The group with its last mirror normal n turned by 1e-6 rad toward
    the unit vector u orthogonal to n in the plane of n and (1, 2, ..., n)."""
    normal = group.mirrors[-1].normal
    ramp = np.arange(1.0, group.dimension + 1.0)
    u = ramp - (ramp @ normal) * normal
    turned = np.cos(1e-6) * normal + np.sin(1e-6) * u / np.linalg.norm(u)
    return dataclasses.replace(group, mirrors=group.mirrors[:-1] + (groups.Hyperplane(turned),))


@pytest.mark.parametrize("mutation,low,high", [(_mirror_dropped, 0.1, 2.0),
                                               (_mirror_turned, 1e-7, 1e-5)])
@pytest.mark.parametrize("name", ["i2-5", "a3", "b3", "H4"])
def test_a_broken_root_system_fails_the_roots_check(name, mutation, low, high):
    group = named_group(name)
    assert check_roots(group).passed
    result = check_roots(mutation(group))
    assert result.name == "roots closed under the simple reflections"
    assert not result.passed and low < result.value < high


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


def _failed(results):
    return [r.name for r in results if not r.passed]


@pytest.mark.parametrize("preset", ["b2", "a3", "b3"])
def test_widened_tubes_fail_disjointness(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    check = lambda: check_tubes(chain, seed=1)
    assert _failed(check()) == []
    for module in (smoothing, verify):
        radius = module._radius_rows
        monkeypatch.setattr(module, "_radius_rows",
                            lambda *args, radius=radius: 8.0 * radius(*args))
    monkeypatch.setattr(smoothing, "_reach", lambda chain, i, size: np.full(np.shape(size), np.inf))
    (result,) = [r for r in check() if not r.passed]
    assert result.name == "same-level tubes disjoint" and result.value >= 10
    assert result.detail.startswith("tubes overlap at level ")


@pytest.mark.parametrize("preset", ["b2", "a3", "b3"])
def test_a_slope_over_the_bound_fails_the_slope_line(preset):
    chain = build_chain(preset_group(preset))
    assert _failed(check_tubes(chain, seed=1)) == []
    theta, _, _ = verify._slope_margins(chain)
    level = chain.rank - 1
    bound = np.sin(theta) / 4.0
    steep = build_chain(chain.group, tubes=dataclasses.replace(
        chain.tubes, b={**chain.tubes.b, level: bound * (1.0 + 1e-6)}))
    (result,) = [r for r in check_tubes(steep, seed=1) if not r.passed]
    assert result.name == "tube slope within sin(theta_min)/4"
    assert result.value == pytest.approx(1e-6 * bound, rel=1e-6)
    assert result.detail.startswith(f"slope b_{level} = ")


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_identity_fold_fails_orbit_invariance(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    check = lambda: check_fold(chain.group, chain.chamber, count=100, seed=1)
    assert _failed(check()) == []
    monkeypatch.setattr(verify, "_fold_rows", lambda chamber, rows: rows.copy())
    assert _failed(check()) == ["fold orbit invariance"]


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_identity_smoothing_fails_wall_decay(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    check = lambda: check_wall_smoothness(chain, points=20, seed=1)
    assert _failed(check()) == []
    monkeypatch.setattr(verify, "_apply_partial_rows", lambda chain, i, rows: rows.copy())
    assert _failed(check()) == [f"wall jump decay slope (order {order})" for order in (1, 2)]


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_fold_in_place_of_H_fails_origin_decay(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    check = lambda: check_origin_smoothness(chain, lines=20, seed=1)
    assert _failed(check()) == []
    monkeypatch.setattr(verify, "_apply_H_rows",
                        lambda chain, rows: _fold_rows(chain.chamber, rows))
    assert _failed(check()) == [f"origin line jump decay (order {order})" for order in (1, 2)]


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_wall_points_moved_off_their_wall_fail_preservation(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    check = lambda: check_wall_preservation(chain, points=100, seed=1)
    assert check().passed
    apply_G_rows, shift = verify._apply_G_rows, 1e-6 * chain.chamber.witness
    monkeypatch.setattr(verify, "_apply_G_rows",
                        lambda chain, rows: apply_G_rows(chain, rows) + shift)
    result = check()
    assert result.name == "wall sets preserved by the composite"
    assert not result.passed and result.value > 1e-9


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_one_image_moved_off_its_wall_fails_preservation(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    check = lambda: check_wall_preservation(chain, points=100, seed=1)
    assert check().passed
    apply_G_rows = verify._apply_G_rows

    def moved(chain, rows):
        images = apply_G_rows(chain, rows)
        k, wall = np.argwhere(_incident_rows(chain.group, rows))[0]
        images[k] += 1e-6 * np.linalg.norm(images[k]) * chain.group.mirror_normals[wall]
        return images

    monkeypatch.setattr(verify, "_apply_G_rows", moved)
    result = check()
    # 1 is the value of a changed wall set; the deviation alone is near 1e-6
    assert not result.passed and result.value == 1.0


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_a_term_steep_toward_the_strata_fails_growth(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    assert _failed(check_growth(chain)) == []
    partial, witness = calculus._apply_partial_rows, chain.chamber.witness
    monkeypatch.setattr(calculus, "_apply_partial_rows", lambda chain, i, points: (
        partial(chain, i, points) + (1e-3 / _square_sums(points))[:, None] * witness))
    failed = _failed(check_growth(chain))
    assert {f"derivative growth exponent (level {level}, order {order})"
            for level in (0, 1) for order in (1, 2)} <= set(failed)


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_a_flattened_coordinate_fails_the_regular_jacobian_by_value(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    check = lambda: check_regular_jacobian(chain, points=100, seed=1)
    assert check().passed
    apply_G_rows = verify._apply_G_rows
    kept = np.ones(chain.group.dimension)
    kept[-1] = 0.0
    monkeypatch.setattr(verify, "_apply_G_rows",
                        lambda chain, rows: apply_G_rows(chain, rows) * kept)
    result = check()
    assert result.name == "Jacobian determinant bounded away from zero"
    assert not result.passed and result.value == 0.0


def _fold_control(chain, name):
    (result,) = [r for r in check_wall_smoothness(chain, points=20, seed=1) if r.name == name]
    return result


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_an_identity_fold_control_fails_the_control_jump(monkeypatch, preset):
    """The identity's control jumps sit at the rounding floor: the jump
    line fails by value, and the slope line, which fits only resolved
    control jumps, has none to fit and fails with inf."""
    chain = build_chain(preset_group(preset))
    name, slope_name = "fold control jump stays large", "fold control slope stays flat"
    assert _fold_control(chain, name).passed
    unmutated = _fold_control(chain, slope_name)
    assert unmutated.passed and unmutated.detail == ""
    monkeypatch.setattr(calculus, "_fold_rows", lambda chamber, rows: rows.copy())
    result = _fold_control(chain, name)
    assert not result.passed and result.value < 1e-12
    slope = _fold_control(chain, slope_name)
    assert not slope.passed and slope.value == float("inf")
    assert re.fullmatch(r"[1-9]\d* control reports below resolution", slope.detail)


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_probe_summary_control_slope_follows_the_verify_line(monkeypatch, tmp_path, preset):
    """probe's max_control_slope takes |slope| over the probes whose control
    resolves, as the verify line does: its value there, and inf under the
    identity control, where a signed max over every probe read rounding
    noise (5.38 on a3)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[group]\npreset = {preset}\n\n[sampling]\ncount = 20\nseed = 1\n")
    out = tmp_path / "probe.json"

    def control_slope():
        assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads(out.read_text())["summary"]["max_control_slope"]["1"]

    chain = build_chain(preset_group(preset))
    assert control_slope() == _fold_control(chain, "fold control slope stays flat").value
    monkeypatch.setattr(calculus, "_fold_rows", lambda chamber, rows: rows.copy())
    assert control_slope() == "inf"


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
def test_a_smooth_fold_control_fails_the_flat_control_slope(monkeypatch, preset):
    """p + <p, w>^2*w: its first-derivative jump decays like the offset."""
    chain = build_chain(preset_group(preset))
    name = "fold control slope stays flat"
    assert _fold_control(chain, name).passed
    w = chain.chamber.witness / np.linalg.norm(chain.chamber.witness)
    monkeypatch.setattr(calculus, "_fold_rows",
                        lambda chamber, rows: rows + ((rows @ w) ** 2)[:, None] * w)
    result = _fold_control(chain, name)
    assert not result.passed and 0.9 < result.value < 1.1


def _collapsed_level_zero(chain, rows):
    """G with h = 0 in the level-0 tube: every point it holds maps to its foot."""
    points = smoothing._apply_partial_rows(chain, 1, rows).copy()
    held, _, _, _, foot = smoothing._first_claims(chain, 0, points)
    points[held] = foot
    return points


@pytest.mark.parametrize("preset", ["i2-5", "b3", "a3"])
def test_a_collapsed_level_zero_tube_fails_injectivity_by_value(monkeypatch, preset):
    chain = build_chain(preset_group(preset))
    check = lambda: verify._reported(verify.check_injectivity, chain, 1000, 1)
    (passed,) = check()
    assert passed.name == "separated points stay separated" and passed.passed
    monkeypatch.setattr(verify, "_apply_G_rows", _collapsed_level_zero)
    (result,) = check()
    assert result.name == "separated points stay separated"
    if preset == "a3":
        # the blind spot in the module docstring: the feet on the fixed
        # line stay as far apart as the points were
        assert result.passed and result.value == passed.value
    else:
        assert not result.passed and result.value == 0.0


def test_an_identity_fold_is_reported_not_raised(monkeypatch, capsys):
    chain = build_chain(preset_group("a3"))
    monkeypatch.setattr(verify, "_fold_rows", lambda chamber, rows: rows.copy())
    results = run_verification(chain, count=100, seed=1)
    raised = ["check_injectivity raised", "check_regular_jacobian raised"]
    assert _failed(results) == ["fold orbit invariance"] + raised
    for result in results:
        if result.name in raised:
            assert np.isnan(result.value)
            assert result.detail == "point lies outside the closed chamber"
    capsys.readouterr()
    assert main(["verify", "--preset", "a3", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "Traceback" not in out
    assert "FAIL check_injectivity raised: value=nan threshold=nan" in out.splitlines()
