"""The last per-sample loops of verify, stacked, against the loops they
replaced: the profile jets over arrays of t, the one-block face-sample
draw, and the wall probes' shared fold. Each must give the same bytes.
Also the preset names RunConfig accepts, and the generators-only
orthogonality test of generate_group.
"""

import numpy as np
import pytest

import jet_oracle
import sampler_oracle
from orbitfold import groups, verify
from orbitfold.calculus import DEFAULT_OFFSETS, _probe_reports
from orbitfold.chamber import _fold_rows
from orbitfold.config import ConfigError, RunConfig
from orbitfold.groups import GroupElement, generate_group, preset_group, preset_order
from orbitfold.smoothing import (
    ARG_DEAD_EPS,
    DERIVATIVE_ORDER_MAX,
    _apply_H_rows,
    _h_derivatives,
    build_chain,
)

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]


@pytest.fixture(scope="module", params=PRESETS)
def chain(request):
    return build_chain(preset_group(request.param))


# ---------------------------------------------------------------------------
# profile jets over arrays
# ---------------------------------------------------------------------------

def _jet_ts():
    edge = 1.0 - ARG_DEAD_EPS
    return np.array(
        [0.0, -0.0, 5e-324, 2.2e-310, ARG_DEAD_EPS, np.nextafter(ARG_DEAD_EPS, 1.0),
         np.nextafter(ARG_DEAD_EPS, 0.0), edge, np.nextafter(edge, 0.0),
         np.nextafter(edge, 2.0), 0.5, 1.0, 3.0]
        + np.random.default_rng(61).uniform(0.0, 1.0, 400).tolist()
        # check_profile's grids
        + np.linspace(2.0 / 1000, 2.0, 1000).tolist()
        + np.linspace(0.2 / 200, 0.2, 200).tolist()
        + np.linspace(1.0, 3.0, 200).tolist())


@pytest.mark.parametrize("order", range(DERIVATIVE_ORDER_MAX + 1))
def test_array_jets_equal_the_frozen_scalar_jets(order):
    ts = _jet_ts()
    got = _h_derivatives(ts, order)
    want = np.array([jet_oracle.h_derivatives(t, order) for t in ts.tolist()]).T
    assert got.shape == want.shape == (order + 1, len(ts))
    assert got.tobytes() == want.tobytes()


def test_array_jets_of_no_entries():
    assert _h_derivatives(np.zeros(0), 4).shape == (5, 0)


# ---------------------------------------------------------------------------
# one face-sample draw
# ---------------------------------------------------------------------------

def _face_lists(chain):
    strat = chain.stratification
    singular = [f for f in strat.faces if 0 < f.level < chain.rank] or \
               [f for f in strat.faces if f.level == 0]
    # faces of one level, of mixed levels, and with the origin among them
    return [strat.faces_at_level(level) for level in range(1, chain.rank)] + [
        singular, list(strat.faces)]


@pytest.mark.parametrize("count", [0, 1, 7, 100])
@pytest.mark.parametrize("seed", [0, 1])
def test_face_samples_equal_the_frozen_loop(chain, count, seed):
    for faces in _face_lists(chain):
        for radius_range in ((1.0, 2.0), (0.5, 2.0)):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn, got = verify._face_samples(chain, faces, count, got_rng, radius_range)
            want = sampler_oracle.face_samples(chain, faces, count, want_rng, radius_range)
            assert drawn == [faces[j % len(faces)] for j in range(count)]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # the rng ends where the loop left it
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_origin_face_draws_nothing(chain):
    origin = [f for f in chain.stratification.faces if f.level == 0]
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    _, points = verify._face_samples(chain, origin, 5, rng, (0.5, 2.0))
    assert not points.any() and rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# one fold for the wall probe and its control
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orders", [(1, 2), (1, 2, 3)])
def test_shared_fold_wall_reports_equal_separate_evaluations(chain, orders):
    reports = verify._wall_probes(chain, 12, 2, DEFAULT_OFFSETS, orders)
    assert reports
    xs = np.array([r.point for r in reports])
    vs = np.array([r.direction for r in reports])
    offsets = [r.offsets for r in reports]
    h_reports = _probe_reports(lambda rows: _apply_H_rows(chain, rows), xs, vs, offsets,
                               orders)
    fold_reports = _probe_reports(lambda rows: _fold_rows(chain.chamber, rows), xs, vs,
                                  offsets, orders)
    for report, h, fold in zip(reports, h_reports, fold_reports):
        assert report.jumps == h.jumps
        assert report.control_jumps == fold.jumps


# ---------------------------------------------------------------------------
# preset names
# ---------------------------------------------------------------------------

NAMES = ["a2", "A3", " b3 ", "B2", "i2-3", "i2_5", "I2 (5)", "i2(4)", "I2:6", "i2 7",
         "i2--3", "i2-2", "I2", "i2-1", "i2(0)", "i2-x", "i2", "d4", "e8", "a4", "", "a 3"]


@pytest.mark.parametrize("name", NAMES)
def test_run_config_accepts_exactly_the_names_preset_group_accepts(name):
    try:
        group = preset_group(name)
    except ValueError:
        with pytest.raises(ConfigError, match="unknown preset"):
            RunConfig(preset=name)
    else:
        cfg = RunConfig(preset=name)
        assert cfg.build_group().order == group.order == preset_order(name)


# ---------------------------------------------------------------------------
# orthogonality, once per generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["a3", "b3", "i2-5"])
def test_generate_group_checks_each_generator_once(name, monkeypatch):
    checked = []
    check = groups._check_orthogonal
    monkeypatch.setattr(groups, "_check_orthogonal",
                        lambda mat: checked.append(mat.copy()) or check(mat))
    group = preset_group(name)
    assert len(checked) == len(group.generators)
    for mat, gen in zip(checked, group.generators):
        assert mat.tobytes() == groups.reflection_matrix(gen.normal).tobytes()
    # every element is as the checked constructor would build it
    for elem in group.elements:
        again = GroupElement(elem.matrix, elem.word)
        assert again.matrix.tobytes() == elem.matrix.tobytes() and again.word == elem.word
        assert not elem.matrix.flags.writeable


def test_generator_that_is_not_orthogonal_is_refused(monkeypatch):
    monkeypatch.setattr(groups, "reflection_matrix",
                        lambda normal: np.diag([1 + 4e-6] + [1.0] * (len(normal) - 1)))
    with pytest.raises(ValueError, match="not orthogonal within 1e-10"):
        generate_group([[1.0, 0.0]])
