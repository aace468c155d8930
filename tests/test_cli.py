import json

import numpy as np
import pytest

from orbitfold import cli
from orbitfold.cli import main
from normals_groups import NORMALS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    lines = [l for l in text.splitlines() if l]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------

class TestFold:
    def test_worked_example(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("-1,2\n")
        code, out, _ = run(capsys, "fold", str(pts), "--preset", "b2")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x1", "x2", "level", "walls", "word_length"]
        image = np.array([float(rows[0][0]), float(rows[0][1])])
        assert np.allclose(image, [2.0, 1.0], atol=1e-12)
        assert rows[0][2] == "2"           # regular stratum
        assert rows[0][3] == "0"
        assert int(rows[0][4]) >= 1

    def test_chamber_point_word_length_zero(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("2,1\n")
        code, out, _ = run(capsys, "fold", str(pts), "--preset", "b2")
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0][4] == "0"

    def test_malformed_row_names_row_number(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("1,2\n\nnot,numbers\n")
        code, out, err = run(capsys, "fold", str(pts), "--preset", "b2")
        assert code == 2
        assert "row 3" in err

    def test_wrong_coordinate_count(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("1,2,3\n")
        code, _, err = run(capsys, "fold", str(pts), "--preset", "b2")
        assert code == 2
        assert "row 1" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_row_names_row_number(self, capsys, tmp_path, token):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"1,2\n{token},1\n")
        code, out, err = run(capsys, "fold", str(pts), "--preset", "b2")
        assert code == 2
        assert "row 2" in err and "non-finite" in err
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fold", "no-such-file.csv", "--preset", "b2")
        assert code == 2
        assert "cannot read" in err


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

class TestGrid:
    def test_z2_line_h_is_even(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\nnormals = 1\n\n[grid]\n"
                       "box_min = -2\nbox_max = 2\nnodes = 5\n")
        code, out, _ = run(capsys, "grid", "--config", str(cfg))
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["in_1", "h_1", "level"]
        h = {float(r[0]): float(r[1]) for r in rows}
        assert h[-2.0] == h[2.0]
        assert h[-1.0] == h[1.0]

    def test_b2_h_constant_on_orbits(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[grid]\n"
                       "box_min = -2,-2\nbox_max = 2,2\nnodes = 5,5\n")
        code, out, _ = run(capsys, "grid", "--config", str(cfg))
        assert code == 0
        _, rows = read_csv(out)
        h = {(float(r[0]), float(r[1])): np.array([float(r[2]), float(r[3])])
             for r in rows}
        # the full orbit of (1, 2) lies on this lattice
        orbit = [(1, 2), (2, 1), (-1, 2), (2, -1), (1, -2), (-2, 1), (-1, -2), (-2, -1)]
        values = [h[p] for p in orbit]
        spread = max(np.linalg.norm(v - values[0]) for v in values)
        assert spread <= 1e-10

    def test_empty_box_gives_header_only(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[grid]\n"
                       "box_min = -1,-1\nbox_max = 1,1\nnodes = 0,0\n")
        code, out, _ = run(capsys, "grid", "--config", str(cfg))
        assert code == 0
        assert out.splitlines() == ["in_1,in_2,h_1,h_2,level"]

    def test_refuses_dimension_above_three(self, capsys):
        # the a3 preset lives in R^4 (fixed diagonal)
        code, _, err = run(capsys, "grid", "--preset", "a3")
        assert code == 2
        assert "dimensions 1-3" in err

    def test_level_column_marks_walls(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[grid]\n"
                       "box_min = -2,-2\nbox_max = 2,2\nnodes = 5,5\n")
        _, out, _ = run(capsys, "grid", "--config", str(cfg))
        _, rows = read_csv(out)
        by_input = {(float(r[0]), float(r[1])): int(r[4]) for r in rows}
        assert by_input[(0.0, 0.0)] == 0
        assert by_input[(1.0, 1.0)] == 1     # on the diagonal mirror
        assert by_input[(1.0, 2.0)] == 2


# ---------------------------------------------------------------------------
# build-map / probe / demo-sym3
# ---------------------------------------------------------------------------

class TestBuildMap:
    def test_reports_group_and_tubes(self, capsys):
        code, out, _ = run(capsys, "build-map", "--preset", "b2")
        assert code == 0
        doc = json.loads(out)
        assert doc["group"]["order"] == 8
        assert doc["group"]["dimension"] == 2
        assert doc["validation"]["ok"] is True
        assert "1" in doc["tubes"]["b"]

    def test_bad_slope_fails_validation(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[tubes]\nb = 1:10\n")
        code, out, _ = run(capsys, "build-map", "--config", str(cfg))
        assert code == 1
        doc = json.loads(out)
        assert doc["validation"]["ok"] is False
        assert "slope" in doc["validation"]["error"]

    @pytest.mark.parametrize("preset", [None, "a3"])
    def test_config_without_group_takes_default_or_preset(self, capsys, tmp_path, preset):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[probe]\noffsets = 0.3,0.1,0.03\n")
        extra = ["--preset", preset] if preset else []
        code, out, _ = run(capsys, "build-map", "--config", str(cfg), *extra)
        assert code == 0
        doc = json.loads(out)
        assert doc["group"]["preset"] == (preset or "b2")
        assert doc["group"]["order"] == (24 if preset else 8)


class TestProbe:
    def test_emits_probe_document(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[sampling]\ncount = 4\nseed = 3\n")
        code, out, _ = run(capsys, "probe", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["probes"]) == 4
        assert doc["summary"]["min_slope"]["1"] >= 0.8
        assert doc["summary"]["min_slope"]["2"] >= 0.8
        first = doc["probes"][0]
        assert len(first["offsets"]) == 5
        assert first["control_jumps"]["1"][0] >= 0.5


    def test_offsets_at_rounding_floor_exit_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[probe]\noffsets = 1e-20,1e-21\n"
                       "\n[sampling]\ncount = 2\n")
        code, out, err = run(capsys, "probe", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "1e-20,1e-21" in err and "rounding floor" in err

    def test_offsets_that_collide_at_the_probe_points_exit_two(self, capsys, tmp_path):
        """Two offsets that strictly decrease but round together once
        rescaled to the tube radius at the b2 wall points."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[probe]\noffsets = 0.01,0.009999999999999998\n"
                       "\n[sampling]\ncount = 2\n")
        code, out, err = run(capsys, "probe", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == ("error: probe offsets 0.01 and 0.009999999999999998 collide at the "
                       "probe points: rescaled to the tube radius there, they do not "
                       "strictly decrease; use offsets further apart\n")

    @pytest.mark.parametrize("offsets", ["0.01", "0.01,0.00999999999999999"])
    def test_offsets_too_few_to_fit_a_slope_exit_two(self, capsys, tmp_path, offsets):
        """One offset, or two that differ in the 15th digit: the log-log fit
        has rank 1."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[group]\npreset = b2\n\n[probe]\noffsets = {offsets}\n"
                       "\n[sampling]\ncount = 2\n")
        code, out, err = run(capsys, "probe", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot fit a log-log slope") and err.count("\n") == 1
        assert "do not separate at float precision (rank 1)" in err


class TestRankOne:
    @pytest.mark.parametrize("command", ["verify", "probe"])
    def test_command_succeeds(self, capsys, tmp_path, command):
        # The group of the radial model: one mirror on the line, whose only
        # wall face is the origin.
        out_path = tmp_path / "out.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\nnormals = 1.0\n\n[sampling]\ncount = 5\n")
        code, _, err = run(capsys, command, "--config", str(cfg),
                           "--out", str(out_path))
        assert code == 0
        assert err == ""
        doc = json.loads(out_path.read_text())
        if command == "verify":
            assert doc["passed"] is True
        else:
            assert len(doc["probes"]) == 5
            assert all(p["point"] == [0.0] for p in doc["probes"])

    def test_probe_min_slope_skips_unresolved_probes(self, capsys, tmp_path):
        # H is even on the line, so its second derivatives at +d and -d
        # agree to rounding: every order-2 probe is unresolved, and the
        # summary reports inf as verify does, not a fit to rounding noise.
        out_path = tmp_path / "out.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\nnormals = 1.0\n\n[sampling]\ncount = 5\n")
        code, _, _ = run(capsys, "probe", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        summary = json.loads(out_path.read_text())["summary"]
        assert summary["min_slope"]["2"] == "inf"
        assert summary["min_slope"]["1"] >= 0.8


class TestDemoSym3:
    def test_matrices_from_file(self, capsys, tmp_path):
        mats = tmp_path / "m.csv"
        # diag(3,1,2) in (a11,a22,a33,a12,a13,a23) coordinates
        mats.write_text("3,1,2,0,0,0\n")
        code, out, _ = run(capsys, "demo-sym3", str(mats))
        assert code == 0
        header, rows = read_csv(out)
        assert header[-3:] == ["h1", "h2", "h3"]
        h = np.array([float(v) for v in rows[0][6:]])
        assert h[0] >= h[1] >= h[2]      # descending spectral coordinates

    def test_summary_contrast(self, capsys, tmp_path):
        out_path = tmp_path / "demo.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = a2\n\n[sampling]\ncount = 6\nseed = 2\n")
        code, out, _ = run(capsys, "demo-sym3", "--config", str(cfg),
                           "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["invariance_max_residual"] <= 1e-9
        assert summary["crossing_raw_jump"] >= 0.1
        assert abs(summary["crossing_raw_slope"]) <= 0.1
        assert summary["crossing_smoothed_slope"] >= 0.8
        assert out_path.read_text().splitlines()[0].startswith("a11,")

    def test_malformed_matrix_row(self, capsys, tmp_path):
        mats = tmp_path / "m.csv"
        mats.write_text("1,2,3\n")
        code, _, err = run(capsys, "demo-sym3", str(mats))
        assert code == 2
        assert "row 1" in err

    def test_offsets_at_rounding_floor_exit_two(self, capsys, tmp_path):
        # the curve probes refuse the schedule as probe does, before any
        # row of the CSV is written
        out_path = tmp_path / "demo.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = a2\n\n[probe]\noffsets = 1e-15,1e-16\n")
        for extra in ([], ["--out", str(out_path)]):
            code, out, err = run(capsys, "demo-sym3", "--config", str(cfg), *extra)
            assert code == 2
            assert out == ""
            assert err == ("error: probe offsets 1e-15,1e-16 reach the rounding floor "
                           "at the probe points; use larger offsets\n")
        assert not out_path.exists()

    def test_config_without_group(self, capsys, tmp_path):
        # a config that names no group runs on the default one (b2), which
        # the demo does not use: the output is that of a config naming a2
        offsets = "\n[probe]\noffsets = 0.3,0.1,0.03,0.01,0.001\n"
        outputs = []
        for group in ("", "[group]\npreset = a2\n"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(group + offsets + "\n[sampling]\ncount = 3\n")
            code, out, err = run(capsys, "demo-sym3", "--config", str(cfg),
                                 "--out", str(tmp_path / "demo.csv"))
            assert code == 0 and err == ""
            outputs.append((out, (tmp_path / "demo.csv").read_text()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["crossing_smoothed_slope"] >= 0.8


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    def test_bad_tubes_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[tubes]\nb = 1:10\n"
                       "\n[sampling]\ncount = 10\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 1
        assert out.startswith("FAIL tube slope within sin(theta_min)/4: value=")

    @pytest.mark.parametrize("c0,raised", [
        ("20", {"check_regular_jacobian": "RuntimeError"}),
        ("1e200", {"check_origin_smoothness": "OverflowError",
                   "check_regular_jacobian": "RuntimeError"}),
    ])
    def test_a_check_that_raises_is_one_fail_line(self, capsys, tmp_path, c0, raised):
        # at c0 = 20 the margin sampler finds no regular point, and from
        # about c0 = 1e160 a stencil step's power overflows
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[group]\npreset = b3\n\n[tubes]\nc0 = {c0}\n"
                       "\n[sampling]\ncount = 10\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg),
                             "--out", str(tmp_path / "verify.json"))
        assert code == 1 and err == "" and "Traceback" not in out
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        got = {c["name"][:-len(" raised")]: c["detail"].split(":")[0]
               for c in checks if c["name"].endswith(" raised")}
        assert got == raised
        for name in raised:
            assert f"FAIL {name} raised: value=nan threshold=nan" in out.splitlines()

    @pytest.mark.parametrize("preset", ["a3", "b3"])
    def test_wide_level_zero_tube_keeps_wall_sets(self, capsys, tmp_path, preset):
        # at c0 = 20, G squeezes the face samples to |image| near 1e-13,
        # where only the essential part of an image tells its walls
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[group]\npreset = {preset}\n\n[tubes]\nc0 = 20\n"
                       "\n[sampling]\ncount = 100\nseed = 1\n")
        _, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert [line.split(":")[0] for line in out.splitlines()
                if "wall sets preserved" in line] == [
            "PASS wall sets preserved by the composite"]

    @pytest.mark.parametrize("section,line", [
        ("tubes", "c0 = nan"), ("tubes", "b = 1:nan"), ("tubes", "c0 = inf"),
        ("tubes", "c = 1:inf"), ("probe", "offsets = nan"), ("probe", "offsets = inf,0.1"),
    ])
    def test_non_finite_parameters_exit_two(self, capsys, tmp_path, section, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[group]\npreset = b2\n\n[{section}]\n{line}\n"
                       "\n[sampling]\ncount = 5\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("command", ["verify", "build-map"])
    @pytest.mark.parametrize("line,key", [("b = 5:0.9", "b_5"), ("c = 7:0.5", "c_7")])
    def test_tubes_for_a_level_the_group_lacks_exit_two(self, capsys, tmp_path,
                                                        command, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[group]\npreset = b2\n\n[tubes]\n{line}\n\n[sampling]\ncount = 5\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == (f"error: tube parameter {key} given for a level the group lacks:"
                       " b and c levels run 1..1\n")

    def test_fold_refuses_tubes_for_a_level_the_group_lacks(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[tubes]\nb = 5:0.9\n")
        points = tmp_path / "points.csv"
        points.write_text("1,2\n")
        code, out, err = run(capsys, "fold", str(points), "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == ("error: tube parameter b_5 given for a level the group lacks:"
                       " b and c levels run 1..1\n")

    @pytest.mark.parametrize("command", ["verify", "grid", "fold", "build-map", "probe"])
    @pytest.mark.parametrize("normals,error", [
        ("nan,1; 1,0", "error: normal has a non-finite entry nan at index 0: [nan, 1.0]\n"),
        ("1,0; 0,0", "error: normal must be nonzero\n"),
    ], ids=["nan-normal", "zero-normal"])
    def test_a_group_the_config_cannot_build_exits_two(self, capsys, tmp_path, command,
                                                       normals, error):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[group]\nnormals = {normals}\n\n[sampling]\ncount = 5\n")
        points = tmp_path / "points.csv"
        points.write_text("1,2\n")
        args = [command, str(points)] if command == "fold" else [command]
        code, out, err = run(capsys, *args, "--config", str(cfg))
        assert (code, out, err) == (2, "", error)

    def test_an_infinite_group_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\nnormals = 1,0; 0.6,0.8\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: root closure exceeded the cap of "
                                           "10000 mirrors\n")

    def test_build_map_past_the_element_cap_exits_two(self, capsys, tmp_path):
        """H4 builds from its roots, and build-map's order field reads its
        14,400 elements, past the cap: exit 2 naming the cap, no traceback."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\nnormals = " + "; ".join(
            ",".join("%.17g" % x for x in row) for row in NORMALS["H4"]) + "\n")
        code, out, err = run(capsys, "build-map", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: group closure exceeded the cap of "
                                           "10000 elements\n")

    def test_a_non_finite_grid_box_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[grid]\nbox_min = nan,0\n"
                       "box_max = 1,1\nnodes = 3,3\n")
        code, out, err = run(capsys, "grid", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: box_min, box_max and their "
                                           "difference must be finite\n")

    def test_unknown_preset_fails_before_computation(self, capsys):
        code, _, err = run(capsys, "verify", "--preset", "e8")
        assert code == 2
        assert "unknown preset" in err

    @pytest.mark.parametrize("preset,order", [("A3", 24), ("I2-3", 6), ("i2(3)", 6),
                                              ("i2-5", 10)])
    def test_group_order_checked_for_every_preset_spelling(self, capsys, monkeypatch,
                                                           preset, order):
        expected = []

        def record(chain, count, seed, expected_order):
            expected.append(expected_order)
            return []

        monkeypatch.setattr(cli, "run_verification", record)
        code, _, _ = run(capsys, "verify", "--preset", preset)
        assert code == 0
        assert expected == [order]

    def test_default_suite_passes_with_profile_monotonicity(self, capsys, tmp_path):
        # Every derivative of the profile up to order 4 is monotone on
        # (0, 0.2], so the whole suite passes: exit 0, no FAIL line, and
        # all five "nondecreasing" checks are in the JSON and passed.
        out_path = tmp_path / "verify.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[sampling]\ncount = 25\nseed = 0\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg),
                           "--out", str(out_path))
        assert code == 0
        assert not [l for l in out.splitlines() if l.startswith("FAIL")]
        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True
        mono = [c for c in doc["checks"] if "nondecreasing" in c["name"]]
        assert len(mono) == 5
        assert all(c["passed"] for c in mono)


# ---------------------------------------------------------------------------
# cross-cutting behavior
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_grid_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[grid]\n"
                       "box_min = -1.5,-1.5\nbox_max = 1.5,1.5\nnodes = 4,4\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "grid", "--config", str(cfg), "--out", str(a))[0] == 0
        assert run(capsys, "grid", "--config", str(cfg), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_probe_byte_identical_per_seed(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[group]\npreset = b2\n\n[sampling]\ncount = 3\nseed = 5\n")
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        run(capsys, "probe", "--config", str(cfg), "--out", str(a))
        run(capsys, "probe", "--config", str(cfg), "--out", str(b))
        run(capsys, "probe", "--config", str(cfg), "--out", str(c), "--seed", "6")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "grid", "--config", "nowhere.cfg")
        assert code == 2
        assert "cannot read config" in err
