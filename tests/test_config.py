import dataclasses

import numpy as np
import pytest

from orbitfold.config import (
    DEFAULT_PRESET,
    ConfigError,
    RunConfig,
    parse_config,
    serialize_config,
    tube_spec_from_config,
)

FULL_TEXT = """
[group]
preset = b2

[tubes]
c0 = 1.5
k = 3
b = 1:0.05
c = 1:0.8

[probe]
offsets = 1e-2,3e-3,1e-3
orders = 1,2,3

[sampling]
count = 40
seed = 11

[grid]
box_min = -2,-2
box_max = 2,2
nodes = 9,9

[output]
out = run.csv
"""


class TestRoundTrip:
    def test_parse_reads_all_sections(self):
        cfg = parse_config(FULL_TEXT)
        assert cfg.preset == "b2"
        assert cfg.c0 == 1.5
        assert cfg.k == 3
        assert cfg.b == ((1, 0.05),)
        assert cfg.c == ((1, 0.8),)
        assert cfg.offsets == (1e-2, 3e-3, 1e-3)
        assert cfg.orders == (1, 2, 3)
        assert cfg.count == 40
        assert cfg.seed == 11
        assert cfg.nodes == (9, 9)
        assert cfg.out == "run.csv"

    def test_serialize_then_parse_is_identity(self):
        cfg = parse_config(FULL_TEXT)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_normals_round_trip(self):
        cfg = RunConfig(normals=((1.0, 0.0), (-0.7071067811865476, 0.7071067811865475)))
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_defaults_round_trip(self):
        cfg = RunConfig(preset="a3")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_seventeen_digit_floats_survive(self):
        # a value with no short decimal form must come back bit-for-bit
        ugly = 0.1 + 0.2
        cfg = RunConfig(preset="b2", c0=ugly)
        assert parse_config(serialize_config(cfg)).c0 == ugly


class TestValidation:
    def test_needs_exactly_one_group_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig()
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig(preset="b2", normals=((1.0,),))

    def test_config_without_group_takes_the_default(self):
        cfg = parse_config("[probe]\noffsets = 0.3,0.1\n")
        assert cfg.preset == DEFAULT_PRESET == "b2" and cfg.normals is None
        assert cfg.offsets == (0.3, 0.1)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            RunConfig(preset="d4")

    def test_dihedral_preset_spellings_accepted(self):
        for name in ("i2-3", "i2-7", "I2(5)", "i2:4"):
            RunConfig(preset=name)

    def test_ragged_normals_rejected(self):
        with pytest.raises(ConfigError, match="equal width"):
            RunConfig(normals=((1.0, 0.0), (1.0,)))

    @pytest.mark.parametrize("field,value,msg", [
        ("c0", 0.0, "c0"),
        ("c0", -1.0, "c0"),
        ("k", 0, "k"),
        ("count", 0, "count"),
        ("seed", -1, "seed"),
    ])
    def test_positivity(self, field, value, msg):
        with pytest.raises(ConfigError, match=msg):
            RunConfig(preset="b2", **{field: value})

    def test_tube_levels_start_at_one(self):
        with pytest.raises(ConfigError, match="level >= 1"):
            RunConfig(preset="b2", b=((0, 0.1),))
        with pytest.raises(ConfigError, match="positive value"):
            RunConfig(preset="b2", c=((1, -0.5),))

    def test_offsets_must_decrease(self):
        with pytest.raises(ConfigError, match="decreasing"):
            RunConfig(preset="b2", offsets=(1e-3, 1e-2))
        with pytest.raises(ConfigError, match="positive"):
            RunConfig(preset="b2", offsets=(1e-2, 0.0))

    def test_orders_restricted(self):
        with pytest.raises(ConfigError, match="orders"):
            RunConfig(preset="b2", orders=(1, 4))
        with pytest.raises(ConfigError, match="orders"):
            RunConfig(preset="b2", orders=())

    def test_grid_fields_travel_together(self):
        with pytest.raises(ConfigError, match="together"):
            RunConfig(preset="b2", box_min=(-1.0,))

    def test_grid_dimensions_must_agree(self):
        with pytest.raises(ConfigError, match="one dimension"):
            RunConfig(preset="b2", box_min=(-1.0,), box_max=(1.0,), nodes=(3, 3))

    def test_box_must_be_ordered(self):
        with pytest.raises(ConfigError, match="dominate"):
            RunConfig(preset="b2", box_min=(1.0,), box_max=(-1.0,), nodes=(3,))

    @pytest.mark.parametrize("box_min,box_max", [
        ("nan,0", "1,1"), ("-inf,0", "1,1"), ("-1,-1", "1,inf"), ("-1,-1", "nan,1"),
        ("-1e308,-1", "1e308,1"),       # finite, but box_max - box_min overflows
    ])
    def test_box_must_be_finite(self, box_min, box_max):
        with pytest.raises(ConfigError,
                           match="box_min, box_max and their difference must be finite"):
            parse_config(f"[group]\npreset = b2\n[grid]\nbox_min = {box_min}\n"
                         f"box_max = {box_max}\nnodes = 3,3\n")

    def test_zero_nodes_allowed(self):
        cfg = RunConfig(preset="b2", box_min=(-1.0,), box_max=(1.0,), nodes=(0,))
        assert cfg.nodes == (0,)


class TestParseErrors:
    def test_garbage_text(self):
        with pytest.raises(ConfigError, match="parse"):
            parse_config("not an ini file [[[")

    def test_bad_number_in_list(self):
        with pytest.raises(ConfigError, match="comma-separated"):
            parse_config("[group]\npreset = b2\n[probe]\noffsets = 1e-2,abc\n")

    def test_bad_level_map(self):
        with pytest.raises(ConfigError, match="level:value"):
            parse_config("[group]\npreset = b2\n[tubes]\nb = nonsense\n")

    def test_bad_scalar(self):
        with pytest.raises(ConfigError, match="tubes.c0"):
            parse_config("[group]\npreset = b2\n[tubes]\nc0 = many\n")


class TestGroupConstruction:
    def test_preset_builds(self):
        group = RunConfig(preset="b2").build_group()
        assert len(group.elements) == 8

    def test_normals_build(self):
        group = RunConfig(normals=((1.0,),)).build_group()
        assert len(group.elements) == 2

    def test_tube_spec_merges_overrides(self):
        cfg = parse_config("[group]\npreset = b2\n[tubes]\nb = 1:0.07\n")
        group, spec = tube_spec_from_config(cfg)
        assert spec.b[1] == 0.07
        assert 1 in spec.c          # untouched level keeps its default
        assert spec.c0 == 1.0

    def test_replace_revalidates(self):
        cfg = RunConfig(preset="b2")
        with pytest.raises(ConfigError, match="unknown preset"):
            dataclasses.replace(cfg, preset="qq")
