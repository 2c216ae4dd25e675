from dataclasses import replace

import pytest

from fracdim import fbm
from fracdim.config import (
    ConfigError,
    ExperimentSpec,
    _parse_scalar,
    generate_driver,
    member_seed,
    parse_spec,
)


MINIMAL = """
name = demo
hurst = 0.5
dim = 1
n_points = 4096
"""


def test_minimal_document_fills_defaults():
    spec = parse_spec(MINIMAL)
    assert spec.generator == "circulant"
    assert spec.scheme == "step2_davie"
    assert spec.ensemble == 1
    assert spec.fields == ("identity",)
    assert spec.t_range == (0.0, 1.0)
    assert spec.base_seed == 0


def test_hurst_out_of_range_message():
    with pytest.raises(ConfigError, match=r"hurst must lie in \(0.25, 1\)"):
        parse_spec("name = x\nhurst = 0.2\n")


def test_scheme_auto_resolves_step3_for_low_hurst():
    spec = parse_spec("name = x\nhurst = 0.3\nscheme = auto\n")
    assert spec.scheme == "step3"


def test_step2_rejected_for_low_hurst():
    with pytest.raises(ConfigError, match="step3"):
        parse_spec("name = x\nhurst = 0.3\nscheme = step2_davie\n")


def test_non_power_of_two_points_rejected():
    with pytest.raises(ConfigError, match="power of two"):
        parse_spec("name = x\nhurst = 0.5\nn_points = 1000\n")


def test_unknown_field_catalog_name_rejected():
    with pytest.raises(ConfigError, match="unknown field catalog name"):
        parse_spec("name = x\nhurst = 0.5\nfields = wobble\n")


def test_field_dimension_mismatch_rejected():
    with pytest.raises(ConfigError, match="requires dim=2"):
        parse_spec("name = x\nhurst = 0.5\ndim = 1\nfields = elliptic_sin_2d\n")


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'wibble'"):
        parse_spec("name = x\nhurst = 0.5\nwibble = 3\n")


def test_unknown_task_rejected():
    with pytest.raises(ConfigError, match="unknown task"):
        parse_spec("name = x\nhurst = 0.5\ntasks = teleport\n")
    with pytest.raises(ConfigError, match="unknown task section"):
        parse_spec("name = x\nhurst = 0.5\n[teleport]\nfoo = 1\n")


def test_sections_collect_estimator_params():
    spec = parse_spec(
        "name = x\nhurst = 0.5\ntasks = tail\n[tail]\ns = 0.0\nt = 0.5\nhalvings = 3\n"
    )
    assert spec.task_params("tail") == {"s": 0.0, "t": 0.5, "halvings": 3}
    assert spec.task_params("density") == {}


def test_task_settings_fill_defaults_from_the_spec():
    spec = parse_spec(
        "name = x\nhurst = 0.5\nt_end = 2.0\n[tail]\nhalvings = 3\n[mu]\nsharpness = 8\n"
    )
    tail = spec.task_settings("tail")
    assert (tail["s"], tail["t"], tail["halvings"], tail["tail_r2_floor"]) == (0.0, 2.0, 3, 0.9)
    assert spec.task_settings("density")["t"] == 0.9 * 2.0
    assert spec.task_settings("levelset")["t_hi"] == 2.0
    assert spec.task_settings("mu")["sharpness"] == (8,)


@pytest.mark.parametrize(
    "task, key, value",
    [
        ("dim_image", "octaves", "2.5"),
        ("dim_graph", "slope_tole", "0.2"),
        ("levelset", "slope_tol", "x"),
        ("tail", "halvigns", "9"),
        ("tail", "tail_r2_flor", "0.99"),
        ("density", "t", "late"),
        ("bivariate", "envelope_r2", "0.8"),
        ("energy", "levels", "4.0"),
        ("mu", "sharpness", "4,x"),
    ],
)
def test_bad_section_key_rejected(task, key, value):
    names_both = rf"(?=.*\[{task}\])(?=.*\b{key}\b)"
    with pytest.raises(ConfigError, match=names_both):
        parse_spec(f"name = x\nhurst = 0.5\n[{task}]\n{key} = {value}\n")
    params = {task: {key: _parse_scalar(value)}}  # the value as the parser reads it
    with pytest.raises(ConfigError, match=names_both):
        ExperimentSpec(name="x", hurst=0.5, estimator_params=params)
    with pytest.raises(ConfigError, match=names_both):
        replace(ExperimentSpec(name="x", hurst=0.5), estimator_params=params)


def test_comments_and_blank_lines_ignored():
    spec = parse_spec("# header\nname = x  # trailing\nhurst = 0.5\n\n")
    assert spec.name == "x"


def test_member_seeds_are_base_plus_index():
    spec = ExperimentSpec(name="x", hurst=0.5, base_seed=100)
    assert [member_seed(spec, k) for k in range(3)] == [100, 101, 102]


def test_grid_adds_pinned_origin():
    spec = ExperimentSpec(name="x", hurst=0.5, n_points=256)
    assert spec.grid.n_points == 257
    assert spec.grid.t_start == 0.0


def test_generator_dispatch_matches_direct_calls():
    spec = ExperimentSpec(name="x", hurst=0.6, n_points=64, base_seed=9)
    import numpy as np

    direct = fbm.generate_circulant(spec.grid, 1, 0.6, 9)
    assert np.array_equal(generate_driver(spec, 0).values, direct.values)
    spec2 = ExperimentSpec(name="x", hurst=0.6, n_points=64, base_seed=9, generator="cholesky")
    direct2 = fbm.generate_cholesky(spec2.grid, 1, 0.6, 9)
    assert np.array_equal(generate_driver(spec2, 0).values, direct2.values)


def test_circulant_requires_zero_start():
    with pytest.raises(ConfigError, match="t_start = 0"):
        ExperimentSpec(name="x", hurst=0.5, t_range=(0.5, 1.0))
