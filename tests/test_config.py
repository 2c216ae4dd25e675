from dataclasses import replace

import numpy as np
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
from fracdim.solver import scheme_for


MINIMAL = """
name = demo
hurst = 0.5
dim = 1
n_points = 4096
"""


def test_minimal_document_fills_defaults():
    spec = parse_spec(MINIMAL)
    assert spec.scheme == "step2_davie"
    assert spec.ensemble == 1
    assert spec.fields == ("identity",)
    assert spec.t_end == 1.0
    assert spec.base_seed == 0


def test_hurst_out_of_range_message():
    with pytest.raises(ConfigError, match=r"hurst must lie in \(0.25, 1\)"):
        parse_spec("name = x\nhurst = 0.2\n")


def test_scheme_auto_resolves_step3_for_low_hurst():
    # the scheme is derived from H: step 3 at or below 1/3, step 2 above
    assert ExperimentSpec(name="x", hurst=0.3).scheme == "step3"
    assert ExperimentSpec(name="x", hurst=1 / 3).scheme == "step3"
    assert ExperimentSpec(name="x", hurst=0.35).scheme == "step2_davie"


def test_step2_rejected_for_low_hurst():
    # a config cannot ask for a scheme, so it cannot ask for step 2 at H <= 1/3
    with pytest.raises(ConfigError, match=r"unknown key 'scheme' \(line 3\)"):
        parse_spec("name = x\nhurst = 0.3\nscheme = step2_davie\n")
    with pytest.raises(ValueError, match="step3"):
        scheme_for(0.3, "step2_davie")


@pytest.mark.parametrize(
    "line", ["generator = cholesky", "scheme = auto", "scheme = step3", "t_start = 0.5"]
)
def test_derived_keys_rejected_with_their_line(line):
    with pytest.raises(ConfigError, match=rf"unknown key '{line.split()[0]}' \(line 3\)"):
        parse_spec(f"name = x\nhurst = 0.5\n{line}\n")
    with pytest.raises(TypeError):
        ExperimentSpec(name="x", hurst=0.5, **dict([line.split(" = ")]))


@pytest.mark.parametrize(
    "text, message",
    [
        ("name = x\nhurst = 0.5\nhurst = 0.7\n", r"duplicate key 'hurst' \(lines 2 and 3\)"),
        ("name = x\nhurst = 0.5\n[tail]\nhalvings = 3\ns = 0.1\nhalvings = 5\n",
         r"duplicate key 'halvings' in \[tail\] \(lines 4 and 6\)"),
        ("name = x\nhurst = 0.5\n[mu]\ndelta = 0.2\n[tail]\ns = 0.1\n[mu]\ndelta = 0.3\n",
         r"duplicate key 'delta' in \[mu\] \(lines 4 and 8\)"),
        ("name = x\nhurst = 0.5\nfields = identity, identity\n",
         r"duplicate name 'identity' in fields"),
        ("name = x\nhurst = 0.5\ntasks = tail, mu, tail\n", r"duplicate name 'tail' in tasks"),
    ],
    ids=["top_level", "in_section", "in_reopened_section", "fields", "tasks"],
)
def test_duplicate_key_rejected(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_spec(text)


def test_same_key_in_two_sections_allowed():
    spec = parse_spec("name = x\nhurst = 0.5\n[tail]\ns = 0.1\n[density]\ns = 0.2\n")
    assert spec.estimator_params == {"tail": {"s": 0.1}, "density": {"s": 0.2}}


def test_non_power_of_two_points_rejected():
    with pytest.raises(ConfigError, match="power of two"):
        parse_spec("name = x\nhurst = 0.5\nn_points = 1000\n")


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_t_end_must_be_positive_and_finite(value):
    with pytest.raises(ConfigError, match="t_end must be a positive finite number"):
        parse_spec(f"name = x\nhurst = 0.5\nt_end = {value}\n")


def test_empty_fields_rejected():
    # with no field set a dim run would test nothing and a tail run would fail
    with pytest.raises(ConfigError, match=r"\bfields\b"):
        parse_spec("name = x\nhurst = 0.5\nfields =\ntasks = tail\n")
    with pytest.raises(ConfigError, match=r"\bfields\b"):
        ExperimentSpec(name="x", hurst=0.5, fields=())


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
    assert spec.estimator_params == {"tail": {"s": 0.0, "t": 0.5, "halvings": 3}}


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


@pytest.mark.parametrize(
    "task, key, section, top",
    [
        ("energy", "levels", "levels = 1", ""),
        ("energy", "levels", "levels = 4", "n_points = 4\n"),
        ("mu", "sharpness", "sharpness = 4", ""),
        ("mu", "sharpness", "sharpness = 16,4", ""),
        ("mu", "sharpness", "sharpness = 0,4", ""),
        ("mu", "t_lo", "t_lo = 0", ""),
        ("mu", "t_lo", "t_lo = 1.0", ""),
        ("levelset", "t_lo", "t_lo = 0.9\nt_hi = 0.5", ""),
        ("levelset", "t_lo", "t_lo = 0.5\nt_hi = 0.5", ""),
        ("levelset", "t_lo", "t_lo = -0.1", ""),
        ("levelset", "t_hi", "t_hi = 1.5", ""),
        ("tail", "s", "s = 0.8\nt = 0.5", ""),
        ("tail", "s", "s = -0.1", ""),
        ("tail", "t", "t = 1.5", ""),
        ("density", "s", "s = 0.8\nt = 0.5", ""),
        ("density", "s", "s = 0.05", ""),
        ("density", "t", "t = 1.5", ""),
        ("bivariate", "s", "s = 0.05", ""),
        ("bivariate", "s", "s = 0.75\nt = 0.25", ""),
        ("bivariate", "t", "t = 0.75", "t_end = 0.5\n"),
    ],
)
def test_unusable_task_setting_rejected(task, key, section, top):
    names_both = rf"(?=.*\[{task}\])(?=.*\b{key}\b)"
    text = f"name = x\nhurst = 0.5\n{top}tasks = {task}\n[{task}]\n{section}\n"
    with pytest.raises(ConfigError, match=names_both):
        parse_spec(text)


def test_unusable_setting_of_a_requested_task_fails_before_any_solve(tmp_path, monkeypatch):
    from fracdim import config, harness

    def no_solve(*args):
        raise AssertionError("a member was solved")

    monkeypatch.setattr(config, "generate_driver", no_solve)
    spec = parse_spec(f"name = x\nhurst = 0.5\noutput_dir = {tmp_path}\n[mu]\nsharpness = 4\n")
    with pytest.raises(ConfigError, match=r"\[mu\] sharpness"):
        harness.run(spec, tasks=("mu",))


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
    # every grid starts at 0 and is drawn through circulant
    spec = ExperimentSpec(name="x", hurst=0.6, n_points=64, base_seed=9)
    direct = fbm.generate_circulant(spec.grid, 1, 0.6, 9)
    assert np.array_equal(generate_driver(spec, [0])[0], direct.values)


@pytest.mark.parametrize("chunk", [1, 3, None], ids=["1", "3", "whole"])
@pytest.mark.parametrize("dim", [1, 2], ids=["circulant-d1", "circulant-d2"])
def test_identity_member_solution_does_not_depend_on_its_chunk(monkeypatch, chunk, dim):
    from fracdim import config
    from fracdim.fields import resolve_fields
    from fracdim.solver import _constant_field_path

    spec = ExperimentSpec(name="x", hurst=0.4, dim=dim, n_points=64, ensemble=8, base_seed=7)
    if chunk is not None:
        monkeypatch.setattr(config, "_BLOCK_STATES", chunk * spec.n_points)
    fs = resolve_fields("identity", dim)
    sols = {k: values for done, states, _ in config.solve_block(spec, range(spec.ensemble))
            for k, values in zip(done, states)}
    assert list(sols) == list(range(spec.ensemble))
    for k, values in sols.items():
        # the member's own draw and exact path, as one member alone
        driver = generate_driver(spec, [k])[0]
        alone = _constant_field_path(fs, np.zeros(dim), driver)
        assert config.solve_member(spec, k).seed == 7 + k
        assert values.tobytes() == alone.tobytes()


@pytest.mark.parametrize("fields, dim", [("identity", 1), ("elliptic_sin_2d", 2)])
def test_chunk_budget_is_divided_by_the_step_count(monkeypatch, fields, dim):
    # every field set shares one budget of member-steps; a 2^6-step member holds 2^6
    from fracdim import config

    spec = ExperimentSpec(name="x", hurst=0.75, dim=dim, n_points=64, ensemble=10,
                          fields=(fields,))
    monkeypatch.setattr(config, "_BLOCK_STATES", 4 * 64)
    chunks = [done for done, _, _ in config.solve_block(spec, range(spec.ensemble))]
    assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


def test_circulant_requires_zero_start():
    # a spec's grid always starts at 0; a grid built directly may not
    with pytest.raises(ValueError, match="starting at 0"):
        fbm.generate_circulant(fbm.TimeGrid(65, 0.5, 1.0), 1, 0.5, 0)


def test_member_seeds_must_fit_u64():
    # .frd files store the seed as u64; a negative seed would wrap to 2^64 - 1
    with pytest.raises(ConfigError, match=r"\[0, 2\^64\)"):
        ExperimentSpec(name="x", hurst=0.5, base_seed=-1)
    top = 2**64 - 4
    assert ExperimentSpec(name="x", hurst=0.5, base_seed=top, ensemble=4).base_seed == top
    with pytest.raises(ConfigError, match="2\\^64"):
        ExperimentSpec(name="x", hurst=0.5, base_seed=top, ensemble=5)
