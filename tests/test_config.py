"""RunConfig field checks: every malformed field is a ParseError."""

import math

import pytest

from dismed import ParseError, RunConfig
from dismed.config import MAX_HORIZON_NODES


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan),
    ("rel_tol", "0.1"),
    ("rel_tol", True),
    ("zero_tol", math.nan),
    ("fd_step_scale", math.nan),
    ("fd_step_scale", math.inf),
    ("quorum", None),
    ("horizon_T", math.inf),
    ("horizon_dt", -math.inf),
    ("aggregation", 1),
    ("w5_driver", None),
    ("output_format", b"json"),
    ("b1_guard_joint", 1),
    ("quorum_violations_block", "false"),
    ("seller_uses_U_sa", None),
])
def test_mistyped_or_non_finite_field_is_parse_error(field, value):
    with pytest.raises(ParseError, match=field):
        RunConfig(**{field: value})
    with pytest.raises(ParseError, match=field):
        RunConfig.from_dict({field: value})


@pytest.mark.parametrize("horizon", [
    {"horizon_dt": 1e-9},
    {"horizon_T": 1e6, "horizon_dt": 1.0},
    {"horizon_T": 100_000.0, "horizon_dt": 0.5},
])
def test_horizon_node_count_is_capped(horizon):
    assert horizon.get("horizon_T", 1.0) / horizon["horizon_dt"] > MAX_HORIZON_NODES
    with pytest.raises(ParseError, match="horizon"):
        RunConfig(**horizon)
    with pytest.raises(ParseError, match="horizon"):
        RunConfig.from_dict(horizon)


@pytest.mark.parametrize("horizon", [
    {},                                                   # the golden default: dt 0.125
    {"horizon_T": 2.0, "horizon_dt": 0.25},               # the golden "steps" config
    {"horizon_T": 100_000.0, "horizon_dt": 1.0},          # exactly at the cap
])
def test_horizons_up_to_the_cap_are_accepted(horizon):
    cfg = RunConfig.from_dict(horizon)
    assert cfg.horizon_T / cfg.horizon_dt <= MAX_HORIZON_NODES
