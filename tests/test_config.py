"""RunConfig field checks: every malformed field is a ParseError."""

import math

import pytest

from dismed import ParseError, RunConfig


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
