"""Run configuration shared by condition evaluation, sweeps and the CLI.

Every report embeds a snapshot of this config so results are reproducible
from their own payload. A config instance also keeps the conditions compiled
under it (``RunConfig.compiled``); equality, hashing, ``repr``, ``to_dict``
and pickling read the fields only.
"""

from __future__ import annotations

import sys
from functools import cached_property

from .errors import ParseError
from .model import SYMBOLS
from .record import Record

AGGREGATION_MODES = ("conjunction", "quorum")
INTERSECTION_MODES = ("product", "min")
GUARD_MODES = ("vacuous", "skip", "violated")
OUTPUT_FORMATS = ("json", "csv")

#: Largest horizon_T / horizon_dt: S13's integrals visit about that many nodes.
MAX_HORIZON_NODES = 100_000


class RunConfig(Record):
    # tolerances
    rel_tol: float = 0.05          # "similar" comparisons (e.g. I_i vs psi_b)
    zero_tol: float = 0.01         # |derivative| treated as zero
    fd_step_scale: float = 1e-3    # h = fd_step_scale * max(1, |x0|)
    # aggregation
    aggregation: str = "conjunction"
    quorum: float = 0.8
    quorum_violations_block: bool = False
    # interpretation switches
    intersection: str = "product"  # reading of rho_i ∩ rho_p
    guard_mode: str = "vacuous"    # failed guard: vacuous | skip | violated
    b1_guard_joint: bool = False   # treat B1's utility clause as a conjunct
    seller_uses_U_sa: bool = False # substitute U_sa for U_a in S3/S7
    w5_driver: str = "B_b"         # driver for W5's unsubscripted cost term
    # horizon integral
    horizon_T: float = 1.0
    horizon_dt: float = 0.125
    # reporting
    output_format: str = "json"

    def __post_init__(self):
        # the annotations are their text (PEP 563)
        for (name, kind), v in zip(RunConfig.__annotations__.items(), self._values()):
            if kind == "float":
                # ints stay ints: rel_tol 1 and 1.0 print differently in notes;
                # the comparisons are exact, so an int past every float fails
                if isinstance(v, bool) or not isinstance(v, (int, float)) \
                        or not -sys.float_info.max <= v <= sys.float_info.max:
                    raise ParseError(f"{name} = {v!r} must be a finite number")
            elif not isinstance(v, {"bool": bool, "str": str}[kind]):
                raise ParseError(f"{name} = {v!r} must be a {kind}")
        if not (0.0 < self.quorum <= 1.0):
            raise ParseError(f"quorum = {self.quorum} must lie in (0, 1]")
        if not (self.horizon_T > 0 and 0 < self.horizon_dt <= self.horizon_T):
            raise ParseError("require horizon_T > 0 and 0 < horizon_dt <= horizon_T")
        if self.horizon_T / self.horizon_dt > MAX_HORIZON_NODES:
            raise ParseError(f"horizon_T / horizon_dt = {self.horizon_T / self.horizon_dt:g} "
                             f"exceeds {MAX_HORIZON_NODES} horizon nodes")
        if self.rel_tol <= 0 or self.zero_tol < 0 or self.fd_step_scale <= 0:
            raise ParseError("tolerances must be positive (zero_tol may be 0)")
        for name, value, allowed in (
            ("aggregation", self.aggregation, AGGREGATION_MODES),
            ("intersection", self.intersection, INTERSECTION_MODES),
            ("guard_mode", self.guard_mode, GUARD_MODES),
            ("output_format", self.output_format, OUTPUT_FORMATS),
        ):
            if value not in allowed:
                raise ParseError(f"{name} = {value!r} not in {allowed}")
        if self.w5_driver not in SYMBOLS:
            raise ParseError(f"w5_driver = {self.w5_driver!r} is not a known symbol")

    @cached_property
    def compiled(self) -> dict:
        """The 44 conditions compiled under this config, built on first use
        (``conditions.compile_conditions``): per condition its form and the
        one evaluator that ``decide``, sweep blocks and ``sensitivity`` all
        run. Kept by this instance only: equal configs can print differently
        (rel_tol 1 and 1.0), and notes quote the config's values as text."""
        from .conditions import compile_conditions  # conditions imports config

        return compile_conditions(self)


#: The config of every call that passes none, so such calls share one
#: compiled table (``RunConfig.compiled``).
DEFAULT_CONFIG = RunConfig()
