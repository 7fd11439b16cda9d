"""Registry and evaluator for the three disintermediation condition sets.

Each condition is built as a small form (``build_form``): an optional guard
part, whose ``holds`` decides whether the others count, one or more
comparison parts (joined conjunctively), and the notes the verdict must
carry. :func:`compile_conditions` compiles the forms into closures; each
RunConfig instance keeps its table (``RunConfig.compiled``), so ``decide``,
``eval_condition_set``, ``eval_condition``, sweeps and sensitivity build no
forms after its first use and dispatch on no node types. A compiled part
(:func:`compile_part`) runs on any Scenario: on one scenario its results are
wrapped here into traced verdicts with notes, and on a block of draws
``dismed.batch`` turns them into per-draw status codes. Both paths apply
:func:`_guard_failure` and :func:`_aggregate`. Evaluation is pure:
undecidable comparisons produce Indeterminate verdicts, never exceptions,
and every non-vacuous verdict keeps its lhs/rhs trace values.

Two mirrored families have one builder each, and their descriptions are
rendered (``_dtext``) from the same arguments that build their derivatives:
the social-capital conditions B16-B19 / S15-S18 (party, against utility or
the joint closing probability, order) and the conditions that bound one
derivative by another at two orders (B6, B7, B8, B10, B12, S2, S3). Every
other condition has its own builder and literal description.

Interpretation choices that the configuration can steer:
  * guard failures default to vacuous satisfaction (``guard_mode``);
  * B1's "(U_iw > U_ip)" clause is a guard by default (``b1_guard_joint``);
  * probability intersection is a product by default (``intersection``);
  * S3/S7 use U_a literally unless ``seller_uses_U_sa`` is set;
  * W5's unsubscripted cost driver defaults to B_b (``w5_driver``).
Anomalies kept literally (and flagged in notes): S14's squared pi_sb term,
S2's I_o inside the broker-channel bundle, S8's "dP > dpi_s" fragment read as
dP/dpi_s, and W6/W7 differentials taken with respect to I_i.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Callable, Optional, Sequence

from .calculus import (
    Add,
    Axis,
    Const,
    Deriv,
    Expr,
    ExtendedValue,
    IntegralE,
    Joint,
    MaxE,
    MinE,
    Mul,
    Sub,
    Sym,
    _close,
    compile_expression,
    iabs,
    symbols_of,
    # Not called here: perfbench's --trace 1 wraps this module's binding.
    evaluate_expression,  # noqa: F401
)
from .config import RunConfig
from .model import Scenario
from .record import Factory, Record


class ConditionSet(str, Enum):
    BUYER = "buyer"
    BROKER_WEB = "broker_web"
    SELLER = "seller"


class Status(str, Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"
    VACUOUS = "VacuouslySatisfied"
    INDETERMINATE = "Indeterminate"


class SetDecision(str, Enum):
    SATISFIED = "Satisfied"
    NOT_SATISFIED = "NotSatisfied"
    INDETERMINATE = "Indeterminate"


SET_SIZES = {ConditionSet.BUYER: 19, ConditionSet.BROKER_WEB: 7, ConditionSet.SELLER: 18}
_PREFIX = {ConditionSet.BUYER: "B", ConditionSet.BROKER_WEB: "W", ConditionSet.SELLER: "S"}
_BY_PREFIX = {v: k for k, v in _PREFIX.items()}


class ConditionId(Record):
    set: ConditionSet
    index: int

    def __post_init__(self):
        if not 1 <= self.index <= SET_SIZES[self.set]:
            raise ValueError(f"{self.set.value} index {self.index} out of range")

    @property
    def label(self) -> str:
        return f"{_PREFIX[self.set]}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "ConditionId":
        text = text.strip()
        if not text or text[0].upper() not in _BY_PREFIX:
            raise ValueError(f"cannot parse condition id {text!r}")
        return cls(_BY_PREFIX[text[0].upper()], int(text[1:]))


_IDS = {cset: tuple(ConditionId(cset, i) for i in range(1, SET_SIZES[cset] + 1))
        for cset in ConditionSet}


def condition_ids(cset: ConditionSet) -> tuple[ConditionId, ...]:
    return _IDS[cset]


ALL_CONDITION_IDS: tuple[ConditionId, ...] = (
    condition_ids(ConditionSet.BUYER)
    + condition_ids(ConditionSet.BROKER_WEB)
    + condition_ids(ConditionSet.SELLER)
)


# A context spec is None (base), ("state", name) or ("argmax", candidates).
CtxSpec = Optional[tuple]


ARGMAX_ALL: CtxSpec = ("argmax", ("E_s", "E_p", "E_m"))
ARGMAX_EXCLUSIVE: CtxSpec = ("argmax", ("E_s", "E_p"))


class Part(Record):
    desc: str
    op: str  # "gt" | "lt" | "approx" | "approx_zero"
    lhs: Expr
    rhs: Optional[Expr] = None
    lhs_ctx: CtxSpec = None
    rhs_ctx: CtxSpec = None


class Form(Record):
    guard: Optional[Part]
    parts: tuple[Part, ...]
    notes: tuple[str, ...] = ()


class PartTrace(Record):
    desc: str
    op: str
    lhs: ExtendedValue
    rhs: Optional[ExtendedValue]
    holds: Optional[bool]

    def __init__(self, desc, op, lhs, rhs, holds):  # built per part on every decide
        self.__dict__.update(desc=desc, op=op, lhs=lhs, rhs=rhs, holds=holds)

    def to_dict(self) -> dict:
        return {
            "check": self.desc,
            "op": self.op,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json() if self.rhs is not None else None,
            "holds": self.holds,
        }


class ConditionVerdict(Record):
    id: ConditionId
    status: Status
    lhs: Optional[ExtendedValue]
    rhs: Optional[ExtendedValue]
    guard_status: Optional[bool]
    notes: tuple[str, ...]
    parts: tuple[PartTrace, ...]
    skipped: bool = False

    def __init__(self, id, status, lhs, rhs, guard_status, notes, parts, skipped=False):
        self.__dict__.update(id=id, status=status, lhs=lhs, rhs=rhs, guard_status=guard_status,
                             notes=notes, parts=parts, skipped=skipped)

    def to_dict(self) -> dict:
        return {
            "id": self.id.label,
            "status": self.status.value,
            "lhs": self.lhs.to_json() if self.lhs is not None else None,
            "rhs": self.rhs.to_json() if self.rhs is not None else None,
            "guard_status": self.guard_status,
            "skipped": self.skipped,
            "notes": list(self.notes),
            "parts": [p.to_dict() for p in self.parts],
        }


class ConditionReport(Record):
    scenario_label: str
    set: ConditionSet
    verdicts: tuple[ConditionVerdict, ...]
    aggregate: SetDecision
    config: dict = Factory(dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_label,
            "set": self.set.value,
            "aggregate": self.aggregate.value,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "config": dict(self.config),
        }

    def statuses(self) -> dict[str, Status]:
        return {v.id.label: v.status for v in self.verdicts}


class DecisionSummary(Record):
    scenario_label: str
    buyer_disintermediates: SetDecision
    broker_provides_web_info: SetDecision
    seller_disintermediates: SetDecision
    reports: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_label,
            "buyer_disintermediates": self.buyer_disintermediates.value,
            "broker_provides_web_info": self.broker_provides_web_info.value,
            "seller_disintermediates": self.seller_disintermediates.value,
            "reports": {k: r.to_dict() for k, r in self.reports.items()},
        }


# ---------------------------------------------------------------------------
# Expression shorthand
# ---------------------------------------------------------------------------

def _a(*names: str) -> Expr:
    return Sym(names[0]) if len(names) == 1 else Add(tuple(Sym(n) for n in names))


def _sum_sub(plus: Sequence[str], minus: Sequence[str]) -> Expr:
    return Sub(_a(*plus), _a(*minus))


def _cP() -> Expr:
    return Mul(Sym("c"), Sym("P"))


def _d(driven: str, driver: str | tuple[str, ...], order: int = 1) -> Deriv:
    """d^order driven / d driver: ``driven`` is a symbol, a "+"-bundle or a
    joint "a^b"; ``driver`` a symbol, a "+"-bundle or a tuple read as its max."""
    expr = Joint(*driven.split("^")) if "^" in driven else _a(*driven.split("+"))
    axis = Axis.max_of(*driver) if isinstance(driver, tuple) else Axis.sym(driver)
    return Deriv(expr, axis, order)


def _dtext(driven: str, driver: str | tuple[str, ...], order: int) -> str:
    """``_d(driven, driver, order)`` as the descriptions write it, e.g.
    ``d2 (I_p+I_i)/d(U_ip+U_iw)2`` or ``d SC_b/d max(psi_bi,psi_b)``."""
    n = str(order) if order > 1 else ""
    if "+" in driven or "^" in driven:
        driven = f"({driven})"
    if isinstance(driver, tuple):
        driver = f" max({','.join(driver)})"
    elif "+" in driver:
        driver = f"({driver})"
    return f"d{n} {driven}/d{driver}{n}"


# ---------------------------------------------------------------------------
# The condition registry
# ---------------------------------------------------------------------------

def _b1(cfg: RunConfig) -> Form:
    parts = [
        Part("I_i > I_p", "gt", Sym("I_i"), Sym("I_p")),
        Part("I_i + I_o > I_p", "gt", _a("I_i", "I_o"), Sym("I_p")),
    ]
    if cfg.b1_guard_joint:
        parts.insert(0, Part("U_iw > U_ip", "gt", Sym("U_iw"), Sym("U_ip")))
        return Form(None, tuple(parts),
                    ("utility clause (U_iw > U_ip) treated as a joint conjunct",))
    return Form(Part("U_iw > U_ip", "gt", Sym("U_iw"), Sym("U_ip")), tuple(parts),
                ("utility clause (U_iw > U_ip) treated as a guard",))


def _b2(cfg: RunConfig) -> Form:
    return Form(None, (Part("I_i ~ psi_b", "approx", Sym("I_i"), Sym("psi_b")),),
                (f"similarity uses rel_tol = {cfg.rel_tol}",))


# B3 and B4 are one comparison under two guards.
_B3_B4_PART = Part("cP + psi_b + pi_b > psi_bi + pi_i + U_iw", "gt",
                   Add((_cP(), Sym("psi_b"), Sym("pi_b"))), _a("psi_bi", "pi_i", "U_iw"),
                   lhs_ctx=ARGMAX_ALL, rhs_ctx=None)
_B3_B4_NOTES = ("lhs evaluated under the argmax listing-state overlay; rhs at base",)


def _b3(cfg: RunConfig) -> Form:
    return Form(Part("P_s ~ P_b", "approx", Sym("P_s"), Sym("P_b"), ARGMAX_ALL, ARGMAX_ALL),
                (_B3_B4_PART,), _B3_B4_NOTES)


def _b4(cfg: RunConfig) -> Form:
    return Form(Part("U_iw > U_ip", "gt", Sym("U_iw"), Sym("U_ip"), ARGMAX_ALL, ARGMAX_ALL),
                (_B3_B4_PART,), _B3_B4_NOTES)


def _b5(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("psi_b > psi_bi", "gt", Sym("psi_b"), Sym("psi_bi")),
        Part("U_iw > U_ip", "gt", Sym("U_iw"), Sym("U_ip")),
    ))


def _b9(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("d (I_p+I_i)/d max(E_m,E_p,E_s) < 1", "lt",
             _d("I_p+I_i", ("E_m", "E_p", "E_s"), 1), Const(1.0)),
    ), ("derivative taken along the argmax listing-state value",))


def _b11(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("d3 (I_p+I_i)/d(U_ip+U_iw)3 < 1", "lt",
             _d("I_p+I_i", "U_ip+U_iw", 3), Const(1.0)),
        Part("d3 I_o/dU_a3 < 1", "lt", _d("I_o", "U_a", 3), Const(1.0)),
    ))


def _b13(cfg: RunConfig) -> Form:
    rhs = Add((_cP(), Sym("pi_sb"), Sym("I_p"), Sym("I_i")))
    return Form(None, (Part("u_hat_s < cP + pi_sb + I_p + I_i", "lt",
                            Sym("u_hat_s"), rhs),))


def _b14(cfg: RunConfig) -> Form:
    return Form(None, (Part("d u_hat_s/d(pi_sb+I_p+I_i) < 1", "lt",
                            _d("u_hat_s", "pi_sb+I_p+I_i", 1), Const(1.0)),))


def _b15(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("SC_b - psi_bi - psi_b > U_ip + U_iw + I_p + I_i + pi_b", "gt",
             _sum_sub(["SC_b"], ["psi_bi", "psi_b"]),
             _a("U_ip", "U_iw", "I_p", "I_i", "pi_b")),
    ))


def _w1(cfg: RunConfig) -> Form:
    ctx: CtxSpec = ("state", "E_p")
    lhs = Sub(Mul(_cP(), Sym("rho_p")), _a("B_b", "B_s"))
    return Form(
        Part("psi_b > psi_bi", "gt", Sym("psi_b"), Sym("psi_bi"), ctx, ctx),
        (Part("cP*rho_p - B_b - B_s < B_i", "lt", lhs, Sym("B_i"),
              lhs_ctx=ctx, rhs_ctx=ctx),),
        ("evaluated under the E_p listing-state overlay",),
    )


def _w2(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("U_ip < U_iw", "lt", Sym("U_ip"), Sym("U_iw"),
             lhs_ctx=ARGMAX_EXCLUSIVE, rhs_ctx=ARGMAX_EXCLUSIVE),
    ), ("evaluated under the larger of the E_s / E_p overlays",))


def _w3(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("psi_bi*rho_i > cP*rho_p", "gt",
             Mul(Sym("psi_bi"), Sym("rho_i")), Mul(_cP(), Sym("rho_p"))),
    ))


def _w4(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("d rho_i/d rho_p ~ 0", "approx_zero", _d("rho_i", "rho_p", 1)),
    ), (f"zero means |derivative| <= {cfg.zero_tol}",))


def _w5(cfg: RunConfig) -> Form:
    drv = cfg.w5_driver
    return Form(None, (
        Part(f"d rho_i/d {drv} ~ 0", "approx_zero", _d("rho_i", drv, 1)),
        Part(f"d rho_p/d {drv} ~ 0", "approx_zero", _d("rho_p", drv, 1)),
    ), (f"unsubscripted cost driver resolved to {drv}",
        f"zero means |derivative| <= {cfg.zero_tol}"))


def _w6(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("d B_i/dI_i < d (RC_br+SC_br)/dI_i", "lt",
             _d("B_i", "I_i", 1), _d("RC_br+SC_br", "I_i", 1)),
    ), ("both differentials taken with respect to I_i",))


def _w7(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("d (RC_br+SC_br)/dB_i > 1", "gt", _d("RC_br+SC_br", "B_i", 1), Const(1.0)),
    ))


# S12 is S1 without its joint part.
_S12_PARTS = (Part("rho_s > rho_p", "gt", Sym("rho_s"), Sym("rho_p")),
              Part("rho_s > rho_i", "gt", Sym("rho_s"), Sym("rho_i")))


def _s1(cfg: RunConfig) -> Form:
    return Form(None, (Part("rho_s > rho_p^rho_i", "gt", Sym("rho_s"), Joint("rho_p", "rho_i")),
                       *_S12_PARTS), (f"intersection read as {cfg.intersection}",))


def _seller_web_utility(cfg: RunConfig) -> str:
    return "U_sa" if cfg.seller_uses_U_sa else "U_a"


def _seller_web_note(cfg: RunConfig) -> str:
    return ("U_sa substituted for the seller's web utility" if cfg.seller_uses_U_sa
            else "U_a used literally for the seller's web utility")


def _s4(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("psi_s > psi_si", "gt", Sym("psi_s"), Sym("psi_si")),
        Part("psi_s > psi_si under argmax state", "gt", Sym("psi_s"), Sym("psi_si"),
             lhs_ctx=ARGMAX_ALL, rhs_ctx=ARGMAX_ALL),
    ))


def _s5(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("I_o > I_i + I_p", "gt", Sym("I_o"), _a("I_i", "I_p")),
        Part("I_o > I_i + I_p under argmax state", "gt", Sym("I_o"), _a("I_i", "I_p"),
             lhs_ctx=ARGMAX_ALL, rhs_ctx=ARGMAX_ALL),
    ))


def _s6(cfg: RunConfig) -> Form:
    return Form(None, (Part("d P_s/dP > 1", "gt", _d("P_s", "P", 1), Const(1.0)),))


def _s7(cfg: RunConfig) -> Form:
    ua = _seller_web_utility(cfg)
    return Form(None, (
        Part(f"d pi_sb/d(U_sp+U_sw) > d pi_s/d{ua}", "gt",
             _d("pi_sb", "U_sp+U_sw", 1), _d("pi_s", ua, 1)),
        Part("pi_sb > pi_s", "gt", Sym("pi_sb"), Sym("pi_s")),
    ))


def _s8(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("d P/dpi_sb > max(d P/dpi_s, 1)", "gt",
             _d("P", "pi_sb", 1), MaxE((_d("P", "pi_s", 1), Const(1.0)))),
        Part("d P_s/dpi_sb > max(d P_s/dpi_s, 1)", "gt",
             _d("P_s", "pi_sb", 1), MaxE((_d("P_s", "pi_s", 1), Const(1.0)))),
        Part("d P_s/dP > 1", "gt", _d("P_s", "P", 1), Const(1.0)),
        Part("d P/dc > 1", "gt", _d("P", "c", 1), Const(1.0)),
    ), ("fragment 'dP > dpi_s' read as dP/dpi_s",))


def _s9(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("psi_sb + pi_sb > psi_si + pi_s", "gt",
             _a("psi_sb", "pi_sb"), _a("psi_si", "pi_s")),
        Part("d (psi_sb+pi_sb)/dP_s > d (psi_si+pi_s)/dP_s", "gt",
             _d("psi_sb+pi_sb", "P_s", 1), _d("psi_si+pi_s", "P_s", 1)),
    ))


def _s10(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("d (psi_sb+pi_sb)/dc > d (psi_si+pi_s)/dc", "gt",
             _d("psi_sb+pi_sb", "c", 1), _d("psi_si+pi_s", "c", 1)),
    ))


def _s11(cfg: RunConfig) -> Form:
    return Form(None, (
        Part("d (psi_sb+pi_sb)/dpi_sb > d (psi_si+pi_s)/dpi_sb", "gt",
             _d("psi_sb+pi_sb", "pi_sb", 1), _d("psi_si+pi_s", "pi_sb", 1)),
    ), ("d pi_sb/d pi_sb contributes exactly 1",))


def _s12(cfg: RunConfig) -> Form:
    return Form(None, _S12_PARTS)


def _s13(cfg: RunConfig) -> Form:
    own = Mul(Sym("rho_s"),
              Sub(Sym("P_s"), _a("pi_b", "pi_s", "psi_si")))
    broker_physical = Mul(Sym("rho_p"),
                          Sub(Sym("P"), _a("pi_b", "pi_sb", "psi_s")))
    broker_web = Mul(Joint("rho_i", "rho_p"),
                     Sub(Sym("P"), _a("pi_b", "pi_sb", "psi_sb")))
    return Form(None, (
        Part("integral self-sale surplus > max(broker physical, broker web)", "gt",
             IntegralE(own),
             MaxE((IntegralE(broker_physical), IntegralE(broker_web)))),
    ), (f"trapezoid over [0, {cfg.horizon_T}] at dt = {cfg.horizon_dt}",))


def _s14(cfg: RunConfig) -> Form:
    lhs = Sub(Sym("SC_s"), Add((Sym("psi_si"), Mul(Sym("pi_sb"), Sym("pi_sb")))))
    return Form(None, (
        Part("SC_s - psi_si - pi_sb^2 > U_sw + U_sp + I_p + I_i + pi_sb", "gt",
             lhs, _a("U_sw", "U_sp", "I_p", "I_i", "pi_sb")),
    ), ("pi_sb enters squared, kept literally (suspected transcription artifact)",))


# ---------------------------------------------------------------------------
# The two condition families: one builder each, descriptions from _dtext
# ---------------------------------------------------------------------------

def _two_order(op: str, extreme: str, bound: int, lhs: tuple, rhs: tuple,
               orders: tuple[int, int], cfg: RunConfig, notes: tuple = ()) -> Form:
    """B6-B8, B10, B12, S2 and S3: ``d lhs op extreme(d rhs, bound)`` at each
    of two orders, ``lhs`` and ``rhs`` being (driven, driver) pairs of
    :func:`_d`. A driven name or note given as a function reads the config."""
    if callable(lhs[0]):
        lhs = (lhs[0](cfg), lhs[1])
    sign, combine = {"gt": ">", "lt": "<"}[op], {"min": MinE, "max": MaxE}[extreme]
    return Form(None, tuple(
        Part(f"{_dtext(*lhs, k)} {sign} {extreme}({_dtext(*rhs, k)}, {bound})", op,
             _d(*lhs, k), combine((_d(*rhs, k), Const(float(bound)))))
        for k in orders), tuple(n(cfg) if callable(n) else n for n in notes))


def _social_capital(party: str, against: str, order: int, cfg: RunConfig) -> Form:
    """B16-B19 (party "b") and S15-S18 ("s"): the party's d SC/d
    max(psi_xi,psi_x) > max(bound, d rhs) at ``order`` 1 (bound 1) or 2
    (bound 0), rhs being its utilities against I_p+I_i+pi_b ("utility") or
    the joint closing probability rho_i^rho_p against its utilities ("joint")."""
    utilities = {"b": "U_ip+U_iw", "s": "U_sp+U_sw"}[party]
    lhs = (f"SC_{party}", (f"psi_{party}i", f"psi_{party}"))
    rhs = (utilities, "I_p+I_i+pi_b") if against == "utility" else ("rho_i^rho_p", utilities)
    bound = 1 if order == 1 else 0
    part = Part(f"{_dtext(*lhs, order)} > max({bound}, {_dtext(*rhs, order)})", "gt",
                _d(*lhs, order), MaxE((Const(float(bound)), _d(*rhs, order))))
    return Form(None, (part,), () if against == "utility"
                else (f"intersection read as {cfg.intersection}",))


_BUILDERS: dict[str, Callable[[RunConfig], Form]] = {
    "B1": _b1, "B2": _b2, "B3": _b3, "B4": _b4, "B5": _b5,
    "B6": partial(_two_order, "lt", "min", 1, ("psi_b", "U_ip"), ("psi_bi", "U_iw"), (2, 1)),
    "B7": partial(_two_order, "gt", "min", 0, ("U_iw", "pi_i"), ("U_ip", "pi_b"), (1, 2)),
    "B8": partial(_two_order, "gt", "max", 1, ("I_o", "psi_bi"), ("I_p+I_i", "psi_b"), (2, 1)),
    "B9": _b9,
    "B10": partial(_two_order, "lt", "min", 1, ("I_p+I_i", "U_ip+U_iw"), ("I_o", "U_a"), (1, 2)),
    "B11": _b11,
    "B12": partial(_two_order, "gt", "max", 1, ("P_b", "P"), ("I_o", "I_p+I_i"), (3, 1)),
    "B13": _b13, "B14": _b14, "B15": _b15,
    "B16": partial(_social_capital, "b", "utility", 1),
    "B17": partial(_social_capital, "b", "utility", 2),
    "B18": partial(_social_capital, "b", "joint", 1),
    "B19": partial(_social_capital, "b", "joint", 2),
    "W1": _w1, "W2": _w2, "W3": _w3, "W4": _w4, "W5": _w5, "W6": _w6, "W7": _w7,
    "S1": _s1,
    "S2": partial(_two_order, "gt", "max", 1, ("I_o", "psi_si"), ("I_p+I_o", "psi_sb"), (1, 3),
                  notes=("I_o kept inside the broker-channel bundle as written",)),
    "S3": partial(_two_order, "gt", "max", 1, (_seller_web_utility, "psi_si"),
                  ("U_sp+U_sw", "psi_s"), (1, 3),
                  notes=(_seller_web_note, "bare bracket [x, 1] read as Max[x, 1]")),
    "S4": _s4, "S5": _s5, "S6": _s6, "S7": _s7, "S8": _s8, "S9": _s9, "S10": _s10,
    "S11": _s11, "S12": _s12, "S13": _s13, "S14": _s14,
    "S15": partial(_social_capital, "s", "utility", 1),
    "S16": partial(_social_capital, "s", "utility", 2),
    "S17": partial(_social_capital, "s", "joint", 1),
    "S18": partial(_social_capital, "s", "joint", 2),
}


def build_form(cid: ConditionId, cfg: RunConfig) -> Form:
    return _BUILDERS[cid.label](cfg)


def _ctx_symbols(spec: CtxSpec) -> tuple[str, ...]:
    if spec is None:
        return ()
    kind, arg = spec
    return arg if kind == "argmax" else (arg,)


def referenced_symbols(cid: ConditionId, cfg: Optional[RunConfig] = None) -> frozenset[str]:
    """Every scenario symbol a condition reads (for the symbol-table audit)."""
    form = build_form(cid, cfg or RunConfig())
    out: set[str] = set()
    for part in form.parts if form.guard is None else (form.guard, *form.parts):
        out |= symbols_of(part.lhs)
        if part.rhs is not None:
            out |= symbols_of(part.rhs)
        out.update(_ctx_symbols(part.lhs_ctx), _ctx_symbols(part.rhs_ctx))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Evaluation: each condition compiles once per RunConfig
# ---------------------------------------------------------------------------

CompiledCondition = Callable[[Scenario], ConditionVerdict]


def _in_context(spec: CtxSpec, fn: Callable) -> Callable:
    """``fn(s, ctx, notes)`` under a context spec, as (s, notes) -> value; an
    argmax context reads the scenario's winning listing state (per draw)."""
    if spec is None:
        return lambda s, notes: fn(s, None, notes)
    kind, arg = spec
    if kind == "state":
        return lambda s, notes: fn(s, arg, notes)
    if kind == "argmax":
        return lambda s, notes: s.per_winner(arg, None, lambda state, _: fn(s, state, notes))
    raise ValueError(f"unknown context spec {spec!r}")


def _compare(op: str, cfg: RunConfig) -> Callable:
    """(lhs, rhs) -> (holds, fails) (per draw); neither means undecided."""
    if op == "gt":
        return lambda a, b: (a[0] > b[1], a[1] <= b[0])
    if op == "lt":
        return lambda a, b: (b[0] > a[1], b[1] <= a[0])
    if op == "approx":
        rel_tol = cfg.rel_tol

        def approx(a, b):
            points = (a[0] == a[1]) & (b[0] == b[1])
            near = _close(a[0], b[0], rel_tol)
            return points & near, points & (near ^ True)  # ^ True: not, also per draw
        return approx
    if op == "approx_zero":
        zero_tol = cfg.zero_tol

        def approx_zero(a, b):
            lo, hi = iabs(a)
            return hi <= zero_tol, lo > zero_tol
        return approx_zero
    raise ValueError(f"unknown part op {op!r}")


def compile_part(part: Part, cfg: RunConfig) -> tuple:
    """``(lhs, rhs, compare)``: each side maps (s, notes) to an interval under
    its context (``rhs`` is None for a one-sided op), and ``compare`` maps
    the two intervals to (holds, fails)."""
    lhs = _in_context(part.lhs_ctx, compile_expression(part.lhs, cfg))
    rhs = (None if part.rhs is None
           else _in_context(part.rhs_ctx, compile_expression(part.rhs, cfg)))
    return lhs, rhs, _compare(part.op, cfg)


def _guard_failure(cfg: RunConfig) -> tuple[Status, bool, str]:
    """What a failed guard gives under ``cfg.guard_mode``: the condition's
    status, whether it is excluded from aggregation, and how its note ends."""
    if cfg.guard_mode == "violated":
        return Status.VIOLATED, False, "guard_mode=violated"
    skipped = cfg.guard_mode == "skip"
    return (Status.VACUOUS, skipped,
            "vacuously satisfied" + ("; excluded from aggregation" if skipped else ""))


def _compile_condition(cid: ConditionId, form: Form, compiled: tuple,
                       guard: Optional[tuple], cfg: RunConfig) -> CompiledCondition:
    """The traced evaluator of a condition from its compiled parts and guard."""
    form_notes = form.notes
    parts = tuple((p.desc, p.op, *c) for p, c in zip(form.parts, compiled))
    if guard is not None:
        guard_lhs, guard_rhs, guard_compare = guard
        failed_status, skipped, ending = _guard_failure(cfg)
        failed_note = f"guard failed ({form.guard.desc}); {ending}"

    def run(s: Scenario) -> ConditionVerdict:
        notes = list(form_notes)
        guard_status: Optional[bool] = None
        if guard is not None:
            guard_status = guard_compare(guard_lhs(s, None), guard_rhs(s, None))[0]
            if guard_status is False:
                notes.append(failed_note)
                return ConditionVerdict(cid, failed_status, None, None, False,
                                        tuple(notes), (), skipped=skipped)
        traces = []
        for desc, op, lhs, rhs, compare in parts:
            a = lhs(s, notes)
            b = None if rhs is None else rhs(s, notes)
            holds, fails = compare(a, b)
            traces.append(PartTrace(desc, op, ExtendedValue(*a),
                                    None if b is None else ExtendedValue(*b),
                                    True if holds else False if fails else None))
        deciding = traces[0]
        status = Status.SATISFIED
        for t in traces:
            if t.holds is False:
                status, deciding = Status.VIOLATED, t
                break
        else:
            for t in traces:
                if t.holds is None:
                    status, deciding = Status.INDETERMINATE, t
                    break
        return ConditionVerdict(cid, status, deciding.lhs, deciding.rhs,
                                guard_status, tuple(notes), tuple(traces))
    return run


def compile_conditions(cfg: RunConfig) -> dict[ConditionId, tuple]:
    """Per condition, in registry order: its compiled parts, its compiled
    guard part or None, and its traced evaluator. ``RunConfig.compiled``
    keeps this table for the config instance."""
    table = {}
    for cid in ALL_CONDITION_IDS:
        form = build_form(cid, cfg)
        parts = tuple(compile_part(p, cfg) for p in form.parts)
        guard = None if form.guard is None else compile_part(form.guard, cfg)
        table[cid] = parts, guard, _compile_condition(cid, form, parts, guard, cfg)
    return table


def eval_condition(s: Scenario, cid: ConditionId, cfg: RunConfig = RunConfig()) -> ConditionVerdict:
    """Evaluate one condition with a full trace."""
    return cfg.compiled[cid][2](s)


def _aggregate(considered: int, held: int, violated: int, undecided: int,
               cfg: RunConfig) -> SetDecision:
    """A set's decision from the counts of its verdicts that are considered
    (not skipped), and of those, held (satisfied or vacuous), violated and
    undecided (indeterminate)."""
    if not considered:
        return SetDecision.SATISFIED
    if violated and (cfg.aggregation == "conjunction" or cfg.quorum_violations_block):
        return SetDecision.NOT_SATISFIED
    if cfg.aggregation == "conjunction":
        return SetDecision.INDETERMINATE if undecided else SetDecision.SATISFIED
    if held / considered >= cfg.quorum:
        return SetDecision.SATISFIED
    if (held + undecided) / considered >= cfg.quorum:
        return SetDecision.INDETERMINATE
    return SetDecision.NOT_SATISFIED


def eval_condition_set(s: Scenario, cset: ConditionSet,
                       cfg: RunConfig = RunConfig()) -> ConditionReport:
    """Evaluate a whole set in printed order and aggregate it."""
    verdicts = tuple(eval_condition(s, cid, cfg) for cid in condition_ids(cset))
    statuses = [v.status for v in verdicts if not v.skipped]
    return ConditionReport(
        scenario_label=s.label,
        set=cset,
        verdicts=verdicts,
        aggregate=_aggregate(len(statuses),
                             statuses.count(Status.SATISFIED) + statuses.count(Status.VACUOUS),
                             statuses.count(Status.VIOLATED),
                             statuses.count(Status.INDETERMINATE), cfg),
        config=cfg.to_dict(),
    )


def decide(s: Scenario, cfg: RunConfig = RunConfig()) -> DecisionSummary:
    """All three aggregate decisions plus their full reports."""
    reports = {cset.value: eval_condition_set(s, cset, cfg) for cset in ConditionSet}
    return DecisionSummary(
        scenario_label=s.label,
        buyer_disintermediates=reports["buyer"].aggregate,
        broker_provides_web_info=reports["broker_web"].aggregate,
        seller_disintermediates=reports["seller"].aggregate,
        reports=reports,
    )


# ---------------------------------------------------------------------------
# Margins (used by sensitivity analysis)
# ---------------------------------------------------------------------------

def part_margin(trace: PartTrace, cfg: RunConfig) -> Optional[float]:
    """Signed margin for one part: positive iff the part holds.

    For interval operands the margin is the conservative one for the decided
    direction; undecided parts have no margin.
    """
    if trace.holds is None:
        return None
    lhs, rhs = trace.lhs, trace.rhs
    if trace.op == "gt":
        return lhs.lower - rhs.upper if trace.holds else lhs.upper - rhs.lower
    if trace.op == "lt":
        return rhs.lower - lhs.upper if trace.holds else rhs.upper - lhs.lower
    if trace.op == "approx":
        a, b = lhs.lower, rhs.lower
        return cfg.rel_tol * max(abs(a), abs(b), 1e-12) - abs(a - b)
    if trace.op == "approx_zero":
        a = lhs.abs()
        return cfg.zero_tol - (a.upper if trace.holds else a.lower)
    raise ValueError(f"unknown part op {trace.op!r}")


def condition_margin(verdict: ConditionVerdict, cfg: RunConfig) -> Optional[float]:
    """Minimum part margin; sign agrees with the verdict for determinate ones."""
    margins = [m for m in (part_margin(t, cfg) for t in verdict.parts) if m is not None]
    if not margins:
        return None
    return min(margins)
