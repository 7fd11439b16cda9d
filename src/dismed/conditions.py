"""Registry and evaluator for the three disintermediation condition sets.

Each condition is built as a small form (``build_form``): an optional guard
part, whose ``holds`` decides whether the others count, one or more
comparison parts (joined conjunctively), and the notes the verdict must
carry. :func:`compile_conditions` compiles each form, once per RunConfig
(``RunConfig.compiled``), into one evaluator: the only place the guard and
the status rule (violated, then undecided, then satisfied) are applied, with
each part side compiled under its listing-state context. It runs on any
Scenario, plain where every draw agrees and per draw otherwise;
:func:`eval_condition` wraps its results into traced verdicts for ``decide``,
``dismed.batch`` fills a sweep block's status columns from them, and
``sensitivity`` reads a status and margin (:func:`_status_and_margin`).
:func:`_aggregate` decides a set on every path, one code per draw where the
counts are per draw. Evaluation is pure: undecidable comparisons produce
Indeterminate verdicts, never exceptions, and every non-vacuous verdict
keeps its lhs/rhs trace values.

A comparison part is built by :func:`_part` from its two operands, which
also write its description, so text and expression cannot disagree. A form
whose parts read no config is a registry row, built once at import; its
notes may quote the config as templates (``{cfg.rel_tol}``) that
``build_form`` fills in. The others (B1, W5, S3 and S7) are functions of the
config. Two mirrored families have one builder each: the social-capital
conditions B16-B19 / S15-S18 and the conditions that bound one derivative by
another at two orders (B6, B7, B8, B10, B12, S2, S3).
Literal descriptions stay only where the payloads spell a part in a way the
operands cannot: the ``cP`` sums of B3/B4 and B13, the differences of B15
and W1, the products of W3, the ``d rho_i/d rho_p`` spacing of W4 and W5,
S13's named integrals and S14's ``pi_sb^2``. Their texts are payload bytes.

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
from functools import cached_property
from typing import Callable, Optional

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
    # Not called here: perfbench's --trace 1 wraps this module's binding.
    evaluate_expression,  # noqa: F401
)
from .config import DEFAULT_CONFIG, RunConfig
from .model import Scenario, _where
from .record import FLAG, INTERVAL, MANY, MAPPING, TEXT, TREE, Factory, Record, interval_pair


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

    @cached_property  # every report writes the label of each verdict's id
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

    _payload = (("check", "desc", TEXT), ("op", "op", TEXT), ("lhs", "lhs", INTERVAL),
                ("rhs", "rhs", INTERVAL), ("holds", "holds", FLAG))

    def __init__(self, desc, op, lhs, rhs, holds):  # built per part on every decide
        self.__dict__.update(desc=desc, op=op, lhs=lhs, rhs=rhs, holds=holds)


class ConditionVerdict(Record):
    id: ConditionId
    status: Status
    lhs: Optional[ExtendedValue]
    rhs: Optional[ExtendedValue]
    guard_status: Optional[bool]
    notes: tuple[str, ...]
    parts: tuple[PartTrace, ...]
    skipped: bool = False

    _payload = (("id", "id.label", TEXT), ("status", "status", TEXT),
                ("lhs", "lhs", INTERVAL), ("rhs", "rhs", INTERVAL),
                ("guard_status", "guard_status", FLAG), ("skipped", "skipped", FLAG),
                ("notes", "notes", (MANY, TEXT)), ("parts", "parts", (MANY, PartTrace)))

    def __init__(self, id, status, lhs, rhs, guard_status, notes, parts, skipped=False):
        self.__dict__.update(id=id, status=status, lhs=lhs, rhs=rhs, guard_status=guard_status,
                             notes=notes, parts=parts, skipped=skipped)


class ConditionReport(Record):
    scenario_label: str
    set: ConditionSet
    verdicts: tuple[ConditionVerdict, ...]
    aggregate: SetDecision
    config: dict = Factory(dict)

    _payload = (("scenario", "scenario_label", TEXT), ("set", "set", TEXT),
                ("aggregate", "aggregate", TEXT),
                ("verdicts", "verdicts", (MANY, ConditionVerdict)), ("config", "config", TREE))
    _table = ("id status lhs_lower lhs_upper rhs_lower rhs_upper guard notes".split(),
              lambda r: [(v.id.label, v.status.value, *(interval_pair(v.lhs) or (None, None)),
                          *(interval_pair(v.rhs) or (None, None)), v.guard_status,
                          "; ".join(v.notes)) for v in r.verdicts])

    def statuses(self) -> dict[str, Status]:
        return {v.id.label: v.status for v in self.verdicts}


class DecisionSummary(Record):
    scenario_label: str
    buyer_disintermediates: SetDecision
    broker_provides_web_info: SetDecision
    seller_disintermediates: SetDecision
    reports: dict

    _payload = (("scenario", "scenario_label", TEXT),
                ("buyer_disintermediates", "buyer_disintermediates", TEXT),
                ("broker_provides_web_info", "broker_provides_web_info", TEXT),
                ("seller_disintermediates", "seller_disintermediates", TEXT),
                ("reports", "reports", (MAPPING, ConditionReport)))
    _table = (("set", "id", "status"),
              lambda s: [row for name, r in s.reports.items()
                         for row in [(name, "aggregate", r.aggregate.value),
                                     *((name, v.id.label, v.status.value) for v in r.verdicts)]])


# ---------------------------------------------------------------------------
# Expression shorthand and the part builder
# ---------------------------------------------------------------------------

def _e(text: str) -> Expr:
    """A symbol, a "+"-sum ``a+b`` or a joint ``a^b``."""
    if "^" in text:
        return Joint(*text.split("^"))
    names = text.split("+")
    return Sym(names[0]) if len(names) == 1 else Add(tuple(map(Sym, names)))


def _cP() -> Expr:
    return Mul(Sym("c"), Sym("P"))


def _d(driven: str, driver: str | tuple[str, ...], order: int) -> Deriv:
    """d^order driven / d driver: ``driven`` as :func:`_e` reads it; ``driver``
    a symbol, a "+"-bundle or a tuple read as its max."""
    axis = Axis.max_of(*driver) if isinstance(driver, tuple) else Axis.sym(driver)
    return Deriv(_e(driven), axis, order)


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


_OPS = {">": "gt", "<": "lt", "~": "approx"}
_EXTREMES = {max: MaxE, min: MinE}


def _side(side) -> tuple[Expr, str]:
    """An operand of :func:`_part` as its expression and its text."""
    if isinstance(side, str):
        return _e(side), side.replace("+", " + ")
    if isinstance(side, int):
        return Const(float(side)), str(side)
    if side[0] in _EXTREMES:
        args = [_side(arg) for arg in side[1:]]
        return (_EXTREMES[side[0]](tuple(e for e, _ in args)),
                f"{side[0].__name__}({', '.join(t for _, t in args)})")
    return _d(*side), _dtext(*side)


def _part(lhs, op: str, rhs, ctx: CtxSpec = None) -> Part:
    """The part ``lhs op rhs`` (op ">", "<" or "~"), both sides under ``ctx``,
    described from its operands. A side is a symbol, a "+"-sum (written
    ``a + b``) or a joint ``a^b``; a derivative ``(driven, driver, order)``
    as :func:`_d` reads it; an int constant; or ``(max, x, y)`` or ``(min,
    x, y)`` of sides (written ``max(x, y)``)."""
    (a, a_text), (b, b_text) = _side(lhs), _side(rhs)
    return Part(f"{a_text} {op} {b_text}", _OPS[op], a, b, ctx, ctx)


def _base_and_argmax(lhs, op: str, rhs) -> tuple[Part, Part]:
    """S4 and S5: a comparison at base, and again under the argmax state."""
    part = _part(lhs, op, rhs)
    return part, part.replace(desc=f"{part.desc} under argmax state",
                              lhs_ctx=ARGMAX_ALL, rhs_ctx=ARGMAX_ALL)


def _flat(driven: str, driver: str) -> Part:
    """W4 and W5: ``d driven/d driver ~ 0``, with a space after the second d."""
    return Part(f"d {driven}/d {driver} ~ 0", "approx_zero", _d(driven, driver, 1))


def _two_order(lhs: tuple, op: str, extreme: Callable, rhs: tuple, bound: int,
               orders: tuple[int, int], notes: tuple = ()) -> Form:
    """B6-B8, B10, B12, S2 and S3: ``d lhs op extreme(d rhs, bound)`` at each
    of two orders, ``lhs`` and ``rhs`` being (driven, driver) pairs of :func:`_d`."""
    return Form(None, tuple(_part((*lhs, k), op, (extreme, (*rhs, k), bound))
                            for k in orders), notes)


def _social_capital(party: str, against: str, order: int) -> Part:
    """B16-B19 (party "b") and S15-S18 ("s"): the party's d SC/d
    max(psi_xi,psi_x) > max(bound, d rhs) at ``order`` 1 (bound 1) or 2
    (bound 0), rhs being its utilities against I_p+I_i+pi_b ("utility") or
    the joint closing probability rho_i^rho_p against its utilities ("joint")."""
    utilities = {"b": "U_ip+U_iw", "s": "U_sp+U_sw"}[party]
    rhs = (utilities, "I_p+I_i+pi_b") if against == "utility" else ("rho_i^rho_p", utilities)
    return _part((f"SC_{party}", (f"psi_{party}i", f"psi_{party}"), order), ">",
                 (max, 1 if order == 1 else 0, (*rhs, order)))


# ---------------------------------------------------------------------------
# The condition registry: a form, or the builder of a form that reads the config
# ---------------------------------------------------------------------------

def _b1(cfg: RunConfig) -> Form:
    utility = _part("U_iw", ">", "U_ip")
    parts = (_part("I_i", ">", "I_p"), _part("I_i+I_o", ">", "I_p"))
    if cfg.b1_guard_joint:
        return Form(None, (utility, *parts),
                    (f"utility clause ({utility.desc}) treated as a joint conjunct",))
    return Form(utility, parts, (f"utility clause ({utility.desc}) treated as a guard",))


_ZERO_NOTE = "zero means |derivative| <= {cfg.zero_tol}"
# S1, B18, B19, S17 and S18 read a joint closing probability.
_INTERSECTION_NOTES = ("intersection read as {cfg.intersection}",)


def _w5(cfg: RunConfig) -> Form:
    drv = cfg.w5_driver
    return Form(None, (_flat("rho_i", drv), _flat("rho_p", drv)),
                ("unsubscripted cost driver resolved to {cfg.w5_driver}", _ZERO_NOTE))


def _seller_web_utility(cfg: RunConfig) -> str:
    return "U_sa" if cfg.seller_uses_U_sa else "U_a"


def _s3(cfg: RunConfig) -> Form:
    note = ("U_sa substituted for the seller's web utility" if cfg.seller_uses_U_sa
            else "U_a used literally for the seller's web utility")
    return _two_order((_seller_web_utility(cfg), "psi_si"), ">", max, ("U_sp+U_sw", "psi_s"),
                      1, (1, 3), (note, "bare bracket [x, 1] read as Max[x, 1]"))


def _s7(cfg: RunConfig) -> Form:
    return Form(None, (
        _part(("pi_sb", "U_sp+U_sw", 1), ">", ("pi_s", _seller_web_utility(cfg), 1)),
        _part("pi_sb", ">", "pi_s"),
    ))


def _surplus(rho: Expr, price: str, costs: str) -> IntegralE:
    """S13: the integral of a closing probability times a price net of costs."""
    return IntegralE(Mul(rho, Sub(Sym(price), _e(costs))))


# B3 and B4 are one comparison under two guards.
_B3_B4_PART = Part("cP + psi_b + pi_b > psi_bi + pi_i + U_iw", "gt",
                   Add((_cP(), Sym("psi_b"), Sym("pi_b"))), _e("psi_bi+pi_i+U_iw"),
                   lhs_ctx=ARGMAX_ALL, rhs_ctx=None)
_B3_B4_NOTES = ("lhs evaluated under the argmax listing-state overlay; rhs at base",)
_AT_E_P: CtxSpec = ("state", "E_p")
# S12 is S1 without its joint part.
_S12_PARTS = (_part("rho_s", ">", "rho_p"), _part("rho_s", ">", "rho_i"))

_FORMS: dict[str, Form | Callable[[RunConfig], Form]] = {
    "B1": _b1,
    "B2": Form(None, (_part("I_i", "~", "psi_b"),), ("similarity uses rel_tol = {cfg.rel_tol}",)),
    "B3": Form(_part("P_s", "~", "P_b", ARGMAX_ALL), (_B3_B4_PART,), _B3_B4_NOTES),
    "B4": Form(_part("U_iw", ">", "U_ip", ARGMAX_ALL), (_B3_B4_PART,), _B3_B4_NOTES),
    "B5": Form(None, (_part("psi_b", ">", "psi_bi"), _part("U_iw", ">", "U_ip"))),
    "B6": _two_order(("psi_b", "U_ip"), "<", min, ("psi_bi", "U_iw"), 1, (2, 1)),
    "B7": _two_order(("U_iw", "pi_i"), ">", min, ("U_ip", "pi_b"), 0, (1, 2)),
    "B8": _two_order(("I_o", "psi_bi"), ">", max, ("I_p+I_i", "psi_b"), 1, (2, 1)),
    "B9": Form(None, (_part(("I_p+I_i", ("E_m", "E_p", "E_s"), 1), "<", 1),),
               ("derivative taken along the argmax listing-state value",)),
    "B10": _two_order(("I_p+I_i", "U_ip+U_iw"), "<", min, ("I_o", "U_a"), 1, (1, 2)),
    "B11": Form(None, (_part(("I_p+I_i", "U_ip+U_iw", 3), "<", 1),
                       _part(("I_o", "U_a", 3), "<", 1))),
    "B12": _two_order(("P_b", "P"), ">", max, ("I_o", "I_p+I_i"), 1, (3, 1)),
    "B13": Form(None, (Part("u_hat_s < cP + pi_sb + I_p + I_i", "lt", Sym("u_hat_s"),
                            Add((_cP(), Sym("pi_sb"), Sym("I_p"), Sym("I_i")))),)),
    "B14": Form(None, (_part(("u_hat_s", "pi_sb+I_p+I_i", 1), "<", 1),)),
    "B15": Form(None, (Part("SC_b - psi_bi - psi_b > U_ip + U_iw + I_p + I_i + pi_b", "gt",
                            Sub(Sym("SC_b"), _e("psi_bi+psi_b")),
                            _e("U_ip+U_iw+I_p+I_i+pi_b")),)),
    "B16": Form(None, (_social_capital("b", "utility", 1),)),
    "B17": Form(None, (_social_capital("b", "utility", 2),)),
    "B18": Form(None, (_social_capital("b", "joint", 1),), _INTERSECTION_NOTES),
    "B19": Form(None, (_social_capital("b", "joint", 2),), _INTERSECTION_NOTES),
    "W1": Form(_part("psi_b", ">", "psi_bi", _AT_E_P),
               (Part("cP*rho_p - B_b - B_s < B_i", "lt",
                     Sub(Mul(_cP(), Sym("rho_p")), _e("B_b+B_s")), Sym("B_i"), _AT_E_P, _AT_E_P),),
               ("evaluated under the E_p listing-state overlay",)),
    "W2": Form(None, (_part("U_ip", "<", "U_iw", ARGMAX_EXCLUSIVE),),
               ("evaluated under the larger of the E_s / E_p overlays",)),
    "W3": Form(None, (Part("psi_bi*rho_i > cP*rho_p", "gt", Mul(Sym("psi_bi"), Sym("rho_i")),
                           Mul(_cP(), Sym("rho_p"))),)),
    "W4": Form(None, (_flat("rho_i", "rho_p"),), (_ZERO_NOTE,)),
    "W5": _w5,
    "W6": Form(None, (_part(("B_i", "I_i", 1), "<", ("RC_br+SC_br", "I_i", 1)),),
               ("both differentials taken with respect to I_i",)),
    "W7": Form(None, (_part(("RC_br+SC_br", "B_i", 1), ">", 1),)),
    "S1": Form(None, (_part("rho_s", ">", "rho_p^rho_i"), *_S12_PARTS), _INTERSECTION_NOTES),
    "S2": _two_order(("I_o", "psi_si"), ">", max, ("I_p+I_o", "psi_sb"), 1, (1, 3),
                     ("I_o kept inside the broker-channel bundle as written",)),
    "S3": _s3,
    "S4": Form(None, _base_and_argmax("psi_s", ">", "psi_si")),
    "S5": Form(None, _base_and_argmax("I_o", ">", "I_i+I_p")),
    "S6": Form(None, (_part(("P_s", "P", 1), ">", 1),)),
    "S7": _s7,
    "S8": Form(None, (_part(("P", "pi_sb", 1), ">", (max, ("P", "pi_s", 1), 1)),
                      _part(("P_s", "pi_sb", 1), ">", (max, ("P_s", "pi_s", 1), 1)),
                      _part(("P_s", "P", 1), ">", 1),
                      _part(("P", "c", 1), ">", 1)),
               ("fragment 'dP > dpi_s' read as dP/dpi_s",)),
    "S9": Form(None, (_part("psi_sb+pi_sb", ">", "psi_si+pi_s"),
                      _part(("psi_sb+pi_sb", "P_s", 1), ">", ("psi_si+pi_s", "P_s", 1)))),
    "S10": Form(None, (_part(("psi_sb+pi_sb", "c", 1), ">", ("psi_si+pi_s", "c", 1)),)),
    "S11": Form(None, (_part(("psi_sb+pi_sb", "pi_sb", 1), ">", ("psi_si+pi_s", "pi_sb", 1)),),
                ("d pi_sb/d pi_sb contributes exactly 1",)),
    "S12": Form(None, _S12_PARTS),
    "S13": Form(None, (Part("integral self-sale surplus > max(broker physical, broker web)", "gt",
                            _surplus(Sym("rho_s"), "P_s", "pi_b+pi_s+psi_si"),
                            MaxE((_surplus(Sym("rho_p"), "P", "pi_b+pi_sb+psi_s"),
                                  _surplus(Joint("rho_i", "rho_p"), "P", "pi_b+pi_sb+psi_sb")))),),
                ("trapezoid over [0, {cfg.horizon_T}] at dt = {cfg.horizon_dt}",)),
    "S14": Form(None, (Part("SC_s - psi_si - pi_sb^2 > U_sw + U_sp + I_p + I_i + pi_sb", "gt",
                            Sub(Sym("SC_s"), Add((Sym("psi_si"), Mul(Sym("pi_sb"), Sym("pi_sb"))))),
                            _e("U_sw+U_sp+I_p+I_i+pi_sb")),),
                ("pi_sb enters squared, kept literally (suspected transcription artifact)",)),
    "S15": Form(None, (_social_capital("s", "utility", 1),)),
    "S16": Form(None, (_social_capital("s", "utility", 2),)),
    "S17": Form(None, (_social_capital("s", "joint", 1),), _INTERSECTION_NOTES),
    "S18": Form(None, (_social_capital("s", "joint", 2),), _INTERSECTION_NOTES),
}


def build_form(cid: ConditionId, cfg: RunConfig) -> Form:
    """The condition's registry row, or its builder's form, under ``cfg``:
    notes are templates that may quote the config (``{cfg.rel_tol}``)."""
    form = _FORMS[cid.label]
    if not isinstance(form, Form):
        form = form(cfg)
    return form.replace(notes=tuple(note.format(cfg=cfg) for note in form.notes))


# ---------------------------------------------------------------------------
# Evaluation: each condition compiles once per RunConfig
# ---------------------------------------------------------------------------

#: A compiled condition's status codes index STATUSES.
STATUSES = (Status.SATISFIED, Status.VIOLATED, Status.VACUOUS, Status.INDETERMINATE)
SATISFIED, VIOLATED, VACUOUS, INDETERMINATE = range(4)
#: A set's decision codes (:func:`_aggregate`) index DECISIONS.
DECISIONS = (SetDecision.SATISFIED, SetDecision.NOT_SATISFIED, SetDecision.INDETERMINATE)
SET_SATISFIED, SET_NOT_SATISFIED, SET_INDETERMINATE = range(3)
#: Per status code, the ``holds`` of the first part, whose sides the verdict quotes.
_DECIDING = (True, False, None, None)


def _pick(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: a plain value where ``cond``
    is a plain bool, per draw otherwise."""
    if cond is True:
        return a
    if cond is False:
        return b
    return _where(cond, a, b)


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


def _margin(op: str, a, b, holds: bool, cfg: RunConfig) -> float:
    """A decided part's signed margin, positive iff it holds: for interval
    sides, the conservative one for the decided direction."""
    if op == "gt":
        return a[0] - b[1] if holds else a[1] - b[0]
    if op == "lt":
        return b[0] - a[1] if holds else b[1] - a[0]
    if op == "approx":
        return cfg.rel_tol * max(abs(a[0]), abs(b[0]), 1e-12) - abs(a[0] - b[0])
    lo, hi = iabs(a)  # approx_zero
    return cfg.zero_tol - (hi if holds else lo)


def compile_part(part: Part, cfg: RunConfig) -> tuple:
    """``(lhs, rhs, compare)``: each side maps (s, notes) to an interval under
    its context, a state or an argmax context's candidates (``rhs`` is None
    for a one-sided op), and ``compare`` maps the two intervals to (holds,
    fails)."""
    def side(expr, spec):
        return None if expr is None else compile_expression(expr, cfg, spec and spec[1])
    return side(part.lhs, part.lhs_ctx), side(part.rhs, part.rhs_ctx), _compare(part.op, cfg)


def _guard_failure(cfg: RunConfig) -> tuple[int, bool, str]:
    """What a failed guard gives under ``cfg.guard_mode``: the condition's
    status code, whether it is excluded from aggregation, and how its note ends."""
    if cfg.guard_mode == "violated":
        return VIOLATED, False, "guard_mode=violated"
    skipped = cfg.guard_mode == "skip"
    return (VACUOUS, skipped,
            "vacuously satisfied" + ("; excluded from aggregation" if skipped else ""))


def _compile_condition(form: Form, cfg: RunConfig) -> Callable:
    """The one evaluator of a condition: ``run(s, notes)`` gives its status
    code, whether it is excluded from aggregation, its guard status (None
    without a guard) and its part results ``(lhs, rhs, holds, fails)``. Each
    is a plain value where every draw of ``s`` agrees and per draw otherwise.
    A guard that fails in every draw leaves the parts unevaluated (no
    results); one that fails in some draws gives those draws its status.
    ``settled`` runs in place of ``run.sides``, the compiled guard and parts:
    each side carries the symbols it names (``reads``), and a sweep gives
    each side that reads no swept symbol on its base (``calculus.on_base``)
    the value it has on that base, evaluated when the plan for the base,
    swept set and config is built (``batch._settle``), guard failed or not;
    ``decide`` and ``sensitivity`` pass none."""
    parts = tuple(compile_part(p, cfg) for p in form.parts)
    sides = None if form.guard is None else compile_part(form.guard, cfg), parts
    failed, excluded, _ = _guard_failure(cfg)

    def run(s: Scenario, notes: Optional[list], settled: Optional[tuple] = None) -> tuple:
        guard, parts = sides if settled is None else settled
        passed = None
        if guard is not None:
            lhs, rhs, compare = guard
            passed = compare(lhs(s, None), rhs(s, None))[0]
            if passed is False:
                return failed, excluded, False, ()
        results = []
        violated, held = False, True
        for lhs, rhs, compare in parts:
            a = lhs(s, notes)
            b = None if rhs is None else rhs(s, notes)
            holds, fails = compare(a, b)
            results.append((a, b, holds, fails))
            violated = violated | fails
            held = held & holds
        status = _pick(violated, VIOLATED, _pick(held, SATISFIED, INDETERMINATE))
        if passed is None or passed is True:
            return status, False, passed, results
        return _pick(passed, status, failed), excluded and passed ^ True, passed, results

    run.sides = sides
    return run


def compile_conditions(cfg: RunConfig) -> dict[ConditionId, tuple]:
    """Per condition, in registry order: its form, its evaluator
    (:func:`_compile_condition`) and its failed guard's note (None without a
    guard), which its traced verdict quotes. ``RunConfig.compiled`` keeps
    this table for the config instance."""
    ending = _guard_failure(cfg)[2]
    table = {}
    for cid in ALL_CONDITION_IDS:
        form = build_form(cid, cfg)
        table[cid] = (form, _compile_condition(form, cfg),
                      form.guard and f"guard failed ({form.guard.desc}); {ending}")
    return table


def eval_condition(s: Scenario, cid: ConditionId,
                   cfg: RunConfig = DEFAULT_CONFIG) -> ConditionVerdict:
    """Evaluate one condition with a full trace."""
    form, run, failed_note = cfg.compiled[cid]
    notes = list(form.notes)
    code, excluded, guard_status, results = run(s, notes)
    if guard_status is False:
        notes.append(failed_note)
        return ConditionVerdict(cid, STATUSES[code], None, None, False, tuple(notes), (), excluded)
    want, deciding, traces = _DECIDING[code], None, []
    for part, (a, b, holds, fails) in zip(form.parts, results):
        held = True if holds else False if fails else None
        trace = PartTrace(part.desc, part.op, ExtendedValue(*a),
                          None if b is None else ExtendedValue(*b), held)
        traces.append(trace)
        if held is want and deciding is None:
            deciding = trace
    return ConditionVerdict(cid, STATUSES[code], deciding.lhs, deciding.rhs, guard_status,
                            tuple(notes), tuple(traces))


def _status_and_margin(s: Scenario, cid: ConditionId,
                       cfg: RunConfig) -> tuple[Status, Optional[float]]:
    """A condition's status on one scenario and its smallest decided-part
    margin (None where no part is decided), with no trace or notes."""
    form, run, _ = cfg.compiled[cid]
    code, _, _, results = run(s, None)
    margins = [_margin(part.op, a, b, holds, cfg)
               for part, (a, b, holds, fails) in zip(form.parts, results) if holds or fails]
    return STATUSES[code], min(margins, default=None)


def _aggregate(considered, held, violated, undecided, cfg: RunConfig):
    """A set's decision code (into DECISIONS) from the counts of its verdicts
    that are considered (not skipped), and of those, held (satisfied or
    vacuous), violated and undecided (indeterminate), per draw where they
    are; with nothing considered, a quorum share counts as 1."""
    conjunction = cfg.aggregation == "conjunction"
    if conjunction:
        code = _pick(undecided > 0, SET_INDETERMINATE, SET_SATISFIED)
    else:
        empty, quorum = considered == 0, cfg.quorum
        code = _pick((held + empty) / (considered + empty) >= quorum, SET_SATISFIED,
                     _pick((held + undecided + empty) / (considered + empty) >= quorum,
                           SET_INDETERMINATE, SET_NOT_SATISFIED))
    if conjunction or cfg.quorum_violations_block:
        return _pick(violated > 0, SET_NOT_SATISFIED, code)
    return code


def eval_condition_set(s: Scenario, cset: ConditionSet,
                       cfg: RunConfig = DEFAULT_CONFIG) -> ConditionReport:
    """Evaluate a whole set in printed order and aggregate it."""
    verdicts = tuple(eval_condition(s, cid, cfg) for cid in condition_ids(cset))
    st = [v.status for v in verdicts if not v.skipped]
    code = _aggregate(len(st), st.count(Status.SATISFIED) + st.count(Status.VACUOUS),
                      st.count(Status.VIOLATED), st.count(Status.INDETERMINATE), cfg)
    return ConditionReport(
        scenario_label=s.label,
        set=cset,
        verdicts=verdicts,
        aggregate=DECISIONS[code],
        config=cfg.to_dict(),
    )


def decide(s: Scenario, cfg: RunConfig = DEFAULT_CONFIG) -> DecisionSummary:
    """All three aggregate decisions plus their full reports."""
    reports = {cset.value: eval_condition_set(s, cset, cfg) for cset in ConditionSet}
    return DecisionSummary(
        scenario_label=s.label,
        buyer_disintermediates=reports["buyer"].aggregate,
        broker_provides_web_info=reports["broker_web"].aggregate,
        seller_disintermediates=reports["seller"].aggregate,
        reports=reports,
    )
