"""Analytic chaos certificate for a candidate box.

Two stacked layers:

* ``check_H``   -- the five closed-form hypothesis groups (H1)-(H5) on the
  box corners, with a margin per atomic inequality.
* ``check_C_analytic`` -- the five covering conditions (C1), (C2), (C3'),
  (C4), (C5) on the map image, each reduced to a one-dimensional monotone
  section whose extremum has a closed form.

Both layers build their records by one rule.  A condition is a list of
preconditions and a list of atoms ``lhs relation rhs``; ``_sub_check``
decides each atom and ``_record`` makes the condition's record.  When a
precondition fails the record is ``inapplicable`` and its note names each
violated precondition (distinct from ``fail``: the condition itself may
still be true, this engine just cannot decide it).  Only the exact C1
record and the H1 equality stand outside the rule.

What the full certificate buys: every path joining the bottom face z = z_l
to the top face z = z_r has two disjoint subpaths, one per half-box, whose
images again join the two faces while staying inside the box cross-section.
That is the stretching-along-paths property on two symbols, and it forces a
topological horseshoe: periodic points of every word and entropy >= log 2.

``certify_box`` joins the layers and optionally cross-checks the C layer
against the rigorous interval oracle in :mod:`triopoly.bounds`.  Both
layers here are decided in round-to-nearest floats, not under outward
rounding; only that interval oracle rounds outward.  Deciding them under
outward rounding too is an open item on the roadmap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .boxes import Box
from .core import DomainError, Params

__all__ = [
    "SubCheck",
    "ConditionRecord",
    "Certificate",
    "check_H",
    "check_C_analytic",
    "certify_box",
    "SCHEMA_VERSION",
    "DEFAULT_MIN_MARGIN",
]

SCHEMA_VERSION = 1
DEFAULT_MIN_MARGIN = 1e-12

H_IDS = ("H1", "H2", "H3", "H4", "H5")
C_IDS = ("C1", "C2", "C3p", "C4", "C5")

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"
INCONCLUSIVE = "inconclusive"

# worst first: a record or a certificate takes the first status present
_STATUS_ORDER = (FAIL, INAPPLICABLE, INCONCLUSIVE, PASS)
_VERDICTS = dict(zip(_STATUS_ORDER, ("failed", "inapplicable", "inconclusive", "certified")))


@dataclass
class SubCheck:
    """One atomic inequality: ``lhs relation rhs`` with margin = lhs - rhs
    oriented so that positive means satisfied."""

    cid: str
    lhs: Optional[float]
    rhs: Optional[float]
    relation: str
    margin: Optional[float]
    status: str
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "id": self.cid,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "margin": self.margin,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class ConditionRecord:
    """Verdict for one of the ten certificate conditions.

    ``lhs``/``rhs``/``margin`` mirror the *binding* subcheck (the one with
    the smallest margin), so ``margin`` is always the recomputable signed
    distance to violation of the tightest inequality.
    """

    cid: str
    status: str
    lhs: Optional[float]
    rhs: Optional[float]
    relation: str
    margin: Optional[float]
    engine: str
    subchecks: list[SubCheck] = field(default_factory=list)
    note: str = ""
    interval: Optional[dict] = None

    def as_dict(self) -> dict:
        d = {
            "id": self.cid,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "margin": self.margin,
            "engine": self.engine,
            "note": self.note,
            "subchecks": [s.as_dict() for s in self.subchecks],
        }
        if self.interval is not None:
            d["interval"] = self.interval
        return d


@dataclass
class Certificate:
    params: Params
    box: Box
    conditions: list[ConditionRecord]
    engine: str
    verdict: str = field(init=False)    # always derived from the conditions
    tol: Optional[float] = None

    def __post_init__(self) -> None:
        self.verdict = derive_verdict(self.conditions)

    @property
    def passed(self) -> bool:
        return self.verdict == "certified"

    def condition(self, cid: str) -> ConditionRecord:
        for rec in self.conditions:
            if rec.cid == cid:
                return rec
        raise KeyError(f"no condition {cid!r} in certificate")

    def min_margin_over(self, ids=None) -> float:
        """Smallest margin across the selected (default: all) conditions."""
        vals = [
            r.margin
            for r in self.conditions
            if r.margin is not None and (ids is None or r.cid in ids)
        ]
        return min(vals) if vals else float("nan")

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "chaos-certificate",
            "engine": self.engine,
            "verdict": self.verdict,
            "params": self.params.as_dict(),
            "box": self.box.as_dict(),
            "tol": self.tol,
            "min_margin": DEFAULT_MIN_MARGIN,
            "conditions": [c.as_dict() for c in self.conditions],
        }


def _worst_status(statuses: set) -> str:
    """The first of ``_STATUS_ORDER`` in ``statuses``; pass when none is."""
    for status in _STATUS_ORDER:
        if status in statuses:
            return status
    return PASS


def derive_verdict(conditions) -> str:
    return _VERDICTS[_worst_status({rec.status for rec in conditions})]


def condition_record(cid, subchecks, engine, note="", interval=None) -> ConditionRecord:
    """The record of one condition from its sub-checks, in either engine.

    Its status is the worst sub-check status; lhs, rhs, relation and margin
    come from the binding sub-check, the one with the smallest defined
    margin (the first sub-check when none is defined).  Without a ``note``
    the record repeats the binding sub-check's note when that one did not
    pass.
    """
    defined = [s for s in subchecks if s.margin is not None]
    binding = min(defined, key=lambda s: s.margin) if defined else subchecks[0]
    return ConditionRecord(
        cid=cid,
        status=_worst_status({s.status for s in subchecks}),
        lhs=binding.lhs,
        rhs=binding.rhs,
        relation=binding.relation,
        margin=binding.margin,
        engine=engine,
        subchecks=list(subchecks),
        note=note or (binding.note if binding.status != PASS else ""),
        interval=interval,
    )


# ---------------------------------------------------------------------------
# the one record rule of both analytic layers
# ---------------------------------------------------------------------------

def _sub_check(cid, relation, lhs, rhs, note) -> SubCheck:
    """One atom ``lhs relation rhs`` with margin lhs - rhs: ``">"`` passes
    when the margin is above DEFAULT_MIN_MARGIN, ``">="`` when it is >= 0."""
    margin = lhs - rhs
    holds = margin > DEFAULT_MIN_MARGIN if relation == ">" else margin >= 0.0
    return SubCheck(cid, lhs, rhs, relation, margin, PASS if holds else FAIL, note)


def _record(cid, preconditions, subchecks, note="", relation="") -> ConditionRecord:
    """The analytic record of one condition.

    ``preconditions`` lists ``(holds, note)`` pairs.  When any fails the
    record is ``inapplicable`` and its note joins the notes of the violated
    ones; otherwise it is the :func:`condition_record` of ``subchecks()``,
    which is called only then, so its sides may assume the preconditions.
    """
    blocked = [text for holds, text in preconditions if not holds]
    if blocked:
        return ConditionRecord(cid, INAPPLICABLE, None, None, relation, None, "analytic",
                               note="; ".join(blocked))
    return condition_record(cid, subchecks(), "analytic", note)


def _sqrt_or_nan(v: float) -> float:
    return math.sqrt(v) if v >= 0.0 else math.nan


# ---------------------------------------------------------------------------
# the (H) layer
# ---------------------------------------------------------------------------

def h_inequalities(p: Params, xl, xr, yl, yr, zl, zr, sqrt=math.sqrt):
    """Both sides of every atomic (H2)-(H5) inequality on the box corners.

    The one definition of the H layer: :func:`check_H` builds its records
    from it over floats, and the box search judges whole candidate arrays
    with it (``sqrt=np.sqrt``), to the same bits per element.

    Returns ``(atoms, operands)``.  ``atoms`` lists
    ``(condition, id, relation, lhs, rhs, note, root)`` in record order;
    relation ``">"`` is strict (passes when lhs - rhs > DEFAULT_MIN_MARGIN) and
    ``">="`` weak (passes when lhs - rhs >= 0).  ``root`` is the key in
    ``operands`` of the square-root operand the sides depend on, or None;
    a negative operand leaves those atoms undefined, so ``sqrt`` must
    return NaN there rather than raise.  The H2 atoms are omitted when
    alpha*c3 <= 1, where the escape bound does not exist.
    """
    s_ll = xl + yl
    s_rr = xr + yr
    atoms = []
    operands = {}

    # H2: x_l+y_l > z_r >= sqrt(alpha/(alpha*c3-1)*(x_l+y_l)) - (x_l+y_l) > 0
    if p.gradient_bound_defined:
        operands["x_l+y_l"] = p.alpha / (p.alpha * p.c3 - 1.0) * s_ll
        bound = sqrt(operands["x_l+y_l"]) - s_ll
        atoms += [
            ("H2", "H2a", ">", s_ll, zr, "x_l+y_l > z_r", None),
            ("H2", "H2b", ">=", zr, bound, "z_r >= escape bound", "x_l+y_l"),
            ("H2", "H2c", ">", bound, 0.0, "escape bound > 0", "x_l+y_l"),
        ]

    # H3: 2*(sqrt(alpha/(alpha*c3+1)*(x_r+y_r)) - (x_r+y_r)) > z_r
    operands["x_r+y_r"] = p.alpha / (p.alpha * p.c3 + 1.0) * s_rr
    reentry = 2.0 * (sqrt(operands["x_r+y_r"]) - s_rr)
    atoms.append(("H3", "H3", ">", reentry, zr, "re-entry bound > z_r", "x_r+y_r"))

    # H4: the x-cross-section inequalities.
    inv_c1 = 1.0 / p.c1
    half = 0.5 * inv_c1
    quarter = 0.25 * inv_c1
    operands["y_l+z_l"] = (yl + zl) / p.c1
    atoms += [
        ("H4", "H4a", ">", inv_c1 - xr, yr + zr, "1/c1 - x_r > y_r+z_r", None),
        ("H4", "H4b", ">", yr + zr, half - xl, "y_r+z_r > 1/(2c1) - x_l", None),
        ("H4", "H4c", ">", half - xl, 0.0, "1/(2c1) - x_l > 0", None),
        ("H4", "H4d", ">", half - xr, yl + zl, "1/(2c1) - x_r > y_l+z_l", None),
        ("H4", "H4e", ">=", xr, quarter, "x_r >= 1/(4c1)", None),
        ("H4", "H4f", ">=", half * (1.0 - p.c1 * (yl + yr + zl + zr)), xl,
         "vertex-sum bound >= x_l", None),
        ("H4", "H4g", ">", xl, 0.0, "x_l > 0", None),
        ("H4", "H4h", ">=", sqrt(operands["y_l+z_l"]) - (yl + zl), xl,
         "sqrt((y_l+z_l)/c1) - (y_l+z_l) >= x_l", "y_l+z_l"),
    ]

    # H5: the y-cross-section inequalities through psi(D) = sqrt(D/c2) - D.
    operands["x_l+z_l"] = (xl + zl) / p.c2
    operands["x_r+z_r"] = (xr + zr) / p.c2
    lo_val = sqrt(operands["x_l+z_l"]) - (xl + zl)
    hi_val = sqrt(operands["x_r+z_r"]) - (xr + zr)
    atoms += [
        ("H5", "H5a", ">", xl + zl, 0.25 / p.c2, "x_l+z_l > 1/(4c2)", None),
        ("H5", "H5b", ">=", yr, lo_val, "y_r >= psi(x_l+z_l)", "x_l+z_l"),
        ("H5", "H5c", ">", lo_val, 0.0, "psi(x_l+z_l) > 0", "x_l+z_l"),
        ("H5", "H5d", ">=", hi_val, yl, "psi(x_r+z_r) >= y_l", "x_r+z_r"),
        ("H5", "H5e", ">", yl, 0.0, "y_l > 0", None),
    ]
    return atoms, operands


def check_H(p: Params, b: Box) -> Certificate:
    """Evaluate the five hypothesis groups on the box corners.

    H2's lower bound for z_r involves sqrt(alpha/(alpha*c3 - 1) * (x_l+y_l))
    and is undefined when alpha*c3 <= 1; that yields an ``inapplicable``
    H2 record rather than a failure, since no verdict either way follows.
    A negative square-root operand replaces the atoms that depend on it
    by one undefined (failing) sub-check.
    """
    xl, xr, yl, yr, zl, zr = b.as_tuple()

    # H1: the bottom face must sit exactly on the exit plane z = 0.
    grounded = zl == 0.0
    h1 = condition_record(
        "H1", [SubCheck("H1", zl, 0.0, "==", -abs(zl), PASS if grounded else FAIL)],
        "analytic", note="" if grounded else "bottom face must lie on z = 0")

    atoms, operands = h_inequalities(p, xl, xr, yl, yr, zl, zr, _sqrt_or_nan)
    subs = {cid: [] for cid in H_IDS[1:]}
    undefined = set()
    for cid, sid, relation, lhs, rhs, note, root in atoms:
        if root is not None and operands[root] < 0.0:
            if root not in undefined:
                undefined.add(root)
                subs[cid].append(SubCheck(sid, None, None, relation, None, FAIL,
                                          f"sqrt of negative operand ({root} < 0)"))
        else:
            subs[cid].append(_sub_check(sid, relation, lhs, rhs, note))

    escape = (p.gradient_bound_defined,
              f"alpha*c3 = {p.alpha * p.c3} <= 1: escape bound undefined")
    records = [h1, _record("H2", [escape], lambda: subs["H2"], relation=">=")]
    records += [condition_record(cid, subs[cid], "analytic") for cid in ("H3", "H4", "H5")]
    return Certificate(params=p, box=b, conditions=records, engine="analytic")


# ---------------------------------------------------------------------------
# the (C) layer, analytic route
# ---------------------------------------------------------------------------

def _f3_point(p: Params, x: float, y: float, z: float) -> float:
    q = x + y + z
    q2 = q * q
    if q2 == 0.0:
        raise DomainError(f"x + y + z = {q}: (x+y+z)^2 underflows to 0")
    return z * (1.0 - p.alpha * p.c3 + p.alpha * (x + y) / q2)


def check_C_analytic(p: Params, b: Box) -> Certificate:
    """Closed-form verdicts for the five covering conditions.

    Each condition is reduced to extremal values of a one-variable section:

    * C1: the bottom face z = z_l = 0 is mapped exactly into the plane
      F3 = 0 (the z-factor of the map makes this exact, not approximate).
    * C2: on the top face, F3 depends on (x, y) only through A = x+y and
      phi(A) = z_r*(1 - alpha*c3 + alpha*A/(A+z_r)^2) is decreasing when
      A > z_r throughout, so max F3 = F3(x_l, y_l, z_r) and it must be <= 0.
    * C3': on the midplane z = (z_l+z_r)/2 the same section is decreasing
      when A > z_mid, so min F3 = F3(x_r, y_r, z_mid) and it must be > z_r.
    * C4: F1 = Phi(x, B) with B = y+z on T = [x_l,x_r] x [y_l+z_l, y_r+z_r];
      Phi has no interior critical point, the max sits at
      (x_r, 1/(2c1) - x_r) with value (x_r + 1/(4c1))/2 and the min at
      (x_l, y_l+z_l); both must stay inside [x_l, x_r].
    * C5: F2 = psi(D) with D = x+z decreasing for D > 1/(4c2), so the range
      over the box is [psi(x_r+z_r), psi(x_l+z_l)] and must sit in [y_l,y_r].

    Each row of the table below gives a condition's monotonicity
    preconditions, a thunk of its atoms ``_sub_check(id, relation, lhs,
    rhs, note)`` and its note; the atoms are formed only when every
    precondition holds, since C5's square roots and ``_f3_point``'s
    division assume them.  A violated precondition yields ``inapplicable``
    naming it, so callers can distinguish "condition is false" from "this
    reduction cannot decide".  The closed forms, the preconditions and the
    margins are all evaluated in round-to-nearest floats.
    """
    xl, xr, yl, yr, zl, zr = b.as_tuple()
    z_mid = b.z_mid
    b_lo, b_hi = yl + zl, yr + zr
    d_lo, d_hi = xl + zl, xr + zr
    half = 0.5 / p.c1

    # C1 is exact, not an atom: the z-factor of F3 vanishes on z = 0
    c1 = (ConditionRecord("C1", PASS, 0.0, 0.0, "==", 0.0, "analytic",
                          note="F3 vanishes identically on the bottom face (exact z-factor)")
          if zl == 0.0 else _record("C1", [(False, "analytic C1 needs z_l = 0 (H1)")], None))
    rows = [
        ("C2",
         [(xl + yl > zr, "precondition x_l+y_l > z_r violated: top-face section not monotone")],
         lambda: [_sub_check("C2", ">=", 0.0, _f3_point(p, xl, yl, zr),
                             "max F3 on top face <= 0")],
         "max F3 on top face at (x_l, y_l, z_r)"),
        ("C3p",
         [(xl + yl > z_mid,
           "precondition x_l+y_l > z_mid violated: midplane section not monotone")],
         lambda: [_sub_check("C3p", ">", _f3_point(p, xr, yr, z_mid), zr,
                             "min F3 on midplane > z_r")],
         "min F3 on midplane at (x_r, y_r, z_mid)"),
        ("C4",
         [(b_lo <= half - xr <= b_hi, "1/(2c1) - x_r outside [y_l+z_l, y_r+z_r]"),
          (1.0 / p.c1 - b_hi > xr, "Phi not increasing in x up to x_r"),
          (xl <= half * (1.0 - p.c1 * (yl + yr + zl + zr)),
           "min-candidate ordering needs the vertex-sum bound")],
         lambda: [_sub_check("C4max", ">=", xr, 0.5 * (xr + 0.25 / p.c1), "max F1 <= x_r"),
                  _sub_check("C4min", ">=",
                             0.5 * (2.0 * xl + b_lo - p.c1 * ((xl + b_lo) * (xl + b_lo))),
                             xl, "min F1 >= x_l")],
         "extrema at (x_r, 1/(2c1)-x_r) and (x_l, y_l+z_l)"),
        ("C5",
         [(d_lo > 0.25 / p.c2,
           "precondition x_l+z_l > 1/(4c2) violated: psi not decreasing on box")],
         lambda: [_sub_check("C5max", ">=", yr, math.sqrt(d_lo / p.c2) - d_lo, "max F2 <= y_r"),
                  _sub_check("C5min", ">=", math.sqrt(d_hi / p.c2) - d_hi, yl, "min F2 >= y_l")],
         "extrema at D = x_l+z_l and D = x_r+z_r"),
    ]
    return Certificate(params=p, box=b, conditions=[c1] + [_record(*row) for row in rows],
                       engine="analytic")


# ---------------------------------------------------------------------------
# merged certificate
# ---------------------------------------------------------------------------

def _merge_status(a: str, i: str) -> str:
    """Combine analytic and interval statuses for one C condition.

    The analytic engine reports pass, fail or inapplicable, and the
    interval engine pass, fail or inconclusive.  Over those pairs a failure
    of either dominates and otherwise the interval verdict stands: a pass
    needs the interval engine, which no analytic pass overrules.
    """
    return FAIL if a == FAIL else i


def _check_tol(tol: float) -> None:
    if tol <= 0.0 or not math.isfinite(tol):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def certify_box(
    p: Params,
    b: Box,
    engine: str = "analytic",
    tol: float = 1e-8,
    budget: int = 10**6,
) -> Certificate:
    """Full certificate: H layer plus C layer under the requested engine.

    engine:
        "analytic"  closed-form C layer only
        "interval"  rigorous branch-and-bound C layer only
        "both"      run both; each C record carries the interval enclosure
                    and passes only with no engine contradicting

    The H layer always comes from ``check_H``.  It and the analytic C layer
    are decided in round-to-nearest floats: their sums, divisions and
    square roots round, and no enclosure bounds that error.  Only
    ``engine="interval"`` (and the interval half of "both") rounds
    outward, and only for the C layer.  So a ``pass`` is proved only for a
    C condition that the interval engine passes; an H pass, or an analytic
    C pass, is a float verdict, not yet decided under outward rounding.
    """
    if engine not in ("analytic", "interval", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    _check_tol(tol)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    h = check_H(p, b).conditions

    if engine == "analytic":
        return Certificate(params=p, box=b, conditions=h + check_C_analytic(p, b).conditions,
                           engine="analytic")

    from .bounds import verify_C_rigorous  # deferred: bounds imports Box types

    i_cert = verify_C_rigorous(p, b, tol=tol, budget=budget)
    if engine == "interval":
        return Certificate(params=p, box=b, conditions=h + i_cert.conditions,
                           engine="interval", tol=tol)

    a_cert = check_C_analytic(p, b)
    fused: list[ConditionRecord] = []
    for cid in C_IDS:
        ra = a_cert.condition(cid)
        ri = i_cert.condition(cid)
        confirmed = ",".join(name for name, rec in (("analytic", ra), ("interval", ri))
                             if rec.status == PASS)
        fused.append(ConditionRecord(
            cid=cid,
            status=_merge_status(ra.status, ri.status),
            lhs=ra.lhs if ra.lhs is not None else ri.lhs,
            rhs=ra.rhs if ra.rhs is not None else ri.rhs,
            relation=ra.relation or ri.relation,
            margin=ra.margin if ra.margin is not None else ri.margin,
            engine="analytic+interval",
            subchecks=list(ra.subchecks),
            note="; ".join(n for n in (ra.note, ri.note, "confirmed by: " + (confirmed or "none"))
                           if n),
            interval=ri.interval,
        ))
    return Certificate(params=p, box=b, conditions=h + fused, engine="both", tol=tol)
