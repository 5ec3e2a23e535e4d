"""Parameter validation and classification for the branching family.

The offspring generating function of every process handled by this package
satisfies, for a fixed exponent theta in [-1, 1],

    (A - f(s))^(-theta) = a * (A - s)^(-theta) + c        (theta != 0)

together with the two limiting branches

    f(s) = A - (A - q)^(1 - a) * (A - s)^a                (theta = 0)
    f(s) = a*s + (1 - a)*q                                (theta = -1),

where A >= 1 is the upper endpoint of the relevant s-interval and q is the
smallest solution of f(x) = x in [0, 1]. The admissible combinations of
(theta, a, c, A) split into nine mutually exclusive cases; everything else in
the package dispatches on that case tag, so the classifier is the single
source of truth for which formulas apply.

Conventions:
- the canonical bundle is (theta, a, c, A) with q cached alongside; for
  theta = 0 the constant c degenerates to 1 - a and q carries the missing
  information;
- theta = 0 and theta = -1 are exact discrete branches, selected by equality
  on the input value; tiny nonzero theta is accepted but triggers
  ConditioningWarning because exponents of order 1/theta blow up;
- infinite moments are reported as math.inf, never as a large finite number.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    ConditioningWarning,
    DomainError,
    InconsistentParamsError,
    UnclassifiableError,
)

__all__ = [
    "Criticality",
    "CaseTag",
    "ThetaParams",
    "ScalarSummary",
    "validate_classify",
    "case_of",
    "scalar_summary",
    "dual_transform",
    "from_linear_fractional",
    "serialize",
]

#: relative tolerance used when two redundant parameters are cross-checked
_CONSISTENCY_RTOL = 1e-10

#: |theta| below this (but nonzero) is accepted with a conditioning warning
_THETA_CONDITIONING = 1e-5  # the closed form rounds by about eps/|theta|

#: the admissible range of each coordinate, keyed as validate_classify reads it
_RANGES = {
    "theta": ("[-1, 1]", lambda v: -1.0 <= v <= 1.0),
    "a": ("(0, inf)", lambda v: 0.0 < v < math.inf),
    "c": ("[0, inf)", lambda v: 0.0 <= v < math.inf),
    "A": ("[1, inf)", lambda v: 1.0 <= v < math.inf),
    "q": ("[0, 1]", lambda v: 0.0 <= v <= 1.0),
}


def _in_range(key: str, value) -> float:
    """float(value), or DomainError unless it lies in key's range (nan never does)."""
    value = float(value)
    interval, admits = _RANGES[key]
    if not admits(value):
        raise DomainError(f"{key} must lie in {interval}, got {value}")
    return value


def _integer(name: str, value, low: int) -> int:
    """value as an int, or DomainError unless it is an integer of at least low
    (numpy integers are, floats are not)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer") from None
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return value


class Criticality(enum.Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"
    NON_REGULAR = "NonRegular"
    PURE_DEATH = "PureDeath"


@dataclass(frozen=True)
class CaseTag:
    """Which of the nine parameter cases applies, and its coarse character.

    regular means f(1) = 1, i.e. the offspring law puts no mass at infinity.
    """

    case_id: str
    regular: bool
    criticality: Criticality


@dataclass(frozen=True)
class ThetaParams:
    """Canonical, validated parameter bundle (theta, a, c, A) with q cached.

    Instances should normally be produced by validate_classify or
    from_linear_fractional; direct construction performs only range checks.
    """

    theta: float
    a: float
    c: float
    big_a: float
    q: float

    def __post_init__(self) -> None:
        for name, key in zip(("theta", "a", "c", "big_a", "q"), _RANGES):
            object.__setattr__(self, name, _in_range(key, getattr(self, name)))

    @property
    def d(self) -> float:
        """Alternative constant c / (a - 1), defined only when a > 1."""
        if self.a <= 1.0:
            raise DomainError("d = c/(a-1) is defined only for a > 1")
        return self.c / (self.a - 1.0)


@dataclass(frozen=True)
class ScalarSummary:
    """Scalar facts read off the offspring generating function at s = 1.

    mean_m and f2_at_1 are math.inf when the corresponding moment diverges or
    passes the float range.
    """

    f_at_1: float
    p_inf: float
    mean_m: float
    f2_at_1: float
    gamma: float


def _canonical_c(theta: float, a: float, big_a: float, q: float) -> float:
    if theta == 0.0:
        return 1.0 - a
    return (1.0 - a) * (big_a - q) ** (-theta)


def _q_from_c(theta: float, a: float, c: float, big_a: float) -> float:
    # inverse of c = (1-a) * (A-q)^(-theta), valid for a < 1, theta != 0
    if c <= 0.0:
        raise DomainError("c must be positive to recover q for a < 1")
    try:
        return big_a - ((1.0 - a) / c) ** (1.0 / theta)
    except OverflowError:  # A - q past the float range puts q below 0
        return -math.inf


def _check_fixed_point_at_one(theta: float, a: float, big_a: float, q: float) -> None:
    """A = 1 with q = 1 is admissible for a < 1 only as theta = -1's pure death."""
    if big_a == 1.0 and q == 1.0 and a < 1.0 and theta != -1.0:
        raise UnclassifiableError("A = 1 with q = 1 requires a >= 1")


def validate_classify(raw: Mapping[str, object]) -> tuple[ThetaParams, CaseTag]:
    """Validate a raw parameter mapping and classify it into one of nine cases.

    raw must contain "theta" and "a", at least one of "c" and "q", and may
    contain "A" (default 1). When both c and q are given they are
    cross-checked at relative tolerance 1e-10. A "case_id" entry, if present,
    is verified against the computed classification.

    Returns the canonical ThetaParams together with its CaseTag.
    """
    unknown = set(raw) - {"theta", "a", "c", "q", "A", "case_id"}
    if unknown:
        raise DomainError(f"unknown parameter keys: {sorted(unknown)}")
    try:
        theta = _in_range("theta", raw["theta"])
        a = _in_range("a", raw["a"])
    except KeyError as exc:
        raise DomainError(f"missing required parameter {exc}") from None
    big_a = _in_range("A", raw.get("A", 1.0))
    c_in, q_in = raw.get("c"), raw.get("q")
    if c_in is None and q_in is None:
        raise DomainError("one of c or q is required")
    # the raw values are checked before c or q is derived from them: with
    # A < 1 or q > 1, (A - q)^(-theta) turns complex
    c = None if c_in is None else _in_range("c", c_in)
    q = None if q_in is None else _in_range("q", q_in)
    if 0.0 < abs(theta) < _THETA_CONDITIONING:
        warnings.warn(
            f"theta={theta} is within {_THETA_CONDITIONING} of the theta=0 "
            "branch; exponents of order 1/theta make results ill-conditioned",
            ConditioningWarning,
            stacklevel=2,
        )

    if theta > 0.0 and a >= 1.0:
        # Cases 1 and 2: defined through c, with q pinned at A = 1.
        if c is None:
            raise DomainError("a >= 1 requires c explicitly (q carries no information)")
        if c <= 0.0:
            raise DomainError("a >= 1 requires c > 0")
        if q is not None and q != 1.0:
            raise InconsistentParamsError(f"a >= 1 forces q = 1, got q={q}")
        q = 1.0
    elif a >= 1.0:
        raise UnclassifiableError(f"a >= 1 is admissible only with theta in (0, 1], got theta={theta}")
    elif theta == 0.0:
        # c degenerates to 1 - a in this branch; q is the real parameter.
        if q is None:
            raise DomainError("theta = 0 requires q (c is degenerate there)")
        if c is not None and not math.isclose(c, 1.0 - a, rel_tol=_CONSISTENCY_RTOL, abs_tol=1e-15):
            raise InconsistentParamsError(
                f"theta = 0 stores c = 1-a = {1.0 - a}, got c={c}"
            )
        c = 1.0 - a
    else:
        # a < 1, theta != 0: c and q are redundant through
        # c = (1-a) * (A-q)^(-theta).
        if q is None:
            q = _q_from_c(theta, a, c, big_a)  # type: ignore[arg-type]
            if not 0.0 <= q <= 1.0:
                raise UnclassifiableError(
                    f"c={c} corresponds to q={q} outside [0, 1]"
                )
        else:
            # before c = (1-a)(A-q)^(-theta), which divides by zero at A = q = 1 for theta > 0
            _check_fixed_point_at_one(theta, a, big_a, q)
            c_implied = _canonical_c(theta, a, big_a, q)
            if c is not None and not math.isclose(
                c, c_implied, rel_tol=_CONSISTENCY_RTOL, abs_tol=1e-15
            ):
                raise InconsistentParamsError(
                    f"c={c} inconsistent with q={q} (implies c={c_implied})"
                )
            c = c_implied

    p = ThetaParams(theta=theta, a=a, c=c, big_a=big_a, q=q)
    tag = case_of(p)
    declared = raw.get("case_id")
    if declared is not None and declared != tag.case_id:
        raise InconsistentParamsError(
            f"declared case_id={declared!r} but parameters classify as {tag.case_id!r}"
        )
    return p, tag


def case_of(p: ThetaParams) -> CaseTag:
    """Classify already-validated parameters into case1..case9."""
    theta, a, big_a, q = p.theta, p.a, p.big_a, p.q
    _check_fixed_point_at_one(theta, a, big_a, q)
    if theta > 0.0:
        if a > 1.0:
            if big_a != 1.0 or q != 1.0:
                raise UnclassifiableError("a > 1 requires A = 1 and q = 1")
            return CaseTag("case1", True, Criticality.SUBCRITICAL)
        if a == 1.0:
            if big_a != 1.0 or q != 1.0:
                raise UnclassifiableError("a = 1 requires A = 1 and q = 1")
            return CaseTag("case2", True, Criticality.CRITICAL)
        if big_a == 1.0:
            return CaseTag("case3", True, Criticality.SUPERCRITICAL)
        if q == 1.0:
            return CaseTag("case7", True, Criticality.SUBCRITICAL)
        return CaseTag("case7", False, Criticality.NON_REGULAR)
    if theta == 0.0:
        if a >= 1.0:
            raise UnclassifiableError("theta = 0 requires a in (0, 1)")
        if big_a == 1.0:
            return CaseTag("case4", True, Criticality.SUPERCRITICAL)
        if q == 1.0:
            return CaseTag("case8", True, Criticality.SUBCRITICAL)
        return CaseTag("case8", False, Criticality.NON_REGULAR)
    if a >= 1.0:
        raise UnclassifiableError("theta < 0 requires a in (0, 1)")
    if theta == -1.0:
        if big_a != 1.0:
            raise UnclassifiableError("theta = -1 is defined only with A = 1")
        if q == 1.0:
            return CaseTag("case6", True, Criticality.PURE_DEATH)
        return CaseTag("case6", False, Criticality.NON_REGULAR)
    if big_a == 1.0:
        return CaseTag("case5", False, Criticality.NON_REGULAR)
    if q == 1.0:
        return CaseTag("case9", True, Criticality.SUBCRITICAL)
    return CaseTag("case9", False, Criticality.NON_REGULAR)


def scalar_summary(p: ThetaParams) -> ScalarSummary:
    """Closed-form f(1), escape mass, mean, second derivative and gamma = f'(q).

    These are the per-case displays, kept independent of the generic pgf
    evaluator so the two routes can be checked against each other.
    """
    tag = case_of(p)
    theta, a, c, big_a, q = p.theta, p.a, p.c, p.big_a, p.q
    case = tag.case_id

    if case == "case1":
        d = p.d
        f1 = 1.0
        mean = a ** (-1.0 / theta)
        f2 = 2.0 * (a - 1.0) * d / (a * a) if theta == 1.0 else math.inf
        gamma = mean
    elif case == "case2":
        f1 = 1.0
        mean = 1.0
        f2 = 2.0 * c if theta == 1.0 else math.inf
        gamma = 1.0
    elif case == "case3":
        f1, gamma = 1.0, a
        try:
            mean = a ** (-1.0 / theta)
        except OverflowError:
            mean = math.inf
        den = a * a * (1.0 - q)  # underflows to 0 for tiny a
        f2 = 2.0 * (1.0 - a) / den if theta == 1.0 and den > 0.0 else math.inf
    elif case == "case4":
        f1, mean, f2, gamma = 1.0, math.inf, math.inf, a
    elif case == "case5":
        t = -theta
        f1 = 1.0 - (1.0 - a) ** (1.0 / t) * (1.0 - q)
        mean, f2, gamma = math.inf, math.inf, a
    elif case == "case6":
        f1 = a + (1.0 - a) * q
        mean, f2, gamma = a, 0.0, a
    elif case in ("case7", "case9"):
        gamma = a
        if q == 1.0:
            f1 = 1.0
            mean = a
            f2 = (1.0 + theta) * a * (1.0 - a) / (big_a - 1.0)
        else:
            bracket = a + (1.0 - a) * ((big_a - 1.0) / (big_a - q)) ** theta
            f1 = 1.0 - (big_a - 1.0) * (bracket ** (-1.0 / theta) - 1.0)
            mean = a * bracket ** (-1.0 / theta - 1.0)
            f2 = (
                (1.0 + theta)
                * a
                * (1.0 - a)
                * (big_a - q) ** (-theta)
                * (big_a - 1.0) ** (theta - 1.0)
                * bracket ** (-1.0 / theta - 2.0)
            )
    else:  # case8
        gamma = a
        if q == 1.0:
            f1 = 1.0
            mean = a
            f2 = a * (1.0 - a) / (big_a - 1.0)
        else:
            f1 = 1.0 - ((big_a - q) ** (1.0 - a) * (big_a - 1.0) ** a - (big_a - 1.0))
            mean = a * (big_a - q) ** (1.0 - a) * (big_a - 1.0) ** (a - 1.0)
            f2 = a * (1.0 - a) * (big_a - q) ** (1.0 - a) * (big_a - 1.0) ** (a - 2.0)

    p_inf = 1.0 - f1
    if abs(p_inf) < 1e-15:
        p_inf = 0.0
    return ScalarSummary(f_at_1=f1, p_inf=p_inf, mean_m=mean, f2_at_1=f2, gamma=gamma)


def dual_transform(p: ThetaParams) -> ThetaParams:
    """Map an A > 1 process to its dual on [0, 1]: fhat(s) = f(s*A)/A.

    The dual keeps theta and a, rescales the fixed point to q/A and lands in
    the corresponding A = 1 case (case7 -> case3, case8 -> case4,
    case9 -> case5).
    """
    if p.big_a == 1.0:
        raise DomainError("dual_transform requires A > 1")
    q_hat = p.q / p.big_a
    return ThetaParams(
        theta=p.theta,
        a=p.a,
        c=_canonical_c(p.theta, p.a, 1.0, q_hat),
        big_a=1.0,
        q=q_hat,
    )


def from_linear_fractional(p0: float, pr: float) -> tuple[ThetaParams, CaseTag]:
    """Build the theta = 1 member matching a linear-fractional offspring law.

    The law is P(0) = p0 and P(k) = (1 - p0) * (1 - pr)^(k-1) * pr for k >= 1,
    which satisfies 1/(1 - f(s)) = a/(1 - s) + c with a = pr/(1 - p0) and
    c = (1 - pr)/(1 - p0). pr = 1 makes c = 0 (a degenerate boundary outside
    the family) and is rejected.
    """
    p0 = float(p0)
    pr = float(pr)
    if not 0.0 <= p0 < 1.0:
        raise DomainError(f"p0 must lie in [0, 1), got {p0}")
    if not 0.0 < pr <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {pr}")
    a = pr / (1.0 - p0)
    c = (1.0 - pr) / (1.0 - p0)
    if c == 0.0:
        raise InconsistentParamsError(
            "p = 1 gives c = 0, a boundary outside the family"
        )
    return validate_classify({"theta": 1.0, "a": a, "c": c})


def serialize(p: ThetaParams) -> dict[str, object]:
    """Canonical JSON-ready bundle; validate_classify round-trips it exactly."""
    return {
        "theta": p.theta,
        "a": p.a,
        "c": p.c,
        "q": p.q,
        "A": p.big_a,
        "case_id": case_of(p).case_id,
    }
