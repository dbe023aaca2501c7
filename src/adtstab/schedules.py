"""Averaged dwell-time impulse schedules.

An impulse instant sequence tau_k = tau0 + k*theta + chi_k is admissible
when every deviation chi_k stays inside the window of its variant:

  * "adt":      -chi_max <= chi_k <= chi_max
  * "adt_plus":         0 <= chi_k <= chi_max  (instants never arrive early)

with chi_0 = 0, strictly increasing instants, and chi_max < theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

ADT = "adt"
ADT_PLUS = "adt_plus"
VARIANTS = (ADT, ADT_PLUS)
# the largest count or index an array can hold
_INDEX_MAX = int(np.iinfo(np.intp).max)

__all__ = [
    "ADT",
    "ADT_PLUS",
    "VARIANTS",
    "ImpulseSchedule",
    "CheckResult",
    "ValidationReport",
    "check_window",
    "generate",
    "validate",
    "require_valid",
    "schedule_to_doc",
    "schedule_from_doc",
]


@dataclass(frozen=True)
class ImpulseSchedule:
    """Impulse instants encoded by their deviations from the uniform grid."""

    tau0: float
    theta: float
    chi_max: float
    variant: str
    chis: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.chis)

    @property
    def taus(self) -> np.ndarray:
        k = np.arange(len(self.chis), dtype=float)
        with np.errstate(over="ignore"):  # an instant past float64 is inf, which validate names
            return self.tau0 + k * self.theta + np.asarray(self.chis, dtype=float)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_index: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _lowest_deviation(chi_max: float, variant: str) -> float:
    """Lower end of the variant's deviation window: -chi_max for "adt", 0 for "adt_plus"."""
    return -chi_max if variant == ADT else 0.0


def check_window(theta: float, chi_max: float) -> None:
    """Reject a deviation bound outside 0 <= chi_max < theta (theta finite)."""
    if not (np.isfinite(theta) and 0.0 <= chi_max < theta):
        raise InputError("need 0 <= chi_max < theta")


def _check_params(tau0, theta, chi_max, variant) -> None:
    for name, v in (("tau0", tau0), ("theta", theta), ("chi_max", chi_max)):
        if not np.isfinite(v):
            raise InputError(f"{name} must be finite")
    if theta <= 0.0:
        raise InputError("theta must be > 0")
    check_window(theta, chi_max)
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}, got {variant!r}")


def generate(
    tau0: float,
    theta: float,
    chi_max: float,
    count: int,
    variant: str = ADT,
    seed: int = 0,
) -> ImpulseSchedule:
    """Draw a seeded admissible schedule with count instants.

    Deviations are uniform on the variant's window with chi_0 = 0, given
    strict increase of the instants: each chi_k is one draw, uniform on the
    part of its window above chi_(k-1) - theta, which is the law of
    redrawing on the whole window until tau_k > tau_(k-1).  That part is
    the whole window for every "adt_plus" schedule and for "adt" with
    theta > 2 chi_max, so there each draw is rng.uniform(lo, chi_max) and
    the schedule has the bits of such a rejection sampler.
    """
    _check_params(tau0, theta, chi_max, variant)
    count = _whole(count, "count", 1, _INDEX_MAX // 8)  # bytes of the float64 array
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    lo = _lowest_deviation(chi_max, variant)
    # allocated before the first draw: a count past memory raises MemoryError at once
    chis = np.empty(count)
    chis[0] = chi = 0.0
    for k in range(1, count):
        low = max(lo, math.nextafter(chi - theta, math.inf))  # tau_k > tau_(k-1)
        chis[k] = chi = float(rng.uniform(low, chi_max))
    return ImpulseSchedule(
        tau0=float(tau0),
        theta=float(theta),
        chi_max=float(chi_max),
        variant=variant,
        chis=tuple(chis.tolist()),
    )


def _check(name: str, failed, index: int | None = None, detail=None) -> CheckResult:
    """A passing check, or a failed one with its worst index and detail();
    the detail is formed only for a failure."""
    return CheckResult(name, not failed, index if failed else None, detail() if failed else "")


def validate(schedule: ImpulseSchedule) -> ValidationReport:
    """Check every schedule invariant; reports per-check worst offenders."""
    try:
        _check_params(schedule.tau0, schedule.theta, schedule.chi_max, schedule.variant)
        detail = "" if len(schedule.chis) else "schedule must contain at least tau_0"
    except InputError as exc:
        detail = str(exc)
    if detail:
        return ValidationReport((_check("parameters", True, None, lambda: detail),))

    chis, hi = np.asarray(schedule.chis, dtype=float), schedule.chi_max
    lo = _lowest_deviation(hi, schedule.variant)
    excess = np.maximum(lo - chis, chis - hi)
    excess[~np.isfinite(chis)] = np.inf  # NaN compares false, so fail it outright
    k = int(np.argmax(excess))
    # with every deviation in its window, consecutive gaps
    # theta + chi_k - chi_(k-1) are also at most theta + 2 chi_max
    taus = schedule.taus
    with np.errstate(invalid="ignore"):  # inf - inf from rejected deviations
        gaps = np.diff(taus)
    g = int(np.argmin(gaps)) if len(gaps) else 0  # the first NaN, if any: NaN <= 0 is false
    past = np.flatnonzero(~np.isfinite(taus) & np.isfinite(chis))  # overflowed: inf - 1e308 > 0
    j = int(past[0]) if past.size else g + 1
    return ValidationReport((
        _check("parameters", False),
        _check("initial_deviation", chis[0] != 0.0, 0, lambda: f"chi_0 = {chis[0]:.6g}, expected 0"),
        _check("deviation_bound", excess[k] > 0.0, k,
               lambda: f"chi_{k} = {chis[k]:.6g} outside [{lo:.6g}, {hi:.6g}]"),
        _check("strictly_increasing", past.size or (len(gaps) and gaps[g] <= 0.0), j,
               lambda: f"tau_{j} = {taus[j]:g} is not finite" if past.size
               else f"tau_{g + 1} - tau_{g} = {gaps[g]:.6g} <= 0"),
    ))


def require_valid(schedule: ImpulseSchedule) -> None:
    """Raise InputError naming the first failed invariant of the schedule."""
    report = validate(schedule)
    if not report.passed:
        worst = report.failures()[0]
        raise InputError(f"invalid schedule ({worst.name}): {worst.detail}")


def schedule_to_doc(schedule: ImpulseSchedule) -> dict:
    """JSON-compatible document with the canonical keys."""
    return {
        "tau0": float(schedule.tau0),
        "theta": float(schedule.theta),
        "chi_max": float(schedule.chi_max),
        "variant": schedule.variant,
        "chis": [float(c) for c in schedule.chis],
    }


def _number(value, kind=float):
    """A Python or numpy real as kind; a bool, a string or a container raises
    ValueError, where float() would read true as 1.0 and "1" as 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(repr(value))
    return kind(value)


def _numbers(value) -> np.ndarray:
    """Nested lists of numbers (or one number), each entry read by _number."""
    arr = np.asarray(value, dtype=object)
    return np.array([_number(v) for v in arr.flat], dtype=float).reshape(arr.shape)


def _number_list(value) -> list[float]:
    """A flat list of numbers read by _numbers; any other shape raises ValueError."""
    arr = _numbers(value)
    if arr.ndim != 1:
        raise ValueError(repr(value))
    return arr.tolist()


def _whole(value, name: str = "value", lo=-math.inf, hi=math.inf) -> int:
    """A whole Python or numpy real in lo..hi as an int; a bool, a string, a
    fractional or non-finite number or a value outside lo..hi raises
    InputError naming name."""
    try:
        whole = _number(value, int)
    except (ValueError, OverflowError):  # int(nan), int(inf)
        whole = None
    if whole is None or whole != value or not lo <= whole <= hi:
        raise InputError(f"{name} must be in {lo}..{hi}, got {value!r}")
    return whole


def _values(sec: dict, name: str, *keys: str, kind=_number, default=None) -> list:
    """The keys of the config section or document called name, each read by kind.

    default stands in for a missing key.  A key missing without a default,
    or a value that kind rejects, raises InputError naming name.key.
    """
    out = []
    for key in keys:
        if key not in sec and default is not None:
            out.append(default)
            continue
        try:
            out.append(kind(sec[key]))
        except KeyError:
            raise InputError(f"{name} section missing {key!r}") from None
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"{name}.{key} has an invalid value {sec[key]!r}") from None
    return out


def schedule_from_doc(doc: dict) -> ImpulseSchedule:
    """Rebuild a schedule from its document form.

    Accepts either deviations ("chis") or explicit instants ("taus"); an
    explicit list is converted via chi_k = tau_k - tau_0 - k*theta.
    """
    if not isinstance(doc, dict):
        raise InputError("schedule document must be a JSON object")
    variant = doc.get("variant", ADT)
    theta, chi_max = _values(doc, "schedule", "theta", "chi_max")
    if "chis" in doc:
        (chis,) = _values(doc, "schedule", "chis", kind=_number_list)
        (tau0,) = _values(doc, "schedule", "tau0")
    elif "taus" in doc:
        (taus,) = _values(doc, "schedule", "taus", kind=_number_list)
        if not taus:
            raise InputError("schedule document has an empty 'taus' list")
        (tau0,) = _values(doc, "schedule", "tau0", default=taus[0])
        chis = [t - tau0 - k * theta for k, t in enumerate(taus)]
    else:
        raise InputError("schedule document needs either 'chis' or 'taus'")
    if not chis:
        raise InputError("schedule document has an empty 'chis' list")
    _check_params(tau0, theta, chi_max, variant)
    return ImpulseSchedule(
        tau0=tau0, theta=theta, chi_max=chi_max, variant=variant, chis=tuple(chis)
    )
