"""Averaged dwell-time impulse schedules.

An impulse instant sequence tau_k = tau0 + k*theta + chi_k is admissible
when every deviation chi_k stays inside the window of its variant:

  * "adt":      -chi_max <= chi_k <= chi_max
  * "adt_plus":         0 <= chi_k <= chi_max  (instants never arrive early)

with chi_0 = 0, strictly increasing instants, and chi_max < theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, InputError

ADT = "adt"
ADT_PLUS = "adt_plus"
VARIANTS = (ADT, ADT_PLUS)

MAX_RETRIES = 64

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

    Deviations are uniform on the variant's window with chi_0 = 0.  A draw
    that would break strict increase of the instants is redrawn; generation
    fails after MAX_RETRIES consecutive rejected draws.
    """
    _check_params(tau0, theta, chi_max, variant)
    if count < 1:
        raise InputError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lo = -chi_max if variant == ADT else 0.0
    chis = [0.0]
    for _k in range(1, int(count)):
        for _attempt in range(MAX_RETRIES):
            chi = float(rng.uniform(lo, chi_max))
            if chi > chis[-1] - theta:  # tau_k > tau_{k-1}
                chis.append(chi)
                break
        else:
            raise GenerationError(
                f"no admissible deviation after {MAX_RETRIES} retries at index {_k}"
            )
    return ImpulseSchedule(
        tau0=float(tau0),
        theta=float(theta),
        chi_max=float(chi_max),
        variant=variant,
        chis=tuple(chis),
    )


def validate(schedule: ImpulseSchedule) -> ValidationReport:
    """Check every schedule invariant; reports per-check worst offenders."""
    checks: list[CheckResult] = []

    try:
        _check_params(schedule.tau0, schedule.theta, schedule.chi_max, schedule.variant)
        params_ok = len(schedule.chis) >= 1
        detail = "" if params_ok else "schedule must contain at least tau_0"
    except InputError as exc:
        params_ok = False
        detail = str(exc)
    checks.append(CheckResult("parameters", params_ok, None, detail))
    if not params_ok:
        return ValidationReport(checks=tuple(checks))

    chis = np.asarray(schedule.chis, dtype=float)
    taus = schedule.taus

    zero_ok = chis[0] == 0.0
    checks.append(
        CheckResult(
            "initial_deviation",
            zero_ok,
            None if zero_ok else 0,
            "" if zero_ok else f"chi_0 = {chis[0]!r}, expected 0",
        )
    )

    lo = -schedule.chi_max if schedule.variant == ADT else 0.0
    excess = np.maximum(lo - chis, chis - schedule.chi_max)
    excess[~np.isfinite(chis)] = np.inf  # NaN compares false, so fail it outright
    if np.max(excess) > 0.0:
        k = int(np.argmax(excess))
        checks.append(
            CheckResult(
                "deviation_bound",
                False,
                k,
                f"chi_{k} = {chis[k]:.6g} outside [{lo:.6g}, {schedule.chi_max:.6g}]",
            )
        )
    else:
        checks.append(CheckResult("deviation_bound", True))

    # with every deviation in its window, consecutive gaps
    # theta + chi_k - chi_(k-1) are also at most theta + 2 chi_max
    with np.errstate(invalid="ignore"):  # inf - inf from rejected deviations
        gaps = np.diff(taus)
    if len(gaps) and np.min(gaps) <= 0.0:
        k = int(np.argmin(gaps))
        checks.append(
            CheckResult(
                "strictly_increasing",
                False,
                k + 1,
                f"tau_{k + 1} - tau_{k} = {gaps[k]:.6g} <= 0",
            )
        )
    else:
        checks.append(CheckResult("strictly_increasing", True))

    return ValidationReport(checks=tuple(checks))


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


def schedule_from_doc(doc: dict) -> ImpulseSchedule:
    """Rebuild a schedule from its document form.

    Accepts either deviations ("chis") or explicit instants ("taus"); an
    explicit list is converted via chi_k = tau_k - tau_0 - k*theta.
    """
    if not isinstance(doc, dict):
        raise InputError("schedule document must be a JSON object")
    variant = doc.get("variant", ADT)
    try:
        theta = float(doc["theta"])
        chi_max = float(doc["chi_max"])
        if "chis" in doc:
            chis = [float(c) for c in doc["chis"]]
            tau0 = float(doc["tau0"])
        elif "taus" in doc:
            taus = [float(t) for t in doc["taus"]]
            if not taus:
                raise InputError("schedule document has an empty 'taus' list")
            tau0 = float(doc.get("tau0", taus[0]))
            chis = [t - tau0 - k * theta for k, t in enumerate(taus)]
        else:
            raise InputError("schedule document needs either 'chis' or 'taus'")
    except KeyError as exc:
        raise InputError(f"schedule document missing key {exc.args[0]!r}") from None
    except InputError:
        raise  # an InputError is a ValueError; keep its own message
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"schedule document has a value that is not a number: {exc}") from None
    if not chis:
        raise InputError("schedule document has an empty 'chis' list")
    _check_params(tau0, theta, chi_max, variant)
    return ImpulseSchedule(
        tau0=tau0, theta=theta, chi_max=chi_max, variant=variant, chis=tuple(chis)
    )
