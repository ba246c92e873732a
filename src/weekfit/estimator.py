"""Least-squares fitting of the weekly component model.

The objective J is the plain sum of squared residuals between modeled and
measured hourly traffic.  Each component is a Gaussian in absolute hours,
so the model is continuous across midnight, and an hourly series samples
only the 168 week slots.  The fit therefore reads the data through the
per-slot sample counts n_s and means y_s and the within-slot sum of
squares W = sum (y - y_slot)^2 alone: J = sum_s n_s (m_s - y_s)^2 + W, and
the gradient is 2 J_m^T N (m - y) with J_m the 168 x 27 Jacobian of the
slot model m.  One slot problem serves ``objective``, ``gradient`` and
both solvers, and its cost per evaluation does not grow with the series.

Both solvers move a transformed parameter vector inside one box:
amplitudes scaled by the data maximum and kept >= 0, peak times kept in
[0, 24) (a component shifted by a whole day lands on other days, so peak
times are bounded rather than wrapped), and variances optimized as
log-variance in [-20, 20].

- ``method="lm"`` (default): Levenberg-Marquardt (Marquardt 1963; More
  1978), damped Gauss-Newton steps on the slot Jacobian with coordinates
  pinned on a bound frozen for the step, and the damping driven by the
  gain ratio (Nielsen 1999).
- ``method="gd"``: the paper's projected gradient descent with
  Barzilai-Borwein trial steps and Armijo backtracking.

Either solver accepts a point only if J does not rise, so the objective
trace is non-increasing.
"""

from __future__ import annotations

import numpy as np

from .errors import _finite, _integer, _real, _reals
from .model import (
    _SLOT_GRID,
    _TERM_COMPONENT,
    _gaussian_terms,
    _model_arrays,
    _model_from_arrays,
    _require_full_week,
    _slot_statistics,
    TrafficSeries,
)
from .params import _Frozen, ComponentId, DayCategory, DAYS_PER_WEEK, HOURS_PER_DAY, HOURS_PER_WEEK, WeeklyModel

N_PARAMETERS = 3 * len(ComponentId)

# Armijo sufficient-decrease slope, the factor each rejected GD trial step
# is multiplied by, and the floor used in the relative objective-change
# stop test, at or below which J itself stops a fit (normalized units).
_ARMIJO_SLOPE = 1e-4
_BACKTRACKING_FACTOR = 0.5
_STOP_FLOOR = 1e-12
_MIN_STEP = 1e-20
_MAX_STEP = 1e10
# Log-variance is clamped to keep 1/variance**2 finite in the gradient.
_LOG_VARIANCE_BOUND = 20.0
# Box on the transformed vector, per component (amplitude, peak time,
# log-variance); the largest float below 24 keeps peak times in [0, 24).
_LOWER = np.tile([0.0, 0.0, -_LOG_VARIANCE_BOUND], len(ComponentId))
_UPPER = np.tile([np.inf, np.nextafter(HOURS_PER_DAY, 0.0), _LOG_VARIANCE_BOUND], len(ComponentId))
# Levenberg-Marquardt damping schedule; the floor keeps the damping term
# positive for columns that vanish (time and variance of a zero amplitude).
_LM_INITIAL_DAMPING = 1.0
_LM_MAX_DAMPING = 1e16
_LM_DIAGONAL_FLOOR = 1e-12

# (63, 9) indicator of the component each Gaussian term belongs to.
_TERM_INDICATOR = (_TERM_COMPONENT[:, None] == np.arange(len(ComponentId))).astype(float)

# The default start picks peaks among the hours 6-23 of a day, so none
# crosses midnight; row h of _START_BUMPS is the Gaussian of variance
# _START_VARIANCE (h^2) it subtracts at pick h, over those hours.
_EARLIEST_START = 6
_START_VARIANCE = 4.0
_START_HOURS = np.arange(_EARLIEST_START, HOURS_PER_DAY)
_START_BUMPS = np.exp(-np.subtract.outer(_START_HOURS, _START_HOURS) ** 2 / (2.0 * _START_VARIANCE))


class FitConfig(_Frozen):
    """Optimizer settings.

    ``method`` picks the solver: ``"lm"`` (Levenberg-Marquardt, default) or
    ``"gd"`` (projected gradient descent).  ``relative_tolerance`` applies to
    the per-iteration objective drop |dJ| / max(J, 1e-12).  J never rises, so
    the drop lies in [0, 1], and only a tolerance in (0, 1) can mean convergence.
    A fit also converges once J, on data divided by its maximum, is at most
    1e-12: below that floor the drop is an absolute one and may stay above
    the tolerance until ``max_iterations``.
    """

    __slots__ = __match_args__ = ("max_iterations", "relative_tolerance", "method")

    def __init__(self, max_iterations: int = 5000, relative_tolerance: float = 1e-8, method: str = "lm"):
        max_iterations = _integer(max_iterations, "max_iterations", 1)
        tolerance = _real(relative_tolerance, "relative_tolerance", 0, strict=True, below=1)
        if method not in _SOLVERS:
            raise ValueError(f"method must be one of {', '.join(_SOLVERS)}, got {method!r}")
        self._fill(max_iterations, tolerance, method)


class FitReport(_Frozen):
    """Outcome of one fit: the model plus the convergence record.

    ``stop_reason`` is one of ``STOP_REASONS``: ``"tolerance"`` (the fit
    converged), ``"max_iterations"``, ``"line_search_exhausted"`` (GD found
    no step that does not raise J) or ``"damping_exhausted"`` (LM's damping
    passed 1e16).
    """

    __slots__ = __match_args__ = ("model", "objective_trace", "stop_reason")

    def __init__(self, model: WeeklyModel, objective_trace: np.ndarray, stop_reason: str):
        trace = _reals(objective_trace, "objective_trace")
        if np.any(np.diff(trace) > 0.0):
            raise ValueError("objective_trace must be non-increasing")
        if stop_reason not in STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {', '.join(STOP_REASONS)}, got {stop_reason!r}")
        self._fill(model, trace, stop_reason)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FitReport):
            return NotImplemented
        same = self.model == other.model and self.stop_reason == other.stop_reason
        return same and np.array_equal(self.objective_trace, other.objective_trace)

    @property
    def iterations(self) -> int:
        """Accepted steps: one less than the trace length."""
        return self.objective_trace.size - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"


class _SlotProblem:
    """Slot counts n_s, means y_s and W = sum (y - y_slot)^2 of a series (``_slot_statistics``)."""

    def __init__(self, counts: np.ndarray, means: np.ndarray, within: float):
        self.counts, self.means, self.within = counts, means, within

    def at_vector(self, x: np.ndarray) -> _SlotPoint:
        """The point of a transformed vector (amplitude, peak time, log-variance)."""
        return _SlotPoint(self, x[0::3], x[1::3], np.exp(x[2::3]))


class _SlotPoint:
    """The slot model at one parameter set: J, the folded residual and the Jacobian."""

    def __init__(self, problem: _SlotProblem, rates, times, variances):
        self.rates = rates
        self.variances = variances
        self.offsets, self.factors, per_slot = _gaussian_terms(rates, times, variances, _SLOT_GRID)
        gap = per_slot - problem.means
        self.folded = problem.counts * gap  # n_s (m_s - y_s): the residuals summed per slot
        # J = sum_s n_s (m_s - y_s)^2 + W; both terms are >= 0, so nothing cancels
        self.value = float(gap @ self.folded) + problem.within

    def jacobian(self) -> np.ndarray:
        """d m_s / d(peak_rate, peak_time, variance), shape (168, 27).

        With Gaussian factors E_sj and signed offsets u_sj of term j at
        slot s, per component c:
            dm_s/dA_c   = sum_{j in c} E_sj
            dm_s/dt_c   = A_c / var_c * sum_{j in c} E_sj u_sj
            dm_s/dvar_c = A_c / (2 var_c^2) * sum_{j in c} E_sj u_sj^2
        """
        weighted = self.factors * self.offsets
        ratio = self.rates / self.variances
        jac = np.empty((HOURS_PER_WEEK, N_PARAMETERS))
        jac[:, 0::3] = self.factors @ _TERM_INDICATOR
        jac[:, 1::3] = (weighted @ _TERM_INDICATOR) * ratio
        jac[:, 2::3] = (weighted * self.offsets) @ _TERM_INDICATOR * (0.5 * ratio / self.variances)
        return jac


def _vector_jacobian(point: _SlotPoint) -> np.ndarray:
    """Jacobian w.r.t. the transformed vector (chain rule for log-variance)."""
    jac = point.jacobian()
    jac[:, 2::3] *= point.variances
    return jac


def objective(model: WeeklyModel, data: TrafficSeries) -> float:
    """Sum of squared residuals between the model and the measurements."""
    return _SlotPoint(_SlotProblem(*_slot_statistics(data.values, data.start)), *_model_arrays(model)).value


def gradient(model: WeeklyModel, data: TrafficSeries) -> np.ndarray:
    """Analytic gradient of ``objective`` w.r.t. the 27 parameters.

    Order: canonical component order, (peak_rate, peak_time, variance)
    within each component.
    """
    point = _SlotPoint(_SlotProblem(*_slot_statistics(data.values, data.start)), *_model_arrays(model))
    return 2.0 * (point.jacobian().T @ point.folded)


def init_heuristic(data: TrafficSeries) -> WeeklyModel:
    """The start ``fit`` uses by default: greedy residual picks on its slot reduction.

    A day category's profile over the hours 6-23 is the sum of its days'
    samples over their count.  Three times, the earliest hour where the
    residual profile peaks is picked, and a Gaussian of the residual there
    and variance 4 h^2 is subtracted.  Sorted by hour, the picks seed the
    morning, afternoon and evening peaks; every variance starts at 4 h^2.
    """
    _require_full_week(data)
    return _model_from_arrays(*_greedy_start(*_scaled_problem(data)))


def _scaled_problem(data: TrafficSeries) -> tuple[_SlotProblem, float]:
    """The slot problem of ``data`` divided by its maximum (1 for all-zero data), and that scale."""
    # one step size then serves traffic rates of any magnitude
    scale = float(np.max(data.values)) or 1.0
    return _SlotProblem(*_slot_statistics(data.values / scale, data.start)), scale


def _greedy_start(problem: _SlotProblem, scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``init_heuristic`` of a scaled slot problem as (rates, times, variances), canonical order."""
    per_slot = (problem.counts, problem.counts * problem.means)
    counts, totals = (a.reshape(DAYS_PER_WEEK, HOURS_PER_DAY)[:, _EARLIEST_START:] for a in per_slot)
    picks = []  # (peak time, rate); canonical order is every period of one category before the next
    for category in DayCategory:
        days = category.day_numbers  # consecutive, Monday = row 0
        rows = slice(days[0] - 1, days[-1])
        residual = totals[rows].sum(axis=0) / counts[rows].sum(axis=0)
        category_picks = []
        for _ in range(3):  # morning, afternoon and evening, in some order
            best = int(residual.argmax())  # the earliest on ties
            category_picks.append((_EARLIEST_START + best, residual[best] * scale))
            residual = residual - residual[best] * _START_BUMPS[best]
        picks += sorted(category_picks, key=lambda pick: pick[0])
    times, rates = np.array(picks).T
    return rates, times, np.full(len(ComponentId), _START_VARIANCE)


def _project(x: np.ndarray) -> np.ndarray:
    # the same values as np.clip, at less call overhead
    return np.minimum(np.maximum(x, _LOWER), _UPPER)


def _iterate(problem: _SlotProblem, x: np.ndarray, config: FitConfig, advance, exhausted: str):
    """Run a solver until it stops; returns (x, trace, stop_reason).

    ``advance(x, point)`` returns the next accepted (x, point), whose J
    must not exceed the current one, or None when it finds no such point;
    the run then stops with the reason ``exhausted``.
    """
    point = problem.at_vector(x)
    trace = [point.value]
    for _ in range(config.max_iterations):
        accepted = advance(x, point)
        if accepted is None:
            return x, trace, exhausted
        drop = (point.value - accepted[1].value) / max(point.value, _STOP_FLOOR)
        x, point = accepted
        trace.append(point.value)
        if drop < config.relative_tolerance or point.value <= _STOP_FLOOR:
            return x, trace, "tolerance"
    return x, trace, "max_iterations"


def _descent(problem: _SlotProblem):
    """Projected gradient descent with Barzilai-Borwein trial steps."""
    step = 1.0  # first trial step, in normalized units
    previous: tuple[np.ndarray, np.ndarray] | None = None

    def advance(x, point):
        nonlocal step, previous
        grad = 2.0 * (_vector_jacobian(point).T @ point.folded)
        if previous is not None:
            # Barzilai-Borwein trial step; the Armijo backtracking below
            # still guarantees a monotone objective trace.
            dx = x - previous[0]
            dg = grad - previous[1]
            curvature = float(dx @ dg)
            if curvature > 0.0:
                step = min(max(float(dx @ dx) / curvature, _MIN_STEP * 1e2), _MAX_STEP)
            else:
                step *= 2.0
        while step >= _MIN_STEP:
            trial = _project(x - step * grad)
            trial_point = problem.at_vector(trial)
            decrease = _ARMIJO_SLOPE * float(grad @ (trial - x))
            if trial_point.value <= point.value + decrease:  # NaN trial values fail here
                previous = (x, grad)
                return trial, trial_point
            step *= _BACKTRACKING_FACTOR
        return None

    return advance


def _levenberg_marquardt(problem: _SlotProblem):
    """Box-constrained Levenberg-Marquardt.

    Each step solves (H_ff + lambda diag H_ff) delta = -g_f over the free
    coordinates f, with H = J^T N J and g = J^T N (m - y) from the slot
    Jacobian J and counts N; a coordinate on a bound whose gradient points
    out of the box is frozen.  The trial is clipped to the box and accepted
    only if J does not rise.

    The damping follows the gain ratio rho, the actual drop of J over the
    drop -2 g^T s - s^T H s that the Gauss-Newton model predicts for the
    clipped step s (Nielsen 1999; Madsen, Nielsen & Tingleff 2004, sec.
    3.2): an accepted step scales lambda by max(1/3, 1 - (2 rho - 1)^3), and
    successive rejected trials scale it by 2, 4, 8, ...
    """
    damping = _LM_INITIAL_DAMPING

    def advance(x, point):
        nonlocal damping
        jac = _vector_jacobian(point)
        grad = jac.T @ point.folded
        free = ~(((x <= _LOWER) & (grad > 0.0)) | ((x >= _UPPER) & (grad < 0.0)))
        grad = grad[free]
        jac = jac[:, free]
        hessian = jac.T @ (jac * problem.counts[:, None])
        base = hessian.diagonal()
        diagonal = np.maximum(base, _LM_DIAGONAL_FLOOR * base.max(initial=0.0))
        damped = hessian.copy()
        growth = 2.0
        while damping <= _LM_MAX_DAMPING:
            damped.flat[:: grad.size + 1] = base + damping * diagonal
            try:
                delta = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                delta = np.nan  # a singular system fails like a NaN trial
            trial = x.copy()
            trial[free] += delta
            trial = _project(trial)
            trial_point = problem.at_vector(trial)
            if trial_point.value <= point.value:  # NaN trial values fail here
                step = (trial - x)[free]
                predicted = -float(step @ (2.0 * grad + hessian @ step))
                rho = 0.0
                if predicted > 0.0:
                    # any rho >= 1 gives the factor of rho = 1; the cap keeps the cube finite
                    rho = min((point.value - trial_point.value) / predicted, 1.0)
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                return trial, trial_point
            damping *= growth
            growth *= 2.0
        return None

    return advance


_SOLVERS = {
    "lm": (_levenberg_marquardt, "damping_exhausted"),
    "gd": (_descent, "line_search_exhausted"),
}
STOP_REASONS = ("tolerance", "max_iterations", *(reason for _, reason in _SOLVERS.values()))


def fit(
    data: TrafficSeries,
    config: FitConfig | None = None,
    init: WeeklyModel | None = None,
) -> FitReport:
    """Fit all 27 parameters to hourly measurements.

    Requires at least one full week of data.  The objective trace is
    reported in measurement units and is non-increasing; non-convergence
    within ``max_iterations``, or a solver that finds no step that does not
    raise J, is reported through ``stop_reason`` rather than raised.
    """
    if config is None:
        config = FitConfig()
    _require_full_week(data)

    problem, scale = _scaled_problem(data)
    rates, times, variances = _greedy_start(problem, scale) if init is None else _model_arrays(init)
    x = np.column_stack([rates / scale, times, np.log(variances)]).ravel()
    solver, exhausted = _SOLVERS[config.method]
    x, trace, stop_reason = _iterate(problem, _project(x), config, solver(problem), exhausted)
    _finite(trace[0] * scale * scale, "J")  # trace[0], in measurement units, is the largest entry

    return FitReport(
        model=_model_from_arrays(x[0::3] * scale, x[1::3], np.exp(x[2::3])),
        objective_trace=np.asarray(trace) * scale * scale,
        stop_reason=stop_reason,
    )
