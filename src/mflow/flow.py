"""Gradient flow of the determinant on n x n complex matrix space.

The vector field is the negative gradient of Re(det) normalized so that
Re(det) decreases at unit rate (index m = 1), together with the family of
re-normalizations indexed by a positive integer m under which
Re det(B(t)) = (Re det(B0)^(1/m) - t)^m along trajectories started on the
real positive determinant slice. Integration runs from the start fiber down
to the singular fiber det = 0, where the endpoint is snapped using the
conserved polar data.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import DEFAULTS
from .contraction import contract_closed_form
from .errors import FlowBudgetExceeded, InvariantViolation, SingularLocus
from .matrices import adjugate, as_complex_matrix, traceless

__all__ = [
    "FlowConfig",
    "StepStats",
    "FlowTrajectory",
    "grad_re_det",
    "vfield",
    "integrate_flow",
]


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    m: int = 1
    rel_tol: float = DEFAULTS.rel_tol
    abs_tol: float = DEFAULTS.abs_tol
    det_stop_tol: float = DEFAULTS.det_stop_tol
    max_steps: int = DEFAULTS.max_steps
    # Cap on the step size; keeps the cubic Hermite dense output well below
    # the integrator's own accuracy.
    max_step: float = 0.05

    def __post_init__(self):
        if self.m < 1:
            raise InvariantViolation("normalization index m must be >= 1")
        if min(self.rel_tol, self.abs_tol, self.det_stop_tol, self.max_step) <= 0:
            raise InvariantViolation("tolerances must be positive")


@dataclasses.dataclass(frozen=True)
class StepStats:
    accepted: int
    rejected: int
    min_step: float


@dataclasses.dataclass
class FlowTrajectory:
    """Time-stamped samples of one flow line plus the snapped endpoint.

    samples holds (t, B) at every accepted step starting at t = 0; slopes
    holds dB/dt at the same points and supports cubic Hermite evaluation
    between accepted steps.
    """

    samples: list
    slopes: list
    step_stats: StepStats
    terminal: np.ndarray
    config: FlowConfig

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])

    def matrices(self) -> list:
        return [B for _, B in self.samples]

    def determinants(self) -> np.ndarray:
        return np.linalg.det(np.stack(self.matrices()))

    def momentum_drift(self) -> np.ndarray:
        """Max-norm deviation of the traceless right momentum from t = 0."""
        Bs = np.stack(self.matrices())
        H = Bs.conj().transpose(0, 2, 1) @ Bs
        n = Bs.shape[-1]
        mu = H - (np.trace(H, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
        return np.max(np.abs(mu - mu[0]), axis=(1, 2))

    def at(self, t: float) -> np.ndarray:
        """Cubic Hermite evaluation between accepted steps."""
        ts = self.times()
        if t <= ts[0]:
            return self.samples[0][1]
        if t >= ts[-1]:
            return self.samples[-1][1]
        k = int(np.searchsorted(ts, t, side="right") - 1)
        t0, B0 = self.samples[k]
        t1, B1 = self.samples[k + 1]
        f0, f1 = self.slopes[k], self.slopes[k + 1]
        h = t1 - t0
        s = (t - t0) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * B0 + h10 * h * f0 + h01 * B1 + h11 * h * f1

    def law_residuals(self) -> np.ndarray:
        """Re det(B(t)) minus the exact decay law (d0^(1/m) - t)^m."""
        m = self.config.m
        d0 = float(np.linalg.det(self.samples[0][1]).real)
        ts = self.times()
        expected = np.maximum(d0 ** (1.0 / m) - ts, 0.0) ** m
        return self.determinants().real - expected


def grad_re_det(A) -> np.ndarray:
    """Gradient of Re(det) for the real inner product <X, Y> = Re tr(X Y*).

    Equals the conjugate transpose of the adjugate; validated against finite
    differences in the test suite.
    """
    return adjugate(A).conj().T


def _field(B: np.ndarray, m: int, grad_floor: float):
    """Field value, Re det and adjugate at B (Re det clamped at 0 for m > 1)."""
    adj = adjugate(B)
    gn2 = float(np.vdot(adj, adj).real)
    if np.sqrt(gn2) <= grad_floor:
        raise SingularLocus("gradient of Re det vanished; vector field undefined")
    re_det = float(np.trace(B @ adj).real) / B.shape[0]
    V = adj.conj().T / -gn2
    if m > 1:
        V *= m * max(re_det, 0.0) ** (1.0 - 1.0 / m)
    return V, re_det, adj


def vfield(A, m: int = 1, grad_floor: float = DEFAULTS.grad_floor) -> np.ndarray:
    """Normalized downhill field: -grad/|grad|^2 times m (Re det)^(1 - 1/m).

    m = 1 is the unit-rate normalization with <V, grad Re det> = -1.
    """
    V, re_det, _ = _field(as_complex_matrix(A), m, grad_floor)
    if m < 1:
        raise InvariantViolation("normalization index m must be >= 1")
    if m > 1 and re_det < 0.0:
        raise InvariantViolation("vfield with m > 1 requires Re det(A) >= 0")
    return V


# Dormand-Prince 4(5) tableau (FSAL pair); row i of _DP_A weighs stages 0..i-1.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4

_MIN_STEP = 1e-14
_TAU_FLOOR = 1e-12


def integrate_flow(B0, cfg: FlowConfig | None = None,
                   grad_floor: float = DEFAULTS.grad_floor) -> FlowTrajectory:
    """Integrate the normalized gradient flow from B0 down to det = 0.

    B0 must have real positive determinant (det = 1 for SL(n) starts). Uses
    an embedded adaptive Dormand-Prince 4(5) step with per-entry error
    control; the step size is additionally capped by the time remaining
    until the decay law reaches det_stop_tol, so the integrator lands on the
    stop fiber instead of stepping across the singular locus. The terminal
    point is then snapped onto det = 0 using the polar data of the last
    state.
    """
    if cfg is None:
        cfg = FlowConfig()
    B0 = as_complex_matrix(B0)
    d0 = complex(np.linalg.det(B0))
    if abs(d0.imag) > 1e-9 * (1.0 + abs(d0)) or d0.real <= 0.0:
        raise InvariantViolation(
            f"flow start needs real positive determinant, got {d0:.3e}")

    m = cfg.m
    stop = cfg.det_stop_tol
    shape = B0.shape

    def remaining(re_det: float) -> float:
        if re_det <= stop:
            return 0.0
        return re_det ** (1.0 / m) - stop ** (1.0 / m)

    t = 0.0
    B = B0.copy()
    f, d, _ = _field(B, m, grad_floor)
    samples = [(0.0, B)]
    slopes = [f]
    accepted = rejected = 0
    min_h = np.inf
    tau = remaining(d)
    h = min(cfg.max_step, 0.9 * tau) if tau > 0 else 0.0
    K = np.empty((7, B.size), dtype=complex)   # stage slopes, one row each
    K[0] = f.ravel()

    while tau > _TAU_FLOOR and d > stop:
        if accepted + rejected >= cfg.max_steps:
            raise FlowBudgetExceeded(
                f"flow exceeded max_steps = {cfg.max_steps} at t = {t:.6g}")
        if h < _MIN_STEP:
            raise FlowBudgetExceeded(
                f"step size underflow at t = {t:.6g}, Re det = {d:.3e}")
        h = min(h, cfg.max_step, 0.9 * tau + _TAU_FLOOR)

        try:
            for i in range(1, 6):
                fi, _, _ = _field(B + h * (_DP_A[i] @ K[:i]).reshape(shape), m, grad_floor)
                K[i] = fi.ravel()
            # FSAL stage evaluates at the 5th-order solution itself
            B5 = B + h * (_DP_A[6] @ K[:6]).reshape(shape)
            f5, d5, adj5 = _field(B5, m, grad_floor)
            K[6] = f5.ravel()
        except SingularLocus:
            rejected += 1
            h *= 0.25
            continue

        err = h * (_DP_E @ K).reshape(shape)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(B), np.abs(B5))
        err_norm = float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))
        # also control the first-order determinant error: near the singular
        # fiber the per-entry scales no longer bound det's relative accuracy
        err_det = abs(complex(np.trace(adj5 @ err)))
        err_norm = max(err_norm, err_det / (cfg.abs_tol + cfg.rel_tol * abs(d5)))

        if err_norm <= 1.0:
            t += h
            B = B5
            f = f5
            d = d5
            K[0] = K[6]
            samples.append((t, B))
            slopes.append(f)
            accepted += 1
            min_h = min(min_h, h)
            tau = remaining(d)
        else:
            rejected += 1
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))

    terminal = contract_closed_form(B)
    stats = StepStats(accepted, rejected, float(min_h) if accepted else 0.0)
    return FlowTrajectory(samples, slopes, stats, terminal, cfg)
