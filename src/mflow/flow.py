"""Gradient flow of the determinant on n x n complex matrix space.

The vector field is the negative gradient of Re(det) normalized so that
Re(det) decreases at unit rate (index m = 1), together with the family of
re-normalizations indexed by a positive integer m under which
Re det(B(t)) = (Re det(B0)^(1/m) - t)^m along trajectories started on the
real positive determinant slice. Each m-field is a positive multiple of the
m = 1 field, so all of them trace one curve, and one integration serves
every m: the k-field is integrated, k the multiplicity of the smallest
singular value of B0 (the time in which the curve is smooth up to det = 0),
and _retime maps its times to any m's. Integration runs from the start fiber
down to the stop fiber Re det = DET_STOP_TOL, and the endpoint is snapped
onto det = 0 using the conserved polar data. The step's error tolerances
REL_TOL and ABS_TOL, the stop fiber and the step budget MAX_STEPS are module
constants: the acceptance criteria pin the flow at these values.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

from .config import Config
from .contraction import contract_closed_form
from .errors import FlowBudgetExceeded, InvariantViolation, SingularLocus
from .matrices import adjugate, as_complex_matrix, check_positive_det, eigenvalue_blocks

__all__ = [
    "FlowConfig",
    "StepStats",
    "FlowTrajectory",
    "vfield",
    "integrate_flow",
]


FlowConfig = Config     # the flow reads m; its tolerances are the constants below

GRAD_FLOOR = 1e-12      # |grad Re det| at or below this is the singular locus
REL_TOL = 1e-8          # relative error tolerance of a step
ABS_TOL = 1e-10         # absolute error tolerance of a step
DET_STOP_TOL = 1e-6     # the stop fiber Re det = DET_STOP_TOL
MAX_STEPS = 10_000      # budget of accepted plus rejected steps


@dataclasses.dataclass(frozen=True)
class StepStats:
    """Step counts of one integration, the same for every m.

    rhs_calls counts field evaluations. min_step is the smallest accepted
    step in the k-time other than the final landing step (the landing step
    itself when it is the only one). The rejected steps split into
    err_rejects (error norm above 1) and singular_rejects (a stage hit the
    singular locus); det_rejects counts the err_rejects whose determinant
    error term exceeded the entry-wise one.
    """

    accepted: int
    min_step: float
    rhs_calls: int
    err_rejects: int
    singular_rejects: int
    det_rejects: int

    @property
    def rejected(self) -> int:
        return self.err_rejects + self.singular_rejects


@dataclasses.dataclass(frozen=True)
class FlowTrajectory:
    """What integrate_flow computed; only config depends on m.

    points holds B at every accepted step from B0 on, k_times their times in
    the integrated k-field (k = time_exponent, the multiplicity of the
    smallest singular value of B0), and dense[j] the Dormand-Prince quartic
    continuous extension of step j as a (4, n*n) array D, so that
    B(t_k,j + theta h_j) = B_j + (theta, ..., theta^4) D. times(), samples
    and at() are in the time of config.m, so dataclasses.replace(traj,
    config=FlowConfig(m=m)) views the same integration at another m.
    """

    points: tuple
    k_times: tuple
    dense: tuple
    step_stats: StepStats
    terminal: np.ndarray
    start_det: float
    time_exponent: int
    config: Config

    @cached_property
    def _times(self) -> np.ndarray:
        """The k_times mapped to the time of config.m, once per trajectory."""
        k, m, d0 = self.time_exponent, self.config.m, self.start_det
        return np.array([_retime(tk, k, m, d0) for tk in self.k_times])

    @property
    def samples(self) -> list:
        """(t, B) at every accepted step, t in the time of config.m."""
        return list(zip(self._times.tolist(), self.points))

    def times(self) -> np.ndarray:
        return self._times.copy()

    @cached_property
    def _dets_and_drift(self) -> tuple:
        """_diagnostics of the stacked points, once per trajectory."""
        return _diagnostics(np.stack(self.points))

    def determinants(self) -> np.ndarray:
        return self._dets_and_drift[0].copy()

    def momentum_drift(self) -> np.ndarray:
        """Max-norm deviation of the traceless right momentum from t = 0."""
        return self._dets_and_drift[1].copy()

    def at(self, t: float) -> np.ndarray:
        """B(t) from the quartic dense output of the step containing t.

        The dense output is defined in the k-time, to which t is mapped
        first. Times outside the samples give the first or the last sample;
        a NaN time raises InvariantViolation.
        """
        if math.isnan(t):
            raise InvariantViolation("trajectory time must not be NaN")
        ts = self._times
        if t <= ts[0]:
            return self.points[0]
        if t >= ts[-1]:
            return self.points[-1]
        j = int(np.searchsorted(ts, t, side="right") - 1)
        tk = _retime(t, self.config.m, self.time_exponent, self.start_det)
        t0, t1 = self.k_times[j], self.k_times[j + 1]
        B = self.points[j]
        theta = (tk - t0) / (t1 - t0)
        return B + (theta ** _POWERS @ self.dense[j]).reshape(B.shape)

    def law_residuals(self) -> np.ndarray:
        """Re det(B(t)) minus the exact decay law (d0^(1/m) - t)^m."""
        m = self.config.m
        expected = np.maximum(self.start_det ** (1.0 / m) - self._times, 0.0) ** m
        return self._dets_and_drift[0].real - expected


def _diagnostics(Bs: np.ndarray):
    """Determinants of the stacked matrices Bs, and the max-norm deviation of
    their traceless right momenta from that of Bs[0]."""
    H = Bs.conj().transpose(0, 2, 1) @ Bs
    n = Bs.shape[-1]
    mu = H - (H.trace(axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    return np.linalg.det(Bs), np.abs(mu - mu[0]).max(axis=(1, 2))


def _retime(t: float, p: int, q: int, d0: float) -> float:
    """The time of the q-field at time t of the p-field, from Re det = d0:
    Re det = (d0^(1/p) - t)^p = (d0^(1/q) - t_q)^q, clamped at det = 0."""
    if p == q:
        return t
    return d0 ** (1.0 / q) - max(d0 ** (1.0 / p) - t, 0.0) ** (p / q)


def _field(B: np.ndarray, V: np.ndarray, with_det: bool) -> float | None:
    """Write the m = 1 field at B into V (an n x n array); return Re det at
    B when with_det, else None. A gradient whose squared norm overflows
    float64 is refused with InvariantViolation (the field would read 0)."""
    adj = adjugate(B)
    gn2 = float(np.vdot(adj, adj).real)
    if not math.isfinite(gn2):
        raise InvariantViolation("|grad Re det|^2 overflows float64; vector field undefined")
    if math.sqrt(gn2) <= GRAD_FLOOR:
        raise SingularLocus("gradient of Re det vanished; vector field undefined")
    np.conjugate(adj.T, out=V)      # adj(B)* is the gradient of Re det
    V /= -gn2
    if with_det:
        # B adj(B) = det(B) I: one entry of it is one row of the Laplace expansion
        return float((B[0] @ adj[:, 0]).real)
    return None


def _gain(re_det: float, m: int) -> float:
    """The m-field over the m = 1 field at a point with the given Re det."""
    return m * max(re_det, 0.0) ** (1.0 - 1.0 / m)


def vfield(A, m: int = 1) -> np.ndarray:
    """Normalized downhill field: -grad/|grad|^2 times m (Re det)^(1 - 1/m).

    m = 1 is the unit-rate normalization with <V, grad Re det> = -1. m is
    read as Config reads it, before the field is evaluated. A gradient whose
    squared norm overflows float64 raises InvariantViolation.
    """
    m = Config(m=m).m
    A = as_complex_matrix(A)
    V = np.empty(A.shape, dtype=complex)
    re_det = _field(A, V, m > 1)
    if m > 1:
        if re_det < 0.0:
            raise InvariantViolation("vfield with m > 1 requires Re det(A) >= 0")
        V *= _gain(re_det, m)
    return V


# Dormand-Prince 4(5) tableau (FSAL pair); row i of _DP_A weighs stages 0..i-1.
# The coefficients are stored as complex, an exact cast of the float64 values,
# so the stage, error and dense sums with the complex stage slopes cast nothing.
_DP_A = [np.array(row, dtype=complex) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = (_DP_B5 - _DP_B4).astype(complex)
# Continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6): row j
# weighs the 7 stages for theta^(j+1). It equals _DP_B5 at theta = 1 and its
# derivative there is the FSAL stage, so the dense output is C^1 across steps.
_DP_P = np.array([
    [1, 0, 0, 0, 0, 0, 0],
    [-8048581381 / 2820520608, 0, 131558114200 / 32700410799,
     -1754552775 / 470086768, 127303824393 / 49829197408,
     -282668133 / 205662961, 40617522 / 29380423],
    [8663915743 / 2820520608, 0, -68118460800 / 10900136933,
     14199869525 / 1410260304, -318862633887 / 49829197408,
     2019193451 / 616988883, -110615467 / 29380423],
    [-12715105075 / 11282082432, 0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423],
], dtype=complex)
_POWERS = np.arange(1, 5)

_MIN_STEP = 1e-14
# PI step control (Gustafsson 1991; Hairer & Wanner, Solving ODEs II, IV.2),
# see integrate_flow. On the flow-oracle starts of seeds 1, 5 and 7 it takes
# 2337, 2271 and 2463 field evaluations at beta = 0, 2151, 2121 and 2253 at
# 0.04, and 2103, 2067 and 2139 at 0.08, with a quarter of the rejected steps
# of beta = 0; from beta = 0.12 on the accepted steps grow instead (2325,
# 2289 and 2355 evaluations).
_PI_BETA = 0.08
_ERR_FLOOR = 1e-4   # floor of err_prev, so one tiny error cannot stall growth


def _time_exponent(B0: np.ndarray) -> int:
    """Multiplicity k of the smallest singular value of B0, clustered as in
    eigenvalue_blocks."""
    lo, hi = eigenvalue_blocks(np.linalg.svd(B0, compute_uv=False))[-1]
    return hi - lo


def integrate_flow(B0, cfg: Config | None = None) -> FlowTrajectory:
    """Integrate the normalized gradient flow from B0 down to det = 0.

    B0 must have real positive determinant (det = 1 for SL(n) starts). The
    m = 1 flow moves only the singular values, sigma_i^2 = sigma_i(0)^2 +
    lambda, so if the smallest one has multiplicity k it vanishes like
    (Re det)^(1/k): in the unit-rate time that is a branch point at the
    singular fiber, while in the k-field's own time t_k = d0^(1/k) -
    (Re det)^(1/k) the curve is smooth up to det = 0. So the k-field is
    integrated, with an embedded adaptive Dormand-Prince 4(5) step, and
    k = 1 for every start whose smallest singular value is simple. The
    error norm of a step is the larger of two: the RMS of the error
    estimate's entries, each scaled by ABS_TOL + REL_TOL max(|B_ij|, |B5_ij|)
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4), and the first-order
    change of det along the error estimate, scaled by ABS_TOL + REL_TOL d0,
    which holds the decay-law residual that the entry scales leave loose.
    Along the curve
    tau = (Re det)^(1/k) - DET_STOP_TOL^(1/k) is the time left to the stop
    fiber: every step is capped at tau, and the accepted step of length tau
    lands on the stop fiber and is the last one. More than MAX_STEPS
    accepted plus rejected steps raise FlowBudgetExceeded.
    The step size follows a PI controller: after an attempt with error norm
    err (accepted at err <= 1) the next step is h times
    0.9 err^-(0.2 - 0.75 beta) err_prev^beta, clamped to [0.2, 5], where
    err_prev is the error norm of the last accepted step (floored at 1e-4,
    and 1 before the first) and beta = 0.08. The err_prev factor damps the
    grow-then-reject cycle of the plain 0.9 err^-0.2. An
    attempt whose stages hit the singular locus is rejected and cut to a
    quarter. Each accepted step keeps its quartic continuous extension for
    FlowTrajectory.at. The terminal point is the closed-form contraction
    of the last sample onto det = 0. The integration is the same for every
    m: cfg is only stored, and the trajectory maps its times to cfg.m's.
    """
    if cfg is None:
        cfg = Config()
    B0 = check_positive_det(B0)
    shape = B0.shape
    k = _time_exponent(B0)

    def root(d):
        return d ** (1.0 / k)

    # K holds the stage slopes, one flat row each, and _field writes each
    # slope into rows[i], the n x n view of row i. The points of stages 1-5
    # are formed in one reused buffer; the FSAL point B5 is a fresh array,
    # since it becomes a sample. v5 is the m = 1 field at B5, which the
    # determinant error term reads.
    K = np.empty((7, B0.size), dtype=complex)
    rows = [row.reshape(shape) for row in K]
    stage = np.empty(B0.size, dtype=complex)
    S = stage.reshape(shape)
    scale = np.empty(B0.size)
    v5 = rows[6] if k == 1 else np.empty(shape, dtype=complex)

    stop = root(DET_STOP_TOL)
    t = 0.0
    B = B0.copy()
    b, abs_b = B.ravel(), np.abs(B).ravel()
    d = _field(B, rows[0], True)
    if k > 1:
        rows[0] *= _gain(d, k)
    rhs_calls = 1
    d0 = d
    det_scale = ABS_TOL + REL_TOL * d0
    k_times, points, dense = [t], [B], []
    err_rejects = singular_rejects = det_rejects = 0
    err_prev = 1.0      # no accepted step yet: no memory term
    tau = root(d) - stop
    # a one-step landing from a start far from the stop fiber is always
    # rejected; try the controller's largest cut of it instead
    h = 0.2 * tau

    while tau > 0.0:
        if len(dense) + err_rejects + singular_rejects >= MAX_STEPS:
            raise FlowBudgetExceeded(f"flow exceeded MAX_STEPS = {MAX_STEPS} at t = {t:.6g}")
        if h < _MIN_STEP:
            raise FlowBudgetExceeded(
                f"step size underflow at t = {t:.6g}, Re det = {d:.3e}")
        h = min(h, tau)

        try:
            for i in range(1, 6):
                # the stage point B + h (_DP_A[i] @ K[:i])
                np.matmul(_DP_A[i], K[:i], out=stage)
                stage *= h
                stage += b
                rhs_calls += 1
                if k == 1:
                    _field(S, rows[i], False)
                else:
                    rows[i] *= _gain(_field(S, rows[i], True), k)
            # FSAL stage evaluates at the 5th-order solution itself
            b5 = _DP_A[6] @ K[:6]
            b5 *= h
            b5 += b
            B5 = b5.reshape(shape)
            rhs_calls += 1
            d5 = _field(B5, v5, True)
            if k > 1:
                np.multiply(v5, _gain(d5, k), out=rows[6])
        except SingularLocus:
            singular_rejects += 1
            h *= 0.25
            continue

        e = _DP_E @ K     # the error estimate is h e
        abs_b5 = np.abs(b5)
        np.maximum(abs_b, abs_b5, out=scale)
        scale *= REL_TOL
        scale += ABS_TOL
        q = e / scale
        err_entries = h * math.sqrt(np.vdot(q, q).real / q.size)
        # det's first-order change along h e is tr(adj(B5) h e) =
        # -h <v5, e> / |v5|^2 for the m = 1 field v5. Its scale is fixed by
        # d0: one of |Re det| would ask for ~1e-14 near the stop fiber
        err_det = float(h * abs(np.vdot(v5, e)) / (np.vdot(v5, v5).real * det_scale))
        err_norm = max(err_entries, err_det)
        factor = (0.9 * err_norm ** (0.75 * _PI_BETA - 0.2) * err_prev ** _PI_BETA
                  if err_norm > 0 else 5.0)

        if err_norm <= 1.0:
            D = _DP_P @ K
            D *= h
            dense.append(D)
            t += h
            B, b, abs_b, d = B5, b5, abs_b5, d5
            K[0] = K[6]
            k_times.append(t)
            points.append(B)
            tau = 0.0 if h == tau else root(d) - stop
            err_prev = max(err_norm, _ERR_FLOOR)
        else:
            err_rejects += 1
            det_rejects += err_det > err_entries
        h *= min(5.0, max(0.2, factor))

    steps = np.diff(k_times)
    interior = steps[:-1] if steps.size > 1 else steps
    stats = StepStats(len(dense), float(interior.min()) if interior.size else 0.0, rhs_calls,
                      err_rejects, singular_rejects, det_rejects)
    return FlowTrajectory(tuple(points), tuple(k_times), tuple(dense), stats,
                          contract_closed_form(B), d0, k, cfg)
