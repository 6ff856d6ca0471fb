"""Linear filter of the tracks: estimation and weighted correction.

The box state (x, y, l, h) follows a constant-velocity model whose
transition, noise terms and initial covariance never couple two axes and
treat all four alike. So the filter is exactly four per-axis
position/velocity filters sharing one 2x2 covariance [[p, c], [c, v]].
The static model is the same filter with zero initial velocity variance
and zero velocity process noise: velocity and c stay 0, and the
covariance is the one variance p.

The engine runs the filter once per frame over rows: one (n, 11) block
of `KalmanState` rows, one row per live track (`init_rows`,
`predict_rows`, `correct_rows`). The scalar `init_kalman`, `predict` and
`correct` filter one track; they are the test oracle of the row
functions, which apply the same elementwise formulas in the same order
and so give the same floats, bit for bit.

The emitted corrected state is NOT the classic gain-fused posterior: it is
the fixed-weight blend  CS = w * MS + (1 - w) * ES  of the measured and
estimated states. The internal mean/covariance are still updated with the
measurement through the standard equations so that future estimates follow
the detections.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericOverflowError
from .types import KalmanState, ObjectState, TrackerConfig

# floor for predicted box dimensions; a long waiting streak under the
# constant-velocity model can otherwise drive l or h non-positive
_MIN_EXTENT = 1e-6

# initial variance for the unobserved velocity components
_INIT_VEL_VAR = 100.0


def _velocity_noise(cfg: TrackerConfig) -> tuple[float, float]:
    """(initial velocity variance, velocity process noise) of the motion model."""
    if cfg.motion_model == "static":
        return 0.0, 0.0
    return _INIT_VEL_VAR, cfg.process_noise_vel


def _require_finite(values: np.ndarray, message: str) -> None:
    """Reject a filter block, or a box, holding a non-finite value."""
    if not np.isfinite(values).all():
        raise NumericOverflowError(message)


def init_kalman(state: ObjectState, cfg: TrackerConfig) -> KalmanState:
    """Filter for a newborn track, seeded at the spawning detection."""
    return KalmanState(position=state.as_vector(), velocity=np.zeros(4),
                       p=cfg.measurement_noise, c=0.0, v=_velocity_noise(cfg)[0])


def _state_from_mean(mean: np.ndarray) -> ObjectState:
    x, y, l, h = mean
    return ObjectState(float(x), float(y), max(float(l), _MIN_EXTENT), max(float(h), _MIN_EXTENT))


# per-column floor of a box row: x and y free, l and h at least _MIN_EXTENT
_FLOOR = np.array([-np.inf, -np.inf, _MIN_EXTENT, _MIN_EXTENT])


def _floored(means: np.ndarray) -> np.ndarray:
    """Box rows of `means`, with l and h raised to at least _MIN_EXTENT."""
    return np.maximum(means, _FLOOR)


def predict(ks: KalmanState, cfg: TrackerConfig) -> tuple[KalmanState, ObjectState]:
    """One estimation step: propagate mean and covariance, extract the
    estimated box state."""
    position, velocity, *pcv = KalmanState.columns(ks.block)
    p, c, v = map(float, pcv)  # floats, which overflow to inf without a warning
    new = KalmanState(position=position + velocity, velocity=velocity,
                      p=p + 2.0 * c + v + cfg.process_noise_pos, c=c + v,
                      v=v + _velocity_noise(cfg)[1])
    _require_finite(new.block, "filter prediction produced non-finite values")
    return new, _state_from_mean(KalmanState.columns(new.block)[0])


def correct(
    ks: KalmanState,
    estimated: ObjectState,
    measured: ObjectState | None,
    prev_corrected: ObjectState,
    w: float,
    measurement_noise: float = TrackerConfig.measurement_noise,
) -> tuple[KalmanState, ObjectState]:
    """Correction step for one frame.

    With a measurement: the corrected state is the componentwise blend
    w * measured + (1 - w) * estimated, and the internal filter is updated
    with the measurement. Without one: the corrected state is held at the
    previous corrected state and the filter keeps its predicted (inflated)
    covariance unchanged. measurement_noise is the variance of each measured
    box component.
    """
    if measured is None:
        return ks, prev_corrected

    z = measured.as_vector()
    position, velocity, *pcv = KalmanState.columns(ks.block)
    p, c, v = map(float, pcv)
    innovation = z - position
    s = p + measurement_noise
    keep = measurement_noise / s  # 1 - position gain
    new = KalmanState(position=position + (p / s) * innovation,
                      velocity=velocity + (c / s) * innovation,
                      p=p * keep, c=c * keep, v=v - c * c / s)
    _require_finite(new.block, "filter update produced non-finite values")

    blended = w * z + (1.0 - w) * estimated.as_vector()
    _require_finite(blended, "filter update produced non-finite values")
    return new, _state_from_mean(blended)


# -- row functions: the same filter over one row per track -------------------

def init_rows(boxes: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """Filters for newborn tracks, one row per (x, y, l, h) box row,
    each as `init_kalman` seeds it: velocity and c at 0."""
    block = np.zeros((len(boxes), KalmanState.WIDTH))
    position, _, p, _, v = KalmanState.columns(block)
    position[:], p[:], v[:] = boxes, cfg.measurement_noise, _velocity_noise(cfg)[0]
    return block


def predict_rows(block: np.ndarray, cfg: TrackerConfig) -> tuple[np.ndarray, np.ndarray]:
    """`predict` on every row: the propagated rows and the estimated box
    rows, l and h floored at _MIN_EXTENT.

    The new rows are computed in place on a copy, each column's formula in
    `predict`'s order, and each before the columns it reads change.
    """
    block = block.copy()
    position, velocity, p, c, v = KalmanState.columns(block)
    position += velocity
    p += 2.0 * c
    p += v
    p += cfg.process_noise_pos
    c += v
    v += _velocity_noise(cfg)[1]
    _require_finite(block, "filter prediction produced non-finite values")
    return block, _floored(position)


def correct_rows(
    block: np.ndarray,
    matched: np.ndarray,
    measured: np.ndarray,
    estimated: np.ndarray,
    w: float,
    measurement_noise: float = TrackerConfig.measurement_noise,
) -> np.ndarray:
    """`correct` with a measurement on the rows `matched` of block, in place.

    measured and estimated hold one box row per index in `matched`. Those
    rows of block are updated only once the updated rows and their
    corrected box rows are all finite, so a call that raises leaves block
    as it was; the other rows keep their predicted values, as `correct`
    without a measurement does. Returns the corrected box rows, l and h
    floored at _MIN_EXTENT.
    """
    # the matched rows and their blended boxes side by side, so that one
    # check covers both; each row is updated in place, as predict_rows does
    work = np.empty((len(matched), KalmanState.WIDTH + 4))
    new = block.take(matched, axis=0, out=work[:, :KalmanState.WIDTH])
    position, velocity, p, c, v = KalmanState.columns(new)
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports an overflow
        innovation = measured - position
        s = p + measurement_noise
        keep = measurement_noise / s  # 1 - position gain
        position += (p / s)[:, None] * innovation
        velocity += (c / s)[:, None] * innovation
        v -= c * c / s
        p *= keep
        c *= keep
    blended = work[:, KalmanState.WIDTH:]
    np.multiply(w, measured, out=blended)
    blended += (1.0 - w) * estimated
    _require_finite(work, "filter update produced non-finite values")
    block[matched] = new
    return _floored(blended)
