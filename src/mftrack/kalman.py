"""Linear filter of the tracks: estimation and weighted correction.

The box state (x, y, l, h) follows a constant-velocity model whose
transition, noise terms and initial covariance never couple two axes and
treat all four alike. So the filter is exactly four per-axis
position/velocity filters sharing one 2x2 covariance [[p, c], [c, v]].
The static model is the same filter with zero initial velocity variance
and zero velocity process noise: velocity and c stay 0, and the
covariance is the one variance p.

The engine runs the filter once per frame over rows: one `KalmanState`
whose position and velocity are (n, 4) arrays and whose p, c, v are (n,)
arrays, one row per live track (`init_rows`, `predict_rows`,
`correct_rows`). The scalar `init_kalman`, `predict` and `correct` filter
one track; they are the test oracle of the row functions, which apply the
same elementwise formulas in the same order and so give the same floats,
bit for bit.

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


def _require_finite(ks: KalmanState, message: str) -> None:
    """Reject a filter, or a block of rows, holding a non-finite value."""
    if not (np.isfinite(ks.position).all() and np.isfinite(ks.velocity).all()
            and np.isfinite(ks.p).all() and np.isfinite(ks.c).all()
            and np.isfinite(ks.v).all()):
        raise NumericOverflowError(message)


def init_kalman(state: ObjectState, cfg: TrackerConfig) -> KalmanState:
    """Filter for a newborn track, seeded at the spawning detection."""
    return KalmanState(position=state.as_vector(), velocity=np.zeros(4),
                       p=cfg.measurement_noise, c=0.0, v=_velocity_noise(cfg)[0])


def _state_from_mean(mean: np.ndarray) -> ObjectState:
    x, y, l, h = mean
    return ObjectState(float(x), float(y), max(float(l), _MIN_EXTENT), max(float(h), _MIN_EXTENT))


def _floored(means: np.ndarray) -> np.ndarray:
    """Box rows of `means`, with l and h raised to at least _MIN_EXTENT."""
    out = means.copy()
    out[:, 2:] = np.maximum(means[:, 2:], _MIN_EXTENT)
    return out


def predict(ks: KalmanState, cfg: TrackerConfig) -> tuple[KalmanState, ObjectState]:
    """One estimation step: propagate mean and covariance, extract the
    estimated box state."""
    new = KalmanState(position=ks.position + ks.velocity, velocity=ks.velocity,
                      p=ks.p + 2.0 * ks.c + ks.v + cfg.process_noise_pos, c=ks.c + ks.v,
                      v=ks.v + _velocity_noise(cfg)[1])
    _require_finite(new, "filter prediction produced non-finite values")
    return new, _state_from_mean(new.position)


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
    innovation = z - ks.position
    p, c, v = ks.p, ks.c, ks.v
    s = p + measurement_noise
    keep = measurement_noise / s  # 1 - position gain
    new = KalmanState(position=ks.position + (p / s) * innovation,
                      velocity=ks.velocity + (c / s) * innovation,
                      p=p * keep, c=c * keep, v=v - c * c / s)
    _require_finite(new, "filter update produced non-finite values")

    blended = w * z + (1.0 - w) * estimated.as_vector()
    return new, _state_from_mean(blended)


# -- row functions: the same filter over one row per track -------------------

def init_rows(boxes: np.ndarray, cfg: TrackerConfig) -> KalmanState:
    """Filters for newborn tracks, one row per (x, y, l, h) box row,
    each as `init_kalman` seeds it."""
    n = len(boxes)
    return KalmanState(position=np.array(boxes, dtype=np.float64).reshape(n, 4),
                       velocity=np.zeros((n, 4)), p=np.full(n, cfg.measurement_noise),
                       c=np.zeros(n), v=np.full(n, _velocity_noise(cfg)[0]))


def predict_rows(ks: KalmanState, cfg: TrackerConfig) -> tuple[KalmanState, np.ndarray]:
    """`predict` on every row: the propagated rows and the estimated box
    rows, l and h floored at _MIN_EXTENT."""
    new = KalmanState(position=ks.position + ks.velocity, velocity=ks.velocity,
                      p=ks.p + 2.0 * ks.c + ks.v + cfg.process_noise_pos, c=ks.c + ks.v,
                      v=ks.v + _velocity_noise(cfg)[1])
    _require_finite(new, "filter prediction produced non-finite values")
    return new, _floored(new.position)


def correct_rows(
    ks: KalmanState,
    matched: np.ndarray,
    measured: np.ndarray,
    estimated: np.ndarray,
    w: float,
    measurement_noise: float = TrackerConfig.measurement_noise,
) -> tuple[KalmanState, np.ndarray]:
    """`correct` with a measurement on the rows `matched` of ks.

    measured and estimated hold one box row per index in `matched`. Returns a
    copy of ks with those rows updated (the others keep their predicted
    values, as `correct` without a measurement does) and the corrected
    box rows of `matched`, l and h floored at _MIN_EXTENT.
    """
    old = take_rows(ks, matched)
    innovation = measured - old.position
    p, c, v = old.p, old.c, old.v
    s = p + measurement_noise
    keep = measurement_noise / s  # 1 - position gain
    new = KalmanState(position=old.position + (p / s)[:, None] * innovation,
                      velocity=old.velocity + (c / s)[:, None] * innovation,
                      p=p * keep, c=c * keep, v=v - c * c / s)
    _require_finite(new, "filter update produced non-finite values")

    out = KalmanState(**{name: a.copy() for name, a in vars(ks).items()})
    for name, values in vars(new).items():
        getattr(out, name)[matched] = values
    blended = w * measured + (1.0 - w) * estimated
    return out, _floored(blended)


def take_rows(ks: KalmanState, index) -> KalmanState:
    """The rows of ks picked by `index`, an index array or a boolean mask
    (both copy)."""
    return KalmanState(**{name: a[index] for name, a in vars(ks).items()})


def join_rows(first: KalmanState, second: KalmanState) -> KalmanState:
    """The rows of first followed by those of second."""
    return KalmanState(**{name: np.concatenate((a, getattr(second, name)))
                          for name, a in vars(first).items()})
