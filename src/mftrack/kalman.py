"""Linear filter of the tracks: estimation and weighted correction.

The box state (x, y, l, h) follows a constant-velocity model whose
transition, noise terms and initial covariance never couple two axes and
treat all four alike. So the filter is exactly four per-axis
position/velocity filters sharing one 2x2 covariance [[p, c], [c, v]].
The static model is the same filter with zero initial velocity variance
and zero velocity process noise: velocity and c stay 0, and the
covariance is the one variance p.

A track's filter is one float64 row of WIDTH = 11: the position
(x, y, l, h), the velocity of the same axes, and p, c, v, every axis
sharing the covariance [[p, c], [c, v]] of its (position, velocity)
pair. `columns` gives the five fields as views of one (11,) row or of an
(n, 11) block, so a copy, a take, a join or a scatter of rows, or a
finiteness check, is one numpy call. The static model keeps velocity, c
and v at 0.

The engine runs the filter once per frame over one (n, 11) block, one
row per live track (`init_rows`, `predict_rows`, `correct_rows`). The
scalar `init_kalman`, `predict` and `correct` filter one (11,) row; they
are the test oracle of the row functions, which apply the same
elementwise formulas in the same order and so give the same floats, bit
for bit.

The emitted corrected state is NOT the classic gain-fused posterior: it is
the fixed-weight blend  CS = w * MS + (1 - w) * ES  of the measured and
estimated states. The internal mean/covariance are still updated with the
measurement through the standard equations so that future estimates follow
the detections.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericOverflowError
from .types import ObjectState, TrackerConfig, check_boxes

# floor for predicted box dimensions; a long waiting streak under the
# constant-velocity model can otherwise drive l or h non-positive
_MIN_EXTENT = 1e-6

# initial variance for the unobserved velocity components
_INIT_VEL_VAR = 100.0

WIDTH = 11  # floats in a filter row: position, velocity, p, c, v


def columns(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the five fields (position, velocity, p, c, v) of an (11,)
    row or an (n, 11) block."""
    return block[..., :4], block[..., 4:8], block[..., 8], block[..., 9], block[..., 10]


def _velocity_noise(cfg: TrackerConfig) -> tuple[float, float]:
    """(initial velocity variance, velocity process noise) of the motion model."""
    if cfg.motion_model == "static":
        return 0.0, 0.0
    return _INIT_VEL_VAR, cfg.process_noise_vel


def _require_finite(values: np.ndarray, message: str) -> None:
    """Reject a filter block, or a box, holding a non-finite value."""
    if not np.isfinite(values).all():
        raise NumericOverflowError(message)


def init_kalman(state: ObjectState, cfg: TrackerConfig) -> np.ndarray:
    """Filter row for a newborn track, seeded at the spawning detection."""
    return np.concatenate((state.as_vector(), np.zeros(4),
                           (cfg.measurement_noise, 0.0, _velocity_noise(cfg)[0])))


def _state_from_mean(mean: np.ndarray, message: str) -> ObjectState:
    """The box of a finite mean, l and h floored; a box that `ObjectState`
    refuses is a NumericOverflowError."""
    x, y, l, h = mean
    try:
        return ObjectState(float(x), float(y), max(float(l), _MIN_EXTENT), max(float(h), _MIN_EXTENT))
    except ValueError:
        raise NumericOverflowError(message) from None


# per-column floor of a box row: x and y free, l and h at least _MIN_EXTENT
_FLOOR = np.array([-np.inf, -np.inf, _MIN_EXTENT, _MIN_EXTENT])


def _floored(means: np.ndarray, message: str) -> np.ndarray:
    """Box rows of the finite `means`, l and h raised to at least
    _MIN_EXTENT; rows that `check_boxes` refuses, as `ObjectState` does,
    are a NumericOverflowError. An l and h of at most 1e154 keep the area
    and the aspects finite, so the check runs only past that."""
    boxes = np.maximum(means, _FLOOR)
    if boxes[:, 2:].max(initial=0.0) > 1e154:
        try:
            check_boxes(boxes)
        except ValueError:
            raise NumericOverflowError(message) from None
    return boxes


def predict(ks: np.ndarray, cfg: TrackerConfig) -> tuple[np.ndarray, ObjectState]:
    """One estimation step on a filter row: propagate mean and covariance,
    extract the estimated box state."""
    position, velocity, *pcv = columns(ks)
    p, c, v = map(float, pcv)  # floats, which overflow to inf without a warning
    new = np.concatenate((position + velocity, velocity,
                          (p + 2.0 * c + v + cfg.process_noise_pos, c + v,
                           v + _velocity_noise(cfg)[1])))
    _require_finite(new, "filter prediction produced non-finite values")
    return new, _state_from_mean(new[:4], "filter prediction produced non-finite values")


def correct(
    ks: np.ndarray,
    estimated: ObjectState,
    measured: ObjectState | None,
    prev_corrected: ObjectState,
    w: float,
    measurement_noise: float = TrackerConfig.measurement_noise,
) -> tuple[np.ndarray, ObjectState]:
    """Correction step for one frame on a filter row.

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
    position, velocity, *pcv = columns(ks)
    p, c, v = map(float, pcv)
    innovation = z - position
    s = p + measurement_noise
    keep = measurement_noise / s  # 1 - position gain
    new = np.concatenate((position + (p / s) * innovation, velocity + (c / s) * innovation,
                          (p * keep, c * keep, v - c * c / s)))
    _require_finite(new, "filter update produced non-finite values")

    blended = w * z + (1.0 - w) * estimated.as_vector()
    _require_finite(blended, "filter update produced non-finite values")
    return new, _state_from_mean(blended, "filter update produced non-finite values")


# -- row functions: the same filter over one row per track -------------------

def init_rows(boxes: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """Filters for newborn tracks, one row per (x, y, l, h) box row,
    each as `init_kalman` seeds it: velocity and c at 0."""
    block = np.zeros((len(boxes), WIDTH))
    position, _, p, _, v = columns(block)
    position[:], p[:], v[:] = boxes, cfg.measurement_noise, _velocity_noise(cfg)[0]
    return block


def predict_rows(block: np.ndarray, cfg: TrackerConfig) -> tuple[np.ndarray, np.ndarray]:
    """`predict` on every row: the propagated rows and the estimated box
    rows, l and h floored at _MIN_EXTENT. Like `predict`, it refuses a row
    that is not finite or whose estimated box has an area or an aspect
    beyond a float.

    The new rows are computed in place on a copy, each column's formula in
    `predict`'s order, and each before the columns it reads change.
    """
    block = block.copy()
    position, velocity, p, c, v = columns(block)
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports an overflow
        position += velocity
        p += 2.0 * c
        p += v
        p += cfg.process_noise_pos
        c += v
        v += _velocity_noise(cfg)[1]
    _require_finite(block, "filter prediction produced non-finite values")
    return block, _floored(position, "filter prediction produced non-finite values")


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
    rows of block are updated only once the updated rows, their corrected
    box rows and the boxes' areas and aspects are all finite, as `correct`
    requires, so a call that raises leaves block as it was; the other rows
    keep their predicted values, as `correct` without a measurement does.
    Returns the corrected box rows, l and h floored at _MIN_EXTENT.
    """
    # the matched rows and their blended boxes side by side, so that one
    # check covers both; each row is updated in place, as predict_rows does
    work = np.empty((len(matched), WIDTH + 4))
    new = block.take(matched, axis=0, out=work[:, :WIDTH])
    position, velocity, p, c, v = columns(new)
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports an overflow
        innovation = measured - position
        s = p + measurement_noise
        keep = measurement_noise / s  # 1 - position gain
        position += (p / s)[:, None] * innovation
        velocity += (c / s)[:, None] * innovation
        v -= c * c / s
        p *= keep
        c *= keep
        blended = np.multiply(w, measured, out=work[:, WIDTH:])
        blended += (1.0 - w) * estimated
    _require_finite(work, "filter update produced non-finite values")
    boxes = _floored(blended, "filter update produced non-finite values")
    block[matched] = new
    return boxes
