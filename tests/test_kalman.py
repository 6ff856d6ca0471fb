import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes as box_rows
from mftrack import kalman
from mftrack.errors import NumericOverflowError
from mftrack.types import ObjectState, TrackerConfig

# zero process noise and no velocity: predict holds the mean where it is
STILL = TrackerConfig(motion_model="static", process_noise_pos=0.0)


def identity_state(mean4):
    """Filter row at mean4 with no velocity, p = 1 and c = v = 0."""
    return np.array([*mean4, 0, 0, 0, 0, 1.0, 0.0, 0.0], dtype=float)


def test_predict_identity_transition():
    ks = identity_state([10, 20, 5, 8])
    _, es = kalman.predict(ks, STILL)
    assert (es.x, es.y, es.l, es.h) == (10, 20, 5, 8)


def test_predict_constant_velocity():
    cfg = TrackerConfig()
    ks = kalman.init_kalman(ObjectState(10, 20, 5, 8), cfg)
    kalman.columns(ks)[1][:] = [2.0, -1, 0, 0]
    _, es = kalman.predict(ks, cfg)
    assert (es.x, es.y, es.l, es.h) == (12, 19, 5, 8)


def test_predict_idempotent_under_identity():
    ks = identity_state([1, 2, 3, 4])
    ks1, es1 = kalman.predict(ks, STILL)
    ks2, es2 = kalman.predict(ks1, STILL)
    assert np.array_equal(kalman.columns(ks1)[0], kalman.columns(ks2)[0])
    assert es1 == es2


def test_predict_overflow_detected():
    ks = identity_state([1e308, 0, 1, 1])
    kalman.columns(ks)[1][:] = [1e308, 0, 0, 0]
    with np.errstate(over="ignore"), pytest.raises(NumericOverflowError):
        kalman.predict(ks, STILL)
    # the covariance overflows with a finite mean
    ks = identity_state([1, 1, 1, 1])
    _, _, p, c, _ = kalman.columns(ks)
    p[...] = c[...] = 1e308
    with pytest.raises(NumericOverflowError):
        kalman.predict(ks, STILL)


def test_correct_agreement_fixed_point():
    s = ObjectState(10, 20, 5, 8)
    for w in (0.0, 0.3, 0.7, 1.0):
        ks = identity_state([10, 20, 5, 8])
        _, cs = kalman.correct(ks, s, s, s, w)
        assert cs == s


def test_correct_blend():
    ks = identity_state([20, 0, 10, 10])
    ms = ObjectState(10, 0, 10, 10)
    es = ObjectState(20, 0, 10, 10)
    _, cs = kalman.correct(ks, es, ms, es, w=0.7)
    assert cs.x == pytest.approx(13.0)
    assert (cs.y, cs.l, cs.h) == (0, 10, 10)


def test_correct_without_measurement_holds_previous():
    ks = identity_state([1, 1, 1, 1])
    prev = ObjectState(4, 4, 2, 2)
    out_ks, cs = kalman.correct(ks, ObjectState(9, 9, 2, 2), None, prev, w=0.7)
    assert cs == prev
    assert out_ks is ks  # covariance already inflated by this frame's predict


def test_blend_is_convex_combination():
    rng = np.random.default_rng(42)
    for _ in range(200):
        ms = ObjectState(*rng.uniform(1, 100, size=4))
        es = ObjectState(*rng.uniform(1, 100, size=4))
        w = float(rng.uniform(0, 1))
        ks = identity_state(es.as_vector())
        _, cs = kalman.correct(ks, es, ms, es, w)
        for a, b, c in zip(ms.as_vector(), es.as_vector(), cs.as_vector()):
            assert min(a, b) - 1e-12 <= c <= max(a, b) + 1e-12


def test_predict_correct_fixed_point_with_zero_noise():
    # identity transition, zero process noise, measurement equal to the mean
    s = ObjectState(5, 6, 7, 8)
    ks = identity_state(s.as_vector())
    for _ in range(5):
        ks, es = kalman.predict(ks, STILL)
        ks, cs = kalman.correct(ks, es, s, s, w=0.7)
        assert cs == s
    assert np.allclose(kalman.columns(ks)[0], s.as_vector())


def test_covariance_stays_symmetric_nonnegative_diagonal():
    # [[p, c], [c, v]] is symmetric by construction; it must stay positive
    # semi-definite
    rng = np.random.default_rng(7)
    cfg = TrackerConfig()
    ks = kalman.init_kalman(ObjectState(50, 50, 10, 20), cfg)
    prev = ObjectState(50, 50, 10, 20)
    for i in range(100):
        ks, es = kalman.predict(ks, cfg)
        meas = ObjectState(*(np.abs(rng.uniform(5, 80, size=4))))
        ks, prev = kalman.correct(ks, es, meas if i % 3 else None, prev, cfg.w,
                                  cfg.measurement_noise)
        _, _, p, c, v = kalman.columns(ks)
        scale = max(1.0, abs(p), abs(c), abs(v))
        assert p >= 0 and v >= 0
        assert p * v - c ** 2 >= -1e-9 * scale ** 2


def test_internal_filter_follows_measurements():
    # after repeated updates on a moving target, the estimate tracks it
    cfg = TrackerConfig()
    ks = kalman.init_kalman(ObjectState(0, 0, 10, 10), cfg)
    prev = ObjectState(0.001, 0, 10, 10)
    for f in range(1, 80):
        ks, es = kalman.predict(ks, cfg)
        meas = ObjectState(2.0 * f + 0.001, 0, 10, 10)
        ks, prev = kalman.correct(ks, es, meas, prev, cfg.w, cfg.measurement_noise)
    _, es = kalman.predict(ks, cfg)
    assert es.x == pytest.approx(2.0 * 80 + 0.001, abs=0.1)


# -- reference: the textbook dense filter -------------------------------------

class DenseFilter:
    """Kalman filter written out with explicit matrices: 8x8 over
    [x, y, l, h, vx, vy, vl, vh] for constant velocity, 4x4 over [x, y, l, h]
    for the static model (identity transition)."""

    def __init__(self, state: ObjectState, cfg: TrackerConfig):
        r = cfg.measurement_noise
        self.r = r * np.eye(4)
        if cfg.motion_model == "static":
            self.phi = np.eye(4)
            self.q = cfg.process_noise_pos * np.eye(4)
            self.mean = state.as_vector()
            self.cov = r * np.eye(4)
        else:
            self.phi = np.eye(8)
            self.phi[:4, 4:] = np.eye(4)
            self.q = np.diag([cfg.process_noise_pos] * 4 + [cfg.process_noise_vel] * 4)
            self.mean = np.concatenate([state.as_vector(), np.zeros(4)])
            self.cov = np.diag([r] * 4 + [100.0] * 4)  # velocity starts unknown
        self.h = np.eye(4, self.mean.size)

    def predict(self):
        self.mean = self.phi @ self.mean
        self.cov = self.phi @ self.cov @ self.phi.T + self.q

    def correct(self, z: np.ndarray):
        s = self.h @ self.cov @ self.h.T + self.r
        gain = self.cov @ self.h.T @ np.linalg.inv(s)
        self.mean = self.mean + gain @ (z - self.h @ self.mean)
        self.cov = (np.eye(self.mean.size) - gain @ self.h) @ self.cov


def _expanded(ks: np.ndarray, dim: int):
    """(mean, covariance) of the filter row ks in the dense filter's
    coordinates: the per-axis 2x2 covariance repeated over the four axes."""
    position, velocity, p, c, v = kalman.columns(ks)
    if dim == 4:
        assert np.all(velocity == 0.0) and c == 0.0 and v == 0.0
        return position, p * np.eye(4)
    block = np.array([[p, c], [c, v]])
    return np.concatenate([position, velocity]), np.kron(block, np.eye(4))


def _assert_close(actual, desired):
    scale = max(1.0, float(np.abs(desired).max()))
    np.testing.assert_allclose(actual, desired, rtol=1e-9, atol=1e-9 * scale)


_coord = st.floats(0.0, 1000.0)
_extent = st.floats(1.0, 200.0)
_box = st.builds(ObjectState, _coord, _coord, _extent, _extent)


@settings(max_examples=150, deadline=None)
@given(
    motion_model=st.sampled_from(["constant_velocity", "static"]),
    process_noise_pos=st.floats(0.0, 4.0),
    process_noise_vel=st.floats(0.0, 1.0),
    measurement_noise=st.floats(0.05, 10.0),
    start=_box,
    measurements=st.lists(st.one_of(st.none(), _box), min_size=1, max_size=40),
)
def test_matches_dense_reference_filter(motion_model, process_noise_pos, process_noise_vel,
                                        measurement_noise, start, measurements):
    cfg = TrackerConfig(motion_model=motion_model, process_noise_pos=process_noise_pos,
                        process_noise_vel=process_noise_vel,
                        measurement_noise=measurement_noise).validate()
    ref = DenseFilter(start, cfg)
    ks = kalman.init_kalman(start, cfg)
    prev = start
    dim = ref.mean.size
    block = np.kron(np.ones((dim // 4, dim // 4)), np.eye(4)) != 0
    for z in measurements:
        ref.predict()
        ks, es = kalman.predict(ks, cfg)
        if z is not None:
            ref.correct(z.as_vector())
        ks, prev = kalman.correct(ks, es, z, prev, cfg.w, cfg.measurement_noise)
        mean, cov = _expanded(ks, dim)
        _assert_close(mean, ref.mean)
        _assert_close(cov, ref.cov)
        # axes never couple in the dense filter
        assert np.all(ref.cov[~block] == 0.0)


# -- row functions against the scalar oracle ----------------------------------

def _assert_rows_equal(rows: np.ndarray, filters: list[np.ndarray]):
    """rows is the (n, 11) block of the n scalar filter rows, float for float."""
    assert np.array_equal(rows, np.array(filters).reshape(-1, kalman.WIDTH))


def _raised(fn):
    """The NumericOverflowError fn raises, or None."""
    try:
        fn()
    except NumericOverflowError as e:
        return e
    return None


# extents down to far below _MIN_EXTENT, so that a shrinking box drives
# the predicted l and h under the floor
_tiny = st.floats(1e-12, 1e-5)
_any_box = st.builds(ObjectState, _coord, _coord, st.one_of(_extent, _tiny),
                     st.one_of(_extent, _tiny))


@st.composite
def _row_runs(draw):
    """Start boxes of n rows and, per frame, each row's measurement or None;
    optionally one row pushed into overflow at some frame."""
    n = draw(st.sampled_from([0, 1, 2, 7]))
    starts = draw(st.lists(_any_box, min_size=n, max_size=n))
    frames = draw(st.lists(st.lists(st.one_of(st.none(), _any_box), min_size=n, max_size=n),
                           min_size=1, max_size=25))
    overflow = None
    if n and draw(st.booleans()):
        overflow = (draw(st.integers(0, n - 1)), draw(st.integers(0, len(frames) - 1)),
                    draw(st.sampled_from(["mean", "covariance", "update"])))
    return starts, frames, overflow


@settings(max_examples=200, deadline=None)
@given(
    motion_model=st.sampled_from(["constant_velocity", "static"]),
    process_noise_pos=st.floats(0.0, 4.0),
    process_noise_vel=st.floats(0.0, 1.0),
    measurement_noise=st.floats(0.05, 10.0),
    w=st.floats(0.0, 1.0),
    run=_row_runs(),
)
def test_rows_equal_scalar_oracle(motion_model, process_noise_pos, process_noise_vel,
                                  measurement_noise, w, run):
    """init_rows, predict_rows and correct_rows give, row by row, exactly the
    floats and states of init_kalman, predict and correct, and raise the
    same overflow error."""
    cfg = TrackerConfig(motion_model=motion_model, process_noise_pos=process_noise_pos,
                        process_noise_vel=process_noise_vel, measurement_noise=measurement_noise,
                        w=w).validate()
    starts, frames, overflow = run
    filters = [kalman.init_kalman(s, cfg) for s in starts]
    prev = list(starts)
    rows = kalman.init_rows(box_rows(starts), cfg)
    _assert_rows_equal(rows, filters)

    for f, measured in enumerate(frames):
        if overflow is not None and overflow[1] == f:
            i, _, kind = overflow
            f_position, f_velocity, f_p, f_c, _ = kalman.columns(filters[i])
            if kind == "mean":
                f_position[0] = f_velocity[0] = 1e308
            elif kind == "covariance":
                f_p[...] = f_c[...] = 1e308
            else:
                f_position[0] = 1.5e308
                measured = list(measured)
                measured[i] = ObjectState(-1.5e308, 0.0, 1.0, 1.0)
            rows[i] = filters[i]

        with np.errstate(over="ignore", invalid="ignore"):
            want = _raised(lambda: [kalman.predict(ks, cfg) for ks in filters])
            got = _raised(lambda: kalman.predict_rows(rows, cfg))
        assert str(got) == str(want)
        if want is not None:
            return
        predicted = [kalman.predict(ks, cfg) for ks in filters]
        rows, boxes = kalman.predict_rows(rows, cfg)
        _assert_rows_equal(rows, [ks for ks, _ in predicted])
        assert [ObjectState(*b) for b in boxes.tolist()] == [es for _, es in predicted]

        hit = np.array([i for i, z in enumerate(measured) if z is not None], dtype=np.intp)
        predicted_block, out = rows.copy(), []
        with np.errstate(over="ignore", invalid="ignore"):
            want = _raised(lambda: [kalman.correct(ks, es, z, p, cfg.w, cfg.measurement_noise)
                                    for (ks, es), z, p in zip(predicted, measured, prev)])
            # one call: it writes the rows in place, so a second would correct them twice
            got = _raised(lambda: out.append(kalman.correct_rows(
                rows, hit, box_rows([measured[i] for i in hit]), boxes[hit], cfg.w,
                cfg.measurement_noise)))
        assert str(got) == str(want)
        if want is not None:
            # a call that raises leaves the block as it was
            assert rows.tobytes() == predicted_block.tobytes()
            return
        corrected = [kalman.correct(ks, es, z, p, cfg.w, cfg.measurement_noise)
                     for (ks, es), z, p in zip(predicted, measured, prev)]
        cs, = out
        filters = [ks for ks, _ in corrected]
        _assert_rows_equal(rows, filters)
        assert [ObjectState(*b) for b in cs.tolist()] == [corrected[i][1] for i in hit]
        prev = [state for _, state in corrected]
    # an injected overflow has raised and returned above
    assert overflow is None


@pytest.mark.parametrize("position,velocity,measured", [
    pytest.param((0, 0, 1e154, 1e154), (0, 0, 1e154, 0), None, id="estimated_area"),
    pytest.param((0, 0, 1e303, 1.0), (0, 0, 0, -2.0), None, id="estimated_aspect"),
    pytest.param((100, 100, 1e-5, 1e300), (0, 0, 0, 0), (100, 100, 1.7e308, 0.95),
                 id="corrected_area"),
])
def test_box_beyond_float_refused_by_scalar_and_rows(position, velocity, measured):
    """An estimated box whose area l * h or aspect l / h overflows a float
    (this one's h floored), and a corrected box whose area does, are
    refused alike by the scalar and the row functions: one
    NumericOverflowError with one message, and a refused correction leaves
    the rows as they were."""
    cfg = TrackerConfig()
    ks = identity_state(position)
    kalman.columns(ks)[1][:] = velocity
    rows = ks[None].copy()
    if measured is None:
        want = _raised(lambda: kalman.predict(ks, cfg))
        got = _raised(lambda: kalman.predict_rows(rows, cfg))
    else:
        (ks, es), (rows, boxes) = kalman.predict(ks, cfg), kalman.predict_rows(rows, cfg)
        before, z = rows.copy(), ObjectState(*measured)
        want = _raised(lambda: kalman.correct(ks, es, z, es, cfg.w))
        got = _raised(lambda: kalman.correct_rows(rows, np.array([0]), box_rows([z]), boxes, cfg.w))
        assert rows.tobytes() == before.tobytes()
    assert want is not None and str(got) == str(want)
