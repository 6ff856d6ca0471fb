import numpy as np

from mftrack import kernels
from mftrack.similarity import (
    area_similarity,
    color_similarity,
    distance_similarity,
    global_similarity,
    shape_similarity,
)
from mftrack.types import ColorHistogram, ObjectState


def random_batch(rng, nt, nd, nbins):
    tboxes = [ObjectState(*rng.uniform(1, 200, 2), *rng.uniform(1, 50, 2)) for _ in range(nt)]
    dboxes = [ObjectState(*rng.uniform(1, 200, 2), *rng.uniform(1, 50, 2)) for _ in range(nd)]
    thist = rng.uniform(0, 20, (nt, nbins)) * (rng.random((nt, nbins)) < 0.8)
    dhist = rng.uniform(0, 20, (nd, nbins)) * (rng.random((nd, nbins)) < 0.8)
    m = rng.integers(1, 6, nt)
    treach = np.array([20.0 * mi for mi in m])
    args = (
        np.array([b.x for b in tboxes]), np.array([b.y for b in tboxes]), treach,
        np.array([b.area for b in tboxes]), np.array([b.aspect for b in tboxes]), thist,
        np.array([b.x for b in dboxes]), np.array([b.y for b in dboxes]),
        np.array([b.area for b in dboxes]), np.array([b.aspect for b in dboxes]), dhist,
    )
    return tboxes, dboxes, thist, dhist, m, args


def scalar_reference(tboxes, dboxes, thist, dhist, m, weights):
    out = np.zeros((len(tboxes), len(dboxes)))
    for i, tb in enumerate(tboxes):
        for j, db in enumerate(dboxes):
            ls = [
                distance_similarity(tb, db, 20.0, int(m[i])),
                area_similarity(tb, db),
                shape_similarity(tb, db),
                color_similarity(ColorHistogram(thist[i]), ColorHistogram(dhist[j])),
            ]
            out[i, j] = global_similarity(ls, weights)
    return out


def test_kernel_matches_scalar_reference():
    rng = np.random.default_rng(123)
    weights = (1.0, 0.5, 2.0, 1.5)
    for _ in range(5):
        tboxes, dboxes, thist, dhist, m, args = random_batch(rng, 7, 9, 24)
        got = kernels.score_matrix(*args, weights)
        want = scalar_reference(tboxes, dboxes, thist, dhist, m, weights)
        assert np.allclose(got, want, atol=1e-12)


def test_empty_inputs():
    z = np.empty(0)
    h = np.empty((0, 8))
    out = kernels.score_matrix(z, z, z, z, z, h, z, z, z, z, h, (1, 1, 1, 1))
    assert out.shape == (0, 0)

