import numpy as np
import pytest

from qgbsde import InvalidParameters, Partition, make_gbm, simulate_forward
from qgbsde import rng
from qgbsde.rng import _fill_block, _run_blocks


def _scheduled(monkeypatch, workers):
    """5000 paths' draws, filled block by block as simulate_forward fills
    its states, in blocks of 500 paths."""
    monkeypatch.setattr(rng, "_DEFAULT_BLOCK", 500)
    out = np.empty((5000, 16, 1))

    def fill(a, b):
        out[a:b] = _fill_block(42, a, b, 16, 1)

    _run_blocks(fill, 5000, workers)
    return out


def test_shape_and_dtype():
    out = _fill_block(7, 0, 100, 8, 2)
    assert out.shape == (100, 8, 2)
    assert out.dtype == np.float64


def test_worker_count_does_not_change_output(monkeypatch):
    base = _scheduled(monkeypatch, workers=1)
    for workers in (2, 3, 7):
        assert np.array_equal(base, _scheduled(monkeypatch, workers=workers))


def test_block_size_does_not_change_output():
    # the draws of a block are those of its paths in one whole-range draw
    base = _fill_block(42, 0, 1000, 5, 2)
    for bs in (1, 7, 64, 999):
        blocks = [_fill_block(42, a, min(a + bs, 1000), 5, 2) for a in range(0, 1000, bs)]
        assert np.array_equal(base, np.concatenate(blocks))


def test_path_prefix_stability():
    # the first paths of a larger batch coincide with a smaller batch
    small = _fill_block(9, 0, 100, 12, 1)
    large = _fill_block(9, 0, 10000, 12, 1)
    assert np.array_equal(small, large[:100])


def test_seed_separates_streams():
    a = _fill_block(1, 0, 100, 4, 1)
    b = _fill_block(2, 0, 100, 4, 1)
    assert not np.allclose(a, b)


def test_draws_locked_to_counter_blocks():
    # draws for path p depend only on p's own counter range: changing how many
    # steps OTHER paths would use cannot matter, but changing n_steps for the
    # same path changes its padding only past the consumed draws
    a = _fill_block(5, 0, 50, 7, 1)
    b = _fill_block(5, 0, 50, 8, 1)
    # 7 and 8 draws both need ceil(7/4)=2 = ceil(8/4)=2 counter blocks, so the
    # first 7 draws of every path agree
    assert np.array_equal(a, b[:, :7])
    c = _fill_block(5, 0, 50, 9, 1)
    # 9 draws need 3 blocks; the per-path offsets move, streams decouple
    assert not np.allclose(b[:, :4], c[:, :4])


def test_moments():
    out = _fill_block(13, 0, 200_000, 4, 1).ravel()
    n = out.size
    # mean, variance, skew, excess kurtosis within 5 standard errors
    assert abs(out.mean()) < 5.0 / np.sqrt(n)
    assert abs(out.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
    assert abs(((out ** 3).mean())) < 5.0 * np.sqrt(15.0 / n)
    assert abs((out ** 4).mean() - 3.0) < 5.0 * np.sqrt(96.0 / n)


def test_no_infinities():
    out = _fill_block(0, 0, 100_000, 8, 1)
    assert np.isfinite(out).all()


def test_validation(monkeypatch):
    # every argument is checked before anything is drawn
    def refuse(*args):
        raise AssertionError("drew before the argument check")

    monkeypatch.setattr("qgbsde.sde._fill_block", refuse)
    model, part = make_gbm(), Partition.uniform(1.0, 4)
    for n_paths, seed, workers in ((0, 1, 1), (10, -1, 1), (10, 2 ** 64, 1),
                                   (10, 1, 0)):
        with pytest.raises(InvalidParameters):
            simulate_forward(model, part, n_paths, seed, workers=workers)
