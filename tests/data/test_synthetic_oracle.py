"""Bit-identity of the vectorised box filter against the per-row original.

The oracle below is the implementation ``repro.data.synthetic._smooth``
had before it was vectorised: one ``np.convolve(mode="same")`` call per
image row.  Every comparison is ``np.array_equal`` — the whole-tensor
filter sums taps in the order ``np.convolve`` does (plain multiply-add in
the interior, the BLAS dot product on the truncated borders), so datasets,
and with them every seeded history, are unchanged to the last bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticImageConfig, make_synthetic_images
from repro.data import synthetic
from repro.registry import get as get_component
from repro.registry import names as component_names


def rowwise_smooth(images: np.ndarray, window: int) -> np.ndarray:
    """The pre-vectorisation ``_smooth``: ``np.convolve`` row by row."""
    if window <= 1:
        return images
    kernel = np.ones(window) / window
    out = images
    for axis in (-2, -1):
        out = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), axis, out
        )
    return out


def assert_same_dataset(build, monkeypatch) -> None:
    """``build()`` with the production filter equals ``build()`` with the oracle."""
    fast = build()
    monkeypatch.setattr(synthetic, "_smooth", rowwise_smooth)
    slow = build()
    for field in ("x_train", "y_train", "x_test", "y_test"):
        got, want = getattr(fast, field), getattr(slow, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.flags.c_contiguous, field
        assert np.array_equal(got, want), field


@pytest.mark.parametrize("name", component_names("dataset"))
def test_registered_dataset_default_shape(name, monkeypatch):
    """Default image size, channels and smoothing; equality does not depend
    on the sample count, so 128 + 16 samples (one per class of the 100-class
    set) stand for the default 2-3k."""
    factory = get_component("dataset", name)
    assert_same_dataset(lambda: factory(num_train=128, num_test=16), monkeypatch)


@pytest.mark.parametrize(
    "num_train,num_test", [(800, 160), (1600, 320), (2400, 480)]
)
def test_benchmark_shapes(num_train, num_test, monkeypatch):
    """The 8x8 datasets of the airbench workloads (960 / 1920 / 2880 samples)."""
    factory = get_component("dataset", "synthetic-mnist")
    assert_same_dataset(
        lambda: factory(num_train=num_train, num_test=num_test, image_size=8, seed=3),
        monkeypatch,
    )


@pytest.mark.parametrize("smoothing", [0, 1, 2, 3])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("image_size", [7, 8, 11, 12])
def test_sizes_channels_and_smoothing(image_size, channels, smoothing, monkeypatch):
    cfg = SyntheticImageConfig(
        num_classes=5,
        num_train=40,
        num_test=9,
        channels=channels,
        image_size=image_size,
        smoothing=smoothing,
        seed=image_size + smoothing,
    )
    assert_same_dataset(lambda: make_synthetic_images(cfg, "probe"), monkeypatch)


@given(
    n=st.integers(1, 6),
    channels=st.integers(1, 3),
    size=st.integers(1, 16),
    window=st.integers(0, 11),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_smooth_matches_rowwise_convolve(n, channels, size, window, seed):
    """Any batch, any window up to NumPy's small-kernel limit (11) and the row length."""
    window = min(window, size)
    images = np.random.default_rng(seed).standard_normal((n, channels, size, size))
    got = synthetic._smooth(images, window)
    want = rowwise_smooth(images, window)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_wide_windows_agree_to_rounding():
    """Past 11 taps ``np.convolve`` leaves its small-kernel loop; 1 ulp is allowed."""
    images = np.random.default_rng(0).standard_normal((4, 1, 20, 20))
    np.testing.assert_allclose(
        synthetic._smooth(images, 13), rowwise_smooth(images, 13), rtol=0, atol=1e-15
    )


class TestFailAtTheBoundary:
    def test_image_smaller_than_prototype_filter(self):
        with pytest.raises(ValueError, match=r"image_size=6.*smoothing=3.*>= 7"):
            synthetic.make_mnist_like(num_train=50, num_test=10, image_size=6)

    def test_smallest_accepted_size(self):
        ds = synthetic.make_mnist_like(num_train=50, num_test=10, image_size=7)
        assert ds.x_train.shape[1:] == (1, 7, 7)

    def test_negative_num_test(self):
        with pytest.raises(ValueError, match="num_test"):
            make_synthetic_images(SyntheticImageConfig(num_test=-1), "x")

    def test_negative_smoothing(self):
        with pytest.raises(ValueError, match="smoothing"):
            make_synthetic_images(SyntheticImageConfig(smoothing=-1), "x")

    def test_empty_test_split_still_allowed(self):
        ds = synthetic.make_mnist_like(num_train=50, num_test=0, image_size=8)
        assert ds.num_test == 0
