"""Unit tests for the dtype a model's flat parameter vector is built in."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import LogisticRegressionMLP, default_dtype, parameter_dtype


class TestParameterDtype:
    def test_default_is_float64(self):
        assert default_dtype() == np.float64

    @pytest.mark.parametrize("dtype", ["float32", np.float32, np.dtype(np.float32)])
    def test_switches_and_restores(self, dtype):
        with parameter_dtype(dtype):
            assert default_dtype() == np.float32
        assert default_dtype() == np.float64

    def test_nested_contexts_restore_in_order(self):
        with parameter_dtype("float32"):
            with parameter_dtype("float64"):
                assert default_dtype() == np.float64
            assert default_dtype() == np.float32
        assert default_dtype() == np.float64

    def test_restores_after_an_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with parameter_dtype("float32"):
                raise RuntimeError("boom")
        assert default_dtype() == np.float64

    @pytest.mark.parametrize("dtype", ["float16", "int32", "complex128"])
    def test_unsupported_dtype_is_refused(self, dtype):
        with pytest.raises(ValueError, match="unsupported parameter dtype"):
            with parameter_dtype(dtype):
                pass  # pragma: no cover - the context refuses to enter
        assert default_dtype() == np.float64

    def test_a_model_keeps_the_dtype_it_was_built_in(self):
        with parameter_dtype("float32"):
            model = LogisticRegressionMLP(input_dim=16, hidden=8)
        assert model.vector.dtype == np.float32
        assert LogisticRegressionMLP(input_dim=16, hidden=8).vector.dtype == np.float64
