"""Unit tests for parameter containers and vector conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Parameter,
    ParameterSet,
    flatten_parameters,
    unflatten_vector,
)


class TestParameter:
    def test_value_is_float64_and_contiguous(self):
        p = Parameter("w", np.arange(6, dtype=np.int32).reshape(2, 3))
        assert p.value.dtype == np.float64
        assert p.value.flags["C_CONTIGUOUS"]

    def test_shape_and_size(self):
        p = Parameter("w", np.zeros((3, 4)))
        assert p.shape == (3, 4)
        assert p.size == 12


class TestParameterSet:
    def _make(self):
        return ParameterSet(
            [
                Parameter("a", np.arange(6, dtype=float).reshape(2, 3)),
                Parameter("b", np.array([10.0, 20.0])),
            ]
        )

    def test_len_and_iteration_order(self):
        ps = self._make()
        assert len(ps) == 2
        assert [p.name for p in ps] == ["a", "b"]

    def test_getitem_by_name_and_index(self):
        ps = self._make()
        assert ps["a"].shape == (2, 3)
        assert ps[1].name == "b"

    def test_contains(self):
        ps = self._make()
        assert "a" in ps and "missing" not in ps

    def test_duplicate_name_rejected(self):
        ps = self._make()
        with pytest.raises(ValueError, match="duplicate"):
            ps.add(Parameter("a", np.zeros(1)))

    def test_total_size(self):
        assert self._make().total_size == 8

    def test_vector_roundtrip(self):
        ps = self._make()
        vec = ps.to_vector()
        assert vec.shape == (8,)
        ps2 = self._make()
        ps2.from_vector(vec * 2)
        np.testing.assert_allclose(ps2.to_vector(), vec * 2)

    def test_to_vector_with_out_buffer(self):
        ps = self._make()
        buf = np.empty(8)
        out = ps.to_vector(out=buf)
        assert out is buf
        np.testing.assert_allclose(out, ps.to_vector())

    def test_from_vector_wrong_size(self):
        ps = self._make()
        with pytest.raises(ValueError):
            ps.from_vector(np.zeros(7))

    def test_from_vector_wrong_size_message(self):
        """Same words as unflatten_vector for the same mistake."""
        with pytest.raises(ValueError, match="vector has 7 entries but shapes require 8"):
            self._make().from_vector(np.zeros(7))
        with pytest.raises(ValueError, match="vector has 7 entries but shapes require 8"):
            unflatten_vector(np.zeros(7), [(2, 3), (2,)])

    def test_layout_follows_add(self):
        """The cached flat layout is extended by ``add``, not frozen."""
        ps = self._make()
        ps.from_vector(np.arange(8.0))  # layout in use before the add
        ps.add(Parameter("c", np.zeros((2, 2))))
        ps.add(Parameter("d", np.zeros(1)))
        assert ps.total_size == 13
        vec = np.arange(13.0) + 0.5
        ps.from_vector(vec)
        np.testing.assert_array_equal(ps["a"].value, vec[:6].reshape(2, 3))
        np.testing.assert_array_equal(ps["c"].value, vec[8:12].reshape(2, 2))
        np.testing.assert_array_equal(ps["d"].value, [12.5])
        np.testing.assert_array_equal(ps.to_vector(), vec)
        with pytest.raises(ValueError, match="13"):
            ps.from_vector(np.zeros(8))

    def test_from_vector_accepts_lists_and_2d(self):
        ps = self._make()
        ps.from_vector([float(i) for i in range(8)])
        np.testing.assert_array_equal(ps.to_vector(), np.arange(8.0))
        ps.from_vector(np.arange(8, dtype=np.int64).reshape(2, 4) * 2)
        np.testing.assert_array_equal(ps.to_vector(), np.arange(8.0) * 2)


class TestFlattenUnflatten:
    def test_roundtrip(self):
        arrays = [np.arange(4.0).reshape(2, 2), np.array([5.0]), np.arange(6.0)]
        vec = flatten_parameters(arrays)
        blocks = unflatten_vector(vec, [a.shape for a in arrays])
        for a, b in zip(arrays, blocks):
            np.testing.assert_allclose(a, b)

    def test_flatten_with_out(self):
        arrays = [np.ones(3), np.zeros(2)]
        out = np.empty(5)
        res = flatten_parameters(arrays, out=out)
        assert res is out
        np.testing.assert_allclose(out, [1, 1, 1, 0, 0])

    def test_flatten_out_wrong_size(self):
        with pytest.raises(ValueError):
            flatten_parameters([np.ones(3)], out=np.empty(4))

    def test_unflatten_wrong_size(self):
        with pytest.raises(ValueError):
            unflatten_vector(np.zeros(5), [(2, 2)])

    def test_unflatten_returns_views_when_possible(self):
        vec = np.arange(4.0)
        blocks = unflatten_vector(vec, [(2, 2)])
        blocks[0][0, 0] = 42.0
        assert vec[0] == 42.0

    def test_scalar_shape_support(self):
        vec = flatten_parameters([np.array(3.0), np.ones(2)])
        blocks = unflatten_vector(vec, [(), (2,)])
        assert blocks[0].shape == ()
        assert float(blocks[0]) == 3.0
