"""Property-based tests for trainer-level aggregation invariants.

The survivor-renormalization contract of the fault layer: when a dropout
mask removes workers from a round, scaling the survivors' weights by
``Σα_all / Σα_survivors`` restores the full population's data mass — the
scaled weights sum to ``Σα_all`` under *any* non-empty dropout mask, and
the renormalized aggregate of a common update vector lands exactly where
the full population's aggregate would, independent of which workers
survived.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st


@st.composite
def alphas_and_mask(draw, max_workers=32):
    """Normalized positive weights plus a non-empty survivor mask."""
    n = draw(st.integers(2, max_workers))
    raw = draw(
        st.lists(
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    sizes = np.asarray(raw, dtype=np.float64)
    alphas = sizes / sizes.sum()
    mask = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    assume(mask.any())
    return alphas, mask


class TestSurvivorRenormalization:
    @given(data=alphas_and_mask())
    @settings(max_examples=200, deadline=None)
    def test_scaled_survivor_weights_preserve_alpha_mass(self, data):
        """Σ(α_i · scale) over survivors == Σα over everyone, for any mask."""
        alphas, mask = data
        survivors = np.flatnonzero(mask)
        # The trainer's formula (SynchronousTrainer.sync_round_participants /
        # the grouped event loop's degraded aggregation).
        scale = float(alphas.sum()) / float(alphas[survivors].sum())
        mass = float((alphas[survivors] * scale).sum())
        assert mass == pytest.approx(float(alphas.sum()), rel=1e-9)

    @given(
        data=alphas_and_mask(max_workers=16),
        dim=st.integers(1, 8),
        step=st.floats(-2.0, 2.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_renormalized_common_update_is_mask_independent(
        self, data, dim, step
    ):
        """If every survivor returns w_base + s·u, the renormalized
        aggregate equals the full-participation aggregate — no matter who
        dropped out."""
        alphas, mask = data
        survivors = np.flatnonzero(mask)
        rng = np.random.default_rng(0)
        base = rng.standard_normal(dim)
        direction = rng.standard_normal(dim)
        update = base + step * direction
        scale = float(alphas.sum()) / float(alphas[survivors].sum())
        # Eq. 8 with renormalized survivor weights.
        coeff = float((alphas[survivors] * scale).sum())
        degraded = (1.0 - coeff) * base + coeff * update
        full = (1.0 - float(alphas.sum())) * base + float(alphas.sum()) * update
        np.testing.assert_allclose(degraded, full, rtol=1e-9, atol=1e-9)
