"""Closed-form kernel evaluation."""

import math

import numpy as np
import pytest

from spacing_lab import UnsupportedError
from spacing_lab.kernels import (
    KernelSpec,
    _eval_array,
    kernel_matrix,
    scaled_jets,
    sine_bulk,
    sine_even,
    sine_odd,
    spectrum_singularity,
)

ALL_SPECS = [sine_bulk(), sine_even(), sine_odd(), spectrum_singularity()]


class TestSineFamily:
    def test_diagonal_value(self):
        assert _eval_array(sine_bulk(), 0.7, 0.7) == pytest.approx(
            1.0, abs=1e-15)

    def test_off_diagonal_value(self):
        assert _eval_array(sine_bulk(), 0.0, 0.5) == pytest.approx(
            2.0 / math.pi, abs=1e-15)

    def test_parity_decomposition(self):
        # even part + odd part recovers the translation kernel
        rng = np.random.default_rng(0)
        for x, y in rng.uniform(-3.0, 3.0, (64, 2)):
            total = (_eval_array(sine_even(), x, y)
                     + _eval_array(sine_odd(), x, y))
            assert abs(total - _eval_array(sine_bulk(), x, y)) <= 1e-14

    def test_taylor_branch_agrees_with_direct(self):
        # the near-diagonal expansion must join the generic branch smoothly
        for gap in (5e-5, 9.9e-5, 1.01e-4, 2e-4):
            near = _eval_array(sine_bulk(), 1.0, 1.0 + gap)
            direct = math.sin(math.pi * gap) / (math.pi * gap)
            assert abs(near - direct) <= 1e-12


class TestSymmetry:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.variant)
    def test_symmetric_in_arguments(self, spec):
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-3.0, 3.0, (32, 2)):
            assert abs(_eval_array(spec, x, y)
                       - _eval_array(spec, y, x)) <= 1e-14


def test_unknown_variant_refused():
    # the hard-edge kernels at a = -1/2, +1/2 are taken as the parity
    # blocks in p = sqrt(x), not as a variant of their own
    with pytest.raises(UnsupportedError, match="HardEdgeBessel"):
        KernelSpec("HardEdgeBessel")


def test_kernel_matrix_matches_pointwise():
    nodes = np.linspace(-1.0, 1.0, 7)
    matrix = kernel_matrix(sine_even(), nodes)
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert matrix[i, j] == pytest.approx(
                _eval_array(sine_even(), x, y), abs=1e-15)


# kernels with closed-form s-derivatives, with the highest order given
JET_SPECS = [(sine_even(), 2), (sine_odd(), 2), (spectrum_singularity(), 1)]


class TestScaledJets:
    NODES = np.array([-0.9, -0.3, 0.0, 0.3, 0.55, 0.9])

    @pytest.mark.parametrize("spec, order", JET_SPECS,
                             ids=lambda v: getattr(v, "variant", v))
    @pytest.mark.parametrize("s", [0.02, 0.7, 3.0])
    def test_value_is_scaled_kernel_matrix(self, spec, order, s):
        jet = scaled_jets(spec, self.NODES, s, order)
        assert len(jet) == order + 1
        np.testing.assert_allclose(
            jet[0], s * kernel_matrix(spec, s * self.NODES), rtol=0,
            atol=1e-15)

    @pytest.mark.parametrize("spec, order", JET_SPECS,
                             ids=lambda v: getattr(v, "variant", v))
    @pytest.mark.parametrize("s", [0.02, 0.7, 3.0])
    def test_derivatives_against_central_differences(self, spec, order, s):
        # a central difference with h = 1e-5 is off by h^2 |f'''| / 6, and
        # f''' reaches (2 pi)^3 on these nodes: at most 4e-9
        h = 1e-5
        jet = scaled_jets(spec, self.NODES, s, order)
        up = scaled_jets(spec, self.NODES, s + h, order)
        down = scaled_jets(spec, self.NODES, s - h, order)
        for k in range(1, order + 1):
            np.testing.assert_allclose(
                jet[k], (up[k - 1] - down[k - 1]) / (2.0 * h), rtol=0,
                atol=1e-8)

    @pytest.mark.parametrize("spec", [sine_even(), sine_odd()],
                             ids=lambda k: k.variant)
    def test_parity_first_derivative_is_rank_one(self, spec):
        # cos(a - b) +/- cos(a + b) is 2 cos a cos b or 2 sin a sin b
        s = 1.3
        a = np.pi * s * self.NODES
        factor = np.cos(a) if spec == sine_even() else np.sin(a)
        np.testing.assert_allclose(
            scaled_jets(spec, self.NODES, s, 1)[1], np.outer(factor, factor),
            rtol=0, atol=1e-15)

    def test_cos_minus_sinc_branches_agree_at_switch(self):
        from spacing_lab import kernels
        z = kernels._COS_MINUS_SINC_SWITCH
        taylor = kernels._cos_minus_sinc(np.array([z * (1 - 1e-12)]))[0]
        direct = kernels._cos_minus_sinc(np.array([z]))[0]
        assert taylor == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("spec, order", [
        (sine_bulk(), 0), (spectrum_singularity(), 2), (sine_even(), 3)])
    def test_unsupported(self, spec, order):
        with pytest.raises(UnsupportedError):
            scaled_jets(spec, self.NODES, 1.0, order)
