"""Tests of the benchmark's own arithmetic: span self time and the oracle's blur."""

import types

import numpy as np
import pytest

import oracle
import spans


def _tree():
    # root [0, 10] holds a [1, 4] and b [3, 6]; a holds c [2, 3.5]; d [7, 12]
    # overruns the root's end.
    return [spans.Span("root", 0.0, 10.0, -1),
            spans.Span("a", 1.0, 4.0, 0),
            spans.Span("c", 2.0, 3.5, 1),
            spans.Span("b", 3.0, 6.0, 0),
            spans.Span("d", 7.0, 12.0, 0)]


def test_self_time_subtracts_the_union_of_children():
    own = spans.self_times(_tree())
    # root: 10 minus [1, 6] and [7, 10]; a: 3 minus [2, 3.5]
    assert own == pytest.approx([2.0, 1.5, 1.5, 3.0, 5.0])


def test_per_name_sums_calls_and_self_time():
    tree = _tree() + [spans.Span("a", 20.0, 21.0, -1)]
    totals = spans.per_name(tree)
    assert totals["a"] == (2, pytest.approx(2.5))
    assert totals["root"] == (1, pytest.approx(2.0))


def test_patch_traces_every_reference_and_restores():
    def leaf(x):
        return x + 1

    def outer(x):
        return user.leaf(x) * 2

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.leaf = user.leaf = leaf
    home.outer = outer
    tracer = spans.Tracer()
    with tracer.patch([home, user], {"home.leaf": leaf, "home.outer": outer},
                      keep_results=("home.leaf",)):
        assert home.outer(1) == 4
        assert home.leaf(0) == 1
    assert home.leaf is leaf and user.leaf is leaf and home.outer is outer
    assert [(s.name, s.parent) for s in tracer.spans] == \
        [("home.outer", -1), ("home.leaf", 0), ("home.leaf", -1)]
    assert tracer.results == {"home.leaf": [2, 1]}


@pytest.mark.parametrize("width", [0.5, 1.0, 2.6, 7.7, 10.0])
def test_top_hat_is_unit_sum_symmetric_with_fractional_ends(width):
    kernel = oracle.top_hat(width, 1.0)
    assert kernel.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_array_equal(kernel, kernel[::-1])
    if kernel.size > 1:
        # inner bins are whole, the two end bins carry the remainder
        inner = kernel[1:-1] * width
        np.testing.assert_allclose(inner, 1.0)
        assert kernel[0] * width == pytest.approx((width - kernel.size + 2) / 2.0)


def test_circular_blur_matches_direct_sum_and_conserves_mass():
    rng = np.random.default_rng(0)
    values = rng.random(37)
    kernel = oracle.top_hat(7.4, 1.0)
    reach = kernel.size // 2
    n = values.size
    direct = np.array([sum(w * values[(i + a - reach) % n] for a, w in enumerate(kernel))
                       for i in range(n)])
    blurred = oracle.circular_blur(values, kernel)
    np.testing.assert_allclose(blurred, direct, rtol=1e-13, atol=0.0)
    assert blurred.sum() == pytest.approx(values.sum(), rel=1e-14)


def test_uncorrelated_summary_reads_order_peaks_and_contrast():
    angles = np.arange(-64, 64) * 0.01
    singles = 1.0 + 0.5 * np.cos(angles * 2 * np.pi / 0.4)  # peaks at 0 and +-0.4
    ratio, contrast = oracle.uncorrelated_summary(angles, singles, 0.0, 0.4, 2.0,
                                                  (-0.3, 0.3))
    # blue order at 0.1 (cos = 0), red order at 0.2 (cos = -1)
    assert ratio == pytest.approx(1.0 / 0.25)
    assert contrast == pytest.approx((1.5 - 0.5) / (1.5 + 0.5))
