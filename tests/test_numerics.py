"""The serving numerics: the owned ``erfinv`` and the stated-order sums.

Every number the stack serves comes from elementwise products summed in
one stated order (``repro.core.variance.sum_in_order``) and from
``repro.mathstats.normal.erfinv``; no BLAS kernel and no scipy. These
tests pin each contraction bit for bit to its order written out in
python floats, hold ``erfinv`` within 4 ulp of scipy's, and check that
the serving entry points import no scipy at all.
"""

import functools
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from repro.core.predictor import VARIANT_OPTIONS, Variant
from repro.core.variance import fold_unit_moments, sum_in_order
from repro.mathstats.normal import erfinv
from repro.optimizer.cost_model import COST_UNIT_NAMES
from repro.service import PredictionService
from repro.workloads.tpch_templates import TPCH_TEMPLATES

REPO_ROOT = Path(__file__).resolve().parent.parent
UNITS = len(COST_UNIT_NAMES)


def left_to_right(terms) -> float:
    """``((t0 + t1) + t2) + ...`` in python floats; no terms sum to 0.0."""
    return functools.reduce(operator.add, terms) if terms else 0.0


def ulp_distance(a, b) -> np.ndarray:
    """How many doubles lie between ``a`` and ``b`` (0 when equal)."""
    def line(x):
        bits = np.asarray(x, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)

    return np.abs(line(a) - line(b))


def bits(value) -> bytes:
    return np.float64(value).tobytes()


# ---------------------------------------------------------------------------
# erfinv


class TestErfinv:
    def _within(self, ys, limit=4):
        ys = [float(y) for y in ys]
        ours = np.array([erfinv(y) for y in ys])
        theirs = scipy.special.erfinv(np.array(ys))
        distance = ulp_distance(ours, theirs)
        worst = int(distance.argmax())
        assert distance[worst] <= limit, (ys[worst], ours[worst], theirs[worst])

    def test_dense_grid_of_the_open_interval(self):
        self._within(np.linspace(-1.0, 1.0, 200_001)[1:-1])

    def test_tails(self):
        self._within(
            sign * (1.0 - 2.0**-k) for k in range(1, 53) for sign in (1.0, -1.0)
        )

    def test_powers_of_two_down_to_subnormals(self):
        self._within(
            sign * 2.0**-k for k in range(1, 1075) for sign in (1.0, -1.0)
        )

    def test_zero_and_odd_symmetry_are_exact(self):
        assert erfinv(0.0) == 0.0
        assert math.copysign(1.0, erfinv(-0.0)) == -1.0
        for y in np.linspace(0.0, 1.0, 20_001)[1:-1].tolist() + [2.0**-60, 1 - 2.0**-52]:
            assert bits(erfinv(-y)) == bits(-erfinv(y)), y

    def test_edges(self):
        assert erfinv(1.0) == math.inf and erfinv(-1.0) == -math.inf
        for y in (1.5, -1.0000000000000002, math.inf, math.nan):
            assert math.isnan(erfinv(y))

    def test_served_confidences(self):
        # The static interval of confidence c is mean +- sqrt(2) erfinv(c) std.
        self._within((0.5, 0.9, 0.95, 0.99, 0.999), limit=1)


# ---------------------------------------------------------------------------
# sum_in_order


def _order_sensitive(rng, shape):
    """Terms whose sum depends on the order they are added in."""
    scale = 10.0 ** rng.integers(-8, 17, size=shape)
    return rng.standard_normal(shape) * scale


class TestSumInOrder:
    @pytest.mark.parametrize("shape", [
        (5,), (1,), (3, 5), (40,), (2, 5, 6), (2, 5, 17), (64, 5), (129, 5),
        (48, 4, 3, 5), (48, 4, 3, 2, 5), (7, 40), (200, 12), (3, 50, 9),
    ])
    def test_each_sum_is_left_to_right(self, shape):
        # Small arrays take np.add.accumulate, large ones one add per
        # term; every shape must give the python order's bits.
        terms = _order_sensitive(np.random.default_rng(len(shape) * 31 + shape[-1]), shape)
        got = np.asarray(sum_in_order(terms))
        assert got.shape == shape[:-1]
        rows = terms.reshape(-1, shape[-1]).tolist()
        expected = [left_to_right(row) for row in rows]
        assert [bits(x) for x in got.reshape(-1).tolist()] == [bits(x) for x in expected]

    def test_cancellation_is_order_visible(self):
        # 1e16 + 1 + 1 is 1e16 left to right; a pairwise order gets 1e16 + 2.
        terms = np.array([[1e16, 1.0, 1.0, 1.0, 1.0]] * 200)
        assert (sum_in_order(terms) == 1e16).all()
        assert sum_in_order(terms[0]) == 1e16

    def test_empty_axis_sums_to_zeros(self):
        assert sum_in_order(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# fold_unit_moments


def _fold_in_python(mu, sigma2, g, cov):
    """The stated formulas of ``fold_unit_moments`` for one cell."""
    units = range(len(mu))
    mean = left_to_right([mu[c] * g[c] for c in units])
    unit = left_to_right([sigma2[c] * (g[c] * g[c]) for c in units])
    parts = [
        left_to_right([
            mu[c] * left_to_right([cov[k][c][d] * mu[d] for d in units])
            + sigma2[c] * cov[k][c][c]
            for c in units
        ])
        for k in (0, 1)
    ]
    raw = (parts[0] + parts[1]) + unit
    return mean, max(raw, 0.0), parts[0], parts[1], unit, [mu[c] * g[c] for c in units]


def _random_moments(rng, lead):
    g = _order_sensitive(rng, lead + (UNITS,))
    cov = _order_sensitive(rng, lead + (2, UNITS, UNITS))
    return g, cov


class TestFoldUnitMoments:
    def test_one_cell_matches_python(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu = np.abs(_order_sensitive(rng, (UNITS,)))
            sigma2 = np.abs(_order_sensitive(rng, (UNITS,)))
            g, cov = _random_moments(rng, ())
            got = fold_unit_moments(mu, sigma2, g, cov)
            expected = _fold_in_python(mu.tolist(), sigma2.tolist(), g.tolist(), cov.tolist())
            for value, want in zip(got[:5], expected[:5]):
                assert bits(value) == bits(want)
            assert got[5].tolist() == expected[5]

    def test_batched_cells_match_python_cell_by_cell(self):
        # The kernels' layout: moments (P, V, 1, ...), units (L, U) and
        # (V, L, U), broadcast to (P, V, L) cells.
        rng = np.random.default_rng(11)
        plans, variants, mpls = 9, 4, 3
        g, cov = _random_moments(rng, (plans, variants, 1))
        mu = np.abs(_order_sensitive(rng, (mpls, UNITS)))
        sigma2 = np.abs(_order_sensitive(rng, (variants, mpls, UNITS)))
        sigma2[1] = 0.0
        got = fold_unit_moments(mu, sigma2, g, cov)
        assert got[0].shape == (plans, variants, mpls)
        for p in range(plans):
            for v in range(variants):
                for li in range(mpls):
                    expected = _fold_in_python(
                        mu[li].tolist(), sigma2[v, li].tolist(),
                        g[p, v, 0].tolist(), cov[p, v, 0].tolist(),
                    )
                    for value, want in zip(got[:5], expected[:5]):
                        assert bits(value[p, v, li]) == bits(want)
                    assert got[5][p, v, li].tolist() == expected[5]

    def test_non_finite_moments_poison_only_their_cell(self):
        rng = np.random.default_rng(3)
        g, cov = _random_moments(rng, (2, 1, 1))
        g[1, 0, 0, 2] = math.inf
        mu = np.ones((1, UNITS))
        sigma2 = np.zeros((1, 1, UNITS))
        with np.errstate(invalid="ignore"):
            mean, variance, *_ = fold_unit_moments(mu, sigma2, g, cov)
        assert np.isfinite(mean[0]).all() and np.isfinite(variance[0]).all()
        # 0 * inf is NaN, as it is in the scalar path.
        assert math.isnan(variance[1, 0, 0])


# ---------------------------------------------------------------------------
# unit_moments


@pytest.fixture(scope="module")
def assemblers(tpch_db, calibrated_units):
    service = PredictionService(tpch_db, calibrated_units, sampling_ratio=0.05, seed=3)
    rng = np.random.default_rng(1409)
    found = []
    for template in TPCH_TEMPLATES:
        for sql in (template.instantiate(rng), template.seljoin(rng)):
            planned = service.plan(sql)
            prepared, _ = service.prepare(planned)
            found.append(prepared.assembler(planned))
    return found


class TestUnitMoments:
    def test_contractions_match_python(self, assemblers):
        monomial_counts = set()
        for assembler in assemblers:
            coefficients = assembler._coefficients.tolist()
            monomials = range(len(coefficients[0]))
            monomial_counts.add(len(monomials))
            for variant in Variant:
                options = VARIANT_OPTIONS[variant]
                means, kernels = (k.tolist() for k in assembler._kernel(options))
                g_mean, covariances = assembler.unit_moments(options)
                for c in range(UNITS):
                    expected = left_to_right(
                        [coefficients[c][m] * means[m] for m in monomials]
                    )
                    assert bits(g_mean[c]) == bits(expected)
                for k, kernel in enumerate(kernels):
                    left = [
                        [
                            left_to_right(
                                [coefficients[c][m] * kernel[m][n] for m in monomials]
                            )
                            for n in monomials
                        ]
                        for c in range(UNITS)
                    ]
                    for c in range(UNITS):
                        for d in range(UNITS):
                            expected = left_to_right(
                                [left[c][n] * coefficients[d][n] for n in monomials]
                            )
                            assert bits(covariances[k, c, d]) == bits(expected)
        # Monomial axes shorter and longer than 8, where numpy's pairwise
        # summation would start to differ from the stated order.
        assert min(monomial_counts) < 8 < max(monomial_counts)

    def test_unit_variance_flag_shares_one_pair(self, assemblers):
        assembler = assemblers[0]
        assert assembler.unit_moments(VARIANT_OPTIONS[Variant.ALL]) is (
            assembler.unit_moments(VARIANT_OPTIONS[Variant.NO_VAR_C])
        )


# ---------------------------------------------------------------------------
# no scipy


def test_serving_entry_points_import_no_scipy():
    probe = (
        "import sys\n"
        "import repro.api, repro.serving, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, check=True,
        cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.stdout.strip() == "[]"
