from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

import xradon as xr
from xradon import phantom as phm
from conftest import ray_differences_per_node, ray_march_density

SQRT_PI = np.sqrt(np.pi)


def two_gaussians():
    return xr.Phantom(
        (
            xr.Primitive(xr.GAUSSIAN, (1.0, 0.0, 0.0), 1.0, 1.0),
            xr.Primitive(xr.GAUSSIAN, (-1.0, 0.0, 0.0), 1.0, 1.0),
        ),
        7.0,
    )


def unit_ball():
    return xr.Phantom((xr.Primitive(xr.BALL, (0.0, 0.0, 0.0), 1.0, 1.0),), 6.0)


class TestEvaluate:
    def test_gaussian_peak(self, unit_gaussian):
        assert xr.evaluate(unit_gaussian, (0.0, 0.0, 0.0)) == 1.0

    def test_ball_outside(self):
        assert xr.evaluate(unit_ball(), (0.0, 0.0, 2.0)) == 0.0

    def test_two_gaussians_midpoint(self):
        val = xr.evaluate(two_gaussians(), (0.0, 0.0, 0.0))
        assert abs(val - 2.0 * np.exp(-1.0)) < 1e-12

    def test_batched(self, unit_gaussian):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        vals = xr.evaluate(unit_gaussian, pts)
        assert np.allclose(vals, [1.0, np.exp(-1.0)])


class TestHalflineIntegral:
    def test_gaussian_from_center(self, unit_gaussian):
        for n in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
            val = xr.halfline_integral(unit_gaussian, (0.0, 0.0, 0.0), n)
            assert abs(val - SQRT_PI / 2.0) < 1e-12

    def test_ball_from_center(self):
        assert abs(xr.halfline_integral(unit_ball(), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)) - 1.0) < 1e-12

    def test_ball_full_chord(self):
        val = xr.halfline_integral(unit_ball(), (-2.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert abs(val - 2.0) < 1e-12

    def test_ball_pointing_away(self):
        assert xr.halfline_integral(unit_ball(), (-2.0, 0.0, 0.0), (-1.0, 0.0, 0.0)) == 0.0

    def test_opposite_halves_sum_to_line(self, unit_gaussian):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            total = xr.halfline_integral(unit_gaussian, x, n) + xr.halfline_integral(
                unit_gaussian, x, -n
            )
            assert abs(total - xr.line_integral(unit_gaussian, x, n)) < 1e-12

    def test_ray_march_cross_check(self, unit_gaussian):
        x = np.array([0.4, -0.2, 0.1])
        n = np.array([0.3, 0.8, -0.5])
        n /= np.linalg.norm(n)
        numeric = ray_march_density(unit_gaussian, x, n, step=1e-3)
        assert abs(numeric - xr.halfline_integral(unit_gaussian, x, n)) < 1e-5


# Fixed example sequence: the properties run the same cases on every run.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

KINDS = st.sampled_from((xr.GAUSSIAN, xr.BALL))
STEPS = st.floats(-6.0, np.log10(0.5)).map(lambda e: 10.0**e)  # h from 1e-6 to 0.5


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.tuples(*(st.floats(-1.0, 1.0),) * 3)))
    norm = np.linalg.norm(v)
    assume(norm > 0.1)
    return v / norm


@st.composite
def phantoms(draw, kinds=KINDS):
    prims = [
        xr.Primitive(
            draw(kinds),
            draw(st.tuples(*(st.floats(-1.0, 1.0),) * 3)),
            draw(st.floats(0.3, 1.2)),
            draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0)),
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    return xr.Phantom(tuple(prims), phm.min_support_radius(prims))


def integrand_scale(ph):
    """The largest half-line integral of any primitive, summed over primitives."""
    return sum(
        abs(p.amplitude) * p.scale * (SQRT_PI if p.kind == xr.GAUSSIAN else 2.0)
        for p in ph.primitives
    )


def halfline_differences(ph, points, nodes, h):
    """(B, P) reference: two halfline_integral calls per ray."""
    x = points[None, :, :]
    n = nodes[:, None, :]
    return xr.halfline_integral(ph, x + h * n, n) - xr.halfline_integral(ph, x - h * n, n)


def well_conditioned(ph, points, nodes, h):
    """(B, P) mask of rays the reference resolves to 1e-12.

    Near a ball's tangent the chord is the square root of a cancelling
    difference a^2 - d^2, and the reference recomputes d^2 at each end of the
    step, so its rounding is amplified there; exact tangents are checked on
    exactly representable rays instead.
    """
    keep = np.ones((len(nodes), len(points)), dtype=bool)
    for prim in ph.primitives:
        if prim.kind != xr.BALL:
            continue
        rel = points - prim.center
        p = nodes @ rel.T
        r2 = np.sum(rel * rel, axis=1)
        d2 = r2 - p * p
        keep &= np.abs(prim.scale**2 - d2) > 1e-2 * (r2 + (np.abs(p) + h) ** 2)
    return keep


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def gauss_legendre_differences(ph, points, nodes, h):
    """(B, P) reference for Gaussian phantoms: -A e^(-d^2/a^2) int_{-h}^{h} e^(-(p+t)^2/a^2) dt
    by 12-point Gauss-Legendre, with d = |(x - c) x n| (no cancelling r^2 - p^2)."""
    out = np.zeros((len(nodes), len(points)))
    for prim in ph.primitives:
        rel = points[None, :, :] - prim.center
        n = nodes[:, None, :]
        p = np.sum(rel * n, axis=-1)
        d2 = np.sum(np.cross(rel, n) ** 2, axis=-1)
        t = h * GL_NODES
        inner = h * np.sum(GL_WEIGHTS * np.exp(-((p[..., None] + t) ** 2) / prim.scale**2), axis=-1)
        out -= prim.amplitude * np.exp(-d2 / prim.scale**2) * inner
    return out


def series_taken(prim, points, h):
    """Whether the documented truncation bound selects the series form for this batch."""
    a = prim.scale
    w = max(1.0, float(np.max(np.linalg.norm(points - prim.center, axis=1), initial=0.0)) / a)
    t = h / a * w
    return t < 1.0 and any(
        np.e**3 * t ** (2 * m + 2) / ((2 * m + 3) * (1.0 - t * t)) <= phm.SERIES_TOL
        for m in range(1, phm.SERIES_MAX_ORDER + 1)
    )


def series_reach():
    """The largest t = (h/a) max(1, max|x - c|/a) for which the series form is taken."""
    unit = xr.gaussian_phantom().primitives[0]
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if series_taken(unit, np.zeros((1, 3)), mid) else (lo, mid)
    return lo


def series_bound(ph, h):
    """The series form's error allowance: 1e-14 of 2h sum|A|."""
    return 1e-14 * 2.0 * h * sum(abs(p.amplitude) for p in ph.primitives)


def series_order(prim, points, h):
    """The order M of the series form _gaussian_series takes for this batch, or None."""
    ser = phm._gaussian_series(prim, np.sum((points - prim.center) ** 2, axis=1), h)
    return None if ser is None else len(ser[0]) - 1


def largest_step(prim, points, order):
    """The largest step h at which the series form takes at most `order` (0: h = 0)."""
    lo, hi = 0.0, prim.scale  # h = a gives t >= 1, the erfc form
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        m = series_order(prim, points, mid)
        lo, hi = (mid, hi) if m is not None and m <= order else (lo, mid)
    return lo


def hemisphere_cap(rng, count, axis):
    """count random unit vectors n with n . axis > 0."""
    n = rng.normal(size=(count, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    return n * np.sign(n @ axis)[:, None]


def erfc_calls(monkeypatch):
    """Count the kernel's erfc calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return erfc(*args, **kwargs)

    monkeypatch.setattr(phm, "erfc", counting)
    return calls


class TestRayDifferences:
    """The fused closed form against two halfline_integral calls and a midpoint rule."""

    @PROPERTY
    @given(
        ph=phantoms(),
        nodes=st.lists(unit_vectors(), min_size=1, max_size=4),
        dirs=st.lists(unit_vectors(), min_size=1, max_size=4),
        radii=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        h=STEPS,
        outside=st.booleans(),
    )
    def test_matches_halfline_difference(self, ph, nodes, dirs, radii, h, outside):
        # points inside the support ball, or between it and 2 beyond it
        R = ph.support_radius
        r = R + 2.0 * np.array(radii[: len(dirs)]) if outside else R * np.array(radii[: len(dirs)])
        points = r[:, None] * np.array(dirs)
        nodes = np.array(nodes)
        fused = ray_differences_per_node(ph, points, nodes, h)
        ref = halfline_differences(ph, points, nodes, h)
        keep = well_conditioned(ph, points, nodes, h)
        assert fused.shape == (len(nodes), len(points))
        assert np.all(np.abs(fused - ref)[keep] <= 1e-12 * integrand_scale(ph))

    @PROPERTY
    @given(ph=phantoms(), n=unit_vectors(), ts=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4), h=STEPS)
    def test_rays_through_centre(self, ph, n, ts, h):
        # every ray runs along n through the first primitive's centre: d^2 = 0
        points = ph.primitives[0].center + np.array(ts)[:, None] * n
        fused = ray_differences_per_node(ph, points, n[None, :], h)
        ref = halfline_differences(ph, points, n[None, :], h)
        keep = well_conditioned(ph, points, n[None, :], h)
        assert np.all(np.abs(fused - ref)[keep] <= 1e-12 * integrand_scale(ph))

    @PROPERTY
    @given(
        c=st.tuples(*(st.integers(-8, 8),) * 3),
        radius=st.integers(4, 16),
        axes=st.permutations((0, 1, 2)),
        signs=st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))),
        ts=st.lists(st.integers(-48, 48), min_size=1, max_size=4),
        level=st.integers(1, 20),
    )
    def test_rays_tangent_to_ball(self, c, radius, axes, signs, ts, level):
        # dyadic geometry, exact in floating point: each ray runs along
        # axis i at distance a from the centre, touching the ball at one point
        a = radius / 16.0
        centre = np.array(c) / 8.0
        ball = xr.Phantom((xr.Primitive(xr.BALL, centre, a, 1.5),), 8.0)
        i, j = axes[0], axes[1]
        n = np.zeros(3)
        n[i] = signs[0]
        points = np.tile(centre, (len(ts), 1))
        points[:, j] += signs[1] * a
        points[:, i] += np.array(ts) / 16.0
        h = 2.0**-level  # 0.5 down to 9.5e-7
        fused = ray_differences_per_node(ball, points, n[None, :], h)
        ref = halfline_differences(ball, points, n[None, :], h)
        assert np.all(fused == 0.0)
        assert np.all(np.abs(fused - ref) <= 1e-12 * integrand_scale(ball))

    @PROPERTY
    @given(
        ph=phantoms(kinds=st.just(xr.GAUSSIAN)),
        n=unit_vectors(),
        x=st.tuples(*(st.floats(-3.0, 3.0),) * 3),
        h=STEPS,
    )
    def test_gaussian_midpoint_rule(self, ph, n, x, h):
        # -int_{-h}^{h} f(x + t n) dt by a composite midpoint rule whose
        # error is at most (2h)^3 / (24 M^2) * max|f''|, max|f''| <= sum 2|A|/a^2
        m = 2000
        x = np.array(x)
        t = -h + (np.arange(m) + 0.5) * (2.0 * h / m)
        midpoint = -np.sum(xr.evaluate(ph, x + t[:, None] * n)) * (2.0 * h / m)
        curvature = sum(2.0 * abs(p.amplitude) / p.scale**2 for p in ph.primitives)
        bound = (2.0 * h) ** 3 / (24.0 * m * m) * curvature + 1e-13 * integrand_scale(ph)
        fused = ray_differences_per_node(ph, x[None, :], n[None, :], h)[0, 0]
        assert abs(fused - midpoint) <= bound

    @PROPERTY
    @given(
        ph=phantoms(kinds=st.just(xr.GAUSSIAN)),
        nodes=st.lists(unit_vectors(), min_size=1, max_size=4),
        dirs=st.lists(unit_vectors(), min_size=1, max_size=4),
        radii=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        delta=st.floats(-5.0, -1.0).map(lambda e: 10.0**e),
    )
    def test_matches_gauss_legendre(self, ph, nodes, dirs, radii, delta):
        # h = delta * (smallest width): delta from 1e-5 to 0.1 for that primitive
        h = delta * min(p.scale for p in ph.primitives)
        points = ph.support_radius * np.array(radii[: len(dirs)])[:, None] * np.array(dirs)
        nodes = np.array(nodes)
        # each primitive on its own: 1e-14 of 2h|A| where it takes the series form
        for prim in ph.primitives:
            one = xr.Phantom((prim,), ph.support_radius)
            fused = ray_differences_per_node(one, points, nodes, h)
            ref = gauss_legendre_differences(one, points, nodes, h)
            bound = series_bound(one, h) if series_taken(prim, points, h) else 1e-12 * integrand_scale(one)
            assert np.all(np.abs(fused - ref) <= bound)

    def test_series_resolves_cancellation(self, unit_gaussian):
        # p/a < 0: erfc((p +- h)/a) are both near 2, and their difference
        # loses about 1e-12 of 2h|A| to rounding; the series form does not
        h = 1e-4
        points = np.array([[-0.5, 0.3, 0.2], [-1.7, 0.1, -0.4], [-0.05, 0.0, 0.0]])
        nodes = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        assert np.all(nodes @ points.T < 0.0)
        fused = ray_differences_per_node(unit_gaussian, points, nodes, h)
        ref = gauss_legendre_differences(unit_gaussian, points, nodes, h)
        assert np.all(np.abs(fused - ref) <= series_bound(unit_gaussian, h))

    @pytest.mark.parametrize("side, erfc_per_node", [(0.999, 0), (1.001, 2)])
    def test_switch_at_series_bound(self, monkeypatch, side, erfc_per_node):
        # points within one width of the centre, so t = h/a; h just inside
        # and just outside the series bound
        ph = xr.Phantom((xr.Primitive(xr.GAUSSIAN, (0.2, -0.1, 0.3), 0.5, -1.4),), 6.0)
        h = side * series_reach() * 0.5
        points = ph.primitives[0].center + 0.5 * xr.fibonacci_sphere(9).nodes * np.linspace(0.0, 1.0, 9)[:, None]
        nodes = xr.fibonacci_sphere(7).nodes
        calls = erfc_calls(monkeypatch)
        fused = ray_differences_per_node(ph, points, nodes, h)
        assert len(calls) == erfc_per_node * len(nodes)
        ref = gauss_legendre_differences(ph, points, nodes, h)
        bound = series_bound(ph, h) if erfc_per_node == 0 else 1e-12 * integrand_scale(ph)
        assert np.all(np.abs(fused - ref) <= bound)

    def test_mixed_near_and_far_points(self, monkeypatch):
        # the narrow Gaussian's far points push its batch out of the series
        # bound, the wide one's stay inside; each primitive keeps its own form
        narrow = xr.Primitive(xr.GAUSSIAN, (0.5, 0.0, 0.0), 0.3, 1.2)
        wide = xr.Primitive(xr.GAUSSIAN, (-0.5, 0.2, 0.0), 1.1, -0.7)
        ph = xr.Phantom((narrow, wide), 8.0)
        h = 2e-3
        near = narrow.center + 0.1 * xr.fibonacci_sphere(6).nodes
        far = 4.0 * xr.fibonacci_sphere(5).nodes
        points = np.vstack([near, far])
        assert not series_taken(narrow, points, h) and series_taken(narrow, near, h)
        assert series_taken(wide, points, h)
        nodes = xr.fibonacci_sphere(8).nodes
        calls = erfc_calls(monkeypatch)
        fused = ray_differences_per_node(ph, points, nodes, h)
        assert len(calls) == 2 * len(nodes)
        ref = gauss_legendre_differences(ph, points, nodes, h)
        assert np.all(np.abs(fused - ref) <= 1e-12 * integrand_scale(ph))
        near_only = ray_differences_per_node(ph, near, nodes, h)
        assert len(calls) == 2 * len(nodes)
        assert np.all(np.abs(near_only - ref[:, : len(near)]) <= series_bound(ph, h))

    @pytest.mark.parametrize("order", range(1, phm.SERIES_MAX_ORDER + 1))
    def test_series_order_on_anisotropic_rule(self, order):
        # diff(nodes, w) at a step that takes exactly `order` series terms,
        # on nodes in one hemisphere with unequal weights: their moments are
        # far from isotropic, so a wrong multinomial on a mixed monomial
        # shows (a Fibonacci rule's nearly isotropic moments can hide one).
        # The last node is perpendicular to the first point's x - c, where
        # the terms of the expanded (n . (x - c))^2j cancel.
        rng = np.random.default_rng(order)
        prim = xr.Primitive(xr.GAUSSIAN, (0.2, -0.1, 0.3), 0.7, -1.3)
        ph = xr.Phantom((prim,), 6.0)
        axis = np.array([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5])
        perpendicular = np.array([-0.8, 0.6, 0.0])
        assert perpendicular @ axis > 0.0
        nodes = np.vstack([hemisphere_cap(rng, 40, axis), perpendicular])
        weights = rng.uniform(0.05, 1.0, len(nodes))
        offsets = np.vstack([[0.6, 0.8, 0.0], rng.uniform(-1.0, 1.0, (20, 3))])
        points = prim.center + offsets
        assert abs(perpendicular @ offsets[0]) < 1e-15
        h = 0.5 * (largest_step(prim, points, order - 1) + largest_step(prim, points, order))
        assert series_order(prim, points, h) == order
        fused = phm.ray_differences(ph, points, h)(nodes, weights)
        exact = weights @ gauss_legendre_differences(ph, points, nodes, h)
        assert np.all(np.abs(fused - exact) <= series_bound(ph, h) * np.sum(weights))
        ref = weights @ halfline_differences(ph, points, nodes, h)
        assert np.all(np.abs(fused - ref) <= 1e-12 * integrand_scale(ph) * np.sum(weights))

    def test_moment_expansion_matches_node_sum(self):
        # the monomial expansion of sum_k w_k sum_j c_j (n_k . y)^2j against
        # the node sum itself, with every c_j = 1 so that each degree up to
        # 2 SERIES_MAX_ORDER counts alike, on a hemisphere cap
        rng = np.random.default_rng(5)
        order = phm.SERIES_MAX_ORDER
        nodes = hemisphere_cap(rng, 30, np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8]))
        weights = rng.uniform(0.05, 1.0, len(nodes))
        y = rng.uniform(-1.0, 1.0, (25, 3))
        coeffs = np.ones(order + 1)
        moments = phm._moments(nodes, weights, order)
        expanded = phm._moment_series(y, coeffs, moments)
        p2 = (nodes @ y.T) ** 2
        direct = weights @ sum(p2**j for j in range(1, order + 1))
        r2 = np.sum(y * y, axis=1)
        scale = np.sum(weights) * sum(r2**j for j in range(1, order + 1))  # |n . y| <= |y|
        assert np.all(np.abs(expanded - direct) <= 1e-14 * scale)

    def test_empty_batches(self, unit_gaussian):
        quad = xr.fibonacci_sphere(3)
        points = np.zeros((0, 3))
        assert ray_differences_per_node(unit_gaussian, points, quad.nodes, 1e-4).shape == (3, 0)
        assert phm.ray_differences(unit_gaussian, points, 1e-4)(quad.nodes, quad.weights).shape == (0,)

    def test_rejects_mismatched_weights(self, unit_gaussian):
        diff = phm.ray_differences(unit_gaussian, np.zeros((4, 3)), 1e-4)
        quad = xr.fibonacci_sphere(5)
        for weights in (quad.weights[:4], np.append(quad.weights, 1.0), quad.weights[None]):
            with pytest.raises(ValueError, match="weights"):
                diff(quad.nodes, weights)

    @pytest.mark.parametrize("per_block", [60, 7, 1], ids=["one-block", "partial-last-block", "node-per-block"])
    @pytest.mark.parametrize("case", ["series", "erfc", "ball", "mixed"])
    def test_sphere_sum_folds_weights(self, monkeypatch, case, per_block):
        # diff(nodes, w) against sum_k w_k (two halfline_integral calls), with
        # unequal weights whose sum is not 1: equal ones would hide a weight
        # folded into the wrong term, or c_0 taken once per node or per call.
        # ROWS is set so that blocks of per_block nodes cover the 60 nodes.
        rng = np.random.default_rng(17)
        gaussian = xr.Primitive(xr.GAUSSIAN, (0.2, -0.1, 0.3), 0.7, -1.3)
        ball = xr.Primitive(xr.BALL, (-0.3, 0.4, 0.1), 0.9, 0.8)
        prims, h, reach = {
            # a step long enough that the series' p^2 terms exceed the bound
            "series": ((gaussian,), 5e-3, 1.5),
            "erfc": ((gaussian,), 5e-2, 1.5),  # a longer step takes the erfc form
            "ball": ((ball,), 1e-3, 1.5),
            "mixed": ((gaussian, ball), 5e-3, 1.5),
        }[case]
        ph = xr.Phantom(prims, 6.0)
        points = reach * xr.fibonacci_sphere(40).nodes * rng.uniform(0.0, 1.0, (40, 1))
        nodes = xr.fibonacci_sphere(60).nodes
        weights = rng.uniform(0.05, 1.0, 60)
        assert case == "ball" or series_taken(gaussian, points, h) == (case != "erfc")
        ref = halfline_differences(ph, points, nodes, h)
        keep = well_conditioned(ph, points, nodes, h).all(axis=0)
        assert keep.sum() >= 30
        monkeypatch.setattr(xr.geometry, "ROWS", per_block * int(keep.sum()))
        fused = phm.ray_differences(ph, points[keep], h)(nodes, weights)
        assert fused.shape == (keep.sum(),)
        bound = 1e-12 * integrand_scale(ph) * np.sum(weights)
        assert np.all(np.abs(fused - weights @ ref[:, keep]) <= bound)


class TestPlaneIntegral:
    def test_gaussian_center_plane(self, unit_gaussian):
        assert abs(xr.plane_integral(unit_gaussian, (0.0, 1.0, 0.0), 0.0) - np.pi) < 1e-12

    def test_gaussian_offset_plane(self, unit_gaussian):
        val = xr.plane_integral(unit_gaussian, (1.0, 0.0, 0.0), 1.0)
        assert abs(val - np.pi / np.e) < 1e-12

    def test_ball_center_disc(self):
        assert abs(xr.plane_integral(unit_ball(), (0.0, 0.0, 1.0), 0.0) - np.pi) < 1e-12

    def test_evenness(self, unit_gaussian):
        ph = two_gaussians()
        n = np.array([0.6, 0.0, 0.8])
        for s in (-1.3, 0.4, 2.0):
            a = xr.plane_integral(ph, n, s)
            b = xr.plane_integral(ph, -n, -s)
            assert abs(a - b) < 1e-12

    def test_plane_march_cross_check(self, unit_gaussian):
        from conftest import plane_march_density

        n = np.array([0.0, 0.6, 0.8])
        numeric = plane_march_density(unit_gaussian, n, 0.5)
        assert abs(numeric - xr.plane_integral(unit_gaussian, n, 0.5)) < 1e-6


class TestLinearity:
    def test_all_oracles_additive(self, unit_gaussian):
        ball = unit_ball()
        combined = xr.Phantom(
            unit_gaussian.primitives + ball.primitives,
            max(unit_gaussian.support_radius, ball.support_radius),
        )
        x = np.array([0.2, 0.1, -0.3])
        n = np.array([0.0, 0.0, 1.0])
        assert abs(
            xr.evaluate(combined, x) - xr.evaluate(unit_gaussian, x) - xr.evaluate(ball, x)
        ) < 1e-12
        assert abs(
            xr.halfline_integral(combined, x, n)
            - xr.halfline_integral(unit_gaussian, x, n)
            - xr.halfline_integral(ball, x, n)
        ) < 1e-12
        assert abs(
            xr.plane_integral(combined, n, 0.3)
            - xr.plane_integral(unit_gaussian, n, 0.3)
            - xr.plane_integral(ball, n, 0.3)
        ) < 1e-12

    @PROPERTY
    @given(
        ph=phantoms(),
        coeffs=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
        points=st.lists(st.tuples(*(st.floats(-3.0, 3.0),) * 3), min_size=1, max_size=4),
        nodes=st.lists(unit_vectors(), min_size=1, max_size=4),
        h=STEPS,
    )
    def test_linear_in_amplitude(self, ph, coeffs, points, nodes, h):
        # F(sum_i c_i A_i prim_i) = sum_i c_i F(A_i prim_i) for the half-line
        # integral, the plane-integral rows and the ray differences
        points = np.array(points)
        nodes = np.array(nodes)
        s = np.linspace(-3.0, 3.0, 13)
        coeffs = coeffs[: len(ph.primitives)]
        scaled = xr.Phantom(
            tuple(replace(p, amplitude=c * p.amplitude) for p, c in zip(ph.primitives, coeffs)),
            ph.support_radius,
        )
        alone = [xr.Phantom((p,), ph.support_radius) for p in ph.primitives]
        weight = sum(abs(c * p.amplitude) for p, c in zip(ph.primitives, coeffs))
        a = max(p.scale for p in ph.primitives)
        transforms = (
            # (F, a bound per unit amplitude on |F| or, for the differences, on
            # the half-line integrals whose difference they are)
            (lambda q: xr.halfline_integral(q, points[None, :, :], nodes[:, None, :]), 2.0 * a),
            (lambda q: phm.plane_integral_rows(q, nodes, s), np.pi * a * a),
            (lambda q: ray_differences_per_node(q, points, nodes, h), 2.0 * a),
        )
        for transform, bound in transforms:
            expected = sum(c * transform(q) for q, c in zip(alone, coeffs))
            assert np.max(np.abs(transform(scaled) - expected)) <= 1e-14 * bound * weight


@st.composite
def rigid_motions(draw):
    """(R, t): a rotation matrix from a unit quaternion, and a shift."""
    q = np.array(draw(st.tuples(*(st.floats(-1.0, 1.0),) * 4)))
    assume(np.linalg.norm(q) > 0.1)
    w, x, y, z = q / np.linalg.norm(q)
    rotation = np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
        [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
        [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)],
    ])
    return rotation, np.array(draw(st.tuples(*(st.floats(-3.0, 3.0),) * 3)))


def moved(ph, rotation, shift):
    """The phantom f'(y) = f(R^T (y - t)): each centre c moves to R c + t."""
    prims = [replace(p, center=rotation @ p.center + shift) for p in ph.primitives]
    return xr.Phantom(tuple(prims), phm.min_support_radius(prims))


def plane_scale(ph):
    """The largest plane integral of any primitive, summed over primitives."""
    return sum(abs(p.amplitude) * np.pi * p.scale**2 for p in ph.primitives)


QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
OFF_CENTRE_BALL = xr.Phantom((xr.Primitive(xr.BALL, (0.5, 0.2, 0.0), 0.8, 1.5),), 6.0)


class TestEquivariance:
    """The closed forms move with the phantom: for f'(y) = f(R^T (y - t)),
    Rf'(Rn, s + Rn . t) = Rf(n, s) and X'(Rx + t, Rn) = X(x, n)."""

    @PROPERTY
    @given(ph=phantoms(), motion=rigid_motions(), nodes=st.lists(unit_vectors(), min_size=1, max_size=4))
    @example(ph=two_gaussians(), motion=(np.eye(3), np.array([0.5, -1.0, 2.0])), nodes=[np.array([1.0, 0.0, 0.0])])
    @example(ph=OFF_CENTRE_BALL, motion=(QUARTER_TURN, np.zeros(3)), nodes=[np.array([0.6, 0.8, 0.0])])
    def test_plane_integral_rows(self, ph, motion, nodes):
        rotation, shift = motion
        nodes = np.array(nodes)
        s = np.linspace(-4.0, 4.0, 41)
        after = moved(ph, rotation, shift)
        expected = phm.plane_integral_rows(ph, nodes, s)
        for k, n in enumerate(nodes @ rotation.T):
            row = phm.plane_integral_rows(after, n[None], s + np.dot(n, shift))[0]
            assert np.max(np.abs(row - expected[k])) <= 1e-12 * plane_scale(ph)

    @PROPERTY
    @given(
        ph=phantoms(),
        motion=rigid_motions(),
        points=st.lists(st.tuples(*(st.floats(-3.0, 3.0),) * 3), min_size=1, max_size=4),
        nodes=st.lists(unit_vectors(), min_size=1, max_size=4),
    )
    @example(
        ph=two_gaussians(),
        motion=(np.eye(3), np.array([0.5, -1.0, 2.0])),
        points=[(0.0, 0.0, 0.0), (1.0, 0.5, 0.0)],
        nodes=[np.array([1.0, 0.0, 0.0])],
    )
    @example(
        ph=OFF_CENTRE_BALL,
        motion=(QUARTER_TURN, np.zeros(3)),
        points=[(0.5, 0.2, 0.0), (-1.0, 0.0, 0.3)],
        nodes=[np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.0, 1.0])],
    )
    def test_halfline_integral(self, ph, motion, points, nodes):
        rotation, shift = motion
        points = np.array(points)
        nodes = np.array(nodes)
        expected = xr.halfline_integral(ph, points[None, :, :], nodes[:, None, :])
        after = xr.halfline_integral(
            moved(ph, rotation, shift), (points @ rotation.T + shift)[None, :, :], (nodes @ rotation.T)[:, None, :]
        )
        # rays near a ball's tangent resolve the chord only to the square root of the rounding
        keep = well_conditioned(ph, points, nodes, 0.0)
        assert np.all(np.abs(after - expected)[keep] <= 1e-12 * integrand_scale(ph))


class TestInvariants:
    def test_support_radius_enforced(self):
        with pytest.raises(ValueError):
            xr.Phantom((xr.Primitive(xr.GAUSSIAN, (0.0, 0.0, 0.0), 1.0, 1.0),), 4.0)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            xr.Primitive(xr.GAUSSIAN, (0.0, 0.0, 0.0), 0.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            xr.Primitive("ellipsoid", (0.0, 0.0, 0.0), 1.0, 1.0)


class TestPhantomFiles:
    def test_round_trip(self, tmp_path):
        ph = two_gaussians()
        path = tmp_path / "ph.txt"
        xr.save_phantom(ph, path)
        loaded = xr.load_phantom(path)
        assert loaded.support_radius == ph.support_radius
        assert len(loaded.primitives) == 2
        for a, b in zip(loaded.primitives, ph.primitives):
            assert a.kind == b.kind
            assert np.array_equal(a.center, b.center)
            assert a.scale == b.scale and a.amplitude == b.amplitude

    @PROPERTY
    @given(
        prims=st.lists(
            st.tuples(
                KINDS,
                st.tuples(*(st.floats(-1e100, 1e100),) * 3),
                st.floats(5e-324, 1e100),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=3,
        ),
        margin=st.floats(0.0, 1e100),
    )
    def test_format_parse_round_trip_is_bitwise(self, prims, margin):
        prims = [xr.Primitive(*p) for p in prims]
        ph = xr.Phantom(tuple(prims), phm.min_support_radius(prims) + margin)
        text = phm.format_phantom(ph)
        back = phm.parse_phantom(text)
        assert np.float64(back.support_radius).tobytes() == np.float64(ph.support_radius).tobytes()
        assert len(back.primitives) == len(ph.primitives)
        for a, b in zip(back.primitives, ph.primitives):
            assert a.kind == b.kind
            assert a.center.tobytes() == b.center.tobytes()
            assert np.array([a.scale, a.amplitude]).tobytes() == np.array([b.scale, b.amplitude]).tobytes()
        assert phm.format_phantom(back) == text

    def test_parse_comments_and_default_radius(self):
        ph = phm.parse_phantom("# comment\ngaussian 0 0 0 1 1\n")
        assert ph.support_radius == 6.0

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            phm.parse_phantom("cone 0 0 0 1 1\n")

    def test_parse_rejects_bad_field_count(self):
        with pytest.raises(ValueError):
            phm.parse_phantom("gaussian 0 0 0 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "support_radius nan\ngaussian 0 0 0 1 1\n",
            "support_radius inf\ngaussian 0 0 0 1 1\n",
            "gaussian 0 0 0 1 nan\n",
            "gaussian 0 0 0 1 inf\n",
            "gaussian nan 0 0 1 1\n",
            "support_radius 7\ngaussian 0 0 0 nan 1\n",
            "support_radius 7\nball 0 0 0 inf 1\n",
        ],
    )
    def test_load_rejects_non_finite(self, tmp_path, text):
        path = tmp_path / "ph.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="finite"):
            xr.load_phantom(path)
