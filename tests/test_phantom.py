import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special
from scipy.special import erfc

import xradon as xr
from xradon import phantom as phm
from conftest import cube_grid, ray_differences_per_node, ray_march_density

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


LD = np.longdouble
GL_NODES, GL_WEIGHTS = (v.astype(LD) for v in np.polynomial.legendre.leggauss(12))


def gauss_legendre_terms(ph, points, nodes, h):
    """(B, P) reference for Gaussian phantoms: -A e^(-d^2/a^2) int_{-h}^{h} e^(-(p+t)^2/a^2) dt
    by 12-point Gauss-Legendre, with d = |(x - c) x n| (no cancelling r^2 - p^2), in long
    double (64-bit significand on x86-64), one (B, P) pass per Gauss node.

    In float64 the rule's own rounding came to 0.047 of series_bound per node on
    Fibonacci 2000 at a = 0.0778, h = 0.01 (t = 0.1285); its truncation is far below."""
    out = np.zeros((len(nodes), len(points)), LD)
    n = np.asarray(nodes, LD)[:, None, :]
    step = LD(h)
    for prim in ph.primitives:
        rel = np.asarray(points, LD)[None] - np.asarray(prim.center, LD)
        p = np.sum(rel * n, axis=-1)
        d2 = np.sum(np.cross(rel, n) ** 2, axis=-1)
        a2 = LD(prim.scale) ** 2
        inner = np.zeros_like(p)
        for x, w in zip(GL_NODES, GL_WEIGHTS):
            inner += w * np.exp(-((p + step * x) ** 2) / a2)
        out -= LD(prim.amplitude) * np.exp(-d2 / a2) * (step * inner)
    return out


def gauss_legendre_differences(ph, points, nodes, h):
    """gauss_legendre_terms rounded once to float64."""
    return gauss_legendre_terms(ph, points, nodes, h).astype(float)


def gauss_legendre_sums(ph, points, nodes, weights, h):
    """(P,) sum_k w_k of gauss_legendre_terms, summed in long double and rounded once.

    A float64 product weights @ differences is no oracle for a sphere sum: over
    Fibonacci 2000 it rounded 0.51 of series_bound away from a 40-digit sum at a
    Gaussian's centre, where all 2,000 terms are equal."""
    return np.sum(np.asarray(weights, LD)[:, None] * gauss_legendre_terms(ph, points, nodes, h), axis=0).astype(float)


def series_taken(prim, points, h):
    """Per point, whether the documented truncation bound at SERIES_MAX_ORDER,
    at its own t = (h/a) max(1, |x - c|/a), selects the series form."""
    a = prim.scale
    t = h / a * np.maximum(1.0, np.linalg.norm(points - prim.center, axis=1) / a)
    m = phm.SERIES_MAX_ORDER
    return (t < 1.0) & (np.e**3 * t ** (2 * m + 2) <= phm.SERIES_TOL * (2 * m + 3) * (1.0 - t * t))


def series_reach():
    """The largest t = (h/a) max(1, max|x - c|/a) for which the series form is taken."""
    unit = xr.gaussian_phantom().primitives[0]
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if series_taken(unit, np.zeros((1, 3)), mid)[0] else (lo, mid)
    return lo


def series_bound(ph, h):
    """The series form's error allowance: 1e-14 of 2h sum|A|."""
    return 1e-14 * 2.0 * h * sum(abs(p.amplitude) for p in ph.primitives)


def series_order(prim, points, h):
    """The order M of the series form _gaussian_series takes when every point of
    the batch takes it, or None."""
    if not series_taken(prim, points, h).all():
        return None
    return len(phm._gaussian_series(prim, np.max(np.sum((points - prim.center) ** 2, axis=1)), h)) - 1


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


def looped_widths(monkeypatch):
    """Record the number of points each _looped_sum call receives."""
    widths = []
    looped = phm._looped_sum

    def recording(prim, r2, columns, *args):
        widths.append(columns.shape[1])
        return looped(prim, r2, columns, *args)

    monkeypatch.setattr(phm, "_looped_sum", recording)
    return widths


# Zeros of both signs, infinities, NaN, subnormals, the smallest normal, arguments
# where erfc underflows (past 26.55) or nears 2, and large ones.
SPECIAL_ARGS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
     0.5, -3.7, 26.5, 27.3, -27.3, 1e10, -1e10, 1e300, -1e300, np.finfo(float).max]
)


class TestScipyWrappers:
    """phantom.erfc and phantom.dawsn are scipy.special's, bitwise."""

    @pytest.mark.parametrize("name", ["erfc", "dawsn"])
    def test_bitwise(self, name):
        wrapper, ref = getattr(phm, name), getattr(special, name)
        expected = ref(SPECIAL_ARGS).view(np.uint64)
        assert np.array_equal(wrapper(SPECIAL_ARGS).view(np.uint64), expected)
        out = np.full_like(SPECIAL_ARGS, 7.0)
        assert wrapper(SPECIAL_ARGS, out=out) is out
        assert np.array_equal(out.view(np.uint64), expected)
        # in place, as _looped_sum calls erfc
        inplace = SPECIAL_ARGS.copy()
        assert wrapper(inplace, out=inplace) is inplace
        assert np.array_equal(inplace.view(np.uint64), expected)
        for x in SPECIAL_ARGS:
            got, want = wrapper(x), ref(x)
            assert type(got) is type(want)
            assert np.array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64))


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
        # each primitive on its own: 1e-14 of 2h|A| at the points that take the series form
        for prim in ph.primitives:
            one = xr.Phantom((prim,), ph.support_radius)
            fused = ray_differences_per_node(one, points, nodes, h)
            ref = gauss_legendre_differences(one, points, nodes, h)
            bound = np.where(series_taken(prim, points, h), series_bound(one, h), 1e-12 * integrand_scale(one))
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

    def test_erfc_form_resolves_cancellation(self, unit_gaussian):
        # p < 0 beyond the series form's reach: erfc((p +- h)/a) are both near 2,
        # and their difference as written keeps only its absolute accuracy
        # (7.4e-9 relative at p = -4); at |p| both arguments are >= -h/a
        h = 5e-2
        p = np.linspace(-0.5, -4.0, 36)
        points = np.column_stack([np.full_like(p, 0.3), np.zeros_like(p), p])
        node = np.array([[0.0, 0.0, 1.0]])
        far = ~series_taken(unit_gaussian.primitives[0], points, h)
        assert 10 <= far.sum() < len(p)
        got = phm.ray_differences(unit_gaussian, points, h, node, np.ones(1))
        ref = gauss_legendre_differences(unit_gaussian, points, node, h)[0]
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        mirrored = points[far] * [1.0, 1.0, -1.0]
        assert np.array_equal(bits(got[far]), bits(phm.ray_differences(unit_gaussian, mirrored, h, node, np.ones(1))))

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
        # the narrow Gaussian's far points take the erfc form and its near ones
        # the series form; every point of the wide one takes the series form
        narrow = xr.Primitive(xr.GAUSSIAN, (0.5, 0.0, 0.0), 0.3, 1.2)
        wide = xr.Primitive(xr.GAUSSIAN, (-0.5, 0.2, 0.0), 1.1, -0.7)
        ph = xr.Phantom((narrow, wide), 8.0)
        h = 1e-2
        near = narrow.center + 0.1 * xr.fibonacci_sphere(6).nodes
        far = 4.0 * xr.fibonacci_sphere(5).nodes
        points = np.vstack([near, far])
        assert np.array_equal(series_taken(narrow, points, h), [True] * len(near) + [False] * len(far))
        assert series_taken(wide, points, h).all()
        nodes = xr.fibonacci_sphere(8).nodes
        calls = erfc_calls(monkeypatch)
        widths = looped_widths(monkeypatch)
        fused = ray_differences_per_node(ph, points, nodes, h)
        assert len(calls) == 2 * len(nodes)
        assert widths == [len(far)] * len(nodes)  # the narrow Gaussian's far points only
        ref = gauss_legendre_differences(ph, points, nodes, h)
        assert np.all(np.abs(fused - ref)[:, len(near) :] <= 1e-12 * integrand_scale(ph))
        assert np.all(np.abs(fused - ref)[:, : len(near)] <= series_bound(ph, h))
        near_only = ray_differences_per_node(ph, near, nodes, h)
        assert len(calls) == 2 * len(nodes)
        assert np.all(np.abs(near_only - ref[:, : len(near)]) <= series_bound(ph, h))

    def test_batch_straddling_the_series_reach(self, monkeypatch):
        # one Gaussian, points from its centre out to 3: those within about
        # 1.61 of it (t <= 0.1286) take the series form, the rest the erfc
        # form, and only those reach _looped_sum.  The near points' sums are
        # the bits of a batch of the near points alone.
        rng = np.random.default_rng(23)
        prim = xr.Primitive(xr.GAUSSIAN, (0.2, -0.1, 0.3), 0.5, -1.3)
        ph = xr.Phantom((prim,), 6.0)
        h = 2e-2
        points = prim.center + np.linspace(0.0, 3.0, 31)[:, None] * xr.fibonacci_sphere(31).nodes
        nodes = xr.fibonacci_sphere(50).nodes
        weights = rng.uniform(0.05, 1.0, len(nodes))
        near = series_taken(prim, points, h)
        assert 5 <= near.sum() <= len(points) - 5
        widths = looped_widths(monkeypatch)
        fused = phm.ray_differences(ph, points, h, nodes, weights)
        assert widths == [np.count_nonzero(~near)]
        near_only = phm.ray_differences(ph, points[near], h, nodes, weights)
        assert widths == [np.count_nonzero(~near)]
        assert np.array_equal(bits(fused[near]), bits(near_only))
        ref = weights @ halfline_differences(ph, points, nodes, h)
        assert np.all(np.abs(fused - ref) <= 1e-12 * integrand_scale(ph) * np.sum(weights))

    @pytest.mark.parametrize("order", range(1, phm.SERIES_MAX_ORDER + 1))
    def test_series_order_on_anisotropic_rule(self, order):
        # ray_differences at a step that takes exactly `order` series terms,
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
        fused = phm.ray_differences(ph, points, h, nodes, weights)
        exact = gauss_legendre_sums(ph, points, nodes, weights, h)
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
        expanded = phm._moment_series(np.ascontiguousarray(y.T), coeffs, moments)
        p2 = (nodes @ y.T) ** 2
        direct = weights @ sum(p2**j for j in range(1, order + 1))
        r2 = np.sum(y * y, axis=1)
        scale = np.sum(weights) * sum(r2**j for j in range(1, order + 1))  # |n . y| <= |y|
        assert np.all(np.abs(expanded - direct) <= 1e-14 * scale)

    @pytest.mark.parametrize("order", range(1, phm.SERIES_MAX_ORDER + 1))
    def test_moments_formed_are_those_read(self, order):
        # the entries of even total degree up to 2M, each the bits of the einsum
        # over every exponent at once; the others zero; a lower order's table is
        # the corner of this one's on the entries it reads
        rng = np.random.default_rng(order)
        nodes = np.vstack([xr.fibonacci_sphere(200).nodes, hemisphere_cap(rng, 30, np.array([0.0, 0.6, 0.8]))])
        weights = rng.uniform(0.05, 1.0, len(nodes))
        moments = phm._moments(nodes, weights, order)
        degree = 2 * order
        powers = phm._powers(nodes.T, degree)
        full = np.einsum("abk,ck->abc", weights * powers[0][:, None] * powers[1][None], powers[2])
        e = np.arange(degree + 1)
        total = e[:, None, None] + e[:, None] + e
        read = (total % 2 == 0) & (total <= degree)
        assert np.array_equal(bits(moments[read]), bits(full[read]))
        assert not moments[~read].any()
        for lower in range(1, order):
            n = 2 * lower + 1
            corner = read[:n, :n, :n] & (total[:n, :n, :n] <= 2 * lower)
            table = phm._moments(nodes, weights, lower)
            assert np.array_equal(bits(table[corner]), bits(moments[:n, :n, :n][corner]))

    def test_moment_series_scratch_is_a_few_rows(self):
        # order SERIES_MAX_ORDER on 36k offsets: a few (P,) scratch arrays, not
        # a (3, 2M + 1, P) table of powers of y (51 P floats at M = 8)
        rng = np.random.default_rng(11)
        order = phm.SERIES_MAX_ORDER
        quad = xr.fibonacci_sphere(200)
        moments = phm._moments(quad.nodes, quad.weights, order)
        coeffs = rng.uniform(-1.0, 1.0, order + 1)
        y = rng.uniform(-1.0, 1.0, (3, 36_000))
        tracemalloc.start()
        try:
            phm._moment_series(y, coeffs, moments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * y.shape[1] * 8

    @pytest.mark.parametrize("h", [1e-2, 2e-2])
    def test_series_form_reaches_the_default_volume(self, monkeypatch, h):
        # two-gaussians' default 33^3 volume: its farthest voxel lies 5.83 from a
        # centre, t = 5.83 h <= 0.117, so every voxel takes the series form
        ph = two_gaussians()
        quad = xr.fibonacci_sphere(2000)
        points = cube_grid(3.0, 33).points()
        widths = looped_widths(monkeypatch)
        fused = phm.ray_differences(ph, points, h, quad.nodes, quad.weights)
        assert widths == []
        sample = points[::561]
        exact = gauss_legendre_sums(ph, sample, quad.nodes, quad.weights, h)
        assert np.all(np.abs(fused[::561] - exact) <= series_bound(ph, h) * np.sum(quad.weights))
        # a Gaussian of width a = h / (0.999 * 0.1286): its points within one
        # width have t = h/a just inside the reach, at the highest order, and
        # sums of the size of 2h|A| (at the volume's far voxels they vanish)
        prim = xr.Primitive(xr.GAUSSIAN, (0.2, -0.1, 0.3), h / (0.999 * series_reach()), -1.3)
        one = xr.Phantom((prim,), 6.0)
        near = prim.center + prim.scale * np.linspace(0.0, 1.0, 20)[:, None] * xr.fibonacci_sphere(20).nodes
        assert series_order(prim, near, h) == phm.SERIES_MAX_ORDER
        fused = phm.ray_differences(one, near, h, quad.nodes, quad.weights)
        assert widths == []
        exact = gauss_legendre_sums(one, near, quad.nodes, quad.weights, h)
        assert np.all(np.abs(fused - exact) <= series_bound(one, h) * np.sum(quad.weights))

    def test_oracle_within_a_twentieth_of_the_bound(self):
        # the case above at h = 0.01: a = h / (0.999 * reach) = 0.0778, t = 0.1285,
        # on Fibonacci 2000, at the centre and two points within one width.  Each
        # term and each node sum of the oracle against 40 digits of the closed form
        # -A e^(-d^2/a^2) a (sqrt(pi)/2) [erf((p + h)/a) - erf((p - h)/a)] on the same
        # float64 inputs: measured at most 0.014 of series_bound per term and per sum
        # (a float64 weights @ differences sum: 0.15 at the centre)
        mpmath = pytest.importorskip("mpmath")
        h = 1e-2
        prim = xr.Primitive(xr.GAUSSIAN, (0.2, -0.1, 0.3), h / (0.999 * series_reach()), -1.3)
        one = xr.Phantom((prim,), 6.0)
        assert abs(prim.scale - 0.0778) < 1e-4
        quad = xr.fibonacci_sphere(2000)
        points = prim.center + prim.scale * np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.5, 0.5, -0.2]])
        terms = gauss_legendre_differences(one, points, quad.nodes, h)
        sums = gauss_legendre_sums(one, points, quad.nodes, quad.weights, h)
        bound = series_bound(one, h)
        with mpmath.workdps(40):
            mp = np.vectorize(mpmath.mpf, otypes=[object])
            a, amp, step = mpmath.mpf(prim.scale), mpmath.mpf(prim.amplitude), mpmath.mpf(h)
            n = mp(quad.nodes)
            for j, x in enumerate(points):
                rel = mp(x) - mp(prim.center)
                p = n @ rel
                d2 = np.sum(np.cross(rel, n) ** 2, axis=1)
                erf_gap = np.array([mpmath.erf((q + step) / a) - mpmath.erf((q - step) / a) for q in p])
                exact = -amp * np.array([mpmath.exp(-v / (a * a)) for v in d2]) * a * mpmath.sqrt(mpmath.pi) / 2 * erf_gap
                assert max(abs(mpmath.mpf(t) - e) for t, e in zip(terms[:, j], exact)) <= 0.05 * bound
                total = mpmath.fsum(mpmath.mpf(w) * e for w, e in zip(quad.weights, exact))
                assert abs(mpmath.mpf(sums[j]) - total) <= 0.05 * bound * np.sum(quad.weights)

    def test_empty_batches(self, unit_gaussian):
        quad = xr.fibonacci_sphere(3)
        points = np.zeros((0, 3))
        assert ray_differences_per_node(unit_gaussian, points, quad.nodes, 1e-4).shape == (3, 0)
        assert phm.ray_differences(unit_gaussian, points, 1e-4, quad.nodes, quad.weights).shape == (0,)

    def test_rejects_mismatched_weights(self, unit_gaussian, monkeypatch):
        # the shapes are checked before the per-point set-up, which is never reached
        monkeypatch.setattr(phm, "_sum_squares", lambda columns: pytest.fail("per-point set-up ran"))
        quad = xr.fibonacci_sphere(5)
        for weights in (quad.weights[:4], np.append(quad.weights, 1.0), quad.weights[None]):
            with pytest.raises(ValueError, match="weights"):
                phm.ray_differences(unit_gaussian, np.zeros((4, 3)), 1e-4, quad.nodes, weights)
        with pytest.raises(ValueError, match="nodes"):
            phm.ray_differences(unit_gaussian, np.zeros((4, 3)), 1e-4, quad.nodes[:, :2], quad.weights)

    @pytest.mark.parametrize("shape", [(4, 2), (4,), (4, 3, 1)])
    def test_rejects_points_not_p_by_3(self, unit_gaussian, monkeypatch, shape):
        monkeypatch.setattr(phm, "_sum_squares", lambda columns: pytest.fail("per-point set-up ran"))
        quad = xr.fibonacci_sphere(5)
        with pytest.raises(ValueError, match=r"ray_differences takes \(P, 3\) points"):
            phm.ray_differences(unit_gaussian, np.zeros(shape), 1e-4, quad.nodes, quad.weights)

    @pytest.mark.parametrize("per_block", [60, 7, 1], ids=["one-block", "partial-last-block", "node-per-block"])
    @pytest.mark.parametrize("case", ["series", "erfc", "ball", "mixed"])
    def test_sphere_sum_folds_weights(self, monkeypatch, case, per_block):
        # ray_differences against sum_k w_k (two halfline_integral calls), with
        # unequal weights whose sum is not 1: equal ones would hide a weight
        # folded into the wrong term, or c_0 taken once per node or per call.
        # ROWS is set so that blocks of per_block nodes cover the 60 nodes.
        rng = np.random.default_rng(17)
        gaussian = xr.Primitive(xr.GAUSSIAN, (0.2, -0.1, 0.3), 0.7, -1.3)
        ball = xr.Primitive(xr.BALL, (-0.3, 0.4, 0.1), 0.9, 0.8)
        prims, h, reach = {
            # a step long enough that the series' p^2 terms exceed the bound
            "series": ((gaussian,), 5e-3, 1.5),
            "erfc": ((gaussian,), 1e-1, 1.5),  # a longer step takes the erfc form
            "ball": ((ball,), 1e-3, 1.5),
            "mixed": ((gaussian, ball), 5e-3, 1.5),
        }[case]
        ph = xr.Phantom(prims, 6.0)
        points = reach * xr.fibonacci_sphere(40).nodes * rng.uniform(0.0, 1.0, (40, 1))
        nodes = xr.fibonacci_sphere(60).nodes
        weights = rng.uniform(0.05, 1.0, 60)
        assert case == "ball" or np.all(series_taken(gaussian, points, h) == (case != "erfc"))
        ref = halfline_differences(ph, points, nodes, h)
        keep = well_conditioned(ph, points, nodes, h).all(axis=0)
        assert keep.sum() >= 30
        monkeypatch.setattr(xr.geometry, "ROWS", per_block * int(keep.sum()))
        fused = phm.ray_differences(ph, points[keep], h, nodes, weights)
        assert fused.shape == (keep.sum(),)
        bound = 1e-12 * integrand_scale(ph) * np.sum(weights)
        assert np.all(np.abs(fused - weights @ ref[:, keep]) <= bound)


class TestBallRayDifferences:
    """A ball's sum is exact away from its surface; only the points within h of it run over nodes."""

    @PROPERTY
    @example(  # h = R exactly: no interior
        centre=(0.2, -0.1, 0.3), radius=0.7, amplitude=-1.3, ratio=1.0, dirs=[np.array([0.6, 0.8, 0.0])],
        fractions=[0.5] * 6, nodes=[np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])], weights=[0.3, 0.9] * 3,
    )
    @given(
        centre=st.tuples(*(st.floats(-1.0, 1.0),) * 3),
        radius=st.floats(0.3, 1.2),
        amplitude=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
        ratio=st.floats(-4.0, 1.0).map(lambda e: 10.0**e),  # h / R from 1e-4 to 10
        dirs=st.lists(unit_vectors(), min_size=1, max_size=6),
        fractions=st.lists(st.floats(0.0, 0.99), min_size=6, max_size=6),
        nodes=st.lists(unit_vectors(), min_size=1, max_size=6),
        weights=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
    )
    def test_interior_and_exterior_are_exact(self, centre, radius, amplitude, ratio, dirs, fractions, nodes, weights):
        # points strictly inside B(c, R - h) or outside B(c, R + h), unequal weights
        ball = xr.Primitive(xr.BALL, centre, radius, amplitude)
        ph = xr.Phantom((ball,), phm.min_support_radius([ball]))
        h = ratio * radius
        dirs = np.array(dirs)
        f = np.array(fractions[: len(dirs)])
        nodes = np.array(nodes)
        weights = np.array(weights[: len(nodes)])
        outside = ball.center + ((radius + h) * (1.01 + 2.0 * f))[:, None] * dirs
        inside = ball.center + ((radius - h) * f)[:, None] * dirs if h < radius else np.zeros((0, 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phm, "halfline_integral", lambda *args: pytest.fail("a node loop ran"))
            got = xr.ray_differences(ph, np.vstack([inside, outside]), h, nodes, weights)
        exact = np.full(len(inside), -2.0 * h * amplitude * np.sum(weights))
        assert np.array_equal(bits(got[: len(inside)]), bits(exact))
        assert np.array_equal(bits(got[len(inside):]), bits(np.zeros(len(outside))))

    @PROPERTY
    @given(
        c=st.tuples(*(st.integers(-8, 8),) * 3),
        radius=st.integers(4, 16),
        level=st.integers(1, 20),
        axis=st.integers(0, 2),
        sign=st.sampled_from((-1.0, 1.0)),
        nodes=st.lists(unit_vectors(), min_size=1, max_size=4),
    )
    def test_shell_matches_halfline_differences(self, c, radius, level, axis, sign, nodes):
        # dyadic geometry, exact in floating point: points on an axis through the
        # centre at |x - c| = R -+ h/2 (the shell) and exactly R -+ h (its edges)
        a = radius / 16.0
        centre = np.array(c) / 8.0
        ball = xr.Phantom((xr.Primitive(xr.BALL, centre, a, 1.5),), 8.0)
        h = 2.0**-level  # 0.5 down to 9.5e-7, so h >= R too
        offsets = a + h * np.array([-1.0, -0.5, 0.5, 1.0])
        points = np.tile(centre, (4, 1))
        points[:, axis] += sign * offsets
        nodes = np.vstack([np.array(nodes), np.eye(3)])  # the axes: rays through the centre
        fused = ray_differences_per_node(ball, points, nodes, h)
        ref = halfline_differences(ball, points, nodes, h)
        keep = well_conditioned(ball, points, nodes, h)
        assert np.all(np.abs(fused - ref)[keep] <= 1e-12 * integrand_scale(ball))

    def test_only_shell_points_reach_halfline_integral(self, monkeypatch):
        # gaussian-ball's default 33^3 volume at h = 1e-4: the voxel (1.5, 0, 0)
        # lies on the ball's surface, every other one at least 0.04 from it
        ph = xr.Phantom(
            (xr.Primitive(xr.GAUSSIAN, (0.0, 0.0, 0.0), 1.0, 1.0), xr.Primitive(xr.BALL, (2.0, 0.0, 0.0), 0.5, 1.0)),
            6.0,
        )
        ball = ph.primitives[1]
        points = cube_grid(3.0, 33).points()
        quad = xr.fibonacci_sphere(2000)
        h = 1e-4
        shell = points[np.abs(np.linalg.norm(points - ball.center, axis=1) - ball.scale) < h]
        assert np.array_equal(shell, [[1.5, 0.0, 0.0]])
        reached = []
        halfline = phm.halfline_integral

        def recording(ph_, x, n):
            assert len(ph_.primitives) == 1 and ph_.primitives[0] is ball
            reached.append(np.array(x))
            return halfline(ph_, x, n)

        monkeypatch.setattr(phm, "halfline_integral", recording)
        phm.ray_differences(ph, points, h, quad.nodes, quad.weights)
        reached = np.concatenate(reached)
        assert len(reached) == 2 * quad.count
        assert np.all(np.abs(np.linalg.norm(reached - shell[0], axis=1) - h) <= 1e-15)


def bits(a):
    """The float64 bit patterns of a, so that equality tells -0.0 from +0.0."""
    return np.asarray(a, dtype=float).view(np.uint64)


# Finite coordinates whose products and sums of three products stay finite.
COORDS = st.floats(-1e150, 1e150, allow_nan=False)


def coordinate_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=COORDS)


def old_evaluate(ph, x):
    """evaluate as written with reductions over the coordinate axis."""
    out = np.zeros(x.shape[:-1])
    for prim in ph.primitives:
        rel = x - prim.center
        r2 = np.sum(rel * rel, axis=-1)
        if prim.kind == xr.GAUSSIAN:
            out = out + prim.amplitude * np.exp(-r2 / prim.scale**2)
        else:
            out = out + np.where(r2 <= prim.scale**2, prim.amplitude, 0.0)
    return out


def old_line_transforms(ph, x, n):
    """halfline_integral and line_integral as written with reductions over the coordinate axis."""
    shape = np.broadcast_shapes(x.shape, n.shape)[:-1]
    half, line = np.zeros(shape), np.zeros(shape)
    for prim in ph.primitives:
        rel = x - prim.center
        p = np.sum(rel * n, axis=-1)
        r2 = np.sum(rel * rel, axis=-1)
        d2 = np.maximum(r2 - p * p, 0.0)
        a = prim.scale
        if prim.kind == xr.GAUSSIAN:
            half = half + prim.amplitude * a * (SQRT_PI / 2.0) * np.exp(-d2 / a**2) * erfc(p / a)
            line = line + prim.amplitude * a * SQRT_PI * np.exp(-d2 / a**2)
        else:
            disc = a * a - d2
            root = np.sqrt(np.maximum(disc, 0.0))
            length = np.maximum(-p + root, 0.0) - np.maximum(-p - root, 0.0)
            half = half + prim.amplitude * np.where(disc > 0.0, length, 0.0)
            line = line + prim.amplitude * 2.0 * np.sqrt(np.maximum(disc, 0.0))
    return half, line


def old_ray_differences(ph, points, h, nodes, weights):
    """ray_differences' sphere sum with its set-up as written with reductions over
    the coordinate axis: (P, 3) offsets, r2 and n . c by np.sum, and the moment
    series on the transposed view of the offsets.  The primitives add their
    terms in phantom order.  Each Gaussian's points are routed one by one by
    that r2: _looped_sum where _series_fits fails at SERIES_MAX_ORDER, then the
    series form on the rest, at the order of their largest r2, with one table
    of moments at SERIES_MAX_ORDER (a lower order's table is its corner).
    Each ball's points are routed by that r2: -2hA sum w inside, nothing
    outside, two halfline_integral calls per node block (lift_xray_data) in the
    shell."""
    columns = np.ascontiguousarray(points.T)
    total = float(np.sum(weights))
    moments = phm._moments(nodes, weights, phm.SERIES_MAX_ORDER)
    out = np.zeros(len(points))
    for prim in ph.primitives:
        y = points - prim.center
        rr = np.sum(y**2, axis=1)
        if prim.kind == xr.BALL:
            R = prim.scale
            inside = (rr <= (R - h) ** 2) & (h < R)
            shell = (rr > (R - h) ** 2) | (h >= R)
            shell &= rr < (R + h) ** 2
            out[inside] += -2.0 * h * prim.amplitude * total
            if shell.any():
                one = xr.Phantom((prim,), ph.support_radius)
                lifted = xr.lift_xray_data(lambda x, n: xr.halfline_integral(one, x, n))
                out[shell] += lifted(points[shell], h, nodes, weights)
            continue
        near = phm._series_fits(prim, rr, h, phm.SERIES_MAX_ORDER)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phm, "_dot", lambda a, b: np.sum(a * b, axis=-1))
            out[~near] += phm._looped_sum(prim, rr[~near], columns[:, ~near], nodes, weights, h)
        if not near.any():
            continue
        coeffs = phm._gaussian_series(prim, np.max(rr[near]), h)
        acc = phm._moment_series(y[near].T, coeffs, moments)
        acc += coeffs[0] * total
        acc *= np.exp(-rr[near] / prim.scale**2)
        out[near] += acc
    return out


class TestColumnSums:
    """The sums over the coordinate axis, written column by column, against np.sum."""

    @PROPERTY
    @given(st.integers(0, 40).flatmap(lambda p: coordinate_arrays((p, 3))))
    def test_sum_squares(self, y):
        ref = np.sum(y * y, axis=-1)
        assert np.array_equal(bits(phm._sum_squares(np.moveaxis(y, -1, 0))), bits(ref))
        assert np.array_equal(bits(phm._sum_squares(np.ascontiguousarray(y.T))), bits(ref))

    @PROPERTY
    @given(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).flatmap(
            lambda pk: st.tuples(coordinate_arrays((pk[0], 1, 3)), coordinate_arrays((pk[1], 3)))
        )
    )
    def test_dot_point_by_node(self, operands):
        # forward's (P, 1, 3) points against (K, 3) nodes
        x, n = operands
        assert np.array_equal(bits(phm._dot(x, n)), bits(np.sum(x * n, axis=-1)))

    @PROPERTY
    @given(st.integers(0, 40).flatmap(lambda p: coordinate_arrays((p, 3))), coordinate_arrays((3,)))
    def test_dot_rows_by_vector(self, rows, v):
        # (N, 3) rows against one (3,) vector, as n . c over the nodes
        assert np.array_equal(bits(phm._dot(rows, v)), bits(np.sum(rows * v, axis=-1)))
        assert np.array_equal(bits(phm._dot(v, v)), bits(np.sum(v * v, axis=-1)))

    def test_dot_of_negative_zeros(self):
        # three -0.0 products: np.sum starts from +0.0 and gives +0.0
        a = np.array([[-0.0, 0.0, -0.0], [1.0, -1.0, 2.0]])
        b = np.array([1.0, -1.0, 1.0])
        assert np.array_equal(bits(phm._dot(a, b)), bits(np.sum(a * b, axis=-1)))

    def test_dot_takes_a_scalar(self):
        # the ray callable handed a float step: the product is formed before it is indexed
        rel = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(phm._dot(rel, 1e-4), np.sum(rel * 1e-4, axis=-1))

    @PROPERTY
    @given(
        ph=phantoms(),
        points=st.integers(1, 30).flatmap(lambda p: hnp.arrays(np.float64, (p, 3), elements=st.floats(-4.0, 4.0))),
        nodes=st.lists(unit_vectors(), min_size=1, max_size=6),
    )
    def test_transforms_equal_the_axis_sums(self, ph, points, nodes):
        nodes = np.array(nodes)
        assert np.array_equal(bits(xr.evaluate(ph, points)), bits(old_evaluate(ph, points)))
        for x, n in ((points[:, None, :], nodes), (points, nodes[:1]), (points[:len(nodes)], nodes[:len(points)])):
            half, line = old_line_transforms(ph, x, n)
            assert np.array_equal(bits(xr.halfline_integral(ph, x, n)), bits(half))
            assert np.array_equal(bits(xr.line_integral(ph, x, n)), bits(line))

    @PROPERTY
    @given(
        ph=phantoms(),
        points=st.integers(1, 30).flatmap(lambda p: hnp.arrays(np.float64, (p, 3), elements=st.floats(-4.0, 4.0))),
        nodes=st.lists(unit_vectors(), min_size=1, max_size=6),
        weights=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
        h=STEPS,
    )
    @example(  # phantom order: the first Gaussian's points straddle the series form's reach
        ph=xr.Phantom(
            (
                xr.Primitive(xr.GAUSSIAN, (1.0, 0.0, 0.0), 0.6, 1.0),
                xr.Primitive(xr.BALL, (-1.0, 0.5, 0.0), 0.7, 1.3),
                xr.Primitive(xr.GAUSSIAN, (-1.0, 0.0, 0.0), 1.0, -0.7),
            ),
            7.0,
        ),
        # near the first Gaussian; inside the ball; on its surface; far from all three
        points=np.array([[1.2, 0.1, 0.0], [-1.6, 0.5, 0.0], [-1.6, 0.3, 0.1], [-0.3, 0.5, 0.0], [3.0, -2.0, 1.0]]),
        nodes=[np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, -0.8])],
        weights=[0.3, 0.9, 0.55, 0.3, 0.9, 0.55],
        h=0.02,
    )
    def test_ray_differences_equal_the_axis_sums(self, ph, points, nodes, weights, h):
        # series-form Gaussians (small h), erfc-form ones (large h) and balls
        nodes = np.array(nodes)
        weights = np.array(weights[: len(nodes)])
        fused = xr.ray_differences(ph, points, h, nodes, weights)
        assert np.array_equal(bits(fused), bits(old_ray_differences(ph, points, h, nodes, weights)))


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

    @pytest.mark.parametrize("kind", [xr.GAUSSIAN, xr.BALL])
    def test_derivative_matches_difference_quotient(self, kind):
        # the closed form of d/ds Rf against the central difference of two
        # plane_integral calls (eps = 1e-5) on the Grangeat sweep; the ball's
        # slab edges, at n.c +- R = 0.54 +- 0.8, lie 0.04 from the nearest s
        ph = xr.Phantom(
            (
                xr.Primitive(kind, (0.3, -0.2, 0.45), 0.8, -1.3),
                xr.Primitive(xr.GAUSSIAN, (-0.5, 0.1, 0.0), 0.6, 0.7),
            ),
            6.0,
        )
        n = np.array([0.6, 0.0, 0.8])
        s = np.linspace(-2.0, 2.0, 41)
        eps = 1e-5
        quotient = (xr.plane_integral(ph, n, s + eps) - xr.plane_integral(ph, n, s - eps)) / (2.0 * eps)
        exact = xr.plane_integral_derivative(ph, n, s)
        assert exact.shape == s.shape
        assert np.max(np.abs(exact - quotient)) <= 1e-9 * np.max(np.abs(exact))

    def test_derivative_scalar_and_symmetry(self):
        # Rf(-n, -s) = Rf(n, s), so d/ds Rf is odd under (n, s) -> (-n, -s)
        ph = xr.Phantom(
            (xr.Primitive(xr.GAUSSIAN, (0.3, -0.2, 0.45), 0.8, -1.3), xr.Primitive(xr.BALL, (-1.0, 0.5, 0.0), 0.7, 2.0)),
            6.0,
        )
        n = np.array([0.0, 0.6, -0.8])
        s = np.array([-1.7, -0.4, 0.0, 0.9, 2.5])
        d = xr.plane_integral_derivative(ph, n, s)
        assert np.allclose(xr.plane_integral_derivative(ph, -n, -s), -d, rtol=0.0, atol=1e-15)
        assert isinstance(xr.plane_integral_derivative(ph, n, 0.9), float)
        assert xr.plane_integral_derivative(ph, n, 0.9) == d[3]
        # 0 where every primitive is flat: far outside the Gaussian's reach and the ball's slab
        assert abs(xr.plane_integral_derivative(ph, n, 40.0)) == 0.0

    def test_rows_equal_per_node_calls(self):
        # n.c for all rows at once is the per-row dot of a one-normal call, and a
        # row's bits do not depend on its block of ROWS // S rows: 399 at S = 41
        # (5 whole and a short 5), 20 at S = 801 (one row, one whole block, and
        # 20, 20, 5) and 15 at S = 1025 (15, 15, 10)
        phantoms = [
            (xr.Primitive(xr.GAUSSIAN, (0.3, -0.2, 0.45), 0.8, -1.3), xr.Primitive(xr.BALL, (-1.0, 0.5, 0.7), 0.9, 2.0)),
            (xr.Primitive(xr.BALL, (0.2, 0.1, -0.3), 0.7, -1.1), xr.Primitive(xr.GAUSSIAN, (-0.5, 0.0, 0.2), 0.4, 0.9)),
            (xr.Primitive(xr.BALL, (0.2, 0.1, -0.3), 0.7, -1.1),),
            (),
        ]
        for primitives in phantoms:
            ph = xr.Phantom(primitives, 8.0)
            for count, samples in [(2000, 41), (1, 801), (20, 801), (45, 801), (40, 1025), (3, 8)]:
                nodes = xr.fibonacci_sphere(max(count, 2)).nodes[:count]
                s = np.linspace(-4.0, 4.0, samples)
                per_node = np.array([xr.plane_integral(ph, n, s) for n in nodes])
                rows = phm.plane_integral_rows(ph, nodes, s)
                assert rows.tobytes() == per_node.tobytes(), (len(primitives), count, samples)
                # every sum starts at +0.0, so a negative amplitude's zero terms leave no -0.0
                assert not np.any(np.signbit(rows[rows == 0.0]))

    def test_rows_scratch_is_one_block(self):
        # one scratch block of ROWS // S rows, not a second (K, S) array
        ph = xr.Phantom(
            (xr.Primitive(xr.GAUSSIAN, (0.3, -0.2, 0.45), 0.8, 1.3), xr.Primitive(xr.GAUSSIAN, (-0.4, 0.1, 0.2), 0.6, 0.9)),
            7.0,
        )
        nodes = xr.fibonacci_sphere(300).nodes
        s = np.linspace(-8.0, 8.0, 1025)
        tracemalloc.start()
        try:
            rows = phm.plane_integral_rows(ph, nodes, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 512 * 1024

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
    @example(  # a subnormal amplitude: the plane rows differ by 5e-324 in its last bit
        ph=xr.gaussian_phantom(amplitude=-0.5),
        coeffs=[2.225073858507e-311, 1.0],
        points=[(0.0, 0.0, 0.0)],
        nodes=[np.array([0.0, 0.0, 1.0])],
        h=1e-3,
    )
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
        # the relative bound underflows to 0.0 at a subnormal amplitude, whose
        # products still round in their last bit: a few of those are allowed
        floor = 4.0 * np.finfo(float).smallest_subnormal
        for transform, bound in transforms:
            expected = sum(c * transform(q) for q, c in zip(alone, coeffs))
            assert np.max(np.abs(transform(scaled) - expected)) <= 1e-14 * bound * weight + floor


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

    def test_negative_support_radius_rejected(self):
        with pytest.raises(ValueError, match="support radius must be >= 0"):
            xr.Phantom((), -4.0)
        with pytest.raises(ValueError, match="support radius must be >= 0"):
            phm.parse_phantom("support_radius -4\n")
        # an empty phantom file gives radius 0, which stays valid
        assert phm.parse_phantom("").support_radius == 0.0

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


def riesz_by_shells(prim, r):
    """I^1 of one radial primitive at distance r from its centre, by adaptive quadrature
    over the spherical shells of radius rho: the mean of 1 / |x - y|^2 over a shell is
    ln|(r + rho) / (r - rho)| / (2 r rho), so I^1 f(r) = (1 / (pi r)) int f(rho) rho
    ln|(r + rho) / (r - rho)| drho, and (2 / pi) int f(rho) drho at r = 0.  The
    logarithmic singularity at rho = r is an end point of the pieces; the logarithm is
    log1p(2 min(r, rho) / |r - rho|), accurate where rho is far from r."""
    from scipy.integrate import quad

    ph = xr.Phantom((replace(prim, center=(0.0, 0.0, 0.0)),), 6.0 * prim.scale)

    def density(rho):
        return phm.evaluate(ph, (rho, 0.0, 0.0))

    end = prim.scale if prim.kind == xr.BALL else 12.0 * prim.scale
    if r == 0.0:
        return 2.0 / np.pi * quad(density, 0.0, end, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    cuts = sorted({0.0, min(r, end), end})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += quad(
            lambda rho: density(rho) * rho * np.log1p(2.0 * min(r, rho) / abs(r - rho)),
            lo, hi, epsabs=0.0, epsrel=1e-13, limit=200,
        )[0]
    return total / (np.pi * r)


class TestRieszPotential:
    """phantom.riesz_potential, the radon branch's target over -16 pi^3, against quadrature."""

    PRIMITIVES = [
        xr.Primitive(xr.GAUSSIAN, (0.3, -0.2, 0.5), 0.8, 1.3),
        xr.Primitive(xr.BALL, (0.3, -0.2, 0.5), 0.7, 1.3),
    ]

    @pytest.mark.parametrize("prim", PRIMITIVES, ids=["gaussian", "ball"])
    @pytest.mark.parametrize("r", [0.0, 1e-3, 0.05, 0.3, 0.69, 0.7, 1.0, 2.5, 6.0])
    def test_matches_shell_quadrature(self, prim, r):
        ph = xr.Phantom((prim,), 8.0)
        x = prim.center + r * np.array([0.6, 0.0, 0.8])
        got = phm.riesz_potential(ph, x)
        expected = riesz_by_shells(prim, r)
        assert isinstance(got, float)
        # measured at most 8.1e-15
        assert abs(got - expected) <= 1e-13 * abs(expected), (got, expected)

    def test_limits(self):
        gauss, ball = (xr.Phantom((p,), 8.0) for p in self.PRIMITIVES)
        c = self.PRIMITIVES[0].center
        assert phm.riesz_potential(gauss, c) == 1.3 * 0.8 / np.sqrt(np.pi)
        assert phm.riesz_potential(ball, c) == 2.0 * 1.3 * 0.7 / np.pi
        on_surface = phm.riesz_potential(ball, c + [0.7, 0.0, 0.0])
        assert on_surface == 1.3 * 0.7 / np.pi
        # continuous across r = 0 and r = R
        assert abs(phm.riesz_potential(ball, c + [1e-7, 0.0, 0.0]) / (2.0 * 1.3 * 0.7 / np.pi) - 1.0) <= 1e-12
        for eps in (-1e-9, 1e-9):
            assert abs(phm.riesz_potential(ball, c + [0.7 + eps, 0.0, 0.0]) / on_surface - 1.0) <= 1e-7

    def test_sums_primitives_over_any_batch_shape(self):
        ph = xr.Phantom(tuple(self.PRIMITIVES), 8.0)
        x = np.random.default_rng(4).uniform(-2.0, 2.0, size=(3, 5, 3))
        got = phm.riesz_potential(ph, x)
        assert got.shape == (3, 5)
        parts = [phm.riesz_potential(xr.Phantom((p,), 8.0), x) for p in self.PRIMITIVES]
        assert np.array_equal(got, (0.0 + parts[0]) + parts[1])
        assert np.array_equal(phm.riesz_potential(xr.Phantom((), 1.0), x), np.zeros((3, 5)))


def sphere_rule(m):
    """Gauss-Legendre in cos(theta) with m nodes times a 2m-point trapezoid rule in phi:
    (2 m^2, 3) unit nodes and weights summing to 1, exact for spherical harmonics of
    degree below 2m."""
    z, wz = np.polynomial.legendre.leggauss(m)
    phi = (np.arange(2 * m) + 0.5) * np.pi / m
    r = np.sqrt(1.0 - z * z)[:, None]
    nodes = np.stack(np.broadcast_arrays(r * np.cos(phi), r * np.sin(phi), z[:, None]), axis=-1)
    return nodes.reshape(-1, 3), np.repeat(wz / (4.0 * m), 2 * m)


class TestSphereMean:
    """phantom.gaussian_sphere_mean (M_t f) and phantom.xray_step_target (T_h f)."""

    PRIMITIVES = (
        xr.Primitive(xr.GAUSSIAN, (0.3, -0.2, 0.5), 0.8, 1.3),
        xr.Primitive(xr.GAUSSIAN, (-0.6, 0.4, 0.0), 0.5, -0.7),
    )

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.2, 0.9, 2.0])
    @pytest.mark.parametrize("r", [0.0, 1e-3, 0.4, 1.5])
    def test_matches_direct_sphere_quadrature(self, r, t):
        # the mean of evaluate over the sphere of radius t about x on a product rule
        # of 3,200 nodes, exact to degree 79: e^(-|x + t n - c|^2/a^2) is
        # e^(2 t n . (c - x)/a^2) times a constant, whose Taylor terms past that
        # degree are far below rounding at 2 t |x - c| / a^2 <= 14
        ph = xr.Phantom(self.PRIMITIVES, 8.0)
        x = self.PRIMITIVES[0].center + r * np.array([0.6, 0.0, 0.8])
        nodes, weights = sphere_rule(40)
        expected = weights @ xr.evaluate(ph, x + t * nodes)
        got = phm.gaussian_sphere_mean(ph, x, t)
        assert isinstance(got, float)
        # measured at most 1.3e-15
        assert abs(got - expected) <= 1e-14 * np.max(np.abs(xr.evaluate(ph, x + t * nodes)))

    def test_limits_and_shapes(self):
        ph = xr.Phantom(self.PRIMITIVES, 8.0)
        x = np.random.default_rng(6).uniform(-2.0, 2.0, size=(3, 5, 3))
        # t = 0 is the density itself, up to the rounding of r = sqrt(r^2), in units of
        # sum |A| = 2: measured 1.1e-16
        assert np.max(np.abs(phm.gaussian_sphere_mean(ph, x, 0.0) - xr.evaluate(ph, x))) <= 2e-15
        t = np.linspace(0.0, 1.0, 5)
        assert phm.gaussian_sphere_mean(ph, x, t).shape == (3, 5)
        assert phm.xray_step_target(ph, x, 0.1).shape == (3, 5)
        assert isinstance(phm.xray_step_target(ph, x[0, 0], 0.1), float)
        assert np.array_equal(phm.gaussian_sphere_mean(xr.Phantom((), 1.0), x, 0.5), np.zeros((3, 5)))
        # a sphere of radius 299 about a point 300 from the centre passes near it:
        # u = 2 r t / a^2 is about 2.8e5, where sinh(u) would overflow, and the mean is
        # A a^2 / (4 r t) e^(-(r - t)^2/a^2), its second exponential below the smallest double
        prim = self.PRIMITIVES[0]
        x, t = np.array([300.0, 0.0, 0.0]), 299.0
        r = np.linalg.norm(x - prim.center)
        expected = 1.3 * 0.64 / (4.0 * r * t) * np.exp(-((r - t) ** 2) / 0.64)
        got = phm.gaussian_sphere_mean(xr.Phantom((prim,), 8.0), x, t)
        assert abs(got - expected) <= 1e-13 * expected

    def test_step_target_is_the_mean_over_the_step(self):
        # T_h f = (1/h) int_0^h M_t f dt, here against a 2,000-point midpoint rule in t,
        # and T_h f - f = (h^2 / 18) Laplacian f + O(h^4); at the centre of a lone
        # Gaussian Laplacian f = -6 A / a^2
        ph = xr.Phantom(self.PRIMITIVES, 8.0)
        x = np.array([[0.1, 0.2, 0.3], [-1.0, 0.5, 0.2]])
        h = 0.3
        t = (np.arange(2000) + 0.5) * h / 2000
        midpoint = np.mean(phm.gaussian_sphere_mean(ph, x[:, None, :], t), axis=1)
        # measured 2.0e-9, the midpoint rule's own error
        assert np.max(np.abs(phm.xray_step_target(ph, x, h) - midpoint)) <= 1e-8
        lone = xr.Phantom(self.PRIMITIVES[:1], 8.0)
        centre = self.PRIMITIVES[0].center
        # measured 1.9e-4 and 4.7e-5 off, the O(h^2) relative term
        for h in (0.02, 0.01):
            excess = phm.xray_step_target(lone, centre, h) - 1.3
            assert abs(excess / (h * h / 18.0 * -6.0 * 1.3 / 0.64) - 1.0) <= 2e-3

    def test_rejects_a_ball_and_a_bad_step(self):
        ball = xr.Phantom((xr.Primitive(xr.BALL, (0.0, 0.0, 0.0), 1.0, 1.0),), 6.0)
        with pytest.raises(ValueError, match="ball"):
            phm.gaussian_sphere_mean(ball, [0.0, 0.0, 0.0], 0.5)
        with pytest.raises(ValueError, match="ball"):
            phm.xray_step_target(ball, [0.0, 0.0, 0.0], 0.1)
        ph = xr.Phantom(self.PRIMITIVES, 8.0)
        for h in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="h must be"):
                phm.xray_step_target(ph, [0.0, 0.0, 0.0], h)
