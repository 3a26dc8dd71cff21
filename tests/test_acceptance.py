"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

import xradon as xr
from xradon import inversion as inv
from xradon.cli import main as cli_main
from xradon.hilbert import HILBERT, convolve_rows, sample_rows
from conftest import S_GRID, calibrate, cube_grid, hilbert_pv_direct, plane_march_density, ray_march_density


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_forward_oracle_exactness(unit_gaussian):
    start = time.time()
    errs = []
    rng = np.random.default_rng(101)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        errs.append(abs(ray_march_density(unit_gaussian, x, n) - xr.halfline_integral(unit_gaussian, x, n)))
        full = ray_march_density(unit_gaussian, x, n) + ray_march_density(unit_gaussian, x, -n)
        errs.append(abs(full - xr.line_integral(unit_gaussian, x, n)))
    for s in (-1.0, 0.0, 0.7):
        n = np.array([0.0, 0.6, 0.8])
        errs.append(abs(plane_march_density(unit_gaussian, n, s) - xr.plane_integral(unit_gaussian, n, s)))
    elapsed = time.time() - start
    ok = max(errs) < 1e-4 and elapsed < 10.0
    report(1, ok, f"max forward-oracle error {max(errs):.2e} (tol 1e-4), {elapsed:.1f}s")


def test_criterion_2_transport_identity(unit_gaussian):
    start = time.time()
    rng = np.random.default_rng(102)
    points = rng.uniform(-1.5, 1.5, size=(100, 3))
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    h = 1e-4
    worst = 0.0
    for x in points:
        fwd = xr.halfline_integral(unit_gaussian, x[None, :] + h * dirs, dirs)
        bwd = xr.halfline_integral(unit_gaussian, x[None, :] - h * dirs, dirs)
        resid = (fwd - bwd) / (2 * h) + xr.evaluate(unit_gaussian, x)
        worst = max(worst, float(np.max(np.abs(resid))))
    elapsed = time.time() - start
    ok = worst < 1e-5 and elapsed < 5.0
    report(2, ok, f"max |n.grad X + density| = {worst:.2e} (tol 1e-5), {elapsed:.1f}s")


def test_criterion_3_xray_branch_reconstruction(unit_gaussian, quad2000):
    start = time.time()
    grid = cube_grid(3.0, 33)
    cfg = inv.ReconstructionConfig(quad2000, diff_step=1e-4)
    data = inv.phantom_data(unit_gaussian, cfg, S_GRID)
    vol = grid.with_samples(inv.XRAY_BRANCH_CONSTANT * inv.reconstruct(data, cfg, grid.points()))
    truth = xr.evaluate(unit_gaussian, grid.points())
    rel_l2 = float(np.linalg.norm(vol.samples - truth) / np.linalg.norm(truth))
    elapsed = time.time() - start
    ok = rel_l2 <= 1e-2 and elapsed < 120.0
    report(3, ok, f"x-ray branch rel L2 {rel_l2:.2e} (tol 1e-2), {elapsed:.1f}s")


def test_criterion_4_constant_adjudication(unit_gaussian, quad2000):
    start = time.time()
    cfg = inv.ReconstructionConfig(quad2000)
    cal = calibrate(unit_gaussian, cfg, inv.phantom_data(unit_gaussian, cfg, S_GRID))
    derived = inv.XRAY_BRANCH_CONSTANT
    rel_dev = abs(cal.scale / derived - 1.0)
    gap = cal.scale / inv.SPHERICAL_REFERENCE_CONSTANT
    elapsed = time.time() - start
    ok = rel_dev < 1e-3 and elapsed < 60.0
    report(
        4,
        ok,
        f"fitted scale {cal.scale:.8f} vs derived -1/(4 pi) (rel dev {rel_dev:.2e}); "
        f"ratio to the stated 1/(2 pi^3) constant: {gap:.4f}; {elapsed:.1f}s",
    )


def test_criterion_5_grangeat_conversion(unit_gaussian):
    start = time.time()
    data = functools.partial(xr.halfline_integral, unit_gaussian)
    n = np.array([1.0, 0.0, 0.0])
    sweep = np.linspace(-2.0, 2.0, 41)
    exact = 2.0 * np.pi * sweep * np.exp(-(sweep**2))  # -(Rf)'(s)

    def sweep_error(band):
        vals = inv.grangeat_convert(data, sweep[:, None] * n, n, band)
        return float(np.max(np.abs(vals - exact)))

    coarse = sweep_error(0.05)
    fine = sweep_error(0.025)
    elapsed = time.time() - start
    ok = coarse <= 5e-2 and fine < coarse and elapsed < 120.0
    report(
        5,
        ok,
        f"Grangeat sweep max error {coarse:.2e} at band 0.05 (tol 5e-2), "
        f"{fine:.2e} after refinement to band 0.025; {elapsed:.1f}s",
    )


def test_criterion_6_hilbert_module():
    start = time.time()
    s = np.linspace(-40.0, 40.0, 4097)
    h = 80.0 / 4096
    lorentz = 1.0 / (1.0 + s**2)
    at_one = np.array([[1.0]])
    err_spec = abs(sample_rows(convolve_rows(lorentz, HILBERT, 1.0)[None], -40.0, 40.0, at_one)[0, 0] - 0.5)
    # the direct route gives the interior grid, -40 + h .. 40 - h
    direct = hilbert_pv_direct(lorentz, -40.0, 40.0)
    err_direct = abs(sample_rows(direct[None], -40.0 + h, 40.0 - h, at_one)[0, 0] - 0.5)

    gauss = np.exp(-(s**2))
    agreement = float(
        np.max(np.abs(hilbert_pv_direct(gauss, -40.0, 40.0) - convolve_rows(gauss, HILBERT, 1.0)[1:-1]))
    )

    extent = 40000.0
    nw = int(round(2 * extent / 0.25)) + 1
    wide = np.exp(-(np.linspace(-extent, extent, nw) ** 2))
    involution = float(np.max(np.abs(convolve_rows(convolve_rows(wide, HILBERT, 1.0), HILBERT, 1.0) + wide)))
    elapsed = time.time() - start
    ok = (
        err_spec < 1e-4
        and err_direct < 1e-3
        and involution < 1e-4
        and agreement < 1e-3
        and elapsed < 5.0
    )
    report(
        6,
        ok,
        f"Lorentzian pair: spectral {err_spec:.2e} (tol 1e-4), direct {err_direct:.2e} "
        f"(tol 1e-3); H∘H+I {involution:.2e} (tol 1e-4); spectral/direct agreement "
        f"{agreement:.2e} (tol 1e-3); {elapsed:.1f}s",
    )


def test_criterion_7_classical_radon_oracle(unit_gaussian, quad2000, gauss_dataset):
    start = time.time()
    grid = cube_grid(3.0, 33)
    cfg = inv.ReconstructionConfig(quad2000, branch=inv.BRANCH_CLASSICAL)
    vol = grid.with_samples(inv.reconstruct(gauss_dataset, cfg, grid.points()))
    truth = xr.evaluate(unit_gaussian, grid.points())
    rel_l2 = float(np.linalg.norm(vol.samples - truth) / np.linalg.norm(truth))
    elapsed = time.time() - start
    ok = rel_l2 <= 1e-2 and elapsed < 120.0
    report(7, ok, f"classical Radon rel L2 {rel_l2:.2e} (tol 1e-2), {elapsed:.1f}s")


def test_criterion_8_equivalence_diagnostic(unit_gaussian, quad2000):
    start = time.time()
    rep0 = inv.lemma9_diagnostic(unit_gaussian, np.zeros((1, 3)), quad2000, S_GRID)
    left_err = abs(rep0.left[0] - 4.0 * np.pi * np.sqrt(np.pi))
    rng = np.random.default_rng(108)
    pts = inv.sample_ball_points(rng, 20, 1.5)
    ratios = list(inv.lemma9_diagnostic(unit_gaussian, pts, quad2000, S_GRID).ratio)
    elapsed = time.time() - start
    finite = [r for r in ratios if np.isfinite(r)]
    ok = left_err < 1e-3 and len(ratios) >= 20
    report(
        8,
        ok,
        f"left side at origin {rep0.left[0]:.6f} (analytic 4 pi sqrt(pi), err {left_err:.2e}); "
        f"measured left/right ratio over 20 points: median {np.median(finite):.3g} "
        f"(reported, not asserted); {elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    ph_path = tmp_path / "ph.txt"
    assert cli_main(["phantom-gen", "--out", str(ph_path), "--preset", "unit-gaussian"]) == 0
    args = [
        "invert", "--phantom", str(ph_path), "--branch", "xray",
        "--nodes", "200", "--vol-dims", "9",
    ]
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert cli_main(args + ["--outdir", str(d)]) == 0
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in sorted(os.listdir(dirs[0]))
    )
    elapsed = time.time() - start
    report(9, identical, f"repeated cmd_invert outputs byte-identical; {elapsed:.1f}s")
