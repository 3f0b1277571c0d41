"""Acceptance gate: nine end-to-end criteria.

Each test prints one "criterion N (label): PASS/FAIL [detail]" line and
enforces the stated tolerance and runtime budget.  Run with -v to get one
PASSED/FAILED line per criterion; the printed detail line appears in the
captured output (or with -s).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from sizebias.cli import main
from sizebias.combinatorics import PoolSpec, count_distribution, most_likely_black_count
from sizebias.io import bundled_summary_path, read_summary
from sizebias.model import h_index
from sizebias.nullmodel import replicate_stream, reshuffled_dataset, run_null_model
from sizebias.scaling import build_benchmark, fit_power_law, normalized_scores
from sizebias.synth import SizeModel, build_synthetic_dataset, generation_stream, sample_sizes


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def exact_hypergeom(black: int, white: int, draw: int, k1: int) -> Fraction:
    if k1 < 0 or k1 > draw or k1 > black or draw - k1 > white:
        return Fraction(0)
    return Fraction(math.comb(black, k1) * math.comb(white, draw - k1), math.comb(black + white, draw))


def naive_h(citations) -> int:
    ranked = sorted((int(c) for c in citations), reverse=True)
    h = 0
    for i, c in enumerate(ranked, start=1):
        if c >= i:
            h = i
    return h


def ols_oracle(points):
    x = np.log10(np.array([p[0] for p in points], dtype=np.float64))
    y = np.log10(np.array([p[1] for p in points], dtype=np.float64))
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    beta = sxy / sxx
    intercept = ym - beta * xm
    resid = y - (intercept + beta * x)
    sse = float((resid**2).sum())
    sst = float(((y - ym) ** 2).sum())
    dof = n - 2
    stderr = math.sqrt(sse / dof / sxx)
    t_stat = beta / stderr
    p_value = 2.0 * float(scipy.stats.t.sf(abs(t_stat), dof))
    r_squared = 1.0 - sse / sst
    return beta, stderr, p_value, r_squared, intercept


def table2_sizes() -> list[int]:
    return [r.n_publications for r in read_summary(bundled_summary_path("ukraine_2019"))]


def test_criterion_1_exact_hypergeometric_distribution():
    budget = 1.0
    t0 = time.perf_counter()
    worst = 0.0
    for total in range(1, 13):
        for black in range(0, total + 1):
            spec = PoolSpec(black=black, white=total - black)
            for draw in range(1, total + 1):
                dist = count_distribution(spec, draw)
                assert len(dist) == draw + 1
                total_prob = 0.0
                for k1, prob in dist:
                    exact = float(exact_hypergeom(black, total - black, draw, k1))
                    worst = max(worst, abs(prob - exact))
                    total_prob += prob
                assert abs(total_prob - 1.0) <= 1e-12

    big = PoolSpec(black=2120, white=1880)
    mode = most_likely_black_count(big, 100)
    big_dist = count_distribution(big, 100)
    big_sum = sum(p for _, p in big_dist)
    spot = float(exact_hypergeom(2120, 1880, 100, 53))
    spot_err = abs(big_dist[53][1] - spot) / spot
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and mode == 53 and abs(big_sum - 1.0) <= 1e-12 and spot_err <= 1e-12 and elapsed < budget
    report(
        1,
        "exact hypergeometric distribution",
        ok,
        f"max |pmf-exact|={worst:.2e} (tol 1e-12), mode(4000,2120,100)={mode} (expect 53), "
        f"sum={big_sum:.15f} (tol 1e-12), spot rel err={spot_err:.2e}, {elapsed:.2f}s < {budget:.0f}s",
    )


def test_criterion_2_h_index_matches_sorting_oracle():
    budget = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    mismatches = 0
    for _ in range(1000):
        size = int(rng.integers(1, 501))
        cites = rng.integers(0, 10_001, size=size)
        if h_index(cites) != naive_h(cites):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < budget
    report(
        2,
        "group h-index vs sorting oracle",
        ok,
        f"{mismatches}/1000 mismatches (sizes<=500, citations<=1e4), {elapsed:.2f}s < {budget:.0f}s",
    )


def test_criterion_3_power_law_fit_recovery():
    budget = 1.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)

    worst_exact = 0.0
    for _ in range(20):
        beta = float(rng.uniform(0.1, 0.9))
        log10_a = float(rng.uniform(-0.5, 1.0))
        n_values = np.geomspace(10, 1e5, 12)
        points = [(float(n), float(10**log10_a * n**beta)) for n in n_values]
        fit = fit_power_law(*zip(*points))
        worst_exact = max(worst_exact, abs(fit.beta - beta), abs(fit.log10_prefactor - log10_a))

    worst_noisy = 0.0
    for _ in range(100):
        beta = float(rng.uniform(0.1, 0.9))
        log10_a = float(rng.uniform(-0.5, 1.0))
        n_points = int(rng.integers(8, 21))
        n_values = np.geomspace(10, 1e5, n_points)
        noise = rng.normal(0.0, 0.05, size=n_points)
        points = [
            (float(n), float(10 ** (log10_a + beta * math.log10(n) + e)))
            for n, e in zip(n_values, noise)
        ]
        fit = fit_power_law(*zip(*points))
        ob, ose, op, or2, oa = ols_oracle(points)
        worst_noisy = max(
            worst_noisy,
            abs(fit.beta - ob),
            abs(fit.beta_stderr - ose),
            abs(fit.p_value - op),
            abs(fit.r_squared - or2),
            abs(fit.log10_prefactor - oa),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-6 and worst_noisy <= 1e-10 and elapsed < budget
    report(
        3,
        "power-law fit recovery",
        ok,
        f"exact max err={worst_exact:.2e} (tol 1e-6), noisy-vs-oracle max err={worst_noisy:.2e} "
        f"(tol 1e-10, 100 datasets), {elapsed:.2f}s < {budget:.0f}s",
    )


def test_criterion_4_bundled_table_scaling_slopes():
    budget = 1.0
    t0 = time.perf_counter()
    fits = {}
    for name in ("ukraine_2019", "uk_rae2008_physics"):
        rows = read_summary(bundled_summary_path(name))
        kept = [r for r in rows if r.h_index > 0]
        fits[name] = fit_power_law([r.n_publications for r in kept], [r.h_index for r in kept])
    ua, uk = fits["ukraine_2019"], fits["uk_rae2008_physics"]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(ua.beta - 0.338) <= 0.05
        and abs(uk.beta - 0.46) <= 0.05
        and ua.p_value < 0.01
        and uk.p_value < 0.01
        and elapsed < budget
    )
    report(
        4,
        "bundled-table scaling slopes",
        ok,
        f"beta(ukraine_2019)={ua.beta:.4f} (expect 0.338+-0.05, p={ua.p_value:.2e}), "
        f"beta(uk_rae2008_physics)={uk.beta:.4f} (expect 0.46+-0.05, p={uk.p_value:.2e}), "
        f"both significant at 0.01, {elapsed:.2f}s < {budget:.0f}s",
    )


def test_criterion_5_null_model_slope_on_paretian_synthetic():
    budget = 120.0
    t0 = time.perf_counter()
    rng = generation_stream(1)
    sizes = sample_sizes(SizeModel(100, 10000), 40, rng)
    dataset = build_synthetic_dataset(sizes, 1.5, rng)
    result = run_null_model(dataset, 1, 200)
    benchmark = build_benchmark(result)
    beta = benchmark.fit.beta
    elapsed = time.perf_counter() - t0
    ok = abs(beta - 0.4) <= 0.05 and elapsed < budget
    report(
        5,
        "null-model slope on Paretian synthetic",
        ok,
        f"pooled beta={beta:.4f} (expect 0.4+-0.05; alpha=1.5, 40 units, sizes 1e2..1e4, "
        f"200 replicates), {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_6_conservation_and_worker_determinism(tmp_path, monkeypatch):
    budget = 60.0
    t0 = time.perf_counter()

    rng = generation_stream(6)
    dataset = build_synthetic_dataset(table2_sizes(), 1.5, rng)
    pool_counts = dataset.citations
    pool_sorted = np.sort(pool_counts)
    checksum = int(pool_counts.sum())
    prods = dataset.sizes

    conserved = 0
    for r in range(200):
        shuffled = reshuffled_dataset(dataset, replicate_stream(60, r)).citations
        blocks = np.split(shuffled, np.cumsum(prods)[:-1])
        merged = np.concatenate(blocks)
        if merged.size == pool_counts.size and int(merged.sum()) == checksum:
            conserved += 1
        if r in (0, 99, 199):
            assert np.array_equal(np.sort(merged), pool_sorted)

    pubs_dir = tmp_path / "pubs"
    assert main(
        ["synth", "--alpha", "1.5", "--seed", "6", "--sizes-from-summary", "bundled:ukraine_2019",
         "--out-dir", str(pubs_dir)]
    ) == 0
    pubs = pubs_dir / "publications.csv"

    blobs = []
    manifests = []
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("SIZEBIAS_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert main(
            ["null-model", str(pubs), "--seed", "42", "--replicates", "200", "--out-dir", str(out)]
        ) == 0
        blobs.append(
            (out / "reshuffle_samples.csv").read_bytes() + (out / "reshuffle_summary.json").read_bytes()
        )
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest.pop("created_utc")
        manifest.pop("argv")
        manifests.append(manifest)
    identical = blobs[0] == blobs[1] == blobs[2] and manifests[0] == manifests[1] == manifests[2]

    elapsed = time.perf_counter() - t0
    ok = conserved == 200 and identical and elapsed < budget
    report(
        6,
        "pool conservation and worker-count determinism",
        ok,
        f"{conserved}/200 replicates conserve the pool (count+checksum, multiset spot-checked), "
        f"reports byte-identical under 1/2/8 threads={identical}, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_7_null_ranking_tracks_size_on_real_sizes():
    budget = 120.0
    t0 = time.perf_counter()
    rng = generation_stream(11)
    dataset = build_synthetic_dataset(table2_sizes(), 1.5, rng)
    result = run_null_model(dataset, 11, 200)
    rho = result.mean_spearman_vs_real
    elapsed = time.perf_counter() - t0
    ok = rho > 0.6 and elapsed < budget
    report(
        7,
        "reshuffled rankings track the real size-driven ranking",
        ok,
        f"mean Spearman={rho:.4f} (require > 0.6; real size column, alpha=1.5, 200 replicates), "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_8_normalized_scores_calibrated_on_null_data():
    budget = 120.0
    t0 = time.perf_counter()
    sizes = table2_sizes()
    z_all: list[float] = []
    logres_all: list[float] = []
    z_by_unit = np.zeros((8, len(sizes)))
    for i, master_seed in enumerate(range(21, 29)):
        rng = generation_stream(master_seed)
        base = build_synthetic_dataset(sizes, 1.5, rng)
        null_draw = reshuffled_dataset(base, replicate_stream(master_seed, 2**32 - 2))
        result = run_null_model(null_draw, master_seed + 1000, 200)
        benchmark = build_benchmark(result)
        scores = normalized_scores(result.real_h, benchmark)
        assert np.all(np.isfinite(scores["z"]))
        assert np.all(np.isfinite(scores["log_residual"]))
        z_all.extend(scores["z"].tolist())
        logres_all.extend(scores["log_residual"].tolist())
        z_by_unit[i] = scores["z"]
    mean_z = float(np.mean(z_all))
    mean_logres = float(np.mean(logres_all))
    trend = scipy.stats.spearmanr(sizes, z_by_unit.mean(axis=0))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(mean_z) <= 0.1
        and abs(mean_logres) <= 0.05
        and trend.pvalue > 0.01
        and elapsed < budget
    )
    report(
        8,
        "normalized scores calibrated on null-generated data",
        ok,
        f"mean z={mean_z:+.4f} (require |.|<=0.1), mean log-residual={mean_logres:+.4f} "
        f"(require |.|<=0.05), size-trend Spearman p={trend.pvalue:.3f} (require > 0.01; "
        f"8 draws x 40 units), {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_9_toy_urn_tables_with_default_settings(tmp_path, capsys):
    budget = 1.0
    t0 = time.perf_counter()
    out = tmp_path / "toy"
    assert main(["toy-balls", "--out-dir", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    capsys.readouterr()

    files = sorted(out.glob("toy_balls_k*.csv"))
    names_ok = [p.name for p in files] == [f"toy_balls_k{k:03d}.csv" for k in range(10, 101, 10)]
    worst_sum = 0.0
    shares_ok = True
    for k, path in zip(range(10, 101, 10), files):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k1,share,probability"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(k + 1))
        if any(float(r[1]) != int(r[0]) / k for r in rows):
            shares_ok = False
        worst_sum = max(worst_sum, abs(sum(float(r[2]) for r in rows) - 1.0))
    ok = names_ok and shares_ok and worst_sum <= 1e-9 and elapsed < budget
    report(
        9,
        "toy urn tables with default settings",
        ok,
        f"{len(files)} tables (k=10..100), share column consistent={shares_ok}, "
        f"worst |sum-1|={worst_sum:.2e} (tol 1e-9), {elapsed:.2f}s < {budget:.0f}s",
    )
