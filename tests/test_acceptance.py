"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or ``-v``); a
failing assertion is the FAIL signal. Criteria 7 and 8 fit twelve models
between them and dominate the runtime.
"""

import json
import time

import numpy as np
import pytest
import yaml

from hiermogp.cli import load_config, run_experiment
from hiermogp.data import SplitPlan, SyntheticConfig, generate_synthetic, split
from hiermogp.elbo import elbo_per_output, elbo_shared
from hiermogp.kernels import latent_cov
from hiermogp.kron import cholesky_jitter
from hiermogp.latent import InducingState, LatentPosterior
from hiermogp.metrics import nlpd, nmse
from hiermogp.model import ModelState
from hiermogp.objective import read_data
from hiermogp.params import ParamLayout
from hiermogp.training import ModelConfig, OptimizerConfig, grad_elbo

from .helpers import (
    central_fd_grad,
    random_chol,
    random_per_output_data,
    random_shared_data,
    random_state,
    shared_as_per_output,
)
from .oracles import (
    elbo_naive_oracle,
    exact_log_marginal_fixed_h,
    kl_inducing_closed_form,
    kron,
    kron_matvec,
    logdet,
    optimal_inducing_dense,
    psi_closed_form,
    trace_kron,
    tri_solve,
    unvec,
    vec,
)


def report(number: int, name: str, started: float, detail: str = ""):
    elapsed = time.time() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s){suffix}")


def test_criterion_1_kronecker_algebra():
    started = time.time()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        ra, ca, rb, cb = rng.integers(1, 5, size=4)
        a = rng.standard_normal((ra, ca))
        b = rng.standard_normal((rb, cb))
        dense = kron(a, b)
        # matvec identity
        x = rng.standard_normal(ca * cb)
        err = np.abs(kron_matvec(a, b, x) - dense @ x)
        scale = 1.0 + np.abs(dense @ x)
        worst = max(worst, float(np.max(err / scale)))
        # trace identity on square factors
        sa = rng.standard_normal((ra, ra))
        sb = rng.standard_normal((rb, rb))
        t_err = abs(trace_kron(sa, sb) - np.trace(kron(sa, sb)))
        worst = max(worst, t_err / (1.0 + abs(np.trace(kron(sa, sb)))))
        # mixed product
        c = rng.standard_normal((ca, ca))
        d = rng.standard_normal((cb, cb))
        mixed = kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)
        worst = max(worst, float(np.abs(mixed).max() / (1.0 + np.abs(kron(a @ c, b @ d)).max())))
        # vec convention round trip
        w = rng.standard_normal((cb, ca))
        assert np.array_equal(unvec(vec(w), cb, ca), w)
        # cholesky + solve + logdet against dense references
        spd = sa @ sa.T + ra * np.eye(ra)
        lower, jitter = cholesky_jitter(spd)
        rebuilt = lower @ lower.T - jitter * np.eye(ra)
        worst = max(worst, float(np.abs(rebuilt - spd).max() / (1.0 + np.abs(spd).max())))
        rhs = rng.standard_normal((ra, 2))
        solved = tri_solve(lower, rhs)
        target = np.linalg.solve(spd + jitter * np.eye(ra), rhs)
        worst = max(worst, float(np.abs(solved - target).max() / (1.0 + np.abs(target).max())))
        sign, logabs = np.linalg.slogdet(spd + jitter * np.eye(ra))
        worst = max(worst, abs(logdet(lower) - logabs) / (1.0 + abs(logabs)))
    assert worst < 1e-10, worst
    assert time.time() - started < 5.0
    report(1, "kronecker algebra vs dense brute force", started, f"max rel err {worst:.2e}")


def test_criterion_2_efficient_vs_naive_elbo():
    started = time.time()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        state = random_state(
            rng,
            n_outputs=int(rng.integers(1, 4)),
            n_replicas=int(rng.integers(1, 4)),
            m_per_replica=int(rng.integers(1, 3)),
            m_latent=int(rng.integers(1, 4)),
            per_output_noise=False,
        )
        x, y = random_shared_data(rng, state, n_per_replica=int(rng.integers(1, 5)))
        fast = elbo_shared(state, x, y).total
        slow = elbo_naive_oracle(state, x, y).total
        worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    for trial in range(20):
        rng = np.random.default_rng(2100 + trial)
        state = random_state(
            rng,
            n_outputs=int(rng.integers(1, 4)),
            n_replicas=int(rng.integers(1, 4)),
            m_per_replica=int(rng.integers(1, 3)),
            m_latent=int(rng.integers(1, 4)),
            per_output_noise=True,
        )
        x, y = random_per_output_data(rng, state, n_per_replica=4, ragged=True)
        fast = elbo_per_output(state, x, y).total
        slow = elbo_naive_oracle(state, x, y).total
        worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    assert worst < 1e-8, worst
    assert time.time() - started < 30.0
    report(2, "efficient vs naive bound, both regimes", started, f"max rel err {worst:.2e}")


def test_criterion_3_kl_factorisation():
    started = time.time()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        m_h = int(rng.integers(1, 4))
        m_r = int(rng.integers(1, 4))
        r = int(rng.integers(1, 3))
        state = InducingState(
            z_input=[rng.uniform(size=(m_r, 1)) for _ in range(r)],
            z_latent=rng.standard_normal((m_h, 2)),
            mean=rng.standard_normal((m_r * r, m_h)),
            cov_latent_chol=random_chol(rng, m_h),
            cov_input_chol=random_chol(rng, m_r * r),
        )
        def spd(n):
            b = rng.standard_normal((n, n))
            return b @ b.T + n * np.eye(n)
        kuu_h, kuu_x = spd(m_h), spd(m_r * r)
        got = kl_inducing_closed_form(state, kuu_h, kuu_x)
        prior = kron(kuu_h, kuu_x)
        cov = kron(state.cov_latent, state.cov_input)
        mean = vec(state.mean)
        prior_inv = np.linalg.inv(prior)
        sign_p, ld_p = np.linalg.slogdet(prior)
        sign_c, ld_c = np.linalg.slogdet(cov)
        dense = 0.5 * (
            ld_p - ld_c + np.trace(prior_inv @ cov) + mean @ prior_inv @ mean - prior.shape[0]
        )
        worst = max(worst, abs(got - dense) / max(1.0, abs(dense)))
    assert worst < 1e-8, worst
    report(3, "Kronecker KL vs dense Gaussian KL", started, f"max err {worst:.2e}")


def test_criterion_4_psi_statistics():
    started = time.time()
    from hiermogp.kernels import RBF, StationaryKernel, eval_stationary

    for trial in range(20):
        rng = np.random.default_rng(4000 + trial)
        d = int(rng.integers(1, 6))
        q = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        post = LatentPosterior(
            means=rng.standard_normal((d, q)),
            variances=rng.uniform(0.05, 1.0, size=(d, q)),
        )
        spec = StationaryKernel(RBF, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0, size=q))
        z = rng.standard_normal((m, q))
        psi1, psi2 = psi_closed_form(post, spec, z)
        samples = 100_000
        sample_rng = np.random.default_rng(trial)
        for i in range(d):
            draws = post.means[i] + np.sqrt(post.variances[i]) * sample_rng.standard_normal((samples, q))
            rows = eval_stationary(spec, draws, z)
            se1 = rows.std(axis=0, ddof=1) / np.sqrt(samples)
            assert np.all(np.abs(psi1[i] - rows.mean(axis=0)) <= 5.0 * se1 + 1e-12)
            outer = rows[:, :, None] * rows[:, None, :]
            se2 = outer.std(axis=0, ddof=1) / np.sqrt(samples)
            assert np.all(np.abs(psi2[i] - outer.mean(axis=0)) <= 5.0 * se2 + 1e-12)
        # delta limit
        delta = LatentPosterior(means=post.means, variances=np.full((d, q), 1e-12))
        psi1_delta, psi2_delta = psi_closed_form(delta, spec, z)
        plain = latent_cov(spec, post.means, z)
        assert np.allclose(psi1_delta, plain, atol=1e-6)
        for i in range(d):
            assert np.allclose(psi2_delta[i], np.outer(plain[i], plain[i]), atol=1e-6)
    report(4, "psi statistics vs Monte Carlo and delta limit", started)


def test_criterion_5_gradient_gate():
    started = time.time()
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(5000 + trial)
        state = random_state(rng, per_output_noise=True, flat=(trial == 4))
        x, y = random_per_output_data(rng, state, ragged=True)
        layout = ParamLayout(state)
        theta = layout.pack(state)
        data = read_data(state, x, y)
        _, grad, _ = grad_elbo(theta, layout, state, data)
        grad_fd = central_fd_grad(theta, layout, state, data, step_rel=1e-5)
        scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(grad_fd)))
        worst = max(worst, float(np.max(np.abs(grad - grad_fd) / scale)))
    for trial in range(5):
        rng = np.random.default_rng(5100 + trial)
        state = random_state(rng, per_output_noise=False)
        x, y = random_shared_data(rng, state)
        layout = ParamLayout(state)
        theta = layout.pack(state)
        data = read_data(state, *shared_as_per_output(state, x, y))
        _, grad, _ = grad_elbo(theta, layout, state, data)
        grad_fd = central_fd_grad(theta, layout, state, data, step_rel=1e-5)
        scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(grad_fd)))
        worst = max(worst, float(np.max(np.abs(grad - grad_fd) / scale)))
    assert worst < 1e-4, worst
    assert time.time() - started < 120.0
    report(5, "analytic gradients vs central differences", started, f"max rel err {worst:.2e}")


def test_criterion_6_bound_tightness():
    started = time.time()
    worst_gap = 0.0
    for trial in range(5):
        rng = np.random.default_rng(6000 + trial)
        d, r, n = 2, 2, 3
        base = random_state(rng, n_outputs=d, n_replicas=r, m_per_replica=n, m_latent=d)
        blocks = [rng.uniform(size=(n, 1)) for _ in range(r)]
        x = [blocks] * d
        y = [rng.standard_normal(n * r) for _ in range(d)]
        state = ModelState(
            hier_kernel=base.hier_kernel,
            latent_kernel=base.latent_kernel,
            latent_posterior=LatentPosterior(
                means=base.latent_posterior.means,
                variances=np.full((d, base.latent_dim), 1e-10),
            ),
            inducing=InducingState(
                z_input=[b.copy() for b in blocks],
                z_latent=base.latent_posterior.means.copy(),
                mean=np.zeros((r * n, d)),
                cov_latent_chol=np.eye(d),
                cov_input_chol=np.eye(r * n),
            ),
            noise_variance=base.noise_variance,
        )
        exact = exact_log_marginal_fixed_h(state, x, y)
        # optimally set inducing posterior closes the gap
        mean, cov = optimal_inducing_dense(state, x, y)
        opt_state = ModelState(
            hier_kernel=state.hier_kernel,
            latent_kernel=state.latent_kernel,
            latent_posterior=state.latent_posterior,
            inducing=InducingState(
                z_input=state.inducing.z_input,
                z_latent=state.inducing.z_latent,
                mean=unvec(mean, r * n, d),
                cov_latent_chol=np.eye(d),
                cov_input_chol=np.eye(r * n),
            ),
            noise_variance=state.noise_variance,
        )
        bound = elbo_naive_oracle(opt_state, x, y, sigma_u=cov)
        gap = exact - (bound.data_fit - bound.kl_inducing)
        worst_gap = max(worst_gap, abs(gap))
        assert abs(gap) < 1e-5, (trial, gap)
        # arbitrary inducing posteriors never exceed the exact value
        for k in range(4):
            arb = ModelState(
                hier_kernel=state.hier_kernel,
                latent_kernel=state.latent_kernel,
                latent_posterior=state.latent_posterior,
                inducing=InducingState(
                    z_input=state.inducing.z_input,
                    z_latent=state.inducing.z_latent,
                    mean=rng.standard_normal((r * n, d)),
                    cov_latent_chol=random_chol(rng, d),
                    cov_input_chol=random_chol(rng, r * n),
                ),
                noise_variance=state.noise_variance,
            )
            b = elbo_per_output(arb, x, y)
            assert b.data_fit - b.kl_inducing <= exact + 1e-6
    report(6, "bound tightness at the optimal inducing posterior", started, f"max gap {worst_gap:.2e}")


# -- desk-scale experiment criteria -----------------------------------------

def _experiment_config(tmp_path, name, synthetic, split_section, inducing_latent):
    # inducing_latent differs by task: interpolation of held-out points works
    # best with a compact latent grid, while missing-replica transfer needs
    # one latent inducing point per output so no output is compressed away
    raw = {
        "seed": 0,
        "output_dir": str(tmp_path / name),
        "dataset": {"synthetic": synthetic},
        "model": {
            "latent_dim": 2,
            "inducing_per_replica": 8,
            "inducing_latent": inducing_latent,
        },
        "optimizer": {"learning_rate": 0.01, "iterations": 2000},
        "split": split_section,
        "experiment": {"repeats": 3},
    }
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(raw))
    return load_config(path)


_PAPER_SYNTHETIC = {
    "n_outputs": 10,
    "n_replicas": 3,
    "points_per_replica": 10,
    "latent_dim": 2,
    "shared_kernel": {"family": "matern32", "variance": 0.1, "lengthscale": 1.0},
    "replica_kernel": {"family": "matern32", "variance": 1.0, "lengthscale": 1.0},
    "noise_variance": 0.02,
}


def test_criterion_7_missing_points_experiment(tmp_path):
    started = time.time()
    config = _experiment_config(
        tmp_path, "hier", _PAPER_SYNTHETIC, {"mode": "random_fraction", "fraction": 0.5},
        inducing_latent=6,
    )
    hier = run_experiment(config, tmp_path / "hier")
    flat = run_experiment(config, tmp_path / "flat", ablation="flat")
    assert all(v < 0.5 for v in hier["nmse_values"]), hier["nmse_values"]
    assert hier["nmse_mean"] < flat["nmse_mean"], (hier["nmse_mean"], flat["nmse_mean"])
    assert hier["nlpd_mean"] < flat["nlpd_mean"], (hier["nlpd_mean"], flat["nlpd_mean"])
    assert time.time() - started < 600.0
    report(
        7,
        "desk-scale missing-points study",
        started,
        f"hier nmse {hier['nmse_mean']:.3f} nlpd {hier['nlpd_mean']:.3f} vs "
        f"flat {flat['nmse_mean']:.3f}/{flat['nlpd_mean']:.3f}",
    )


def test_criterion_8_missing_replica_experiment(tmp_path):
    started = time.time()
    synthetic = dict(_PAPER_SYNTHETIC, n_replicas=4)
    config = _experiment_config(
        tmp_path, "hier", synthetic, {"mode": "missing_replica", "missing": "random"},
        inducing_latent=10,
    )
    hier = run_experiment(config, tmp_path / "hier")
    flat = run_experiment(config, tmp_path / "flat", ablation="flat")
    assert all(np.isfinite(v) for v in hier["nlpd_values"])
    # pooled over the experiment: better than predicting the test mean
    assert hier["nmse_mean"] < 1.0, hier["nmse_values"]
    assert hier["nmse_mean"] < flat["nmse_mean"], (hier["nmse_mean"], flat["nmse_mean"])
    assert time.time() - started < 600.0
    report(
        8,
        "desk-scale missing-replica study",
        started,
        f"hier nmse {hier['nmse_mean']:.3f} vs flat {flat['nmse_mean']:.3f} "
        f"(per seed {['%.2f' % v for v in hier['nmse_values']]})",
    )


def test_criterion_9_metric_values():
    started = time.time()
    assert nmse([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 0.0
    assert abs(nmse([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]) - 2.5) < 1e-12
    assert abs(nmse([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]) - 1.0) < 1e-12
    assert abs(nlpd([1.0], [1.0], [1.0]) - 0.5 * np.log(2 * np.pi)) < 1e-12
    assert abs(nlpd([1.0], [0.0], [1.0]) - 0.5 * (1.0 + np.log(2 * np.pi))) < 1e-12
    report(9, "metric hand values", started)


def test_criterion_10_cli_determinism(tmp_path):
    started = time.time()
    synthetic = {
        "n_outputs": 3,
        "n_replicas": 2,
        "points_per_replica": 8,
        "noise_variance": 0.05,
    }
    raw = {
        "seed": 3,
        "dataset": {"synthetic": synthetic},
        "model": {"latent_dim": 2, "inducing_per_replica": 3, "inducing_latent": 2},
        "optimizer": {"learning_rate": 0.02, "iterations": 40},
        "split": {"mode": "random_fraction", "fraction": 0.5},
        "experiment": {"repeats": 2},
    }
    path = tmp_path / "det.yaml"
    path.write_text(yaml.safe_dump(raw))
    run_experiment(load_config(path), tmp_path / "a")
    run_experiment(load_config(path), tmp_path / "b")
    for rep in range(2):
        for name in (f"metrics_rep{rep}.json", f"predictions_rep{rep}.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    report(10, "byte-identical metrics under a repeated seed", started)
