"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import yaml
from scipy.stats import ks_2samp

from dpicl_audit import audit as audit_module
from dpicl_audit import mechanisms
from dpicl_audit.audit import AuditConfig, bootstrap_audit, run_audit
from dpicl_audit.cli import main
from dpicl_audit.gaussian_model import VotePattern, eps_emp_analytic, sweep
from dpicl_audit.gdp import delta_from_eps_mu, eps_from_mu_delta, mu_from_bounds
from dpicl_audit.mechanisms import (
    Exemplar,
    MechanismConfig,
    NeighboringPair,
    voting_noise_scale,
)
from dpicl_audit.oracles import (
    CanaryDetector,
    ReplayOracle,
    SignalPair,
    collect,
)
from dpicl_audit.stats import binom_upper_bound, std_normal_cdf

from reference import binom_tail_exact, cp_upper_bisect, scale_canary_partition


@contextlib.contextmanager
def criterion(name, description):
    try:
        yield
    except BaseException:
        print(f"{name} {description}: FAIL", flush=True)
        raise
    print(f"{name} {description}: PASS", flush=True)


def make_pair(n=8, canary_index=0):
    base = [Exemplar(f"in {i}", f"out {i}") for i in range(n)]
    return NeighboringPair(base, Exemplar("CANARY", "canary out"), canary_index)


def test_a1_classification_headline_reproduction():
    targets = {
        "white_box": {1: 0.735, 2: 1.598, 4: 3.504, 8: 7.920},
        "black_box": {1: 0.706, 2: 1.571, 4: 3.419, 8: 7.835},
    }
    with criterion("A1", "classification headline reproduction (T=4, idealized oracle)"):
        pair = make_pair()
        oracle = CanaryDetector((1, 0), num_classes=2, flip_probability=0.0)
        for eps_theory in (1, 2, 4, 8):
            mech = MechanismConfig(eps_theory=float(eps_theory), delta=1e-5, num_partitions=4)
            mus = {}
            for threat in ("white_box", "black_box"):
                config = AuditConfig(
                    mechanism=mech, task="classification", threat_model=threat,
                    n_llm=200, n_sample=400_000, confidence=0.95,
                    delta_target=1e-5, seed=20240801,
                )
                report = run_audit(config, oracle, pair, "CANARY", workers=4)
                mus[threat] = report.estimate.mu_lower
                target = targets[threat][eps_theory]
                assert abs(report.estimate.eps_emp - target) <= 0.15 * target, (
                    f"eps_theory={eps_theory} {threat}: got {report.estimate.eps_emp:.4f}, "
                    f"target {target} +/- 15%"
                )
            assert mus["white_box"] >= mus["black_box"] - 0.05


def test_a2_channel_parameter_invariance():
    with criterion("A2", "Gaussian channel parameter invariant in T and k"):
        rows = sweep(T_values=range(2, 15, 2), k_rule="all", b=1.0, sigma=2.0, delta_target=1e-5)
        assert len(rows) == sum(range(2, 15, 2))
        mus = [row.mu_gauss for row in rows]
        assert max(mus) - min(mus) <= 1e-12
        eps = [row.eps_gdp for row in rows]
        assert max(eps) - min(eps) <= 1e-9


def test_a3_mills_ratio_monotonicity():
    with criterion("A3", "log-ratio loss strictly decreasing in k"):
        for b, sigma in itertools.product((0.25, 0.5, 1.0), (1.0, 2.0, 4.0)):
            values = [
                eps_emp_analytic(VotePattern(num_partitions=10, k=k, b=b, sigma=sigma))
                for k in range(1, 11)
            ]
            diffs = [later - earlier for earlier, later in zip(values, values[1:])]
            assert all(d < 0 for d in diffs), f"b={b} sigma={sigma}: {diffs}"


def test_a4_statistics_oracles():
    with criterion("A4", "binomial bound, normal CDF and conversion oracles"):
        gamma = 0.95
        for trials in range(1, 51):
            for successes in range(trials + 1):
                bound = binom_upper_bound(successes, trials, gamma)
                if successes == trials:
                    assert bound == 1.0
                    continue
                oracle = cp_upper_bisect(successes, trials, gamma)
                assert abs(bound - oracle) <= 1e-8
                residual = binom_tail_exact(successes, trials, bound) - (1.0 - gamma)
                assert abs(residual) <= 1e-8

        ps = np.concatenate([np.geomspace(1e-10, 0.5, 25), 1.0 - np.geomspace(1e-10, 0.5, 25)])
        # Phi^-1(1 - 0.5) - Phi^-1(p) is -Phi^-1(p)
        quantiles = -mu_from_bounds(ps.copy(), np.full_like(ps, 0.5))
        for p, x in zip(ps, quantiles):
            assert abs(std_normal_cdf(float(x)) - p) <= 1e-10

        for mu in (0.5, 1.0, 2.0, 4.0):
            for eps in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
                delta = delta_from_eps_mu(eps, mu)
                if not (0.0 < delta < 1.0):
                    continue
                assert abs(eps_from_mu_delta(mu, delta) - eps) <= 1e-6


def test_a5_mean_embedding_sensitivity():
    with criterion("A5", "one-element swaps never move the mean beyond 2/T"):
        rng = np.random.default_rng(20240805)
        for _ in range(1000):
            T = int(rng.integers(2, 15))
            vectors = rng.normal(size=(T, 16))
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            replacement = rng.normal(size=16)
            replacement /= np.linalg.norm(replacement)
            position = int(rng.integers(0, T))
            swapped = vectors.copy()
            swapped[position] = replacement
            shift = np.linalg.norm(vectors.mean(axis=0) - swapped.mean(axis=0))
            assert shift <= 2.0 / T + 1e-12
        for T in range(2, 15):
            u = np.zeros(16)
            u[0] = 1.0
            others = rng.normal(size=(T - 1, 16))
            others /= np.linalg.norm(others, axis=1, keepdims=True)
            attained = np.linalg.norm(
                np.vstack([others, u]).mean(axis=0) - np.vstack([others, -u]).mean(axis=0)
            )
            assert abs(attained - 2.0 / T) <= 1e-12


def test_a6_generation_gap_properties():
    with criterion("A6", "generation audit below theory and monotone in signal distance"):
        pair = make_pair()

        def run(distance, eps_theory):
            signal = SignalPair.from_catalog(distance, 16)
            mech = MechanismConfig(eps_theory=eps_theory, delta=1e-5, num_partitions=8,
                                   sensitivity_mode="esa_tight")
            config = AuditConfig(mechanism=mech, task="generation", threat_model="white_box",
                                 n_llm=200, n_sample=400_000, seed=20240806)
            oracle = CanaryDetector((signal.y0_embedding, signal.y1_embedding))
            report = run_audit(config, oracle, pair, "CANARY", signal_pair=signal, workers=4)
            return report.estimate.eps_emp

        for eps_theory in (1.0, 2.0, 4.0, 8.0):
            eps_emp = run(0.7476, eps_theory)
            assert eps_emp < eps_theory, f"eps_theory={eps_theory}: {eps_emp}"

        values = [run(distance, 8.0) for distance in (0.1022, 0.4628, 0.5562, 0.7476)]
        assert all(later >= earlier for earlier, later in zip(values, values[1:])), values


def test_a7_bootstrap_fidelity():
    with criterion("A7", "bootstrap statistics match direct Gaussian sampling (KS < 0.01)"):
        mech = MechanismConfig(eps_theory=2.0, delta=1e-5, num_partitions=4)
        config = AuditConfig(mechanism=mech, task="classification", threat_model="white_box",
                             n_llm=1, n_sample=100_000, seed=20240807)
        sigma = voting_noise_scale(2.0, 1e-5)
        direct_rng = np.random.default_rng(987654321)
        # the kernel's statistics, as the audit hands them to its sweep
        with mock.patch.object(audit_module, "_sweep_in_place",
                               wraps=audit_module._sweep_in_place) as sweep_spy:
            bootstrap_audit([(1, 3)], [(0, 4)], config)
        for arm, counts in ((0, (1, 3)), (1, (0, 4))):
            stat = sweep_spy.call_args.args[arm]
            direct = (counts[0] - counts[1]) + direct_rng.normal(
                0.0, sigma * math.sqrt(2.0), size=config.n_sample
            )
            distance = ks_2samp(stat, direct).statistic
            assert distance < 0.01, f"arm {arm}: KS {distance}"


def test_a8_convergence_shape():
    with criterion("A8", "epsilon non-decreasing in the trial count for perfect separation"):
        # noise scale ~1e-9: the white-box statistics separate perfectly and
        # the estimate is governed by the CP bounds alone
        clean_with = [(1, 3)]
        clean_without = [(0, 4)]
        values = []
        for n_sample in (100, 1_000, 10_000, 100_000, 400_000):
            mech = MechanismConfig(eps_theory=1e9, delta=1e-5, num_partitions=4)
            config = AuditConfig(mechanism=mech, task="classification", threat_model="white_box",
                                 n_llm=1, n_sample=n_sample, seed=20240808)
            report = bootstrap_audit(clean_with, clean_without, config)
            assert report.counts.false_positives == 0
            assert report.counts.false_negatives == 0
            values.append(report.estimate.eps_emp)
        assert all(later >= earlier for earlier, later in zip(values, values[1:])), values
        assert values[-1] > values[0] > 0


def test_a9_deterministic_reports(tmp_path):
    with criterion("A9", "byte-identical reports on rerun and across worker counts"):
        config = {
            "task": "classification",
            "threat_model": "white_box",
            "mechanism": {"eps_theory": 2.0, "delta": 1e-5, "num_partitions": 4},
            "audit": {"n_llm": 50, "n_sample": 200_000, "seed": 99, "workers": 1},
            "output": {"directory": str(tmp_path / "out")},
        }
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(config))
        report_path = tmp_path / "out" / "report.json"

        assert main(["audit", "--config", str(path)]) == 0
        first = report_path.read_bytes()
        assert main(["audit", "--config", str(path)]) == 0
        assert report_path.read_bytes() == first

        assert main(["audit", "--config", str(path), "--set", "audit.workers=8"]) == 0
        assert report_path.read_bytes() == first


def shared_draw_factor(columns, sigma):
    """A broken release, one noise draw per row shared by every coordinate
    (z = g 1), as the scores see it: z @ A = g (1^T A), the factor sigma 1^T A."""
    return sigma * columns.sum(axis=0, keepdims=True)


def unclipped_aggregate(responses, num_classes):
    """A broken first stage: the mean of the partition embeddings as the model
    returned them, unclipped."""
    return responses.mean(axis=1)


def test_a10_broken_mechanisms_are_caught(tmp_path):
    with criterion("A10", "audits of known-broken mechanisms exceed eps_theory"):
        pair = make_pair()
        oracle = CanaryDetector((1, 0), num_classes=2, flip_probability=0.0)
        mech = MechanismConfig(eps_theory=4.0, delta=1e-5, num_partitions=4)

        def audit(threat):
            config = AuditConfig(mechanism=mech, task="classification", threat_model=threat,
                                 n_llm=200, n_sample=20_000, seed=20240810)
            return run_audit(config, oracle, pair, "CANARY").estimate.eps_emp

        threats = ("white_box", "black_box")
        # the shipped mechanism stays within its budget
        assert all(audit(threat) < mech.eps_theory for threat in threats)
        # voting calibrated with sensitivity 1 instead of 2: sigma halved
        with mock.patch.object(mechanisms, "VOTING_SENSITIVITY", 1.0):
            assert all(audit(threat) > mech.eps_theory for threat in threats)
        # a shared draw leaves the white-box vote difference noise-free; the
        # release is then the clean argmax, "no" in both worlds, so the
        # black-box audit rightly certifies nothing
        with mock.patch.object(mechanisms, "gaussian_score_factor", shared_draw_factor):
            assert audit("white_box") > mech.eps_theory
            assert audit("black_box") == 0.0

        # a replay whose canary partition answers y1's embedding x50: the
        # unclipped mean moves 50 times further than the 2/T the noise is
        # calibrated for, the shipped aggregate clips it back to the unit ball
        signal = SignalPair.from_catalog(0.7476, 16)
        esa = MechanismConfig(eps_theory=2.0, delta=1e-5, num_partitions=8,
                              sensitivity_mode="esa_tight")
        recorded, scaled = tmp_path / "records.jsonl", tmp_path / "scaled.jsonl"
        collect(CanaryDetector((signal.y0_embedding, signal.y1_embedding)), pair, "CANARY", 8, 50,
                seed=3, records_path=recorded)
        scale_canary_partition(recorded, scaled, 50.0)
        replay = ReplayOracle.from_file(scaled)

        def replayed(threat):
            config = AuditConfig(mechanism=esa, task="generation", threat_model=threat,
                                 n_llm=50, n_sample=20_000, seed=3)
            return run_audit(config, replay, pair, "CANARY", signal_pair=signal).estimate.eps_emp

        assert all(replayed(threat) < esa.eps_theory for threat in threats)
        with mock.patch.object(mechanisms, "aggregate", unclipped_aggregate):
            assert all(replayed(threat) > esa.eps_theory for threat in threats)


def test_a11_generation_whitebox_exact_channel():
    targets = {8.0: 3.742, 16.0: 8.466}
    with criterion("A11", "white-box generation audit near the exact mean-shift channel"):
        pair = make_pair()
        signal = SignalPair.from_catalog(0.7476, 16)
        oracle = CanaryDetector((signal.y0_embedding, signal.y1_embedding))
        for eps_theory, target in targets.items():
            # the canary moves one of T=8 unit embeddings from y0 to y1: the
            # mean shifts by d/T against sigma = (2/T) sqrt(ln(1.25/delta))/eps
            mu = signal.l2_distance * eps_theory / (2.0 * math.sqrt(math.log(1.25 / 1e-5)))
            exact = eps_from_mu_delta(mu, 1e-5)
            assert abs(exact - target) <= 1e-3, exact
            mech = MechanismConfig(eps_theory=eps_theory, delta=1e-5, num_partitions=8,
                                   sensitivity_mode="esa_tight")
            config = AuditConfig(mechanism=mech, task="generation", threat_model="white_box",
                                 n_llm=200, n_sample=400_000, seed=20240811)
            report = run_audit(config, oracle, pair, "CANARY", signal_pair=signal, workers=4)
            eps_emp = report.estimate.eps_emp
            assert abs(eps_emp - exact) <= 0.15 * exact, (
                f"eps_theory={eps_theory}: got {eps_emp:.4f}, exact {exact:.4f} +/- 15%")
