"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Criteria 6 and 9 check the distillation yield first at the finite group
size N = 50 and then at N = 5000, where the asymptotic rate is reached.
The chain rule gives the exact identity

    N H(p0) = H({p_k}) + sum_k p_k log2 C(N, k),

with p_k the Bin(N, 1 - p0) outcome distribution, so the expected per-copy
yield of the grouped protocol is H(p0) - H(Bin(N, 1 - p0)) / N: 0.6511 for
N = 50 and p0 = 0.8, short of H(0.8) = 0.7219 by the outcome entropy over
N. The N = 50 runs are held to that finite-N target, computed by the
benchmark's reference (``perfbench/reference.py``, which its own tests
check against scipy's binomial entropy) rather than from cohrand.distill.
The paper's asymptotic claim is checked at N = 5000 copies per group
(10^6 copies over 200 groups), where the identity puts the shortfall at
0.0014 bits.
"""

import math
import time

import numpy as np

from cohrand import (
    RoofConfig,
    brute_force_roof_qubit,
    c_l1,
    c_rel_ent,
    coherence_concurrence_qubit,
    concurrence_bloch,
    concurrence_spin_flip,
    distill_exact,
    distill_simulate,
    haar_random_pure,
    maximally_coherent_state,
    optimize_roof,
    pipeline_compare,
    pure_state,
    r_pure,
    r_qubit_analytic,
    random_density,
    regularized_roof_estimate,
    run_property_suite,
)
from oracles import sample_exact_outcomes
from reference import binary_entropy, finite_n_yield


# One verdict line per criterion; conftest.py echoes these in the terminal
# summary so they appear for passing criteria too.
CRITERION_LINES: list = []


def _line(num: int, ok: bool, desc: str) -> None:
    text = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    CRITERION_LINES.append(text)
    print(text)
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_roof_matches_analytic_qubit():
    t0 = time.monotonic()
    worst = 0.0
    for i in range(200):
        rho = random_density(2, 1 + i % 2, seed=1000 + i)
        res = optimize_roof(rho, RoofConfig(seed=i))
        worst = max(worst, abs(res.value - r_qubit_analytic(rho)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    _line(1, ok, f"roof vs analytic on 200 qubits: worst {worst:.2e} (<=1e-6), {elapsed:.1f}s (<=60s)")


def test_criterion_02_brute_force_oracle():
    worst = 0.0
    for i in range(50):
        rho = random_density(2, 2, seed=2000 + i)
        worst = max(worst, abs(brute_force_roof_qubit(rho, 128) - r_qubit_analytic(rho)))
    ok = worst <= 1e-3
    _line(2, ok, f"grid oracle (grid_n=128) vs analytic on 50 qubits: worst {worst:.2e} (<=1e-3)")


def test_criterion_03_concurrence_consistency():
    worst_paths = 0.0
    worst_l1 = 0.0
    for i in range(1000):
        rho = random_density(2, 2, seed=3000 + i)
        worst_paths = max(worst_paths, abs(concurrence_spin_flip(rho) - concurrence_bloch(rho)))
        worst_l1 = max(worst_l1, abs(c_l1(rho) - coherence_concurrence_qubit(rho)))
    ok = worst_paths <= 1e-10 and worst_l1 <= 1e-10
    _line(3, ok, f"concurrence paths on 1000 qubits: matrix-vs-Bloch {worst_paths:.2e}, l1-vs-C {worst_l1:.2e} (<=1e-10)")


def test_criterion_04_pure_state_identity():
    worst = 0.0
    for i in range(500):
        d = 2 + i % 5
        psi = haar_random_pure(d, seed=4000 + i)
        worst = max(worst, abs(r_pure(psi) - c_rel_ent(psi.projector())))
    ok = worst <= 1e-12
    _line(4, ok, f"pure randomness equals relative-entropy coherence, 500 states: worst {worst:.2e} (<=1e-12)")


def test_criterion_05_property_suite():
    t0 = time.monotonic()
    reports = run_property_suite(samples=1000, seed=0)
    elapsed = time.monotonic() - t0
    worst = max(r.worst_slack for r in reports)
    ok = all(r.passed for r in reports) and elapsed <= 120.0
    detail = ", ".join(f"{r.property_id.value}={r.worst_slack:.1e}" for r in reports)
    _line(5, ok, f"property suite over 1000 pairs: {detail}, {elapsed:.1f}s (<=120s)")


def test_criterion_06_distillation_yield():
    t0 = time.monotonic()
    psi = pure_state([math.sqrt(0.8), math.sqrt(0.2)])
    target = finite_n_yield(50, 0.8)
    report = distill_simulate(psi, 50, 200, seed=0)
    yield_ok = abs(report.yield_rate - target) <= 0.02
    asymptotic = binary_entropy(0.8)
    large = distill_simulate(psi, 5000, 200, seed=0)
    large_ok = abs(large.yield_rate - asymptotic) <= 0.02
    bound_ok = True
    for seed in range(20):
        rep = distill_simulate(psi, 50, 200, seed=seed)
        bound_ok = bound_ok and rep.loss_actual <= rep.loss_bound
    elapsed = time.monotonic() - t0
    ok = yield_ok and large_ok and bound_ok and elapsed <= 10.0
    _line(
        6,
        ok,
        f"N=50 M=200 yield {report.yield_rate:.4f} vs finite-N {target:.4f} +-0.02, "
        f"N=5000 yield {large.yield_rate:.4f} vs H(0.8)={asymptotic:.4f} +-0.02, "
        f"loss bound 20/20: {bound_ok}, {elapsed:.1f}s",
    )


def test_criterion_07_exact_protocol():
    run = distill_exact(maximally_coherent_state(2), 4)
    shots = 10_000
    counts = sample_exact_outcomes(run, shots, seed=0)
    freq = counts[2] / shots
    p = 6.0 / 16.0
    sigma = math.sqrt(p * (1 - p) / shots)
    freq_ok = abs(freq - p) <= 3 * sigma
    post = run.subspace_states[2]
    mag_dev = float(np.max(np.abs(np.abs(post) - 1.0 / math.sqrt(6.0))))
    ok = freq_ok and mag_dev <= 1e-10
    _line(7, ok, f"N=4 balanced: k=2 freq {freq:.4f} vs 0.375 (3 sigma {3 * sigma:.4f}), amplitude dev {mag_dev:.1e} (<=1e-10)")


def test_criterion_08_regularized_estimate():
    rho = random_density(2, 2, seed=8000)
    two = regularized_roof_estimate(rho, RoofConfig(restarts=8, seed=0))
    single = r_qubit_analytic(rho)
    mixed_ok = two <= single + 1e-6
    psi = pure_state([math.sqrt(0.7), math.sqrt(0.3)])
    two_pure = regularized_roof_estimate(psi.projector(), RoofConfig(restarts=8, seed=1))
    pure_dev = abs(two_pure - r_pure(psi))
    ok = mixed_ok and pure_dev <= 1e-6
    _line(8, ok, f"two-copy per-copy {two:.6f} <= single {single:.6f}+1e-6, pure additivity dev {pure_dev:.1e} (<=1e-6)")


def test_criterion_09_pipeline_equivalence():
    # At N = 50 the two paths are not expected to agree within 5%: path A
    # gives up only its rate margin, path B the outcome entropy over N.
    # Each is held to its own predicted length there, and the agreement
    # check runs at N = 5000.
    t0 = time.monotonic()
    psi = pure_state([math.sqrt(0.8), math.sqrt(0.2)])
    n_total = 200 * 50
    small = pipeline_compare(psi, n_groups=200, group_n=50, seed=0)
    a_expected = math.floor(n_total * (binary_entropy(0.8) - 0.02))
    b_expected = n_total * finite_n_yield(50, 0.8)
    a_ok = small.path_a_bits == a_expected
    b_ok = abs(small.path_b_bits - b_expected) <= 0.02 * n_total
    cmp = pipeline_compare(psi, n_groups=200, group_n=5000, seed=0)
    elapsed = time.monotonic() - t0
    ok = (
        a_ok
        and b_ok
        and abs(small.path_a_monobit_z) < 3
        and cmp.lengths_agree
        and abs(cmp.path_a_monobit_z) < 3
        and elapsed <= 30.0
    )
    _line(
        9,
        ok,
        f"N=50: path A {small.path_a_bits} (=={a_expected}), path B {small.path_b_bits} "
        f"vs {b_expected:.0f} +-{0.02 * n_total:.0f}, |z| {abs(small.path_a_monobit_z):.2f}; "
        f"N=5000: path A {cmp.path_a_bits} vs path B {cmp.path_b_bits} bits, "
        f"rel diff {cmp.relative_difference:.3f} (<=0.05), |z| {abs(cmp.path_a_monobit_z):.2f} (<3), "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_bounds():
    worst_low = 0.0
    worst_high = 0.0
    for i in range(200):
        d = 2 + i % 5
        rho = random_density(d, 1 + i % d, seed=10_000 + i)
        # Entropy-based measures are bounded by log2 d; the l1 measure by
        # its own maximum d - 1, so it is normalized to the same scale.
        values = [c_rel_ent(rho), c_l1(rho) * math.log2(d) / (d - 1)]
        if d == 2:
            values.append(r_qubit_analytic(rho))
        for v in values:
            worst_low = max(worst_low, -v)
            worst_high = max(worst_high, v - math.log2(d))
    max_dev = 0.0
    for d in range(2, 7):
        rho = maximally_coherent_state(d).projector()
        max_dev = max(max_dev, abs(optimize_roof(rho).value - math.log2(d)))
    ok = worst_low <= 1e-9 and worst_high <= 1e-9 and max_dev <= 1e-9
    _line(10, ok, f"measure bounds: below-zero {worst_low:.1e}, above-log2d {worst_high:.1e}, max-coherent dev {max_dev:.1e} (<=1e-9)")
