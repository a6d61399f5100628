"""End-to-end acceptance suite.

Each test covers one headline guarantee, prints a single pass/fail line
(visible with ``pytest -s`` or on failure), and enforces both the numeric
tolerance and the runtime budget.
"""

import time

import numpy as np
import pytest

from netsteer.certificates import (
    PipelinePreconditionError,
    _dew_unsteerable,
    certify_network_steering,
    claims_pipeline,
)
from netsteer.experiments import (
    SweepSpec,
    run_activation,
    run_claims_demo,
    run_verify_swap,
)
from netsteer.measurements import pauli_projective
from netsteer.network import line_assemblage
from netsteer.nlhs import (
    build_percolation_line,
    nlhs_to_separable_realization,
    reconstruct,
    separabilize_endpoint,
)
from netsteer.nlhs_io import load_fixture
from netsteer.operators import QOperator
from netsteer.states import werner

from conftest import (
    max_entry_distance,
    negativity,
    partial_trace,
    rand_density,
    rand_psd,
    random_linear_network,
    random_model,
    realization_network,
    tensor,
)
from sweep_oracles import BlochData, erased_unsteerable


def _verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_swap_identity():
    start = time.perf_counter()
    report = run_verify_swap(SweepSpec())   # 21 x 21 grid over [0, 1]^2
    elapsed = time.perf_counter() - start
    ok = report.ok and report.max_deviation <= 1e-10 and elapsed < 5.0
    _verdict(
        "1 swap identity",
        ok,
        f"max deviation {report.max_deviation:.3e} over 441 points, {elapsed:.2f}s",
    )


def test_criterion_2_unsteerability_boundary():
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    tau = 1e-6
    mismatches = 0
    for _ in range(1000):
        eta = float(rng.random())
        omega = float(rng.random())
        b = BlochData(np.zeros(3), -omega * np.eye(3))
        claimed, value = erased_unsteerable(b, eta)
        expected = eta <= (2 / 3) * (1 - omega)
        # the criterion, and the closed form the activation sweep evaluates
        for verdict in (claimed, bool(_dew_unsteerable(eta, omega))):
            if verdict != expected and abs(value - 1.0) > tau:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 2.0
    _verdict(
        "2 unsteerability boundary",
        ok,
        f"{mismatches} mismatches outside tau={tau:g} on 1000 pairs, criterion and closed "
        f"form, {elapsed:.2f}s",
    )


def test_criterion_3_activation_region():
    start = time.perf_counter()
    step = 1e-3
    details = []
    ok = True
    for n in (3, 4, 5):
        thr = (1 / 3) ** (1 / (n - 1))
        window = (round(thr, 3) - 0.05, round(thr, 3) + 0.05, 101)   # steps of 1e-3
        report = run_activation(SweepSpec(omega_range=window, n_parties=n, eta_boundary=True))
        certified = []
        for rec in report.records:
            if rec["network_steering"]:
                certified.append(rec)
                # inside the certified region every source must be both
                # entangled and unsteerable in both directions
                ok = ok and rec["source_unsteerable"]
                ok = ok and rec["source_negativity"] > 0
        flip = min(r["omega"] for r in certified)
        ok = ok and abs(flip - thr) <= step + 1e-9
        details.append(f"n={n} flip at {flip:.3f} (threshold {thr:.4f})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict("3 activation region", ok, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_4_claims_pipeline():
    deviations = []
    ok = True
    for omega in (0.72, 0.8, 0.9, 1.0):
        report = run_claims_demo(omega, "zx")
        ok = ok and report.ok and report.extra["status"] == "NetworkSteeringCertified"
        rec = report.records[0]
        ok = ok and rec["block_identity_deviation"] <= 1e-12
        ok = ok and rec["round_trip_deviation"] <= 1e-12
        deviations.append(report.max_deviation)
    errored = 0
    for omega in (0.5, 0.7):
        with pytest.raises(PipelinePreconditionError):
            claims_pipeline(werner(omega), [(0, 0, 1), (1, 0, 0)])
        errored += 1
    ok = ok and errored == 2
    _verdict(
        "4 claims pipeline",
        ok,
        f"certified at 0.72/0.8/0.9/1.0 (max dev {max(deviations):.3e}), "
        "errors at 0.5/0.7",
    )


FIXTURES = [
    "sep_loc_sep",
    "uns_sep_uns",
    "sep_uns_uns",
    "uns_uns_sep",
    "percolation_star_n6",
]


def test_criterion_5_nlhs_constructors():
    import importlib.resources

    worst = 0.0
    for name in FIXTURES:
        path = importlib.resources.files("netsteer") / "fixtures" / f"{name}.json"
        _, slots, net = load_fixture(path)
        model, _ = build_percolation_line(slots, net.central_measurements)
        quantum = line_assemblage(net)
        rebuilt = reconstruct(model)
        dev = max(
            max_entry_distance(rebuilt.elements[k], quantum.elements[k])
            for k in quantum.elements
        )
        worst = max(worst, dev)
    rng = np.random.default_rng(31337)
    false_positives = 0
    for _ in range(100):
        model = random_model(rng, n_parties=int(rng.integers(3, 6)))
        if certify_network_steering(reconstruct(model)).certified:
            false_positives += 1
    ok = worst <= 1e-10 and false_positives == 0
    _verdict(
        "5 NLHS constructors",
        ok,
        f"5 fixtures reconstructed (worst dev {worst:.3e}), "
        f"{false_positives} false positives on 100 fuzzed models",
    )


def test_criterion_6_separabilisation_round_trips():
    rng = np.random.default_rng(90210)
    worst_prob = 0.0
    for _ in range(100):
        d_b = int(rng.integers(2, 4))
        rho = rand_density(rng, (2, d_b))
        axis = rng.normal(size=3)
        m_a = pauli_projective(axis / np.linalg.norm(axis))
        rho_sep, flag_povm = separabilize_endpoint(rho, m_a)
        eff = rand_psd(rng, [d_b])
        for a in range(m_a.n_outcomes):
            p_orig = np.trace(
                np.kron(m_a.matrices[a], eff.matrix) @ rho.matrix
            ).real
            p_new = np.trace(
                np.kron(flag_povm.matrices[a], eff.matrix) @ rho_sep.matrix
            ).real
            worst_prob = max(worst_prob, abs(p_orig - p_new))
    worst_model = 0.0
    worst_neg = 0.0
    for _ in range(25):
        model = random_model(rng, n_parties=int(rng.integers(3, 6)), max_hidden=3)
        net = realization_network(nlhs_to_separable_realization(model))
        realized = line_assemblage(net)
        target = reconstruct(model)
        for k in target.elements:
            worst_model = max(
                worst_model,
                max_entry_distance(realized.elements[k], target.elements[k]),
            )
        worst_neg = max(
            worst_neg, max(negativity(s.matrix, s.dims) for s in net.sources)
        )
    ok = worst_prob <= 1e-12 and worst_model <= 1e-10 and worst_neg == 0.0
    _verdict(
        "6 separabilisation round-trips",
        ok,
        f"endpoint dev {worst_prob:.3e} (100 continuations), realisation dev "
        f"{worst_model:.3e}, max source negativity {worst_neg:.3e}",
    )


def test_criterion_7_product_marginal():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        net = random_linear_network(rng, n, max_dim=3)
        asm = line_assemblage(net)
        expected = tensor(
            partial_trace(net.sources[0], keep=[0]),
            partial_trace(net.sources[-1], keep=[1]),
        )
        total = QOperator(asm.matrices.sum(axis=0), asm.dims)
        worst = max(worst, max_entry_distance(total, expected))
    ok = worst <= 1e-10
    _verdict(
        "7 product marginal",
        ok,
        f"max deviation {worst:.3e} over 200 random networks",
    )
