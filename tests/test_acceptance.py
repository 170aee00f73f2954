"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.  The full-protocol dither criteria take a few tens of seconds.
"""

import math
import numpy as np

from nested_mzi_lab import (
    Dove,
    Mirror,
    TiltSet,
    TransverseField,
    alpha_step,
    apply_dove_x,
    apply_tilt,
    centroid,
    default_beam,
    default_grid,
    default_protocol,
    default_scenario,
    detector_field_analytic,
    detector_field_numeric,
    effective_weak_value,
    field_before_F,
    load_preset,
    make_gaussian,
    norm,
    paper_two_state_vector,
    path_projector,
    photon_dither_experiment,
    power,
    propagate,
    run_dither,
    sample_photons,
    spectrum,
    weak_value,
    weak_value_report,
    PRESET_NAMES,
)
from conftest import random_field

BEAM = default_beam()
GRID = default_grid()
W0 = BEAM.w0
STEP = alpha_step(BEAM)


class criterion:
    """Context manager printing one pass/fail line per acceptance criterion."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:02d}] {status} {self.description}")
        return False


def test_criterion_01_projector_weak_values():
    with criterion(1, "projector weak values (1, -1, 1, 0, 0), Dove-independent"):
        expected = {
            Mirror.A: 1.0,
            Mirror.B: -1.0,
            Mirror.C: 1.0,
            Mirror.E: 0.0,
            Mirror.F: 0.0,
        }
        plain = weak_value_report(default_scenario())
        dove = weak_value_report(default_scenario(dove=Dove.BEFORE))
        for mirror, value in expected.items():
            assert abs(plain.projector[mirror] - value) < 1e-12
            assert abs(dove.projector[mirror] - value) < 1e-12
            assert plain.projector[mirror] == dove.projector[mirror]  # identical inputs


def test_criterion_02_centroid_law_without_dove():
    with criterion(2, "no-Dove centroid law <x> = z_A a_A - z_B a_B + z_C a_C"):
        scenario = default_scenario()
        rng = np.random.default_rng(2024)
        for _ in range(8):
            draws = rng.uniform(-STEP, STEP, size=5)
            tilts = TiltSet(draws)
            z = scenario.distances
            predicted = (
                z[Mirror.A] * tilts[Mirror.A]
                - z[Mirror.B] * tilts[Mirror.B]
                + z[Mirror.C] * tilts[Mirror.C]
            )
            measured = centroid(detector_field_numeric(scenario, tilts))
            tol = 0.01 * abs(predicted) if abs(predicted) >= 1e-3 * W0 else 1e-3 * W0
            assert abs(measured - predicted) <= tol
        for mirror in (Mirror.E, Mirror.F):
            assert abs(effective_weak_value(scenario, mirror)) < 1e-2


def _coefficients(scenario) -> dict[Mirror, float]:
    return {m: effective_weak_value(scenario, m) for m in Mirror}


def test_criterion_03_centroid_law_with_dove():
    with criterion(3, "Dove centroid coefficients (E,A,B,C,F) = (-2,+1,-1,+1,0)"):
        coeffs = _coefficients(default_scenario(dove=Dove.BEFORE))
        expected = {
            Mirror.E: -2.0,
            Mirror.A: 1.0,
            Mirror.B: -1.0,
            Mirror.C: 1.0,
            Mirror.F: 0.0,
        }
        for mirror, value in expected.items():
            assert abs(coeffs[mirror] - value) < 1e-2
        assert abs(coeffs[Mirror.E] + 2.0) < 1e-2  # the effective weak value is -2


def test_criterion_04_dove_after_flips_a():
    with criterion(4, "prisms after the inner mirrors flip only the A coefficient"):
        coeffs = _coefficients(default_scenario(dove=Dove.AFTER))
        expected = {
            Mirror.E: -2.0,
            Mirror.A: -1.0,
            Mirror.B: -1.0,
            Mirror.C: 1.0,
            Mirror.F: 0.0,
        }
        for mirror, value in expected.items():
            assert abs(coeffs[mirror] - value) < 1e-2


def test_criterion_05_inner_arm_cancellation():
    with criterion(5, "pre-F cancellation holds without and breaks with the prisms"):
        single_arm = 1.0 / 3.0
        tilts = TiltSet.single(Mirror.E, 50e-6)
        residual = power(field_before_F(default_scenario(), tilts))
        assert residual < 1e-6 * single_arm
        broken = power(
            field_before_F(default_scenario(dove=Dove.BEFORE), tilts)
        )
        assert broken > 1e3 * residual


def test_criterion_06_engine_equivalence():
    with criterion(6, "analytic and numeric centroids agree within 1% (25 cases)"):
        for name in PRESET_NAMES:
            scenario = load_preset(name).scenario
            for mirror in Mirror:
                tilts = TiltSet.single(mirror, STEP)
                reference = centroid(detector_field_analytic(scenario, tilts))
                measured = centroid(detector_field_numeric(scenario, tilts))
                assert abs(measured - reference) <= 0.01 * max(abs(reference), 1e-3 * W0)


def test_criterion_07_dither_signature():
    with criterion(7, "peak sets {A,B,C} vs {A,B,C,E}, never F; E/A ratio 2 z_E A_E / z_A A_A"):
        protocol = default_protocol()
        plain = spectrum(run_dither(default_scenario(), protocol), protocol)
        dove_scenario = default_scenario(dove=Dove.BEFORE)
        dove = spectrum(run_dither(dove_scenario, protocol), protocol)
        assert plain.peak_mirrors() == {Mirror.A, Mirror.B, Mirror.C}
        assert dove.peak_mirrors() == {Mirror.A, Mirror.B, Mirror.C, Mirror.E}
        z, amps = dove_scenario.distances, protocol.amplitudes
        expected_ratio = (
            2.0 * z[Mirror.E] * amps[Mirror.E]
            / (z[Mirror.A] * amps[Mirror.A])
        )
        ratio = dove.magnitude(Mirror.E) / dove.magnitude(Mirror.A)
        assert abs(ratio - expected_ratio) <= 0.02 * expected_ratio


def test_criterion_08_photon_statistics_convergence():
    with criterion(8, "photon spectra converge at 1e7/sample; SE scales as 1/sqrt(N)"):
        protocol = default_protocol()
        scenario = default_scenario(dove=Dove.BEFORE)
        deterministic = spectrum(run_dither(scenario, protocol), protocol)
        empirical = photon_dither_experiment(scenario, protocol, 10_000_000, seed=42)
        top = max(deterministic.magnitude(m) for m in Mirror)
        for mirror in Mirror:
            assert (
                abs(empirical.amplitudes[mirror] - deterministic.amplitudes[mirror])
                <= 0.01 * top
            )

        field = make_gaussian(BEAM, GRID)
        reps = 40

        def standard_error(n: int) -> float:
            means = [
                sample_photons(field, n, seed=1000 + r).positions.mean()
                for r in range(reps)
            ]
            return float(np.std(means, ddof=1))

        se = {n: standard_error(n) for n in (10_000, 100_000, 1_000_000)}
        for big, small in ((10_000, 100_000), (100_000, 1_000_000)):
            ratio = se[big] / se[small]
            assert math.sqrt(10.0) / 1.5 <= ratio <= math.sqrt(10.0) * 1.5


def test_criterion_09_property_suites():
    with criterion(9, "unitarity, composition, parity-tilt commutation, projector sum, A/B cancellation"):
        for seed in range(5):
            f = random_field(GRID, BEAM, seed)
            for z in (0.3, 1.7):
                assert abs(norm(propagate(f, z)) - norm(f)) < 1e-10
            once = propagate(f, 2.1)
            twice = propagate(propagate(f, 0.9), 1.2)
            assert norm(TransverseField(GRID, once.amplitude - twice.amplitude, BEAM.k)) < 1e-10
            for alpha in (-7e-4, 3e-5):
                lhs = apply_dove_x(apply_tilt(f, alpha))
                rhs = apply_tilt(apply_dove_x(f), -alpha)
                assert np.max(np.abs(lhs.amplitude - rhs.amplitude)) < 1e-12
        tsv = paper_two_state_vector()
        total = sum(
            weak_value(tsv, path_projector(m)) for m in (Mirror.A, Mirror.B, Mirror.C)
        )
        assert abs(total - 1.0) < 1e-14
        # A and B tilted alike; z_A = z_B in the default geometry
        joint = TiltSet((5e-5, 5e-5, 0.0, 0.0, 0.0))
        assert abs(centroid(detector_field_numeric(default_scenario(), joint))) < 1e-3 * W0


def test_criterion_10_alternate_port_converse():
    with criterion(10, "alternate port: a mirror with nonzero weak value leaves no trace"):
        report = weak_value_report(load_preset("alt-port").scenario)
        converse = {
            m
            for m in Mirror
            if abs(report.projector[m]) > 0.5 and abs(report.effective[m]) < 1e-2
        }
        assert converse, "no mirror exhibits the converse pattern"
        assert Mirror.E in converse
        values = {m.value: (report.projector[m], report.effective[m]) for m in Mirror}
        print(f"alternate-port projector/effective values: {values}")
