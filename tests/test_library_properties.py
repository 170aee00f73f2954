"""Property tests of the loud-failure contract of the interferometer and weak_values APIs.

Every public function of the two modules returns finite values or raises
ConfigError or GuardError, with warnings as errors: a numpy warning or a nan
result is not a loud failure.  Each parameter is its default or one of the
values that the CLI property draws: 0, +-1, 1e+-300, inf, nan and non-integers.
The grid has 256 samples unless its n is drawn, so no example allocates much.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    PRESET_NAMES,
    ConfigError,
    Dove,
    GaussianSpec,
    GuardError,
    Mirror,
    MirrorTable,
    OutputPort,
    Scenario,
    TiltSet,
    TransverseGrid,
    check_small_angle_regime,
    default_scenario,
    detector_field_analytic,
    detector_field_numeric,
    effective_weak_value,
    field_before_F,
    load_preset,
    path_projector,
    two_state_vector_for_port,
    weak_value,
    weak_value_report,
)
from nested_mzi_lab.weak_values import alpha_step
from test_cli_properties import SPECIAL_FLOATS

#: The CLI property's special floats (subnormals, +-0, 1e+-300, +-1e308, the largest float,
#: nan, +-inf), with +-1, -1e-300 and two non-integers.
VALUES = st.sampled_from([*map(float, SPECIAL_FLOATS), 1.0, -1.0, -1e-300, 0.5, 2.5])
#: A small tilt inside the first-order regime of the default beam (k alpha w0 = 5e-3).
SMALL_TILT = 5e-7


def default_or_special(default):
    return st.one_of(st.just(default), VALUES)


def finite(value) -> bool:
    """Whether every number in a result (a field, a report, a number) is finite."""
    if hasattr(value, "amplitude"):
        value = value.amplitude
    elif hasattr(value, "projector"):
        value = [*value.projector.values(), *value.effective.values()]
    return bool(np.isfinite(np.asarray(value, dtype=complex)).all())


def attempt(call, *args):
    """call(*args), with warnings as errors; None where it raised ConfigError or GuardError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except (ConfigError, GuardError):
            return None


def finite_or_refused(call, *args) -> None:
    value = attempt(call, *args)
    assert value is None or finite(value), (call, value)


#: A scenario's numbers: z_A..z_F, path_length, w0, wavelength, grid n and half width.
BASE = default_scenario()
DEFAULTS = (*BASE.distances, BASE.path_length, BASE.beam.w0, BASE.beam.wavelength, 256,
            BASE.grid.half_width)


@st.composite
def scenario_numbers(draw) -> list:
    """The default numbers with up to three drawn from the special values."""
    numbers = list(DEFAULTS)
    for i in draw(st.lists(st.integers(0, len(DEFAULTS) - 1), max_size=3, unique=True)):
        numbers[i] = draw(VALUES)
    return numbers


def build_scenario(numbers: list, dove: Dove, port: OutputPort) -> Scenario:
    *z, length, w0, wavelength, n, half_width = numbers
    return Scenario(
        MirrorTable(z, "z"), length, GaussianSpec(w0, wavelength),
        TransverseGrid(n, half_width), dove, port,
    )


#: Tilts inside the regime, with up to two drawn from the special values.
TILTS = st.lists(
    st.sampled_from([0.0, SMALL_TILT, -SMALL_TILT]), min_size=5, max_size=5
).flatmap(lambda tilts: st.lists(VALUES, max_size=2).map(lambda v: [*v, *tilts][:5]))


@settings(max_examples=200, deadline=None)
@given(
    numbers=scenario_numbers(), dove=st.sampled_from(Dove), port=st.sampled_from(OutputPort),
    tilts=TILTS, mirror=st.sampled_from(Mirror),
)
def test_interferometer_and_weak_values_are_finite_or_refused(numbers, dove, port, tilts, mirror):
    scenario = attempt(build_scenario, numbers, dove, port)
    if scenario is None:
        return
    finite_or_refused(alpha_step, scenario.beam)
    finite_or_refused(effective_weak_value, scenario, mirror)
    finite_or_refused(weak_value_report, scenario)
    tilt_set = attempt(TiltSet, tilts)
    if tilt_set is not None:
        finite_or_refused(check_small_angle_regime, scenario, tilt_set)
        finite_or_refused(detector_field_analytic, scenario, tilt_set)
        finite_or_refused(detector_field_numeric, scenario, tilt_set)
        finite_or_refused(field_before_F, scenario, tilt_set)


@settings(max_examples=200, deadline=None)
@given(
    real=st.lists(st.one_of(VALUES, st.floats(-2.0, 2.0)), min_size=9, max_size=9),
    imag=st.lists(st.one_of(VALUES, st.floats(-2.0, 2.0)), min_size=9, max_size=9),
    port=st.sampled_from(OutputPort),
    mirror=st.sampled_from(Mirror),
)
def test_weak_value_is_finite_or_refused(real, imag, port, mirror):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # inf * 1j makes nan parts; the operator is refused then
        op = (np.array(real) + 1j * np.array(imag)).reshape(3, 3)
    tsv = two_state_vector_for_port(port)
    finite_or_refused(weak_value, tsv, op)
    finite_or_refused(weak_value, tsv, np.array(real).reshape(3, 3))
    finite_or_refused(weak_value, tsv, path_projector(mirror))


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from([*PRESET_NAMES, "", "fig9z", "nan"]))
def test_presets_are_finite_or_refused(name):
    preset = attempt(load_preset, name)
    if preset is not None:
        finite_or_refused(detector_field_numeric, preset.scenario, preset.tilts)
        finite_or_refused(detector_field_analytic, preset.scenario, preset.tilts)
