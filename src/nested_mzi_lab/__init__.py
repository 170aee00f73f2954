"""Wave-optics lab for mirror-tilt weak traces in a nested Mach-Zehnder interferometer.

The toolkit models the interferometer's three unfolded paths on a 1-D
transverse grid, computes projector and effective weak values, and reproduces
the split-detector dither spectroscopy that defines a mirror's weak trace,
with and without Dove prisms in the interferometer legs.
"""

__version__ = "0.1.0"

from .detection import (
    DitherProtocol,
    PhotonSample,
    SpectrumReport,
    default_protocol,
    photon_dither_experiment,
    run_dither,
    sample_photons,
    spectrum,
    split_signal,
)
from .elements import (
    Dove,
    Mirror,
    MirrorTable,
    OutputPort,
    Path,
    PathState,
    TiltSet,
    TwoStateVector,
    apply_dove_x,
    apply_tilt,
    paper_two_state_vector,
    port_amplitudes,
    two_state_vector_for_port,
)
from .errors import (
    AliasingError,
    ConfigError,
    GuardError,
    NestedMziError,
    PostSelectionError,
    RegimeError,
    ZeroNormError,
)
from .fields import (
    GaussianSpec,
    TransverseField,
    TransverseGrid,
    centroid,
    gaussian_profile,
    make_gaussian,
    parity_x,
    power,
    propagate,
)
from .interferometer import (
    Preset,
    PRESET_NAMES,
    Scenario,
    check_small_angle_regime,
    default_beam,
    default_grid,
    default_scenario,
    detector_field_analytic,
    detector_field_numeric,
    field_before_F,
    load_preset,
)
from .weak_values import (
    WeakValueReport,
    alpha_step,
    effective_weak_value,
    path_projector,
    weak_value,
    weak_value_report,
)
