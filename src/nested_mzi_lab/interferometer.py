"""Nested Mach-Zehnder assembly and its two detector-plane engines.

A Scenario fixes the unfolded geometry (a table of mirror-to-detector
distances z_j and a common total path length), the beam, the Dove-prism
configuration and the collected output port.  Both engines read the same
path table: each unfolded path's ordered elements (mirror tilts, and the
x-oriented Dove prism in the leg through A) from elements.path_elements.
They differ in physics, not in topology:

* the analytic engine folds each path's elements into a net walk-off and
  ramp angle (a tilt adds z_j * alpha_j and alpha_j, the prism negates both)
  and sums three closed-form Gaussian contributions, each a shifted profile
  times a net phase ramp, valid to first order in the tilts;
* the numeric engine traces the input mode along each path (propagate
  between element planes, tilt at each mirror, parity at the prism) and is
  exact within the paraxial sampled model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import (
    PATH_MIRRORS,
    DoveConfig,
    DovePlacement,
    Mirror,
    MirrorTable,
    OutputPort,
    Path,
    TiltSet,
    apply_dove_x,
    apply_tilt,
    path_elements,
    port_amplitudes,
)
from .errors import ConfigError, RegimeError
from .fields import (
    GaussianSpec,
    TransverseField,
    TransverseGrid,
    gaussian_profile,
    make_gaussian,
    propagate,
)

# First-order validity regime: every tilt obeys k*alpha*w0 <= SMALL_ANGLE_KAW
# and the summed walk-off stays below WALKOFF_FRACTION of the waist.
SMALL_ANGLE_KAW = 1e-2
WALKOFF_FRACTION = 0.1
_REGIME_SLACK = 1.0 + 1e-9

DEFAULT_WAVELENGTH = 633e-9
DEFAULT_WAIST = 1e-3
DEFAULT_GRID_N = 1024
DEFAULT_HALF_WIDTH = 16e-3
#: Mirror-to-detector distances (m) over A, B, C, E, F: z_E > z_A = z_B > z_F,
#: reference leg z_C.
DEFAULT_DISTANCES = MirrorTable((1.0, 1.0, 1.0, 1.5, 0.5), "z")
DEFAULT_PATH_LENGTH = 2.0
#: Illustrative single-mirror tilt used by the named presets.
PRESET_TILT = 50e-6


@dataclass(frozen=True)
class Scenario:
    """Full interferometer description used by both engines.

    distances holds the optical distance z_j from each mirror to the detector
    along the unfolded paths; path_length is the common source-to-detector
    optical length of all three paths (the prisms rebalance them).
    """

    distances: MirrorTable
    path_length: float
    beam: GaussianSpec
    grid: TransverseGrid
    dove: DoveConfig = DoveConfig()
    output_port: OutputPort = OutputPort.BRIGHT

    def __post_init__(self) -> None:
        z = self.distances
        for mirror, value in z.items():
            if not value > 0.0:
                raise ConfigError(f"z_{mirror.value} must be positive, got {value}")
        if not 0.0 < self.path_length < math.inf:
            raise ConfigError(f"path_length must be positive and finite, got {self.path_length}")
        for path, mirrors in PATH_MIRRORS.items():
            if self.path_length < z[mirrors[0]]:
                raise ConfigError(f"path_length must be at least z_{mirrors[0].value}")
            for up, down in zip(mirrors, mirrors[1:]):
                if not z[up] > z[down]:
                    raise ConfigError(f"path {path.value} needs z_{up.value} > z_{down.value}")


def check_small_angle_regime(scenario: Scenario, tilts: TiltSet) -> None:
    """Raise RegimeError unless tilts sit inside the first-order regime."""
    k = scenario.beam.k
    w0 = scenario.beam.w0
    worst = max(abs(a) for a in tilts)
    if worst * k * w0 > SMALL_ANGLE_KAW * _REGIME_SLACK:
        raise RegimeError(
            f"k*alpha*w0 = {worst * k * w0:.3g} exceeds the small-angle bound {SMALL_ANGLE_KAW:g}"
        )
    walk = sum(abs(z * a) for z, a in zip(scenario.distances, tilts))
    if walk > WALKOFF_FRACTION * w0 * _REGIME_SLACK:
        raise RegimeError(
            f"summed walk-off {walk:.3g} m exceeds {WALKOFF_FRACTION:g} of the waist"
        )


def detector_field_analytic(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """First-order detector field: sum of shifted, ramped free-space profiles.

    Each path contributes amplitude * phi(x - shift) * exp(i k x ramp), with
    phi the closed-form Gaussian propagated over the common path length.
    shift and ramp fold the path's elements: a tilt alpha_j adds z_j * alpha_j
    and alpha_j, and the prism's parity negates both, reversing the sign of
    every tilt acquired upstream of it.  Requires tilts inside the
    small-angle regime.
    """
    check_small_angle_regime(scenario, tilts)
    xs = scenario.grid.xs
    k = scenario.beam.k
    z = scenario.distances
    amps = port_amplitudes(scenario.output_port)
    total = np.zeros(scenario.grid.n, dtype=np.complex128)
    for path in Path:
        shift = ramp = 0.0
        for mirror, prism in path_elements(scenario.dove, path):
            if prism:
                shift, ramp = -shift, -ramp
            else:
                shift += z[mirror] * tilts[mirror]
                ramp += tilts[mirror]
        profile = gaussian_profile(xs - shift, scenario.beam, scenario.path_length)
        total += amps[path] * profile * np.exp(1j * k * ramp * xs)
    return TransverseField(scenario.grid, total, k)


@lru_cache(maxsize=32)
def _outer_prefix(scenario: Scenario) -> TransverseField:
    """Source field propagated up to (just before) mirror E."""
    source = make_gaussian(scenario.beam, scenario.grid)
    return propagate(source, scenario.path_length - scenario.distances[Mirror.E])


@lru_cache(maxsize=32)
def _reference_prefix(scenario: Scenario) -> TransverseField:
    """Source field propagated up to (just before) mirror C."""
    source = make_gaussian(scenario.beam, scenario.grid)
    return propagate(source, scenario.path_length - scenario.distances[Mirror.C])


def _trace(
    scenario: Scenario, tilts: TiltSet, path: Path, stop_z: float = 0.0
) -> TransverseField:
    """Element-by-element trace of one unfolded path, unweighted.

    Starts from the cached source field just before the path's first mirror,
    propagates between element planes, applying each mirror's tilt and the
    prism's parity, and ends at the plane stop_z from the detector (the
    detector plane by default); elements past that plane are not applied.
    """
    z = scenario.distances
    plane = PATH_MIRRORS[path][0]
    f = _outer_prefix(scenario) if plane is Mirror.E else _reference_prefix(scenario)
    for mirror, prism in path_elements(scenario.dove, path):
        if z[mirror] < stop_z:
            break
        if mirror is not plane:
            f = propagate(f, z[plane] - z[mirror])
            plane = mirror
        f = apply_dove_x(f) if prism else apply_tilt(f, tilts[mirror])
    return propagate(f, z[plane] - stop_z)


def detector_field_numeric(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """Full-fidelity detector field: the port-weighted sum of the three path traces."""
    amps = port_amplitudes(scenario.output_port)
    eaf, ebf, c = (amps[path] * _trace(scenario, tilts, path).amplitude for path in Path)
    return TransverseField(scenario.grid, eaf + ebf + c, scenario.beam.k)


def field_before_F(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """Coherent sum of the two inner-arm fields at a plane just ahead of mirror F.

    The probe sits midway between the inner exit beam splitter and F; since
    the aligned inner arms cancel at every plane past that splitter, the
    exact position is immaterial.  The pre-F weights are the bright-port
    inner-arm amplitudes regardless of which final port is collected.
    """
    z = scenario.distances
    stop_z = 0.5 * (min(z[Mirror.A], z[Mirror.B]) + z[Mirror.F])
    amps = port_amplitudes(OutputPort.BRIGHT)
    eaf, ebf = (
        amps[path] * _trace(scenario, tilts, path, stop_z).amplitude
        for path in (Path.EAF, Path.EBF)
    )
    return TransverseField(scenario.grid, eaf + ebf, scenario.beam.k)


@dataclass(frozen=True)
class Preset:
    """A named scenario plus its signature single-mirror tilt."""

    name: str
    scenario: Scenario
    tilts: TiltSet


#: Named presets: (Dove configuration, collected port, tilted mirror).
_PRESETS = {
    "fig1a": (DoveConfig(), OutputPort.BRIGHT, Mirror.A),
    "fig1b": (DoveConfig(), OutputPort.BRIGHT, Mirror.E),
    "fig1c": (DoveConfig(enabled=True), OutputPort.BRIGHT, Mirror.E),
    "dove-after": (
        DoveConfig(enabled=True, placement=DovePlacement.AFTER_INNER_MIRRORS),
        OutputPort.BRIGHT,
        Mirror.E,
    ),
    "alt-port": (DoveConfig(enabled=True), OutputPort.ALTERNATE_INNER_PORT, Mirror.E),
}
PRESET_NAMES = tuple(_PRESETS)


def default_beam() -> GaussianSpec:
    return GaussianSpec(w0=DEFAULT_WAIST, wavelength=DEFAULT_WAVELENGTH)


def default_grid() -> TransverseGrid:
    return TransverseGrid(n=DEFAULT_GRID_N, half_width=DEFAULT_HALF_WIDTH)


def default_scenario(
    dove: DoveConfig = DoveConfig(),
    output_port: OutputPort = OutputPort.BRIGHT,
    beam: GaussianSpec | None = None,
    grid: TransverseGrid | None = None,
) -> Scenario:
    return Scenario(
        distances=DEFAULT_DISTANCES,
        path_length=DEFAULT_PATH_LENGTH,
        beam=beam if beam is not None else default_beam(),
        grid=grid if grid is not None else default_grid(),
        dove=dove,
        output_port=output_port,
    )


def load_preset(name: str) -> Preset:
    """Resolve a named preset experiment.

    fig1a      no prisms, mirror A tilted (a trace appears);
    fig1b      no prisms, mirror E tilted (inner arms cancel, no trace);
    fig1c      prisms before the inner mirrors, mirror E tilted (trace at E);
    dove-after prisms after the inner mirrors (sign of the A response flips);
    alt-port   prisms in, final splitter on the inner bright port (mirror E
               has a nonzero weak value yet no first-order trace).
    """
    try:
        dove, port, mirror = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        ) from None
    return Preset(
        name,
        default_scenario(dove=dove, output_port=port),
        TiltSet.single(mirror, PRESET_TILT),
    )
