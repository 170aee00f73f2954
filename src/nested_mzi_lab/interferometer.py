"""Nested Mach-Zehnder assembly and its two detector-plane engines.

A Scenario fixes the unfolded geometry (a table of mirror-to-detector
distances z_j and a common total path length), the beam, the Dove-prism
configuration and the collected output port.  Two independent engines produce the detector field:

* the analytic engine sums three closed-form Gaussian contributions, one per
  unfolded path, each a shifted profile times a net phase ramp, valid to
  first order in the tilts;
* the numeric engine propagates the input mode element by element along each
  unfolded path (propagate, tilt at each mirror plane, parity at the prism
  plane) and is exact within the paraxial sampled model.

Path topology: the outer loop enters at mirror E, splits into the inner
interferometer (mirrors A, B), recombines toward mirror F; the reference leg
passes mirror C.  The x-oriented Dove prism sits in the leg through A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .elements import (
    DoveConfig,
    DovePlacement,
    Mirror,
    MirrorTable,
    OutputPort,
    Path,
    TiltSet,
    apply_dove_x,
    apply_tilt,
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
        if not (z[Mirror.E] > z[Mirror.A] and z[Mirror.E] > z[Mirror.B]):
            raise ConfigError("mirror E must precede A and B: require z_E > z_A and z_E > z_B")
        if not (z[Mirror.F] < z[Mirror.A] and z[Mirror.F] < z[Mirror.B]):
            raise ConfigError("mirror F must follow A and B: require z_F < z_A and z_F < z_B")
        if self.path_length < max(z[Mirror.E], z[Mirror.C]):
            raise ConfigError("path_length must be at least max(z_E, z_C)")


@dataclass(frozen=True)
class PathField:
    """One unfolded path's weighted contribution at a plane."""

    path: Path
    field: TransverseField


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


def _first_order_geometry(
    scenario: Scenario, tilts: TiltSet
) -> dict[Path, tuple[float, float]]:
    """Per-path detector-plane displacement and net ramp angle.

    Walk-off displacements add as z_j * alpha_j along each path and ramp
    angles add as alpha_j; the parity flip of the prism in the leg through A
    reverses the sign of every tilt acquired upstream of it (alpha_E for
    placement before the inner mirrors, alpha_E and alpha_A for placement
    after them).
    """
    z, t = scenario.distances, tilts
    A, B, C, E, F = Mirror
    sign_e = 1.0
    sign_a = 1.0
    if scenario.dove.enabled:
        sign_e = -1.0
        if scenario.dove.placement is DovePlacement.AFTER_INNER_MIRRORS:
            sign_a = -1.0
    return {
        Path.EAF: (
            sign_e * z[E] * t[E] + sign_a * z[A] * t[A] + z[F] * t[F],
            sign_e * t[E] + sign_a * t[A] + t[F],
        ),
        Path.EBF: (z[E] * t[E] + z[B] * t[B] + z[F] * t[F], t[E] + t[B] + t[F]),
        Path.C: (z[C] * t[C], t[C]),
    }


def detector_field_analytic(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """First-order detector field: sum of shifted, ramped free-space profiles.

    Each path contributes amplitude * phi(x - sum z_j alpha_j) *
    exp(i k x sum alpha_j), with phi the closed-form Gaussian propagated over
    the common path length.  Requires tilts inside the small-angle regime.
    """
    check_small_angle_regime(scenario, tilts)
    xs = scenario.grid.xs
    k = scenario.beam.k
    amps = port_amplitudes(scenario.output_port)
    geometry = _first_order_geometry(scenario, tilts)
    total = np.zeros(scenario.grid.n, dtype=np.complex128)
    for path, (shift, ramp) in geometry.items():
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


def _inner_path_field(
    scenario: Scenario, tilts: TiltSet, path: Path, stop_z: float | None = None
) -> TransverseField:
    """Element-by-element trace of one inner path (EAF or EBF), unweighted.

    When stop_z is given the trace halts at that distance from the detector
    (used for the pre-F probe); otherwise it continues through mirror F to
    the detector plane.
    """
    s, z = scenario, scenario.distances
    mirror = Mirror.A if path is Path.EAF else Mirror.B
    # The x-oriented prism lives in the leg through A; the y-oriented one in
    # the leg through B acts as the identity in 1-D.
    prism = path is Path.EAF and s.dove.enabled
    f = apply_tilt(_outer_prefix(s), tilts[Mirror.E])
    f = propagate(f, z[Mirror.E] - z[mirror])
    if prism and s.dove.placement is DovePlacement.BEFORE_INNER_MIRRORS:
        f = apply_dove_x(f)
    f = apply_tilt(f, tilts[mirror])
    if prism and s.dove.placement is DovePlacement.AFTER_INNER_MIRRORS:
        f = apply_dove_x(f)
    if stop_z is not None:
        return propagate(f, z[mirror] - stop_z)
    f = propagate(f, z[mirror] - z[Mirror.F])
    f = apply_tilt(f, tilts[Mirror.F])
    return propagate(f, z[Mirror.F])


def path_fields(scenario: Scenario, tilts: TiltSet) -> tuple[PathField, ...]:
    """The three weighted path contributions at the detector plane (numeric)."""
    amps = port_amplitudes(scenario.output_port)
    ref = apply_tilt(_reference_prefix(scenario), tilts[Mirror.C])
    ref = propagate(ref, scenario.distances[Mirror.C])
    contributions = []
    for path in (Path.EAF, Path.EBF):
        f = _inner_path_field(scenario, tilts, path)
        contributions.append(
            PathField(path, TransverseField(f.grid, amps[path] * f.amplitude, f.k))
        )
    contributions.append(
        PathField(Path.C, TransverseField(ref.grid, amps[Path.C] * ref.amplitude, ref.k))
    )
    return tuple(contributions)


def detector_field_numeric(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """Full-fidelity detector field by element-by-element propagation."""
    parts = path_fields(scenario, tilts)
    total = parts[0].field.amplitude.copy()
    for part in parts[1:]:
        total = total + part.field.amplitude
    return TransverseField(scenario.grid, total, scenario.beam.k)


def field_before_F(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """Coherent sum of the two inner-arm fields at a plane just ahead of mirror F.

    The probe sits midway between the inner exit beam splitter and F; since
    the aligned inner arms cancel at every plane past that splitter, the
    exact position is immaterial.  The pre-F weights are the bright-port
    inner-arm amplitudes regardless of which final port is collected.
    """
    z = scenario.distances
    stop_z = 0.5 * (min(z[Mirror.A], z[Mirror.B]) + z[Mirror.F])
    eaf = _inner_path_field(scenario, tilts, Path.EAF, stop_z=stop_z)
    ebf = _inner_path_field(scenario, tilts, Path.EBF, stop_z=stop_z)
    amps = port_amplitudes(OutputPort.BRIGHT)
    total = amps[Path.EAF] * eaf.amplitude + amps[Path.EBF] * ebf.amplitude
    return TransverseField(scenario.grid, total, scenario.beam.k)


def alternate_port_field(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """Detector field with the final beam splitter on the inner bright port."""
    alt = replace(scenario, output_port=OutputPort.ALTERNATE_INNER_PORT)
    return detector_field_numeric(alt, tilts)


@dataclass(frozen=True)
class Preset:
    """A named scenario plus its signature single-mirror tilt."""

    name: str
    scenario: Scenario
    tilts: TiltSet


PRESET_NAMES = ("fig1a", "fig1b", "fig1c", "dove-after", "alt-port")


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
    if name == "fig1a":
        return Preset(name, default_scenario(), TiltSet.single(Mirror.A, PRESET_TILT))
    if name == "fig1b":
        return Preset(name, default_scenario(), TiltSet.single(Mirror.E, PRESET_TILT))
    if name == "fig1c":
        return Preset(
            name,
            default_scenario(dove=DoveConfig(enabled=True)),
            TiltSet.single(Mirror.E, PRESET_TILT),
        )
    if name == "dove-after":
        return Preset(
            name,
            default_scenario(
                dove=DoveConfig(enabled=True, placement=DovePlacement.AFTER_INNER_MIRRORS)
            ),
            TiltSet.single(Mirror.E, PRESET_TILT),
        )
    if name == "alt-port":
        return Preset(
            name,
            default_scenario(
                dove=DoveConfig(enabled=True),
                output_port=OutputPort.ALTERNATE_INNER_PORT,
            ),
            TiltSet.single(Mirror.E, PRESET_TILT),
        )
    raise ConfigError(f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}")
