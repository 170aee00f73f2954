"""Nested Mach-Zehnder assembly and its two detector-plane engines.

A Scenario fixes the unfolded geometry (a table of mirror-to-detector
distances z_j and a common total path length), the beam, where the Dove
prisms sit (a Dove value) and the collected output port.  Both engines read
the same path table: each unfolded path's ordered elements (mirror tilts,
and the x-oriented Dove prism in the leg through A) from
elements.path_elements.  The analytic engine walks each path once into a
closed form (_fold_paths), as the dither does; the numeric engine traces the
sampled input mode for one TiltSet, the reference the fold is tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import (
    PATH_MIRRORS,
    Dove,
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
    EDGE_BAND,
    GaussianSpec,
    TransverseField,
    TransverseGrid,
    _positive,
    check_edges,
    check_sampling,
    gaussian_profile,
    make_gaussian,
    propagate,
)

# First-order regime (check_small_angle_regime): the centroid laws hold, the dither's crest sits.
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
    dove: Dove = Dove.OFF
    output_port: OutputPort = OutputPort.BRIGHT

    def __post_init__(self) -> None:
        z = self.distances
        for mirror, value in z.items():
            _positive(value, f"z_{mirror.value}")
        _positive(self.path_length, "path_length")
        for path, mirrors in PATH_MIRRORS.items():
            if self.path_length < z[mirrors[0]]:
                raise ConfigError(f"path_length must be at least z_{mirrors[0].value}")
            for up, down in zip(mirrors, mirrors[1:]):
                if not z[up] > z[down]:
                    raise ConfigError(f"path {path.value} needs z_{up.value} > z_{down.value}")
        check_sampling(self.beam, self.grid)

    @property
    def curvature(self) -> complex:
        """c = -1 / (w0^2 q) of the source Gaussian over path_length, G(x) = G(0) e^{c x^2}."""
        return -1.0 / (self.beam.w0**2 * (1.0 + 1j * self.path_length / self.beam.rayleigh_range))


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
    """The fold's field G(0) sum_p a_p e^{c (x - s_p)^2 + i (k theta_p x + phi_p)}, Re c <= 0."""
    xs, k, c = scenario.grid.xs, scenario.beam.k, scenario.curvature
    total = sum(a * np.exp(c * (xs - s) * (xs - s) + 1j * (k * t * xs + phi))
                for a, s, t, phi in _fold_paths(scenario, tilts))  # c(x - s) first: no overflow
    amp = gaussian_profile(0.0, scenario.beam, scenario.path_length) * total
    amp.flags.writeable = False
    return TransverseField(scenario.grid, amp, scenario.beam.k)


def _fold_paths(scenario: Scenario, tilts: Mapping[Mirror, object]) -> list[tuple]:
    """Each path's (a, s, theta, phi) of the fold, after propagate's edge guard in closed form.

    Propagation over d maps e^{ik theta x} h(x - s) to e^{ik theta x - ik theta^2 d/2}
    (P(d)h)(x - s - theta d), so a tilt alpha_j at z_j adds z_j alpha_j to the walk-off s,
    alpha_j to the ramp theta and -k z_j alpha_j (2 theta + alpha_j) / 2 to the phase phi,
    and the prism negates s and theta.  The path adds a e^{i phi + ik theta x} G(x - s), G the
    source Gaussian over path_length.  The guard checks the largest walk-off's profile at the
    band edge nearest its peak.  Tilts are floats or (T,) columns.
    """
    beam, z, length, k = scenario.beam, scenario.distances, scenario.path_length, scenario.beam.k
    paths, walk = [], 0.0
    with np.errstate(all="ignore"):  # the guard reports a non-finite value itself
        for path, amp in port_amplitudes(scenario.output_port).items():
            shift = ramp = phase = 0.0
            for mirror, prism in path_elements(scenario.dove, path):
                if prism:
                    shift, ramp = -shift, -ramp
                else:
                    alpha = tilts[mirror]
                    shift = shift + z[mirror] * alpha
                    phase = phase - 0.5 * k * z[mirror] * alpha * (2.0 * ramp + alpha)
                    ramp = ramp + alpha
            paths.append((amp, shift, ramp, phase))
            walk = np.maximum(walk, np.abs(shift).max())
        near = np.maximum((1.0 - EDGE_BAND) * scenario.grid.half_width - walk, 0.0)
        profile = gaussian_profile(np.array([near, 0.0]), beam, length)
    worst, peak = np.abs(profile)
    check_edges(float(peak), float(worst))
    return paths


@lru_cache(maxsize=2)
def _outer_prefix(scenario: Scenario) -> TransverseField:
    """Source field propagated up to (just before) mirror E."""
    source = make_gaussian(scenario.beam, scenario.grid)
    return propagate(source, scenario.path_length - scenario.distances[Mirror.E])


@lru_cache(maxsize=2)
def _reference_prefix(scenario: Scenario) -> TransverseField:
    """Source field propagated up to (just before) mirror C."""
    source = make_gaussian(scenario.beam, scenario.grid)
    return propagate(source, scenario.path_length - scenario.distances[Mirror.C])


@lru_cache(maxsize=28)  # a weak-values call's working set: with fewer, it repeats steps
def _trace(scenario: Scenario, own: tuple[float, ...], path: Path) -> TransverseField:
    """One unfolded path's field after its first len(own) mirrors, unweighted.

    own holds the tilts of those mirrors in PATH_MIRRORS[path] order.  The field at the
    last of them, the trace of own[:-1] (or, for the path's first mirror, the cached
    source field just before it), takes that mirror's elements, its tilt and the prism's
    parity, and is propagated on to the path's next mirror, or to the detector after its
    last.  Each step is cached on the tilts upstream of its end plane alone, so the fields
    of a weak-values call share every leg that their tilts leave unchanged.
    """
    z, mirrors, taken = scenario.distances, PATH_MIRRORS[path], len(own)
    mirror = mirrors[taken - 1]
    if taken > 1:
        f = _trace(scenario, own[:-1], path)
    else:
        f = _outer_prefix(scenario) if mirror is Mirror.E else _reference_prefix(scenario)
    for element, prism in path_elements(scenario.dove, path):
        if element is mirror:
            f = apply_dove_x(f) if prism else apply_tilt(f, own[-1])
    end = z[mirrors[taken]] if taken < len(mirrors) else 0.0  # the next mirror, or the detector
    return propagate(f, z[mirror] - end)


def _port_sum(
    scenario: Scenario,
    tilts: TiltSet,
    amps: Mapping[Path, float],
    paths: Iterable[Path],
    taken: int | None = None,
) -> TransverseField:
    """Sum of amps[path] times each path's trace after its first taken mirrors (None: all)."""
    total = None  # not sum(), whose int 0 start turns a -0.0 sample into 0.0
    for path in paths:
        own = tuple(tilts[m] for m in PATH_MIRRORS[path][:taken])  # already validated
        term = amps[path] * _trace(scenario, own, path).amplitude
        total = term if total is None else total + term
    total.flags.writeable = False
    return TransverseField(scenario.grid, total, scenario.beam.k)


def detector_field_numeric(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """Full-fidelity detector field: the port-weighted sum of the three path traces."""
    return _port_sum(scenario, tilts, port_amplitudes(scenario.output_port), Path)


def field_before_F(scenario: Scenario, tilts: TiltSet) -> TransverseField:
    """Coherent sum of the two inner-arm fields at mirror F's plane, before F's tilt.

    These are the numeric engine's own steps from the inner mirrors to F.  The
    weights are the bright-port inner-arm amplitudes whichever final port is collected.
    """
    return _port_sum(scenario, tilts, port_amplitudes(OutputPort.BRIGHT), (Path.EAF, Path.EBF), 2)


@dataclass(frozen=True)
class Preset:
    """A named scenario plus its signature single-mirror tilt."""

    name: str
    scenario: Scenario
    tilts: TiltSet


#: Named presets: (prism placement, collected port, tilted mirror).
_PRESETS = {
    "fig1a": (Dove.OFF, OutputPort.BRIGHT, Mirror.A),
    "fig1b": (Dove.OFF, OutputPort.BRIGHT, Mirror.E),
    "fig1c": (Dove.BEFORE, OutputPort.BRIGHT, Mirror.E),
    "dove-after": (Dove.AFTER, OutputPort.BRIGHT, Mirror.E),
    "alt-port": (Dove.BEFORE, OutputPort.ALTERNATE_INNER_PORT, Mirror.E),
}
PRESET_NAMES = tuple(_PRESETS)


def default_beam() -> GaussianSpec:
    return GaussianSpec(w0=DEFAULT_WAIST, wavelength=DEFAULT_WAVELENGTH)


def default_grid() -> TransverseGrid:
    return TransverseGrid(n=DEFAULT_GRID_N, half_width=DEFAULT_HALF_WIDTH)


def default_scenario(
    dove: Dove = Dove.OFF, output_port: OutputPort = OutputPort.BRIGHT
) -> Scenario:
    return Scenario(
        distances=DEFAULT_DISTANCES,
        path_length=DEFAULT_PATH_LENGTH,
        beam=default_beam(),
        grid=default_grid(),
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
