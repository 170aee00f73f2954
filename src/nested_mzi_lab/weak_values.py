"""Projector and effective weak values over the path basis {A, B, C}.

Projector weak values depend only on the collected port's pre- and
post-selected path states, the two-state vectors of the elements module
(they are system quantities, blind to the meter and to the Dove prisms),
while the effective weak value of a mirror is the z-normalized first-order
coefficient of the detector centroid response to that mirror's tilt,
extracted from the numeric engine by central finite difference.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .elements import (
    PATH_MIRRORS,
    Dove,
    Mirror,
    Path,
    TiltSet,
    TwoStateVector,
    two_state_vector_for_port,
)
from .errors import ConfigError, GuardError
from .fields import GaussianSpec, centroid
from .interferometer import SMALL_ANGLE_KAW, Scenario, detector_field_numeric

def weak_value(tsv: TwoStateVector, op: np.ndarray) -> complex:
    """Weak value <Phi|op|Psi> / <Phi|Psi> of a 3x3 operator on the path basis.

    TwoStateVector refuses an overlap at or below 1e-12, so the division is finite
    where the product is.  A non-finite operator raises ConfigError, and a weak value
    past float64 (an operator near its top) raises GuardError.
    """
    matrix = np.asarray(op, dtype=np.complex128)
    if matrix.shape != (3, 3):
        raise ConfigError(f"operator must be 3x3 on the path basis, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ConfigError("operator must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, which the guard reports
        value = complex(tsv.post.as_array() @ matrix @ tsv.pre.as_array() / tsv.overlap)
    if not cmath.isfinite(value):
        raise GuardError(f"weak value {value!r} overflows float64")
    return value


def path_projector(mirror: Mirror) -> np.ndarray:
    """Projector onto the paths that visit the given mirror.

    Read from the path table alone, never from the prisms: A, B, C project
    onto single paths; E and F are met by both inner paths, so their
    projectors equal Pi_A + Pi_B exactly.
    """
    diag = [1.0 if mirror in PATH_MIRRORS[path] else 0.0 for path in Path]
    return np.diag(np.array(diag, dtype=np.complex128))


def alpha_step(beam: GaussianSpec) -> float:
    """Finite-difference tilt step: k * alpha * w0 = 1e-2, mid small-angle regime."""
    return SMALL_ANGLE_KAW / (beam.k * beam.w0)


def difference_scale(scenario: Scenario, mirror: Mirror) -> float:
    """The central difference's divisor 2 alpha_step z_mirror; ConfigError where it underflows."""
    scale = 2.0 * alpha_step(scenario.beam) * scenario.distances[mirror]
    if not scale > 0.0:
        raise ConfigError(f"2 * alpha_step * z_{mirror.value} underflows to {scale!r}")
    return scale


def effective_weak_value(scenario: Scenario, mirror: Mirror) -> float:
    """z-normalized first-order centroid response coefficient of one mirror.

    Central finite difference of the numeric-engine detector centroid with
    respect to the mirror's tilt, divided by the mirror-to-detector distance.
    Equals the projector weak value whenever even and odd meter modes follow
    the same path.
    """
    step, scale = alpha_step(scenario.beam), difference_scale(scenario, mirror)
    up = centroid(detector_field_numeric(scenario, TiltSet.single(mirror, step)))
    down = centroid(detector_field_numeric(scenario, TiltSet.single(mirror, -step)))
    return (up - down) / scale


@dataclass(frozen=True)
class WeakValueReport:
    """Projector weak values (Dove-independent) and effective values (Dove-aware)."""

    projector: dict[Mirror, complex]
    effective: dict[Mirror, float]
    dove_enabled: bool

    def to_text(self) -> str:
        lines = []
        for mirror in Mirror:
            value = self.projector[mirror]
            lines.append(f"projector_{mirror.value} = {value.real:.12g}{value.imag:+.12g}j")
        for mirror in Mirror:
            lines.append(f"effective_{mirror.value} = {self.effective[mirror]:.12g}")
        lines.append(f"dove_enabled = {str(self.dove_enabled).lower()}")
        return "\n".join(lines) + "\n"


def weak_value_report(scenario: Scenario) -> WeakValueReport:
    """Combine projector and effective weak values for every mirror.

    The projector values are computed from the output port's two-state
    vector alone; the Dove configuration never reaches that computation.
    """
    tsv = two_state_vector_for_port(scenario.output_port)
    projector = {m: weak_value(tsv, path_projector(m)) for m in Mirror}
    effective = {m: effective_weak_value(scenario, m) for m in Mirror}
    return WeakValueReport(
        projector=projector, effective=effective, dove_enabled=scenario.dove is not Dove.OFF
    )
