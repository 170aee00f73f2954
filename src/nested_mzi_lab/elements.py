"""Optical elements as pure field operators, the per-mirror table and the prism placement.

Mirror tilts act as linear phase ramps, Dove prisms as transverse parity, and
the beam splitters enter only through the pre- and post-selected path states
of the collected output port, whose per-path products give each unfolded
path's net amplitude.  The model is 1-D in the interferometer plane, so the
y-oriented prisms of the two reference legs reduce to the identity and only
the x-oriented prism in the leg through mirror A survives.  Dove says where
the prisms sit: absent, or before or after the inner mirrors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cache
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, PostSelectionError, RegimeError
from .fields import TransverseField, parity_x

MAX_TILT = 1e-3  # paraxial guard on any single mirror angle, rad


class Mirror(Enum):
    A = "A"
    B = "B"
    C = "C"
    E = "E"
    F = "F"


_MIRRORS = tuple(Mirror)  # iterating the enum itself is several times slower
_INDEX = {mirror: i for i, mirror in enumerate(_MIRRORS)}
_ZEROS = (0.0,) * len(_MIRRORS)


class MirrorTable(tuple):
    """One finite float per mirror, in Mirror order, indexed by Mirror.

    An immutable, hashable tuple, so tables sit inside frozen scenarios and
    protocols and key the engine's caches.  name is the quantity's key
    prefix (z, alpha, amp, freq), used only in error messages.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[float] = _ZEROS, name: str = "value") -> MirrorTable:
        table = super().__new__(cls, map(float, values))
        if len(table) != len(_MIRRORS):
            raise ConfigError(f"{name} needs one value per mirror, got {len(table)}")
        if not all(map(math.isfinite, table)):
            mirror, value = next((m, v) for m, v in table.items() if not math.isfinite(v))
            raise ConfigError(f"{name}_{mirror.value} = {value!r} is not finite")
        return table

    def __getitem__(self, mirror: Mirror) -> float:
        return tuple.__getitem__(self, _INDEX[mirror])

    def items(self) -> Iterator[tuple[Mirror, float]]:
        return zip(_MIRRORS, self)

    @classmethod
    def single(cls, mirror: Mirror, value: float) -> MirrorTable:
        """Table with value at one mirror and zero at the rest."""
        return cls(value if m is mirror else 0.0 for m in _MIRRORS)


class TiltSet(MirrorTable):
    """Signed small tilt angle of each mirror (rad) at one instant."""

    __slots__ = ()

    def __new__(cls, values: Iterable[float] = _ZEROS, name: str = "alpha") -> TiltSet:
        tilts = super().__new__(cls, values, name)
        if not max(map(abs, tilts)) < MAX_TILT:
            mirror, value = next((m, v) for m, v in tilts.items() if not abs(v) < MAX_TILT)
            raise ConfigError(
                f"tilt of mirror {mirror.value} is {value:g} rad, "
                f"outside the paraxial guard |alpha| < {MAX_TILT:g}"
            )
        return tilts


class TiltBlock(tuple):
    """T tilt sets at once: one (T,) column of angles (rad) per mirror, indexed by Mirror.

    Row r of the columns is the tilt set of row r of the field block the
    numeric engine traces.  The angles are taken as given: apply_tilt guards
    every entry, so a bad angle fails as loudly in a block as alone.
    """

    __slots__ = ()

    def __new__(cls, columns: Iterable[np.ndarray]) -> TiltBlock:
        block = super().__new__(cls, (np.asarray(c, dtype=np.float64) for c in columns))
        shapes = {column.shape for column in block}
        if len(block) != len(_MIRRORS) or len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ConfigError("a tilt block needs one (T,) column per mirror, all of one length")
        return block

    __getitem__ = MirrorTable.__getitem__

    @property
    def rows(self) -> int:
        return len(tuple.__getitem__(self, 0))


class Path(Enum):
    """The three unfolded source-to-detector paths."""

    EAF = "EAF"
    EBF = "EBF"
    C = "C"


#: The apparatus topology: the mirrors each unfolded path meets, from source
#: to detector.  The outer loop enters at E, splits over the inner mirrors A
#: and B and recombines toward F; the reference leg passes C.
PATH_MIRRORS: Mapping[Path, tuple[Mirror, ...]] = MappingProxyType({
    Path.EAF: (Mirror.E, Mirror.A, Mirror.F),
    Path.EBF: (Mirror.E, Mirror.B, Mirror.F),
    Path.C: (Mirror.C,),
})


class Dove(Enum):
    """Where the Dove prisms sit: absent, or before or after the inner mirrors A and B."""

    OFF = "off"
    BEFORE = "before"
    AFTER = "after"


@cache
def path_elements(dove: Dove, path: Path) -> tuple[tuple[Mirror, bool], ...]:
    """Ordered (mirror, prism) elements of one unfolded path, source to detector.

    Each mirror of PATH_MIRRORS contributes its tilt, (mirror, False).  With
    the prisms in, the x-oriented prism, (A, True), sits at mirror A's plane
    before or after A's tilt as dove says; the y-oriented prism in the leg
    through B is the identity in 1-D.
    """
    elements = [(mirror, False) for mirror in PATH_MIRRORS[path]]
    if dove is not Dove.OFF and Mirror.A in PATH_MIRRORS[path]:
        after = dove is Dove.AFTER
        elements.insert(elements.index((Mirror.A, False)) + after, (Mirror.A, True))
    return tuple(elements)


def apply_tilt(f: TransverseField, alpha: float | np.ndarray) -> TransverseField:
    """Mirror tilt by alpha: multiply by the momentum-kick phase exp(i k alpha x).

    Norm and centroid at the element plane are unchanged; the beam picks up
    the transverse momentum k*alpha.  alpha is one angle, or a (T,) column
    giving row r of the result the angle alpha[r] (a one-row f broadcasts to
    T rows).  An all-zero alpha returns f itself.
    """
    a = np.asarray(alpha)
    if np.count_nonzero(abs(a) < MAX_TILT) < a.size:
        value = next(v for v in np.atleast_1d(a).tolist() if not abs(v) < MAX_TILT)
        raise RegimeError(f"tilt angle {value:g} rad outside |alpha| < {MAX_TILT:g}")
    if not np.count_nonzero(a):
        return f
    ramp = np.exp(1j * f.k * a[..., None] * f.grid.xs)
    return TransverseField(f.grid, f.amplitude * ramp, f.k)


def apply_dove_x(f: TransverseField) -> TransverseField:
    """Dove prism oriented in the interferometer plane: parity in x and k_x.

    Identical to parity_x; named for the element so scenario assembly reads
    like the apparatus.  Path-length and internal-reflection phases are
    compensated across legs and therefore dropped.
    """
    return parity_x(f)


class OutputPort(Enum):
    """Which port the final beam splitter collects.

    BRIGHT is the standard arrangement: the inner interferometer is aligned
    dark toward mirror F, so the aligned inner contributions cancel at the
    detector.  ALTERNATE_INNER_PORT models the final splitter shifted to
    capture the inner interferometer's other (bright) output instead.
    """

    BRIGHT = "bright"
    ALTERNATE_INNER_PORT = "alternate"


@dataclass(frozen=True)
class PathState:
    """Normalized complex amplitudes over the path basis (A, B, C)."""

    amplitudes: tuple[complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        nrm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        if abs(nrm - 1.0) > 1e-12:
            raise ConfigError(f"path state norm {nrm!r} differs from 1 by more than 1e-12")

    def as_array(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=np.complex128)


@dataclass(frozen=True)
class TwoStateVector:
    """Forward-evolving ket and backward-evolving bra over the path basis.

    The bra is stored as the printed row of coefficients (not conjugated);
    the overlap convention <Phi|Psi> = sum_j post_j * pre_j together with the
    known projector weak values pins this choice.
    """

    pre: PathState
    post: PathState

    def __post_init__(self) -> None:
        if abs(self.overlap) <= 1e-12:
            raise PostSelectionError("post-selection orthogonal to the prepared state")

    @property
    def overlap(self) -> complex:
        return complex(np.dot(self.post.as_array(), self.pre.as_array()))


def paper_two_state_vector() -> TwoStateVector:
    """The canonical pre/post pair of the bright-port experiment.

    Pre and post both read (1, i, -1)/sqrt(3) over (A, B, C); their overlap
    is 1/3.
    """
    r = 1.0 / math.sqrt(3.0)
    state = PathState((r, 1j * r, -r))
    return TwoStateVector(pre=state, post=state)


def two_state_vector_for_port(port: OutputPort) -> TwoStateVector:
    """Two-state vector implied by the collected output port.

    The alternate port keeps the prepared state; its bra flips the sign of
    the B and C coefficients, so its path products post_j * pre_j give
    same-sign inner arms and an opposite-sign reference leg.
    """
    if port is OutputPort.BRIGHT:
        return paper_two_state_vector()
    r = 1.0 / math.sqrt(3.0)
    return TwoStateVector(
        pre=PathState((r, 1j * r, -r)),
        post=PathState((r, -1j * r, r)),
    )


@cache
def port_amplitudes(port: OutputPort) -> Mapping[Path, float]:
    """Net path amplitudes at the collected port (unit total probability).

    Each unfolded path (EAF, EBF, C, matching the basis A, B, C) carries
    amplitude_j proportional to p_j = post_j * pre_j of the port's two-state
    vector.  Both ports have real, equal-magnitude products, for which the
    signed sqrt(|p_j| / sum |p|) is their L2 normalisation; this form rounds
    to exactly +-1/sqrt(3).  The read-only result is cached per port, since
    the numeric engine asks for it on every call.
    """
    tsv = two_state_vector_for_port(port)
    products = [post * pre for post, pre in zip(tsv.post.amplitudes, tsv.pre.amplitudes)]
    total = sum(abs(p) for p in products)
    return MappingProxyType({
        path: math.copysign(math.sqrt(abs(p) / total), p.real)
        for path, p in zip(Path, products)
    })
