"""Timestamped observation events consumed by the fusion engine."""

from __future__ import annotations

import math
from dataclasses import dataclass

LOS = "LOS"
NLOS = "NLOS"


@dataclass(frozen=True)
class Range:
    """Two-way ranging / ToA measurement to a terrestrial anchor, meters."""

    anchor_id: str
    value: float


@dataclass(frozen=True)
class RangeDifference:
    """TDoA range difference between two references, meters."""

    ref_a_id: str
    ref_b_id: str
    value: float


@dataclass(frozen=True)
class Angle:
    """AoA bearing from the object to an anchor, radians."""

    anchor_id: str
    value: float


@dataclass(frozen=True)
class SatelliteObservation:
    """Corrected pseudorange plus predicted visibility for one satellite."""

    sat_id: str
    position: tuple[float, float, float]
    pseudorange: float
    visibility: str = LOS

    def __post_init__(self):
        if self.visibility not in (LOS, NLOS):
            raise ValueError(f"visibility must be LOS or NLOS, got {self.visibility!r}")
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))


@dataclass(frozen=True)
class GnssPseudoranges:
    """One GNSS epoch: pseudoranges to all tracked satellites."""

    satellites: tuple[SatelliteObservation, ...]

    def __post_init__(self):
        object.__setattr__(self, "satellites", tuple(self.satellites))


@dataclass(frozen=True)
class Odometry:
    """Speed over ground (m/s) and heading (radians)."""

    speed: float
    heading: float


Payload = Range | RangeDifference | Angle | GnssPseudoranges | Odometry


@dataclass(frozen=True)
class Observation:
    timestamp: float
    payload: Payload

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValueError("observation timestamp must be finite")

