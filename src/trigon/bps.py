"""BPS spectra: finite maps charge -> integer count.

The two example spectra are built in; arbitrary spectra can be loaded
from JSON ({"entries": [{"charge": [...], "omega": n}, ...]}).  The only
structural requirement used downstream is the symmetry Omega(g) =
Omega(-g).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .curve import Charge, as_integer, read_json
from .errors import RayCollision, ValidationError

_PENTAGON_POSITIVE = [(1, 0), (0, 1), (1, 1)]

_HEXAGON_POSITIVE = [
    (1, 0, 0, 0), (0, -1, -1, -1), (-1, 1, 1, 1),
    (0, 1, 0, 0), (1, -1, -1, 0), (-1, 0, 1, 0),
    (0, -1, -1, 0), (1, 0, -1, -1), (-1, 1, 2, 1),
    (1, 1, 0, 0), (1, -2, -2, -1), (-2, 1, 2, 1),
]


class BpsSpectrum:
    """Finite map Charge -> Omega, zero entries dropped.

    Every charge has the one rank given, or, with rank None, the rank of
    the first charge; a charge of another rank raises ValidationError.
    """

    def __init__(self, entries, rank=None):
        self.entries = {}
        for ch, om in (entries.items() if isinstance(entries, dict) else entries):
            ch = ch if isinstance(ch, Charge) else Charge(ch)
            om = as_integer(om, "Omega")
            if om == 0:
                continue
            rank = len(ch) if rank is None else rank
            if len(ch) != rank:
                raise ValidationError(
                    f"charge {ch} has wrong rank (expected {rank})")
            self.entries[ch] = om
        if not self.entries:
            raise ValidationError("empty spectrum")
        self.rank = rank

    def omega(self, gamma):
        gamma = gamma if isinstance(gamma, Charge) else Charge(gamma)
        return self.entries.get(gamma, 0)

    def charges(self):
        return sorted(self.entries, key=lambda c: c.components)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.charges())

    def validate(self):
        """Symmetry report: the human-readable violations of
        Omega(g) = Omega(-g) (none = ok)."""
        return SpectrumReport(violations=[
            f"Omega({ch}) = {om} but Omega({-ch}) = {self.omega(-ch)}"
            for ch, om in self.entries.items() if self.omega(-ch) != om])

    def to_json(self):
        return {
            "schema_version": 1,
            "entries": [{"charge": list(ch.components), "omega": om}
                        for ch, om in sorted(self.entries.items(),
                                             key=lambda t: t[0].components)],
        }

    @classmethod
    def from_json(cls, doc):
        """The spectrum in a JSON document, its symmetry unchecked; another
        schema_version, a missing key, or a document of the wrong shape
        raises ValidationError."""
        if not isinstance(doc, dict) or doc.get("schema_version") != 1:
            raise ValidationError("unsupported spectrum schema_version")
        try:
            return cls([(e["charge"], e["omega"]) for e in doc["entries"]])
        except KeyError as exc:
            raise ValidationError(f"spectrum document lacks the key {exc}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed spectrum document: {exc}") from None

    @classmethod
    def load(cls, path):
        """The spectrum in the JSON file at path; one that fails the
        symmetry Omega(g) = Omega(-g) raises ValidationError."""
        spec = cls.from_json(read_json(path))
        rep = spec.validate()
        if rep.violations:
            raise ValidationError(
                "spectrum fails symmetry validation: " + "; ".join(rep.violations))
        return spec


@dataclass
class SpectrumReport:
    violations: list

    @property
    def ok(self):
        return not self.violations


def builtin_spectrum(example):
    """The built-in spectrum of one of the shipped examples.

    pentagon: 6 charges, hexagon: 24 charges, every count equal to 1.
    """
    if example == "pentagon":
        pos = _PENTAGON_POSITIVE
    elif example == "hexagon":
        pos = _HEXAGON_POSITIVE
    else:
        raise ValidationError(f"no built-in spectrum named {example!r}")
    entries = {}
    for ch in pos:
        entries[Charge(ch)] = 1
        entries[Charge(tuple(-c for c in ch))] = 1
    return BpsSpectrum(entries)


def spectrum_from_webs(webs, rank):
    """Harvest a spectrum from detected finite webs.

    Each web contributes a count of 1 to its charge; the antipodal charge
    is filled in by the Omega(-g) = Omega(g) symmetry, so a half-circle
    sweep already yields the symmetric spectrum.
    """
    entries = {}
    for w in webs:
        entries[w.charge] = 1
        entries[-w.charge] = 1
    return BpsSpectrum(entries, rank=rank)


# rays closer than this in phase collide (see active_rays)
RAY_COLLISION_TOL = 1e-6


@dataclass
class Ray:
    """An active integration ray in the auxiliary plane."""

    charge: Charge
    Z: complex
    phase: float          # arg of alpha = -Z/|Z|

    @property
    def alpha(self):
        return -self.Z / abs(self.Z)

    @property
    def absZ(self):
        return abs(self.Z)


def active_rays(spectrum, period_map, pairing=None):
    """One ray per spectrum charge, sorted by phase.

    Raises RayCollision when two rays whose charges do not commute under
    the pairing come within RAY_COLLISION_TOL in phase: there the
    iteration as written is ill-defined (a wall configuration).
    """
    rays = []
    for ch in spectrum.charges():
        Z = period_map.Z(ch)
        if Z == 0:
            raise ValidationError(f"charge {ch} has vanishing period")
        rays.append(Ray(charge=ch, Z=Z, phase=cmath.phase(-Z / abs(Z))))
    rays.sort(key=lambda r: r.phase)
    if pairing is not None:
        n = len(rays)
        for i in range(n):
            j = (i + 1) % n
            gap = rays[j].phase - rays[i].phase
            if j == 0:
                gap += 2 * math.pi
            if gap < RAY_COLLISION_TOL and pairing(rays[i].charge, rays[j].charge) != 0:
                raise RayCollision(
                    f"rays of {rays[i].charge} and {rays[j].charge} collide "
                    f"at phase {rays[i].phase:.8f}")
    return rays
