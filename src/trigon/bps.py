"""BPS spectra: finite maps charge -> integer count.

The two example spectra are built in; arbitrary spectra can be loaded
from JSON ({"entries": [{"charge": [...], "omega": n}, ...]}).  The only
structural requirement used downstream is the symmetry Omega(g) =
Omega(-g); an optional Z/3 action matrix can be supplied for the cyclic
symmetry check, but is not reconstructed here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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
    """Finite map Charge -> Omega, zero entries dropped."""

    def __init__(self, entries, rank=None):
        self.entries = {}
        for ch, om in (entries.items() if isinstance(entries, dict) else entries):
            ch = ch if isinstance(ch, Charge) else Charge(ch)
            om = as_integer(om, "Omega")
            if om == 0:
                continue
            if rank is not None and len(ch) != rank:
                raise ValidationError(
                    f"charge {ch} has wrong rank (expected {rank})")
            self.entries[ch] = om
        if not self.entries:
            raise ValidationError("empty spectrum")
        self.rank = rank if rank is not None else len(next(iter(self.entries)))

    def omega(self, gamma):
        gamma = gamma if isinstance(gamma, Charge) else Charge(gamma)
        return self.entries.get(gamma, 0)

    def charges(self):
        return sorted(self.entries, key=lambda c: c.components)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.charges())

    def validate(self, z3_action=None):
        """Symmetry report: list of human-readable violations (empty = ok).

        Checks Omega(g) = Omega(-g) always; checks invariance under the
        Z/3 action when its integer matrix on the lattice is supplied,
        otherwise reports that check as skipped.
        """
        report = []
        for ch, om in self.entries.items():
            if self.omega(-ch) != om:
                report.append(
                    f"Omega({ch}) = {om} but Omega({-ch}) = {self.omega(-ch)}")
        if z3_action is None:
            report_status = "Z/3 action not supplied: not checked"
            return SpectrumReport(violations=report, z3=report_status)
        A = np.asarray(z3_action, dtype=int)
        if np.any(np.linalg.matrix_power(A, 3) != np.eye(self.rank, dtype=int)):
            report.append("supplied Z/3 action matrix does not cube to identity")
        else:
            for ch, om in self.entries.items():
                img = Charge(A @ np.asarray(ch.components))
                if self.omega(img) != om:
                    report.append(
                        f"Omega({ch}) = {om} but Omega({img}) = {self.omega(img)}")
        return SpectrumReport(violations=report, z3="checked")

    def to_json(self):
        return {
            "schema_version": 1,
            "entries": [{"charge": list(ch.components), "omega": om}
                        for ch, om in sorted(self.entries.items(),
                                             key=lambda t: t[0].components)],
        }

    @classmethod
    def from_entries(cls, doc):
        """The spectrum a document's entries list, its symmetry unchecked;
        a missing key, or a document of the wrong shape, raises
        ValidationError."""
        try:
            return cls([(e["charge"], e["omega"]) for e in doc["entries"]])
        except KeyError as exc:
            raise ValidationError(f"spectrum document lacks the key {exc}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed spectrum document: {exc}") from None

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict) or doc.get("schema_version") != 1:
            raise ValidationError("unsupported spectrum schema_version")
        spec = cls.from_entries(doc)
        rep = spec.validate()
        if rep.violations:
            raise ValidationError(
                "spectrum fails symmetry validation: " + "; ".join(rep.violations))
        return spec

    @classmethod
    def load(cls, path):
        return cls.from_json(read_json(path))


@dataclass
class SpectrumReport:
    violations: list
    z3: str

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
