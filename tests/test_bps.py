import math

import pytest

from trigon.bps import BpsSpectrum, Ray, active_rays, builtin_spectrum, \
    spectrum_from_webs
from trigon.curve import Charge, PeriodMap
from trigon.errors import RayCollision, ValidationError


def test_pentagon_builtin():
    spec = builtin_spectrum("pentagon")
    assert len(spec) == 6
    for comps in [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]:
        assert spec.omega(Charge(comps)) == 1
    assert spec.omega(Charge((2, 0))) == 0
    assert spec.omega(Charge((1, -1))) == 0


def test_hexagon_builtin():
    spec = builtin_spectrum("hexagon")
    assert len(spec) == 24
    assert spec.omega(Charge((1, 0, 0, 0))) == 1
    assert spec.omega(Charge((-2, 1, 2, 1))) == 1
    assert spec.omega(Charge((2, -1, -2, -1))) == 1
    assert spec.omega(Charge((0, 0, 1, 0))) == 0
    assert spec.omega(Charge((1, 1, 1, 1))) == 0


def test_unknown_builtin():
    with pytest.raises(ValidationError):
        builtin_spectrum("heptagon")


def test_validate_builtins():
    for name in ("pentagon", "hexagon"):
        rep = builtin_spectrum(name).validate()
        assert rep.ok


def test_validate_detects_asymmetry():
    spec = BpsSpectrum({Charge((1, 0)): 1})
    rep = spec.validate()
    assert not rep.ok
    assert any("(-1,0)" in v for v in rep.violations)


def test_spectrum_json_roundtrip(tmp_path):
    spec = builtin_spectrum("hexagon")
    path = tmp_path / "spec.json"
    import json

    path.write_text(json.dumps(spec.to_json()))
    again = BpsSpectrum.load(path)
    assert set(again.charges()) == set(spec.charges())


def test_spectrum_json_rejects_asymmetric(tmp_path):
    import json

    doc = {"schema_version": 1,
           "entries": [{"charge": [1, 0], "omega": 1}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        BpsSpectrum.load(path)


def test_empty_spectrum_rejected():
    with pytest.raises(ValidationError):
        BpsSpectrum({Charge((1, 0)): 0})


@pytest.mark.parametrize("value", [1.5, True, math.nan])
def test_non_integer_omega_and_charge_rejected(value):
    # a count or a charge component that is not an integer is refused,
    # not truncated
    with pytest.raises(ValidationError):
        BpsSpectrum({(1, 0): value, (-1, 0): value})
    with pytest.raises(ValidationError):
        Charge([value, 0])


def test_spectrum_from_webs_completes_symmetry():
    class FakeWeb:
        def __init__(self, comps):
            self.charge = Charge(comps)

    spec = spectrum_from_webs([FakeWeb((1, 0)), FakeWeb((0, 1))], rank=2)
    assert spec.omega(Charge((-1, 0))) == 1
    assert len(spec) == 4


# ---------------- rays ----------------

def test_pentagon_ray_pattern(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    rays = active_rays(spec, pentagon_pm, pentagon.lattice.pairing)
    assert len(rays) == 6
    phases = [r.phase for r in rays]
    assert phases == sorted(phases)
    # -pi/6 + k pi/3 pattern
    want = [-5 * math.pi / 6, -math.pi / 2, -math.pi / 6,
            math.pi / 6, math.pi / 2, 5 * math.pi / 6]
    assert max(abs(p - w) for p, w in zip(phases, want)) < 1e-4


def test_antipodal_rays(pentagon, pentagon_pm):
    spec = builtin_spectrum("pentagon")
    rays = {r.charge.components: r for r in
            active_rays(spec, pentagon_pm, pentagon.lattice.pairing)}
    for comps, r in rays.items():
        anti = rays[tuple(-c for c in comps)]
        gap = abs((r.phase - anti.phase + math.pi) % (2 * math.pi))
        assert min(gap, 2 * math.pi - gap) < 1e-12


def test_hexagon_gamma1_ray_at_pi(hexagon, hexagon_pm):
    spec = builtin_spectrum("hexagon")
    rays = active_rays(spec, hexagon_pm, hexagon.lattice.pairing)
    g1 = [r for r in rays if r.charge.components == (1, 0, 0, 0)]
    assert len(g1) == 1
    assert abs(abs(g1[0].phase) - math.pi) < 1e-6


def test_ray_collision_detected():
    # synthetic periods with two non-commuting charges on the same ray
    pm = PeriodMap([1.0 + 0j, 2.0 + 0j])
    spec = BpsSpectrum({Charge((1, 0)): 1, Charge((-1, 0)): 1,
                        Charge((0, 1)): 1, Charge((0, -1)): 1})

    def pairing(a, b):
        M = [[0, 1], [-1, 0]]
        return sum(a.components[i] * M[i][j] * b.components[j]
                   for i in range(2) for j in range(2))

    with pytest.raises(RayCollision):
        active_rays(spec, pm, pairing)
    # without the pairing no collision check runs
    rays = active_rays(spec, pm, None)
    assert len(rays) == 4


def test_zero_period_rejected():
    pm = PeriodMap([1.0 + 0j, -1.0 + 0j])
    spec = BpsSpectrum({Charge((1, 1)): 1, Charge((-1, -1)): 1})
    with pytest.raises(ValidationError):
        active_rays(spec, pm, None)


def test_ray_fields(pentagon_pm):
    r = Ray(charge=Charge((1, 0)), Z=pentagon_pm.Z(Charge((1, 0))),
            phase=0.0)
    assert abs(r.absZ - abs(pentagon_pm.Z(Charge((1, 0))))) < 1e-15
    assert abs(abs(r.alpha) - 1.0) < 1e-15
