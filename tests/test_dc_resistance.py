"""DC resistance of the reference winding against the closed form of its turns in series.

At DC no field acts, so a conductance ``G`` gives the terminal resistance
``R(G) = c^T G^-1 c``.  Turn ``k`` of the winding is a foil of width
``lambda p`` and height ``H`` at mean radius ``r_k = r_i + (k + 1/2) p``; the
``N`` turns in series give

    R_dc = sum_{k<N} 2 pi r_k / (sigma_c lambda p H).

A voltage basis that spans the profiles linear in ``r`` reproduces it.  Every
basis of two or more functions does; the single constant function (the
solid-conductor limit, which reads 4.41 % below ``R_dc``) lies outside the
closed form, because it holds every turn at one voltage rather than chaining
them in series.
"""

import math
from functools import cache

import numpy as np
import pytest

from foilfem.errors import ValidationError
from foilfem.experiments import ExperimentConfig, build_mesh, build_system, build_winding_spec
from foilfem.winding import BASIS_FAMILIES, VoltageBasis, assemble_c, assemble_G_exact, winding_nodes

SPEC = build_winding_spec(ExperimentConfig())
EXACT = 1e-12  # relative distance of R(G) from R_dc that counts as the closed form
ORDER = 1e-14  # relative slack of the ordering R(G_e) >= R(G) >= R_dc


def series_resistance(spec) -> float:
    r = spec.inner_radius + (np.arange(spec.n_turns) + 0.5) * spec.foil_pitch
    width = spec.fill_factor * spec.foil_pitch
    return float(np.sum(2.0 * math.pi * r / (spec.sigma_c * width * spec.height)))


R_DC = series_resistance(SPEC)


def resistance(g, c) -> float:
    return float(c @ np.linalg.solve(g, c))


def relative_error(g, c) -> float:
    return resistance(g, c) / R_DC - 1.0


@cache
def mesh(level):
    return build_mesh(ExperimentConfig(), level)


@cache
def system(level, family, n_basis):
    return build_system(ExperimentConfig(basis_family=family, n_basis=n_basis), mesh(level))[0]


def kinks_are_ticks(level, n_basis) -> bool:
    """Whether every hat node ``alpha = -1 + 2 l / (n - 1)`` sits on a radial mesh tick."""
    alphas = SPEC.alpha_normalized(mesh(level).nodes[winding_nodes(mesh(level)), 0])
    return all(np.min(np.abs(alphas - kink)) <= 1e-9 for kink in np.linspace(-1.0, 1.0, n_basis))


def test_reference_value():
    assert R_DC == pytest.approx(9.162978572970229e-3, rel=1e-14)


@pytest.mark.parametrize("family", BASIS_FAMILIES)
@pytest.mark.parametrize("n_basis", range(2, 8))
def test_exact_conductance_is_the_closed_form(family, n_basis):
    basis = VoltageBasis(n_basis, family=family)
    assert abs(relative_error(assemble_G_exact(SPEC, basis), assemble_c(SPEC.n_turns, basis))) <= EXACT


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("n_basis", range(2, 7))
def test_legendre_conductances_are_the_closed_form(level, n_basis):
    s = system(level, "legendre", n_basis)
    assert abs(relative_error(s.G, s.c)) <= EXACT
    assert abs(relative_error(s.G_e, s.c)) <= EXACT


def test_hat_basis_beyond_the_coarse_mesh_is_named():
    with pytest.raises(ValidationError) as err:
        system(0, "hat", 7)
    assert err.value.key == "n_basis"


@pytest.mark.parametrize(
    "level, n_basis",
    [(level, n) for level in range(4) for n in range(2, 8) if (level, n) != (0, 7)],
)
def test_hat_conductances_are_the_closed_form_exactly_when_the_kinks_are_ticks(level, n_basis):
    s = system(level, "hat", n_basis)
    if kinks_are_ticks(level, n_basis):
        assert abs(relative_error(s.G, s.c)) <= EXACT
        assert abs(relative_error(s.G_e, s.c)) <= EXACT
    else:
        r_quad, r_e = resistance(s.G, s.c), resistance(s.G_e, s.c)
        assert r_quad > R_DC * (1.0 + EXACT)
        assert r_e >= r_quad * (1.0 - ORDER)


def test_fig5_coarse_run_overstates_the_resistance():
    # level 0 with five hats, fig5's coarse mesh: the kinks at alpha = -1/2 and 1/2 are no ticks
    s = system(0, "hat", 5)
    assert relative_error(s.G, s.c) == pytest.approx(6.765e-3, rel=1e-3)
    assert relative_error(s.G_e, s.c) == pytest.approx(1.778, rel=1e-3)
