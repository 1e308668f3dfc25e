"""The test functions the sequences and the identity check run on: the start
sqrt(nu(x, D)) of the lower sequence, its powers, and the panel slopes
against the scale measure that the single-integral identity divides by."""

import dataclasses

import numpy as np
import pytest

from eigenbound import iterate, measures, oracle
from eigenbound.errors import DegenerationError, DomainError


class TestSeedFunction:
    def test_nd_is_scale_tail(self, lap_nd):
        assert lap_nd.nu_tail == pytest.approx(1 - lap_nd.grid, abs=1e-12)
        # scale density one: the seed falls by one per unit length
        assert lap_nd.dnu == pytest.approx(np.diff(lap_nd.grid), rel=1e-12)

    def test_dn_is_scale_head(self, lap_dn):
        # the DN seed is the ND one of the mirror, read back node by node
        m = lap_dn.mirrored()
        assert m.nu_tail[::-1] == pytest.approx(lap_dn.grid, abs=1e-12)
        assert m.dnu[::-1] == pytest.approx(np.diff(lap_dn.grid), rel=1e-12)

    def test_no_seed_on_an_overflowed_tail(self):
        # the seed is the scale tail; a tail over the float range is refused
        # where the table is built, so no seed is ever made from it
        p = measures.make_problem(preset="ou", D=40.0, case="ND", grid_size=256)
        with pytest.raises(DegenerationError, match="scale-measure mass over"):
            measures.build_tables(p, 40.0)


class TestPower:
    def test_sqrt_of_tail(self, lap_nd):
        f = np.sqrt(lap_nd.nu_tail)
        assert np.array_equal(f, lap_nd.nu_tail**0.5)
        i = len(lap_nd.grid) // 2
        x = lap_nd.grid[i]
        assert f[i] == pytest.approx(np.sqrt(1 - x), rel=1e-10)
        # its slope against nu on the panel right of x_i
        mid = 0.5 * (x + lap_nd.grid[i + 1])
        assert (f[i] - f[i + 1]) / lap_nd.dnu[i] == pytest.approx(1 / (2 * np.sqrt(1 - mid)), rel=1e-6)

    def test_zero_interior_value_rejected(self, lap_nd):
        # a scale tail with no mass left at interior nodes: the lower
        # sequence's start, its square root, vanishes there
        tail = lap_nd.nu_tail.copy()
        tail[-100:-1] = 0.0
        with pytest.raises(DomainError, match="not positive at interior node"):
            iterate.lower_sequence("ND", dataclasses.replace(lap_nd, nu_tail=tail), 3)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("gamma", [1.0, 0.7, 0.5])
    def test_divided_differences_match_analytic(self, ou_nd_3, gamma):
        # the tail column T and the cumulant column agree: dT/dx = -e^{-C}
        x, tail = ou_nd_3.grid, ou_nd_3.nu_tail
        v = tail**gamma
        with np.errstate(divide="ignore"):
            deriv = -gamma * tail ** (gamma - 1.0) * np.exp(-ou_nd_3.Cvals)
        mid = (v[2:] - v[:-2]) / (x[2:] - x[:-2])
        inner = slice(1, -1)
        # stay away from the right endpoint where fractional powers cusp
        keep = x[inner] < 2.7
        scale = np.max(np.abs(deriv[inner][keep]))
        err = np.max(np.abs(mid[keep] - deriv[inner][keep]))
        assert err <= 5e-5 * scale

    def test_gradient_second_order(self):
        # the panel slopes g[k] - g[k+1] over dnu[k] that the single-integral
        # identity divides by, on the laplacian ND eigenfunction cos(pi x/2)
        p = measures.make_problem(preset="laplacian", D=1.0, case="ND")
        errs = []
        for n in (200, 400):
            sol = oracle.fd_eigensolve(p, n)
            g, x = sol.eigenfunction, sol.table.grid
            slope = (g[:-1] - g[1:]) / sol.table.dnu
            exact = 0.5 * np.pi * np.sin(0.25 * np.pi * (x[:-1] + x[1:]))
            errs.append(np.max(np.abs(slope - exact)))
        assert errs[1] <= 2e-3
        assert errs[0] / errs[1] >= 3.5


class TestMirroredFunction:
    @pytest.mark.parametrize("fixture", ["lap_nd", "ou_dn_4"])
    def test_round_trip(self, fixture, request):
        table = request.getfixturevalue(fixture)
        back = table.mirrored().mirrored()
        assert np.array_equal(np.sqrt(back.nu_tail), np.sqrt(table.nu_tail))
        assert np.array_equal(back.dnu, table.dnu)
        # x -> D - (D - x) rounds twice
        assert np.max(np.abs(back.grid - table.grid)) <= 4 * np.finfo(float).eps * table.right_end

    def test_mirror_reverses_nodes_and_slope(self, ou_dn_4):
        # the start on the mirror is the scale head here, node M - k at k,
        # and the panel masses it falls by come in reverse order
        m = ou_dn_4.mirrored()
        assert np.array_equal(m.nu_tail, ou_dn_4.nu_cum[::-1])
        assert np.array_equal(m.dnu, ou_dn_4.dnu[::-1])
        assert np.array_equal(m.grid, ou_dn_4.right_end - ou_dn_4.grid[::-1])
