import dataclasses
import functools
import itertools

import numpy as np
import pytest

import conftest as C
from eigenbound import bounds, iterate, measures, oracle
from eigenbound.errors import DegenerationError, DomainError


def brute_force_lower_constants(n_max: int, nodes: int = 20001) -> list[float]:
    """Dense uniform-grid iteration for the Laplacian on (0,1), fully
    independent of the adaptive tables (plain trapezoid everywhere)."""
    x = np.linspace(0.0, 1.0, nodes)
    dx = x[1] - x[0]
    f = np.sqrt(1 - x)
    out = []
    for _ in range(n_max):
        F = np.concatenate([[0.0], np.cumsum(0.5 * (f[:-1] + f[1:]) * dx)])
        G = np.concatenate([np.cumsum((0.5 * (F[:-1] + F[1:]) * dx)[::-1])[::-1], [0.0]])
        out.append(float(np.max(G[1:-1] / f[1:-1])))
        f = G / np.max(G)
    return out


class TestMonotoneVerdict:
    def test_rise_then_fall_beyond_the_slack_is_mixed(self):
        assert iterate.monotone_verdict([1.0, 2.0, 1.5], 1e-6) == "mixed"


class TestLowerSequence:
    def test_laplacian_against_independent_brute_force(self, lap_nd):
        trace = iterate.lower_sequence("ND", lap_nd, 3)
        brute = brute_force_lower_constants(3)
        assert trace.values == pytest.approx(brute, rel=2e-4)
        # frozen closed forms for the first two constants
        assert trace.values[0] == pytest.approx(C.DELTA1_LAPLACIAN, rel=1e-5)
        assert trace.values[1] == pytest.approx(C.DELTA2_LAPLACIAN, rel=1e-5)
        assert trace.values[2] == pytest.approx(C.DELTA3_LAPLACIAN, rel=1e-4)

    @pytest.mark.parametrize("case,fixture", [
        ("ND", "lap_nd"), ("DN", "lap_dn"), ("ND", "quad_nd"), ("DN", "ou_dn_8"),
    ])
    def test_non_increasing_and_bounded_below(self, case, fixture, request):
        table = request.getfixturevalue(fixture)
        trace = iterate.lower_sequence(case, table, 5)
        eps = table.problem.tolerances.bound_refine
        assert trace.monotonicity in ("non-increasing", "constant")
        for a, b in zip(trace.values, trace.values[1:]):
            assert b <= a + 10 * eps
        d, _ = bounds.delta(case, table)
        assert trace.values[0] <= 4 * d + 10 * eps

    @pytest.mark.parametrize("case,fixture", [("ND", "lap_nd"), ("DN", "lap_dn")])
    def test_delta1_pins_its_closed_form_from_below(self, case, fixture, request):
        # the laplacian's delta1 is (5/8)^(1/3)/2; the node sup of the
        # step-1 ratio reads it 1.6e-7 low
        d1 = bounds.compute_report(case, request.getfixturevalue(fixture)).delta1
        assert -1e-6 <= d1 / C.DELTA1_LAPLACIAN - 1 < 0

    def test_renormalization_invariance(self, lap_nd):
        # the double-integral transform is scale-invariant, so iterating the
        # products unnormalized gives the renormalized sequence's constants
        eps = lap_nd.problem.tolerances.bound_refine
        with_norm = iterate.lower_sequence("ND", lap_nd, 4)
        f = np.sqrt(lap_nd.nu_tail)
        without = []
        for _ in range(4):
            product = measures.suffix_integral(lap_nd, measures.prefix_integral(lap_nd, f, "mu"), "nu")
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = product / f
            without.append(float(np.max(ratio[(f > 0) & np.isfinite(ratio)])))
            f = product
        assert with_norm.values == pytest.approx(without, abs=10 * eps)

    def test_degenerate_criterion_refused(self):
        # the overflowed scale tail is refused at the build, before any seed
        p = measures.make_problem(preset="ou", D=40.0, case="ND", grid_size=256)
        with pytest.raises(DegenerationError, match="scale-measure mass over"):
            measures.build_tables(p, 40.0)

    def test_nmax_validation(self, lap_nd):
        with pytest.raises(ValueError):
            iterate.lower_sequence("ND", lap_nd, 0)


def frozen_lower_sequence(oriented, n_max):
    """The lower sequence as the seed, power and double-integral layer ran
    it, without the early stop: power(seed, 1/2) of the scale tail, then
    f -> f * II(f) with the sup over the nodes where f > 0 and the ratio is
    finite, renormalized by the reciprocal of the product's max."""
    seed = oriented.nu_tail.copy()
    f = np.where(seed > 0, seed, 0.0) ** 0.5
    values = []
    for _ in range(n_max):
        inner = measures.prefix_integral(oriented, f, "mu")
        product = measures.suffix_integral(oriented, inner, "nu")
        positive = f > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = product / f
        window = positive & np.isfinite(ratio)
        values.append(float(np.max(ratio[window])))
        c = 1.0 / np.max(product)
        f = product * c
    return values


def frozen_ii_deviation(sol):
    """sup |lambda * II(g) - 1| as the identity check took it from the
    mirrored grid function and the double-integral layer."""
    table, g = sol.table, sol.eigenfunction
    if table.problem.case == "DN":
        table, g = table.mirrored(), g[::-1].copy()
    inner = measures.prefix_integral(table, g, "mu")
    product = measures.suffix_integral(table, inner, "nu")
    positive = g > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = product / g
    window = positive & np.isfinite(ratio)
    return float(np.max(np.abs(sol.lambda_ * ratio[window] - 1.0)))


FROZEN_LOWER_PROBLEMS = {
    "laplacian": dict(preset="laplacian"),
    "1+x^2": dict(a="1+x^2", b="0"),
    "ou (0,4)": dict(preset="ou", D=4.0),
    "ou (0,8)": dict(preset="ou", D=8.0),
    "exp(x)/1 (0,3)": dict(a="exp(x)", b="1", D=3.0),
    "sqrt(x)/0": dict(a="sqrt(x)", b="0"),
    "1/-1/sqrt(x)": dict(a="1", b="-1/sqrt(x)"),
}


class TestLowerSequenceMatchesFrozenLayer:
    """The lower sequence and the II identity residual, run straight on the
    prefix/suffix kernel, reproduce the seed/power/transform layer they
    replaced to the bit."""

    @pytest.mark.parametrize("case", ["ND", "DN"])
    @pytest.mark.parametrize("name", sorted(FROZEN_LOWER_PROBLEMS))
    def test_values_and_ii_deviation_are_bit_identical(self, name, case):
        table = C.make_table(case=case, **FROZEN_LOWER_PROBLEMS[name])
        n_max = 6
        trace = iterate.lower_sequence(case, table, n_max)
        ref = frozen_lower_sequence(table.mirrored() if case == "DN" else table, n_max)
        assert np.array_equal(trace.values, ref[: len(trace.values)])
        eps = table.problem.tolerances.bound_refine
        stops = [n for n in range(1, n_max) if abs(ref[n] - ref[n - 1]) <= eps * abs(ref[n])]
        assert len(trace.values) == (stops[0] + 1 if stops else n_max)
        sol = oracle.solve_on_table(table, case)
        assert oracle.eigen_residuals(sol)["ii_deviation"] == frozen_ii_deviation(sol)


class TestLowerSequenceStopIsScaleFree:
    D = (1e-150, 1e-110, 1e-3, 1.0, 1e3)

    def test_laplacian_nd_scales_with_d_squared(self):
        # delta_n of the laplacian on (0, D) is D^2 times its value on (0, 1);
        # the stop test is relative, so it ends no sequence early for D < 1,
        # and the start is a power of two, so no product underflows
        traces = {D: iterate.lower_sequence("ND", C.make_table(preset="laplacian", D=D), 6) for D in self.D}
        ref = traces[1.0].values
        for D, trace in traces.items():
            assert len(trace.values) == len(ref), D
            assert np.array(trace.values) / D**2 == pytest.approx(ref, rel=1e-9), D

    def test_upper_search_scales_with_d_squared(self):
        # delta_n', dbar_n over D^2 and the window starts over D are scale-free
        traces = {D: iterate.upper_sequence_nd(C.make_table(preset="laplacian", D=D), 3) for D in self.D}
        ref = traces[1.0]
        for D, trace in traces.items():
            assert np.array(trace.values) / D**2 == pytest.approx(ref.values, rel=1e-9), D
            assert np.array(trace.companion_dbar) / D**2 == pytest.approx(ref.companion_dbar, rel=1e-9), D
            starts = [x0 / D for x0, _ in trace.pair_locations]
            assert starts == pytest.approx([x0 for x0, _ in ref.pair_locations], rel=1e-9), D


class TestUpperSequenceND:
    @pytest.mark.parametrize("case,fixture", [("ND", "lap_nd"), ("DN", "lap_dn")])
    def test_delta1_prime_pins_its_closed_form_from_below(self, case, fixture, request):
        # the laplacian's delta1' is 3/8; the best node window reads it
        # 3.8e-7 low, on the safe side of an upper-bound constant
        d1p = bounds.compute_report(case, request.getfixturevalue(fixture)).delta1_prime
        assert -1e-6 <= d1p / C.DELTA1P_LAPLACIAN - 1 < 0

    def test_rayleigh_companion_identities(self, lap_nd):
        trace = iterate.upper_sequence_nd(lap_nd, 3)
        eps = lap_nd.problem.tolerances.bound_refine
        assert abs(trace.companion_dbar[0] - trace.values[0]) <= 10 * eps
        for n in range(2):
            assert trace.companion_dbar[n + 1] >= trace.values[n] - 10 * eps

    def test_reciprocals_stay_above_eigenvalue(self, lap_nd):
        trace = iterate.upper_sequence_nd(lap_nd, 3)
        for ub in trace.bounds():
            assert ub >= C.PI_SQ_OVER_4 * (1 - 1e-2)

    def test_direction_recorded_not_asserted(self, lap_nd):
        # verify reports this direction but has no verdict on it for ND
        trace = iterate.upper_sequence_nd(lap_nd, 2)
        assert trace.monotonicity in ("non-increasing", "non-decreasing", "mixed", "constant", "single")


def reference_eval_window(table, i0, i1, n_max):
    """The window evaluator as it ran on every node 0..i1, plateau included:
    the dense reference the window-local evaluator must reproduce.  Returns
    the infima, the companions, and the first step's ratio at the edge i0."""
    dnu = table.dnu[:i1]
    mu_wL, mu_wR = table.mu_wL[:i1], table.mu_wR[:i1]
    nu_wL, nu_wR = table.nu_wL[:i1], table.nu_wR[:i1]
    v = np.zeros(i1 + 1)
    v[i0:i1] = np.cumsum(dnu[i0:][::-1])[::-1]
    v[:i0] = v[i0]
    energy = float(v[i0])
    F = np.zeros(i1 + 1)
    G = np.zeros(i1 + 1)
    infs, dbars = [], []
    edge = np.nan
    for n in range(n_max):
        v_sq = v * v
        dbars.append(float(mu_wL @ v_sq[:-1] + mu_wR @ v_sq[1:]) / energy if energy > 0 else 0.0)
        np.cumsum(mu_wL * v[:-1] + mu_wR * v[1:], out=F[1:])
        G[:i1] = np.cumsum((nu_wL * F[:-1] + nu_wR * F[1:])[::-1])[::-1]
        ratio = np.divide(G[:i1], v[:i1], out=np.full(i1, np.inf), where=v[:i1] > 0)
        infs.append(float(np.min(ratio)))
        if n == 0:
            edge = float(ratio[i0])
        v = G.copy()
        v[:i0] = G[i0]
        scale = float(np.max(v))
        if not scale > 0:
            raise DegenerationError(f"localized iterate vanished on window ({i0}, {i1})")
        v /= scale
        flux = (0.5 / scale) * (F[i0:i1] + F[i0 + 1 :])
        energy = float((flux * flux) @ dnu[i0:])
    return infs, dbars, edge


def cut(table, i1):
    """``table`` cut at node i1, so that its window (i0, i1) ends at D."""
    return dataclasses.replace(
        table,
        grid=table.grid[: i1 + 1],
        dnu=table.dnu[:i1],
        mu_wL=table.mu_wL[:i1],
        mu_wR=table.mu_wR[:i1],
        nu_wL=table.nu_wL[:i1],
        nu_wR=table.nu_wR[:i1],
    )


def window_evaluator(table, n_max, companion):
    """iterate's window evaluator on ``table``, on its own window arrays."""
    return iterate._window_evaluator(table, n_max, companion, iterate._window_arrays(table))


def eval_window(table, i0, i1, n_max):
    """The infima and companions of the window (i0, i1) of ``table``: the
    window evaluator serves windows ending at D, so it runs on the table cut
    at i1 (it reads only panels below i1 and the speed prefix at i0); step 1
    is the first-step scan's at start i0, steps from 2 on the evaluator's."""
    table = cut(table, i1)
    arrays = iterate._window_arrays(table)
    infs, dbars = iterate._window_evaluator(table, n_max, True, arrays)(i0)
    first, first_dbar = iterate._first_step_scan(table, arrays, True)
    return [float(first[i0])] + infs, [float(first_dbar[i0])] + dbars


@pytest.fixture(scope="module")
def mirror_nd_8():
    return C.make_table(a="1", b="8-x", D=8.0, case="ND")


@pytest.fixture(scope="module")
def exp_nd_3():
    return C.make_table(a="exp(x)", b="1", D=3.0, case="ND")


def assert_windows_match_reference(table, windows, n_max=3):
    for i0, i1 in windows:
        infs, dbars = eval_window(table, i0, i1, n_max)
        r_infs, r_dbars, _ = reference_eval_window(table, i0, i1, n_max)
        assert infs == pytest.approx(r_infs, rel=1e-12), (i0, i1)
        assert dbars == pytest.approx(r_dbars, rel=1e-12), (i0, i1)


ND_TABLES = ["lap_nd", "quad_nd", "mirror_nd_8", "exp_nd_3"]


class TestWindowEvaluator:
    @pytest.mark.parametrize("fixture", ND_TABLES)
    def test_coarse_windows_match_dense_reference(self, fixture, request):
        table = request.getfixturevalue(fixture)
        m = table.n_panels
        i0s = iterate._index_candidates(0, m - 1, iterate._COARSE)
        i1s = iterate._index_candidates(1, m, iterate._COARSE)
        windows = [(i0, i1) for i0 in i0s for i1 in i1s if i1 > i0]
        assert len(windows) > 500
        assert_windows_match_reference(table, windows)

    @pytest.mark.parametrize("fixture", ND_TABLES)
    def test_extreme_windows_match_dense_reference(self, fixture, request):
        table = request.getfixturevalue(fixture)
        m = table.n_panels
        edges = [0, 1, m // 2, m - 1]
        windows = (
            [(0, i1) for i1 in (1, 2, m // 2, m)]  # no plateau
            + [(i0, i0 + 1) for i0 in edges]  # one-panel window
            + [(i0, m) for i0 in edges]  # window reaching D
        )
        assert_windows_match_reference(table, windows)

    def test_every_ou_dn_cap_matches_on_the_mirror(self, ou_dn_8):
        m = ou_dn_8.n_panels
        assert_windows_match_reference(ou_dn_8.mirrored(), [(m - i0, m) for i0 in range(1, m + 1)])

    def test_plateau_tie_reported_at_the_window_edge(self, lap_nd):
        # zero scale mass on the plateau panels leaves G flat there, so every
        # plateau node ties with the edge; the window-local evaluator, which
        # never visits the plateau, reports the edge's ratio as the infimum
        i0, i1 = 400, 1200
        flat = dataclasses.replace(
            lap_nd,
            nu_wL=np.where(np.arange(lap_nd.n_panels) < i0, 0.0, lap_nd.nu_wL),
            nu_wR=np.where(np.arange(lap_nd.n_panels) < i0, 0.0, lap_nd.nu_wR),
        )
        infs, dbars = eval_window(flat, i0, i1, 1)
        r_infs, r_dbars, r_edge = reference_eval_window(flat, i0, i1, 1)
        assert infs == pytest.approx(r_infs, rel=1e-12)
        assert infs[0] == pytest.approx(r_edge, rel=1e-12)
        assert dbars == pytest.approx(r_dbars, rel=1e-12)

    def test_window_ending_without_scale_mass_matches_dense_reference(self, lap_nd):
        # the iterate vanishes on the window's last panels: only there are
        # nodes with v = 0 left out of the infimum
        tail = (np.arange(lap_nd.n_panels) >= 1150) & (np.arange(lap_nd.n_panels) < 1200)
        thin = dataclasses.replace(
            lap_nd,
            dnu=np.where(tail, 0.0, lap_nd.dnu),
            nu_wL=np.where(tail, 0.0, lap_nd.nu_wL),
            nu_wR=np.where(tail, 0.0, lap_nd.nu_wR),
        )
        assert_windows_match_reference(thin, [(0, 1200), (400, 1200), (1100, 1200)])

    def test_window_without_scale_mass_degenerates(self, lap_nd):
        i0, i1 = 400, 1200
        empty = dataclasses.replace(lap_nd, dnu=np.zeros(lap_nd.n_panels))
        for evaluate in (lambda *w: eval_window(empty, *w), lambda *w: reference_eval_window(empty, *w)):
            with pytest.raises(DegenerationError):
                evaluate(i0, i1, 1)


def frozen_window_evaluator(table):
    """The window evaluator as it ran before windows were pinned at D, frozen:
    any window (i0, i1), each built from its own start, the companion on
    every step, and the last step renormalized too."""
    mu_wL, mu_wR = table.mu_wL, table.mu_wR
    nu_wL, nu_wR, dnu = table.nu_wL, table.nu_wR, table.dnu
    S = np.zeros(table.n_panels + 1)
    np.cumsum(mu_wL + mu_wR, out=S[1:])
    W = mu_wL.copy()
    W[1:] += mu_wR[:-1]

    def eval_window(i0, i1, n_max):
        L = i1 - i0
        wL, wR = mu_wL[i0:i1], mu_wR[i0:i1]
        gL, gR = nu_wL[i0:i1], nu_wR[i0:i1]
        d = dnu[i0:i1]
        v = np.zeros(L + 1)
        v[:L] = np.add.accumulate(d[::-1])[::-1]
        energy = float(v[0])
        terms = np.empty(L + 1)
        F = np.empty(L + 1)
        infs, dbars = [], []
        for n in range(n_max):
            c = float(v[0])
            numer = c * c * (S[i0] + wL[0]) + W[i0 + 1 : i1] @ (v[1:L] * v[1:L])
            dbars.append(float(numer) / energy if energy > 0 else 0.0)
            terms[0] = c * S[i0]
            np.add(wL * v[:L], wR * v[1:], out=terms[1:])
            np.add.accumulate(terms, out=F)
            G = np.add.accumulate((gL * F[:L] + gR * F[1:])[::-1])[::-1]
            if v[L - 1] > 0:
                ratio = G / v[:L]
            else:
                ratio = np.divide(G, v[:L], out=np.full(L, np.inf), where=v[:L] > 0)
            infs.append(float(ratio.min()))
            scale = float(G[0])
            if not scale > 0:
                raise DegenerationError(f"localized iterate vanished on window ({i0}, {i1})")
            np.divide(G, scale, out=v[:L])
            flux = (0.5 / scale) * (F[:L] + F[1:])
            energy = float((flux * d) @ flux)
        return infs, dbars

    return eval_window


def frozen_evaluator(table, companion):
    """frozen_window_evaluator(table); without ``companion`` the overflow of
    the companion it forms on its unscaled iterate, which nothing then reads,
    is ignored (it overflows on the OU (0, 37) mirror)."""
    frozen = frozen_window_evaluator(table)
    if companion:
        return frozen

    def eval_window(i0, i1, n_max):
        with np.errstate(over="ignore"):
            return frozen(i0, i1, n_max)

    return eval_window


def frozen_pinned_evaluator(table, n_max, companion, arrays):
    """The frozen evaluator behind the pinned evaluator's signature, steps 2
    and later; it builds its own arrays."""
    frozen = frozen_window_evaluator(table)

    def eval_window(i0):
        infs, dbars = frozen(i0, table.n_panels, n_max)
        return infs[1:], dbars[1:] if companion else []

    return eval_window


def record_starts(patch, build, starts):
    """Serve iterate's window searches from ``build``, appending each window
    start they evaluate to ``starts``."""

    def recording(t, n_max, companion, arrays):
        evaluate = build(t, n_max, companion, arrays)

        def eval_window(i0):
            starts.append(i0)
            return evaluate(i0)

        return eval_window

    patch.setattr(iterate, "_window_evaluator", recording)


class TestPinnedEvaluatorIsExact:
    """The shared start, the companion left out of DN and the last step left
    unrenormalized change no bit of what a search reads; step 1's transform
    read off the scan's N F + H moves steps 2 and later by rounding only."""

    @pytest.mark.parametrize(
        "fixture, mirror", [(f, False) for f in ND_TABLES] + [("lap_dn", True), ("ou_dn_8", True)]
    )
    def test_every_pinned_window_equals_the_frozen_evaluator(self, fixture, mirror, request):
        table = request.getfixturevalue(fixture)
        table = table.mirrored() if mirror else table
        m = table.n_panels
        frozen = frozen_window_evaluator(table)
        with_dbar, without = (window_evaluator(table, 3, c) for c in (True, False))
        for i0 in range(m):
            infs, dbars = frozen(i0, m, 3)
            got_infs, got_dbars = without(i0)
            assert got_infs == pytest.approx(infs[1:], rel=1e-13) and got_dbars == [], i0
            if not mirror:
                got_infs, got_dbars = with_dbar(i0)
                assert got_infs == pytest.approx(infs[1:], rel=1e-13), i0
                assert got_dbars == pytest.approx(dbars[1:], rel=1e-13), i0

    @pytest.mark.parametrize("n_max", [1, 3, 6])
    @pytest.mark.parametrize("fixture, mirror", [("lap_nd", False), ("ou_dn_8", False), ("lap_dn", True)])
    def test_windows_share_no_numbers_through_the_work_arrays(self, fixture, mirror, n_max, request):
        # one search's windows run in the same work arrays: in descending
        # order each window reaches entries no window wrote before, in a
        # shuffled order it follows longer and shorter ones, and its second
        # run follows itself; each is what a fresh evaluator gives it
        table = request.getfixturevalue(fixture)
        table = table.mirrored() if mirror else table
        m = table.n_panels
        expected = {i0: window_evaluator(table, n_max, not mirror)(i0) for i0 in range(m)}
        shuffled = np.random.default_rng(26).permutation(m).tolist()
        for order in (range(m - 1, -1, -1), shuffled):
            evaluate = window_evaluator(table, n_max, not mirror)
            for i0 in order:
                for _ in range(2):
                    assert evaluate(i0) == expected[i0], (i0, n_max)

    @pytest.mark.parametrize("fixture", ["lap_nd", "ou_dn_8"])
    @pytest.mark.parametrize("search", ["upper_sequence_nd", "upper_sequence_dn"])
    def test_searches_visit_the_frozen_starts(self, fixture, search, request, monkeypatch):
        table = request.getfixturevalue(fixture)
        traces, visits = [], []
        for build in (frozen_pinned_evaluator, iterate._window_evaluator):
            visits.append([])
            with monkeypatch.context() as patched:
                record_starts(patched, build, visits[-1])
                traces.append(getattr(iterate, search)(table, 3))
        assert len(visits[1]) > iterate._COARSE
        assert visits[1] == visits[0]
        # step 1, the members, the direction and the notes are exact; the
        # values and companions of steps 2 and later are pinned to 1e-13
        dbar = [t.companion_dbar or [] for t in traces]
        step_1 = [dataclasses.replace(t, values=t.values[:1], companion_dbar=d[:1]) for t, d in zip(traces, dbar)]
        assert step_1[1] == step_1[0]
        assert traces[1].values[1:] == pytest.approx(traces[0].values[1:], rel=1e-13)
        assert dbar[1][1:] == pytest.approx(dbar[0][1:], rel=1e-13)


# the scan's tables: (make_table arguments, case); DN runs the ND family on
# the mirrored table, and the last six are the verify-finite problems
SCAN_TABLES = {
    "1/-1/sqrt(x) DN": (dict(a="1", b="-1/sqrt(x)"), "DN"),  # 14,513 panels
    "sqrt(x)/0 DN": (dict(a="sqrt(x)", b="0"), "DN"),  # zero-width tip panels in the mirror
    "double well ND (0,4)": (dict(a="1", b="-20*(x-1)*(x-2)*(x-3)", D=4.0), "ND"),
    "laplacian ND (0,1e-3)": (dict(preset="laplacian", D=1e-3), "ND"),
    "laplacian ND (0,1e3)": (dict(preset="laplacian", D=1e3), "ND"),
    "ou DN (0,37)": (dict(preset="ou", D=37.0), "DN"),
    "laplacian ND": (dict(preset="laplacian"), "ND"),
    "laplacian DN": (dict(preset="laplacian"), "DN"),
    "1+x^2/0 DN": (dict(a="1+x^2", b="0"), "DN"),
    "ou DN (0,8)": (dict(preset="ou", D=8.0), "DN"),
    "1/8-x ND (0,8)": (dict(a="1", b="8-x", D=8.0), "ND"),
    "exp(x)/1 ND (0,3)": (dict(a="exp(x)", b="1", D=3.0), "ND"),
}


def scan_family(name):
    """The table a family of ``name`` runs on, whether it has the companion,
    and its members as (start_of, lo, hi)."""
    kwargs, case = SCAN_TABLES[name]
    table = C.make_table(case=case, **kwargs)
    m = table.n_panels
    if case == "DN":
        return table.mirrored(), False, (lambda c: m - c, 1, m)
    return table, True, (lambda i0: i0, 0, m - 1)


@functools.lru_cache(maxsize=None)
def frozen_every_start(name):
    """The frozen evaluator's infima and companions of steps 1..3 at every
    window start of the family of ``name``."""
    table, companion, _ = scan_family(name)
    frozen = frozen_evaluator(table, companion)
    return [frozen(i0, table.n_panels, 3) for i0 in range(table.n_panels)]


class TestEvaluatorStartsFromTheScan:
    """The evaluator reads step 1's transform off the scan's arrays, as
    N F + H: at every window start its steps 2 and later are within 1e-13
    of the frozen evaluator, which forms that transform as a reverse sum."""

    @pytest.mark.parametrize("name", sorted(SCAN_TABLES))
    def test_later_steps_at_every_start_equal_the_frozen_evaluator(self, name):
        table, companion, _ = scan_family(name)
        evaluate = iterate._window_evaluator(table, 3, companion, iterate._window_arrays(table))
        for i0, (infs, dbars) in enumerate(frozen_every_start(name)):
            got_infs, got_dbars = evaluate(i0)
            assert got_infs == pytest.approx(infs[1:], rel=1e-13), i0
            assert got_dbars == (pytest.approx(dbars[1:], rel=1e-13) if companion else []), i0


class TestFirstStepScan:
    """The first-step scan gives, at every window start, the infimum and
    companion the window evaluator gives, and so their maximum."""

    @pytest.mark.parametrize("name", sorted(SCAN_TABLES))
    def test_every_start_equals_the_window_evaluator(self, name):
        table, companion, _ = scan_family(name)
        arrays = iterate._window_arrays(table)
        infs, dbars = iterate._first_step_scan(table, arrays, companion)
        ref = frozen_every_start(name)
        assert infs == pytest.approx([r[0][0] for r in ref], rel=1e-13)
        if companion:
            assert dbars == pytest.approx([r[1][0] for r in ref], rel=1e-13)
        else:
            assert dbars is None
        assert np.max(infs) == pytest.approx(max(r[0][0] for r in ref), rel=1e-14)

    @pytest.mark.parametrize("name", ["laplacian ND", "ou DN (0,8)", "double well ND (0,4)"])
    def test_step_one_is_the_scan_maximum_and_later_steps_the_search(self, name):
        table, companion, (start_of, lo, hi) = scan_family(name)
        arrays = iterate._window_arrays(table)
        infs, dbars = iterate._first_step_scan(table, arrays, companion)
        members = infs[start_of(np.arange(lo, hi + 1))]
        k = lo + int(np.flatnonzero(members == members.max())[0])  # ties to the smallest member
        vals, at, dbar = iterate._family_sup(table, 3, start_of, lo, hi, companion, arrays)
        for n_max in (1, 3):
            got = iterate._upper_family(table, n_max, start_of, lo, hi, companion)
            first = ([members.max()], [k], [np.max(dbars) if companion else -np.inf])
            assert got == tuple(f + rest[: n_max - 1] for f, rest in zip(first, (vals, at, dbar)))

    def test_a_zero_scale_tail_is_skipped_and_its_windows_refused(self, lap_nd):
        # the scale mass vanishes on the last 50 panels: windows starting
        # before them skip their nodes, as the evaluator's v0 > 0 path does,
        # and windows starting on them vanish, which the evaluator refuses
        m = lap_nd.n_panels
        tail = np.arange(m) >= m - 50
        thin = dataclasses.replace(
            lap_nd,
            dnu=np.where(tail, 0.0, lap_nd.dnu),
            nu_wL=np.where(tail, 0.0, lap_nd.nu_wL),
            nu_wR=np.where(tail, 0.0, lap_nd.nu_wR),
        )
        arrays = iterate._window_arrays(thin)
        assert (arrays[2][m - 50 :] == 0).all()
        infs, dbars = iterate._first_step_scan(thin, arrays, True)
        evaluate = iterate._window_evaluator(thin, 1, True, arrays)
        frozen = frozen_window_evaluator(thin)
        for i0 in range(m):
            if i0 < m - 50:
                assert evaluate(i0) == ([], []), i0
                ref_infs, ref_dbars = frozen(i0, m, 1)
                assert infs[i0] == pytest.approx(ref_infs[0], rel=1e-13), i0
                assert dbars[i0] == pytest.approx(ref_dbars[0], rel=1e-13), i0
            else:
                assert np.isnan(infs[i0]), i0
                with pytest.raises(DegenerationError):
                    evaluate(i0)
        for n_max in (1, 2):
            with pytest.raises(DegenerationError, match="localized iterate vanished"):
                iterate.upper_sequence_nd(thin, n_max)


def frozen_family_sup(table, n_max, start_of, lo, hi, companion, arrays):
    """The window search as it ran while step 1 came from it too: every
    refinement round centres on the best member of every step, step 1
    included.  Per step from 1 on the best value, member and companion sup;
    it evaluates step 1 of its windows through the frozen evaluator and
    steps 2 and later through iterate._window_evaluator."""
    later = iterate._window_evaluator(table, n_max, companion, arrays)
    frozen = frozen_evaluator(table, companion)

    def eval_window(i0):
        first, first_dbar = frozen(i0, table.n_panels, 1)
        infs, dbars = later(i0)
        return first + infs, first_dbar + dbars if companion else []
    best_val = [-np.inf] * n_max
    best_at = [lo] * n_max
    best_dbar = [-np.inf] * n_max
    seen = set()

    def consider(k):
        if k in seen:
            return
        seen.add(k)
        infs, dbars = eval_window(start_of(k))
        for n in range(n_max):
            if infs[n] > best_val[n]:
                best_val[n] = infs[n]
                best_at[n] = k
        for n, dbar in enumerate(dbars):
            if dbar > best_dbar[n]:
                best_dbar[n] = dbar

    cands = iterate._index_candidates(lo, hi, iterate._COARSE)
    for k in cands:
        consider(k)
    step = int(cands[1] - cands[0]) if len(cands) > 1 else 1
    rounds = 0
    while rounds < iterate._REFINE_ROUNDS or step > 1:
        step = max(1, step // 2)
        for b in dict.fromkeys(best_at):
            for k in iterate._index_candidates(max(lo, b - 2 * step), min(hi, b + 2 * step), 5):
                consider(k)
        rounds += 1
    return best_val, best_at, best_dbar


# the ND/DN problems of the benchmark's verify-finite workload
VERIFY_FINITE_TABLES = [
    "laplacian ND", "laplacian DN", "1+x^2/0 DN", "ou DN (0,8)", "1/8-x ND (0,8)", "exp(x)/1 ND (0,3)",
]


class TestSearchCentresFromStepTwo:
    """The search centres its refinement on the best members of steps 2 and
    later only: those steps keep the values and companions of the search
    that also centred on step 1, their members up to ties, and the search
    evaluates fewer windows."""

    @pytest.mark.parametrize("n_max", [3, 6])
    @pytest.mark.parametrize("name", sorted(SCAN_TABLES))
    def test_later_steps_equal_the_search_centred_on_every_step(self, name, n_max):
        table, companion, members = scan_family(name)
        arrays = iterate._window_arrays(table)
        vals, at, dbar = iterate._family_sup(table, n_max, *members, companion, arrays)
        f_vals, f_at, f_dbar = (rest[1:] for rest in frozen_family_sup(table, n_max, *members, companion, arrays))
        assert len(vals) == len(at) == len(dbar) == n_max - 1
        assert vals == pytest.approx(f_vals, rel=1e-14)
        if companion:
            assert dbar == pytest.approx(f_dbar, rel=1e-14)
        else:
            assert dbar == f_dbar == [-np.inf] * (n_max - 1)
        evaluate = iterate._window_evaluator(table, n_max, companion, arrays)
        start_of = members[0]
        for n, (k, f_k) in enumerate(zip(at, f_at), 1):
            assert evaluate(start_of(k))[0][n - 1] == vals[n - 1], (n, k)
            if k != f_k:  # a tie among the members
                assert evaluate(start_of(f_k))[0][n - 1] == pytest.approx(vals[n - 1], rel=1e-14), (n, k, f_k)

    @pytest.mark.parametrize("name", VERIFY_FINITE_TABLES)
    def test_fewer_windows_than_the_search_centred_on_every_step(self, name, monkeypatch):
        table, companion, members = scan_family(name)
        arrays = iterate._window_arrays(table)
        visits = []
        for search in (frozen_family_sup, iterate._family_sup):
            visits.append([])
            with monkeypatch.context() as patched:
                record_starts(patched, iterate._window_evaluator, visits[-1])
                search(table, 3, *members, companion, arrays)
        assert len(visits[1]) == len(set(visits[1])) < len(visits[0]) == len(set(visits[0]))


class TestSearchTies:
    """A later member replaces a step's best only when it beats it by more
    than a few ulps, so on a flat family the members and the windows the
    search visits do not follow the last bits of the values."""

    def test_a_flat_family_keeps_its_first_member_whatever_the_rounding(self, lap_nd, monkeypatch):
        m = lap_nd.n_panels
        runs = []
        for seed in range(4):
            # every start's values are 1 within 3 ulps, drawn anew per run
            ulps = np.random.default_rng(seed).integers(-3, 4, size=(m, 2))

            def build(t, n_max, companion, arrays, ulps=ulps):
                return lambda i0: ([1.0 + float(u) * np.finfo(float).eps for u in ulps[i0]], [])

            visits = []
            with monkeypatch.context() as patched:
                record_starts(patched, build, visits)
                _, at, _ = iterate._family_sup(lap_nd, 3, lambda k: k, 0, m - 1, False, None)
            runs.append((visits, at))
        assert runs[0][1] == [0, 0]
        assert all(run == runs[0] for run in runs)


class TestSearchAgainstEveryStart:
    """On the verify-finite tables the search finds each later step's
    maximum over every window start, and its companion dbar_n, a sup over
    the windows it visits, is at most the maximum over every start."""

    @pytest.mark.parametrize("name", VERIFY_FINITE_TABLES)
    def test_later_steps_are_the_maximum_over_every_start(self, name):
        table, companion, members = scan_family(name)
        arrays = iterate._window_arrays(table)
        vals, _, dbar = iterate._family_sup(table, 3, *members, companion, arrays)
        evaluate = iterate._window_evaluator(table, 3, companion, arrays)
        start_of, lo, hi = members
        every = [evaluate(start_of(k)) for k in range(lo, hi + 1)]
        assert vals == np.max([infs for infs, _ in every], axis=0).tolist()
        if companion:
            assert (np.array(dbar) <= np.max([dbars for _, dbars in every], axis=0)).all()


class TestIndexCandidates:
    SPANS = [(0, 0), (7, 7), (3, 5), (0, 4), (10, 40), (0, 30), (0, 31), (0, 1999), (1, 2000), (5, 14513)]

    @pytest.mark.parametrize("count", [1, 5, 32])
    def test_rounded_linspace_pinned_at_hi(self, count):
        rng = np.random.default_rng(count)
        spans = self.SPANS + [tuple(sorted(map(int, rng.integers(0, 20000, 2)))) for _ in range(300)]
        for lo, hi in spans:
            expected = np.linspace(lo, hi, min(count, hi - lo + 1)).round().astype(int)
            got = iterate._index_candidates(lo, hi, count)
            assert got == expected.tolist(), (lo, hi, count)
            assert all(type(k) is int for k in got)


# upper sequences at n_max = 3, frozen from the dense window evaluator:
# ND (values, dbar_n, window starts, window end), DN (values, caps)
FROZEN_ND = {
    "lap_nd": (
        [0.3749998565912206, 0.40050895445415313, 0.4047623874111222],
        [0.37500001612825457, 0.40476252881508185, 0.40527863894689947],
        [0.24963210782502077, 0.09239625296122717, 0.011972881295239768],
        1.0,
    ),
    "quad_nd": (
        [0.3408609901969433, 0.3613754799760513, 0.36440748323784933],
        [0.3408611271239963, 0.3644076046423682, 0.36472078631150634],
        [0.2227794142690812, 0.07642194041421202, 0.008200046885112819],
        1.0,
    ),
    "mirror_nd_8": (
        [0.7973246390248286, 0.9065045704370902, 0.9536451418489393],
        [0.7973287213173169, 0.9536450560905932, 0.987479394777257],
        [6.547911759650599, 6.157530516365495, 5.836402777531809],
        8.0,
    ),
    "exp_nd_3": (
        [1.1174919681299156, 1.1852125171713397, 1.1959635390713939],
        [1.117492531328801, 1.1959639140815317, 1.197083256260573],
        [0.49708321777939557, 0.17146299034128026, 0.01990061297286525],
        3.0,
    ),
}
FROZEN_DN = {
    "lap_dn": (
        [0.3749998565912193, 0.40050895445415235, 0.4047623874111219],
        [0.7503678921749792, 0.9076037470387729, 0.9880271187047602],
    ),
    "ou_dn_8": (
        [0.797324639024817, 0.9065045704370822, 0.9536451418489306],
        [1.4520882403494006, 1.8424694836345052, 2.1635972224681908],
    ),
}


class TestFrozenSearch:
    @pytest.mark.parametrize("fixture", sorted(FROZEN_ND))
    def test_nd_search_reproduces_frozen_values(self, fixture, request):
        values, dbar, starts, x1 = FROZEN_ND[fixture]
        trace = iterate.upper_sequence_nd(request.getfixturevalue(fixture), 3)
        assert trace.values == pytest.approx(values, rel=1e-12)
        assert trace.companion_dbar == pytest.approx(dbar, rel=1e-12)
        assert trace.pair_locations == [(x0, x1) for x0 in starts]

    @pytest.mark.parametrize("fixture", sorted(FROZEN_DN))
    def test_dn_search_reproduces_frozen_values(self, fixture, request):
        values, caps = FROZEN_DN[fixture]
        trace = iterate.upper_sequence_dn(request.getfixturevalue(fixture), 3)
        assert trace.values == pytest.approx(values, rel=1e-12)
        assert trace.pair_locations == caps


def reference_family_sup(evaluate, axes, n_max):
    """The multi-axis family search as it ran over two-parameter ND windows:
    a coarse scan of every combination of the axes' candidates, then seven
    rounds that halve every axis' step and rescan a 5-point neighbourhood
    per axis around each step's best member."""
    best_val = [-np.inf] * n_max
    best_at = [tuple(lo for _, lo, _ in axes)] * n_max
    best_dbar = [-np.inf] * n_max
    seen = set()

    def consider(params):
        params = tuple(int(p) for p in params)
        if params in seen:
            return
        out = evaluate(*params)
        if out is None:
            return
        seen.add(params)
        infs, dbars = out
        for n in range(n_max):
            if infs[n] > best_val[n]:
                best_val[n] = infs[n]
                best_at[n] = params
            if dbars[n] > best_dbar[n]:
                best_dbar[n] = dbars[n]

    for params in itertools.product(*(cands for cands, _, _ in axes)):
        consider(params)
    steps = [max(1, (c[1] - c[0]) if len(c) > 1 else 1) for c, _, _ in axes]
    for _ in range(7):
        targets = {best_at[n] for n in range(n_max)}
        steps = [max(1, st // 2) for st in steps]
        for best in targets:
            local = [
                iterate._index_candidates(max(lo, b - 2 * st), min(hi, b + 2 * st), 5)
                for b, st, (_, lo, hi) in zip(best, steps, axes)
            ]
            for params in itertools.product(*local):
                consider(params)
    return best_val, best_at, best_dbar


def reference_upper_sequence_nd(table, n_max):
    """The ND upper sequence searched over every window (x_i0, x_i1) with
    i1 > i0 on a 32x32 coarse grid: (values, dbar_n, window locations)."""
    m = table.n_panels
    i0s = iterate._index_candidates(0, m - 1, 32)
    i1s = iterate._index_candidates(1, m, 32)

    def evaluate(i0, i1):
        return eval_window(table, i0, i1, n_max) if i1 > i0 else None

    vals, pairs, dbars = reference_family_sup(evaluate, [(i0s, 0, m - 1), (i1s, 1, m)], n_max)
    return vals, dbars, [(float(table.grid[i0]), float(table.grid[i1])) for i0, i1 in pairs]


TWO_PARAMETER_TABLES = {
    "1/-x ND (0,5)": dict(a="1", b="-x", D=5.0),
    "1/x ND (0,4)": dict(a="1", b="x", D=4.0),
    "2+sin(5x)/0 ND (0,3)": dict(a="2+sin(5*x)", b="0", D=3.0),
    "1/(1/(1+x)) ND (0,5)": dict(a="1", b="1/(1+x)", D=5.0),
    "1+x^2/0 ND (0,64)": dict(a="1+x^2", b="0", D=64.0),
    "laplacian ND (0,1) grid 300": dict(preset="laplacian", grid_size=300),
}


class TestCapFamilyMatchesTwoParameterSearch:
    """Every window the two-parameter search picked ends at D, so the
    one-parameter search over window starts reports the same values,
    companions and windows."""

    def assert_matches_two_parameter_search(self, table):
        assert table.n_panels < 255 * 31  # no refinement rounds past the seventh
        vals, dbars, windows = reference_upper_sequence_nd(table, 3)
        trace = iterate.upper_sequence_nd(table, 3)
        assert trace.values == pytest.approx(vals, rel=1e-12)
        assert trace.companion_dbar == pytest.approx(dbars, rel=1e-12)
        assert trace.pair_locations == windows

    @pytest.mark.parametrize("fixture", ND_TABLES)
    def test_fixture_tables(self, fixture, request):
        self.assert_matches_two_parameter_search(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("name", sorted(TWO_PARAMETER_TABLES))
    def test_more_nd_problems(self, name):
        self.assert_matches_two_parameter_search(C.make_table(case="ND", **TWO_PARAMETER_TABLES[name]))


class TestUpperSequenceDN:
    def test_first_step_cap_location(self, lap_dn):
        trace = iterate.upper_sequence_dn(lap_dn, 1)
        assert trace.values[0] == pytest.approx(0.375, rel=1e-4)
        assert trace.pair_locations[0] == pytest.approx(0.75, abs=5e-3)

    @pytest.mark.parametrize("fixture", ["lap_dn", "quad_dn", "ou_dn_4", "ou_dn_8"])
    def test_non_decreasing(self, fixture, request):
        table = request.getfixturevalue(fixture)
        trace = iterate.upper_sequence_dn(table, 3)
        eps = table.problem.tolerances.bound_refine
        for a, b in zip(trace.values, trace.values[1:]):
            assert b >= a - 10 * eps
        assert trace.monotonicity in ("non-decreasing", "constant")

    def test_ou_truncation_brackets_unit_eigenvalue(self, ou_dn_8):
        lam = oracle.fd_eigensolve(ou_dn_8.problem).lambda_
        up = iterate.upper_sequence_dn(ou_dn_8, 2)
        low = iterate.lower_sequence("DN", ou_dn_8, 2)
        assert lam == pytest.approx(1.0, abs=1e-2)
        for ub in up.bounds():
            assert ub >= lam * (1 - 1e-2)
        for lb in low.bounds():
            assert lb <= lam * (1 + 1e-2)

    def test_refinement_reaches_single_nodes_on_a_large_table(self, monkeypatch):
        # a coarse step above 255 nodes is still above one node after seven
        # halvings; the search keeps halving until the neighbouring caps of
        # every best cap from step 2 on have been evaluated, and step 1's
        # cap is the first-step scan's argmax, ties to the smallest cap
        table = C.make_table(a="1", b="-1/sqrt(x)", D=1.0, case="DN")
        m = table.n_panels
        assert np.diff(iterate._index_candidates(1, m, iterate._COARSE))[0] > 255
        starts = []
        record_starts(monkeypatch, iterate._window_evaluator, starts)
        trace = iterate.upper_sequence_dn(table, 3)
        caps = {m - i0 for i0 in starts}
        for x in trace.pair_locations[1:]:
            c = int(np.flatnonzero(table.grid == x)[0])
            assert {max(c - 1, 1), min(c + 1, m)} <= caps
        mirror = table.mirrored()
        infs, _ = iterate._first_step_scan(mirror, iterate._window_arrays(mirror), False)
        by_cap = infs[m - np.arange(1, m + 1)]
        assert trace.pair_locations[0] == table.grid[1 + np.flatnonzero(by_cap == by_cap.max())[0]]

    def test_divergent_mass_refused(self):
        # the speed density e^{x^2/2} overflows on (0, 40), whatever the case
        for case in ("ND", "DN"):
            p = measures.make_problem(a="1", b="x", D=40.0, case=case, grid_size=256)
            with pytest.raises(DegenerationError, match="speed-measure mass over"):
                measures.build_tables(p, 40.0)


class TestEtaSequence:
    def test_first_constant_closed_form(self, lap_nn):
        trace = iterate.eta_sequence(lap_nn, 1)
        assert trace.values[0] == pytest.approx(C.ETA1_LAPLACIAN, rel=1e-3)
        # the centered seed sqrt(x) - 2/3 changes sign at x = 4/9
        assert trace.sign_changes[0] == pytest.approx(4.0 / 9.0, abs=1e-2)

    def test_gap_bounds_and_direction(self, lap_nn):
        trace = iterate.eta_sequence(lap_nn, 4)
        for b in trace.bounds():
            assert b <= C.PI_SQ * (1 + 1e-6)
        assert trace.monotonicity in ("non-increasing", "non-decreasing")
        assert any("direction" in n for n in trace.notes)
        assert len(trace.sign_changes) == 4
        assert all(np.isfinite(s) for s in trace.sign_changes)

    def test_bounds_improve_toward_gap(self, lap_nn):
        trace = iterate.eta_sequence(lap_nn, 4)
        recips = trace.bounds()
        assert recips[-1] > recips[0]
        assert recips[-1] == pytest.approx(C.PI_SQ, rel=2e-2)

    def test_degenerate_criterion_refused(self):
        p = measures.make_problem(a="1", b="x", D=40.0, case="NN", grid_size=256)
        with pytest.raises(DegenerationError, match="speed-measure mass over"):
            measures.build_tables(p, 40.0)


class TestNaiveTruncationWarning:
    def test_truncated_eigenfunction_infimum_collapses(self, lap_nd):
        """Cutting the eigenfunction off at an interior point drives the
        window infimum of the double-integral transform to zero instead of
        1/lambda, so that truncation is useless for upper bounds."""
        sol = oracle.fd_eigensolve(lap_nd.problem)
        cut = measures.build_tables(lap_nd.problem, 0.8)
        trunc = np.interp(cut.grid, lap_nd.grid, sol.eigenfunction)
        product = measures.suffix_integral(cut, measures.prefix_integral(cut, trunc, "mu"), "nu")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = product / trunc
        assert ratio[(trunc > 0) & np.isfinite(ratio)].min() <= 0.05 / sol.lambda_


class TestMirrorOrientation:
    """DN is ND on the mirrored table: the DN sequences and constants and
    the ND ones on the mirror agree."""

    @pytest.mark.parametrize("fixture", ["lap_dn", "quad_dn", "ou_dn_4", "ou_dn_8"])
    def test_lower_sequence_dn_is_nd_on_mirror(self, fixture, request):
        table = request.getfixturevalue(fixture)
        dn = iterate.lower_sequence("DN", table, 3)
        nd = iterate.lower_sequence("ND", table.mirrored(), 3)
        assert dn.values == pytest.approx(nd.values, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["lap_dn", "quad_dn", "ou_dn_4", "ou_dn_8"])
    def test_upper_sequence_dn_is_nd_on_mirror(self, fixture, request):
        table = request.getfixturevalue(fixture)
        D = table.right_end
        dn = iterate.upper_sequence_dn(table, 3)
        nd = iterate.upper_sequence_nd(table.mirrored(), 3)
        assert dn.values == pytest.approx(nd.values, rel=1e-12)
        for cap, (x0, x1) in zip(dn.pair_locations, nd.pair_locations):
            assert x1 == D
            assert cap == pytest.approx(D - x0, abs=1e-12 * D)

    @pytest.mark.parametrize("fixture", ["lap_dn", "quad_dn", "ou_dn_4", "ou_dn_8"])
    def test_dn_constants_match_unmirrored_node_scans(self, fixture, request):
        # DN node values read straight off this table's columns; the panel
        # maximum on the mirror may only add a sliver inside a panel
        table = request.getfixturevalue(fixture)
        nodes = table.nu_cum * table.mu_tail
        v, x = bounds.delta("DN", table)
        k = int(np.argmax(nodes))
        assert nodes[k] * (1 - 1e-15) <= v <= nodes[k] * (1 + 1e-4)
        assert table.grid[max(k - 1, 0)] - 1e-12 <= x <= table.grid[min(k + 1, len(nodes) - 1)] + 1e-12
        # the mapped-back argmax attains delta in this table's coordinates
        v, x = bounds.delta("DN", table)
        head, tail = np.interp(x, table.grid, table.nu_cum), np.interp(x, table.grid, table.mu_tail)
        assert head * tail == pytest.approx(v, rel=1e-12)


# ---------------------------------------------------------------------------
# The test functions the sequences and the identity check run on: the start
# sqrt(nu(x, D)) of the lower sequence, its powers, and the panel slopes
# against the scale measure that the single-integral identity divides by.


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
