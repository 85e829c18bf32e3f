"""Tests for the two inverse-problem solvers and their transform kernels."""

import numpy as np
import pytest
from conftest import gentle_jordan
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import coefficients

from sobolev import (
    JordanBlockSpec,
    JordanOperator,
    NumericalFailure,
    WeightVector,
    arnoldi,
    build_same_measure,
    evaluate,
    golub_welsch,
    hessenberg_defect,
    laguerre_jacobi,
    legendre_jacobi,
    solve_hessenberg,
    update_solve,
)
from sobolev import hiep
from sobolev.experiments import random_spectral_data


def legendre_instance(m=12, gamma=0.01):
    """Real same-measure Legendre data with one derivative term (2x2 blocks)."""
    return build_same_measure(golub_welsch(legendre_jacobi(m)), [1.0, gamma])


def multi_group_instance():
    """Complex data of dimension 125 in 53 blocks of sizes 1..4, whose
    busiest wavefront step holds 36 windows, more than one group."""
    return random_spectral_data(np.random.default_rng(10), max_m=160)


def check_contract(Z, w, H, Q):
    m = Z.m
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(m)) <= 1e-12 * m
    assert (
        np.linalg.norm(Q.conj().T @ Z.dense() @ Q - H)
        <= 1e-11 * Z.frobenius_norm()
    )
    assert np.linalg.norm(Q[:, 0] - w.dense(Z) / w.norm()) <= 1e-13
    sub = np.diagonal(H, -1)
    assert np.all(sub.imag == 0.0)
    assert np.all(sub.real >= 0.0)


class TestArnoldi:
    def test_scalar_case(self):
        Z = JordanOperator((JordanBlockSpec(2.0, []),))
        res = arnoldi(Z, WeightVector([3.0]), 1)
        assert_allclose(res.Q, [[1.0]])
        assert_allclose(res.H, [[2.0]])
        assert res.h_next == 0.0
        assert res.q_next is None

    def test_single_jordan_block(self):
        Z = JordanOperator((JordanBlockSpec(0.0, [1.0]),))
        res = arnoldi(Z, WeightVector([1.0]), 2)
        assert_allclose(res.Q, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        assert_allclose(res.H, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)
        assert res.h_next <= 1e-13 * Z.frobenius_norm()

    def test_rejects_bad_column_counts(self):
        Z = JordanOperator((JordanBlockSpec(0.0, [1.0]),))
        w = WeightVector([1.0])
        with pytest.raises(ValueError):
            arnoldi(Z, w, 0)
        with pytest.raises(ValueError):
            arnoldi(Z, w, 3)

    def test_partial_run_reports_next_vector(self):
        Z, w = random_spectral_data(np.random.default_rng(1), max_m=10)
        k = Z.m - 1
        res = arnoldi(Z, w, k)
        assert res.H.shape == (k, k)
        assert res.h_next > 0
        assert res.q_next is not None
        # residual identity Z Q = Q H + h_next q_next e_k^T
        lhs = Z.dense() @ res.Q
        rhs = res.Q @ res.H
        rhs[:, -1] += res.h_next * res.q_next
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * Z.frobenius_norm()

    def test_trace_events(self):
        events = []
        Z, w = random_spectral_data(np.random.default_rng(2), max_m=8)
        arnoldi(Z, w, Z.m, trace=events.append)
        assert len(events) == Z.m
        assert all(e["event"] == "arnoldi-step" for e in events)
        assert [e["column"] for e in events] == list(range(1, Z.m + 1))


def rotation_chain_reference(c):
    """K with K c = (||c||, 0, ..., 0): rotations [[conj a, -conj b], [b, a]],
    a = f/r, b = -g/r, r = ||(f, g)||, on the pairs (idx-1, idx) bottom up.
    Unlike the kernel it rotates also when g = 0 and f != 0, so inputs must
    have g != 0 in every pair."""
    v = np.array(c, dtype=complex)
    K = np.eye(v.size, dtype=complex)
    for idx in range(v.size - 1, 0, -1):
        pair = [idx - 1, idx]
        f, g = v[pair]
        r = np.hypot(abs(f), abs(g))
        a, b = f / r, -g / r
        G = np.array([[np.conj(a), -np.conj(b)], [b, a]])
        v[pair], K[pair] = G @ v[pair], G @ K[pair]
    return K


def reflector_reference(c):
    """I - 2 y y^H / (y^H y) with y = c + e^{i arg c_1} ||c|| e_1."""
    y = np.array(c, dtype=complex)
    y[0] += np.exp(1j * np.angle(y[0])) * np.linalg.norm(y)
    return np.eye(y.size) - 2.0 * np.outer(y, y.conj()) / (y.conj() @ y)


class TestPlaneRotation:
    """The rotation kernel on one pair (r = 2) is a single plane rotation."""

    @staticmethod
    def kernel(f, g):
        return hiep._rotation_kernels(np.array([[f, g]]))[0]

    def test_identity_parameters(self):
        # a zero lower entry needs no rotation
        assert np.array_equal(self.kernel(1.0, 0.0), np.eye(2))

    def test_swap_with_sign(self):
        # a zero head gives the kernel [[0, -1], [1, 0]], which sends e_1 to e_2
        K = self.kernel(0.0, -1.0)
        assert_allclose(K, [[0.0, -1.0], [1.0, 0.0]])
        assert_allclose(K @ [1.0, 0.0], [0.0, 1.0])

    def test_annihilation(self):
        out = self.kernel(3.0, 4.0) @ [3.0, 4.0]
        assert_allclose(out, [5.0, 0.0], atol=1e-15)

    def test_annihilation_of_zero_pair_is_identity(self):
        assert np.array_equal(hiep._rotation_kernels(np.zeros((1, 3)))[0], np.eye(3))

    def test_complex_annihilation_gives_real_result(self):
        f, g = 1.0 - 2.0j, -0.5 + 0.3j
        out = self.kernel(f, g) @ [f, g]
        assert out[0].imag == pytest.approx(0.0, abs=1e-15)
        assert out[0].real == pytest.approx(np.hypot(abs(f), abs(g)))
        assert abs(out[1]) <= 1e-15


class TestHouseholder:
    """The reflector kernel on single vectors: K c = -alpha e_1 with
    alpha = e^{i arg c_1} ||c||, K unitary and an involution."""

    @staticmethod
    def kernel(c):
        return hiep._reflector_kernels(np.array([c]))[0]

    def test_unit_vector_reflects_to_minus_itself(self):
        K = self.kernel([1.0, 0.0, 0.0])
        assert_allclose(K @ [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], atol=1e-15)

    def test_real_pair(self):
        assert_allclose(self.kernel([3.0, 4.0]) @ [3.0, 4.0], [-5.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_reflection_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        K = self.kernel(c)
        norm = np.linalg.norm(c)
        alpha = c[0] / abs(c[0]) * norm
        assert_allclose(K @ c, -alpha * np.eye(n)[0], atol=1e-14 * norm)
        assert_allclose(K.conj().T @ K, np.eye(n), atol=1e-14)
        assert_allclose(K @ K, np.eye(n), atol=1e-14)


class TestEliminationKernels:
    """The updating loop builds its kernels batched, one per row of V; they
    must equal the rotation chain and the reflector of the references above,
    and act as the identity on trailing zero padding."""

    @staticmethod
    def batch(r, seed):
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
        V[1, 0] = 0.0
        return V

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_rotation_chain(self, r):
        V = self.batch(r, r)
        for c, Kc in zip(V, hiep._rotation_kernels(V)):
            assert_allclose(Kc, rotation_chain_reference(c), atol=1e-15)
            assert_allclose(Kc @ c, [np.linalg.norm(c)] + [0.0] * (r - 1), atol=1e-14)

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_reflector(self, r):
        V = self.batch(r, 10 + r)
        for c, Kc in zip(V, hiep._reflector_kernels(V)):
            assert_allclose(Kc, reflector_reference(c), atol=1e-15)

    @pytest.mark.parametrize("kernels", [hiep._rotation_kernels, hiep._reflector_kernels])
    @pytest.mark.parametrize("r, pad", [(2, 1), (3, 2), (2, 3)])
    def test_padding_gives_exact_identity(self, kernels, r, pad):
        V = self.batch(r, 20 + r)
        K = kernels(V)
        Kp = kernels(np.hstack([V, np.zeros((len(V), pad))]))
        assert np.array_equal(Kp[:, :r, :r], K)
        assert np.array_equal(Kp[:, r:, :], np.broadcast_to(np.eye(r + pad)[r:], (len(V), pad, r + pad)))
        assert np.array_equal(Kp[:, :, r:], np.broadcast_to(np.eye(r + pad)[:, r:], (len(V), r + pad, pad)))

    def test_real_batch_stays_real(self):
        V = np.random.default_rng(30).standard_normal((3, 4))
        for kernels in (hiep._rotation_kernels, hiep._reflector_kernels):
            K = kernels(V)
            assert K.dtype == np.float64
            assert_allclose(np.abs(K @ V[:, :, None])[:, 1:], 0.0, atol=1e-15)


def rotation_kernels_loop(V):
    """The rotation kernels built one pair at a time, bottom up: the loop
    that the batched builder replaced, kept as its bitwise reference."""
    B, r = V.shape
    K = np.zeros((B, r, r), dtype=V.dtype)
    K[:, -1, -1] = 1.0
    g = V[:, -1]
    for idx in range(r - 1, 0, -1):
        f = V[:, idx - 1]
        norm = np.hypot(np.abs(f), np.abs(g))
        live = g != 0
        safe = np.where(live, norm, 1.0)
        a = np.where(live, f / safe, 1.0)
        b = -g / safe
        lower = K[:, idx, idx:]
        K[:, idx - 1, idx:] = -b.conj()[:, None] * lower
        K[:, idx - 1, idx - 1] = a.conj()
        K[:, idx, idx:] = a[:, None] * lower
        K[:, idx, idx - 1] = b
        g = np.where(live, norm, f)
    return K


def reflector_kernels_loop(V):
    """The reflectors through np.linalg.norm, np.sum and np.eye: the form
    that the builder replaced, kept as its bitwise reference."""
    head = V[:, 0]
    size = np.abs(head)
    y = V.copy()
    y[:, 0] += np.divide(head, size, out=np.ones_like(head), where=size > 0) * np.linalg.norm(V, axis=1)
    scale = 2.0 / np.sum(np.abs(y) ** 2, axis=1)
    return np.eye(V.shape[1]) - scale[:, None, None] * y[:, :, None] * y[:, None, :].conj()


class TestKernelBuildersAgainstLoops:
    """Both builders return bitwise the kernels of the loops above, for real
    and complex windows with graded magnitudes, trailing zero padding and
    zeros inside the window, in batches of the sizes the updating loop
    builds."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        r=st.integers(min_value=2, max_value=6),
        B=st.sampled_from([1, 2, 3, 5, 17, 32, 100]),
        is_complex=st.booleans(),
        span=st.sampled_from([0, 20, 150, 300]),
    )
    def test_bitwise_equal(self, seed, r, B, is_complex, span):
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((B, r))
        if is_complex:
            V = V + 1j * rng.standard_normal((B, r))
        V *= 10.0 ** rng.uniform(-span / 2, span / 2, (B, r))
        head = V[:, 0].copy()
        pad = rng.integers(0, r, B)
        V[np.arange(r) >= r - pad[:, None]] = 0.0
        V[rng.random((B, r)) < 0.2] = 0.0
        if is_complex:
            V.imag[rng.random((B, r)) < 0.2] = 0.0
        # the window's head row is the subdiagonal entry, so no window of
        # the updating loop is all zero
        empty = ~V.any(axis=1)
        V[empty, 0] = head[empty]
        with np.errstate(over="ignore", under="ignore"):
            for built, loop in ((hiep._rotation_kernels(V), rotation_kernels_loop(V)),
                                (hiep._reflector_kernels(V), reflector_kernels_loop(V))):
                assert built.dtype == loop.dtype and built.shape == loop.shape
                assert built.tobytes() == loop.tobytes()


def schedule_reference(ends, r, k):
    """The schedule built from all (merge, column) pairs by a stable sort
    on their step, keeping those with c <= k - 2 and cutting their groups
    after, with each group's columns reduced over its windows: the builder
    that the step-order one replaced, kept as its reference."""
    m, last = int(ends[-1]), len(ends) - 1
    count = ends[1:] - 2
    j = np.repeat(np.arange(1, len(ends)), count)
    c = np.arange(j.size) - np.repeat(count.cumsum() - count, count)
    order = (j + c).argsort(kind="stable")
    keep = c[order] <= k - 2
    j, c = j[order][keep], c[order][keep]
    t = j + c - 1
    lo = np.maximum(c + 2, ends[j - 1])
    hi = np.minimum(ends[j], ends[j - 1] + c + 2)
    tail = lo[:, None] + np.arange(r - 1)
    wins = np.concatenate(((c + 1)[:, None], np.where(tail < hi[:, None], tail, m)), axis=1)
    steps = max(last, int(t.max(initial=-1)) + 1)
    bounds = t.searchsorted(np.arange(steps + 1))

    align = hiep._ALIGN
    cut = ((np.arange(t.size) - bounds[t]) % hiep._GROUP == 0).nonzero()[0]
    tg = t[cut]
    newest = np.minimum(tg + 1, last)
    dmax = ends[newest]
    origin = tg + 1 - newest
    left0 = origin + (np.minimum.reduceat(c, cut) - origin) // align * align
    left1 = np.minimum(dmax, origin - (origin - np.maximum.reduceat(hi, cut)) // align * align)
    g_lo, g_hi = cut - bounds[tg], np.append(cut[1:], t.size) - bounds[tg]
    groups = [
        (i0, i1, slice(c0, c1))
        for i0, i1, c0, c1 in zip(g_lo.tolist(), g_hi.tolist(), left0.tolist(), left1.tolist())
    ]
    per_step = tg.searchsorted(np.arange(steps + 1)).tolist()
    dims, bounds = ends.tolist(), bounds.tolist()
    return wins, [
        (bounds[i], bounds[i + 1], dims[min(i + 1, last)], [0, dims[i]] if i < last else None,
         groups[per_step[i]:per_step[i + 1]])
        for i in range(steps)
    ]


def regrouped_steps(ends, r, k):
    """Steps whose kept windows the leading schedule at k groups otherwise
    than the full schedule does.  A leading step keeps the last windows of
    the full one, those of the merges that are still at columns <= k-2."""
    _, full = hiep._schedule(ends, r, int(ends[-1]))
    _, leading = hiep._schedule(ends, r, k)
    count = 0
    for (start, stop, *_, groups), (lead_start, lead_stop, *_, lead_groups) in zip(full, leading):
        dropped = (stop - start) - (lead_stop - lead_start)
        cut = [(max(lo - dropped, 0), hi - dropped) for lo, hi, _ in groups if hi > dropped]
        count += cut != [(lo, hi) for lo, hi, _ in lead_groups]
    return count


class TestWavefrontAgainstReference:
    """The step-order schedule equals the sorted one: the same windows, and
    per step the same window range, dimension, injection and groups with
    the same columns, for every leading section of every layout."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(sizes=st.integers(min_value=1, max_value=60).flatmap(
        lambda n: st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n)))
    def test_equal_for_every_k(self, sizes):
        ends = np.cumsum(sizes)
        m, r = int(ends[-1]), max(sizes) + 1
        for k in range(1, m + 1):
            wins, steps = hiep._schedule(ends, r, k)
            ref_wins, ref_steps = schedule_reference(ends, r, k)
            assert wins.dtype == ref_wins.dtype
            assert np.array_equal(wins, ref_wins)
            assert [
                (start, stop, dmax, inject if inject is None else inject.tolist(), groups)
                for start, stop, dmax, inject, groups in steps
            ] == ref_steps


class TestUpdateSolve:
    def test_single_real_block(self):
        # one block needs no restoration: H bidiagonal, Q the flip matrix
        Z = JordanOperator((JordanBlockSpec(0.5, [2.0, 3.0]),))
        H, Q = update_solve(Z, WeightVector([1.0]))
        expected_H = [[0.5, 0, 0], [2.0, 0.5, 0], [0, 3.0, 0.5]]
        assert_allclose(H, expected_H, atol=1e-15)
        assert_allclose(Q, np.fliplr(np.eye(3)), atol=1e-15)

    def test_single_complex_block(self):
        Z = JordanOperator((JordanBlockSpec(1.0 + 0.5j, [0.8j]),))
        w = WeightVector([1.0])
        H, Q = update_solve(Z, w)
        assert H[1, 0] == pytest.approx(0.8)
        check_contract(Z, w, H, Q)

    def test_two_point_measure(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []), JordanBlockSpec(1.0, [])))
        w = WeightVector([1.0, 1.0])
        H, Q = update_solve(Z, w)
        assert_allclose(H, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
        check_contract(Z, w, H, Q)

    def test_rejects_unknown_strategy(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []),))
        with pytest.raises(ValueError):
            update_solve(Z, WeightVector([1.0]), strategy="cayley")

    def test_rejects_weight_count_mismatch(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []),))
        with pytest.raises(ValueError):
            update_solve(Z, WeightVector([1.0, 2.0]))

    def test_trace_events(self):
        events = []
        Z, w = random_spectral_data(np.random.default_rng(3), max_m=10)
        update_solve(Z, w, trace=events.append)
        assert events
        assert all(e["event"] == "update-restore" for e in events)
        assert all(e["residual"] <= 1e-10 * Z.frobenius_norm() for e in events)

    def test_bulge_window_covers_every_column(self):
        # merging a 2x2 block onto dimension d_prev restores columns
        # 1..d-2, each with a kernel of at most block size + 1 rows; for
        # the leading k x k section only columns 1..min(d-2, k-1)
        Z, w = legendre_instance(m=8)
        events = []
        update_solve(Z, w, trace=events.append)
        assert len(events) == sum(d - 2 for d in range(4, Z.m + 1, 2))
        assert {e["eliminated"] for e in events} <= {1, 2}
        for k in (1, 2, Z.m // 2, Z.m):
            events = []
            solve_hessenberg(Z, w, k, method="update-rot", trace=events.append)
            assert len(events) == sum(min(d - 2, k - 1) for d in range(4, Z.m + 1, 2))
            assert {e["eliminated"] for e in events} <= {1, 2}

    @pytest.mark.parametrize("method, strategy", [("update-hh", "householder"), ("update-rot", "rotations")])
    def test_restore_events_name_their_merge(self, method, strategy):
        # merge j of 2x2 blocks has d_j = 2(j + 1) and restores columns 1 ..
        # min(d_j - 2, k - 1) of H, each traced as block j, the number that
        # the residual check's NumericalFailure gives the same window
        Z, w = legendre_instance()
        for k in (Z.m, Z.m // 2):
            events = []
            if k == Z.m:
                update_solve(Z, w, strategy=strategy, trace=events.append)
            else:
                solve_hessenberg(Z, w, k, method=method, trace=events.append)
            columns = {}
            for e in events:
                columns.setdefault(e["block"], []).append(e["column"])
            expected = {j: min(2 * (j + 1) - 2, k - 1) for j in range(1, len(Z._ends))}
            assert {j: len(cols) for j, cols in columns.items()} == expected
            assert all(sorted(cols) == list(range(1, len(cols) + 1)) for cols in columns.values())

    def test_residual_check_raises(self, monkeypatch):
        # a kernel that eliminates nothing must trip the per-column check.
        # With 2x2 blocks, step 0 restores column 0 of merge 1, and step 1
        # column 1 of merge 1 and column 0 of merge 2, in that order; only
        # the last window of a batch gets the identity, so the check passes
        # step 0 and names merge 2 at column 0 (column 1 of H), whose
        # residual is what its window held below the head row
        batches = []

        def spoiled(build):
            def kernels(V):
                batches.append(V.copy())
                K = build(V)
                if len(V) > 1:
                    K[-1] = np.eye(V.shape[1])
                return K
            return kernels

        for strategy, method in (("rotations", "update-rot"), ("householder", "update-hh")):
            monkeypatch.setitem(hiep._KERNELS, strategy, spoiled(hiep._KERNELS[strategy]))
            for shift in (0.0, 0.3j):  # real and complex data
                Z, w = legendre_instance()
                Z = Z.shift(shift)
                for solve in (lambda: update_solve(Z, w, strategy=strategy),
                              lambda: solve_hessenberg(Z, w, Z.m // 2, method=method)):
                    batches.clear()
                    with pytest.raises(NumericalFailure, match="residual") as failure:
                        solve()
                    assert [len(V) for V in batches] == [1, 2]
                    residual = float(np.abs(batches[-1][-1, 1:]).max())
                    assert residual > 1e-10 * Z.frobenius_norm()
                    assert failure.value.details == {"column": 1, "block": 2, "residual": residual}

    @pytest.mark.parametrize("m", [20, 201])
    def test_residual_check_raises_at_large_gamma(self, m, monkeypatch):
        # the tolerance scales with ||Z||_F, whose squared entries overflow
        # from gamma ~1e306 on; an infinite tolerance would pass any residual
        def spoiled(V):
            K = hiep._rotation_kernels(V)
            K[-1] = np.eye(V.shape[1])
            return K

        monkeypatch.setitem(hiep._KERNELS, "rotations", spoiled)
        Z, w = legendre_instance(m=m, gamma=1e307)
        assert np.isfinite(Z.frobenius_norm())
        with pytest.raises(NumericalFailure, match="residual"):
            update_solve(Z, w, strategy="rotations")

    @pytest.mark.parametrize("strategy", ["rotations", "householder"])
    def test_envelope_products_round_as_products_over_all_rows(self, strategy, monkeypatch):
        # cutting each group's left product to its columns adds only zero
        # entries and keeps every BLAS call's rounding: H and Q are bitwise
        # those of one product per step over rows 0..dmax-1 and columns
        # c_new..dmax-1 (rng 2 draws complex data in blocks of sizes 1 and 2,
        # with up to 48 windows and two groups in a step)
        instances = [
            random_spectral_data(np.random.default_rng(2), max_m=140, max_block=2),
            multi_group_instance(),
        ]
        results = [update_solve(Z, w, strategy=strategy) for Z, w in instances]
        schedule = hiep._schedule
        calls = []

        def whole(ends, r, k):
            calls.append(k)
            wins, steps = schedule(ends, r, k)
            dense = []
            for start, stop, dmax, inject, _ in steps:
                c_new = int(wins[stop - 1, 0]) - 1 if stop > start else 0
                dense.append((start, stop, dmax, inject, [(0, stop - start, slice(c_new, dmax))]))
            return wins, dense

        monkeypatch.setattr(hiep, "_schedule", whole)
        for (Z, w), (H, Q) in zip(instances, results):
            H_whole, Q_whole = update_solve(Z, w, strategy=strategy)
            assert np.array_equal(H, H_whole)
            assert np.array_equal(Q, Q_whole)
        assert calls == [Z.m for Z, _ in instances]

    def test_missed_entry_in_a_restored_column_raises(self, monkeypatch):
        # the last window of column k-2 loses its last row to the scratch
        # index, so that entry survives below the subdiagonal; only the
        # final check over columns 0..k-2 and all rows can see it
        schedule = hiep._schedule
        calls = []

        def dropping(ends, r, k):
            calls.append(k)
            wins, steps = schedule(ends, r, k)
            m = int(ends[-1])
            last = np.flatnonzero(wins[:, 0] == k - 1)[-1]
            pos = np.flatnonzero(wins[last] < m)[-1]
            assert pos > 0
            wins[last, pos] = m
            return wins, steps

        monkeypatch.setattr(hiep, "_schedule", dropping)
        Z, w = legendre_instance()
        with pytest.raises(NumericalFailure, match="outside the bulge window"):
            solve_hessenberg(Z, w, Z.m // 2, method="update-rot")
        assert calls == [Z.m // 2]


class TestSolverContract:
    @pytest.mark.parametrize("strategy", ["rotations", "householder"])
    @pytest.mark.parametrize("seed", range(5))
    def test_update(self, strategy, seed):
        Z, w = random_spectral_data(np.random.default_rng(seed), max_m=40)
        H, Q = update_solve(Z, w, strategy=strategy)
        check_contract(Z, w, H, Q)

    @pytest.mark.parametrize("strategy", ["rotations", "householder"])
    def test_update_with_several_groups_per_step(self, strategy):
        Z, w = multi_group_instance()
        H, Q = update_solve(Z, w, strategy=strategy)
        check_contract(Z, w, H, Q)

    @pytest.mark.parametrize("strategy", ["rotations", "householder"])
    def test_update_real_same_measure(self, strategy):
        Z, w = legendre_instance()
        H, Q = update_solve(Z, w, strategy=strategy)
        assert H.dtype == Q.dtype == np.float64
        check_contract(Z, w, H, Q)

    @pytest.mark.parametrize("seed", range(5))
    def test_arnoldi(self, seed):
        Z, w = random_spectral_data(np.random.default_rng(seed), max_m=40)
        res = arnoldi(Z, w, Z.m)
        check_contract(Z, w, res.H, res.Q)


class TestCrossMethod:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_solvers_agree(self, seed):
        Z, w = random_spectral_data(np.random.default_rng(100 + seed), max_m=40)
        H_arn = arnoldi(Z, w, Z.m).H
        scale = np.linalg.norm(H_arn)
        H_rot, _ = update_solve(Z, w, strategy="rotations")
        H_hh, _ = update_solve(Z, w, strategy="householder")
        assert H_arn.dtype == H_rot.dtype == H_hh.dtype == np.complex128
        assert np.linalg.norm(H_rot - H_arn) <= 1e-11 * scale
        assert np.linalg.norm(H_hh - H_arn) <= 1e-11 * scale


class TestPhaseInvariance:
    """H depends on w only up to a unimodular factor: w -> e^{i theta} w."""

    @pytest.mark.parametrize("method", ["arnoldi", "update-hh", "update-rot"])
    def test_real_instance_rotated_weights(self, method):
        Z, w = legendre_instance()
        turned = WeightVector(np.exp(0.7j) * w.betas)
        H = solve_hessenberg(Z, w, Z.m, method=method)
        Ht = solve_hessenberg(Z, turned, Z.m, method=method)
        assert np.linalg.norm(Ht - H) <= 1e-11 * np.linalg.norm(H)


class TestArnoldiArithmetic:
    """Real data run in float64, complex data in complex128, and H, Q and
    q_next come back in that dtype.  A unimodular factor e^{i theta} on w
    makes the data complex, so it forces the complex path; it leaves H
    unchanged and turns Q by the same factor.  The measured differences
    are at most 1.1e-14 in H and 1.1e-14 in Q."""

    @pytest.mark.parametrize(
        "quadrature, gamma, k",
        [
            (lambda: legendre_jacobi(201), 0.01, 202),
            (lambda: laguerre_jacobi(40, -0.5), 1.0, None),
            (lambda: legendre_jacobi(60), 100.0, None),
        ],
        ids=["legendre", "laguerre", "althammer"],
    )
    def test_turned_weights_take_the_complex_path(self, quadrature, gamma, k):
        Z, w = build_same_measure(golub_welsch(quadrature()), [1.0, gamma])
        k = k or Z.m
        turn = np.exp(0.7j)
        real = arnoldi(Z, w, k)
        turned = arnoldi(Z, WeightVector(turn * w.betas), k)
        assert real.H.dtype == real.Q.dtype == np.float64
        assert turned.H.dtype == turned.Q.dtype == np.complex128
        assert turned.Q.imag.any()
        assert np.linalg.norm(turned.H - real.H) <= 1e-12 * np.linalg.norm(real.H)
        assert np.max(np.abs(turned.Q - turn * real.Q)) <= 1e-12
        if real.q_next is not None:
            assert real.q_next.dtype == np.float64
            assert turned.q_next.dtype == np.complex128
            assert np.max(np.abs(turned.q_next - turn * real.q_next)) <= 1e-12


class TestLongDoubleReference:
    """Both updating solvers against a long-double Householder reduction on
    the benchmark's solve input (Legendre m=201, gamma=0.01, dimension 402),
    on the leading 202 x 202 section that the solve workload keeps."""

    @pytest.mark.parametrize("method", ["update-rot", "update-hh"])
    def test_leading_section(self, legendre_references, method):
        Z, w = legendre_instance(m=201)
        reference = legendre_references["sobolev"][:202, :202].astype(float)
        H = solve_hessenberg(Z, w, 202, method=method)
        assert np.linalg.norm(H - reference) <= 1e-13 * np.linalg.norm(reference)

    @pytest.mark.parametrize("product, gammas, k", [
        ("sobolev", [1.0, 0.01], 202), ("plain", [1.0], 201),
    ])
    def test_arnoldi_at_roundoff(self, legendre_references, product, gammas, k):
        # measured: relative error 3.7e-16 (sobolev) and 3.1e-16 (plain),
        # ||Q^T Q - I|| 8.2e-15 and 7.7e-15; the updating solvers' 1e-13
        # above would not see a hundredfold loss here
        Z, w = build_same_measure(golub_welsch(legendre_jacobi(201)), gammas)
        reference = legendre_references[product][:k, :k].astype(float)
        res = arnoldi(Z, w, k)
        assert np.linalg.norm(res.H - reference) <= 1e-15 * np.linalg.norm(reference)
        assert np.linalg.norm(res.Q.T @ res.Q - np.eye(k)) <= 5e-14


class TestBreakdownIndex:
    def test_breakdown_exactly_at_full_dimension(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            Z, w = random_spectral_data(rng, max_m=30)
            res = arnoldi(Z, w, Z.m)
            tol = 1e-13 * Z.frobenius_norm()
            # full square factor: no truncation before m ...
            assert res.H.shape == (Z.m, Z.m)
            subdiag = np.diagonal(res.H, -1).real
            if subdiag.size:
                assert np.min(subdiag) > tol
            # ... and an exact invariant subspace at m
            assert res.h_next <= tol


class TestColumnPolynomialCorrespondence:
    """Column j+1 of Q is p_j(Z) w normalized, with p_j read off H."""

    def test_against_dense_horner(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(30):
            Z, w = gentle_jordan(rng)
            res = arnoldi(Z, w, Z.m)
            Hu, Qu = update_solve(Z, w)
            polys = coefficients(res.H, w.norm(), Z.m - 1)
            Zd, wd = Z.dense(), w.dense(Z)
            eye = np.eye(Z.m)
            for j, p in enumerate(polys):
                col = np.zeros((Z.m, Z.m), dtype=complex)
                for ck in p.coef[::-1]:
                    col = Zd @ col + ck * eye
                col = col @ wd
                worst = max(worst, np.max(np.abs(res.Q[:, j] - col)))
                worst = max(worst, np.max(np.abs(Qu[:, j] - col)))
        assert worst <= 1e-10


class TestSolveHessenberg:
    def test_truncation_matches_full_solution(self):
        # rng 42 draws a single block of size 3, rng 0 seven mixed blocks
        for Z, w in (
            random_spectral_data(np.random.default_rng(42), max_m=20),
            random_spectral_data(np.random.default_rng(0), max_m=20),
            legendre_instance(),
        ):
            k = Z.m // 2
            full, _ = update_solve(Z, w)
            for method in ("arnoldi", "update-hh", "update-rot"):
                Hk = solve_hessenberg(Z, w, k, method=method)
                assert Hk.shape == (k, k)
                assert np.linalg.norm(Hk - full[:k, :k]) <= 1e-11 * np.linalg.norm(full)

    @pytest.mark.parametrize("method", ["update-hh", "update-rot"])
    def test_rejects_bad_column_counts(self, method):
        Z, w = legendre_instance(m=3)
        for k in (0, Z.m + 1):
            with pytest.raises(ValueError, match="column count"):
                solve_hessenberg(Z, w, k, method=method)

    @pytest.mark.parametrize(
        "method, strategy", [("update-hh", "householder"), ("update-rot", "rotations")]
    )
    def test_q_and_no_q_paths_share_arithmetic(self, method, strategy):
        # merges that stop at column k-2 leave H[:k, :k] exactly as the full
        # solve has it (rng 0 draws seven mixed blocks, rng 7 a larger instance)
        cases = [
            (Z, w, range(1, Z.m + 1))
            for Z, w in (
                random_spectral_data(np.random.default_rng(0), max_m=20),
                random_spectral_data(np.random.default_rng(7), max_m=30),
                legendre_instance(),
            )
        ]
        # steps with several groups of windows; at some k of each instance a
        # leading step drops the first windows of a full step and cuts its
        # groups otherwise than the full solve does
        several = [
            (*legendre_instance(m=100), (2, 33, 67, 101, 160), 2 * hiep._GROUP),
            (*multi_group_instance(), (10, 30, 62, 100), hiep._GROUP),
        ]
        for Z, w, ks, least in several:
            r = np.diff(Z._ends, prepend=0).max() + 1
            _, steps = hiep._schedule(Z._ends, r, Z.m)
            assert max(stop - start for start, stop, *_ in steps) > least
            assert any(regrouped_steps(Z._ends, r, k) for k in ks)
            cases.append((Z, w, ks))
        for Z, w, ks in cases:
            H, _ = update_solve(Z, w, strategy=strategy)
            for k in ks:
                assert np.array_equal(solve_hessenberg(Z, w, k, method=method), H[:k, :k])

    def test_rejects_unknown_method(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []),))
        with pytest.raises(ValueError):
            solve_hessenberg(Z, WeightVector([1.0]), 1, method="lanczos")

    def test_arnoldi_breakdown_follows_the_column_scale(self):
        # a derivative weight of 1e300 puts ~1e150 scalings into Z; the
        # breakdown test against ||Z q_col|| still sees the first 10 columns
        Z, w = build_same_measure(golub_welsch(laguerre_jacobi(10, -0.5)), [1.0, 1e300])
        res = arnoldi(Z, w, 10)
        Q, H = res.Q, res.H
        assert H.shape == (10, 10)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(10)) <= 1e-12 * 10
        assert np.linalg.norm(Q.conj().T @ Z.dense() @ Q - H) <= 1e-11 * Z.frobenius_norm()
        assert np.linalg.norm(Q[:, 0] - w.dense(Z) / w.norm()) <= 1e-13
        assert np.all(np.diagonal(H, -1).imag == 0.0)
        assert np.all(np.diagonal(H, -1).real > 0.0)
        assert np.array_equal(solve_hessenberg(Z, w, 10, method="arnoldi"), H)

    def test_arnoldi_breakdown_before_k_raises(self, monkeypatch):
        # Z q_3 made to lie in span(q_1) breaks the iteration down at column 3
        matvec = hiep.jordan_matvec

        def breaking_matvec(Z, x):
            calls.append(x)
            return calls[0].copy() if len(calls) == 3 else matvec(Z, x)

        calls = []
        monkeypatch.setattr(hiep, "jordan_matvec", breaking_matvec)
        Z, w = legendre_instance()
        with pytest.raises(NumericalFailure, match="broke down") as exc:
            solve_hessenberg(Z, w, 10, method="arnoldi")
        assert exc.value.details == {"column": 3, "k": 10}

    @pytest.mark.parametrize("run", [
        lambda Z, w: arnoldi(Z, w, 10),
        lambda Z, w: solve_hessenberg(Z, w, 10, method="arnoldi"),
    ], ids=["arnoldi", "solve_hessenberg"])
    def test_arnoldi_nan_raises(self, monkeypatch, run):
        # a NaN product passes the breakdown test (NaN <= tol is false) and
        # fills H with NaN; the orthogonality check must not let it through
        monkeypatch.setattr(hiep, "jordan_matvec", lambda Z, x: np.full_like(x, np.nan))
        Z, w = legendre_instance()
        with pytest.raises(NumericalFailure, match="orthogonality lost") as exc:
            run(Z, w)
        assert np.isnan(exc.value.details["orthogonality"])
        assert exc.value.details["columns"] == 10


class TestSolveWithBasis:
    @pytest.mark.parametrize("gamma", [0.01, 1e4])
    def test_arnoldi_columns_are_the_polynomials_times_w(self, gamma):
        # column j+1 of Q is p_j(Z) w, with no 1/||w||: on a block x I +
        # alpha N of the same-measure data that is (alpha beta p_j'(x),
        # beta p_j(x)); checked over degrees 0..m, the least-squares range
        m = 40
        rule = golub_welsch(legendre_jacobi(m))
        Z, w = build_same_measure(rule, [1.0, gamma])
        res = arnoldi(Z, w, m + 1)
        basis = evaluate(res.H, w.norm(), rule.nodes, m)
        expected = np.empty((Z.m, m + 1))
        expected[0::2] = (np.sqrt(gamma) * w.betas)[:, None] * basis.derivs.T
        expected[1::2] = w.betas[:, None] * basis.values.T
        assert np.max(np.abs(res.Q - expected)) <= 1e-13

    @pytest.mark.parametrize("method", hiep.SOLVER_NAMES)
    def test_h_is_the_section_and_q_its_basis(self, method):
        # H bitwise that of solve_hessenberg, Q the first k columns of a
        # basis that satisfies the contract
        for Z, w in (legendre_instance(), random_spectral_data(np.random.default_rng(0), max_m=20)):
            for k in (1, Z.m // 2, Z.m):
                H, Q = hiep._solve(Z, w, k, method, None)
                assert np.array_equal(H, solve_hessenberg(Z, w, k, method=method))
                assert Q.shape == (Z.m, k)
                assert np.linalg.norm(Q.conj().T @ Q - np.eye(k)) <= 1e-12 * k
                assert np.linalg.norm(Q.conj().T @ Z.dense() @ Q - H) <= 1e-11 * Z.frobenius_norm()
                assert np.linalg.norm(Q[:, 0] - w.dense(Z) / w.norm()) <= 1e-13

    def test_updating_q_is_the_full_solve_cut_to_k(self):
        Z, w = legendre_instance()
        H, Q = update_solve(Z, w, strategy="rotations")
        Hk, Qk = hiep._solve(Z, w, 7, "update-rot", None)
        assert np.array_equal(Hk, H[:7, :7]) and np.array_equal(Qk, Q[:, :7])

    def test_keeps_the_arnoldi_breakdown_failure(self):
        # as with solve_hessenberg (see test_arnoldi_breakdown_before_k_raises);
        # this input stops at column 11 of its 20
        Z, w = build_same_measure(golub_welsch(laguerre_jacobi(10, -0.5)), [1.0, 1e300])
        with pytest.raises(NumericalFailure, match="broke down") as exc:
            hiep._solve(Z, w, 20, "arnoldi", None)
        assert exc.value.details == {"column": 11, "k": 20}
        with pytest.raises(ValueError, match="unknown solver"):
            hiep._solve(Z, w, 5, "lanczos", None)


class TestHessenbergDefect:
    def test_counts_only_below_first_subdiagonal(self):
        A = np.zeros((4, 4))
        A[1, 0] = 9.0
        A[3, 1] = 0.25
        A[2, 0] = 0.125
        assert hessenberg_defect(A) == 0.25

    def test_zero_for_hessenberg(self):
        A = np.triu(np.ones((5, 5)), -1)
        assert hessenberg_defect(A) == 0.0

    def test_rectangular(self):
        tall = np.triu(np.ones((6, 3)), -1)
        tall[5, 2] = -0.5
        assert hessenberg_defect(tall) == 0.5
        wide = np.triu(np.ones((3, 6), dtype=complex), -1)
        assert hessenberg_defect(wide) == 0.0
        wide[2, 0] = 2.0j
        assert hessenberg_defect(wide) == 2.0

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 4), (4, 1), (5, 3), (3, 5), (6, 6)])
    def test_matches_columnwise_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = 0.0
        for i in range(A.shape[1]):
            if i + 2 < A.shape[0]:
                expected = max(expected, float(np.max(np.abs(A[i + 2 :, i]))))
        assert hessenberg_defect(A) == expected
