import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from artifact import lattice
from artifact.bo_solver import gaussian_profile
from artifact.harness import (DEFAULT_VALIDATION_AMPLITUDE, ValidationConfig,
                              _initial_profile, ansatz_fields,
                              default_residual_amplitude)
from artifact.lattice import (CollisionError, LatticeConfig, LatticeState,
                              _kernel, _kernel_prime, _window_sums, energy,
                              error_energy, error_energy_constants, force,
                              p2_functional, run_steps)
from artifact.specfun import make_alpha_params, zeta
from artifact.spectral import PeriodicGrid


def _naive_pair_potential(g, m, alpha):
    # (m+g)^-a - m^-a + a g m^-(a+1), evaluated plainly (fine for |g| ~ m/10)
    return (m + g) ** -alpha - m ** -alpha + alpha * g * m ** (-alpha - 1.0)


def _pair_slope_longdouble(g, m, alpha):
    # -a((m+g)^-(a+1) - m^-(a+1)) in long double: the force oracle, written
    # apart from the expm1/log1p form of _kernel_prime
    g = np.longdouble(g)
    m = np.longdouble(m)
    b = np.longdouble(alpha) + 1
    return -np.longdouble(alpha) * ((m + g) ** -b - m ** -b)


def _random_state(seed, n=64, scale=0.1):
    rng = np.random.default_rng(seed)
    r = scale * rng.standard_normal(n)
    p = scale * rng.standard_normal(n)
    return LatticeState(r=r, p=p, t=0.0)


def _config(n=64, alpha=2.0, cutoff=10, dt=0.02):
    return LatticeConfig(N=n, alpha=alpha, cutoff=cutoff, dt=dt)


# ---------------------------------------------------------------------------
# pair kernels: V_m(g) = _kernel(g, m) and V_m'(g) = _kernel_prime(g, m)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
def test_v_m_matches_naive_formula_at_moderate_argument(alpha):
    for m in (1, 2, 7):
        for g in (-0.4, -0.05, 0.05, 0.3):
            got = _kernel(g * m, m, alpha)
            ref = _naive_pair_potential(g * m, m, alpha)
            assert abs(got - ref) < 1e-12 * max(abs(ref), 1e-30)


def test_v_m_small_argument_against_leading_term():
    # for tiny g the potential is alpha(alpha+1)/2 * g^2 * m^-(alpha+2)
    alpha = 2.0
    for m in (1, 5):
        for g in (1e-9, 1e-7, -1e-8):
            lead = 0.5 * alpha * (alpha + 1.0) * g * g * m ** -(alpha + 2.0)
            got = _kernel(g, m, alpha)
            assert abs(got - lead) < 1e-6 * lead + 1e-300


def test_v_m_series_crossover_continuity():
    # both branches must agree with an extended-precision evaluation of the
    # naive formula on their own side of the switch point x = 1e-3
    alpha = 1.7
    m = 3
    for x in (0.999e-3, 1.001e-3):
        g = np.longdouble(x) * m
        mu = np.longdouble(m)
        ref = float((mu + g) ** -alpha - mu ** -alpha
                    + alpha * g * mu ** (-alpha - 1.0))
        got = _kernel(float(g), m, alpha)
        assert abs(got - ref) < 1e-9 * abs(ref)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
def test_kernels_match_mpmath(alpha):
    # 50-digit references on both sides of the series crossover, at small,
    # compressed and stretched windows, with mu = m and with mu = m + b
    with mpmath.workdps(50):
        al = mpmath.mpf(alpha)
        for x in (1e-9, 0.999e-3, 1.001e-3, -0.3, 0.5):
            for mu in (1.0, 3.0, 17.0, 4.3):
                a = x * mu
                A, Mu = mpmath.mpf(a), mpmath.mpf(mu)
                ref = (Mu + A) ** -al - Mu ** -al + al * A * Mu ** (-al - 1)
                ref_prime = -al * ((Mu + A) ** (-al - 1) - Mu ** (-al - 1))
                got = float(_kernel(a, mu, alpha))
                got_prime = float(_kernel_prime(a, mu, alpha))
                # the five-term series is truncated at O(x^5) relative: at the
                # crossover that is ~4e-15, as small as the rounding elsewhere
                assert abs(got / ref - 1) < 1e-13, (x, mu)
                assert abs(got_prime / ref_prime - 1) < 1e-14, (x, mu)


def test_v_m_nonnegative_and_zero_at_origin():
    rng = np.random.default_rng(11)
    g = 0.8 * rng.uniform(-0.5, 0.5, 200)
    vals = _kernel(g, 1, 2.2)
    assert np.all(vals >= 0.0)
    assert _kernel(0.0, 4, 2.2) == 0.0
    assert _kernel_prime(0.0, 4, 2.2) == 0.0


def test_v_m_prime_is_derivative():
    alpha = 2.3
    m = 2
    h = 1e-6
    for g in (-0.3, -0.01, 0.02, 0.5):
        fd = (_kernel(g + h, m, alpha) - _kernel(g - h, m, alpha)) / (2.0 * h)
        got = _kernel_prime(g, m, alpha)
        assert abs(got - fd) < 1e-7 * max(abs(got), 1e-12)


def test_v_m_prime_accurate_at_tiny_argument():
    # closed form must reproduce a(a+1) g m^-(a+2) without cancellation
    alpha = 2.0
    g = 1e-10
    lead = alpha * (alpha + 1.0) * g  # m = 1
    assert abs(_kernel_prime(g, 1, alpha) - lead) < 1e-6 * abs(lead)


def test_w_m_relations():
    # error_energy's W_m(a, b) = _kernel(a, m + b) is the second-order
    # remainder of V_m around b, and its a-derivative the slope difference
    alpha = 2.1
    a, b, m = 0.12, 0.3, 4

    def v(g):
        return float(_kernel(g, m, alpha))

    def vp(g):
        return float(_kernel_prime(g, m, alpha))

    assert float(_kernel(a, m + b, alpha)) == pytest.approx(
        v(b + a) - v(b) - vp(b) * a, rel=1e-12)
    assert float(_kernel_prime(a, m + b, alpha)) == pytest.approx(
        vp(b + a) - vp(b), rel=1e-12)


def test_kernel_collision_guard():
    with pytest.raises(CollisionError):
        _kernel(-1.0, 1, 2.0)
    with pytest.raises(CollisionError):
        _kernel(np.array([0.1, -1.5]), 1, 2.0)
    with pytest.raises(CollisionError):
        _kernel_prime(np.array([0.1, -1.5]), 1, 2.0)


# ---------------------------------------------------------------------------
# window sums and forces


def test_gsum_matches_direct_loop(monkeypatch):
    # blocks of at most max(1, block // N) ranges cover m = 1..M in order;
    # at block 100 the 32-site ring splits into blocks of 3, the last of 2
    rng = np.random.default_rng(3)
    r = rng.standard_normal(32)
    for block in (lattice._BLOCK_ELEMENTS, 100):
        monkeypatch.setattr(lattice, "_BLOCK_ELEMENTS", block)
        blocks = list(_window_sums(r, 32))
        B = max(1, block // 32)
        assert all(ms.shape == (min(B, 32 - i * B), 1)
                   and G.shape == (ms.size, 32)
                   for i, (ms, G) in enumerate(blocks))
        ms = np.concatenate([ms[:, 0] for ms, _ in blocks])
        assert np.array_equal(ms, np.arange(1, 33))
        for m, G in zip(ms.astype(int), np.concatenate([G for _, G in blocks])):
            direct = np.array([sum(r[(j + l) % 32] for l in range(m))
                               for j in range(32)])
            assert np.allclose(G, direct, atol=1e-12)


def _force_per_range(r, config):
    # force one range at a time, as before the blocks: the same operations
    # per element in the same order, so the blocked force must match it bit
    # for bit
    N = r.size
    cs = np.concatenate(([0.0], np.cumsum(np.concatenate((r, r)))))
    f = np.zeros(N)
    for m in range(1, config.cutoff + 1):
        w = _kernel_prime(cs[m:m + N] - cs[:N], m, config.alpha)
        f += w
        f[m:] -= w[:-m]
        f[:m] -= w[-m:]
    return f


@pytest.mark.parametrize("alpha", [1.8, 2.5])
def test_force_matches_per_range_loop_at_block_edges(alpha):
    # M below, at, one past and one short of three blocks; and a ring of
    # more than _BLOCK_ELEMENTS sites, where every block is one range
    N = 320
    B = lattice._BLOCK_ELEMENTS // N
    cases = [(N, M) for M in (B // 2, B, B + 1, 3 * B - 1)]
    cases.append((lattice._BLOCK_ELEMENTS + 16, 4))
    rng = np.random.default_rng(15)
    for N, M in cases:
        r = 0.05 * rng.standard_normal(N)
        cfg = _config(n=N, alpha=alpha, cutoff=M)
        assert np.array_equal(lattice._direct_force(r, alpha, M),
                              _force_per_range(r, cfg)), (N, M)


def test_force_memory_stays_bounded():
    # one block is ~128 KiB; an M x N stack at (1448, 723) would be 8 MiB
    N, M = 1448, 723
    r = 1e-3 * np.sin(2.0 * np.pi * np.arange(N) / N)
    cfg = _config(n=N, cutoff=M)
    force(r, cfg)
    tracemalloc.start()
    try:
        force(r, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_force_matches_double_loop_oracle():
    rng = np.random.default_rng(5)
    n, alpha, cutoff = 32, 2.0, 9
    r = 0.05 * rng.standard_normal(n)
    cfg = _config(n=n, alpha=alpha, cutoff=cutoff)
    # position-space oracle: f_j = sum_m [V'(G_m r_j) - V'(G_m r_{j-m})],
    # the sign that closes the Hamiltonian flow with rdot_j = p_{j+1} - p_j
    oracle = np.zeros(n)
    for j in range(n):
        acc = 0.0
        for m in range(1, cutoff + 1):
            gj = sum(r[(j + l) % n] for l in range(m))
            gjm = sum(r[(j - m + l) % n] for l in range(m))
            acc += (_pair_slope_longdouble(gj, m, alpha)
                    - _pair_slope_longdouble(gjm, m, alpha))
        oracle[j] = acc
    assert np.max(np.abs(force(r, cfg) - oracle)) < 1e-12


def test_force_equivariance_and_momentum():
    rng = np.random.default_rng(6)
    cfg = _config()
    r = 0.08 * rng.standard_normal(64)
    f = force(r, cfg)
    assert abs(float(np.sum(f))) < 1e-13
    s = 17
    assert np.allclose(force(np.roll(r, s), cfg), np.roll(f, s), atol=1e-14)


@st.composite
def _ring_cases(draw):
    # a ring, a block of B ranges per _window_sums block, and a cutoff on a
    # block edge (a multiple of B) or off one
    N = 2 * draw(st.integers(8, 40))
    B = draw(st.integers(1, 6))
    cap = N // 2 - 1
    if draw(st.booleans()) and B <= cap:
        M = B * draw(st.integers(1, cap // B))
    else:
        M = draw(st.integers(1, cap))
    alpha = draw(st.floats(1.2, 2.9))
    amp = draw(st.floats(1e-6, 0.05))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    r = amp * np.random.default_rng(seed).standard_normal(N)
    return N, B, M, alpha, r, draw(st.integers(1, N - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_ring_cases())
def test_force_properties(case):
    # zero net force, equivariance under a shift of the ring, and reflection
    # antisymmetry: reversing the gaps reflects the chain, so
    # f(reversed r)_j = -f(r)_{(N - j) mod N}
    N, B, M, alpha, r, s = case
    cfg = _config(n=N, alpha=alpha, cutoff=M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_BLOCK_ELEMENTS", B * N)
        f = force(r, cfg)
        shifted = force(np.roll(r, s), cfg)
        reflected = force(r[::-1], cfg)
    tol = 1e-13 * max(float(np.max(np.abs(f))), 1e-300) * M
    assert abs(float(np.sum(f))) <= tol
    assert np.max(np.abs(shifted - np.roll(f, s))) <= tol
    assert np.max(np.abs(reflected + np.roll(f[::-1], 1))) <= tol


def test_force_zero_at_flat_lattice():
    cfg = _config()
    assert np.max(np.abs(force(np.zeros(64), cfg))) == 0.0


@pytest.mark.parametrize("call", [
    lambda state, cfg: force(state.r, cfg),
    energy,
    lambda state, cfg: run_steps(state, cfg, 2),
], ids=["force", "energy", "run_steps"])
def test_ring_size_mismatch_is_refused(call):
    # 32 gaps under N = 64, cutoff 31: ranges past half the 32-site ring
    # counted each pair twice (force, energy), or failed on a broadcast
    cfg = LatticeConfig(N=64, alpha=2.0, cutoff=31, dt=0.1)
    state = LatticeState(r=np.zeros(32), p=np.zeros(32), t=0.0)
    with pytest.raises(ValueError, match=r"32 gaps .* N = 64"):
        call(state, cfg)


# ---------------------------------------------------------------------------
# integrator


def test_split_step_advances_time():
    state = _random_state(7)
    cfg = _config()
    [out] = run_steps(state, cfg, 1)
    assert out.t == pytest.approx(cfg.dt)
    assert out.r.shape == state.r.shape


def _linear_force_matrix(n, alpha, cutoff):
    # the direct-sum linear part of force: f_j = sum_m a(a+1) m^-(a+2)
    # (G_m r_j - G_m r_{j-m}), column by column on unit vectors
    L = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        for m in range(1, cutoff + 1):
            g = sum(np.roll(e, -l) for l in range(m))
            L[:, i] += (alpha * (alpha + 1.0) * m ** -(alpha + 2.0)
                        * (g - np.roll(g, m)))
    return L


def test_run_steps_matches_dense_strang_steps():
    # against Strang steps written here: half kicks by the remainder
    # force(r) - L r and the dense 2N x 2N flow of the linear chain,
    # rdot_j = p_{j+1} - p_j and pdot = L r, from expm
    state = _random_state(8, n=32)
    cfg = _config(n=32, cutoff=15, dt=0.1)
    [a] = run_steps(state, cfg, 5)
    n = cfg.N
    D = np.roll(np.eye(n), 1, axis=1) - np.eye(n)   # (D p)_j = p_{j+1} - p_j
    L = _linear_force_matrix(n, cfg.alpha, cfg.cutoff)
    flow = expm(cfg.dt * np.block([[np.zeros((n, n)), D],
                                   [L, np.zeros((n, n))]]))
    r, p = state.r.copy(), state.p.copy()
    for _ in range(5):
        p = p + 0.5 * cfg.dt * (force(r, cfg) - L @ r)
        r, p = np.split(flow @ np.concatenate((r, p)), 2)
        p = p + 0.5 * cfg.dt * (force(r, cfg) - L @ r)
    assert np.max(np.abs(a.r - r)) < 1e-13
    assert np.max(np.abs(a.p - p)) < 1e-13
    assert a.t == pytest.approx(5 * cfg.dt)


@pytest.mark.parametrize("alpha", [1.8, 2.5])
@pytest.mark.parametrize("n, cutoff", [(32, 15), (2048, 1023), (2048, 40)])
def test_unstable_split_step_is_refused(alpha, n, cutoff):
    # the top linear frequency, summed here range by range at every bin:
    # a dt just below 0.9 pi / omega_max steps, one just above is refused,
    # and step_limit reports that dt
    k = 2.0 * np.pi * np.arange(1, n // 2 + 1) / n
    m = np.arange(1, cutoff + 1, dtype=float)
    omega2 = 2.0 * alpha * (alpha + 1.0) * np.sum(
        m ** -(alpha + 2.0) * (1.0 - np.cos(np.outer(k, m))), axis=1)
    limit = 0.9 * np.pi / np.sqrt(omega2.max())
    assert lattice.step_limit(n, alpha, cutoff) \
        == pytest.approx(limit, rel=1e-12)
    state = _random_state(18, n=n, scale=0.01)
    run_steps(state, _config(n=n, alpha=alpha, cutoff=cutoff,
                             dt=limit * (1 - 1e-9)), 1)
    with pytest.raises(ValueError, match="stability limit"):
        run_steps(state, _config(n=n, alpha=alpha, cutoff=cutoff,
                                 dt=limit * (1 + 1e-9)), 1)


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
@pytest.mark.parametrize("n, cutoff",
                         [(32, 15), (32, 6), (512, 255), (512, 40)])
def test_split_remainder_is_quadratic(alpha, n, cutoff):
    # at amplitude 1e-8 the remainder force(r) - L r is O(r^2), a relative
    # 1e-8 of the force: the linear flow's symbol must have force's cutoff
    # (one range more or less leaves cutoff^-(alpha+2) of the force)
    rng = np.random.default_rng(16)
    r = 1e-8 * rng.standard_normal(n)
    r -= r.mean()
    cfg = _config(n=n, alpha=alpha, cutoff=cutoff)
    f = force(r, cfg)
    L = lattice._linear_flow(cfg)[0]
    R = f - np.fft.irfft(L * np.fft.rfft(r), n)
    assert np.linalg.norm(R) <= 1e-7 * np.linalg.norm(f)
    if n == 32:
        assert np.allclose(np.fft.irfft(L * np.fft.rfft(r), n),
                           _linear_force_matrix(n, alpha, cutoff) @ r,
                           rtol=0, atol=1e-12 * np.max(np.abs(f)))


# ---------------------------------------------------------------------------
# far ranges by moments


def _validate_state(alpha, n):
    # the validate initial state, on a ring of n sites
    cfg = ValidationConfig(alpha=alpha)
    u0 = _initial_profile(cfg, DEFAULT_VALIDATION_AMPLITUDE)
    return ansatz_fields(u0.spectrum, cfg.period, n, make_alpha_params(alpha))


def _stepper_remainder(r, cfg):
    # the remainder R = F - L r that run_steps kicks with at r, on the ring,
    # at the state's own near range
    F = force(r, cfg)
    L = lattice._linear_flow(cfg)[0]
    return np.fft.irfft(np.fft.rfft(F) - L * np.fft.rfft(r), cfg.N)


def _direct(r, cfg):
    # force's direct sum over every range up to the cutoff
    return lattice._direct_force(r, cfg.alpha, cfg.cutoff)


def _direct_remainder(r, cfg):
    # the same with F the direct sum
    L = lattice._linear_flow(cfg)[0]
    return np.fft.irfft(np.fft.rfft(_direct(r, cfg)) - L * np.fft.rfft(r),
                        cfg.N)


def _record_force_cutoffs(monkeypatch):
    # the range of every direct sum: the near range beside the moments, or
    # the whole cutoff
    calls = []
    real = lattice._direct_force
    monkeypatch.setattr(lattice, "_direct_force",
                        lambda r, alpha, M: calls.append(M)
                        or real(r, alpha, M))
    return calls


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
@pytest.mark.parametrize("n, cutoff",
                         [(512, 255), (724, 361), (1448, 723), (2048, 160)])
def test_far_field_remainder_matches_force(alpha, n, cutoff, monkeypatch):
    # the validate initial state, that state 100 steps on, and a ring of mean
    # 0.03: run_steps' remainder, its ranges past NEAR_RANGE summed by
    # moments (2 max|s| is 1.8 or less), against the direct sum's to 1e-12
    # of max|force|
    cfg = _config(n=n, alpha=alpha, cutoff=cutoff, dt=0.1)
    r, p = _validate_state(alpha, n)
    stepped = run_steps(LatticeState(r=r, p=p), cfg, 100)[-1].r
    calls = _record_force_cutoffs(monkeypatch)
    for ring in (r, stepped, r + 0.03):
        calls.clear()
        got = _stepper_remainder(ring, cfg)
        assert calls == [lattice.NEAR_RANGE]
        want = _direct_remainder(ring, cfg)
        assert (np.max(np.abs(got - want))
                <= 1e-12 * np.max(np.abs(_direct(ring, cfg))))


@st.composite
def _far_cases(draw):
    # a ring past twice the near range, a few long waves with white noise
    # on top, any mean, and amplitudes on both sides of far_bound's limit
    N = 2 * draw(st.integers(2 * lattice.NEAR_RANGE + 2, 160))
    M = draw(st.integers(2 * lattice.NEAR_RANGE + 1, N // 2 - 1))
    alpha = draw(st.floats(1.5, 2.9))
    amp = draw(st.floats(1e-6, 0.05))
    mean = draw(st.floats(-0.05, 0.05))
    noise = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = 2.0 * np.pi * np.arange(N) / N
    r = sum(rng.uniform(-1, 1) * np.cos(k * x + rng.uniform(0, 2 * np.pi))
            for k in range(1, 5)) + noise * rng.standard_normal(N)
    return _config(n=N, alpha=alpha, cutoff=M, dt=0.1), (
        mean + amp * r / np.max(np.abs(r)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_far_cases())
def test_far_field_properties(case):
    # the moments are taken exactly when far_bound meets FAR_TOL and the
    # state's near range falls short of the cutoff, and then match the
    # direct sum to 1e-12 of max|force| + |rho| (the direct sum cancels pair
    # slopes of size ~|rho| in every m-difference, so its own rounding
    # scales with |rho| too); otherwise the step is the direct sum's, bit
    # for bit
    cfg, r = case
    rho = float(np.mean(r))
    x = float(np.max(np.abs(r - rho))) / (1.0 + rho)
    M0 = lattice.near_range(cfg.cutoff, float(np.max(np.abs(
        lattice._scaled_primitive(r, rho)))))
    takes_moments = (lattice.far_bound(x, cfg.alpha, lattice.FAR_ORDER)
                     <= lattice.FAR_TOL and M0 < cfg.cutoff)
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_force_cutoffs(mp)
        got = _stepper_remainder(r, cfg)
    want = _direct_remainder(r, cfg)
    if not takes_moments:
        assert calls == [cfg.cutoff]
        assert np.array_equal(got, want)
    else:
        assert calls == [M0]
        assert (np.max(np.abs(got - want))
                <= 1e-12 * (np.max(np.abs(_direct(r, cfg))) + abs(rho)))


def _far_sum_longdouble(r, alpha, M0, M):
    # force's ranges M0 < m <= M in long double, pair slope by pair slope
    n = r.size
    cs = np.concatenate(([0], np.cumsum(np.concatenate((r, r)).astype(
        np.longdouble))))
    f = np.zeros(n, dtype=np.longdouble)
    for m in range(M0 + 1, M + 1):
        w = _pair_slope_longdouble(cs[m:m + n] - cs[:n], m, alpha)
        f += w - np.roll(w, m)     # w_j - w_{j-m}
    return f


def _step_state():
    # a ring of 256 sites that holds a step of window means near x = 0.1 at
    # every range, with its mean, scaled primitive and near range at
    # cutoff 127, which is 12
    r = np.full(256, 0.03 - 0.1 / 3.0)
    r[:64] = 0.03 + 0.1
    rho = float(np.mean(r))
    s = lattice._scaled_primitive(r, rho)
    M0 = lattice.near_range(127, float(np.max(np.abs(s))))
    assert M0 == 12
    return r, rho, s, M0


def _far_error_and_allowance(alpha, p):
    # the far field at order p on a ring that holds a step of window means
    # near x = 0.1 at every range, where the dropped orders are measurable,
    # against the long-double far sum (the double-precision direct sum's own
    # rounding, 1.6e-13 to 3.3e-13 of the far field here, would exceed the
    # 1e-14 allowance at p >= 15), with the held weights cut to p + 1 rows
    # and with all of them, through FAR_ORDER, which must give the same
    # field to the last bit, since rows past p never enter; and the bound it
    # is gated by: a far pair slope errs by at most alpha (1+rho)^-(alpha+1)
    # m^-(alpha+1) (alpha+1) x far_bound, and a force by twice the sum of
    # that over the far ranges.  The far ranges are those past the state's
    # near range: 2 max|s| = 6.21 here, so 12 (at 8 the far field errs by
    # 1.0-1.4e-14 of itself, past the allowance)
    n, cutoff = 256, 127
    r, rho, s, M0 = _step_state()
    x = 0.1 / (1.0 + rho)
    cfg = _config(n=n, alpha=alpha, cutoff=cutoff)
    want = _far_sum_longdouble(r, alpha, M0, cutoff)
    b = lattice._held_far_weights(cfg, M0)
    got, held = (lattice._far_field(s, rho, cfg, p, rows)
                 for rows in (b[:p + 1], b))
    assert np.array_equal(got, held)
    err = float(np.max(np.abs(got - want)))
    m = np.arange(M0 + 1, cutoff + 1, dtype=float)
    allowed = (2.0 * alpha * (1.0 + rho) ** -(alpha + 1.0) * (alpha + 1.0) * x
               * lattice.far_bound(x, alpha, p)
               * float(np.sum(m ** -(alpha + 1.0))))
    return err, allowed, float(np.max(np.abs(want)))


@pytest.mark.parametrize("alpha", [1.8, 2.5])
def test_far_field_error_within_its_a_priori_bound(alpha):
    # at FAR_ORDER the allowance is below 1e-7 of the far field
    err, allowed, scale = _far_error_and_allowance(alpha, lattice.FAR_ORDER)
    assert allowed < 1e-7 * scale
    assert err <= allowed + 1e-14 * scale


@pytest.mark.parametrize("alpha", [1.8, 2.5])
@pytest.mark.parametrize("p", range(1, lattice.FAR_ORDER + 1))
def test_far_field_at_each_order_within_its_bound(alpha, p, monkeypatch):
    # every order p keeps whole orders n = q + k <= p of the binomial split;
    # weights cut at q, k <= p instead would keep parts of the orders past
    # p, whose terms in s_j^q s_{j+m}^k are far larger than the orders
    # themselves, and miss this allowance
    err, allowed, scale = _far_error_and_allowance(alpha, p)
    assert err <= allowed + 1e-14 * scale
    # far_order picks the least order whose bound meets FAR_TOL: at x = 0.1
    # order 15 at alpha 1.8 and 16 at 2.5
    least = lattice.far_order(0.1, alpha)
    assert least == {1.8: 15, 2.5: 16}[alpha]
    assert (lattice.far_bound(0.1, alpha, least) <= lattice.FAR_TOL
            < lattice.far_bound(0.1, alpha, least - 1))
    monkeypatch.setattr(lattice, "FAR_TOL", lattice.far_bound(0.1, alpha, p))
    assert lattice.far_order(0.1, alpha) == p


def _far_bound_by_product(x, alpha, p):
    # far_bound with its product |C(-alpha-1, p+1)| formed afresh at each p
    q = (1.0 + alpha / (p + 2.0)) * x
    if not q < 1.0:
        return math.inf
    lead = math.prod((alpha + i) / i for i in range(1, p + 2))
    return lead * x ** p / ((alpha + 1.0) * (1.0 - q))


@pytest.mark.parametrize("alpha", [1.2, 1.8, 2.0, 2.5, 2.9])
def test_far_order_matches_a_rescan_of_far_bound(alpha):
    # one pass with the product carried from order to order gives every
    # bound of the rescan to the last bit, and so the same least order
    for x in [*np.geomspace(1e-6, 0.3, 200), 0.0, 0.9, math.nan]:
        bounds = [_far_bound_by_product(x, alpha, p)
                  for p in range(1, lattice.FAR_ORDER + 1)]
        assert [lattice.far_bound(x, alpha, p)
                for p in range(1, lattice.FAR_ORDER + 1)] == bounds
        assert lattice.far_order(x, alpha) == next(
            (p for p, b in enumerate(bounds, 1) if b <= lattice.FAR_TOL), 0)


def test_far_field_refuses_too_few_weight_rows():
    cfg = _config(n=256, cutoff=127)
    s = lattice._scaled_primitive(
        0.01 * np.sin(2.0 * np.pi * np.arange(256) / 256), 0.0)
    with pytest.raises(ValueError, match="order 12 needs 13 weight rows, "
                                         "got 11"):
        lattice._far_field(s, 0.0, cfg, 12, lattice._held_far_weights(
            cfg, lattice.NEAR_RANGE)[:11])


def _far_field_by_real_rows(s, rho, config, p, b):
    # _far_field as it was summed on the real weight rows: each row b_{q+k}
    # times the powers' spectra rotated by i^(k+1), every H_q rotated by i^q
    # and scaled by (-1)^q/q! at the end
    alpha, N = config.alpha, s.size
    i_powers = np.array([1.0, 1j, -1.0, -1j])
    H = np.zeros((p + 1, N // 2 + 1), dtype=complex)
    H.imag[:, 0] = N * b[:p + 1, 0]
    ks = np.arange(1, p + 1)
    P = s / ks[:, None]
    for k in range(1, p):
        P[k] *= P[k - 1]
    P = np.fft.rfft(P)
    P *= i_powers[(ks + 1) % 4, None]
    for k, Pk in zip(ks, P):
        H[:p + 1 - k] += b[k:p + 1] * Pk
    H *= (np.cumprod([1.0] + [-1.0 / q for q in range(1, p + 1)])
          * i_powers[np.arange(p + 1) % 4])[:, None]
    out = np.zeros(N)
    for h in np.fft.irfft(H, N)[::-1]:
        out *= s
        out += h
    return -alpha * (1.0 + rho) ** -(alpha + 1.0) * out


@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("p", [1, 8, 17, 24])
@pytest.mark.parametrize("alpha", [1.8, 2.5])
def test_far_field_equals_the_real_row_sum_bit_for_bit(alpha, p, n):
    # the complex rows B_n = i^(n+1) b_n only move exact rotations, so the
    # far field equals the sum on the real rows to the last bit, with
    # force's held rows and with energy's rows b_n/(n + 1), at the validate
    # state at the ring cap
    cfg = _config(n=n, alpha=alpha, cutoff=n // 2 - 1)
    r = _validate_state(alpha, n)[0]
    rho = float(np.mean(r))
    s = lattice._scaled_primitive(r, rho)
    b = lattice._held_far_weights(cfg, lattice.NEAR_RANGE)
    for rows in (b, b[:p + 1] / np.arange(1.0, p + 2.0)[:, None]):
        got = lattice._far_field(s, rho, cfg, p, rows)
        assert np.array_equal(got, _far_field_by_real_rows(s, rho, cfg, p,
                                                           rows))


# the orders and near ranges force takes on the residual states at t = 0,
# ring by ring (2 max|s| is 8.2 / 8.8 at alpha 1.8, 5.2 at 2.0, 0.2 at 2.5)
_RESIDUAL_ORDERS = {(1.8, 1024): 15, (1.8, 1448): 14, (2.0, 1024): 13,
                    (2.0, 1448): 11, (2.5, 1024): 6, (2.5, 1448): 6}
_RESIDUAL_NEAR_RANGES = {(1.8, 1024): 16, (1.8, 1448): 17, (2.0, 1024): 10,
                         (2.0, 1448): 10, (2.5, 1024): 8, (2.5, 1448): 8}


@pytest.mark.parametrize("n, cutoff", [(1024, 300), (1448, 600)])
def test_force_on_residual_states_matches_the_direct_sum(n, cutoff,
                                                         monkeypatch):
    # the residual sweeps' interaction part at t = 0: force takes the far
    # ranges by moments there, past the state's near range, at the state's
    # order from weights built through FAR_ORDER, within 1e-12 of max|f| of
    # the direct sum
    calls = _record_force_cutoffs(monkeypatch)
    orders = []
    real = lattice._far_field
    monkeypatch.setattr(lattice, "_far_field",
                        lambda s, rho, config, p, b: orders.append(p)
                        or real(s, rho, config, p, b))
    for alpha in (1.8, 2.0, 2.5):
        cfg = ValidationConfig(alpha=alpha)
        u0 = gaussian_profile(PeriodicGrid(cfg.period, cfg.bo_modes),
                              default_residual_amplitude(alpha),
                              cfg.width_fraction)
        r = ansatz_fields(u0.spectrum, cfg.period, n,
                          make_alpha_params(alpha))[0]
        lat = _config(n=n, alpha=alpha, cutoff=cutoff, dt=1.0)
        want = _direct(r, lat)
        calls.clear()
        orders.clear()
        got = force(r, lat)
        assert calls == [_RESIDUAL_NEAR_RANGES[alpha, n]]
        assert orders == [_RESIDUAL_ORDERS[alpha, n]]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_far_field_falls_back_to_the_direct_sum_bit_for_bit(monkeypatch):
    # an amplitude far_bound refuses, a long wave whose near range reaches
    # the cutoff (4 max|s| = 78 against 60), and a NaN: run_steps steps
    # exactly as with every range summed directly
    assert lattice.far_bound(0.3, 2.0, lattice.FAR_ORDER) > lattice.FAR_TOL
    assert lattice.far_bound(math.nan, 2.0, lattice.FAR_ORDER) == math.inf
    calls = _record_force_cutoffs(monkeypatch)
    for n, cutoff, amp in ((512, 255, 0.3), (4096, 60, 0.03)):
        x = 2.0 * np.pi * np.arange(n) / n
        state = LatticeState(r=amp * np.sin(x), p=amp * np.cos(x))
        cfg = _config(n=n, alpha=2.0, cutoff=cutoff, dt=0.1)
        calls.clear()
        [a] = run_steps(state, cfg, 20)
        assert set(calls) == {cutoff}
        with monkeypatch.context() as mp:
            mp.setattr(lattice, "NEAR_RANGE", cutoff)
            [b] = run_steps(state, cfg, 20)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.p, b.p)
    r = _validate_state(2.0, 512)[0]
    r[7] = math.nan
    cfg = _config(n=512, alpha=2.0, cutoff=255)
    calls.clear()
    got = _stepper_remainder(r, cfg)
    assert calls == [255]
    assert np.array_equal(got, _direct_remainder(r, cfg), equal_nan=True)


def test_far_field_trajectory_matches_the_direct_sum(monkeypatch):
    # 200 steps of the validate state at (1448, 723), alpha 2, against the
    # same stepper with every range summed directly
    cfg = _config(n=1448, alpha=2.0, cutoff=723, dt=0.1)
    r, p = _validate_state(2.0, 1448)
    [a] = run_steps(LatticeState(r=r, p=p), cfg, 200)
    monkeypatch.setattr(lattice, "NEAR_RANGE", cfg.cutoff)
    [b] = run_steps(LatticeState(r=r, p=p), cfg, 200)
    assert np.max(np.abs(a.r - b.r)) <= 1e-12 * np.max(np.abs(b.r))
    assert np.max(np.abs(a.p - b.p)) <= 1e-12 * np.max(np.abs(b.p))


# ---------------------------------------------------------------------------
# the chain on its band: remainders on a Q-point grid


_KEPT = 171     # the bins of dealias_mask(512), the band of bo_modes 512


def _band_remainder(rh, cfg, band):
    # run_steps' remainder on the band at spectrum rh, kept bins alone, with
    # far weights held as run_steps holds them
    F = lattice._band_force(cfg, lattice._FarWeights(cfg), band)(rh)
    return F[:rh.size] - lattice._linear_flow(cfg)[0][:rh.size] * rh


def _ring_remainder_on_kept_bins(rh, cfg):
    # the ring's rfft(force(r)) - L r^ at r = irfft(rh, N), on rh's bins
    F = force(np.fft.irfft(rh, cfg.N), cfg)
    return (np.fft.rfft(F)[:rh.size]
            - lattice._linear_flow(cfg)[0][:rh.size] * rh)


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
@pytest.mark.parametrize("n", [724, 1448])
def test_band_remainder_matches_the_ring_on_the_kept_bins(alpha, n):
    # the validate initial state on the band's bins, and that state 100 band
    # steps on: the grid remainder against the ring's within 3e-11 of its
    # max on the kept bins (measured 7e-13 to 1.1e-11)
    cfg = _config(n=n, alpha=alpha, cutoff=n // 2 - 1, dt=0.1)
    r, p = _validate_state(alpha, n)
    stepped = run_steps(LatticeState(r=r, p=p), cfg, 100,
                        band=lattice.Band(512))[-1].r
    for ring in (r, stepped):
        rh = np.fft.rfft(ring)[:_KEPT]
        want = _ring_remainder_on_kept_bins(rh, cfg)
        got = _band_remainder(rh, cfg, lattice.Band(512))
        assert np.max(np.abs(got - want)) <= 3e-11 * np.max(np.abs(want))


def test_band_trajectory_matches_the_ring_stepper():
    # 120 steps of the validate state at (1448, 723), alpha 2, on the band
    # of 512 points against the stepper on the ring
    cfg = _config(n=1448, alpha=2.0, cutoff=723, dt=0.1)
    r, p = _validate_state(2.0, 1448)
    band = lattice.Band(512)
    [a] = run_steps(LatticeState(r=r, p=p), cfg, 120, band=band)
    [b] = run_steps(LatticeState(r=r, p=p), cfg, 120)
    assert np.max(np.abs(a.r - b.r)) <= 1e-12 * np.max(np.abs(b.r))
    assert np.max(np.abs(a.p - b.p)) <= 1e-12 * np.max(np.abs(b.p))
    # what the band dropped and what the kicks left out sit at rounding
    assert 0.0 < band.dropped_share <= lattice.BAND_TOL
    assert 0.0 < band.top_share <= lattice.BAND_TOL


def test_band_at_the_ring_size_or_past_it_is_the_ring(monkeypatch):
    # a band of Q >= N points leaves the ring's stepper as it is, bit for
    # bit, and records nothing dropped
    cfg = _config(n=512, alpha=2.0, cutoff=255, dt=0.1)
    r, p = _validate_state(2.0, 512)
    want = run_steps(LatticeState(r=r, p=p), cfg, 12, 4)
    for Q in (512, 1024):
        band = lattice.Band(Q)
        got = run_steps(LatticeState(r=r, p=p), cfg, 12, 4, band)
        assert all(np.array_equal(a.r, b.r) and np.array_equal(a.p, b.p)
                   and a.t == b.t for a, b in zip(got, want))
        assert band.dropped_share == band.top_share == 0.0


def test_band_falls_back_to_the_ring_force_bit_for_bit(monkeypatch):
    # an amplitude far_bound refuses and a NaN, where no order is found:
    # the band's remainder is the ring's on the kept bins, to the last bit
    calls = _record_force_cutoffs(monkeypatch)
    n, cutoff = 1024, 511
    rh = np.fft.rfft(0.3 * np.sin(2.0 * np.pi * np.arange(n) / n))[:_KEPT]
    cfg = _config(n=n, alpha=2.0, cutoff=cutoff, dt=0.1)
    got = _band_remainder(rh, cfg, lattice.Band(512))
    assert calls == [cutoff]
    assert np.array_equal(got, _ring_remainder_on_kept_bins(rh, cfg))
    cfg = _config(n=1448, alpha=2.0, cutoff=723)
    rh = np.fft.rfft(_validate_state(2.0, 1448)[0])[:_KEPT]
    rh[7] = math.nan
    calls.clear()
    got = _band_remainder(rh, cfg, lattice.Band(512))
    assert calls == [723]
    assert np.array_equal(got, _ring_remainder_on_kept_bins(rh, cfg),
                          equal_nan=True)


def test_near_range_follows_the_state_on_the_ring_and_the_band(monkeypatch):
    # near_range is the least M0 >= NEAR_RANGE with 2 max|s| <= (M0 + 1)/2,
    # up to the cutoff, and the whole cutoff within 2 NEAR_RANGE
    assert lattice.near_range(100) == lattice.NEAR_RANGE == 8
    assert lattice.near_range(16, 50.0) == 16
    assert lattice.near_range(100, 5.0) == 19
    assert lattice.near_range(100, np.nextafter(5.0, math.inf)) == 20
    assert lattice.near_range(100, 1e3) == 100
    # The ring takes its state's max|s| (_far_split): a long wave scaled to
    # put 4 max|s| just below and just past 20 sums 19 and 20 ranges
    # directly.  The band takes the bound 2 sum|s^_n|/Q first and, where
    # that asks for more than NEAR_RANGE, the max|s| of the ring's sites
    # (_band_force), cos(pi/n) of the bound for this wave, whose sites lie
    # half a cell off its peaks; it never falls back to the ring for it
    asked = []
    real = lattice.near_range
    monkeypatch.setattr(lattice, "near_range", lambda cutoff, s_max=0.0:
                        asked.append(s_max) or real(cutoff, s_max))
    calls = _record_force_cutoffs(monkeypatch)
    n, cutoff = 4096, 100
    cfg = _config(n=n, alpha=2.0, cutoff=cutoff, dt=0.1)
    wave = 1e-3 * np.sin(2.0 * np.pi * np.arange(n) / n)

    def ring(r):
        return force(r, cfg)

    def band(r):
        band = lattice.Band(512)
        held = lattice._FarWeights(cfg)
        got = lattice._band_force(cfg, held, band)(np.fft.rfft(r)[:_KEPT])
        assert band.fallbacks == 0
        return got, held.largest

    def s_maxes(step, r):
        # the max|s| (or its bound) near_range is given, with the step's
        # result
        asked.clear()
        calls.clear()
        out = step(r)
        return list(asked), out

    [ring_ref], _ = s_maxes(ring, wave)
    for scale, M0 in ((1.0 - 1e-9, 19), (1.0 + 1e-9, 20)):
        s_maxes(ring, 5.0 / ring_ref * scale * wave)
        assert calls == [M0]
    # a small wave: the bound alone, no transform at the ring's length
    [band_ref], (_, M0) = s_maxes(band, wave)
    assert M0 == lattice.NEAR_RANGE and calls == []
    r = 5.0 / band_ref * (1.0 + 1e-7) * wave
    (bound, site), (got, M0) = s_maxes(band, r)
    assert 4.0 * site <= 20.0 < 4.0 * bound and M0 == 19
    assert site / bound == pytest.approx(math.cos(math.pi / n), abs=1e-12)
    assert calls == []
    # the band's force at the sites' near range is the ring's, to 1e-10 of
    # its max
    want = _ring_remainder_on_kept_bins(np.fft.rfft(r)[:_KEPT], cfg)
    got = got[:_KEPT] - lattice._linear_flow(cfg)[0][:_KEPT] * np.fft.rfft(
        r)[:_KEPT]
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    site_ref = site / (5.0 / band_ref * (1.0 + 1e-7))
    for scale, want_M0 in ((1.0 - 1e-9, 19), (1.0 + 1e-9, 20)):
        (bound, site), (_, M0) = s_maxes(band, 5.0 / site_ref * scale * wave)
        assert M0 == want_M0 and 4.0 * bound > 20.0


@pytest.mark.parametrize("n, amp", [(1024, 0.03), (1024, 0.06),
                                    (4096, 0.03), (4096, 0.06)])
def test_force_past_the_old_guard_matches_the_direct_sum(n, amp,
                                                         monkeypatch):
    # mode-1 waves with 2 max|s| of 9.8 to 78, which once summed every range
    # directly: force at the state's near range within 1e-12 of max|f| of
    # the direct sum over every range, at the ring cap
    calls = _record_force_cutoffs(monkeypatch)
    cfg = _config(n=n, alpha=2.0, cutoff=n // 2 - 1)
    r = amp * np.sin(2.0 * np.pi * np.arange(n) / n)
    s_max = float(np.max(np.abs(lattice._scaled_primitive(r, 0.0))))
    M0 = lattice.near_range(cfg.cutoff, s_max)
    assert lattice.NEAR_RANGE < M0 < cfg.cutoff
    got = force(r, cfg)
    assert calls == [M0]
    want = _direct(r, cfg)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_force_at_the_step_state_matches_the_direct_sum():
    # _step_state, 2 max|s| = 6.2, near range 12
    r = _step_state()[0]
    for alpha in (1.8, 2.5):
        cfg = _config(n=256, alpha=alpha, cutoff=127)
        want = _direct(r, cfg)
        assert (np.max(np.abs(force(r, cfg) - want))
                <= 1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("bin_, what, share", [
    (200, "of the state", "dropped_share"),
    (160, "of the force's grid spectrum", "top_share")])
def test_band_refuses_content_past_its_bins(bin_, what, share):
    # the validate state with a wave of 1e-8 at bin 200, past the band's
    # 171 bins, or at bin 160, within them but whose products with the
    # profile pass them: BlowUpError at the start, naming t and alpha, with
    # the share recorded on the band
    cfg = _config(n=1448, alpha=2.0, cutoff=723, dt=0.1)
    r, p = _validate_state(2.0, 1448)
    x = 2.0 * np.pi * np.arange(1448) / 1448
    band = lattice.Band(512)
    with pytest.raises(lattice.BlowUpError, match=what) as info:
        run_steps(LatticeState(r=r + 1e-8 * np.cos(bin_ * x), p=p, t=2.5),
                  cfg, 10, band=band)
    assert info.value.t == 2.5 and info.value.alpha == 2.0
    assert getattr(band, share) > lattice.BAND_TOL


def test_band_collision_is_tested_on_the_ring_sites(monkeypatch):
    # a long wave whose first step takes it past max|r| = 1 on a band: the
    # bound on max|r| lets the ring's sites be formed and tested, and the
    # step names its t and alpha.  A wave whose bound reaches 1 while its
    # sites stay below 1 passes the collision test; its harmonics pass the
    # band, so BAND_TOL is lifted for it
    n = 1024
    x = 2.0 * np.pi * np.arange(n) / n
    cfg = _config(n=n, alpha=2.0, cutoff=511, dt=0.5)
    state = LatticeState(r=0.5 * np.sin(x), p=400.0 * np.sin(x), t=1.0)
    with pytest.raises(CollisionError) as info:
        run_steps(state, cfg, 3, band=lattice.Band(512))
    assert info.value.t == 1.5 and info.value.alpha == 2.0
    r = 0.51 * (np.sin(x) + np.sin(3.0 * x + 0.5))
    assert np.sum(np.abs(np.fft.rfft(r))) * 2.0 / n >= 1.0 > np.max(np.abs(r))
    monkeypatch.setattr(lattice, "BAND_TOL", math.inf)
    [out] = run_steps(LatticeState(r=r, p=np.zeros(n)), cfg, 1,
                      band=lattice.Band(512))
    assert np.max(np.abs(out.r)) < 1.0


def test_run_steps_memory_stays_bounded():
    # the far weights, 25 real rows of N/2 + 1 bins or 142 KiB at
    # (1448, 723), live for one call (peak 0.66 MiB, where an M x N stack
    # would be 8 MiB); the returned state holds only r and p, 25 KiB
    cfg = _config(n=1448, alpha=2.0, cutoff=723, dt=0.1)
    r, p = _validate_state(2.0, 1448)
    state = LatticeState(r=r, p=p)
    run_steps(state, cfg, 2)
    tracemalloc.start()
    try:
        [out] = run_steps(state, cfg, 2)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.t > 0.0
    assert peak < 2 ** 20
    assert current < 256 * 2 ** 10


def test_run_steps_builds_far_weights_only_past_twice_the_near_range(
        monkeypatch):
    # one call builds the held weights once: within a cutoff of
    # 2 NEAR_RANGE every range is summed directly and none are built; one
    # range more, and they are built through FAR_ORDER for the ranges past
    # NEAR_RANGE; a band given records the ranges summed directly
    built = []
    real = lattice._held_far_weights

    def counted(config, M0):
        b = real(config, M0)
        built.append((M0, len(b) - 1))
        return b

    monkeypatch.setattr(lattice, "_held_far_weights", counted)
    state = _random_state(7, n=128, scale=1e-3)
    M = 2 * lattice.NEAR_RANGE
    for cutoff, want in ((M, []), (M + 1, [(lattice.NEAR_RANGE,
                                            lattice.FAR_ORDER)])):
        built.clear()
        band = lattice.Band(128)
        run_steps(state, _config(n=128, cutoff=cutoff, dt=0.05), 3,
                  band=band)
        assert built == want
        assert band.near_range == (M if cutoff == M else lattice.NEAR_RANGE)


def test_far_weights_follow_each_state(monkeypatch):
    # each state takes its own near range: the weights are built anew where
    # it changes, none for a state that takes no moments, which drops the
    # set held; a band's near rows are built once per near range, on first
    # use; largest records the most ranges given
    built, rows = [], []
    real = lattice._held_far_weights
    monkeypatch.setattr(lattice, "_held_far_weights", lambda config, M0:
                        built.append(M0) or real(config, M0))
    cfg = _config(n=128, cutoff=40)
    held = lattice._FarWeights(cfg)
    for M0 in (8, 12, 12, 9, 40, 12):
        assert held.near(M0) == M0
        for _ in range(2):
            assert held.rows(lambda m: rows.append(m) or m) == M0
        assert (held.b is None) == (M0 == 40)
    assert built == [8, 12, 9, 12] and rows == [8, 12, 9, 40, 12]
    assert held.M0 == 12 and held.largest == 40
    assert np.array_equal(held.b, real(cfg, 12))


def test_forces_on_held_weights_equal_force_alone_bit_for_bit():
    # one holder through states whose near ranges rise and fall, as a chain
    # or a stacked residual takes them: each force is force(r) alone, to
    # the last bit, on the ring and on the band
    n = 1024
    cfg = _config(n=n, alpha=2.0, cutoff=100)
    x = 2.0 * np.pi * np.arange(n) / n
    states = [0.032 * np.sin(x), _random_state(3, n=n, scale=1e-3).r,
              0.016 * np.sin(x), 0.032 * np.sin(x)]
    held = lattice._FarWeights(cfg)
    near = []
    for r in states:
        near.append(lattice._far_split(r, cfg)[3])
        assert np.array_equal(lattice._split_force(r, cfg, held),
                              force(r, cfg))
    assert near == [20, lattice.NEAR_RANGE, 10, 20]
    held = lattice._FarWeights(cfg)
    band_force = lattice._band_force(cfg, held, lattice.Band(512))
    for r in states:
        rh = np.fft.rfft(r)[:_KEPT]
        assert np.array_equal(band_force(rh), lattice._band_force(
            cfg, lattice._FarWeights(cfg), lattice.Band(512))(rh))


def test_band_takes_every_range_in_blocks_where_its_near_range_reaches_the_cutoff():
    # the long wave at cutoff 60, whose near range (4 max|s| = 78) reaches
    # the cutoff: the band sums every range on its grid, 32 ranges at a
    # time, to within 1e-11 of the ring's force on the kept bins (measured
    # 4.7e-13), with no fallback.  A call that builds the near rows peaks
    # at 0.91 MB and a later call at 0.47 MB; all 60 ranges at once took
    # them to 1.22 and 0.81 MB
    n, cutoff = 4096, 60
    cfg = _config(n=n, alpha=2.0, cutoff=cutoff, dt=0.1)
    r = 0.03 * np.sin(2.0 * np.pi * np.arange(n) / n)
    rh = np.fft.rfft(r)[:_KEPT]
    band = lattice.Band(512)
    held = lattice._FarWeights(cfg)
    band_force = lattice._band_force(cfg, held, band)
    lattice._band_force(cfg, lattice._FarWeights(cfg), band)(rh)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            held_before = tracemalloc.get_traced_memory()[0]
            F = band_force(rh)
            peaks.append(tracemalloc.get_traced_memory()[1] - held_before)
    finally:
        tracemalloc.stop()
    assert held.M0 == cutoff and held.b is None and band.fallbacks == 0
    want = np.fft.rfft(force(r, cfg))[:_KEPT]
    assert np.max(np.abs(F[:_KEPT] - want)) <= 1e-11 * np.max(np.abs(want))
    assert peaks[0] < 2 ** 20 and peaks[1] < 2 ** 19


def test_run_steps_returns_its_checkpoints(monkeypatch):
    # every n steps of one call: K states, the last bit for bit the state
    # of one call without checkpoints, for K*n + 1 force calls in either
    # call; a partial last chunk is returned as well
    calls = _record_force_cutoffs(monkeypatch)
    state = _random_state(9, scale=0.05)
    cfg = _config()
    K, n = 4, 5
    snaps = run_steps(state, cfg, K * n, n)
    assert len(calls) == K * n + 1
    assert len(snaps) == K
    calls.clear()
    [one] = run_steps(state, cfg, K * n)
    assert len(calls) == K * n + 1
    assert np.array_equal(snaps[-1].r, one.r)
    assert np.array_equal(snaps[-1].p, one.p)
    assert snaps[-1].t == one.t
    # times add n dt per checkpoint, as K chained calls of n steps did, so
    # a trajectory written at the checkpoints keeps its bytes (0.1 + 0.1 +
    # 0.1 is not 15 * 0.02)
    t = state.t
    for s in snaps:
        t += n * cfg.dt
        assert s.t == t
    # each checkpoint is the state of a call that stops there
    [mid] = run_steps(state, cfg, 2 * n)
    assert np.array_equal(snaps[1].r, mid.r)
    assert np.array_equal(snaps[1].p, mid.p)
    partial = run_steps(state, cfg, K * n + 2, n)
    assert len(partial) == K + 1
    assert partial[-1].t == pytest.approx((K * n + 2) * cfg.dt)
    assert np.array_equal(partial[K - 1].r, snaps[-1].r)
    assert run_steps(state, cfg, 0) == run_steps(state, cfg, 0, n) == []
    with pytest.raises(ValueError, match="every must be at least 1"):
        run_steps(state, cfg, n, 0)
    with pytest.raises(ValueError, match="nsteps must be at least 0"):
        run_steps(state, cfg, -3)


def test_energy_conservation_short_run():
    # smooth low-mode data; the split step flows the linear part exactly,
    # so the energy error comes from the small nonlinear remainder alone
    x = np.arange(64)
    r = 0.05 * np.sin(2.0 * np.pi * x / 64.0)
    p = 0.05 * np.cos(2.0 * np.pi * x / 64.0)
    state = LatticeState(r=r, p=p, t=0.0)
    cfg = _config(dt=0.02)
    e0 = energy(state, cfg)
    drift = max(abs(energy(out, cfg) - e0)
                for out in run_steps(state, cfg, 500, 50))
    assert drift / e0 < 2e-5


def _direct_energy(state, cfg):
    # energy with every range summed pair by pair, as energy sums them
    # where it takes no moments
    return 0.5 * float(np.dot(state.p, state.p)) + sum(
        float(v) for ms, G in _window_sums(state.r, cfg.cutoff)
        for v in np.sum(_kernel(G, ms, cfg.alpha), axis=1))


def _gate5_state():
    # gate 5's chain: alpha 2, 512 sites, cutoff 40
    grid = PeriodicGrid(102.4, 512)
    r, p = ansatz_fields(gaussian_profile(grid, 0.1, 8.0).spectrum,
                         grid.period, 512, make_alpha_params(2.0))
    return LatticeState(r=r, p=p), _config(n=512, cutoff=40, dt=0.05)


def test_energy_takes_the_far_ranges_by_moments_within_1e13():
    # validate's t = 0 states on the default rings, and gate 5's
    # state: energy takes the ranges past NEAR_RANGE by moments, within
    # 1e-13 of the potential of the direct sum over every range
    cases = [(LatticeState(*_validate_state(alpha, n)),
              _config(n=n, alpha=alpha, cutoff=n // 2 - 1, dt=0.1))
             for alpha in (1.8, 2.0, 2.5) for n in (512, 724, 1024, 1448)]
    cases.append(_gate5_state())
    for state, cfg in cases:
        assert lattice._far_split(state.r, cfg) is not None
        want = _direct_energy(state, cfg)
        pot = want - 0.5 * float(np.dot(state.p, state.p))
        assert abs(energy(state, cfg) - want) <= 1e-13 * pot


def test_energy_falls_back_to_the_direct_sum_bit_for_bit(monkeypatch):
    # an amplitude far_bound refuses, a long wave whose near range reaches
    # the cutoff, cutoffs within twice the near range, and a NaN, which
    # gives a NaN energy and no exception: the direct sum, bit for bit
    calls = []
    monkeypatch.setattr(lattice, "_far_potential",
                        lambda *args: calls.append(args))
    cases = []
    for n, cutoff, amp in ((512, 255, 0.3), (4096, 60, 0.03),
                           (128, 2 * lattice.NEAR_RANGE, 0.01), (64, 10, 0.01)):
        x = 2.0 * np.pi * np.arange(n) / n
        cases.append((LatticeState(r=amp * np.sin(x), p=amp * np.cos(x)),
                      _config(n=n, alpha=2.0, cutoff=cutoff)))
    for state, cfg in cases:
        assert energy(state, cfg) == _direct_energy(state, cfg)
    r, p = _validate_state(2.0, 512)
    r[7] = math.nan
    assert math.isnan(energy(LatticeState(r=r, p=p), _config(n=512,
                                                              cutoff=255)))
    assert calls == []


def test_a_nan_gap_runs_on_past_twice_the_near_range():
    # a NaN gap at cutoff 20, past 2 NEAR_RANGE, on 64 sites: no far order
    # is found, so force, energy and run_steps sum every range directly and
    # give NaN, without an exception, as simulate-lattice does on a NaN
    # momentum
    cfg = _config(n=64, cutoff=20, dt=0.05)
    r = 0.01 * np.sin(2.0 * np.pi * np.arange(64) / 64)
    r[5] = math.nan
    state = LatticeState(r=r, p=np.zeros(64))
    assert np.isnan(force(r, cfg)).any()
    assert math.isnan(energy(state, cfg))
    [out] = run_steps(state, cfg, 3)
    assert np.isnan(out.r).all() and np.isnan(out.p).all()


def _far_potential_longdouble(r, alpha, M0, M):
    # energy's ranges M0 < m <= M in long double, pair term by pair term,
    # written apart from _kernel's expm1/log1p form
    n = r.size
    cs = np.concatenate(([0], np.cumsum(np.concatenate((r, r)).astype(
        np.longdouble))))
    a = np.longdouble(alpha)
    total = np.longdouble(0.0)
    for m in range(M0 + 1, M + 1):
        g = cs[m:m + n] - cs[:n]
        mm = np.longdouble(m)
        total += np.sum((mm + g) ** -a - mm ** -a + a * g * mm ** -(a + 1))
    return total


@pytest.mark.parametrize("alpha", [1.8, 2.5])
def test_far_potential_within_its_a_priori_bound(alpha):
    # the ring of _far_error_and_allowance, window means near x = 0.1 at
    # every range: through order p + 1, the far potential drops orders of
    # a pair term m^-alpha (1+rho)^-alpha alpha (alpha+1)/2 x^2 times at most
    # 2/(p+2) far_bound(x, alpha, p), against the long-double far sum; at
    # FAR_ORDER the allowance is below 1e-9 of the far potential.  The far
    # ranges are those past the state's near range, 12
    n, cutoff = 256, 127
    r, rho, s, M0 = _step_state()
    x = 0.1 / (1.0 + rho)
    cfg = _config(n=n, alpha=alpha, cutoff=cutoff)
    want = float(_far_potential_longdouble(r, alpha, M0, cutoff))
    m = np.arange(M0 + 1, cutoff + 1, dtype=float)
    pair = (n * float(np.sum(m ** -alpha)) * (1.0 + rho) ** -alpha
            * alpha * (alpha + 1.0) / 2.0 * x * x)
    for p in range(1, lattice.FAR_ORDER + 1):
        allowed = pair * 2.0 / (p + 2.0) * lattice.far_bound(x, alpha, p)
        err = abs(lattice._far_potential(s, rho, cfg, p, M0) - want)
        assert err <= allowed + 1e-14 * want
    assert allowed < 1e-9 * want


def test_energy_memory_within_the_direct_sums():
    # at (1448, 723) the moments are _far_field's at order 7 with weights
    # of energy's own: p + 1 weight rows, p + 1 spectra H and the p powers
    # of s with their spectra, 0.46 MiB at most, freed before the near sum's
    # blocks are formed: no more than the direct sum over every range holds,
    # give or take numpy's own bookkeeping (a few hundred bytes, a tenth of
    # one ring vector)
    state = LatticeState(*_validate_state(2.0, 1448))
    cfg = _config(n=1448, alpha=2.0, cutoff=723, dt=0.1)

    def peak():
        energy(state, cfg)
        tracemalloc.start()
        try:
            energy(state, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    moments = peak()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "NEAR_RANGE", cfg.cutoff)
        direct = peak()
    assert moments <= direct + 1024


@pytest.mark.parametrize("alpha", [1.8, 2.0, 2.5])
@pytest.mark.parametrize("rho", [0.0, 0.01, -0.02])
def test_energy_gradient_is_minus_the_force(alpha, rho):
    # shifting the positions x_j by h delta_j moves the gaps by
    # h (delta_{j+1} - delta_j), and the potential by -h <force, delta> to
    # first order: both take the far ranges by moments here, so this ties
    # energy's far share to force's across the near/far split; the Richardson
    # value of central differences at h and h/2 leaves O(h^4)
    n, cutoff = 1024, 511
    x = 2.0 * np.pi * np.arange(n) / n
    r = rho + 0.01 * np.sin(x) + 0.003 * np.cos(3.0 * x)
    delta = np.cos(x) + np.sin(3.0 * x) + 0.5 * np.sin(2.0 * x)
    step = np.roll(delta, -1) - delta
    cfg = _config(n=n, alpha=alpha, cutoff=cutoff)
    assert lattice._far_split(r, cfg) is not None

    def slope(h):
        e = [energy(LatticeState(r=r + sign * h * step, p=np.zeros(n)), cfg)
             for sign in (1.0, -1.0)]
        return (e[0] - e[1]) / (2.0 * h)

    want = -float(np.dot(force(r, cfg), delta))
    got = (4.0 * slope(5e-6) - slope(1e-5)) / 3.0
    assert abs(got - want) <= 1e-6


def test_momentum_exactly_conserved():
    state = _random_state(10, scale=0.05)
    cfg = _config()
    [out] = run_steps(state, cfg, 200)
    assert abs(float(np.sum(out.p)) - float(np.sum(state.p))) < 1e-12


def test_time_reversibility():
    # the symmetric split step is symplectic and time-reversible: flip
    # momenta, march back
    state = _random_state(12, scale=0.05)
    cfg = _config(dt=0.02)
    [fwd] = run_steps(state, cfg, 300)
    flipped = LatticeState(r=fwd.r.copy(), p=-fwd.p, t=0.0)
    [back] = run_steps(flipped, cfg, 300)
    assert np.max(np.abs(back.r - state.r)) < 1e-10
    assert np.max(np.abs(back.p + state.p)) < 1e-10


def test_collision_detected_during_run():
    # two particles launched at each other hard
    n = 16
    r = np.zeros(n)
    p = np.zeros(n)
    p[3] = 4.0
    p[4] = -4.0
    state = LatticeState(r=r, p=p, t=0.0)
    cfg = _config(n=n, cutoff=7, dt=0.05)
    with pytest.raises(CollisionError) as info:
        run_steps(state, cfg, 200)
    assert info.value.t is not None


def test_collision_is_a_blow_up():
    # one failure type for a run: a collision is a BlowUpError with its t,
    # alpha and epsilon, so a handler of BlowUpError catches both
    assert issubclass(CollisionError, lattice.BlowUpError)
    err = CollisionError("ordering lost", t=1.5, alpha=2.0, epsilon=0.1)
    assert (err.t, err.alpha, err.epsilon, err.tau) == (1.5, 2.0, 0.1, None)


def test_state_validation_rejects_overlap():
    r = np.zeros(16)
    r[2] = -1.05
    with pytest.raises(CollisionError) as info:
        LatticeState(r=r, p=np.zeros(16), t=3.0)
    assert info.value.t == 3.0
    with pytest.raises(ValueError):
        LatticeState(r=np.zeros(8), p=np.zeros(8), t=0.0)  # too small
    with pytest.raises(ValueError):
        LatticeState(r=np.zeros(16), p=np.zeros(15), t=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(N=64, alpha=2.0, cutoff=0, dt=0.05)
    with pytest.raises(ValueError):
        LatticeConfig(N=64, alpha=2.0, cutoff=32, dt=0.05)
    with pytest.raises(ValueError):
        LatticeConfig(N=64, alpha=3.0, cutoff=10, dt=0.05)
    with pytest.raises(ValueError):
        LatticeConfig(N=64, alpha=2.0, cutoff=10, dt=0.0)
    # nan and inf passed a "<= 0" check, and the run refused them as past
    # the split step's stability limit
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError,
                           match=f"dt must be finite and positive, got {dt}"):
            LatticeConfig(N=64, alpha=2.0, cutoff=10, dt=dt)


# ---------------------------------------------------------------------------
# quadratic window form and modified energy


def test_p2_on_unit_impulse_is_partial_zeta():
    alpha = 2.0
    e0 = np.zeros(128)
    e0[0] = 1.0
    cutoff = 63
    val, tail = p2_functional(e0, alpha, cutoff)
    partial = math.fsum(m ** -(alpha + 1.0) for m in range(1, cutoff + 1))
    assert abs(val - partial) < 1e-14
    assert tail == pytest.approx(cutoff ** (1.0 - alpha) / (alpha - 1.0))


def test_p2_bounds_random_vectors():
    rng = np.random.default_rng(13)
    alpha = 2.0
    gap = 2.0 * zeta(alpha + 1.0) - zeta(alpha)
    hi = zeta(alpha)
    for _ in range(50):
        eta = rng.standard_normal(128)
        val, tail = p2_functional(eta, alpha, 63)
        q = float(eta @ eta)
        assert val <= hi * q * (1.0 + 1e-12)
        assert val + tail >= gap * q * (1.0 - 1e-12)


def test_error_energy_kinetic_only():
    cfg = _config(n=64, cutoff=20)
    xi = 0.1 * np.ones(64)
    zero = np.zeros(64)
    h = error_energy(xi, zero, zero, cfg)
    assert h == pytest.approx(0.5 * float(xi @ xi), rel=1e-14)


def test_error_energy_positive_and_bounded():
    rng = np.random.default_rng(14)
    params = make_alpha_params(2.0)
    lo, hi = error_energy_constants(params)
    assert 0.0 < lo < hi
    cfg = _config(n=64, cutoff=31)
    for _ in range(20):
        eta = 0.02 * rng.standard_normal(64)
        rt = 0.02 * rng.standard_normal(64)
        h = error_energy(np.zeros(64), eta, rt, cfg)
        assert h >= 0.0


def test_error_energy_rejects_large_fields():
    cfg = _config(n=64, cutoff=10)
    big = 0.3 * np.ones(64)
    ok = 0.1 * np.ones(64)
    with pytest.raises(ValueError):
        error_energy(np.zeros(64), big, ok, cfg)
    with pytest.raises(ValueError):
        error_energy(np.zeros(64), ok, big, cfg)
