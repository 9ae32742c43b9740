"""Ring of particles with long-range inverse-power coupling, in relative form.

State is (r, p): r_j is the deviation of the gap x_{j+1} - x_j from its
equilibrium value 1 and p_j = dx_j/dt.  A site interacts with its m-th
neighbors through the window sum G_m r (m consecutive gaps); every potential
here is the inverse-power pair term with its equilibrium value and slope
subtracted, which is what keeps truncation and small-amplitude evaluation
well conditioned.

run_steps integrates the chain by a symmetric split: the linearisation of
force at r = 0, a circulant operator, is flowed exactly mode by mode, and
the nonlinear remainder, O(r^2), enters as half kicks on either side
(Hairer, Lubich & Wanner, Geometric Numerical Integration, ch. XIII).  The
remainder sets the step's accuracy and the fastest linear mode its
stability: _linear_flow refuses a dt at or past step_limit, 0.9 pi over
the top linear frequency.

Given a Band of Q < N points, run_steps keeps the chain on the band: its
spectra hold only the rfft bins of dealias_mask(Q), the surrogate's kept
bins, and each force is formed on the grid x_q = qN/Q (_band_force), at a
cost that does not grow with N; the residual forms its interaction part
there too.  This is a Fourier-Galerkin truncation of the chain
with pseudo-spectral products and the 2/3 rule (Orszag 1971), the rule
bo_solver applies to the surrogate.  The validation chains live in the
lowest 64 or so of the ring's bins, so at the defaults it moves their sup
errors by 2e-11 relative or less; the band records what it drops, and
run_steps refuses more than BAND_TOL, where the residual takes the ring's
force.  energy and a run_steps call without a band stay on the ring.

force, which run_steps and the residual share, sums its ranges up to a
near range M0 pair by pair and the rest by moments (_far_field): each far
pair slope is a power series in the window mean, and every order of it is a
circular convolution of a power of the scaled primitive s of r with fixed
weights, so a few FFTs replace the N x M kernel calls.  This near/far split
follows Ewald (1921) and Greengard & Rokhlin (1987), keeping the far part's
nonlinearity order by order, and sizes the near part by the state, as they
size it by accuracy: M0 is at least NEAR_RANGE and large enough that
2 max|s| <= (M0 + 1)/2 (near_range), so the default chains, at 2 max|s| of
0.2 to 1.8, take M0 = NEAR_RANGE.  energy splits its ranges where force
does (_far_split) and takes the far pair potentials' series one order
further from the far field itself (_far_potential): summed by parts on the
ring, order n + 1 of the far potential is -(1 + rho)/(n + 1) times the
inner product of s with order n of the force.  The orders reach
FAR_ORDER = 24, which covers window means up to 0.2 at every alpha: the
default residual states at alpha 1.8 and 2.0, at means 0.045 to 0.18, take
orders 11 to 20, and the validation chains orders 9 or less.  Every far
field is given its weight rows and takes every order at once, rows built
through FAR_ORDER for the ranges past M0 (_held_far_weights): force and
energy build them per call, and run_steps and the residual hold one set at a
time, at the last state's M0, so that every state takes its own
(_FarWeights).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bo_solver import BlowUpError
from .specfun import AlphaParams
from .spectral import dealias_mask

SERIES_CROSSOVER = 1e-3

# Window sums are formed a block of ranges at a time, max(1, this // N)
# ranges of N sites, so each block temporary stays near 128 KiB whatever
# the cutoff: per-range numpy calls cost more than their arithmetic at the
# full ring range, and an M x N stack would cost memory.
_BLOCK_ELEMENTS = 16384

# Past a cutoff of 2 * NEAR_RANGE, force sums the ranges up to the state's
# near range (near_range, never below NEAR_RANGE) directly and the rest by
# moments, through the least order up to FAR_ORDER whose bound on the
# dropped orders meets FAR_TOL of the far field's linear term.  Order 24
# meets it at every window mean up to 0.2 and alpha in (1, 3), where
# far_bound needs orders 21 to 23; the default sweeps' largest mean, 0.176
# (residual, alpha 1.8, eps 0.2), needs 20.  At a near range of 8 force
# errs by at most 1.0e-14 of max|f| against the direct sum on the validate
# and direct states (3-5e-15 at 16); at 4 by 5.6e-14, and at 1 by 5e-12.
NEAR_RANGE = 8
FAR_ORDER = 24
FAR_TOL = 1e-13

_I_POWERS = np.array([1.0, 1j, -1.0, -1j])     # i^0..i^3
# (-1)^q/q! for q = 0..FAR_ORDER, as cumprod's prefix products
_TAYLOR_FACTORS = np.cumprod([1.0] + [-1.0 / q for q in range(1, FAR_ORDER + 1)])

# The split step goes unstable once dt times the top linear frequency
# reaches pi; _linear_flow refuses a dt past this limit, which keeps a 10%
# margin below that resonance.
STEP_LIMIT = 0.9 * math.pi

# run_steps on a band (Band) refuses a state or a force whose L2 content
# past the kept bins passes this share: amplitudes at 1e-10 of the whole,
# the relative change in sup mu and nu the band may make.  The validation
# chains show at most 5e-31 of the ansatz there at t = 0 and 2.3e-28 of the
# force, both at rounding level, at alpha 1.8, 2 and 2.5 down to eps 0.025.
BAND_TOL = 1e-20


class CollisionError(BlowUpError):
    """Particle ordering about to be lost (a gap argument reached -1): a
    blow-up of the chain, with BlowUpError's t, alpha and epsilon."""


@dataclass
class LatticeState:
    """Gap deviations r, velocities p, and the elapsed time t."""

    r: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.r.shape != self.p.shape or self.r.ndim != 1:
            raise ValueError("r and p must be 1-d arrays of equal length")
        if self.r.size < 16:
            raise ValueError(f"ring must have at least 16 sites, got {self.r.size}")
        _refuse_collision(self.r, self.t)


@dataclass(frozen=True)
class LatticeConfig:
    """Ring size, interaction exponent, range cutoff and time step."""

    N: int
    alpha: float
    cutoff: int
    dt: float

    def __post_init__(self):
        if self.N < 16:
            raise ValueError("N must be at least 16")
        if not 1 <= self.cutoff <= self.N // 2 - 1:
            raise ValueError(f"cutoff must lie in [1, N/2 - 1], got {self.cutoff}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 1.0 < self.alpha < 3.0:
            raise ValueError(f"alpha must lie in (1, 3), got {self.alpha}")


def _window_sums(r: np.ndarray, M: int):
    """Yield (ms, G) for the ranges m = 1..M, a block of ranges at a time,
    from one doubled prefix-sum pass: ms is the (B, 1) column of the block's
    ranges as floats and row i of the B x N block G is G_m r for m = ms[i],
    whose entry j is the sum of the m gaps from j on."""
    N = r.size
    cs = np.concatenate(([0.0], np.cumsum(np.concatenate((r, r)))))
    rows = sliding_window_view(cs, N)   # rows[m] is cs[m:m + N]
    B = max(1, _BLOCK_ELEMENTS // N)
    for m0 in range(1, M + 1, B):
        m1 = min(M, m0 + B - 1)
        ms = np.arange(m0, m1 + 1, dtype=float)[:, None]
        yield ms, rows[m0:m1 + 1] - cs[:N]


def _kernel(a, mu, alpha: float):
    """(mu+a)^-alpha - mu^-alpha + alpha*a*mu^-(alpha+1), safe for small a/mu.

    With mu = m this is the renormalized pair potential V_m at window sum a;
    with mu = m + b it is the second-order remainder of V_m around b,
    V_m(b+a) - V_m(b) - V_m'(b)*a.

    The subtracted equilibrium value and slope cancel the first two Taylor
    terms, so the direct expression loses accuracy when |a/mu| is tiny; below
    the crossover a five-term series in a/mu is used instead.
    """
    a = np.asarray(a, dtype=float)
    mu = np.asarray(mu, dtype=float)
    x = a / mu
    if np.any(x <= -1.0) or np.any(mu <= 0.0):
        raise CollisionError("potential argument outside the ordered regime")
    lead = mu ** (-alpha)
    direct = lead * (np.expm1(-alpha * np.log1p(x)) + alpha * x)
    x2 = x * x
    c4 = (alpha + 2) * (alpha + 3) / 12.0
    c5 = c4 * (alpha + 4) / 5.0
    c6 = c5 * (alpha + 5) / 6.0
    series = lead * (alpha * (alpha + 1) / 2.0) * x2 * (
        1.0 + x * (-(alpha + 2) / 3.0 + x * (c4 + x * (-c5 + x * c6))))
    return np.where(np.abs(x) < SERIES_CROSSOVER, series, direct)


def _kernel_prime(a, mu, alpha: float):
    """Derivative of _kernel in a: -alpha*((mu+a)^-(alpha+1) - mu^-(alpha+1)).

    The expm1/log1p composition is cancellation-free for every a/mu > -1,
    so no series branch is needed here.
    """
    a = np.asarray(a, dtype=float)
    mu = np.asarray(mu, dtype=float)
    x = np.asarray(a / mu)
    if np.any(x <= -1.0) or np.any(mu <= 0.0):
        raise CollisionError("potential argument outside the ordered regime")
    b = alpha + 1.0
    # in place, so that a block of ranges holds one temporary, x, beside a
    np.expm1(np.multiply(np.log1p(x, out=x), -b, out=x), out=x)
    x *= -alpha * mu ** (-b)
    return x


def _check_ring(r: np.ndarray, config: LatticeConfig):
    """Refuse gaps r on a ring of another size than config.N, whose ranges
    would reach past half the ring."""
    if r.size != config.N:
        raise ValueError(f"{r.size} gaps given for a ring of N = {config.N} sites")


def force(r: np.ndarray, config: LatticeConfig) -> np.ndarray:
    """Acceleration of each site: sum over ranges m of the backward
    m-difference of the pair slopes, truncated at config.cutoff, the ranges
    past the state's near range by moments where it allows (_split_force),
    with far weights built for this call."""
    r = np.asarray(r, dtype=float)
    _check_ring(r, config)
    return _split_force(r, config, _FarWeights(config))


def _direct_force(r: np.ndarray, alpha: float, M: int) -> np.ndarray:
    """force's sum over the ranges m = 1..M, range by range (f_j += w_j, then
    f_j -= w_{j-m}); a block of slopes w dies before the next is formed."""
    f = np.zeros(r.size)
    for ms, G in _window_sums(r, M):
        W = _kernel_prime(G, ms, alpha)
        for m, w in zip(ms[:, 0].astype(int), W):
            f += w
            f[m:] -= w[:-m]     # f_j -= w_{j-m}, wrapping around the ring
            f[:m] -= w[-m:]
        del W, w
    return f


def _omega2(N: int, alpha: float, M: int) -> np.ndarray:
    """omega^2(k) of the linear chain at the rfft bins k = 2 pi n/N,
    n = 1..N/2: 2 alpha (alpha+1) sum_{m<=M} m^-(alpha+2) (1 - cos km) at
    the cutoff M of force, from one rfft of m^-(alpha+2)."""
    w = np.zeros(N)
    w[1:M + 1] = np.arange(1, M + 1, dtype=float) ** -(alpha + 2.0)
    return 2.0 * alpha * (alpha + 1.0) * (np.sum(w) - np.fft.rfft(w)[1:].real)


def step_limit(N: int, alpha: float, cutoff: int) -> float:
    """STEP_LIMIT / omega_max, the least dt _linear_flow refuses on a ring
    of N sites at this alpha and cutoff."""
    return STEP_LIMIT / math.sqrt(float(_omega2(N, alpha, cutoff).max()))


def _linear_flow(config: LatticeConfig):
    """Per rfft bin k = 2 pi n/N of the ring: the linearisation L of force,
    and the exact flow over dt of the linear chain, as (L, cos, r_from_p,
    p_from_r) with r^(dt) = cos r^ + r_from_p p^ and p^(dt) = p_from_r r^ +
    cos p^.

    The linear chain reads dr^/dt = (e^{ik} - 1) p^ and
    dp^/dt = L r^ = -omega^2(k)/(e^{ik} - 1) r^, with omega^2 of _omega2.
    Bin k = 0 has omega = 0 and is left unchanged.  Raises ValueError when
    dt reaches step_limit.
    """
    N = config.N
    omega2 = _omega2(N, config.alpha, config.cutoff)
    k = 2.0 * np.pi * np.arange(1, N // 2 + 1) / N
    shift = -2.0 * np.sin(0.5 * k) ** 2 + 1j * np.sin(k)    # e^{ik} - 1
    omega = np.sqrt(omega2)
    limit = STEP_LIMIT / omega.max()    # step_limit, to the last bit
    if not config.dt < limit:
        raise ValueError(f"dt {config.dt:.6g} on {N} sites is past the split "
                         "step's stability limit 0.9 pi / omega_max = "
                         f"{limit:.6g}")
    s = np.sin(omega * config.dt)
    return (np.concatenate(([0.0], -omega2 / shift)),
            np.concatenate(([1.0], np.cos(omega * config.dt))),
            np.concatenate(([0.0], shift * s / omega)),
            np.concatenate(([0.0], -omega * s / shift)))


def near_range(cutoff: int, s_max: float = 0.0) -> int:
    """Ranges force sums pair by pair at a state whose scaled primitive s
    (_scaled_primitive) has max|s| <= s_max: the whole cutoff where it does
    not reach past 2 NEAR_RANGE, else the least M0 >= NEAR_RANGE with
    2 s_max <= (M0 + 1)/2, or the cutoff where that is less.  Splitting
    (s_{j+m} - s_j)^n into powers of s cancels terms as large as
    (2 max|s|)^n, which the far weights' m^-n keep at rounding level while
    2 max|s| <= M0 + 1; the rule keeps a factor 2 below that."""
    if cutoff <= 2 * NEAR_RANGE:
        return cutoff
    return min(cutoff, max(NEAR_RANGE, math.ceil(4.0 * s_max) - 1))


def _far_bounds(x: float, alpha: float):
    """far_bound(x, alpha, p) for p = 1, 2, ...: bounds on the orders n > p
    of sum_n C(-alpha-1, n) x_m^n, the far pair slope's series, relative to
    its linear term, for |x_m| <= x.  The terms past p shrink by
    q = (1 + alpha/(p+2)) x or less each, so the bound is
    |C(-alpha-1, p+1)| x^p / ((alpha+1) (1-q)), inf for q >= 1 or NaN; the
    product |C(-alpha-1, p+1)| = prod_{i<=p+1} (alpha+i)/i is carried from
    one p to the next, left to right."""
    lead = alpha + 1.0
    for p in itertools.count(1):
        i = p + 1
        lead *= (alpha + i) / i
        q = (1.0 + alpha / (p + 2.0)) * x
        yield lead * x ** p / ((alpha + 1.0) * (1.0 - q)) if q < 1.0 \
            else math.inf


def far_bound(x: float, alpha: float, p: int) -> float:
    """_far_bounds' bound at order p >= 1: on the dropped orders of the far
    pair slope's series, relative to its linear term, for window means
    |x_m| <= x; it falls with p wherever it is finite."""
    return next(itertools.islice(_far_bounds(x, alpha), p - 1, None))


def far_order(x: float, alpha: float) -> int:
    """The least order p <= FAR_ORDER whose far_bound meets FAR_TOL, in one
    pass over _far_bounds; 0 for none, as at a NaN x."""
    return next((p for p, bound in zip(range(1, FAR_ORDER + 1),
                                       _far_bounds(x, alpha))
                 if bound <= FAR_TOL), 0)


def _scaled_primitive(r: np.ndarray, rho: float) -> np.ndarray:
    """s = S/(1 + rho), S the mean-zero primitive of r - rho, so that
    G_m r_j = m rho + (1 + rho) (s_{j+m} - s_j)."""
    d = r - rho
    S = np.cumsum(d) - d
    return (S - np.mean(S)) / (1.0 + rho)


def _held_far_weights(config: LatticeConfig, M0: int):
    """The far weights of every force at one config and near range M0,
    which _FarWeights holds and energy slices: weight rows b_0..b_FAR_ORDER,
    real, over the rfft bins, of _far_field for the ranges
    M0 < m <= config.cutoff, for every order a state may need.  Order n of
    the far slopes,
    sum_m C(-alpha-1, n) m^-(alpha+1+n) (d_m(j)^n - d_m(j-m)^n) with
    d_m(j) = s_{j+m} - s_j, splits binomially into (-s_j)^q/q! times a
    correlation and a convolution of s^k/k!, q + k = n, whose spectrum is
    B_n = g_n (conj(c^_n) - (-1)^n c^_n), c_n,m = m^-(alpha+1+n) and
    g_n = n! C(-alpha-1, n) = prod_{i<=n} -(alpha+i): 2 g_n Re c^_n at odd
    n and -2i g_n Im c^_n at even n, so that b_n = B_n / i^(n+1) is real."""
    N, M, alpha = config.N, config.cutoff, config.alpha
    n = np.arange(FAR_ORDER + 1)
    # -2 (-1)^n g_n over i^(n+1), on the part B_n keeps: Re c^_n at odd n,
    # Im c^_n times i at even n
    f = -2.0 * (-1.0) ** (n + (n + 1) // 2) * np.cumprod(
        [1.0] + [-(alpha + i) for i in range(1, FAR_ORDER + 1)])
    c = np.zeros((FAR_ORDER + 1, N))
    c[:, M0 + 1:M + 1] = np.arange(M0 + 1, M + 1, dtype=float) ** -(
        alpha + 1.0 + n[:, None])
    C = np.fft.rfft(c)
    del c
    return np.where(n[:, None] % 2, C.real, C.imag) * f[:, None]


class _FarWeights:
    """The rows a force needs at one config and one near range M0, held for
    the last M0 asked and built anew when a state asks another: the far
    weight rows b (_held_far_weights) where M0 is less than the cutoff, and a
    band's near rows (rows), built on first use.  Each state takes its own
    M0, so a force in a chain or a stacked call gives the bits of force(r)
    alone.  One set is held at a time.  largest records the most ranges any
    state was given to sum pair by pair."""

    def __init__(self, config: LatticeConfig):
        self.config = config
        self.M0 = self.largest = 0
        self.b = self._rows = None

    def near(self, M0: int) -> int:
        """Hold the rows for near range M0 (the cutoff where the state takes
        no moments), with self.b the weight rows past it where it is less
        than the cutoff; returns M0."""
        if M0 != self.M0:
            # the old set dropped first, so that two never sit side by side
            self.M0, self.b, self._rows = M0, None, None
            if M0 < self.config.cutoff:
                self.b = _held_far_weights(self.config, M0)
        self.largest = max(self.largest, M0)
        return M0

    def rows(self, build):
        """build(M0) at the near range held, formed once per near range."""
        if self._rows is None:
            self._rows = build(self.M0)
        return self._rows


def _far_field(s: np.ndarray, rho: float, config: LatticeConfig, p: int,
               b: np.ndarray):
    """The share of force(r, config) of the ranges past the near range
    through order p, at gaps r of mean rho and scaled primitive s (as in
    _scaled_primitive), from the weight rows b_0..b_p and any past them
    (_held_far_weights, or _far_potential's rows over n + 1):
    -alpha (1+rho)^-(alpha+1) sum_q (-s)^q/q! irfft(H_q),
    H_q = sum_{k<=p-q} B_{q+k} (s^k/k!)^ (orders <= p).

    The complex rows B_n = i^(n+1) b_n are formed once from the real ones;
    a rotation by a power of i is exact, so H is the sum of the real rows
    times rotated powers, rotated back, to the last bit.  Every order is
    taken at once: the p powers' spectra in one rfft, H in one irfft."""
    alpha, N = config.alpha, s.size
    if len(b) < p + 1:
        raise ValueError(f"the far field through order {p} needs {p + 1} "
                         f"weight rows, got {len(b)}")
    n = np.arange(p + 1)
    B = b[:p + 1] * _I_POWERS[(n + 1) % 4, None]
    H = np.zeros((p + 1, N // 2 + 1), dtype=complex)
    H[:, 0] = N * B[:, 0]       # k = 0: (s^0)^ is N at bin 0
    ks = np.arange(1, p + 1)
    # s^k/k! row by row: cumprod's products along axis 0, at half its cost
    P = s / ks[:, None]
    for k in range(1, p):
        P[k] *= P[k - 1]
    P = np.fft.rfft(P)      # (s^k/k!)^
    for k, Pk in zip(ks, P):
        H[:p + 1 - k] += B[k:p + 1] * Pk
    del P
    # row q of irfft(H) times (-1)^q/q! is (-1)^q/q! irfft(H_q)
    H *= _TAYLOR_FACTORS[:p + 1, None]
    out = np.zeros(N)
    for h in np.fft.irfft(H, N)[::-1]:
        out *= s
        out += h
    return -alpha * (1.0 + rho) ** -(alpha + 1.0) * out


def _far_split(r: np.ndarray, config: LatticeConfig):
    """(s, rho, p, M0) where force and energy sum the ranges up to M0
    directly and take the rest by moments through order p: the order
    far_order finds at x = max|r - rho|/(1 + rho), rho the mean of r, and
    then the near range at max|s|, s the scaled primitive
    (_scaled_primitive); None where they sum every range directly: a cutoff
    within twice NEAR_RANGE, no order (a NaN among them), or a near range
    that reaches the cutoff."""
    M = config.cutoff
    if M <= 2 * NEAR_RANGE:
        return None
    rho = float(np.mean(r))
    x = max(float(np.max(r)) - rho, rho - float(np.min(r))) / (1.0 + rho)
    p = far_order(x, config.alpha)
    if not p:
        return None
    s = _scaled_primitive(r, rho)
    M0 = near_range(M, float(np.max(np.abs(s))))
    return (s, rho, p, M0) if M0 < M else None


def _split_force(r: np.ndarray, config: LatticeConfig, held: _FarWeights):
    """force(r, config): the near ranges directly plus _far_field's share
    from the far weights held, where _far_split allows, else every range
    directly; the far field reuses the near sum's freed memory."""
    far = _far_split(r, config)
    M0 = held.near(config.cutoff if far is None else far[3])
    f = _direct_force(r, config.alpha, M0)
    if M0 < config.cutoff:
        s, rho, p, _ = far
        f += _far_field(s, rho, config, p, held.b)
    return f


def check_steps(config: LatticeConfig, nsteps: int, every: int | None = None):
    """run_steps' refusals (nsteps < 0, every < 1, a dt past the step limit)
    by ValueError, before any step; returns _linear_flow(config)."""
    if nsteps < 0:
        raise ValueError(f"nsteps must be at least 0, got {nsteps}")
    if every is not None and every < 1:
        raise ValueError(f"every must be at least 1, got {every}")
    return _linear_flow(config)


@dataclass
class Band:
    """The grid of Q points on which run_steps and residual_fields form the
    force of a ring of more than Q sites, keeping the `kept` rfft bins of
    dealias_mask(Q, dealias_fraction) (_band_force).  A call records here
    the largest share of a field it was given above the kept bins, which it
    drops (dropped_share), the largest share of a force's grid spectrum
    above them, which the kicks drop and whose products alias (top_share),
    the forces it took from the ring instead (fallbacks), and the most
    ranges any force of the call summed pair by pair, on the band or on the
    ring (near_range).  run_steps refuses either share past BAND_TOL with
    BlowUpError."""

    Q: int
    dealias_fraction: float = 2.0 / 3.0
    dropped_share: float = field(default=0.0, init=False)
    top_share: float = field(default=0.0, init=False)
    fallbacks: int = field(default=0, init=False)
    near_range: int = field(default=0, init=False)

    @cached_property
    def kept(self) -> int:
        return int(np.count_nonzero(dealias_mask(self.Q,
                                                 self.dealias_fraction)))

    def share(self, spectrum: np.ndarray) -> float:
        """The share of a real field's L2 content in the bins of its rfft
        spectrum past the kept bins, every bin but 0 counted twice."""
        top = spectrum[self.kept:]
        total = 2.0 * np.vdot(spectrum, spectrum).real - abs(spectrum[0]) ** 2
        return (float(2.0 * np.vdot(top, top).real / total) if total > 0.0
                else 0.0)

    def drop(self, spectrum: np.ndarray):
        """Record the share of the state with this ring rfft spectrum past
        the kept bins in dropped_share; BlowUpError where it passes
        BAND_TOL."""
        self.dropped_share = max(self.dropped_share, self.share(spectrum))
        self._refuse(self.dropped_share, "the state")

    def top(self, F: np.ndarray):
        """Record the share of the force's grid spectrum F past the kept
        bins in top_share; BlowUpError where it passes BAND_TOL."""
        self.top_share = max(self.top_share, self.share(F))
        self._refuse(self.top_share, "the force's grid spectrum")

    def _refuse(self, share: float, what: str):
        if not share <= BAND_TOL:
            raise BlowUpError(f"{share:.3g} of {what} lies past the band's "
                              f"{self.kept} bins, past {BAND_TOL:g}")


def _refuse_collision(r: np.ndarray, t: float | None = None):
    """CollisionError, at time t, where a gap deviation of r reaches 1."""
    if np.max(np.abs(r)) >= 1.0:
        raise CollisionError("a gap deviation reached 1; ordering lost", t=t)


def _ring_remainder(config: LatticeConfig, L: np.ndarray, held: _FarWeights):
    """run_steps' remainder R = rfft(force(r)) - L r^ on every bin of the
    ring: at the sites r given, or else at r = irfft(r^, N), which must
    keep |r| below 1."""
    def remainder(rh, r=None):
        if r is None:
            r = np.fft.irfft(rh, config.N)
            _refuse_collision(r)
        return np.fft.rfft(_split_force(r, config, held)) - L * rh
    return remainder


def _band_force(config: LatticeConfig, held: _FarWeights, band: Band):
    """force on a band: the function that takes spectra r^ on the band's
    kept bins of the ring alone, and gives the force's rfft spectrum on the
    ring through bin Q/2, formed on the band's grid x_q = qN/Q,
    q = 0..Q-1, with the far weights held.

    For each range m up to the near range M0, G_m r at the grid points is
    the irfft over Q points of r^ times (e^{ikm} - 1)/(e^{ik} - 1) (m at
    n = 0), k = 2 pi n/N; the rfft of its pair slopes times 1 - e^{-ikm},
    summed over m, is the near ranges' force, taken
    max(1, _BLOCK_ELEMENTS // Q) ranges at a time.  The window and
    difference rows are held with the weights (_FarWeights.rows).  _far_field
    adds the far ranges at the grid samples of the scaled primitive,
    s^ = r^/((e^{ik} - 1)(1 + rho)), with the weight rows cut to bins up to
    Q/2.  A transform over Q points has Q/N of the ring's normalisation,
    which cancels between each grid's inverse and forward transforms.

    The collision test, the far order and the near range must hold at
    every site of the ring, not only at the grid points, so each is taken
    from a bound by the spectrum's moduli:
    max|r - rho| <= 2 sum_{n>0} |r^_n|/N, and alike for max|r| and max|s|.
    Only where the bound on max|r| reaches 1 are the ring's sites formed
    and tested, and only where the bound on max|s| asks for more than
    NEAR_RANGE is max|s| taken at the ring's sites (the bound is 1.67 times
    it on the alpha 1.8 residual states).  Where no order is found, the
    force is the ring's, rfft(force(irfft(r^, N))), counted in
    band.fallbacks."""
    N, Q, alpha, kept, M = config.N, band.Q, config.alpha, band.kept, \
        config.cutoff
    k = 2.0 * np.pi * np.arange(Q // 2 + 1) / N
    shift = -2.0 * np.sin(0.5 * k) ** 2 + 1j * np.sin(k)    # e^{ik} - 1
    primitive = np.zeros(kept, dtype=complex)
    primitive[1:] = (Q / N) / shift[1:kept]
    B = max(1, _BLOCK_ELEMENTS // Q)

    def near_rows(M0):
        # (ms, window, difference) of the ranges up to M0
        ms = np.arange(1, M0 + 1, dtype=float)[:, None]
        # e^{ikm} - 1; 1 - e^{-ikm} is minus its conjugate
        up = -2.0 * np.sin(0.5 * k * ms) ** 2 + 1j * np.sin(k * ms)
        window = np.empty((M0, kept), dtype=complex)
        window[:, 0] = ms[:, 0]
        window[:, 1:] = up[:, 1:kept] / shift[1:kept]
        window *= Q / N
        return ms, window, up.conj() * (-N / Q)

    def force_spectrum(rh):
        a = np.abs(rh)
        moduli = 2.0 * float(np.sum(a[1:])) / N
        if a[0] / N + moduli >= 1.0:
            _refuse_collision(np.fft.irfft(rh, N))
        M0, Ffar = M, 0.0
        if M > 2 * NEAR_RANGE:
            rho = rh[0].real / N
            p = far_order(moduli / (1.0 + rho), alpha)
            if not p:
                band.fallbacks += 1
                return np.fft.rfft(_split_force(np.fft.irfft(rh, N), config,
                                                held))[:Q // 2 + 1]
            sh = rh * primitive / (1.0 + rho)
            M0 = near_range(M, 2.0 * float(np.sum(np.abs(sh))) / Q)
            if M0 > NEAR_RANGE:
                M0 = near_range(M, float(np.max(np.abs(np.fft.irfft(
                    sh, N)))) * (N / Q))
        M0 = held.near(M0)
        if M0 < M:      # past 2 NEAR_RANGE, where p, rho and sh are set
            Ffar = np.fft.rfft(_far_field(np.fft.irfft(sh, Q), rho, config,
                                          p, held.b[:, :Q // 2 + 1])) * (N / Q)
        ms, window, difference = held.rows(near_rows)
        # a block's windows' spectra, zero-padded to the grid's bins for the
        # irfft, which pads slower; made per call, as a held array would sit
        # through the far field beside its temporaries
        padded = np.zeros((min(B, M0), Q // 2 + 1), dtype=complex)
        F = Ffar
        for i in range(0, M0, B):
            P = padded[:min(B, M0 - i)]
            np.multiply(window[i:i + B], rh, out=P[:, :kept])
            F = np.einsum("mn,mn->n", difference[i:i + B], np.fft.rfft(
                _kernel_prime(np.fft.irfft(P, Q), ms[i:i + B], alpha))) + F
        return F
    return force_spectrum


def run_steps(state: LatticeState, config: LatticeConfig, nsteps: int,
              every: int | None = None, band: Band | None = None) -> list:
    """nsteps symmetric split steps: a half kick by the remainder
    R(r) = force(r) - L r, the exact linear flow over dt mode by mode, and
    a second half kick.  Returns the states after every `every` steps and
    after the last one, in order; with every = None, the last state alone
    (no state for nsteps = 0).  Refuses what check_steps refuses, and
    gaps whose count is not config.N.

    (r, p) stay rfft spectra within a call, and the trailing remainder
    doubles as the next leading one: a call forms nsteps + 1 remainders,
    whatever `every`.  The call holds one set of far weights, and on a band
    one set of near rows, for the last state's near range, built anew when
    a state needs another (_FarWeights), so that each remainder takes the
    force of its state alone; a band given records the largest near
    range.  On the ring (band None, or band.Q >= N) a step
    costs one force, one irfft and one rfft.  With a band of Q < N points
    the spectra keep only the band's bins, and each remainder is formed on
    its grid (_band_force), at a cost that does not grow with N; the
    given state's content past those bins is dropped.  A collision
    (CollisionError) or band content past BAND_TOL raises BlowUpError, with
    t and alpha.
    """
    N, dt = config.N, config.dt
    _check_ring(state.r, config)
    L, cos, r_from_p, p_from_r = check_steps(config, nsteps, every)
    held = _FarWeights(config)
    rh, ph = np.fft.rfft(state.r), np.fft.rfft(state.p)
    t, done, i = state.t, 0, 0  # time and step count of the last state out
    try:
        if band is None or band.Q >= N:
            remainder = _ring_remainder(config, L, held)
        else:
            band.drop(rh)
            band.drop(ph)
            kept = band.kept
            L, cos, r_from_p, p_from_r, rh, ph = (
                v[:kept] for v in (L, cos, r_from_p, p_from_r, rh, ph))
            force_spectrum = _band_force(config, held, band)

            def remainder(rh, r=None):
                F = force_spectrum(rh)
                band.top(F)
                return F[:kept] - L * rh
        Rh = remainder(rh, state.r)
        out = []
        for i in range(1, nsteps + 1):
            ph = ph + (0.5 * dt) * Rh
            rh, ph = cos * rh + r_from_p * ph, p_from_r * rh + cos * ph
            Rh = remainder(rh)
            ph = ph + (0.5 * dt) * Rh
            if i == nsteps or (every is not None and i % every == 0):
                t, done = t + (i - done) * dt, i
                out.append(LatticeState(r=np.fft.irfft(rh, N),
                                        p=np.fft.irfft(ph, N), t=t))
    except BlowUpError as err:
        err.t, err.alpha = t + (i - done) * dt, config.alpha
        raise
    if band is not None:
        band.near_range = max(band.near_range, held.largest)
    return out


def energy(state: LatticeState, config: LatticeConfig) -> float:
    """Kinetic plus truncated interaction energy (zero at equilibrium): the
    near ranges directly plus _far_potential's share where _far_split
    allows, as force takes them, else every range directly."""
    r = state.r
    _check_ring(r, config)
    far = _far_split(r, config)
    if far is None:
        M, far_share = config.cutoff, 0.0
    else:
        s, rho, p, M = far
        far_share = _far_potential(s, rho, config, p, M)
        del far, s      # so that the near sum's blocks do not sit beside s
    return (0.5 * float(np.dot(state.p, state.p))
            + _direct_potential(r, config.alpha, M) + far_share)


def _direct_potential(r: np.ndarray, alpha: float, M: int) -> float:
    """energy's sum over the ranges m = 1..M, pair by pair."""
    return sum(float(v) for ms, G in _window_sums(r, M)
               for v in np.sum(_kernel(G, ms, alpha), axis=1))


def _far_potential(s: np.ndarray, rho: float, config: LatticeConfig,
                   p: int, M0: int) -> float:
    """The share of energy's potential of the ranges m past the near range
    M0, through order p + 1, at gaps r of mean rho and scaled primitive s, from
    _far_field's force through order p.

    With G_m r_j = m rho + (1 + rho) d_m(j), d_m(j) = s_{j+m} - s_j, the
    pair potential is m^-alpha ((1+rho)^-alpha - 1 + alpha rho) plus
    (1+rho)^-alpha sum_{n>=1} C(-alpha, n) m^-(alpha+n) d_m(j)^n, whose
    order 1 sums to zero over j.  Since C(-alpha, n+1) = -alpha/(n+1)
    C(-alpha-1, n), order n + 1 is d_m(j)/(n + 1) times order n of the
    pair slope w_j over 1 + rho, and by parts on the ring
    sum_j d_m(j) w_j = -sum_j s_j (w_j - w_{j-m}), the m-difference force
    takes: order n + 1 of the potential is -(1+rho)/(n+1) <s, f_n>, f_n
    order n of _far_field, whose weights b_n/(n+1) give every order at once.
    The orders dropped are at most 2/(p + 2) far_bound(x, alpha, p) of the
    order-2 term alpha (alpha+1)/2 x^2 of a pair at window mean x."""
    alpha, N = config.alpha, s.size
    m = np.arange(M0 + 1, config.cutoff + 1, dtype=float)
    const = N * float(_kernel(rho, 1.0, alpha)) * float(np.sum(m ** -alpha))
    b = _held_far_weights(config, M0)[:p + 1] / np.arange(1.0, p + 2.0)[
        :, None]
    return const - (1.0 + rho) * float(np.dot(s, _far_field(s, rho, config,
                                                              p, b)))


def p2_functional(eta: np.ndarray, alpha: float, cutoff: int):
    """Quadratic window form sum_m m^(-alpha-2) ||G_m eta||^2 up to cutoff.

    Returns (value, tail_bound) where tail_bound caps the dropped m > cutoff
    contribution by ||eta||^2 * cutoff^(1-alpha)/(alpha-1).
    """
    eta = np.asarray(eta, dtype=float)
    if cutoff < 1 or cutoff > eta.size:
        raise ValueError(f"cutoff must lie in [1, {eta.size}], got {cutoff}")
    norms = np.concatenate([np.sum(G * G, axis=1)
                            for _, G in _window_sums(eta, cutoff)])
    ms = np.arange(1, cutoff + 1, dtype=float)
    value = float(np.sum(ms ** (-alpha - 2.0) * norms))
    tail = float(np.dot(eta, eta)) * cutoff ** (1.0 - alpha) / (alpha - 1.0)
    return value, tail


def error_energy(xi: np.ndarray, eta: np.ndarray, rtilde: np.ndarray,
                 config: LatticeConfig) -> float:
    """Modified energy 0.5 ||xi||^2 + sum_j sum_m W_m(G_m eta, G_m rtilde),
    with W_m(a, b) = _kernel(a, m + b) the remainder of V_m around b.

    Valid (and provably norm-equivalent) only under the smallness condition
    ||eta||, ||rtilde|| <= 1/4, which is enforced.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    rtilde = np.asarray(rtilde, dtype=float)
    if np.linalg.norm(eta) > 0.25 or np.linalg.norm(rtilde) > 0.25:
        raise ValueError("smallness violated: need ||eta||, ||rtilde|| <= 1/4")
    M = config.cutoff
    pot = sum(float(s) for (ms, Ge), (_, Gr) in zip(_window_sums(eta, M),
                                                     _window_sums(rtilde, M))
              for s in np.sum(_kernel(Ge, ms + Gr, config.alpha), axis=1))
    return 0.5 * float(np.dot(xi, xi)) + pot


def error_energy_constants(params: AlphaParams):
    """Two-sided coefficients (lo, hi) with
    lo*||eta||^2 <= error_energy - kinetic <= hi*||eta||^2
    under the smallness precondition of error_energy."""
    a = params.alpha
    lo = 2.0 ** (a + 1) * a * (a + 1) * (2.0 * params.zeta_a1 - params.zeta_a) / 3.0 ** (a + 2)
    hi = 2.0 ** (a + 1) * a * (a + 1) * params.zeta_a
    return lo, hi
