"""Spectrum of the limit-null covariance operator.

Under the null the statistic converges in distribution to a weighted sum
of independent chi-square(1) variables whose weights are the eigenvalues
of the integral operator with kernel

    K(s, t) = exp(-(s-t)^2/2) - (1 + s*t + (s*t)^2/2) * exp(-(s^2+t^2)/2)

acting on L2 of the Gaussian weight phi_beta with standard deviation
beta.

operator_spectrum computes the operator's own top eigenvalues in a
finite basis, with no sampling, by one of two routes.  Both are
deterministic, and neither calls a BLAS routine whose result depends on
the thread count, except the dense eigvalsh of a matrix of order at
most 122.  It is the spectrum of every command: eigen, table1, slope,
table2 and pvalue.

Gram route, beta <= 1.  K(s, t) = sum over k >= 3 of f_k(s) f_k(t)
with f_k(y) = y^k e^(-y^2/2) / sqrt(k!), so the operator's nonzero
eigenvalues are those of the Gram matrix of the f_k in L2(phi_beta).
With s = 1 + 2 beta^2 and sigma^2 = beta^2 / s it has the closed form

    G_jk = (j+k-1)!! sigma^(j+k) / (sqrt(s) sqrt(j! k!)),  j + k even,

and 0 otherwise.  Its leading M x M block, k = 3..M+2 with
M = ceil(40 s) <= 120, takes one dense eigvalsh.  The dropped f_k form a
positive semi-definite remainder, so by Weyl's inequality each
eigenvalue is low by at most its trace, the dropped diagonal.  The
diagonal falls by a ratio below 2 sigma^2 = 1 - 1/s, so that trace is at
most s G_KK with K = M + 3: the bound.

Mehler route, beta > 1.  The Gaussian part exp(-(s-t)^2/2) has the
Mehler spectrum on N(0, beta^2) (Rasmussen & Williams, Gaussian
Processes for Machine Learning, 2006, section 4.3.1): with
a = 1/(4 beta^2), b = 1/2, c = sqrt(a^2 + 2ab), A = a + b + c and
B = b/A, the eigenvalues are lambda_j = sqrt(2a/A) B^j, and in the frame
scaled by sqrt(phi_beta) the eigenfunctions are the Hermite functions
e_j(x) = (2c)^(1/4) psi_j(sqrt(2c) x).  K subtracts f_0, f_1 and f_2,
so in that basis the operator is D - U U^T with D = diag(lambda_j) and
U_jk the integral of e_j sqrt(phi_beta) f_k, k = 0..2.  The basis
stops at M = ceil(log 1e-16 / log B), so the dropped Mehler terms have
trace lambda_M / (1 - B), the bound; the f_k's components beyond the
basis decay faster, their squares as B^(2j), and move an eigenvalue
only at second order.  U is in closed form: by the generating function
of the Hermite functions (DLMF 18.12.15) each column's series in j is a
Gaussian integral, whose coefficients are one running product (see
_mehler_basis), and U_jk = 0 unless j + k is even.  So D - U U^T splits
into an odd block diag(lambda_o) - a a^T, a the odd rows of U's column
1, and an even block diag(lambda_e) - b_0 b_0^T - b_2 b_2^T, b_0 and b_2
the even rows of columns 0 and 2.  The eigenvalues of a rank-one
downdate diag(p) - w w^T are the roots of its secular function
g = 1 - sum w_j^2 / (p_j - t), which falls from +inf to -inf between
adjacent poles (Golub, SIAM Rev. 15, 1973; Bunch, Nielsen & Sorensen,
Numer. Math. 31, 1978): root i lies in (p_(i+1), p_i), the last above
p's last minus |w|^2, so no count is needed.  The odd block is one such
solve.  The even block is two nested ones: first the roots nu of
diag(lambda_e) - b_0 b_0^T, then those of its downdate by b_2, whose g
is by Sherman-Morrison 1 - q_2 - q_3^2 / (1 - q_0), q the sums of
b_0^2, b_2^2 and b_0 b_2 over lambda_e - t, with root i in
(nu_(i+1), nu_i).  Each root takes Newton steps on g (t - p_lo)(p_hi - t),
p_lo and p_hi the poles about its bracket, from the bracket's midpoint;
a step that leaves the bracket or fails to halve gives way to the
midpoint, and the rank ends on a step of at most 4 ulps or once its
bracket ends are adjacent floats.  g and g' are one einsum each, with
no matrix product or eigensolver.  By interlacing the top top_m hold at
most top_m // 2 + 1 eigenvalues of either block, the computed ones too,
as each stays in its closed bracket; each block solves that many, and
the two are merged.  For the top 5 a stage takes 5 to 6 evaluations at
beta 2 to 10, against about 52 counts for bisection; a tail rank, whose
g is rounding over a band, is bisected through it in up to about 50.
Ranks are solved in blocks, so a stage's (ranks x ceil(M/2)) buffer
stays within 8 MiB at any top_m.  M grows like 37 beta; above _MAX_BASIS
the call raises ArithmeticError naming beta and M.  Below beta = 1 the
Mehler form cancels O(1) terms as lambda1 falls like beta^6 (its lambda1
is off by 5e-14 relative at beta = 0.25 and 4e-13 at 0.1), so the routes
meet at beta = 1, where they agree within 1e-15 of lambda1.  A failing
eigensolver raises RuntimeError naming beta; only the Gram route calls
one.

A solve depends on beta and the number of ranks alone, and each rank
is solved on its own, so the first k eigenvalues of a solve are those of
a top-k solve, bit for bit.  operator_spectrum therefore solves at least
_SOLVED_RANKS = 5 ranks, memoizes the solve per process on
(beta, max(top_m, 5)) in an LRU cache of _OPERATOR_CACHE_SIZE = 16
keys, and returns the first top_m of it as a fresh result with fresh
arrays on every call: table1's top-5 solves serve table2's lambda1.  An
entry holds max(top_m, 5) doubles and four numbers, under 1 KB at
top_m <= 5 and 1 MiB at the largest top_m, _MAX_BASIS, so the cache
never holds more than 16 MiB.  A top-5 solve takes 0.16-0.83 ms on the
Gram route and 0.69-0.94 ms on the Mehler route at beta 1.5 to 50
(2-vCPU x86-64 VM, one BLAS thread, medians of 15); a lambda1 alone
pays for 5 ranks, 1-13% more than for 1 on the Mehler route at beta 2
to 10 and 1.4x at 300.  A failed solve is not cached.

The sampled estimate.  nystrom_spectrum samples N points from the
weight, forms the matrix G = (K(y_i, y_j)/N), and takes its
eigenvalues, averaged over independent runs; the tests and the paper's
own protocol use it, and no command does.

The eigenvalues of G decay geometrically (the Mehler expansion of the
Gaussian part of K), so G has numerical rank far below N: about 10 at
beta = 0.25 and 140 at beta = 10 for N = 1000.  G is therefore never
formed.  A pivoted Cholesky factorisation G ~= R^T R (Harbrecht, Peters
& Schneider, Appl. Numer. Math. 62, 2012), with R of shape rank x N,
takes one kernel column per step and stops once the trace of the
positive semi-definite residual falls to half of RTOL times the trace
of G; the other half is a margin for roundoff, so that the trace minus
the eigenvalue sum of R R^T stays below RTOL * trace.  The eigenvalues
are those of the small rank x rank matrix R R^T, each within the
residual trace of the matching eigenvalue of G, and memory is
O(N*rank).  At N = 1000 one run takes about 0.55 ms at beta = 0.25,
1.5 ms at beta = 1 and 10-13 ms at beta = 10, against about 155 ms for
a dense eigensolve of G (2-vCPU x86-64 VM, one BLAS thread, best of
15).  The cost is O(N * rank^2), so the margin shrinks as the rank
nears N: 0.13-0.14 s at beta = 50 (rank about 500), and 0.36-0.38 s at
beta = 100 (rank about 770), where the factorisation is the slower of
the two.  Each
call factorises all of its runs; nothing is kept between calls.

The Monte-Carlo draws of null_pvalue's truncated limit law depend on
the clipped top_m eigenvalues, the trace shift, mc_samples and the seed
alone, never on the statistic or on which spectrum gave the
eigenvalues, so they are memoized per process too, keyed on exactly
those values (the eigenvalues by their bytes), and each p-value is one
count over the kept draws.  Only mc_samples up to
_MC_KEEP_LIMIT = 2^18 is kept, in an LRU cache of _MC_CACHE_SIZE = 4
keys, so the kept draws never exceed 4 x 2^18 doubles (8 MiB) whatever
mc_samples is; a larger mc_samples is drawn and counted chunk by chunk
on every call, as before.  Either way the draws come _MC_CHUNK = 16384
rows at a time, fewer above top_m = 64, so the transient normals take
_MC_CHUNK x top_m doubles (0.66 MB at top_m = 5) and never more than
_MC_NORMALS = 2^20 (8 MiB), whatever top_m is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backend import kernel
from .statistic import TuningParam

__all__ = [
    "OperatorSpectrum",
    "SpectrumResult",
    "Truncation",
    "kernel",
    "lambda1",
    "null_pvalue",
    "nystrom_spectrum",
    "operator_spectrum",
    "operator_trace",
    "truncation",
]

# Monte-Carlo rows per chunk in null_pvalue, and the most normals a
# chunk holds: the transient normals take min(_MC_CHUNK x top_m,
# _MC_NORMALS) doubles.
_MC_CHUNK = 1 << 14
_MC_NORMALS = 1 << 20
# Largest mc_samples whose draws null_pvalue keeps, and the number of
# keys it keeps: at most 4 x 2^18 doubles, 8 MiB, in all.
_MC_KEEP_LIMIT = 1 << 18
_MC_CACHE_SIZE = 4

# Keys (beta, ranks) that _solved keeps, and the fewest ranks it
# solves, so that top_m = 1 to 5 share one solve per beta.
_OPERATOR_CACHE_SIZE = 16
_SOLVED_RANKS = 5

# Relative residual trace at which the pivoted Cholesky factorisation of
# the sampled kernel matrix stops.
RTOL = 1e-14
# Rows by which the Cholesky factor grows.
_FACTOR_BLOCK = 64
_EPS = float(np.finfo(np.float64).eps)

# -log of the Mehler tail ratio lambda_M / lambda_0 <= 1e-16 that sizes
# the Mehler basis, and the largest basis operator_spectrum builds.
_MEHLER_DECADES = 16.0 * math.log(10.0)
_MAX_BASIS = 1 << 17
# Most elements of the (ranks x ceil(M/2)) buffer of a Mehler root
# step, 8 MiB of doubles.
_BLOCK_ELEMENTS = 1 << 20


class Truncation(NamedTuple):
    """How operator_spectrum discretizes the operator at one beta: the
    route ("gram" or "mehler"), the basis size M, and the bound on how
    far each eigenvalue of the basis may lie from the operator's."""

    method: str
    basis_size: int
    bound: float


@dataclass(frozen=True, eq=False)
class OperatorSpectrum:
    """Top eigenvalues of the operator, descending and clipped at 0 (0
    beyond the basis), with the route, basis size and error bound that
    produced them, and the operator's closed-form trace."""

    eigenvalues: np.ndarray
    method: str
    basis_size: int
    bound: float
    trace: float


def _mehler_constants(beta: float):
    """a, c, A and B of the Mehler spectrum on N(0, beta^2), and -log B."""
    a = 0.25 / (beta * beta)
    c = 0.5 / beta * math.sqrt(1.0 + a)  # sqrt(a^2 + a), positive at every finite beta
    big_a = a + 0.5 + c
    return a, c, big_a, 0.5 / big_a, -math.log1p(-(a + c) / big_a)


def truncation(tp: TuningParam) -> Truncation:
    """The route, basis size and error bound of operator_spectrum at
    tp.beta, in closed form (see the module docstring).

    ArithmeticError names beta and M when the Mehler basis would exceed
    _MAX_BASIS functions."""
    beta = tp.beta
    if beta <= 1.0:
        s = 1.0 + 2.0 * beta * beta
        size = math.ceil(40.0 * s)
        k = size + 3
        # s G_kk = s (2k)! sigma^(2k) / (2^k k!^2 sqrt(s)), sigma = beta / sqrt(s)
        log_term = (math.lgamma(2 * k + 1) - k * math.log(2.0) - 2.0 * math.lgamma(k + 1)
                    + 2 * k * (math.log(beta) - 0.5 * math.log(s)) + 0.5 * math.log(s))
        return Truncation("gram", size, math.exp(log_term))
    a, _, big_a, ratio, rate = _mehler_constants(beta)
    if rate * _MAX_BASIS < _MEHLER_DECADES:
        raise ArithmeticError(f"the Mehler basis at beta={beta:g} needs "
                              f"M = {_MEHLER_DECADES / rate:.4g} functions, beyond the cap "
                              f"of {_MAX_BASIS}")
    size = math.ceil(_MEHLER_DECADES / rate)
    return Truncation("mehler", size, math.sqrt(2.0 * a / big_a) * ratio**size / (1.0 - ratio))


def operator_spectrum(tp: TuningParam, top_m: int = 5) -> OperatorSpectrum:
    """The operator's top_m eigenvalues, by the Gram route at beta <= 1
    and the Mehler route above (see the module docstring), each within
    the returned bound of the operator's own.

    Solved once per (beta, max(top_m, 5)) per process, so any top_m up
    to 5 shares one solve; the returned arrays are fresh on every call.
    ArithmeticError names beta and M when the Mehler basis would exceed
    _MAX_BASIS functions; top_m, an integer (Python or numpy, not a
    bool), may not exceed it either.  RuntimeError names beta when the
    eigensolver of the Gram route fails; the Mehler route's U is in
    closed form and its secular equations call none."""
    if isinstance(top_m, bool) or not isinstance(top_m, (int, np.integer)):
        raise ValueError(f"top_m must be an integer, got {top_m}")
    if not 1 <= top_m <= _MAX_BASIS:
        raise ValueError(f"top_m must be between 1 and {_MAX_BASIS}, got {top_m}")
    top, (method, size, bound), trace = _solved(tp.beta, max(int(top_m), _SOLVED_RANKS))
    return OperatorSpectrum(eigenvalues=top[:top_m].copy(), method=method, basis_size=size,
                            bound=bound, trace=trace)


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _solved(beta: float, top_m: int) -> tuple[np.ndarray, Truncation, float]:
    """The clipped top_m eigenvalues as a read-only array, the
    truncation and the trace of operator_spectrum; an exception is not
    cached, so a failed key is solved again on its next call.  Each rank
    is solved on its own, so the first k of a top_m solve are the bits
    of a top-k solve."""
    tp = TuningParam(beta)
    method, size, bound = truncation(tp)
    try:
        if method == "gram":
            eig = _gram_eigenvalues(beta, size)
        else:
            eig = _mehler_eigenvalues(beta, size, top_m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed at beta={beta:g}: {exc}") from exc
    top = np.zeros(top_m)
    top[:min(top_m, eig.size)] = np.maximum(eig[:top_m], 0.0)
    top.flags.writeable = False
    return top, Truncation(method, size, bound), operator_trace(tp)


def _gram_eigenvalues(beta: float, size: int) -> np.ndarray:
    """All eigenvalues, descending, of the Gram matrix of f_3..f_(size+2).

    u_k = sigma^k / sqrt(k!) is a running product and (n-1)!! one more,
    so no entry overflows: (n-1)!! stays below 1e242 for n <= 244, and
    where sigma^k underflows the entries are 0."""
    s = 1.0 + 2.0 * beta * beta
    sigma = beta / math.sqrt(s)
    u = np.cumprod(sigma / np.sqrt(np.arange(1.0, size + 3.0)))[2:]
    order = np.arange(3, size + 3)
    total = order[:, None] + order
    double_factorial = np.ones(total.max() + 1)
    double_factorial[2::2] = np.cumprod(np.arange(1.0, total.max(), 2.0))
    gram = np.where(total % 2 == 0, double_factorial[total], 0.0) * u[:, None] * u
    return np.linalg.eigvalsh(gram / math.sqrt(s))[::-1]


def _mehler_basis(beta: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """lambda_j and U (size x 3) of the Mehler route, in closed form.

    By the generating function of the Hermite functions (DLMF 18.12.15),
    sum_j psi_j(y) s^j / sqrt(j!) = pi^(-1/4) e^(-y^2/2 + sqrt(2) s y - s^2/2),
    the series sum_j U_jk s^j / sqrt(j!) is a Gaussian integral: with
    rho = -1/(8 A^2) and C = c^(1/4) / sqrt(A beta) it is C e^(rho s^2)
    times 1, sqrt(c) s / A and (1/(2A) + c s^2 / A^2) / sqrt(2) for
    k = 0, 1, 2.  With w_m = C rho^m sqrt((2m)!) / m!, one running
    product whose ratio tends to 2 rho = -B^2, the nonzero entries are

        U_(2m,0) = w_m,  U_(2m+1,1) = w_m sqrt((2m+1) c) / A,
        U_(2m,2) = w_m (1/(2A) - 8 c m) / sqrt(2),

    and every entry with j + k odd is exactly 0."""
    a, c, big_a, ratio, _ = _mehler_constants(beta)
    lam = math.sqrt(2.0 * a / big_a) * ratio ** np.arange(size)
    m = np.arange((size + 1) // 2)
    steps = -np.sqrt(2.0 * (2.0 * m[:-1] + 1.0) / (m[:-1] + 1.0)) / (8.0 * big_a * big_a)
    w = np.cumprod(np.concatenate([[c**0.25 / math.sqrt(big_a * beta)], steps]))
    u = np.zeros((size, 3))
    u[0::2, 0] = w
    u[1::2, 1] = (w * np.sqrt((2.0 * m + 1.0) * c) / big_a)[:size // 2]
    u[0::2, 2] = w * (0.5 / big_a - 8.0 * c * m) / math.sqrt(2.0)
    return lam, u


def _mehler_eigenvalues(beta: float, size: int, top_m: int) -> np.ndarray:
    """The top min(top_m, size) eigenvalues of D - U U^T at beta."""
    return _mehler_roots(*_mehler_basis(beta, size), top_m)


def _mehler_roots(lam, u, top_m):
    """The top min(top_m, M) eigenvalues, descending, of D - U U^T for U
    of the Mehler parity: those of the odd block's rank-one downdate and
    of the even block's two nested ones (see the module docstring).  By
    interlacing the top top_m hold at most top_m // 2 + 1 eigenvalues of
    either block, so each block solves that many; the first even stage
    solves one more, the pole below the second stage's last root."""
    keep = top_m // 2 + 1
    even = u[0::2][:, [0, 2]]
    first = _secular_roots(lam[0::2], even[:, :1], lam[0::2], keep + 1)
    roots = np.concatenate([_secular_roots(lam[1::2], u[1::2, 1:2], lam[1::2], keep),
                            _secular_roots(lam[0::2], even, first, keep)])
    return np.sort(roots)[::-1][:min(top_m, lam.size)]


def _secular_roots(lam, w, poles, count):
    """The top count eigenvalues of diag(lam) - w w^T, w of one or two
    columns, given the poles of its secular function g: lam for one
    column, and the eigenvalues of diag(lam) - w_0 w_0^T for two.  With
    q_ab the sum of w_a w_b over lam_j - t, g = 1 - q_00, or, by
    Sherman-Morrison, g = 1 - q_11 - q_01^2 / (1 - q_00).  g falls from
    +inf to -inf between adjacent poles, so eigenvalue i is its one root
    between poles i + 1 and i, and the last lies above lam's last minus
    |w|^2.  The ranks are solved in blocks of max(1, _BLOCK_ELEMENTS //
    lam.size), so that the (ranks x lam.size) buffer takes at most 8 MiB
    whatever count is; no rank's steps depend on the others in its
    block."""
    count = min(count, lam.size)
    p_hi = poles[:count]
    p_lo = np.append(poles[1:count + 1], -np.inf)[:count]
    lo = np.fmax(p_lo, lam[-1] - np.sum(np.square(w)))
    pairs = np.square(w.T) if w.shape[1] == 1 else np.stack(
        [np.square(w[:, 0]), np.square(w[:, 1]), w[:, 0] * w[:, 1]])
    block = max(1, _BLOCK_ELEMENTS // lam.size)
    return np.concatenate([
        _bracketed_roots(lam, pairs, lo[i:i + block], p_lo[i:i + block], p_hi[i:i + block])
        for i in range(0, count, block)])


def _bracketed_roots(lam, pairs, lo, p_lo, p_hi):
    """The root of g in each bracket (lo, p_hi) with poles p_lo and p_hi,
    for _secular_roots, by safeguarded Newton steps on g (t - p_lo)
    (p_hi - t): a step that leaves the bracket, or is longer than half
    the last, gives way to the midpoint.  A rank ends on a step of at
    most 4 ulps, or once its bracket ends are adjacent floats; where g
    is not finite, t moves by a float, and if g is still not finite the
    rank ends at t."""
    out = np.empty(lo.size)
    rank, hi, last = np.arange(lo.size), p_hi, np.full(lo.size, np.inf)
    t = 0.5 * (lo + hi)
    buffer = np.empty((lo.size, lam.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while rank.size:
            g, slope = _secular(lam, pairs, t, buffer)
            pole = ~np.isfinite(g)
            if pole.any():
                t[pole] = np.nextafter(t[pole], hi[pole])
                g[pole], slope[pole] = _secular(lam, pairs, t[pole], buffer)
            lo, hi = np.where(g > 0.0, t, lo), np.where(g < 0.0, t, hi)
            step = g / (slope - g / (t - p_lo) + g / (p_hi - t))
            length = np.abs(step)
            y = t + step
            newton = (lo < y) & (y < hi) & (length <= 0.5 * last)
            # a step is NaN where g is not finite
            done = ~(length > 4.0 * np.spacing(np.abs(t)))
            best = np.where(newton, y, t)
            t = np.where(newton, y, 0.5 * (lo + hi))
            done |= (t == lo) | (t == hi)
            last = np.where(newton, length, np.inf)
            if done.any():
                out[rank[done]] = best[done]
                live = ~done
                rank, lo, hi, p_lo, p_hi, t, last = (
                    a[live] for a in (rank, lo, hi, p_lo, p_hi, t, last))
    return out


def _secular(lam, pairs, t, buffer):
    """g and -g' at each t, for _bracketed_roots: q and q' are one
    einsum each of pairs, the rows w_0^2 or w_0^2, w_1^2 and w_0 w_1,
    against 1/(lam_j - t) and its square."""
    inverse = np.subtract(lam, t[:, None], out=buffer[:t.size])
    np.divide(1.0, inverse, out=inverse)
    q = np.einsum("pj,tj->pt", pairs, inverse)
    dq = np.einsum("pj,tj->pt", pairs, np.square(inverse, out=inverse))
    if len(pairs) == 1:
        return 1.0 - q[0], dq[0]
    f = 1.0 - q[0]
    return 1.0 - q[1] - np.square(q[2]) / f, dq[1] + q[2] * (2.0 * dq[2] + q[2] * dq[0] / f) / f


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Averaged spectrum estimate plus everything needed to audit it.

    eigenvalues holds the per-rank means of the top_m eigenvalues across
    runs, clipped at zero; per_run holds the same clipped values per run,
    padded with exact zeros where a run's factor has fewer than top_m
    eigenvalues.  per_run_eigen_sum and per_run_trace are kept unclipped
    so the eigenvalue-sum/trace identity of each run can be verified:
    their difference is the residual trace of the factorisation.
    n_clipped counts the negative eigenvalues of R R^T among the top_m of
    each run, summed over runs; padding zeros do not count.
    per_run_rank is the rank at which each run's factorisation stopped,
    its number of pivot steps.
    """

    beta: float
    n_points: int
    runs: int
    seed: int
    top_m: int
    eigenvalues: np.ndarray
    per_run: np.ndarray
    trace_estimate: float
    per_run_trace: np.ndarray
    per_run_eigen_sum: np.ndarray
    n_clipped: int
    per_run_rank: np.ndarray

    @property
    def trace(self) -> float:
        """trace_estimate, under the name OperatorSpectrum gives its
        trace, so that null_pvalue reads either result."""
        return self.trace_estimate


def nystrom_spectrum(
    tp: TuningParam,
    n_points: int = 1000,
    runs: int = 10,
    seed: int = 42,
    top_m: int = 5,
) -> SpectrumResult:
    """Stochastic eigenvalue approximation at n_points sample nodes.

    Each run draws its nodes from a dedicated child stream of the master
    seed, so runs are independent yet individually reproducible, and the
    per-run spectra are bit-identical for identical arguments.
    n_points, runs, seed and top_m must be integers (Python or numpy,
    not bools); anything else raises ValueError.
    """
    for name, value in (("n_points", n_points), ("runs", runs), ("seed", seed), ("top_m", top_m)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value}")
    if n_points < 100:
        raise ValueError("n_points must be at least 100")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if not 1 <= top_m <= n_points:
        raise ValueError("top_m must be between 1 and n_points")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_points, runs, seed, top_m = int(n_points), int(runs), int(seed), int(top_m)
    per_run = np.zeros((runs, top_m))
    traces = np.empty(runs)
    sums = np.empty(runs)
    ranks = np.empty(runs, dtype=np.int64)
    clipped = 0
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(runs)):
        rng = np.random.default_rng(child)
        rows, traces[r] = _pivoted_cholesky(tp.beta * rng.standard_normal(n_points))
        ranks[r] = len(rows)
        if not math.isfinite(traces[r]):
            raise ArithmeticError(f"kernel trace is not finite at beta={tp.beta:g} in run {r}")
        try:
            eig = np.linalg.eigvalsh(rows @ rows.T)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed in run {r}") from exc
        del rows  # frees this run's factor before the next run allocates one
        sums[r] = float(np.sum(eig))
        top = eig[::-1][:top_m]
        clipped += int(np.count_nonzero(top < 0.0))
        per_run[r, :top.size] = np.maximum(top, 0.0)
    return SpectrumResult(
        beta=tp.beta,
        n_points=n_points,
        runs=runs,
        seed=seed,
        top_m=top_m,
        eigenvalues=per_run.mean(axis=0),
        per_run=per_run,
        trace_estimate=float(np.mean(traces)),
        per_run_trace=traces,
        per_run_eigen_sum=sums,
        n_clipped=clipped,
        per_run_rank=ranks,
    )


def _pivoted_cholesky(y: np.ndarray) -> tuple[np.ndarray, float]:
    """Pivoted Cholesky factor of G = (K(y_i, y_j)/N), stored transposed
    (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62, 2012).

    Returns R, of shape rank x N, with G ~= R^T R, and the exact trace of
    G, the diagonal sum in the order the nodes were drawn; R R^T has the
    nonzero eigenvalues of R^T R.  R is a view of a buffer of
    _FACTOR_BLOCK rows, grown by as many whenever the factor outgrows it.

    The residual diagonal d starts as the diagonal of G.  Each step
    pivots on its largest entry p, takes the kernel column K(y, y_p)/N,
    subtracts the factor's rows so far and divides by sqrt(d_p), until
    sum(d) <= stop = RTOL * trace / 2; a zero or NaN trace runs no step.
    That takes at most N steps with no cap: while sum(d) exceeds
    stop >= 0 the pivot is positive, the step zeroes it, and no entry of
    d grows.  By Weyl's inequality every eigenvalue of R R^T is within
    sum(d) of the matching eigenvalue of G.  The halved threshold leaves
    a margin for the roundoff of sum(d) and of the eigenvalue sum, so
    that trace minus the eigenvalue sum of R R^T stays below
    RTOL * trace.  Memory is O(N * rank).
    """
    n = y.size
    d = kernel(y, y) / n
    trace = float(np.sum(d))
    stop = 0.5 * RTOL * trace
    square = np.empty(n)
    factor = np.empty((_FACTOR_BLOCK, n))
    rank = 0
    with np.errstate(over="ignore"):
        while float(d.sum()) > stop:
            p = int(d.argmax())
            if rank == len(factor):
                grown = np.empty((rank + _FACTOR_BLOCK, n))
                grown[:rank] = factor
                factor = grown
            row = np.divide(kernel(y, y[p]), n, out=factor[rank])
            row -= np.matmul(factor[:rank, p], factor[:rank], out=square)
            row /= math.sqrt(d[p])
            d -= np.square(row, out=square)
            d[p] = 0.0
            rank += 1
    return factor[:rank], trace


def lambda1(tp: TuningParam) -> float:
    """Largest eigenvalue of the operator, from operator_spectrum."""
    return float(operator_spectrum(tp, top_m=1).eigenvalues[0])


def operator_trace(tp: TuningParam) -> float:
    """Trace of the operator: the integral of
    K(t, t) = 1 - (1 + t^2 + t^4/2) exp(-t^2) against the Gaussian
    weight, in closed form.  With s = 1 + 2 beta^2 it is

        1 - s^(-1/2) - beta^2 s^(-3/2) - 1.5 beta^4 s^(-5/2)
          = sum over k >= 3 of (2k-1)!! beta^(2k) s^(-k-1/2) / k!.

    The first form cancels O(1) terms to an O(beta^6) value, so it is
    used for beta > 1 only; below, the series is summed (term ratio
    (2k+1) beta^2 / (s (k+1)) <= 2/3, all terms positive).
    """
    b2 = tp.beta * tp.beta
    s = 1.0 + 2.0 * b2
    if tp.beta > 1.0:
        return 1.0 - s**-0.5 - b2 * s**-1.5 - 1.5 * b2 * b2 * s**-2.5
    total, term, k = 0.0, 2.5 * b2**3 * s**-3.5, 3
    # with the ratio below 2/3 the terms left sum to at most 3 * term
    while term > 0.25 * _EPS * total:
        total += term
        term *= (2 * k + 1) * b2 / (s * (k + 1))
        k += 1
    return total


def null_pvalue(
    statistic: float,
    spectrum: OperatorSpectrum | SpectrumResult,
    mc_samples: int = 100_000,
    seed: int = 42,
) -> float:
    """Monte-Carlo tail probability of the truncated limit law: the
    share of mc_samples draws that are >= statistic.

    The limit law is a weighted sum of chi-square(1) variables over the
    full spectrum; only the top_m eigenvalues of the spectrum, exact
    (operator_spectrum) or sampled (nystrom_spectrum), are simulated,
    and the discarded tail is compensated by a deterministic mean shift
    equal to its trace minus their sum.  The approximation matches the
    first moment of the full limit law but not its spread: at the full
    law's 5% point it gives 0.0499 at beta 1, 0.0443 at 5, 0.0318 at 10
    and 0.0030 at 50 (top_m = 5), so the test is anticonservative from
    beta 5 up.

    The draws are memoized per process by (the bytes of the clipped
    eigenvalues, the shift, mc_samples, seed) when mc_samples is at
    most _MC_KEEP_LIMIT, up to _MC_CACHE_SIZE keys, as read-only arrays;
    a hit gives the p-value a miss gives, bit for bit.  A larger
    mc_samples is drawn chunk by chunk on every call and keeps nothing.
    mc_samples and seed must be integers (Python or numpy, not bools);
    anything else raises ValueError, as does a NaN statistic; +inf
    gives 0.
    """
    for name, value in (("mc_samples", mc_samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value}")
    if mc_samples < 1:
        raise ValueError("mc_samples must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if math.isnan(statistic):
        raise ValueError(f"statistic must not be NaN, got {statistic}")
    lam = np.maximum(np.asarray(spectrum.eigenvalues, dtype=np.float64), 0.0)
    shift = max(spectrum.trace - float(np.sum(lam)), 0.0)
    mc_samples, seed = int(mc_samples), int(seed)
    if mc_samples <= _MC_KEEP_LIMIT:
        draws = _kept_draws(lam.tobytes(), shift, mc_samples, seed)
        exceed = int(np.count_nonzero(draws >= statistic))
    else:
        chunks = _draw_chunks(lam, shift, mc_samples, seed)
        exceed = sum(int(np.count_nonzero(chunk >= statistic)) for chunk in chunks)
    return exceed / mc_samples


@functools.lru_cache(maxsize=_MC_CACHE_SIZE)
def _kept_draws(lam_bytes: bytes, shift: float, mc_samples: int, seed: int) -> np.ndarray:
    """All mc_samples draws of _draw_chunks in one read-only array."""
    draws = np.empty(mc_samples)
    start = 0
    for chunk in _draw_chunks(np.frombuffer(lam_bytes), shift, mc_samples, seed):
        draws[start:start + chunk.size] = chunk
        start += chunk.size
    draws.flags.writeable = False
    return draws


def _draw_chunks(lam: np.ndarray, shift: float, mc_samples: int, seed: int):
    """Yield mc_samples draws of sum lam_j z_j^2 + shift, z standard
    normal, in chunks of at most _MC_CHUNK rows and _MC_NORMALS normals;
    each chunk is a view of one buffer that the next overwrites.

    standard_normal(out=...) continues one stream whatever the chunk
    size, so the normals are those of a single (mc_samples, top_m) draw,
    and each draw sums its terms in the order of j, so the draws are
    those of a single draw too, bit for bit, whatever the chunk size or
    the BLAS library.
    """
    # entropy [seed, 1] keeps this stream disjoint from the spawned
    # per-run streams of nystrom_spectrum under the same master seed
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rows = min(_MC_CHUNK, mc_samples, max(1, _MC_NORMALS // max(lam.size, 1)))
    normals = np.empty((rows, lam.size))
    draws = np.empty(rows)
    for start in range(0, mc_samples, rows):
        k = min(rows, mc_samples - start)
        z = rng.standard_normal(out=normals[:k])
        np.square(z, out=z)
        out = draws[:k]
        out.fill(0.0)
        for j, lam_j in enumerate(lam):
            out += lam_j * z[:, j]
        out += shift
        yield out
