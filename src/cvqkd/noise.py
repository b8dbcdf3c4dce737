"""Source and channel models for the entangled-beam pipeline.

Four physical imperfections are modeled on top of the ideal
squeezer-plus-beam-splitter source:

* pump-power dependence of the squeezed and anti-squeezed variances of the
  parametric source, with overall efficiency eta, threshold power p_th and
  a detuning-like constant k
* optical loss, the usual vacuum admixture channel, per output mode
* electronic detection noise, additive on each detector's variances
* Gaussian phase noise, a random phase-space rotation per mode with zero
  mean and standard deviation sigma, propagated in closed form on the
  second moments (with a Monte-Carlo oracle for validation)

The closed-form conditional-variance curve epr_theory and the end-to-end
source constructor make_epr_state tie the pieces together.

Loss accounting, one rule: every input names its source variances before
any loss, and each arm then takes its full configured loss. A detected
figure v already contains the source-side loss epsilon, so it names the
source variance (v - epsilon)/(1 - epsilon); see make_epr_state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError, _warn
from .gaussian import (
    DEFAULT_TOL,
    CovarianceMatrix,
    _squeezed_variances,
    balanced_beamsplitter,
    covariance,
    db_to_variance,
    variance_to_db,
)

#: pump model evaluated only up to this multiple of the threshold power
PUMP_GUARD_FACTOR = 1.05

#: the symplectic matrix of the source's beam splitter, built once
_BEAMSPLITTER = balanced_beamsplitter()


@dataclass(frozen=True)
class SourceParams:
    """Parametric-source model parameters.

    eta is the overall efficiency in (0, 1], p_mw the pump power and
    p_th_mw the threshold power (both in mW), and k a dimensionless
    detuning-like constant. The defaults are the fitted operating values
    of the modeled source.
    """

    eta: float = 0.941
    p_mw: float | None = None
    p_th_mw: float = 268.0
    k: float = 0.136

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise InvalidArgumentError(f"eta must be in (0, 1], got {self.eta}")
        if not (self.p_th_mw > 0.0):
            raise InvalidArgumentError(f"p_th_mw must be positive, got {self.p_th_mw}")
        if self.p_mw is not None and not self.p_mw >= 0.0:
            raise InvalidArgumentError(f"p_mw must be non-negative, got {self.p_mw}")
        if not self.k >= 0.0:
            raise InvalidArgumentError(f"k must be non-negative, got {self.k}")


@dataclass(frozen=True)
class ChannelParams:
    """Per-arm channel imperfections.

    loss_a and loss_b are total optical losses of the two output arms,
    det_noise_a and det_noise_b additive electronic noise variances of the
    two detectors (vacuum units), phase_sigma_a and phase_sigma_b phase
    noise standard deviations in radians, and epsilon the source-side loss
    already contained in a detected squeezing figure. Defaults are the
    fitted operating values.
    """

    epsilon: float = 0.059
    loss_a: float = 0.068
    loss_b: float = 0.068
    det_noise_a: float = 0.0148
    det_noise_b: float = 0.0148
    phase_sigma_a: float = 0.0
    phase_sigma_b: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise InvalidArgumentError(f"epsilon must be in [0, 1), got {self.epsilon}")
        for name in ("loss_a", "loss_b"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidArgumentError(f"{name} must be in [0, 1], got {v}")
        for name in ("det_noise_a", "det_noise_b", "phase_sigma_a", "phase_sigma_b"):
            v = getattr(self, name)
            if not v >= 0.0:
                raise InvalidArgumentError(f"{name} must be non-negative, got {v}")


@dataclass(frozen=True)
class SqueezingSpec:
    """Input squeezing, either as detected variances or as a pure parameter.

    var_sqz_db and var_asqz_db are detected variances in dB (negative for
    squeezing below vacuum). A pair names the source variances
    (v - epsilon)/(1 - epsilon); var_sqz_db alone names the pure squeezing
    parameter r inferred through the source-side loss epsilon; r may also
    be supplied directly. Each arm then takes its full loss.
    """

    var_sqz_db: float | None = None
    var_asqz_db: float | None = None
    r: float | None = None

    def __post_init__(self):
        if self.var_sqz_db is None and self.r is None:
            raise InvalidArgumentError("SqueezingSpec needs var_sqz_db or r")
        if self.var_asqz_db is not None and self.var_sqz_db is None:
            raise InvalidArgumentError("var_asqz_db given without var_sqz_db")
        if self.r is not None and math.isnan(self.r):
            raise InvalidArgumentError(f"squeezing parameter r must be a number, got {self.r}")
        if self.r is not None and self.r < 0.0:
            _warn(f"negative squeezing parameter r = {self.r}")


def pump_to_variances(params: SourceParams) -> tuple[float, float]:
    """Squeezed and anti-squeezed variances of the source at pump power p.

    With x = p/p_th the model reads
    var_sqz  = 1 - eta * 4 sqrt(x) / ((1 + sqrt(x))^2 + 4 k^2)
    var_asqz = 1 + eta * 4 sqrt(x) / ((1 - sqrt(x))^2 + 4 k^2)
    The generated state is mixed (variance product >= 1) for every pump
    power. Evaluation is allowed up to 1.05 * p_th, except at p_th when
    k = 0, where var_asqz diverges; at or above threshold it warns.
    """
    if params.p_mw is None:
        raise InvalidArgumentError("pump power p_mw is not set")
    x = params.p_mw / params.p_th_mw
    if x > PUMP_GUARD_FACTOR:
        raise InvalidArgumentError(
            f"pump power {params.p_mw} mW exceeds {PUMP_GUARD_FACTOR} * threshold "
            f"({PUMP_GUARD_FACTOR * params.p_th_mw:.6g} mW); the model is not valid there"
        )
    if x >= 1.0:
        _warn(f"pump power {params.p_mw} mW is at or above threshold {params.p_th_mw} mW")
    s = math.sqrt(x)
    denom_asqz = (1.0 - s) ** 2 + 4.0 * params.k * params.k
    if denom_asqz == 0.0:
        raise InvalidArgumentError("pump model diverges at threshold when k = 0")
    return _pump_sqz_variance(params, s), 1.0 + params.eta * 4.0 * s / denom_asqz


def _pump_sqz_variance(params: SourceParams, s: float) -> float:
    """The pump model's squeezed variance at s = sqrt(p/p_th)."""
    return 1.0 - params.eta * 4.0 * s / ((1.0 + s) ** 2 + 4.0 * params.k * params.k)


def loss_channel(g: CovarianceMatrix, nu) -> CovarianceMatrix:
    """Optical loss of nu per mode, vacuum admixture.

    nu may be a scalar (uniform loss) or a sequence with one value per
    mode. One formula covers both: entry (i, j) of Gamma is scaled by
    sqrt((1 - nu_i)(1 - nu_j)) and nu_i is added to the diagonal, with
    nu_i repeated for both quadratures of a mode. Uniform loss is then
    exactly the convex combination (1 - nu) Gamma + nu Identity, bit for
    bit, because the square root of a correctly rounded square returns
    its argument.
    """
    nus = _per_mode(nu, g.n_modes, "nu")
    if not np.all((nus >= 0.0) & (nus <= 1.0)):
        raise InvalidArgumentError(f"loss values must lie in [0, 1], got {nus.tolist()}")
    return covariance(_loss(g.entries, nus))


def detection_noise(g: CovarianceMatrix, delta) -> CovarianceMatrix:
    """Additive electronic noise of delta per detector on both quadratures."""
    deltas = _per_mode(delta, g.n_modes, "delta")
    if not np.all(deltas >= 0.0):
        raise InvalidArgumentError(f"detection noise must be non-negative, got {deltas.tolist()}")
    with np.errstate(over="ignore"):  # covariance() names a non-finite entry
        entries = _detection(g.entries, deltas)
    return covariance(entries)


def phase_noise_channel(g: CovarianceMatrix, sigma) -> CovarianceMatrix:
    """Second moments after independent Gaussian phase jitter per mode.

    Each mode is rotated by an independent zero-mean Gaussian angle with
    standard deviation sigma_i and the resulting moments are averaged in
    closed form: within a mode the traceless part of the 2x2 block scales
    by E[cos 2theta] = exp(-2 sigma_i^2), and every cross-mode block scales
    by exp(-(sigma_i^2 + sigma_j^2)/2). The averaged state is no longer
    Gaussian, but these are its exact second moments, which is what every
    covariance-based quantity downstream consumes.
    """
    sigmas = _per_mode(sigma, g.n_modes, "sigma")
    if not np.all(sigmas >= 0.0):
        raise InvalidArgumentError(f"phase noise sigma must be non-negative, got {sigmas.tolist()}")
    if np.all(sigmas == 0.0):
        return g
    return covariance(_phase_noise(g.entries, sigmas))


# The channel arithmetic on raw matrices, without argument checks or
# validation: the public maps above wrap each in covariance(), and
# _optical chains them for its callers to validate once.


def _loss(m: np.ndarray, nus: np.ndarray) -> np.ndarray:
    # sqrt(fl(x * x)) == x in binary64, so equal arms give (1 - nu) Gamma + nu I exactly
    t = (1.0 - nus).repeat(2)
    return np.sqrt(t[:, np.newaxis] * t) * m + np.diag(nus.repeat(2))


def _detection(m: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Detection noise on one matrix, one delta per mode, or on a (k, n, n)
    stack, a row of deltas per matrix, k >= 0. Each matrix is bit for bit
    m + np.diag(deltas.repeat(2)): every other entry gets + 0.0, so a -0.0
    entry reads +0.0, and one that overflows reads inf."""
    n = m.shape[-1]
    noise = np.zeros((*deltas.shape[:-1], n, n))
    noise.reshape(*deltas.shape[:-1], n * n)[..., :: n + 1] = deltas.repeat(2, axis=-1)
    return m + noise


def _phase_noise(m: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    # Python floats per entry, the 2x2 block arrays' operations: math.exp and C pow keep the factors' bits (array
    # np.exp differs on 4.8% of inputs on AVX-512 hardware, s * s on 0.1%), and every factor is 0 past sigma = 39,
    sigmas = [min(s, 1e100) for s in sigmas.tolist()]  # so this cap keeps them too, and float ** cannot overflow
    x = m.tolist()
    out = [row[:] for row in x]
    for i, s in enumerate(sigmas):
        p, q = 2 * i, 2 * i + 1
        e2 = math.exp(-2.0 * s * s)
        mean, dev = (x[p][p] + x[q][q]) / 2.0, (x[p][p] - x[q][q]) / 2.0
        out[p][p], out[q][q] = mean + e2 * dev, mean - e2 * dev
        out[p][q] = out[q][p] = e2 * x[p][q]
        for j in range(len(sigmas)):
            if j != i:
                f = math.exp(-(sigmas[i] ** 2 + sigmas[j] ** 2) / 2.0)
                for r in (p, q):
                    for c in (2 * j, 2 * j + 1):
                        out[r][c] = f * x[r][c]
    return np.array([[(a + b) / 2.0 for a, b in zip(row, col)] for row, col in zip(out, zip(*out))])


def phase_noise_monte_carlo(
    g: CovarianceMatrix,
    sigma,
    n_samples: int,
    seed: int,
    return_std_errors: bool = False,
):
    """Empirical second moments under sampled phase jitter.

    Validation oracle for phase_noise_channel: draws n_samples phase-space
    points from the input state, rotates each mode by an independent
    Gaussian angle, and returns the raw empirical second-moment matrix.
    Deterministic for a given seed (base samples are drawn first, then the
    angles mode by mode). With return_std_errors=True also returns the
    per-entry standard error matrix estimated from the sample. A matrix
    that is not positive definite raises InvalidStateError.
    """
    if n_samples < 1:
        raise InvalidArgumentError(f"n_samples must be at least 1, got {n_samples}")
    sigmas = _per_mode(sigma, g.n_modes, "sigma")
    if not np.all(sigmas >= 0.0):
        raise InvalidArgumentError(f"phase noise sigma must be non-negative, got {sigmas.tolist()}")
    rng = np.random.default_rng(seed)
    try:
        chol = np.linalg.cholesky(g.entries)
    except np.linalg.LinAlgError as exc:
        raise InvalidStateError("covariance matrix is not positive definite, so it cannot be sampled") from exc
    z = rng.standard_normal((n_samples, g.dim)) @ chol.T
    x = np.empty_like(z)
    for i in range(g.n_modes):
        theta = rng.normal(0.0, sigmas[i], n_samples)
        c, s = np.cos(theta), np.sin(theta)
        x[:, 2 * i] = c * z[:, 2 * i] + s * z[:, 2 * i + 1]
        x[:, 2 * i + 1] = -s * z[:, 2 * i] + c * z[:, 2 * i + 1]
    moments = x.T @ x / n_samples
    result = covariance((moments + moments.T) / 2.0)
    if not return_std_errors:
        return result
    dim = g.dim
    se = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            prod = x[:, i] * x[:, j]
            se[i, j] = se[j, i] = prod.std(ddof=1) / math.sqrt(n_samples)
    return result, se


def r_from_measured(var_sqz_db: float, epsilon: float) -> float:
    """Pure squeezing parameter inferred from a detected squeezed variance.

    Inverts the source-side loss epsilon out of the measured variance,
    r = -1/2 ln((10^(var_sqz_db/10) - epsilon) / (1 - epsilon)). The
    measured variance must exceed epsilon, otherwise no pure state can
    explain it.
    """
    if not (0.0 <= epsilon < 1.0):
        raise InvalidArgumentError(f"epsilon must be in [0, 1), got {epsilon}")
    v = db_to_variance(var_sqz_db)
    arg = (v - epsilon) / (1.0 - epsilon)
    if arg <= 0.0:
        raise InvalidArgumentError(
            f"measured variance {v:.6g} does not exceed epsilon = {epsilon}; "
            "no pure input state is consistent with it"
        )
    return -0.5 * math.log(arg)


def epr_theory(nu: float, r: float) -> float:
    """Closed-form conditional-variance product of the lossy source.

    For a pure input with squeezing parameter r split on a balanced beam
    splitter and attenuated by uniform loss nu on both arms,
    (1 + 4 (nu - nu^2) sinh^2 r) / (1 + (1 - nu^2) sinh^2 r).
    Matches the direct conditional-variance product of the full covariance
    pipeline; decreasing in r toward the asymptote 4 nu / (1 + nu).
    """
    if not (0.0 <= nu <= 1.0):
        raise InvalidArgumentError(f"nu must be in [0, 1], got {nu}")
    if r < 0.0:
        raise InvalidArgumentError(f"r must be non-negative, got {r}")
    sh2 = math.sinh(r) ** 2
    return (1.0 + 4.0 * (nu - nu * nu) * sh2) / (1.0 + (1.0 - nu * nu) * sh2)


def make_epr_state(spec, channel: ChannelParams | None = None) -> CovarianceMatrix:
    """Two-mode entangled state of the full source-plus-channel pipeline.

    spec, a SqueezingSpec or the pump model's SourceParams, names the
    source variances before any loss: (e^-2r, e^2r) for a pure r or the r
    that r_from_measured infers from one measured value, and
    (v - epsilon)/(1 - epsilon) for each v of a measured or pump pair. Every
    route but a pure r goes through epsilon, so each arm's loss must be at
    least epsilon. Then one pipeline on raw entries, _optical and detection
    noise, which covariance() validates once: tensor with vacuum, balanced
    beam splitter, the full per-arm loss, phase noise, detection noise, equal
    bit for bit to tensor, apply_symplectic, loss_channel,
    phase_noise_channel and detection_noise composed. An entry that
    overflows is covariance()'s error, without a numpy warning.
    """
    ch = channel if channel is not None else ChannelParams()
    with np.errstate(over="ignore", invalid="ignore"):  # covariance() names a non-finite entry
        entries = _detection(_optical(spec, ch), np.array([ch.det_noise_a, ch.det_noise_b], dtype=float))
    return covariance(entries)


def _source(spec, ch: ChannelParams) -> tuple[float, float]:
    """make_epr_state's checked source variances (vs, va)."""
    eps = ch.epsilon
    if isinstance(spec, SqueezingSpec) and spec.var_asqz_db is None:
        r = spec.r if spec.r is not None else r_from_measured(spec.var_sqz_db, eps)
        try:
            variances = math.exp(-2.0 * r), math.exp(2.0 * r)
        except OverflowError as exc:
            figure = f"r = {r}" if spec.r is not None else (
                f"var_sqz_db = {spec.var_sqz_db} dB under epsilon = {eps} implies r = {r:.6g}, which"
            )
            raise InvalidArgumentError(f"{figure} puts a source variance e^(-2r) or e^(2r) beyond the float range") from exc
        source = _squeezed_variances(*variances)
    else:
        source = _detected_source(spec, eps)
    if not isinstance(spec, SqueezingSpec) or spec.r is None:
        for name, loss in (("loss_a", ch.loss_a), ("loss_b", ch.loss_b)):
            if loss < eps:
                raise InvalidArgumentError(
                    f"{name} = {loss} is smaller than the source-side epsilon = {eps}; "
                    "the measured-input route needs at least that much total loss per arm"
                )
    return source


def _detected_source(spec, eps: float) -> tuple[float, float]:
    """The checked source variances (v - epsilon)/(1 - epsilon) of a measured
    or pump pair; the one warning when their product is below 1."""
    if isinstance(spec, SourceParams):
        vs, va = pump_to_variances(spec)
    elif not isinstance(spec, SqueezingSpec):
        raise InvalidArgumentError(f"spec must be SqueezingSpec or SourceParams, got {type(spec).__name__}")
    else:
        vs, va = db_to_variance(spec.var_sqz_db), db_to_variance(spec.var_asqz_db)
    if vs <= eps or va <= eps:
        raise InvalidArgumentError(
            f"measured variances {_pair_db(spec, vs, va)} do not exceed epsilon = {eps}; "
            "no source state is consistent with them"
        )
    source = ((vs - eps) / (1.0 - eps), (va - eps) / (1.0 - eps))
    if source[0] * source[1] < 1.0 - DEFAULT_TOL:
        _warn(
            f"measured pair {_pair_db(spec, vs, va)} implies a source variance product "
            f"{source[0] * source[1]:.6f} < 1 under epsilon = {eps}; the inferred source state "
            "violates the uncertainty relation"
        )
    return source


def _pair_db(spec, vs: float, va: float) -> str:
    # messages name a pair in dB: as configured, or the pump model's pair converted
    if isinstance(spec, SourceParams):
        return f"({variance_to_db(vs)} dB, {variance_to_db(va)} dB)"
    return f"({spec.var_sqz_db} dB, {spec.var_asqz_db} dB)"


def _optical(spec, ch: ChannelParams) -> np.ndarray:
    """make_epr_state(spec, ch)'s raw entries before detection noise, not
    validated: the source diag(vs, va) of _source with vacuum, _BEAMSPLITTER,
    loss and phase noise on one raw 4x4 array, kept exactly symmetric. Zero
    loss changes no entry; zero phase noise would round. An entry that
    overflows reads inf or NaN, with numpy's warning unless the caller's
    np.errstate silences it."""
    vs, va = _source(spec, ch)
    m = np.zeros((4, 4))
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = vs, va, 1.0, 1.0
    m = _BEAMSPLITTER @ m @ _BEAMSPLITTER.T
    m = (m + m.T) / 2.0
    m = _loss(m, np.array([ch.loss_a, ch.loss_b], dtype=float))
    if ch.phase_sigma_a != 0.0 or ch.phase_sigma_b != 0.0:
        m = _phase_noise(m, np.array([ch.phase_sigma_a, ch.phase_sigma_b], dtype=float))
    return m


def _per_mode(value, n_modes: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(n_modes, arr[0])
    if arr.shape != (n_modes,):
        raise InvalidArgumentError(f"{name} must be a scalar or a sequence of {n_modes} values, got {value!r}")
    return arr
