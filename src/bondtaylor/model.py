"""Short-rate model descriptions.

A model is the pair of coefficient functions of the pricing equation: the
drift mu(r) and the squared volatility vol2(r) = sigma(r)^2, both stored as
GenPoly.  Only vol2 is ever kept; no operation needs sigma itself, and storing
the square keeps constant-elasticity exponents exact (2*gamma instead of a
rounded sqrt round trip).

Presets, all CKLS models (Chan, Karolyi, Longstaff & Sanders, J. Finance 47,
1992), built like every model by make_custom, the one constructor:
    cir     mu = alpha + beta*r   vol2 = sigma^2 * r            gamma = 1/2
    dothan  mu = mu_d * r         vol2 = sigma^2 * r^2          alpha = 0, gamma = 1
    ckls    mu = alpha + beta*r   vol2 = sigma^2 * r^(2*gamma)
make_dothan_sigma2 builds Dothan from sigma^2 itself, as the config key sigma2
does and the Dothan tables do.

vol2 must be nonnegative wherever the model is used.  check_vol2_nonnegative
samples (0, 1] when any model is built, and check_vol2_at is the rule at
one rate: the series apply it to every rate they are evaluated at.

Config files are line-based "key = value" with '#' comments, e.g.

    model = cir
    alpha = 0.00315
    beta = -0.0555
    sigma = 0.0894

Custom models give term lists in the GenPoly text format:

    model = custom
    drift_terms = 0.00315:0, -0.0555:1
    vol2_terms = 0.00799236:1

Every refusal of a config is a ConfigError that names a line: a bad value its
own, and whatever the constructor refuses (a negative sigma or sigma2, a
sigma^2 that overflows, the vol2 check) the line of sigma, sigma2 or vol2_terms.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from . import genpoly as gp
from .errors import ConfigError, DomainError
from .genpoly import GenPoly

# vol2 nonnegativity is checked by sampling this many points on (0, 1]
_VOL2_SAMPLES = 1000
# slack for float noise when an exactly-nonnegative vol2 is evaluated in
# expanded form near one of its roots
_VOL2_SLACK = -1e-12


def _check_nonnegative(name: str, value: float) -> None:
    if not value >= 0.0:  # a NaN fails too
        raise ValueError(f"{name} must be nonnegative, got {value}")


class CIRParams(NamedTuple):
    alpha: float
    beta: float
    sigma: float


class DothanParams(NamedTuple):
    mu: float
    sigma: float


class ShortRateModel(NamedTuple):
    drift: GenPoly
    vol2: GenPoly


def check_vol2_at(v: float, r: float) -> None:
    """Reject the rate r if the model's vol2 there, v, is negative (beyond float noise)."""
    if v < _VOL2_SLACK:
        raise DomainError(f"vol2 is negative at r={r:.6g}")


def check_vol2_nonnegative(vol2: GenPoly) -> None:
    """Sample vol2 on (0, 1] and reject if any value is negative."""
    if all(c >= 0.0 and n >= 0 for c, n in vol2.terms):
        try:  # nondecreasing on (0, 1], so all samples pass if the last does
            gp.evaluate(vol2, 1.0)
            return
        except DomainError:
            pass  # it overflows: the loop names the first sample that does
    table = gp.table((vol2,))
    for x in (i / _VOL2_SAMPLES for i in range(1, _VOL2_SAMPLES + 1)):
        check_vol2_at(gp.values(table, x)[0], x)


def make_cir(p: CIRParams) -> ShortRateModel:
    return make_ckls(p.alpha, p.beta, p.sigma, 0.5)


def make_dothan(p: DothanParams) -> ShortRateModel:
    return make_ckls(0.0, p.mu, p.sigma, 1.0)


def make_dothan_sigma2(mu: float, sigma2: float) -> ShortRateModel:
    """Dothan from sigma^2 itself: sigma2 = 0.01 gives exactly 0.01 r^2, sqrt(0.01)^2 does not."""
    _check_nonnegative("sigma2", sigma2)
    return make_custom([(0.0, 0.0), (mu, 1.0)], [(sigma2, 2.0)])


def make_ckls(alpha: float, beta: float, sigma: float, gamma: float) -> ShortRateModel:
    _check_nonnegative("sigma", sigma)
    return make_custom([(alpha, 0.0), (beta, 1.0)], [(sigma * sigma, 2.0 * gamma)])


def make_custom(drift_terms, vol2_terms) -> ShortRateModel:
    """Build a model from raw (coeff, exponent) term lists or GenPolys; the one constructor.

    vol2 must be nonnegative on (0, 1]; this is enforced by sampling.
    """
    drift, vol2 = (t if isinstance(t, GenPoly) else gp.canonicalize(list(t))
                   for t in (drift_terms, vol2_terms))
    check_vol2_nonnegative(vol2)
    return ShortRateModel(drift, vol2)


_REQUIRED_KEYS = {
    "cir": ("alpha", "beta", "sigma"),
    "dothan": ("mu", "sigma2"),
    "ckls": ("alpha", "beta", "sigma", "gamma"),
    "custom": ("drift_terms", "vol2_terms"),
}


def _parse_value(key: str, value: str, lineno: int):
    """A *_terms value as a GenPoly, any other as a finite float."""
    if key.endswith("_terms"):
        try:
            return gp.from_text(value)
        except DomainError as exc:
            raise ConfigError(f"line {lineno}: bad {key}: {exc}") from None
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: value for {key!r} is not a number: {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"line {lineno}: value for {key!r} must be finite, got {value!r}")
    return x


def parse_model_text(text: str) -> ShortRateModel:
    """Parse a model config given as a string.  See the module docstring for the format."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)

    if "model" not in entries:
        raise ConfigError("missing required key 'model'")
    kind, model_line = entries.pop("model")
    if kind not in _REQUIRED_KEYS:
        raise ConfigError(
            f"line {model_line}: unknown model {kind!r}; expected one of cir, dothan, ckls, custom"
        )
    needed = _REQUIRED_KEYS[kind]
    for key in needed:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r} for model {kind!r}")
    for key in sorted(set(entries) - set(needed)):
        raise ConfigError(f"line {entries[key][1]}: unknown key {key!r} for model {kind!r}")

    v = {key: _parse_value(key, *entries[key]) for key in needed}
    try:
        if kind == "custom":
            return make_custom(v["drift_terms"], v["vol2_terms"])
        if kind == "dothan":
            return make_dothan_sigma2(v["mu"], v["sigma2"])
        return make_ckls(v["alpha"], v["beta"], v["sigma"], v.get("gamma", 0.5))
    except ValueError as exc:  # a sign, a term canonicalize refuses, or the vol2 check
        key = {"dothan": "sigma2", "custom": "vol2_terms"}.get(kind, "sigma")  # sets vol2
        raise ConfigError(f"line {entries[key][1]}: {exc}") from None


def parse_model_config(path) -> ShortRateModel:
    """Read and parse a model config file."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read model config {path}: {exc}") from None
    return parse_model_text(text)
