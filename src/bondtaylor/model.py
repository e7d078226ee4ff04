"""Short-rate model descriptions.

A model is the pair of coefficient functions of the pricing equation: the
drift mu(r) and the squared volatility vol2(r) = sigma(r)^2, both stored as
GenPoly.  Only vol2 is ever kept; no operation needs sigma itself, and storing
the square keeps constant-elasticity exponents exact (2*gamma instead of a
rounded sqrt round trip).

Presets, all CKLS models (Chan, Karolyi, Longstaff & Sanders, J. Finance 47,
1992) built by one constructor:
    cir     mu = alpha + beta*r   vol2 = sigma^2 * r            gamma = 1/2
    dothan  mu = mu_d * r         vol2 = sigma^2 * r^2          alpha = 0, gamma = 1
    ckls    mu = alpha + beta*r   vol2 = sigma^2 * r^(2*gamma)
make_dothan_sigma2 builds Dothan from sigma^2 itself, as the config key sigma2
does and the Dothan tables do.

vol2 must be nonnegative wherever the model is used.  check_vol2_nonnegative
samples (0, 1] when a custom model is built, and check_vol2_at is the
rule at one rate: the series apply it to every rate they are evaluated at.

Config files are line-based "key = value" with '#' comments, e.g.

    model = cir
    alpha = 0.00315
    beta = -0.0555
    sigma = 0.0894

Custom models give term lists in the GenPoly text format:

    model = custom
    drift_terms = 0.00315:0, -0.0555:1
    vol2_terms = 0.00799236:1
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


# a NamedTuple body cannot define __new__, so the sigma check sits in a subclass;
# _make, which _replace calls, would skip it by calling tuple.__new__
class CIRParams(NamedTuple("CIRParams", [("alpha", float), ("beta", float), ("sigma", float)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, alpha: float, beta: float, sigma: float):
        _check_nonnegative("sigma", sigma)
        return super().__new__(cls, alpha, beta, sigma)


class DothanParams(NamedTuple("DothanParams", [("mu", float), ("sigma", float)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, mu: float, sigma: float):
        _check_nonnegative("sigma", sigma)
        return super().__new__(cls, mu, sigma)


class ShortRateModel(NamedTuple):
    drift: GenPoly
    vol2: GenPoly


def check_vol2_at(vol2: GenPoly, r: float) -> None:
    """Reject the rate r if vol2(r) is negative (beyond float noise)."""
    if gp.evaluate(vol2, r) < _VOL2_SLACK:
        raise DomainError(f"vol2 is negative at r={r:.6g}")


def check_vol2_nonnegative(vol2: GenPoly) -> None:
    """Sample vol2 on (0, 1] and reject if any value is negative."""
    if all(c >= 0.0 and p >= 0.0 for c, p in vol2.terms):
        try:  # nondecreasing on (0, 1], so all samples pass if the last does
            gp.evaluate(vol2, 1.0)
            return
        except DomainError:
            pass  # it overflows: the loop names the first sample that does
    for i in range(1, _VOL2_SAMPLES + 1):
        check_vol2_at(vol2, i / _VOL2_SAMPLES)


def _ckls(alpha: float, beta: float, s2: float, q: float) -> ShortRateModel:
    """drift = alpha + beta*r and vol2 = s2 * r^q (q = 2*gamma)."""
    drift = gp.canonicalize([(alpha, 0.0), (beta, 1.0)])
    vol2 = gp.canonicalize([(s2, q)])
    return ShortRateModel(drift, vol2)


def make_cir(p: CIRParams) -> ShortRateModel:
    return _ckls(p.alpha, p.beta, p.sigma * p.sigma, 1.0)


def make_dothan(p: DothanParams) -> ShortRateModel:
    return make_dothan_sigma2(p.mu, p.sigma * p.sigma)


def make_dothan_sigma2(mu: float, sigma2: float) -> ShortRateModel:
    """Dothan from sigma^2 itself, so sigma2 = 0.01 gives vol2 exactly 0.01 r^2
    (sqrt(0.01)^2 is 0.010000000000000002)."""
    _check_nonnegative("sigma2", sigma2)
    return _ckls(0.0, mu, sigma2, 2.0)


def make_ckls(alpha: float, beta: float, sigma: float, gamma: float) -> ShortRateModel:
    _check_nonnegative("sigma", sigma)
    return _ckls(alpha, beta, sigma * sigma, 2.0 * gamma)


def make_custom(drift_terms, vol2_terms) -> ShortRateModel:
    """Build a model from raw (coeff, exponent) term lists.

    vol2 must be nonnegative on (0, 1]; this is enforced by sampling.
    """
    drift = gp.canonicalize(list(drift_terms))
    vol2 = gp.canonicalize(list(vol2_terms))
    check_vol2_nonnegative(vol2)
    return ShortRateModel(drift, vol2)


_REQUIRED_KEYS = {
    "cir": ("alpha", "beta", "sigma"),
    "dothan": ("mu", "sigma2"),
    "ckls": ("alpha", "beta", "sigma", "gamma"),
    "custom": ("drift_terms", "vol2_terms"),
}


def _parse_float(key: str, value: str, lineno: int) -> float:
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

    if kind != "custom":
        v = {key: _parse_float(key, *entries[key]) for key in needed}
        for key in ("sigma", "sigma2"):
            if key in v and v[key] < 0.0:
                raise ConfigError(f"line {entries[key][1]}: {key} must be nonnegative")
        if kind == "cir":
            return make_cir(CIRParams(v["alpha"], v["beta"], v["sigma"]))
        if kind == "dothan":
            return make_dothan_sigma2(v["mu"], v["sigma2"])
        return make_ckls(v["alpha"], v["beta"], v["sigma"], v["gamma"])

    # custom
    def _terms(key: str) -> GenPoly:
        value, lineno = entries[key]
        try:
            return gp.from_text(value)
        except DomainError as exc:
            raise ConfigError(f"line {lineno}: bad {key}: {exc}") from None

    drift, vol2 = _terms("drift_terms"), _terms("vol2_terms")
    try:  # canonical terms canonicalize to themselves
        return make_custom(drift.terms, vol2.terms)
    except DomainError as exc:  # vol2 fails its check on (0, 1]
        raise ConfigError(f"line {entries['vol2_terms'][1]}: {exc}") from None


def parse_model_config(path) -> ShortRateModel:
    """Read and parse a model config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read model config {path}: {exc}") from None
    return parse_model_text(text)
