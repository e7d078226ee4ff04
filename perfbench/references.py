"""Reference values the benchmark checks bondtaylor against.

Nothing here imports bondtaylor.  The references are:

* the CIR closed form (Cox, Ingersoll & Ross 1985) and the Vasicek closed
  form (Vasicek 1977), written from the textbook formulas;
* a second implementation of the bond-price Taylor series.  bondtaylor keeps
  each coefficient as a sorted list of float exponents merged within a
  tolerance; here the model is restricted to drift a0 + a1 r and squared
  volatility s2 r^q, so every exponent that can occur is i + j (q - 2) for
  integers i, j, and each coefficient is a dense numpy array indexed by
  (i, j).  Nothing is merged or sorted, so the two codes share no arithmetic
  beyond the recursion itself;
* the hand-derived low-order coefficients of the price and log-price
  series;
* the values printed in the source paper for the CIR benchmark and the
  Dothan grid.
"""

from __future__ import annotations

import math

import numpy as np

# --- values printed in the paper -------------------------------------------

PAPER_CIR = (0.00315, -0.0555, 0.0894)  # alpha, beta, sigma
PAPER_CIR_R = 0.05
PAPER_CIR_TAUS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
PAPER_CIR_PRICE = (0.987567, 0.975273, 0.963120, 0.951115, 0.927559,
                   0.904626, 0.882334, 0.860691, 0.819367, 0.780631)
PAPER_CIR_YIELD_PCT = (5.00425, 5.00766, 5.01024, 5.01202, 5.01328,
                       5.01167, 5.00739, 5.00065, 4.98059, 4.95306)
# partial sums J = 0..7 at tau = 1, r = 0.05
PAPER_CIR_CONVERGE_PRICE = (1.000000, 0.950000, 0.951062, 0.951121,
                            0.951115, 0.951115, 0.951115, 0.951115)
PAPER_CIR_CONVERGE_LOG = (0.000000, -0.050000, -0.050188, -0.050117,
                          -0.050120, -0.050120, -0.050120, -0.050120)

# Dothan, mu = 0.005, r = 0.035: exact prices x 100 printed to 4 decimals
PAPER_DOTHAN_MU = 0.005
PAPER_DOTHAN_R = 0.035
PAPER_DOTHAN_GRID_TAUS = (1.0, 2.0, 3.0)
PAPER_DOTHAN_GRID = {
    0.01: (96.5523, 93.2082, 89.9663),
    0.02: (96.5525, 93.2098, 89.9715),
    0.03: (96.5527, 93.2113, 89.9767),
}
# half a unit of the fourth printed decimal of price x 100
PAPER_DOTHAN_PRICE_TOL = 5e-7


# --- closed forms -------------------------------------------------------------

def cir_log_price(alpha: float, beta: float, sigma: float, tau: float, r: float) -> float:
    """ln P for dr = (alpha + beta r) dt + sigma sqrt(r) dW, sigma > 0."""
    if tau == 0.0:
        return 0.0
    psi = math.sqrt(beta * beta + 2.0 * sigma * sigma)
    growth = math.expm1(psi * tau)
    den = (psi - beta) * growth + 2.0 * psi
    b = 2.0 * growth / den
    log_a = (2.0 * alpha / (sigma * sigma)) * (
        math.log(2.0 * psi / den) + 0.5 * (psi - beta) * tau)
    return log_a - b * r


def cir_price(alpha: float, beta: float, sigma: float, tau: float, r: float) -> float:
    return math.exp(cir_log_price(alpha, beta, sigma, tau, r))


def vasicek_log_price(a0: float, a1: float, s2: float, tau: float, r: float) -> float:
    """ln P for dr = (a0 + a1 r) dt + sqrt(s2) dW with a1 < 0.

    With kappa = -a1 and theta = a0 / kappa:
    B = (1 - e^{-kappa tau}) / kappa,
    ln A = (theta - s2 / (2 kappa^2)) (B - tau) - s2 B^2 / (4 kappa).
    """
    kappa = -a1
    theta = a0 / kappa
    b = -math.expm1(-kappa * tau) / kappa
    log_a = (theta - s2 / (2.0 * kappa * kappa)) * (b - tau) - s2 * b * b / (4.0 * kappa)
    return log_a - b * r


def vasicek_price(a0: float, a1: float, s2: float, tau: float, r: float) -> float:
    return math.exp(vasicek_log_price(a0, a1, s2, tau, r))


# --- hand-derived low-order coefficients -------------------------------------
# mu = a0 + a1 r is the drift and s2 the squared volatility, both at r.

def price_c1(r: float) -> float:
    return -r


def price_c2(r: float, mu: float) -> float:
    return 0.5 * (r * r - mu)


def log_f1(r: float) -> float:
    return -r


def log_f2(mu: float) -> float:
    return -0.5 * mu


def log_f3(mu: float, dmu: float, s2: float) -> float:
    """Valid for linear drift, where mu'' = 0."""
    return (s2 - mu * dmu) / 6.0


# --- the price series on an exponent lattice ---------------------------------

class LatticeSeries:
    """Price series sum_k c_k(r) tau^k for drift a0 + a1 r, vol2 s2 r^q.

    c_k is the array C[k, i + N, j] of coefficients of r^(i + j (q - 2)),
    with -N <= i <= N and 0 <= j <= N.  The recursion is

        c_{k+1} = (mu c_k' + s2/2 r^q c_k'' - r c_k) / (k + 1),  c_0 = 1,

    and on a monomial r^p: a0 p r^(p-1) shifts i down, a1 p r^p stays,
    s2/2 p (p-1) r^(p+q-2) shifts j up and -r^(p+1) shifts i up.
    """

    def __init__(self, a0: float, a1: float, s2: float, q: float, order: int):
        n = order
        self.order = order
        self.delta = q - 2.0
        i = np.arange(-n, n + 1, dtype=float)[:, None]
        j = np.arange(0, n + 1, dtype=float)[None, :]
        p = i + j * self.delta
        c = np.zeros((2 * n + 1, n + 1))
        c[n, 0] = 1.0
        coeffs = [c]
        for k in range(n):
            nxt = np.zeros_like(c)
            pc = p * c
            nxt[:-1, :] += a0 * pc[1:, :]
            nxt += a1 * pc
            nxt[:, 1:] += 0.5 * s2 * ((p - 1.0) * pc)[:, :-1]
            nxt[1:, :] -= c[:-1, :]
            c = nxt / (k + 1)
            coeffs.append(c)
        self.coeffs = np.stack(coeffs)

    def coeff_values(self, rs) -> np.ndarray:
        """V[k, m] = c_k(rs[m]); every rs[m] must be positive."""
        rs = np.asarray(rs, dtype=float)
        n = self.order
        pow_i = rs[None, :] ** np.arange(-n, n + 1, dtype=float)[:, None]
        pow_j = (rs ** self.delta)[None, :] ** np.arange(0, n + 1, dtype=float)[:, None]
        t = np.tensordot(self.coeffs, pow_i, axes=([1], [0]))  # (k, j, m)
        return np.einsum("kjm,jm->km", t, pow_j)

    def prices(self, taus, rs) -> np.ndarray:
        """P[a, m] at (taus[a], rs[m]), with the size of the last two terms.

        Raises ValueError if the series has not converged to 1e-12 there,
        which means the benchmark drew a point outside its stated range.
        """
        vals = self.coeff_values(rs)
        taus = np.asarray(taus, dtype=float)
        powers = taus[:, None] ** np.arange(self.order + 1, dtype=float)[None, :]
        terms = powers[:, :, None] * vals[None, :, :]  # (a, k, m)
        tail = np.abs(terms[:, -2:, :]).max()
        if not tail < 1e-12:
            raise ValueError(f"reference series of order {self.order} has not "
                             f"converged: last terms reach {tail:.2e}")
        return terms.sum(axis=1)


def parse_poly(text: str) -> list[tuple[float, float]]:
    """Terms of bondtaylor's 'c1:p1, c2:p2' text, or [] for '0'."""
    text = text.strip()
    if text == "0":
        return []
    out = []
    for piece in text.split(","):
        coeff, power = piece.split(":")
        out.append((float(coeff), float(power)))
    return out


def eval_poly(terms, r: float) -> float:
    return sum(c * r ** p for c, p in terms)
