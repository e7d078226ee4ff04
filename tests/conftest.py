import functools
import itertools
import math

import pytest

from bondtaylor import genpoly as gp
from bondtaylor.model import (CIRParams, DothanParams, make_cir, make_custom,
                              make_dothan)
from bondtaylor.tables import build_table

# benchmark parameter set used throughout the tests
ALPHA, BETA, SIGMA = 0.00315, -0.0555, 0.0894


@pytest.fixture
def cir_params():
    return CIRParams(alpha=ALPHA, beta=BETA, sigma=SIGMA)


@pytest.fixture
def cir_model(cir_params):
    return make_cir(cir_params)


@pytest.fixture
def dothan02_model():
    return make_dothan(DothanParams(mu=0.005, sigma=0.02 ** 0.5))


@pytest.fixture
def zero_model():
    return make_custom([], [])


@pytest.fixture
def random_model_factory():
    """Random polynomial models: drift degree <= 3, coefficients in [-1, 1],
    vol2 = q(r)^2 with q linear so nonnegativity holds by construction."""
    def make(rng):
        degree = rng.randint(0, 3)
        drift_terms = [(rng.uniform(-1.0, 1.0), float(k))
                       for k in range(degree + 1)]
        q = gp.canonicalize([(rng.uniform(-1.0, 1.0), 0.0),
                             (rng.uniform(-1.0, 1.0), 1.0)])
        vol2 = gp.mul(q, q)
        return make_custom(drift_terms, vol2)
    return make


@pytest.fixture(scope="session")
def built_table():
    """build_table, building each table once per session; reports are frozen
    records of frozen cells, so tests can share them."""
    return functools.cache(build_table)


@pytest.fixture
def nan_at_step(monkeypatch):
    """nan_at_step(k, value) makes the k-th dgttrs solve of the FD march return
    a profile with value (NaN by default, or an inf) at its middle node, as a
    march that overflows would; one bad node is all the step check may need."""
    def install(k, value=math.nan):
        from bondtaylor import fdsolver
        solve = fdsolver.lapack.dgttrs
        calls = itertools.count(1)

        def faked(*args):
            x, info = solve(*args)
            if next(calls) == k:
                x[len(x) // 2] = value
            return x, info
        monkeypatch.setattr(fdsolver.lapack, "dgttrs", faked)
    return install
