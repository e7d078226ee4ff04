"""The nine records of bondtaylor are plain NamedTuples and keep
what frozen dataclasses gave them: fields cannot be assigned, equal fields
compare and hash equal, and repr, field names, order and defaults read as they
always have, GenPoly's with the den its exact exponents added.  Each also compares equal to the plain tuple of its fields, but
FDSolution, which holds arrays, is only checked for assignment.  No record
checks its fields: CIRParams and DothanParams store any sigma, and the model
constructors and the closed form, which use it, refuse a negative or NaN one;
an FDGrid is checked by the solve that marches it."""

import math
import pickle
import re

import pytest

import numpy as np

from bondtaylor.closedform import cir_exact_log_price, cir_exact_price, cir_exact_yield
from bondtaylor.fdsolver import FDGrid, FDSolution
from bondtaylor.genpoly import GenPoly
from bondtaylor.model import CIRParams, DothanParams, ShortRateModel, make_cir, make_dothan
from bondtaylor.series import TaylorSeries, partial_sums
from bondtaylor.tables import TableCell, TableReport

_POLY = ((0.5, 0), (-1.0, 1))
_MODEL_REPR = ("ShortRateModel(drift=GenPoly(terms=((0.00315, 0), (-0.0555, 1)), den=1), "
               "vol2=GenPoly(terms=((0.007992359999999999, 1),), den=1))")


def _model():
    return ShortRateModel(GenPoly(((0.00315, 0), (-0.0555, 1))),
                          GenPoly(((0.007992359999999999, 1),)))


def _cell():
    return TableCell("tau=1", "exact", 0.951115, 0.951115, 5e-07)


# name -> (build a fresh sample, a field to assign, the sample's repr)
RECORDS = {
    "GenPoly": (lambda: GenPoly(_POLY, 2), "den",
                "GenPoly(terms=((0.5, 0), (-1.0, 1)), den=2)"),
    "CIRParams": (lambda: CIRParams(0.00315, -0.0555, 0.0894), "sigma",
                  "CIRParams(alpha=0.00315, beta=-0.0555, sigma=0.0894)"),
    "DothanParams": (lambda: DothanParams(mu=0.005, sigma=0.1), "mu",
                     "DothanParams(mu=0.005, sigma=0.1)"),
    "FDGrid": (lambda: FDGrid(0.5, 8, 2), "n_t", "FDGrid(r_max=0.5, n_r=8, n_t=2)"),
    "ShortRateModel": (_model, "vol2", _MODEL_REPR),
    "TaylorSeries": (lambda: TaylorSeries((GenPoly(((1.0, 0),)), GenPoly(((-1.0, 1),))),
                                          _model()),
                     "coeffs",
                     "TaylorSeries(coeffs=(GenPoly(terms=((1.0, 0),), den=1), "
                     f"GenPoly(terms=((-1.0, 1),), den=1)), model={_MODEL_REPR})"),
    "TableCell": (_cell, "computed",
                  "TableCell(row='tau=1', column='exact', computed=0.951115, "
                  "reference=0.951115, tolerance=5e-07, note='')"),
    "TableReport": (lambda: TableReport("cir-price", 6, (_cell(),)), "cells",
                    "TableReport(table_id='cir-price', decimals=6, cells=(TableCell("
                    "row='tau=1', column='exact', computed=0.951115, reference=0.951115, "
                    "tolerance=5e-07, note=''),))"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    build, field, _ = RECORDS[name]
    rec = build()
    before = getattr(rec, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
    assert getattr(rec, field) is before


def test_fd_solution_fields_cannot_be_assigned():
    sol = FDSolution(FDGrid(0.5, 8, 2), 1.0, np.ones(9), np.zeros(9))
    for attr in (*FDSolution._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(sol, attr, None)
    assert sol.tau_final == 1.0 and np.array_equal(sol.values, np.ones(9))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_compare_and_hash_equal(name):
    build, _, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a == tuple(a) and hash(a) == hash(tuple(a))
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_reads_as_before(name):
    build, _, text = RECORDS[name]
    assert repr(build()) == text


def test_defaults_and_truth_value():
    assert repr(GenPoly()) == "GenPoly(terms=(), den=1)"
    assert not GenPoly() and GenPoly(_POLY)
    assert TableCell("r", "c", 1.0, None, 0.5).note == ""


def test_series_cache_stays_out_of_equality_and_cannot_be_deleted():
    s, fresh = RECORDS["TaylorSeries"][0](), RECORDS["TaylorSeries"][0]()
    pickled = pickle.dumps(s)
    partial_sums(s, 1.0, 0.05)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert pickle.dumps(s) == pickled == pickle.dumps(fresh)
    with pytest.raises(AttributeError):
        del s.coeffs
    assert s != TaylorSeries(s.coeffs[:1], s.model)


# what uses a record's sigma, for each record
USES_SIGMA = {
    CIRParams: (make_cir, lambda p: cir_exact_log_price(p, 1.0, 0.05),
                lambda p: cir_exact_price(p, 1.0, 0.05), lambda p: cir_exact_yield(p, 1.0, 0.05)),
    DothanParams: (make_dothan,),
}


@pytest.mark.parametrize("sigma", [-0.01, math.nan])
@pytest.mark.parametrize("build", [lambda x: CIRParams(alpha=0.1, beta=0.0, sigma=x),
                                   lambda x: DothanParams(mu=0.005, sigma=x),
                                   lambda x: CIRParams(0.1, 0.0, 0.1)._replace(sigma=x),
                                   lambda x: DothanParams(0.005, 0.1)._replace(sigma=x)])
def test_params_sigma_is_checked_where_used_however_built(build, sigma):
    p = build(sigma)
    assert p.sigma is sigma  # stored as given
    message = f"sigma must be nonnegative, got {sigma}"
    for use in USES_SIGMA[type(p)]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            use(p)
