"""The public names of the package, listed in full: a name added to or taken
out of `bondtaylor.__all__` fails here until this list says so."""

import bondtaylor

PUBLIC = [
    "CIRParams", "ConfigError", "DomainError", "DothanParams", "FDGrid",
    "FDSolution", "GenPoly", "LOGPRICE", "MAX_ORDER", "PRICE",
    "ShortRateModel", "TABLE_IDS", "TableCell", "TableReport",
    "TaylorSeries", "TermLimitError", "build_table", "cir_exact_log_price",
    "cir_exact_price", "cir_exact_yield", "default_grid", "evaluate",
    "fd_price_at", "fd_solve", "fd_solve_path", "from_text", "log_coeffs",
    "make_cir", "make_ckls", "make_custom", "make_dothan",
    "parse_model_config", "parse_model_text", "partial_sums",
    "price_coeffs", "to_text", "yield_from_price",
]


def test_public_names():
    assert len(PUBLIC) == 37
    assert sorted(bondtaylor.__all__) == PUBLIC
