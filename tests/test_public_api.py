"""The public surface of the package, listed in full: a name added to or taken
out of `bondtaylor.__all__`, a field added to or taken out of a public record,
or an option added to or taken out of a CLI subcommand, fails here until these
lists say so."""

import argparse
import inspect

import bondtaylor
from bondtaylor import cli

PUBLIC = [
    "CIRParams", "ConfigError", "DomainError", "DothanParams", "FDGrid",
    "FDSolution", "GenPoly", "MAX_ORDER", "ShortRateModel", "TABLE_IDS",
    "TableCell", "TableReport", "TaylorSeries", "build_table",
    "cir_exact_log_price", "cir_exact_price", "cir_exact_yield",
    "default_grid", "evaluate", "fd_error_at", "fd_price_at", "fd_solve",
    "fd_solve_path", "from_text", "log_coeffs", "make_cir", "make_ckls",
    "make_custom", "make_dothan", "parse_model_config", "parse_model_text",
    "partial_sums", "price_coeffs", "to_text", "yield_from_price",
]

# each public record's fields, the arguments its constructor takes, in order
RECORD_FIELDS = {
    "CIRParams": ["alpha", "beta", "sigma"],
    "DothanParams": ["mu", "sigma"],
    "FDGrid": ["r_max", "n_r", "n_t"],
    "FDSolution": ["grid", "tau_final", "values", "error"],
    "GenPoly": ["terms", "den"],
    "ShortRateModel": ["drift", "vol2"],
    "TableCell": ["row", "column", "computed", "reference", "tolerance", "note"],
    "TableReport": ["table_id", "decimals", "cells"],
    "TaylorSeries": ["coeffs", "model"],
}

# each subcommand's option strings, -h/--help aside
CLI_OPTIONS = {
    "coeffs": ["--format", "--model", "--order", "--target"],
    "price": ["--converge", "--format", "--model", "--order", "--r", "--target",
              "--tau", "--taus"],
    "yield": ["--format", "--from-price", "--model", "--order", "--r", "--taus"],
    "exact-cir": ["--alpha", "--beta", "--format", "--r", "--sigma", "--tau"],
    "fd": ["--format", "--model", "--r", "--tau"],
    "table": ["--format", "--id"],
}


def test_public_names():
    assert len(PUBLIC) == 35
    assert sorted(bondtaylor.__all__) == PUBLIC


def test_record_fields():
    fields = {name: list(inspect.signature(getattr(bondtaylor, name)).parameters)
              for name in RECORD_FIELDS}
    assert fields == RECORD_FIELDS


def test_cli_options():
    sub, = (action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    options = {command: sorted(flag for action in parser._actions
                               for flag in action.option_strings
                               if flag not in ("-h", "--help"))
               for command, parser in sub.choices.items()}
    assert options == CLI_OPTIONS
