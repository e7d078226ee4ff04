#!/usr/bin/env python3
"""Print the order-30 partial sums of every shipped config as float hex.

    python3 scripts/hex_sweep.py > sweep.txt

One line per config in configs/, target (price, then log), rate and maturity:
the order-30 sum of partial_sums as float.hex, or the message of the
DomainError that refuses it.  That is 7 configs x 2 targets x 11 rates x 5
maturities = 770 lines, in a fixed order, so the sweeps of two source trees
compare with diff: a change that keeps every bit prints the same file.  The
rates -1e200, -0.01, 0.0 and 1e200 pin which refusal comes first where a rate
is nonpositive or a value overflows.
"""

from pathlib import Path

from bondtaylor import DomainError, log_coeffs, parse_model_config, partial_sums, price_coeffs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ORDER = 30
RATES = (-1e200, -0.01, 0.0, 0.00041, 0.005, 0.01, 0.035, 0.05, 0.2, 3.0, 1e200)
TAUS = (0.0, 0.25, 1.0, 3.0, 10.0)


def main() -> int:
    for path in sorted(CONFIGS.glob("*.cfg")):
        model = parse_model_config(path)
        for target, build in (("price", price_coeffs), ("log", log_coeffs)):
            series = build(model, ORDER)
            for r in RATES:
                for tau in TAUS:
                    try:
                        value = partial_sums(series, tau, r)[-1].hex()
                    except DomainError as exc:
                        value = f"DomainError: {exc}"
                    print(f"{path.name} {target} r={r!r} tau={tau!r} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
