#!/usr/bin/env python3
"""Print the spectral thresholds that force matching structure, per order n.

Columns: the fractional-perfect-matching threshold, the perfect-matching
threshold (even n), and the extremal-family value they both come from.
"""

from __future__ import annotations

import argparse

from specmatch import predict, spectral_radius, theta_n
from specmatch.certify import fpm_threshold, pm_threshold


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=24)
    args = parser.parse_args()

    print(f"{'n':>4} {'fpm threshold':>16} {'pm threshold':>16} {'rho of extremal':>16}")
    for n in range(3, args.n_max + 1):
        fpm = fpm_threshold(n)
        pm = pm_threshold(n)
        # t32's class 2*beta_star = n - 1: in its hub regime the witness is
        # K_1 v (K_{n-3} u 2K_1), whose rho is theta(n)
        pred = predict("t32", n, n - 1)
        hub = pred.regime == "ii"
        rho = spectral_radius(pred.extremal_graphs[0]).value if hub else fpm
        pm_text = f"{pm:16.10f}" if pm is not None else " " * 16
        print(f"{n:>4} {fpm:16.10f} {pm_text} {rho:16.10f}")
        if hub:
            assert abs(rho - theta_n(n)) < 1e-8


if __name__ == "__main__":
    main()
