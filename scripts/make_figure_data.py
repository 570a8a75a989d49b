#!/usr/bin/env python3
"""Write the two standard CSV data sets for plotting.

Drives the package CLI so the files are byte-identical to what
`epp-lab vidal-curve` and `epp-lab f-grid` would produce:

  <out-dir>/vidal_curve.csv   conversion probabilities over lambda
  <out-dir>/f_grid.csv        validity, asymmetry f and physicality over (|a|, |b|)

Plot with gnuplot, e.g.:
  gnuplot -e "set datafile separator ','; plot 'vidal_curve.csv' skip 1 u 1:2 w l, '' skip 1 u 1:3 w l"
"""
import argparse
from pathlib import Path

from epp_lab.cli import main as epp_lab_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="data", help="output directory")
    parser.add_argument("--curve-grid", type=int, default=400,
                        help="interior lambda points for the conversion curve")
    parser.add_argument("--f-grid", type=int, default=201,
                        help="points per axis for the parameter grid")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    curve_path = out_dir / "vidal_curve.csv"
    grid_path = out_dir / "f_grid.csv"
    rc = epp_lab_main(["vidal-curve", "--grid", str(args.curve_grid),
                       "--out", str(curve_path)])
    rc |= epp_lab_main(["f-grid", "--grid", str(args.f_grid),
                        "--out", str(grid_path)])
    print(f"wrote {curve_path} and {grid_path}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
