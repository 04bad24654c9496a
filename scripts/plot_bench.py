#!/usr/bin/env python3
"""Plot the CSV emitted by the hrsim bench binaries.

Every figure bench prints its series twice: an aligned text table and
long-format CSV (``title,series,x,y``). Pipe one or more bench outputs
through this script to get one matplotlib figure per title:

    ./build/bench/bench_fig14_compare_4flit | scripts/plot_bench.py
    cat bench_output.txt | scripts/plot_bench.py --out plots/

Matplotlib is required only by this script, not by the library.
"""

import argparse
import collections
import csv
import os
import re
import sys


def read_series(stream):
    """Parse ``title,series,x,y`` rows out of mixed bench output."""
    figures = collections.defaultdict(
        lambda: collections.defaultdict(list))
    reader = csv.reader(stream)
    for row in reader:
        if len(row) != 4 or row[0] == "title":
            continue
        title, series, x, y = row
        try:
            figures[title][series].append((float(x), float(y)))
        except ValueError:
            continue  # a table row that happened to contain commas
    return figures


def safe_name(title):
    return re.sub(r"[^A-Za-z0-9]+", "_", title).strip("_")[:80]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="plots",
                        help="output directory for PNGs")
    parser.add_argument("--logy", action="store_true",
                        help="log-scale the y axis")
    args = parser.parse_args()

    figures = read_series(sys.stdin)
    if not figures:
        print("no CSV series found on stdin", file=sys.stderr)
        return 1

    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    os.makedirs(args.out, exist_ok=True)
    for title, series in figures.items():
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for name, points in series.items():
            points.sort()
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            ax.plot(xs, ys, marker="o", markersize=3, label=name)
        ax.set_title(title, fontsize=9)
        ax.set_xlabel("nodes")
        ax.set_ylabel("value")
        if args.logy:
            ax.set_yscale("log")
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=7)
        path = os.path.join(args.out, safe_name(title) + ".png")
        fig.tight_layout()
        fig.savefig(path, dpi=130)
        plt.close(fig)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
