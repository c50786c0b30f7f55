"""Profile r -> f_r for every catalog knot model and optionally dump CSVs.

Usage:
    python3 scripts/profile_catalog.py [--samples 1/8..1:8] [--out DIR]
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from concordia import catalog
from concordia.cli import _parse_samples
from concordia.errors import UnknownKnot
from concordia.invariants import f_profile


@dataclass
class Config:
    samples: list
    out_dir: Path = None
    depth: int = 6


def run(cfg: Config) -> int:
    for name in catalog.names():
        try:
            model = catalog.get_model(name)
        except UnknownKnot:
            continue  # data-only entry
        report = f_profile(model, cfg.samples, depth=cfg.depth)
        print(f"== {name} ==")
        print(report.render())
        print()
        if cfg.out_dir is not None:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
            path = cfg.out_dir / f"{name}.csv"
            path.write_text(report.csv(), encoding="utf-8")
            print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", default="1/8..1:8",
                    help="comma list of rationals or lo..hi[:steps]")
    ap.add_argument("--out", help="directory for per-knot CSV files")
    ap.add_argument("--depth", type=int, default=6)
    args = ap.parse_args(argv)
    cfg = Config(
        samples=_parse_samples(args.samples),
        out_dir=Path(args.out) if args.out else None,
        depth=args.depth,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
