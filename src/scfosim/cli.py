"""Command-line entry point.

    scfosim list-scenarios
    scfosim run NAME [--config F] [--out D]

``run`` merges the JSON object in F over the scenario's defaults, writes its
CSVs and summary.txt into D (default ./NAME) and prints the verdicts.  Exit
codes follow errors.py: 0 when the run completes, whatever its verdicts; 2
for usage errors, ConfigInvalid included; 1 for any other ScfoError.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigInvalid, ScfoError
from .scenarios import SCENARIOS, load_config, run_scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scfosim", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list-scenarios", help="print every scenario's name and description")
    run = commands.add_parser("run", help="run one scenario")
    run.add_argument("name")
    run.add_argument("--config", help="JSON file of config fields overriding the defaults")
    run.add_argument("--out", help="output directory (default: ./NAME)")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name, (_, description) in SCENARIOS.items():
            print(f"{name:22s} {description}")
        return 0
    try:
        cfg = load_config(args.config) if args.config else None
        result = run_scenario(args.name, cfg, out_dir=args.out)
    except ConfigInvalid as exc:
        print(f"scfosim: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ScfoError as exc:
        print(f"scfosim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    result["summary"].print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
