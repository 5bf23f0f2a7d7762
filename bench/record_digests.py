"""Record results.csv digests for the sweep workloads' output gate.

    python3 bench/record_digests.py .bench_work/sweep_serial-*/report.json

Adds, from each given benchmark report, the sha256 of results.csv of every
sweep command that passed, keyed by its RESULTS_VERSION and program seed, to
bench/digests.json. Record only from runs of a commit whose results are
known good; later commits then fail the gate on any change to results.csv
that does not bump RESULTS_VERSION.
"""

import json
import sys

import run


def main(paths) -> int:
    table = run.recorded_digests()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        for command in report["commands"]:
            if command["results_version"] and not command["failure"]:
                seeds = table.setdefault(command["results_version"], {})
                known = seeds.setdefault(str(command["program_seed"]), command["digest"])
                if known != command["digest"]:
                    print(f"error: {path}: two digests for program seed "
                          f"{command['program_seed']}", file=sys.stderr)
                    return 1
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
