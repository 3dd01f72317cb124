"""Record the expected verdict tables in perfbench/expected/.

    python3 perfbench/record_expected.py [workload ...]

Runs one pass of each workload for every seed slot and stores, per CLI
call, the (instance digest prefix, status pattern) of every instance. A
status pattern is one letter per record name (p pass, f fail, s skip), in
the sorted order of `record_names`. Only rerun this on the commit whose
verdicts define the baseline: the benchmark counts every instance whose
verdicts differ from these tables as failed.
"""

from __future__ import annotations

import functools
import json
import shutil
import sys

from run import HERE, WORK, load_program, read_verdicts, run_cli, run_pass
from workloads import SEED_SLOTS, WORKLOADS


def record(cli, workload: str) -> dict:
    build = WORKLOADS[workload]
    work = WORK / workload
    names: list[str] | None = None
    patterns: list[str] = []
    slots = {}
    for slot in range(SEED_SLOTS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        calls = build(slot, work, functools.partial(run_cli, cli))
        entries = []
        for rc, report in run_pass(cli, calls, work, "x", False)["outcomes"]:
            if rc is None:
                raise RuntimeError(f"{workload} slot {slot}: a CLI call raised")
            call_entries = []
            for digest, statuses in sorted(read_verdicts(report).items()):
                if names is None:
                    names = sorted(statuses)
                if sorted(statuses) != names:
                    raise RuntimeError(f"{workload}: record names differ by instance")
                pattern = "".join(statuses[n] for n in names)
                if pattern not in patterns:
                    patterns.append(pattern)
                call_entries.append([digest, patterns.index(pattern)])
            entries.append(call_entries)
        slots[str(slot)] = entries
        print(f"{workload} slot {slot}: {sum(map(len, entries))} instances",
              file=sys.stderr)
    return {"workload": workload, "record_names": names, "patterns": patterns,
            "slots": slots}


def main() -> int:
    cli = load_program()
    for workload in sys.argv[1:] or list(WORKLOADS):
        table = record(cli, workload)
        path = HERE / "expected" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
