"""Record reference.json: the inputs and coverage values of the first
REFERENCE_CALLS command calls of each workload at the default seed.

    python3 perfbench/record_reference.py

Run it only on a commit whose output is trusted; every later run at the
default seed is checked against what it writes.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

REFERENCE_CALLS = 24


def main() -> int:
    cli = run.import_cli()
    references = {}
    for name, (make_call, family) in workloads.WORKLOADS.items():
        if family != name:
            continue
        runner = run.Runner(cli, name, workloads.DEFAULT_SEED, False, [])
        entries = []
        for index in range(REFERENCE_CALLS):
            *_, ok = runner.call(index)
            if not ok:
                print(f"{name}: call {index} failed its checks", file=sys.stderr)
                return 1
            call = make_call(workloads.DEFAULT_SEED, index, False)
            entries.append(workloads.reference_entry(call, runner.last_rows))
        references[family] = entries
        print(f"{family}: {len(entries)} calls recorded")
    run.REFERENCE_FILE.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
