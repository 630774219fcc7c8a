"""Record ``reference.json``: the answer digest of every command any seed
can put into a workload, and the digest of every generated input file.

    python3 perfbench/record_reference.py

Run it only at a commit whose answers are known to be right; the gate
compares every later run with what it writes.  A command whose answer
contradicts the theory checks in ``gate.py`` is not recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads
from worker import run_pass


def main() -> int:
    run.check_source()
    commands = sorted({cmd for name in workloads.WORKLOADS
                       for cmd in workloads.every_command(name)})
    with tempfile.TemporaryDirectory(prefix=".record-", dir=run.HERE) as tmp:
        paths = workloads.write_inputs(workloads.file_inputs(commands),
                                       Path(tmp))
        inputs = {name: run.file_digest(p) for name, p in sorted(paths.items())}
        result = run_pass(commands, paths)
    bad = [it for it in result["items"] if it["problems"]]
    for item in bad:
        print(f"{item['key']}: {'; '.join(item['problems'])}", file=sys.stderr)
    if bad:
        return 1
    reference = {"inputs": inputs,
                 "commands": {it["key"]: it["digest"]
                              for it in result["items"]}}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    print(f"recorded {len(commands)} commands and {len(inputs)} inputs "
          f"in {result['pass_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
