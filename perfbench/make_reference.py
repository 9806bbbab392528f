"""Write ``reference_seed0.json``: the seed-0 Ge-variant quantities every workload checks.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from run import ROOT, pin_threads


def main() -> int:
    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, workloads

    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0)
        try:
            workload.setup()
            _, outputs = workload.run_op()
            reference[name] = workload.quantities(outputs)
            problems = workload.check(outputs)
        finally:
            workload.close()
        if problems:
            print(f"{name}: refusing to store failing outputs: {problems}", file=sys.stderr)
            return 1
        print(f"{name}: {len(reference[name])} quantities")
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
