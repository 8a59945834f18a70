"""Count the enumeration work of one benchmark pass.

    python3 scripts/enum_counts.py --workload sem-enum --seed 1

Run it from the root of a vlang source tree.  It builds the workload's
operations with `perfbench/workloads.py`, zeroes `vlang.sysmodel.COUNTS`,
runs one pass of the operations through `vlang.cli.main` in this process,
and prints the record as one JSON object: the preorders `_preorders` returns
(`preorders`), the frames `enumerate_systems` offers its frame filter
(`offered`), the frames the filter accepts (`accepted`), and the
`first_system` calls that built no preorder list (`least`).  Since
`first_system` asks `enumerate_systems` for its answer, which offers each
universe's least frame before it builds preorders, the frames behind `least`
count in `offered` and `accepted` too.  The counts depend only on the source
tree, the workload and the seed, not on the machine.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from vlang import cli, sysmodel

    with tempfile.TemporaryDirectory() as work:
        workload = workloads.build(args.workload, args.seed, work)
        workload.write(root)
        sysmodel.COUNTS.update(dict.fromkeys(sysmodel.COUNTS, 0))
        for op in workload.ops:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    cli.main(list(op.argv))
                except SystemExit:
                    pass
    print(json.dumps({"workload": args.workload, "seed": args.seed, **sysmodel.COUNTS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
