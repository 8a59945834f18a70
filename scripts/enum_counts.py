"""Count the enumeration work of one benchmark pass.

    python3 scripts/enum_counts.py --workload sem-enum --seed 1

Run it from the root of a vlang source tree.  It builds the workload's
operations with `perfbench/workloads.py`, runs one pass of them through
`vlang.cli.main` in this process, and prints one JSON object with four
counts: the preorders `_preorders` returns (`preorders`), the frames
`enumerate_systems` offers its frame filter (`offered`), the frames the
filter accepts (`accepted`), and the `first_system` calls that built no
preorder list (`least`; 0 on a tree without `first_system`).  Since
`first_system` asks `enumerate_systems` for its answer, which offers each
universe's least frame before it builds preorders, the frames behind `least`
count in `offered` and `accepted` too.
The counts depend only on the source tree, the workload and the seed, not on
the machine.  `enumerate_systems` is wrapped in each of `sysmodel`,
`semantics` and `analysis` that has it, and `first_system` in each that has
it.  The wrappers take the filter as the third positional argument of
`enumerate_systems` and pass every other argument through, so the script
counts trees whose enumerator takes the query's `Demands`
(`enumerate_systems(bounds, demands, valid)`) as well as older trees whose
enumerator takes the required classes, with or without loose pair bounds
after the filter.
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
    from vlang import analysis, cli, semantics, sysmodel

    counts = {"preorders": 0, "offered": 0, "accepted": 0, "least": 0}
    preorders = sysmodel._preorders
    builds = [0]

    def counted_preorders(*a, **kw):
        relations = preorders(*a, **kw)
        counts["preorders"] += len(relations)
        builds[0] += 1
        return relations

    def counted_enumerator(enumerate_systems):
        def enumerate_counted(bounds, query, valid, *rest, **kw):
            def counted(frame):
                counts["offered"] += 1
                ok = valid(frame)
                counts["accepted"] += bool(ok)
                return ok

            return enumerate_systems(bounds, query, counted, *rest, **kw)

        return enumerate_counted

    def counted_first(first_system):
        def first_counted(*a, **kw):
            before = builds[0]
            first = first_system(*a, **kw)
            counts["least"] += builds[0] == before
            return first

        return first_counted

    sysmodel._preorders = counted_preorders
    for module in (sysmodel, semantics, analysis):
        if hasattr(module, "enumerate_systems"):
            module.enumerate_systems = counted_enumerator(module.enumerate_systems)
        if hasattr(module, "first_system"):
            module.first_system = counted_first(module.first_system)

    with tempfile.TemporaryDirectory() as work:
        workload = workloads.build(args.workload, args.seed, work)
        workload.write(root)
        for op in workload.ops:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    cli.main(list(op.argv))
                except SystemExit:
                    pass
    print(json.dumps({"workload": args.workload, "seed": args.seed, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
