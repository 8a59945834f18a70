"""Time the scanner, the four parse entry points, the context conditions and
the two engine entries of one benchmark pass.

    python3 scripts/layer_us.py --workload frontend --seed 71 --batches 15

Run it from the root of a vlang source tree; it imports `vlang` from `src/`
there, and `perfbench/workloads.py` to build the workload's inputs, which it
only reads.  It runs one pass of the workload's operations through
`vlang.cli.main` in this process and records each call of `lexer.scan`, of
`parse_grammar`, `parse_model`, `parse_feature_diagrams` and
`parse_configurations`, of `check_context_conditions`, and of the engine
entries `sysmodel.tally` (the count and witnesses of `sem`) and
`sysmodel.first_system` (each query of `analyze`) with their arguments.
Then, layer by layer, it replays the recorded calls in batches, each batch
every call once, and prints one JSON object: per layer, the calls in a pass
and the minimum and median over the batches of the microseconds per call.  A replayed condition check is warm: the pass has already computed
the positions of the nodes it reports.  It is replayed with the arguments it
was called with, whatever they are, so it includes the check of the
grammar's class fields that each call makes.  A replayed engine entry adds
to `sysmodel.COUNTS`, which no reader takes after the pass.  To compare two
trees, run it from each in turn, alternating, on one host.

It patches each function under its name in the module that defines it,
which the `vlang.cli` handlers import it from when they run (for
`lexer.scan`, in the three modules that call it, and for the engine
entries, under the names their callers use: `semantics.tally` and
`analysis.first_system`).  It exits 1, naming the layer, when a layer
records no call in the pass, as when a caller no longer reaches the layer's
function through the name this script patches; the conditions need a call
only in a pass with a `wf` operation, `tally` only in one with a `sem`
operation, and `first_system` only in one with an `analyze` operation.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batches", type=int, default=15)
    args = parser.parse_args()

    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from vlang import analysis, cli, conditions, features, grammar, lexer, modelparse, semantics, sysmodel

    # Each layer's function, and the module names it is called through: the
    # scanner's and the engine entries' callers import them by name, and the
    # `cli` handlers import the others from their defining modules when they
    # run.
    layers = {
        "lexer.scan": (lexer.scan, [(grammar, "scan"), (modelparse, "scan"), (features, "scan")]),
        "grammar.parse_grammar": (grammar.parse_grammar, [(grammar, "parse_grammar")]),
        "modelparse.parse_model": (modelparse.parse_model, [(modelparse, "parse_model")]),
        "features.parse_feature_diagrams": (
            features.parse_feature_diagrams, [(features, "parse_feature_diagrams")]
        ),
        "features.parse_configurations": (
            features.parse_configurations, [(features, "parse_configurations")]
        ),
        "conditions.check_context_conditions": (
            conditions.check_context_conditions, [(conditions, "check_context_conditions")]
        ),
        "sysmodel.tally": (sysmodel.tally, [(semantics, "tally")]),
        "sysmodel.first_system": (sysmodel.first_system, [(analysis, "first_system")]),
    }
    calls: dict[str, list] = {name: [] for name in layers}

    def recording(name, function):
        def record(*a, **kw):
            calls[name].append((a, kw))
            return function(*a, **kw)

        return record

    for name, (function, sites) in layers.items():
        for module, attr in sites:
            setattr(module, attr, recording(name, function))
    try:
        with tempfile.TemporaryDirectory() as work:
            workload = workloads.build(args.workload, args.seed, work)
            workload.write(Path(work))
            for op in workload.ops:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    try:
                        cli.main(list(op.argv))
                    except SystemExit:
                        pass
    finally:
        for name, (function, sites) in layers.items():
            for module, attr in sites:
                setattr(module, attr, function)

    commands = {op.argv[0] for op in workload.ops}
    for command, name in (("wf", "conditions.check_context_conditions"), ("sem", "sysmodel.tally"),
                          ("analyze", "sysmodel.first_system")):
        if command not in commands:
            del calls[name]
    silent = [name for name, recorded in calls.items() if not recorded]
    if silent:
        print("layer_us: no call recorded for " + ", ".join(silent), file=sys.stderr)
        return 1

    result = {}
    for name, recorded in calls.items():
        function = layers[name][0]
        per_call = []
        for _ in range(args.batches):
            start = perf_counter()
            for a, kw in recorded:
                try:
                    function(*a, **kw)
                except (lexer.SourceError, features.FeatureModelError, semantics.SemanticsError):
                    pass
            per_call.append((perf_counter() - start) / len(recorded) * 1e6)
        result[name] = {
            "calls": len(recorded),
            "min_us": round(min(per_call), 1),
            "median_us": round(statistics.median(per_call), 1),
        }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "layers": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
