"""The vlang benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sem-enum --seed 1 --seconds 30 --trace 0

Run it from the root of a vlang source tree; it imports `vlang` from `src/`
there and nothing else.  The run generates the workload's inputs from the
seed, computes their expected results without vlang, and then walks the
workload's operation list (a pass) over and over, in this process and
thread, each operation a call of `vlang.cli.main` with its output captured
and checked.  One untimed pass comes first; then whole passes run until
`--seconds` have gone by.

`--trace 0` reports the end-to-end metrics: `setup_s` (the median time to
start an interpreter and import `vlang.cli`, over several starts),
`ops_per_s`, `pass_s` (median) and `peak_rss_mb`.  `--trace 1` spends half
the time untraced and half with every layer traced (see `tracing.py`), and
reports the per-layer metrics per pass and the tracing overhead.  Either way
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; it is also written under
`perfbench/out/`, next to the spans of a traced run.

Times are reported at a reference host speed.  The speed of a shared host
drifts by a third over minutes, and slow phases last longer than a run, so
raw times of the same code disagree from one run to the next.  Each timed
step is therefore bracketed by two probes that run no vlang code, and its
time is scaled by a fixed reference over the mean of the two: `probe` (a
computation of tuples, sets and dicts shaped like the enumerator's inner
loop, PROBE_REF_S) for operations, a bare interpreter start
(BARE_START_REF_S) for set-up.  A change to vlang moves a scaled time by the
same share as the raw one.  The raw figures go to standard error and to the
result file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402

SETUP_CODE = "from vlang.cli import main"
SETUP_STARTS = 11
BARE_START_REF_S = 0.05
PROBE_REF_S = 0.001
_PROBE_PAIRS = tuple((a, b) for a in "ABCD" for b in "ABCD")


def probe() -> float:
    """Median time of three runs of a fixed computation of tuples, sets and
    dicts, about 1 ms each; the median drops a run that an interrupt hit."""
    times = []
    for _ in range(3):
        start = perf_counter()
        hits = 0
        for sub in combinations(_PROBE_PAIRS, 3):
            pairs = set(sub)
            hits += all((c, c) in pairs for c in "ABCD")
            ups: dict[str, set[str]] = {}
            for a, b in sub:
                ups.setdefault(a, set()).add(b)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Times steps, raw and scaled to the reference host speed."""

    def __init__(self) -> None:
        self.last_probe = probe()

    def time(self, step) -> tuple[float, float]:
        before = self.last_probe
        start = perf_counter()
        step()
        raw = perf_counter() - start
        self.last_probe = probe()
        return raw, raw * 2 * PROBE_REF_S / (before + self.last_probe)


def measure_setup(root: Path) -> tuple[float, float]:
    """Median time of `python -c "from vlang.cli import main"`, the start-up
    every `vlang` command pays, raw and scaled.  The probe of a start is the
    start of a bare interpreter: each measured start lies between two bare
    ones and is scaled by BARE_START_REF_S over their mean.  One start first
    writes bytecode."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def start(code: str) -> float:
        begin = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return perf_counter() - begin

    start(SETUP_CODE)
    before = start("pass")
    raw, scaled = [], []
    for _ in range(SETUP_STARTS):
        elapsed = start(SETUP_CODE)
        after = start("pass")
        raw.append(elapsed)
        scaled.append(elapsed * 2 * BARE_START_REF_S / (before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    def __init__(self, workload: workloads.Workload, root: Path):
        import vlang.cli

        self.cli = vlang.cli
        self.workload = workload
        self.root = root
        self.clock = Clock()
        self.correct = True
        self.problems: list[str] = []

    def run_op(self, op: workloads.Op) -> tuple[float, float, bool]:
        """Run one operation; return its raw and scaled time and whether it
        failed."""
        out, err = io.StringIO(), io.StringIO()
        outcome: dict[str, object] = {}

        def step() -> None:
            try:
                outcome["rc"] = self.cli.main(list(op.argv))
            except SystemExit as exc:
                outcome["rc"] = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an operation that dies must not end the run
                outcome["error"] = exc

        with redirect_stdout(out), redirect_stderr(err):
            raw, scaled = self.clock.time(step)
        if "error" in outcome:
            problems = [f"raised {type(outcome['error']).__name__}"]
        else:
            problems = op.check(outcome["rc"], out.getvalue())
        if problems and not op.known_fault:
            self.correct = False
            if len(self.problems) < 20:
                self.problems += [f"{op.label}: {p}" for p in problems]
        return raw, scaled, bool(problems)

    def run_pass(self) -> tuple[float, float, int]:
        """One walk over the operation list: its raw and scaled time and
        failed count."""
        for d in self.workload.out_dirs:
            shutil.rmtree(self.root / d, ignore_errors=True)
        raw = scaled = 0.0
        failed = 0
        for op in self.workload.ops:
            r, s, bad = self.run_op(op)
            raw += r
            scaled += s
            failed += bad
        return raw, scaled, failed

    def run_for(self, seconds: float) -> tuple[list[float], list[float], int]:
        """Whole passes until `seconds` of wall time have gone by."""
        raw, scaled, failed = [], [], 0
        start = perf_counter()
        while not raw or perf_counter() - start < seconds:
            r, s, bad = self.run_pass()
            raw.append(r)
            scaled.append(s)
            failed += bad
        return raw, scaled, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vlang" / "cli.py").is_file():
        print(f"perfbench: no vlang sources under {root / 'src'}; run from the root of a "
              "vlang source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    base = f"perfbench/.work/{args.workload}-{args.seed}"
    shutil.rmtree(root / base, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, base)
    workload.write(root)

    setup = measure_setup(root) if not args.trace else None
    runner = Runner(workload, root)
    runner.run_pass()  # untimed: lazy set-up, first warnings, bytecode

    if args.trace:
        raw, plain, failed = runner.run_for(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        per_pass, traced = [], []
        try:
            start = perf_counter()
            while not traced or perf_counter() - start < args.seconds / 2:
                tracer.reset()
                r, scaled, bad = runner.run_pass()
                traced.append(scaled)
                failed += bad
                tally = tracer.tally()
                for name, unit in METRICS.items():
                    if unit == "s":
                        tally[name] *= scaled / r
                    elif unit == "KB/s":
                        tally[name] *= r / scaled
                per_pass.append(tally)
        finally:
            tracer.uninstall()
        passes = len(plain) + len(traced)
        # Counts repeat exactly from pass to pass; median_low keeps them whole.
        metrics = {
            name: {
                "value": (statistics.median_low if METRICS[name] == "count" else statistics.median)(
                    [p[name] for p in per_pass]),
                "unit": METRICS[name],
            }
            for name in per_pass[0]
        }
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        tracer.write(root / "perfbench" / "out" / f"trace-{args.workload}-{args.seed}.json")
        raw_figures = {"untraced_pass_s": statistics.median(raw)}
    else:
        raw, times, failed = runner.run_for(args.seconds)
        passes = len(times)
        attempted = passes * len(workload.ops)
        metrics = {
            "setup_s": {"value": setup[1], "unit": "s"},
            "ops_per_s": {"value": attempted / sum(times), "unit": "op/s"},
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
        }
        raw_figures = {
            "setup_s": setup[0],
            "ops_per_s": attempted / sum(raw),
            "pass_s": statistics.median(raw),
        }

    for problem in runner.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": runner.correct,
        "attempted": passes * len(workload.ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(f"perfbench: raw, unscaled: {json.dumps(raw_figures)}", file=sys.stderr)
    out = root / "perfbench" / "out" / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**result, "raw": raw_figures}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
