"""Time the start of each `vlang` subcommand, as a fresh process.

    python3 scripts/startup_ms.py --rounds 7 . ../other-tree

Run it from the root of a vlang source tree; it writes the README
Quickstart's files with that tree's `vlang.bundled` into a scratch
directory.  Then it runs each Quickstart command, and `--help`, as the
console script does (`from vlang.cli import main`), for each tree given
(the current one by default).  Each tree's `src/vlang/*.py` is first copied
into the scratch directory, so no bytecode in the tree is read.

It times the wall clock of each run twice per round, once without bytecode
(`PYTHONDONTWRITEBYTECODE=1`, so every start compiles the modules it
imports) and once with it (each tree writes its bytecode to a scratch
`PYTHONPYCACHEPREFIX` of its own, filled by one untimed run first).  Within
a round the trees alternate, in turn first.  A bare interpreter start
(`python -c pass`) is timed once per round and mode for reference.  It also
runs each command once more without bytecode under `-X importtime`, and
keeps the cumulative microseconds of each `vlang` module imported.

It prints one JSON object: per mode and command, the median milliseconds of
each tree, in the order given; the bare start's median per mode; and per
command the `-X importtime` microseconds of each module, per tree.  It exits
1, naming the command, when two trees differ in a command's exit code,
stdout or stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

CODE = "import sys; from vlang.cli import main; sys.exit(main())"
WORKSPACE = ["example.fd", "sm.conf", "cd.conf"]
COMMANDS = {
    "--help": ["--help"],
    "check-grammar": ["check-grammar", "cdsimp.mclang"],
    "parse": ["parse", "cdsimp.mclang", "refined.cd"],
    "wf": ["wf", "cdsimp.mclang", "refined.cd", "--cc", "CC-supers-declared"],
    "fm-check": ["fm-check", *WORKSPACE],
    "generate": ["generate", *WORKSPACE, "--out", "gen/"],
    "sem": ["sem", "cdsimp.mclang", "refined.cd", *WORKSPACE, "--witnesses", "1"],
    "analyze refine": [
        "analyze", "refine", "cdsimp.mclang", "refined.cd", "abstract.cd", *WORKSPACE
    ],
    "analyze consistent": [
        "analyze", "consistent", "cdsimp.mclang", "refined.cd", "cda.mclang", "claim.cda",
        *WORKSPACE,
    ],
}
MODES = ("no_bytecode", "bytecode")


def write_quickstart(work: Path) -> None:
    from vlang import bundled

    files = {
        "cdsimp.mclang": bundled.CDSIMP_GRAMMAR_TEXT,
        "cda.mclang": bundled.ASSERTION_GRAMMAR_TEXT,
        "example.fd": bundled.EXAMPLE_FD_TEXT,
        "sm.conf": bundled.DOMAIN_CONF_TEXT,
        "cd.conf": bundled.MAPPING_CONF_TEXT,
        "refined.cd": "classdiagram D { class A extends B; class B; }",
        "abstract.cd": "classdiagram D { class A; class B; }",
        "claim.cda": "assertions S { no sub A B; }",
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")


def environments(scratch: Path, src: Path | None, name: str) -> dict[str, dict[str, str]]:
    """The environment of each mode for one tree (`src` None: a bare start)."""
    unset = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    base = {k: v for k, v in os.environ.items() if k not in unset}
    base["COLUMNS"] = "80"  # the same help text on every run
    if src is not None:
        base["PYTHONPATH"] = str(src)
    return {
        "no_bytecode": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
        "bytecode": {**base, "PYTHONPYCACHEPREFIX": str(scratch / f"pycache-{name}")},
    }


def run(
    code: list[str], env: dict[str, str], cwd: Path
) -> tuple[float, subprocess.CompletedProcess]:
    """The wall time and the outcome of `python <code>`."""
    begin = perf_counter()
    done = subprocess.run(
        [sys.executable, *code], env=env, cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True
    )
    return perf_counter() - begin, done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", default=["."], help="vlang source trees")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be positive")

    sys.path.insert(0, str(Path.cwd() / "src"))
    trees = [Path(t).resolve() for t in args.trees]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        work = scratch / "work"
        work.mkdir()
        write_quickstart(work)
        envs = []
        for i, tree in enumerate(trees):
            src = scratch / f"src-{i}"
            shutil.copytree(
                tree / "src" / "vlang", src / "vlang", ignore=shutil.ignore_patterns("__pycache__")
            )
            envs.append(environments(scratch, src, str(i)))
        bare = environments(scratch, None, "bare")

        # Untimed: each tree's outputs, compared, and its bytecode written.
        for name, argv in COMMANDS.items():
            outputs = set()
            for env in envs:
                run(["-c", CODE, *argv], env["bytecode"], work)
                _, done = run(["-c", CODE, *argv], env["no_bytecode"], work)
                outputs.add((done.returncode, done.stdout, done.stderr))
            if len(outputs) > 1:
                print(f"startup_ms: the trees differ on {name}", file=sys.stderr)
                return 1
        run(["-c", "pass"], bare["bytecode"], work)

        times = {mode: {name: [[] for _ in trees] for name in COMMANDS} for mode in MODES}
        bare_times: dict[str, list[float]] = {mode: [] for mode in MODES}
        for r in range(args.rounds):
            order = list(range(len(trees)))
            order = order[r % len(order):] + order[:r % len(order)]
            for mode in MODES:
                bare_times[mode].append(run(["-c", "pass"], bare[mode], work)[0])
                for name, argv in COMMANDS.items():
                    for i in order:
                        elapsed, _ = run(["-c", CODE, *argv], envs[i][mode], work)
                        times[mode][name][i].append(elapsed)

        imports: dict[str, dict[str, list[int | None]]] = {}
        for name, argv in COMMANDS.items():
            per_module = imports[name] = {}
            for i, env in enumerate(envs):
                _, done = run(["-X", "importtime", "-c", CODE, *argv], env["no_bytecode"], work)
                for line in done.stderr.decode().splitlines():
                    if not line.startswith("import time:"):
                        continue
                    _, cumulative, module = (p.strip() for p in line.split(":", 1)[1].split("|"))
                    if module.partition(".")[0] == "vlang":
                        per_module.setdefault(module, [None] * len(trees))[i] = int(cumulative)

    def ms(seconds: list[float]) -> float:
        return round(statistics.median(seconds) * 1000, 1)

    print(json.dumps({
        "python": platform.python_version(),
        "rounds": args.rounds,
        "trees": [str(t) for t in trees],
        "wall_ms": {
            mode: {name: [ms(t) for t in per_tree] for name, per_tree in times[mode].items()}
            for mode in MODES
        },
        "bare_ms": {mode: ms(bare_times[mode]) for mode in MODES},
        "importtime_us": imports,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
