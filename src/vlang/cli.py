"""Batch command-line front end.

Subcommands:

  check-grammar <file.mclang>           parse a grammar, print its schema dump
  parse <grammar> <model> [--minimal]   print the (optionally desugared) AST
  wf <grammar> <model> [--cc ids]       run context conditions
  fm-check <fd...> <conf...>            merge and validate configurations
  generate <fd...> <conf...> --out DIR  emit composed theory documents
  sem <grammar> <model> <fd...> <conf...> [bounds flags]
                                        semantics count and witnesses
  analyze refine|consistent|equiv ...   bounded analysis verdicts

The last four reach a configuration by one path (`_load_workspace`, then
`features.validated_merge`) and take each diagram's role from
`semantics.semantic_diagrams`.

Each subcommand is one row of `SUBCOMMANDS`: its help, the function adding
its arguments, and its handler.  `main` builds the parser of the subcommand
it is given alone, once per process; `build_parser` builds them all, for the
top-level help and for the errors reported with the top-level usage.

Importing this module loads no library module but `lexer`, which defines
the errors `main` catches.  Each handler imports what its command runs when
it runs, once per command, so a command pays at start-up only for the
modules it uses: `check-grammar` loads no model parser, and `fm-check` only
the feature layer.

Every input file is read whole and decoded as UTF-8, with text mode's
newline translation: each CR LF pair, then each lone CR, becomes one LF.

Exit codes: 0 for a positive verdict, 1 for a negative one (violations,
holds=false, a grammar or model the command was asked to judge failing to
parse, a theory that cannot be generated), 2 for usage errors, refused
diagram roles, and unreadable (or not UTF-8) or unparseable auxiliary input
files.  `main` is the one place a library error (a `lexer.RefusalError`: an
undesugarable model, an unknown condition, a feature-model, semantics,
analysis or naming error) becomes one `vlang: <message>` line with exit 2; a
handler wraps an error only when the message needs the file's path or the
exit code of a judged input, and ends a command early by one exception,
`_Exit`, with a `vlang:` message unless it has written its verdict, as for
configurations that break their diagrams (violations on stdout, exit 1).
Results go to stdout, diagnostics to stderr.  Setting VLANG_COLOR=0
disables ANSI coloring (used only on terminals).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from itertools import islice

from .lexer import RefusalError, SourceError


class _Exit(Exception):
    """Ends the command with `exit_code`, after one `vlang: <message>` line
    on stderr when there is a message: a refused input or usage, or (with no
    message) a verdict the command has written."""

    def __init__(self, message: str | None = None, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


def _paint(text: str, code: str) -> str:
    if sys.stdout.isatty() and os.environ.get("VLANG_COLOR") != "0":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _read(path: str) -> str:
    """The file's text: its bytes in one read, decoded as UTF-8, with text
    mode's newline translation."""
    try:
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Exit(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parsed(parse, path: str, *head, judged: bool = False):
    """`parse(*head, text)` of the file at `path`: a grammar, or a model of
    the grammar in `head`.  A syntax error is reported with the path, with
    exit 1 where the command judges the file."""
    text = _read(path)
    try:
        return parse(*head, text)
    except SourceError as exc:
        raise _Exit(f"{path}: {exc}", exit_code=1 if judged else 2) from exc


def _load_workspace(paths: list[str]):
    """Read .fd and .conf files into (diagrams, configurations, their
    validated merge).  Configurations that break their diagrams end the
    command: their violations go to stdout, and it exits 1."""
    from .features import (
        FeatureModelError,
        InvalidConfigurationError,
        parse_configurations,
        parse_feature_diagrams,
        render_violations,
        validated_merge,
    )

    diagrams, configs = [], []
    for path in paths:
        text = _read(path)
        try:
            if path.endswith(".fd"):
                diagrams.extend(parse_feature_diagrams(text))
            elif path.endswith(".conf"):
                configs.extend(parse_configurations(text))
            else:
                raise _Exit(f"{path}: expected a .fd or .conf file")
        except FeatureModelError as exc:
            raise _Exit(f"{path}: {exc}") from exc
    try:
        return diagrams, configs, validated_merge(diagrams, configs)
    except InvalidConfigurationError as exc:
        print(render_violations(exc.violations))
        raise _Exit(exit_code=1) from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check_grammar(args) -> int:
    from .grammar import parse_grammar
    from .schema import dump_schema

    grammar = _parsed(parse_grammar, args.grammar, judged=True)
    sys.stdout.write(dump_schema(grammar.schema))
    return 0


def _cmd_parse(args) -> int:
    from .desugar import desugar_to_minimal
    from .grammar import parse_grammar
    from .modelparse import parse_model
    from .schema import dump_ast

    grammar = _parsed(parse_grammar, args.grammar)
    node = _parsed(parse_model, args.model, grammar, judged=True)
    if args.minimal:
        node = desugar_to_minimal(node, grammar)
    print(dump_ast(node))
    return 0


def _cmd_wf(args) -> int:
    from .conditions import CONDITIONS, check_context_conditions
    from .desugar import desugar_to_minimal
    from .grammar import parse_grammar
    from .modelparse import parse_model

    grammar = _parsed(parse_grammar, args.grammar)
    node = desugar_to_minimal(_parsed(parse_model, args.model, grammar), grammar)
    active = {cc_id for cc_id, cc in CONDITIONS.get(grammar.name, {}).items() if not cc.optional}
    if args.cc:
        active.update(s for s in args.cc.split(",") if s)
    violations = check_context_conditions(node, active, grammar)
    for v in violations:
        print(v.render())
    if violations:
        return 1
    print(_paint("OK", "32") + f" {len(active)} conditions, no violations")
    return 0


def _cmd_fm_check(args) -> int:
    diagrams, configs, _ = _load_workspace(args.files)
    print(_paint("OK", "32") + f" {len(diagrams)} diagrams, {len(configs)} configurations")
    return 0


def _cmd_generate(args) -> int:
    from pathlib import Path

    from .semantics import SemanticsError, semantic_diagrams
    from .sysmodel import NameConventionError
    from .theorygen import generate_domain_theory, generate_mapping_theory, write_theory

    diagrams, _, merged = _load_workspace(args.files)
    domain, mapping = semantic_diagrams(diagrams)
    generators = {domain: generate_domain_theory, mapping: generate_mapping_theory}
    selected = {c.diagram: c for c in merged}
    try:
        docs = [
            generators[d](d, selected[d.name])
            for d in diagrams
            if d in generators and d.name in selected
        ]
    except (NameConventionError, SemanticsError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    for doc in docs:
        try:
            path = write_theory(doc, Path(args.out))
        except OSError as exc:
            raise _Exit(f"cannot write {args.out}: {exc.strerror}") from exc
        print(path.as_posix())
    return 0


def _bounds(args):
    """Read after the configuration, so violations (exit 1) win over a bad
    bound (exit 2)."""
    from .sysmodel import Bounds

    extra = tuple(s for s in (args.extra_classes or "").split(",") if s)
    try:
        return Bounds(extra_class_names=extra, max_objects=args.max_objects)
    except ValueError as exc:
        raise _Exit(str(exc)) from exc


def _compiled(run, *args):
    """`run(*args)`, which compiles class diagrams.  An ignored stereotype
    is a diagnostic of the run: one line per message, whatever the caller's
    warning filters say."""
    from .semantics import UnknownStereotypeWarning

    with warnings.catch_warnings():
        warnings.simplefilter("default", UnknownStereotypeWarning)
        warnings.showwarning = _show_warning
        return run(*args)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"vlang: warning: {message}", file=sys.stderr)


def _cmd_sem(args) -> int:
    from .desugar import desugar_to_minimal
    from .grammar import parse_grammar
    from .modelparse import parse_model
    from .semantics import check_semantics, compute_sem, make_semantics_config
    from .sysmodel import dump_system

    if args.witnesses < 0:
        raise _Exit("--witnesses must be non-negative")
    grammar = _parsed(parse_grammar, args.grammar)
    model = desugar_to_minimal(_parsed(parse_model, args.model, grammar), grammar)
    diagrams, _, merged = _load_workspace(args.files)
    config = make_semantics_config(diagrams, merged, _bounds(args))
    check_semantics(grammar)
    sem = _compiled(compute_sem, model, config)
    members = iter(sem)
    witnesses = list(islice(members, args.witnesses))
    count = len(witnesses) + sum(1 for _ in members)
    print(f"SEM count={count} bounds={sem.bounds.describe(sem.demands.attrs)}")
    for i, sm in enumerate(witnesses, start=1):
        print(f"WITNESS {i}")
        sys.stdout.write(dump_system(sm))
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import check_consistency, check_equivalence, check_refinement
    from .desugar import desugarer
    from .grammar import parse_grammar
    from .modelparse import parse_model
    from .semantics import check_semantics, make_semantics_config

    pairs, rest = _model_arguments(args.args)
    if args.mode in ("refine", "equiv") and (len(pairs) != 1 or len(pairs[0][1]) != 2):
        raise _Exit(f"analyze {args.mode} needs one grammar followed by two model files")
    grammars, models = [], []  # the grammars of the models, which bind their compile
    for grammar_path, model_paths in pairs:
        grammar = _parsed(parse_grammar, grammar_path)
        grammars += [grammar] if model_paths else []
        desugar = None  # bound at the first model, after it parses
        for path in model_paths:
            model = _parsed(parse_model, path, grammar)
            desugar = desugar or desugarer(grammar)
            models.append(desugar(model))
    if not models:
        raise _Exit("analyze consistent needs grammar/model arguments")
    diagrams, _, merged = _load_workspace(rest)
    config = make_semantics_config(diagrams, merged, _bounds(args))
    for grammar in grammars:
        check_semantics(grammar)
    if args.mode == "consistent":
        verdict = _compiled(check_consistency, models, config)
    else:
        check = check_refinement if args.mode == "refine" else check_equivalence
        verdict = _compiled(check, models[0], models[1], config)
    sys.stdout.write(verdict.report())
    return 0 if verdict.holds else 1


def _model_arguments(args: list[str]):
    """Split positionals into (grammar, [models...]) runs and .fd/.conf rest."""
    pairs: list[tuple[str, list[str]]] = []
    rest: list[str] = []
    current: tuple[str, list[str]] | None = None
    for a in args:
        if a.endswith(".mclang"):
            current = (a, [])
            pairs.append(current)
        elif a.endswith((".fd", ".conf")):
            rest.append(a)
        elif current is not None:
            current[1].append(a)
        else:
            raise _Exit(f"model file {a} must follow its grammar file")
    return pairs, rest


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _grammar(p: argparse.ArgumentParser) -> None:
    p.add_argument("grammar", help=".mclang grammar file")


def _grammar_and_model(p: argparse.ArgumentParser) -> None:
    _grammar(p)
    p.add_argument("model", help="model file")


def _parse_arguments(p: argparse.ArgumentParser) -> None:
    _grammar_and_model(p)
    p.add_argument("--minimal", action="store_true", help="desugar before printing")


def _wf_arguments(p: argparse.ArgumentParser) -> None:
    _grammar_and_model(p)
    p.add_argument(
        "--cc",
        metavar="ID[,ID...]",
        help="optional context-condition ids to activate (non-optional ones always run)",
    )


def _feature_files(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+", help=".fd and .conf files")


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    _feature_files(p)
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")


def _bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-objects", type=int, default=1, metavar="N", help="object-count bound"
    )
    p.add_argument(
        "--extra-classes",
        metavar="A,B",
        help="class names enumerable beyond those the models mention",
    )


def _sem_arguments(p: argparse.ArgumentParser) -> None:
    _grammar_and_model(p)
    _feature_files(p)
    _bounds_flags(p)
    p.add_argument(
        "--witnesses", type=int, default=0, metavar="K", help="print up to K witnesses"
    )


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("mode", choices=("refine", "consistent", "equiv"))
    p.add_argument(
        "args",
        nargs="+",
        help="grammar/model files (each grammar followed by its models), "
        "then .fd and .conf files",
    )
    _bounds_flags(p)


# Subcommand -> (help, the function adding its arguments, handler).
SUBCOMMANDS = {
    "check-grammar": ("parse a grammar and print its schema dump", _grammar, _cmd_check_grammar),
    "parse": ("parse a model and print its AST", _parse_arguments, _cmd_parse),
    "wf": ("check context conditions on a model", _wf_arguments, _cmd_wf),
    "fm-check": ("merge and validate configurations", _feature_files, _cmd_fm_check),
    "generate": ("emit composed theory documents", _generate_arguments, _cmd_generate),
    "sem": ("semantics count and witnesses of a model", _sem_arguments, _cmd_sem),
    "analyze": ("refinement, consistency, or equivalence", _analyze_arguments, _cmd_analyze),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every subcommand: for the top-level help and
    the errors that name the top-level usage."""
    parser = argparse.ArgumentParser(
        prog="vlang",
        description="Modeling-language workbench: grammars, feature-configured "
        "semantics, theory generation, bounded analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(fn=handler)
    return parser


@functools.cache
def _subparser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name` alone, built once per process: it
    holds only the static argument table, and argparse makes a new formatter
    for every help text, so the help still fits the terminal of the moment."""
    parser = argparse.ArgumentParser(prog=f"vlang {name}")
    SUBCOMMANDS[name][1](parser)
    return parser


def _namespace(argv: list[str]) -> argparse.Namespace:
    """Parse with the named subcommand's parser alone, as the full parser
    would.  Arguments it leaves over go to the full parser, which reports
    them with the top-level usage; so does an argv naming no subcommand."""
    if argv and argv[0] in SUBCOMMANDS:
        args, rest = _subparser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command, args.fn = argv[0], SUBCOMMANDS[argv[0]][2]
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _namespace(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.fn(args)
    except _Exit as exc:
        if exc.args[0] is not None:
            print(f"vlang: {exc}", file=sys.stderr)
        return exc.exit_code
    except RefusalError as exc:
        print(f"vlang: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
