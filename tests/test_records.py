"""The value semantics of vlang's records, which are named tuples or
`__slots__` classes, and the start-up cost they keep down: importing the
CLI loads no `dataclasses` (nor the `inspect` it pulls in) and no library
module but `lexer`, each subcommand loads only the modules it runs, and
parsing a grammar, which derives its models' vocabulary itself, loads no
model parser.  Each module also imports alone, in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vlang import bundled, cli
from vlang.conditions import CCViolation
from vlang.features import Feature, FeatureModelError, Violation
from vlang.grammar import StereotypeSlot
from vlang.schema import AstNode, SourcePos
from vlang.sysmodel import Bounds

SRC = Path(cli.__file__).parents[1]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def test_cli_import_loads_no_dataclasses():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vlang.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "[]\n", "")


# The files of the README Quickstart, and the modules each of its commands
# loads: the syntax pillar alone, the feature layer alone, or the semantics.
# Importing the CLI and printing its help load only `lexer`, which defines
# the errors `main` catches.
_QUICKSTART = {
    "cdsimp.mclang": bundled.CDSIMP_GRAMMAR_TEXT,
    "cda.mclang": bundled.ASSERTION_GRAMMAR_TEXT,
    "example.fd": bundled.EXAMPLE_FD_TEXT,
    "sm.conf": bundled.DOMAIN_CONF_TEXT,
    "cd.conf": bundled.MAPPING_CONF_TEXT,
    "refined.cd": "classdiagram D { class A extends B; class B; }",
    "abstract.cd": "classdiagram D { class A; class B; }",
    "claim.cda": "assertions S { no sub A B; }",
}
_SYNTAX = {"cli", "lexer", "grammar", "schema"}
_MODEL = _SYNTAX | {"modelparse", "desugar"}
_FEATURES = {"cli", "lexer", "features"}
_SEMANTICS = _MODEL | _FEATURES | {"semantics", "sysmodel"}
_WORKSPACE = "example.fd sm.conf cd.conf"


@pytest.mark.parametrize("argv, code, modules", [
    ("--help", 0, {"cli", "lexer"}),
    ("check-grammar cdsimp.mclang", 0, _SYNTAX),
    ("parse cdsimp.mclang refined.cd", 0, _MODEL),
    ("wf cdsimp.mclang refined.cd --cc CC-supers-declared", 0, _MODEL | {"conditions"}),
    (f"fm-check {_WORKSPACE}", 0, _FEATURES),
    (f"generate {_WORKSPACE} --out gen/", 0,
     _FEATURES | {"schema", "semantics", "sysmodel", "theorygen"}),
    (f"sem cdsimp.mclang refined.cd {_WORKSPACE} --witnesses 1", 0, _SEMANTICS),
    (f"analyze refine cdsimp.mclang refined.cd abstract.cd {_WORKSPACE}", 0,
     _SEMANTICS | {"analysis"}),
    (f"analyze consistent cdsimp.mclang refined.cd cda.mclang claim.cda {_WORKSPACE}", 1,
     _SEMANTICS | {"analysis"}),
])
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, code, modules):
    for name, text in _QUICKSTART.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    script = (
        "import contextlib, io, sys\n"
        "from vlang.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, *sorted(m[6:] for m in sys.modules if m.startswith('vlang.')))\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script, *argv.split()],
        capture_output=True, text=True, env=ENV, cwd=tmp_path,
    )
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert fresh.stdout.split() == [str(code), *sorted(modules)]


def test_grammar_parse_loads_no_model_parser():
    script = (
        "import sys\n"
        "from vlang.bundled import CD_GRAMMAR_TEXT\n"
        "from vlang.grammar import parse_grammar\n"
        "parse_grammar(CD_GRAMMAR_TEXT)\n"
        "print('vlang.modelparse' in sys.modules)\n"
    )
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "False\n", "")


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in (SRC / "vlang").glob("*.py") if p.stem != "__init__")
)
def test_each_module_imports_alone(module):
    # `import vlang` loads no submodule, so a module that imports only when
    # another one was loaded first fails here.
    fresh = subprocess.run(
        [sys.executable, "-c", f"import vlang.{module}"], capture_output=True, text=True, env=ENV
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "", "")


def test_markers_equal_only_their_own_kind():
    assert StereotypeSlot() == StereotypeSlot() and hash(StereotypeSlot()) == hash(StereotypeSlot())
    assert StereotypeSlot() != () and repr(StereotypeSlot()) == "StereotypeSlot()"
    assert len({StereotypeSlot(), StereotypeSlot(), ()}) == 2


def test_ast_node_equality_ignores_its_position():
    node = AstNode("CDCClass", {"Name": "A"}, SourcePos(1, 2))
    assert node == AstNode("CDCClass", {"Name": "A"}, SourcePos(3, 4))
    assert node == AstNode("CDCClass", {"Name": "A"})
    assert node != AstNode("CDCClass", {"Name": "B"}, SourcePos(1, 2))
    assert node != AstNode("CDDefinition", {"Name": "A"}, SourcePos(1, 2))


@pytest.mark.parametrize("kwargs, message", [
    ({"max_objects": -1}, "max_objects must be non-negative"),
    ({"extra_class_names": ("x y",)}, "extra class name 'x y' is not an IDENT"),
])
def test_bounds_refuse_a_negative_count_and_a_name_that_is_no_ident(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Bounds(**kwargs)


def test_feature_refuses_an_unknown_kind():
    assert Feature("F", "optional", "semantic-domain").kind == "semantic-domain"
    with pytest.raises(FeatureModelError, match="unknown feature kind bogus"):
        Feature("F", "optional", "bogus")


def test_violations_sort_field_by_field():
    ccs = [CCViolation("b", 1, 1, "m"), CCViolation("a", 2, 1, "m"),
           CCViolation("a", 1, 5, "m"), CCViolation("a", 1, 2, "z"), CCViolation("a", 1, 2, "y")]
    assert sorted(ccs) == [ccs[4], ccs[3], ccs[2], ccs[1], ccs[0]]
    violations = [Violation("D", "r2", "x"), Violation("C", "r9", "x"),
                  Violation("D", "r1", "z"), Violation("D", "r1", "y")]
    assert sorted(violations) == [violations[1], violations[3], violations[2], violations[0]]
