"""The value semantics of vlang's records, which are named tuples or
`__slots__` classes, and the start-up cost they keep down: importing the
CLI loads no `dataclasses` (nor the `inspect` it pulls in).  Each module also
imports alone, in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vlang import cli
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
