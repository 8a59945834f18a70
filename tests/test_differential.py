"""`vlang sem` and `vlang analyze` against the benchmark's reference.

`perfbench/reference.py` computes every count, witness and verdict from the
definition of the bounded domain, without importing vlang.  Hypothesis draws
small CDSimp/CD models (at most three classes, declared supers,
<<singleton>> and an unknown stereotype on CD) and assertion documents, a
mapping variant with or without SingleInheritance, at most two objects
(two, so that the <<singleton>> cap can bite) and, sometimes, the extra
class name D (then at most one object, to keep four-class universes small);
the command line's stdout and exit code must equal the reference's.
Direct mapping with SingleInheritance is not drawn: the configuration
excludes it, so the command reports a violation instead of a semantics.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vlang import bundled
from vlang.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::vlang.semantics.UnknownStereotypeWarning")

_REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("vlang_bench_reference", _REFERENCE_PATH)
reference = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reference
_spec.loader.exec_module(reference)

NAMES = ("A", "B", "C")
CONFS = {
    "si.conf": "configuration SMConf for SystemModelVar {\n    select SingleInheritance;\n}\n",
    "nosi.conf": "configuration SMConf for SystemModelVar {\n}\n",
    "direct.conf": "configuration MapConf for CDSimpSemVar {\n    select MapSuperCDirect;\n}\n",
    "delegate.conf": "configuration MapConf for CDSimpSemVar {\n    select MapSuperCDelegate;\n}\n",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("differential")
    files = {
        "cdsimp.mclang": bundled.CDSIMP_GRAMMAR_TEXT,
        "cd.mclang": bundled.CD_GRAMMAR_TEXT,
        "cda.mclang": bundled.ASSERTION_GRAMMAR_TEXT,
        "sm.fd": bundled.EXAMPLE_FD_TEXT,
        **CONFS,
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@st.composite
def _diagrams(draw, language: str):
    declared = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    stereotypes = st.sampled_from(((), ("singleton",), ("entity",), ("entity", "singleton")))
    classes = tuple(
        reference.ClassDecl(
            name,
            tuple(draw(st.lists(st.sampled_from([n for n in NAMES if n != name]),
                                max_size=2, unique=True))),
            draw(stereotypes) if language == "CD" else (),
        )
        for name in declared
    )
    return reference.ClassDiagram("D", classes)


def _diagram_text(model) -> str:
    lines = []
    for c in model.classes:
        head = "".join(f"<<{s}>> " for s in c.stereotypes)
        ext = f" extends {', '.join(c.supers)}" if c.supers else ""
        lines.append(f"{head}class {c.name}{ext};")
    return f"classdiagram {model.name} {{ {' '.join(lines)} }}\n"


_assertion_docs = st.builds(
    lambda statements: reference.AssertionDoc("S", tuple(statements)),
    st.lists(st.builds(reference.Assertion, st.sampled_from(NAMES),
                       st.sampled_from(NAMES), st.booleans()), max_size=2),
)


def _assertion_text(doc) -> str:
    body = " ".join(f"{'no ' if a.negated else ''}sub {a.left} {a.right};" for a in doc.assertions)
    return f"assertions {doc.name} {{ {body} }}\n"


DIRECT = reference.Semantics("direct")
DELEGATE_SI = reference.Semantics("delegate", single_inheritance=True)
_semantics = st.sampled_from((DIRECT, reference.Semantics("delegate"), DELEGATE_SI))

# A singleton class and a plain one, each of them declared supers of B.
SINGLETON_A = reference.ClassDiagram("D", (
    reference.ClassDecl("A", (), ("singleton",)),
    reference.ClassDecl("B", ("A", "C")),
    reference.ClassDecl("C"),
))
PLAIN_A = reference.ClassDiagram("D", (reference.ClassDecl("A"),))


def _run(workspace: Path, sem, bounds, *argv: str) -> tuple[int, str]:
    configs = [str(workspace / name) for name in
               ("sm.fd", "si.conf" if sem.single_inheritance else "nosi.conf", f"{sem.mapping}.conf")]
    extras = ["--extra-classes", ",".join(bounds.extras)] if bounds.extras else []
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([*argv, *configs, "--max-objects", str(bounds.max_objects), *extras])
    return code, out.getvalue()


def _write(workspace: Path, name: str, text: str) -> str:
    path = workspace / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@st.composite
def _bounds(draw):
    extras = draw(st.sampled_from(((), ("D",))))
    return reference.Bounds(draw(st.integers(0, 1 if extras else 2)), extras)


@st.composite
def _sem_cases(draw):
    language = draw(st.sampled_from(("CDSimp", "CD")))
    return language, draw(_diagrams(language)), draw(_semantics), draw(_bounds()), \
        draw(st.integers(0, 3))


# The example budget comes from the hypothesis profile (tests/conftest.py).
_SETTINGS = settings(deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])


@_SETTINGS
@given(_sem_cases())
@example(("CD", SINGLETON_A, DELEGATE_SI, reference.Bounds(2), 3))
@example(("CD", SINGLETON_A, DELEGATE_SI, reference.Bounds(1, ("D",)), 2))
def test_sem_equals_reference(workspace, case):
    language, model, sem, bounds, witnesses = case
    path = _write(workspace, "model.cd", _diagram_text(model))
    expected = reference.expect_sem(model, sem, bounds, witnesses)
    assert _run(workspace, sem, bounds, "sem", str(workspace / f"{language.lower()}.mclang"),
                path, "--witnesses", str(witnesses)) == (expected.exit_code, expected.stdout)


@st.composite
def _analysis_cases(draw):
    kind = draw(st.sampled_from(("refine", "equiv", "consistent")))
    language = draw(st.sampled_from(("CDSimp", "CD")))
    first = draw(_diagrams(language))
    second = draw(_assertion_docs) if kind == "consistent" else draw(_diagrams(language))
    return kind, language, first, second, draw(_semantics), draw(_bounds())


@_SETTINGS
@given(_analysis_cases())
@example(("refine", "CD", PLAIN_A, SINGLETON_A, DIRECT, reference.Bounds(2)))
@example(("equiv", "CD", PLAIN_A, SINGLETON_A, DIRECT, reference.Bounds(1, ("D",))))
def test_analyze_equals_reference(workspace, case):
    kind, language, first, second, sem, bounds = case
    grammar = str(workspace / f"{language.lower()}.mclang")
    argv = ["analyze", kind, grammar, _write(workspace, "first.cd", _diagram_text(first))]
    if kind == "consistent":
        argv += [str(workspace / "cda.mclang"),
                 _write(workspace, "second.cda", _assertion_text(second))]
    else:
        argv.append(_write(workspace, "second.cd", _diagram_text(second)))
    expected = reference.expect_analysis(kind, [first, second], sem, bounds)
    assert _run(workspace, sem, bounds, *argv) == (expected.exit_code, expected.stdout)
