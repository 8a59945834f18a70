from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden, zeroed_counts
from oracles import oracle_read
from vlang import bundled, cli, desugar, features, semantics
from vlang.cli import build_parser, main
from vlang.sysmodel import Demands


@pytest.fixture()
def workspace(tmp_path: Path) -> Path:
    files = {
        "cdsimp.mclang": bundled.CDSIMP_GRAMMAR_TEXT,
        "cd.mclang": bundled.CD_GRAMMAR_TEXT,
        "cda.mclang": bundled.ASSERTION_GRAMMAR_TEXT,
        "example.fd": bundled.EXAMPLE_FD_TEXT,
        "sm.conf": bundled.DOMAIN_CONF_TEXT,
        "cd.conf": bundled.MAPPING_CONF_TEXT,
        "bad.conf": bundled.DIRECT_CONF_TEXT,
        "d.cd": "classdiagram D { class A extends B; class B; }\n",
        "abs.cd": "classdiagram D { class A; class B; }\n",
        "dup.cd": "classdiagram D { class A; class A extends B, C; }\n",
        "sugar.cd": "classdiagram D { classes A, B; }\n",
        "pos.cda": "assertions S { sub A B; }\n",
        "neg.cda": "assertions S { no sub A B; }\n",
        "broken.cd": "classdiagram D { class extends; }\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_grammar_prints_schema_dump(workspace, capsys):
    code, out, _ = _run(capsys, "check-grammar", str(workspace / "cdsimp.mclang"))
    assert code == 0
    assert out == golden("cdsimp_schema.txt")


def test_check_grammar_rejects_bad_grammar(workspace, capsys):
    bad = workspace / "bad.mclang"
    bad.write_text("grammar X { }", encoding="utf-8")
    code, _, err = _run(capsys, "check-grammar", str(bad))
    assert code == 1
    assert "no productions" in err


def test_grammar_without_a_finite_model_is_refused(workspace, capsys):
    grammar = workspace / "endless.mclang"
    grammar.write_text('grammar G { S = "s" (xs:X)*; X = "x" X; }', encoding="utf-8")
    code, out, err = _run(capsys, "check-grammar", str(grammar))
    assert (code, out) == (1, "")
    assert err == f"vlang: {grammar}: no finite model derives from X\n"


def test_left_recursive_grammar_is_refused_not_run(workspace, capsys):
    grammar = workspace / "loop.mclang"
    grammar.write_text("grammar G { A = B; B = A; }", encoding="utf-8")
    code, out, err = _run(capsys, "check-grammar", str(grammar))
    assert (code, out) == (1, "")
    assert err == f"vlang: {grammar}: left recursion: A -> B -> A\n"
    code, out, err = _run(capsys, "parse", str(grammar), str(workspace / "d.cd"))
    assert (code, out) == (2, "")
    assert err == f"vlang: {grammar}: left recursion: A -> B -> A\n"


def test_grammar_with_an_empty_terminal_is_refused_at_once(workspace, capsys):
    grammar, model = workspace / "empty.mclang", workspace / "dollar.txt"
    grammar.write_text('grammar G { A = "" "a"; }', encoding="utf-8")
    model.write_text("a $", encoding="utf-8")
    message = f"vlang: {grammar}: terminal '' does not scan as one model token\n"
    started = time.perf_counter()
    assert _run(capsys, "check-grammar", str(grammar)) == (1, "", message)
    assert _run(capsys, "parse", str(grammar), str(model)) == (2, "", message)
    assert time.perf_counter() - started < 1


# A parser names the token it stopped at by its kind: the end of the input
# is "end of input", and a token, even an empty string, is its text.
@pytest.mark.parametrize(
    "name, text, command, code, message",
    [
        ("c.conf", "configuration C for D { select", "fm-check", 2,
         "line 1, col 31: expected feature name, got end of input"),
        ("d.fd", "featurediagram X {\n  vp", "fm-check", 2,
         "line 2, col 5: expected variation point name, got end of input"),
        ("e.mclang", "", "check-grammar", 1,
         "line 1, col 1: expected 'grammar', got end of input"),
        ("x.mclang", "grammar G { A = x:", "check-grammar", 1,
         "line 1, col 19: expected nonterminal after ':', got end of input"),
        ("s.mclang", 'grammar G "" { A = "a"; }', "check-grammar", 1,
         "line 1, col 11: expected '{', got ''"),
    ],
)
def test_parse_errors_name_the_end_of_input(workspace, capsys, name, text, command, code, message):
    path = workspace / name
    path.write_text(text, encoding="utf-8")
    assert _run(capsys, command, str(path)) == (code, "", f"vlang: {path}: {message}\n")


def test_missing_file_is_a_file_error(workspace, capsys):
    code, _, err = _run(capsys, "check-grammar", str(workspace / "nope.mclang"))
    assert code == 2
    assert "cannot read" in err


def test_parse_prints_ast(workspace, capsys):
    code, out, _ = _run(
        capsys, "parse", str(workspace / "cdsimp.mclang"), str(workspace / "d.cd")
    )
    assert code == 0
    assert out.startswith("(CDDefinition ")


def test_parse_minimal_desugars(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "parse",
        str(workspace / "cd.mclang"),
        str(workspace / "sugar.cd"),
        "--minimal",
    )
    assert code == 0
    assert "CDCClasses" not in out
    assert out.count("(CDCClass ") == 2


def test_parse_model_error_is_a_negative_verdict(workspace, capsys):
    code, _, err = _run(
        capsys, "parse", str(workspace / "cdsimp.mclang"), str(workspace / "broken.cd")
    )
    assert code == 1
    assert "expected" in err


def test_parse_of_too_deep_a_model_is_a_negative_verdict(workspace, capsys):
    grammar = workspace / "nested.mclang"
    grammar.write_text('grammar N { A = "a" (A)?; }', encoding="utf-8")
    model = workspace / "nested.txt"
    model.write_text(" ".join(["a"] * 3000) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "parse", str(grammar), str(model))
    assert (code, out) == (1, "")
    assert err.startswith(f"vlang: {model}: line 1, col ")
    assert err.endswith(": model nested too deeply to parse\n")


def _nested_grammar(workspace, depth: int):
    grammar = workspace / f"nested{depth}.mclang"
    grammar.write_text("grammar G { A = " + "(" * depth + '"a"' + ")" * depth + "; }\n")
    model = workspace / "a.txt"
    model.write_text("a\n")
    return str(grammar), str(model)


def test_too_deep_a_grammar_is_refused_where_the_reader_stopped(workspace, capsys):
    grammar, model = _nested_grammar(workspace, 1000)
    code, out, err = _run(capsys, "check-grammar", grammar)
    assert (code, out) == (1, "")
    assert err.startswith(f"vlang: {grammar}: line 1, col ")
    assert err.endswith(": grammar nested too deeply to parse\n")
    # The same line for a grammar a command only uses.
    assert _run(capsys, "parse", grammar, model) == (2, "", err)


def test_a_grammar_too_deep_to_compile_refuses_its_models(workspace, capsys):
    # Read and validated, but compiling it for a model recurses more often
    # per group level than reading it.
    grammar, model = _nested_grammar(workspace, 300)
    assert _run(capsys, "check-grammar", grammar)[0] == 0
    assert _run(capsys, "parse", grammar, model) == (
        1, "", f"vlang: {model}: line 1, col 1: grammar nested too deeply to parse a model\n")


def test_wf_clean_model(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "wf",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "d.cd"),
        "--cc",
        "CC-supers-declared,CC-single-inheritance-syntactic",
    )
    assert code == 0
    assert "no violations" in out


def test_wf_reports_violations_and_exits_nonzero(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "wf",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "dup.cd"),
        "--cc",
        "CC-single-inheritance-syntactic",
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert any("CC-unique-class-names" in l for l in lines)
    assert any("CC-single-inheritance-syntactic" in l for l in lines)
    assert lines == sorted(lines)


def test_wf_unknown_condition_is_usage_error(workspace, capsys):
    code, _, err = _run(
        capsys,
        "wf",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "d.cd"),
        "--cc",
        "CC-nope",
    )
    assert (code, err) == (2, "vlang: unknown context condition CC-nope for language CDSimp\n")


UNEXPANDED = {
    "f.mclang": 'grammar Fresh { A = "a" (items:B)*; B = "b" x:IDENT ";"; '
    'sugar C for B = "c" y:IDENT ";"; }',
    "f.txt": "a c one ;",
}


def _diagram(name: str, body: str = "") -> str:
    return (
        f"featurediagram {name} {{ vp v{name} for theory T {{ "
        f"optional feature F kind semantic-domain; }} {body} }}\n"
    )


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["parse", "--minimal"], UNEXPANDED,
         "no expander registered for sugar production C of language Fresh"),
        (["wf"], UNEXPANDED,
         "no expander registered for sugar production C of language Fresh"),
        (["fm-check"], {"a.fd": "featurediagram D { }\n", "b.fd": "featurediagram D { }\n"},
         "duplicate diagram names in scope"),
        (["fm-check"], {"a.fd": _diagram("A"), "b.fd": _diagram("B")},
         "feature F is declared in both A and B; feature names must be workspace-unique"),
        (["fm-check"], {"d.fd": _diagram("D", "constraint F requires Ghost;")},
         "constraint in D references unknown feature Ghost"),
    ],
    ids=["parse-desugar", "wf-desugar", "duplicate-diagram", "shared-feature", "unknown-feature"],
)
def test_library_errors_reach_main_as_one_usage_line(workspace, capsys, argv, files, message):
    # No handler wraps these: main turns each into one `vlang:` line, exit 2.
    for name, text in files.items():
        (workspace / name).write_text(text, encoding="utf-8")
    args = [str(workspace / name) for name in files]
    assert _run(capsys, *argv, *args) == (2, "", f"vlang: {message}\n")


def test_fm_check_accepts_example_selection(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "fm-check",
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "cd.conf"),
    )
    assert code == 0
    assert "OK" in out


def test_fm_check_rejects_excluded_combination(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "fm-check",
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "bad.conf"),
    )
    assert code == 1
    assert out.splitlines() == [
        "VIOLATION CDSimpSemVar excludes MapSuperCDirect "
        "with SystemModelVar.SingleInheritance"
    ]


def test_generate_writes_both_theories(workspace, capsys):
    out_dir = workspace / "gen"
    code, out, _ = _run(
        capsys,
        "generate",
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "cd.conf"),
        "--out",
        str(out_dir),
    )
    assert code == 0
    assert (out_dir / "SystemModel.thy.txt").read_text() == golden("SystemModel.thy.txt")
    assert (out_dir / "CDSimpSem.thy.txt").read_text() == golden("CDSimpSem.thy.txt")


def test_generate_refuses_invalid_selection(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "generate",
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "bad.conf"),
        "--out",
        str(workspace / "gen"),
    )
    assert code == 1
    assert "VIOLATION" in out
    assert not (workspace / "gen").exists()


def test_unbound_domain_feature_is_refused(workspace, capsys):
    # A valid selection of a domain feature no predicate is bound to.
    (workspace / "ghost.fd").write_text(bundled.EXAMPLE_FD_TEXT.replace(
        "kind semantic-domain;",
        "kind semantic-domain;\n        optional feature Ghost kind semantic-domain;",
    ))
    (workspace / "ghost.conf").write_text("configuration G for SystemModelVar { select Ghost; }\n")
    files = [str(workspace / n) for n in ("ghost.fd", "ghost.conf", "cd.conf")]
    code, out, err = _run(capsys, "sem", str(workspace / "cdsimp.mclang"), str(workspace / "d.cd"), *files)
    assert (code, out, err) == (2, "", "vlang: feature Ghost provides no predicate valid-Ghost\n")
    code, out, err = _run(capsys, "generate", *files, "--out", str(workspace / "gen"))
    assert (code, out) == (1, "")
    assert err == "generation failed: feature Ghost provides no predicate valid-Ghost\n"
    assert not (workspace / "gen").exists()


def test_unbound_mapping_feature_is_refused(workspace, capsys):
    # A valid selection of a mapping feature no function is bound to.
    (workspace / "ghost.fd").write_text(bundled.EXAMPLE_FD_TEXT.replace(
        "    constraint",
        "    vp vGhost for theory CDSimpSem {\n"
        "        optional feature GhostMapping kind semantic-mapping;\n"
        "    }\n"
        "    constraint",
    ))
    (workspace / "ghost.conf").write_text(
        "configuration G for CDSimpSemVar { select MapSuperCDelegate; select GhostMapping; }\n"
    )
    files = [str(workspace / n) for n in ("ghost.fd", "sm.conf", "ghost.conf")]
    cd = [str(workspace / "cdsimp.mclang"), str(workspace / "d.cd")]
    message = "feature GhostMapping provides no mapping function to bind mSuperClasses\n"
    assert _run(capsys, "sem", *cd, *files) == (2, "", "vlang: " + message)
    refine = ["analyze", "refine", *cd, str(workspace / "d.cd"), *files]
    assert _run(capsys, *refine) == (2, "", "vlang: " + message)
    # Only a class diagram binds the mapping; assertions need none.
    code, out, _ = _run(capsys, "analyze", "consistent", str(workspace / "cda.mclang"),
                        str(workspace / "pos.cda"), *files)
    assert (code, out.startswith("RESULT holds=true kind=consistent")) == (0, True)
    out_dir = workspace / "gen"
    out_dir.mkdir()
    code, out, err = _run(capsys, "generate", *files, "--out", str(out_dir))
    assert (code, out, err) == (1, "", "generation failed: " + message)
    assert list(out_dir.iterdir()) == []


TWO_OPTIONAL_MAPPINGS_FD = bundled.DOMAIN_FD_TEXT + """\
featurediagram CDSimpSemVar {
    vp vDirect for theory CDSimpSem {
        optional feature MapSuperCDirect kind semantic-mapping;
    }
    vp vDelegate for theory CDSimpSem {
        optional feature MapSuperCDelegate kind semantic-mapping;
    }
}
"""


@pytest.mark.parametrize("selects, message", [
    ("select MapSuperCDirect; select MapSuperCDelegate;",
     "mSuperClasses bound by more than one selected variant: MapSuperCDelegate, MapSuperCDirect"),
    ("", "no mapping variant selected; mSuperClasses remains unbound"),
], ids=["both", "neither"])
def test_generate_binds_the_mapping_by_the_rule_of_sem(workspace, capsys, selects, message):
    # Optional variation points bind no xor, so only the selection tells
    # whether mSuperClasses is bound exactly once.
    (workspace / "opt.fd").write_text(TWO_OPTIONAL_MAPPINGS_FD)
    (workspace / "opt.conf").write_text(f"configuration O for CDSimpSemVar {{ {selects} }}\n")
    files = [str(workspace / n) for n in ("opt.fd", "sm.conf", "opt.conf")]
    code, _, err = _run(capsys, "sem", str(workspace / "cdsimp.mclang"), str(workspace / "d.cd"), *files)
    assert (code, err) == (2, f"vlang: {message}\n")
    out_dir = workspace / "gen"
    code, out, err = _run(capsys, "generate", *files, "--out", str(out_dir))
    assert (code, out, err) == (1, "", f"generation failed: {message}\n")
    assert not out_dir.exists()


TWO_LANGUAGE_MAPPING_FD = bundled.DOMAIN_FD_TEXT + """\
featurediagram CDSimpSemVar {
    vp vA for theory FooSem {
        xor {
            feature MapSuperCDirect kind semantic-mapping;
            feature MapSuperCDelegate kind semantic-mapping;
        }
    }
    vp vEmpty for theory CDSimpSem {
    }
}
"""


def test_a_mapping_diagram_names_one_language_theory(workspace, capsys):
    # A mapping bound on FooSem's point must not be applied to CDSimp models
    # or written out as CDSimpSem's theory.
    (workspace / "two.fd").write_text(TWO_LANGUAGE_MAPPING_FD)
    files = [str(workspace / n) for n in ("two.fd", "sm.conf", "cd.conf")]
    message = ("vlang: mapping diagram CDSimpSemVar attaches variation points to more than "
               "one language theory: CDSimpSem, FooSem\n")
    out_dir = workspace / "gen"
    models = [str(workspace / n) for n in ("cdsimp.mclang", "d.cd", "abs.cd")]
    for argv in (["generate", *files, "--out", str(out_dir)],
                 ["sem", *models[:2], *files],
                 ["analyze", "refine", *models, *files]):
        assert _run(capsys, *argv) == (2, "", message)
    assert not out_dir.exists()


def test_selected_presentation_feature_binds_no_predicate(workspace, capsys):
    # Only semantic-domain features bind valid-F; sem and generate agree.
    (workspace / "pretty.fd").write_text(bundled.EXAMPLE_FD_TEXT.replace(
        "kind semantic-domain;",
        "kind semantic-domain;\n        optional feature Pretty kind presentation;",
    ))
    (workspace / "pretty.conf").write_text("configuration P for SystemModelVar { select Pretty; }\n")
    files = [str(workspace / n) for n in ("pretty.fd", "sm.conf", "pretty.conf", "cd.conf")]
    code, out, err = _run(capsys, "sem", str(workspace / "cdsimp.mclang"), str(workspace / "d.cd"), *files)
    assert (code, out.split(" ")[:2], err) == (0, ["SEM", "count=6"], "")
    out_dir = workspace / "gen"
    code, out, err = _run(capsys, "generate", *files, "--out", str(out_dir))
    assert (code, err) == (0, "")
    names = ["SystemModel.thy.txt", "CDSimpSem.thy.txt"]
    assert out.splitlines() == [(out_dir / n).as_posix() for n in names]
    assert all((out_dir / n).read_text() == golden(n) for n in names)


def test_generate_into_an_existing_file_is_a_file_error(workspace, capsys):
    target = workspace / "afile"
    target.write_text("kept\n")
    files = [str(workspace / n) for n in ("example.fd", "sm.conf", "cd.conf")]
    code, out, err = _run(capsys, "generate", *files, "--out", str(target))
    assert (code, out, err) == (2, "", f"vlang: cannot write {target}: File exists\n")
    assert target.read_text() == "kept\n"


def test_cli_import_leaves_the_fixture_texts_unloaded(workspace, capsys):
    # Sugar expanders and context conditions are bound in the modules that
    # read them, so a fresh interpreter running the CLI never loads bundled.
    (workspace / "twice.cd").write_text("classdiagram D { classes A, A; }\n")
    runs = [
        ["parse", str(workspace / "cd.mclang"), str(workspace / "sugar.cd"), "--minimal"],
        ["wf", str(workspace / "cd.mclang"), str(workspace / "sugar.cd")],
        ["wf", str(workspace / "cd.mclang"), str(workspace / "twice.cd")],
    ]
    script = (
        "import sys\n"
        "from vlang.cli import main\n"
        "loaded = 'vlang.bundled' in sys.modules\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print('EXIT', codes, 'bundled loaded:', loaded or 'vlang.bundled' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    outputs = [_run(capsys, *argv)[1] for argv in runs]
    assert "CDCClasses" not in outputs[0] and outputs[0].count("(CDCClass ") == 2
    assert outputs[1] == "OK 1 conditions, no violations\n"
    assert outputs[2].startswith("CC CC-unique-class-names ")
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert fresh.stdout == "".join(outputs) + "EXIT [0, 0, 1] bundled loaded: False\n"


def test_unknown_stereotype_is_one_diagnostic_line(workspace, capsys):
    (workspace / "st.cd").write_text(
        "classdiagram D { <<entity>> class A; <<persistent>> <<entity>> class B; }\n"
    )
    conf = [str(workspace / n) for n in ("example.fd", "sm.conf", "cd.conf")]
    stereotyped = ["sem", str(workspace / "cd.mclang"), str(workspace / "st.cd"), *conf]
    code, plain, _ = _run(capsys, "sem", str(workspace / "cd.mclang"), str(workspace / "abs.cd"), *conf)
    warned = (
        "vlang: warning: ignoring unknown stereotype <<entity>> on class A\n"
        "vlang: warning: ignoring unknown stereotype <<entity>> on class B\n"
        "vlang: warning: ignoring unknown stereotype <<persistent>> on class B\n"
    )
    # Each run reports again, and a query reports a class once however many
    # of its models declare it.
    assert _run(capsys, *stereotyped) == (code, plain, warned)
    assert _run(capsys, *stereotyped) == (code, plain, warned)
    equiv = ["analyze", "equiv", str(workspace / "cd.mclang"), str(workspace / "st.cd"),
             str(workspace / "st.cd"), *conf]
    code, out, err = _run(capsys, *equiv)
    assert (code, out.startswith("RESULT holds=true kind=equiv"), err) == (0, True, warned)


def test_sem_counts_and_witnesses(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "sem",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "d.cd"),
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "cd.conf"),
        "--max-objects",
        "0",
        "--witnesses",
        "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SEM count=2 bounds=extra={};maxObjects=0;attrs={}"
    assert lines[1] == "WITNESS 1"
    assert lines[2] == "CLASSES A B"
    assert lines[3] == "SUB (A,A) (A,B) (B,B)"


def _sem_args(workspace, *extra: str) -> list[str]:
    return [
        "sem",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "d.cd"),
        str(workspace / "example.fd"),
        *extra,
    ]


def test_sem_prints_at_most_the_members_it_has(workspace, capsys):
    conf = [str(workspace / "sm.conf"), str(workspace / "cd.conf")]
    code, out, _ = _run(capsys, *_sem_args(workspace, *conf, "--max-objects", "0", "--witnesses", "5"))
    assert code == 0
    assert out.splitlines()[0] == "SEM count=2 bounds=extra={};maxObjects=0;attrs={}"
    assert [line for line in out.splitlines() if line.startswith("WITNESS")] == ["WITNESS 1", "WITNESS 2"]


def test_sem_rejects_negative_witnesses(workspace, capsys):
    conf = [str(workspace / "sm.conf"), str(workspace / "cd.conf")]
    code, out, err = _run(capsys, *_sem_args(workspace, *conf, "--witnesses", "-1"))
    assert code == 2
    assert out == ""
    assert err == "vlang: --witnesses must be non-negative\n"


def test_semantics_config_is_built_once(workspace, capsys, monkeypatch):
    calls = {"config": 0, "validate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    config = counting("config", semantics.make_semantics_config)
    monkeypatch.setattr(semantics, "make_semantics_config", config)
    validate = counting("validate", features.validate_configurations)
    monkeypatch.setattr(features, "validate_configurations", validate)
    conf = [str(workspace / "sm.conf"), str(workspace / "cd.conf")]
    code, out, err = _run(capsys, *_sem_args(workspace, *conf, "--max-objects", "0"))
    assert (code, out, err) == (0, "SEM count=2 bounds=extra={};maxObjects=0;attrs={}\n", "")
    assert calls == {"config": 1, "validate": 1}


def _unpruned(monkeypatch) -> None:
    """Give `sem`'s enumerator only the demanded classes and caps; the frame
    filter then checks the query's `sub` pairs and attrs on each frame."""
    enumerate_systems = semantics.enumerate_systems

    def unpruned(bounds, demands, valid):
        loose = Demands(demands.classes, singletons=demands.singletons)
        return enumerate_systems(bounds, loose, lambda frame: valid(frame) and demands.frame_holds(frame))

    monkeypatch.setattr(semantics, "enumerate_systems", unpruned)


@pytest.mark.parametrize("model, count", [
    ("class A extends B; class B;", 2),
    ("class A extends B, C; class B; class C extends B;", 4),
])
def test_direct_mapping_offers_only_frames_it_accepts(workspace, capsys, model, count):
    # Direct mapping without a domain variant demands only classes and `sub`
    # pairs, which bound the enumeration: no offered frame is rejected.
    (workspace / "m.cd").write_text(f"classdiagram D {{ {model} }}\n")
    files = ("cdsimp.mclang", "m.cd", "example.fd", "bad.conf")
    counts = zeroed_counts()
    code, out, _ = _run(capsys, "sem", *(str(workspace / n) for n in files), "--max-objects", "0")
    assert (code, out) == (0, f"SEM count={count} bounds=extra={{}};maxObjects=0;attrs={{}}\n")
    assert counts["offered"] == counts["accepted"] == count


def test_pair_bounds_cut_the_four_class_chain_from_355_frames_to_8(workspace, capsys, monkeypatch):
    (workspace / "chain.cd").write_text(
        "classdiagram D { class A extends B; class B extends C; class C extends D; class D; }\n"
    )
    files = ("cdsimp.mclang", "chain.cd", "example.fd", "bad.conf")
    argv = ["sem", *(str(workspace / n) for n in files), "--max-objects", "0", "--witnesses", "8"]
    outs = []
    for prune, frames in ((False, 355), (True, 8)):  # all preorders (A000798), then the pruned
        with monkeypatch.context() as patch:
            if not prune:
                _unpruned(patch)
            counts = zeroed_counts()
            code, out, _ = _run(capsys, *argv)
        assert (code, out.splitlines()[0]) == (0, "SEM count=8 bounds=extra={};maxObjects=0;attrs={}")
        assert counts["offered"] == frames
        outs.append(out)
    assert outs[0] == outs[1]


def test_semantics_config_errors(workspace, capsys):
    sm, cd, bad = (str(workspace / n) for n in ("sm.conf", "cd.conf", "bad.conf"))
    code, out, err = _run(capsys, *_sem_args(workspace, sm, bad))
    assert (code, err) == (1, "")
    assert out == (
        "VIOLATION CDSimpSemVar excludes MapSuperCDirect "
        "with SystemModelVar.SingleInheritance\n"
    )
    code, out, err = _run(capsys, *_sem_args(workspace, sm, cd, "--max-objects", "-1"))
    assert (code, out, err) == (2, "", "vlang: max_objects must be non-negative\n")
    code, out, err = _run(capsys, *_sem_args(workspace, sm, bad, "--max-objects", "-1"))
    assert (code, err) == (1, "")
    assert out.startswith("VIOLATION CDSimpSemVar excludes MapSuperCDirect")
    nowhere = workspace / "nowhere.conf"
    nowhere.write_text("configuration X for Nowhere { }\n")
    code, out, err = _run(capsys, *_sem_args(workspace, sm, str(nowhere)))
    assert (code, out) == (2, "")
    assert err == "vlang: configuration X references diagram Nowhere which is not in scope\n"
    domain_only = workspace / "domain.fd"
    domain_only.write_text(bundled.EXAMPLE_FD_TEXT.split("featurediagram CDSimpSemVar")[0])
    code, out, err = _run(capsys, "sem", str(workspace / "cdsimp.mclang"),
                          str(workspace / "d.cd"), str(domain_only), sm)
    assert (code, out) == (2, "")
    assert err == (
        "vlang: expected one semantic-domain and one semantic-mapping diagram, "
        "found 1 and 0\n"
    )


def test_analyze_refine_holds(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "analyze",
        "refine",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "d.cd"),
        str(workspace / "abs.cd"),
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "cd.conf"),
        "--max-objects",
        "0",
    )
    assert code == 0
    assert out.startswith("RESULT holds=true kind=refine ")


def test_analyze_refine_reverse_fails_with_counterexample(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "analyze",
        "refine",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "abs.cd"),
        str(workspace / "d.cd"),
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "cd.conf"),
        "--max-objects",
        "0",
    )
    assert code == 1
    assert out.startswith("RESULT holds=false kind=refine ")
    assert "COUNTEREXAMPLE" in out
    assert "SUB (A,A) (B,B)" in out


def test_analyze_consistent_across_languages(workspace, capsys):
    common = [
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "cd.conf"),
        "--max-objects",
        "0",
    ]
    code, out, _ = _run(
        capsys,
        "analyze",
        "consistent",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "d.cd"),
        str(workspace / "cda.mclang"),
        str(workspace / "pos.cda"),
        *common,
    )
    assert code == 0
    assert "holds=true kind=consistent" in out
    code, out, _ = _run(
        capsys,
        "analyze",
        "consistent",
        str(workspace / "cdsimp.mclang"),
        str(workspace / "d.cd"),
        str(workspace / "cda.mclang"),
        str(workspace / "neg.cda"),
        *common,
    )
    assert code == 1
    assert "holds=false kind=consistent" in out


def test_analyze_equiv(workspace, capsys):
    code, out, _ = _run(
        capsys,
        "analyze",
        "equiv",
        str(workspace / "cd.mclang"),
        str(workspace / "sugar.cd"),
        str(workspace / "abs.cd"),
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "cd.conf"),
        "--max-objects",
        "0",
    )
    assert code == 0
    assert "holds=true kind=equiv" in out


def test_output_carries_no_ansi_when_not_a_tty(workspace, capsys, monkeypatch):
    monkeypatch.setenv("VLANG_COLOR", "0")
    _, out, _ = _run(
        capsys,
        "fm-check",
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "cd.conf"),
    )
    assert "\x1b[" not in out


def test_every_subcommand_help_lists_all_flags():
    parser = build_parser()
    subactions = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert subactions
    commands = subactions[0].choices
    assert set(commands) == {
        "check-grammar", "parse", "wf", "fm-check", "generate", "sem", "analyze",
    }
    for name, sub in commands.items():
        help_text = sub.format_help()
        for action in sub._actions:
            for option in action.option_strings:
                assert option in help_text, (name, option)


def _parsed(capsys, parse, argv):
    try:
        outcome = parse(argv)
    except SystemExit as exc:
        outcome = exc.code
    return outcome, *capsys.readouterr()


_REFUSED_ARGV = [[], ["-h"], ["nope"], ["analyze", "sideways", "g.mclang"]] + [
    [name, *args]
    for name in cli.SUBCOMMANDS
    for args in (
        ["--help"],
        [],
        ["g.mclang", "m.cd", "x.fd", "--max-objects", "many"],
        ["refine", "g.mclang", "x.fd", "--bogus"],
    )
]


@pytest.mark.parametrize("argv", _REFUSED_ARGV, ids=" ".join)
def test_one_subparser_refuses_as_the_full_parser(capsys, monkeypatch, argv):
    # `main` parses with the named subcommand's parser alone; the help,
    # usage errors and exit codes must be those of the full parser.
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parsed(capsys, build_parser().parse_args, argv)
    assert expected[0] in (0, 2)
    assert _parsed(capsys, main, argv) == expected


@pytest.mark.parametrize("argv", [
    ["check-grammar", "g.mclang"],
    ["parse", "g.mclang", "m.cd", "--minimal"],
    ["wf", "g.mclang", "m.cd", "--cc", "CC-a"],
    ["fm-check", "x.fd", "y.conf"],
    ["generate", "x.fd", "--out", "gen"],
    ["sem", "--witnesses", "2", "g.mclang", "m.cd", "x.fd", "--max-objects", "0"],
    ["analyze", "equiv", "g.mclang", "a.cd", "b.cd", "x.fd", "--extra-classes", "X"],
], ids=lambda argv: argv[0])
def test_one_subparser_parses_as_the_full_parser(argv):
    assert vars(cli._namespace(argv)) == vars(build_parser().parse_args(argv))


def test_one_subcommand_run_twice_keeps_no_flag_values(workspace, capsys):
    # `main` builds each subcommand's parser once per process; the flags of
    # one run must not reach the next.
    conf = [str(workspace / "sm.conf"), str(workspace / "cd.conf")]
    plain = _sem_args(workspace, *conf)
    flagged = _sem_args(workspace, *conf, "--max-objects", "0", "--witnesses", "2", "--extra-classes", "X")
    cli._subparser.cache_clear()
    fresh = _run(capsys, *plain)
    assert fresh[1].splitlines()[0] == "SEM count=6 bounds=extra={};maxObjects=1;attrs={}"
    assert _run(capsys, *flagged) != fresh
    assert _run(capsys, *plain) == fresh


def test_one_subparser_help_fits_each_terminal_width(capsys, monkeypatch):
    helps = []
    for columns in ("60", "160"):
        monkeypatch.setenv("COLUMNS", columns)
        expected = _parsed(capsys, build_parser().parse_args, ["sem", "--help"])
        assert _parsed(capsys, main, ["sem", "--help"]) == expected
        helps.append(expected)
    assert helps[0] != helps[1]


def test_exit_codes_reflect_verdicts_only(workspace, capsys):
    # the same invocation yields the same exit code on repeat
    args = (
        "fm-check",
        str(workspace / "example.fd"),
        str(workspace / "sm.conf"),
        str(workspace / "bad.conf"),
    )
    first, _, _ = _run(capsys, *args)
    second, _, _ = _run(capsys, *args)
    assert first == second == 1


MIXED_FD = """\
featurediagram Mixed {
    vp vObject for theory Object {
        optional feature SingleInheritance kind semantic-domain;
    }
    vp vMapSuperClasses for theory CDSimpSem {
        xor {
            feature MapSuperCDirect kind semantic-mapping;
            feature MapSuperCDelegate kind semantic-mapping;
        }
    }
}
"""

TWO_DOMAINS_FD = """\
featurediagram DomA {
    vp vObject for theory Object {
        optional feature SingleInheritance kind semantic-domain;
    }
}
featurediagram DomB {
    vp vType for theory Type {
        optional feature Other kind semantic-domain;
    }
}
"""


@pytest.mark.parametrize(
    "fd, conf, message",
    [
        (
            MIXED_FD,
            "configuration M for Mixed { select SingleInheritance; select MapSuperCDelegate; }\n",
            "diagram Mixed mixes domain and mapping features",
        ),
        (
            TWO_DOMAINS_FD,
            "configuration A for DomA { select SingleInheritance; }\n"
            "configuration B for DomB { }\n",
            "expected one semantic-domain and one semantic-mapping diagram, found 2 and 0",
        ),
    ],
    ids=["mixed-diagram", "two-domain-diagrams"],
)
def test_generate_refuses_the_diagrams_sem_refuses(workspace, capsys, fd, conf, message):
    # generate decides each diagram's role by sem's rule, so a selection is
    # never dropped without a word.
    (workspace / "roles.fd").write_text(fd)
    (workspace / "roles.conf").write_text(conf)
    files = [str(workspace / "roles.fd"), str(workspace / "roles.conf")]
    out_dir = workspace / "gen"
    out_dir.mkdir()
    code, out, err = _run(capsys, "generate", *files, "--out", str(out_dir))
    assert (code, out, err) == (2, "", f"vlang: {message}\n")
    assert list(out_dir.iterdir()) == []
    assert _run(capsys, "sem", str(workspace / "cdsimp.mclang"), str(workspace / "d.cd"),
                *files) == (2, "", f"vlang: {message}\n")


ITEMS = 'D = "d" Name:IDENT "{" (items:Item)* "}"; Item = "item" Label:IDENT ";";'
IDENTS = 'D = "d" Name:IDENT "{" (x:IDENT)* "}";'
_CLASS = 'CDCClass = "class" Name:IDENT'
_EXPANSION = 'CDCClasses must be sugar for CDCClass(Name: IDENT, scl: "IDENT list", stereotypes: "IDENT set")'
# `scl` holds a node, which no class-diagram hook reads.
_SUP = (bundled.CDSIMP_GRAMMAR_TEXT.replace('scl:IDENT ("," scl:IDENT)*', "scl:Sup")
        .replace("}\n", 'Sup = "s" X:IDENT; }\n'))


@pytest.mark.parametrize(
    "grammar, model, argv, message",
    [
        (f"grammar CDSimp {{ {ITEMS} }}", "d X { item a; }", ["wf"],
         "Item has no field Name"),
        (f"grammar Mine {{ {ITEMS.replace('D =', 'CDDefinition =')} }}", "d X { item a; }",
         ["sem"], "Item has no field Name"),
        (f"grammar Mine {{ {ITEMS.replace('D =', 'AssertionDoc =')} }}", "d X { item a; }",
         ["sem"], "Item has no field left"),
        (f'grammar CD {{ {ITEMS} sugar CDCClasses for Item = "many" Label:IDENT ";"; }}',
         "d X { many a; }", ["parse", "--minimal"], "CDCClasses has no field names"),
        # The class-list expander builds CDCClass nodes with exactly these
        # fields, so it expands only a sugar for a CDCClass that has them.
        (f'grammar CD {{ {ITEMS} sugar CDCClasses for Item = "many" names:IDENT ("," names:IDENT)* ";"; }}',
         "d X { item q; many a, b; }", ["parse", "--minimal"], _EXPANSION),
        (bundled.CD_GRAMMAR_TEXT.replace("<<?>> ", ""), "classdiagram D { classes a, b; }",
         ["parse", "--minimal"], _EXPANSION),
        (bundled.CD_GRAMMAR_TEXT.replace(";\n    sugar", ' ("doc" Doc:IDENT)?;\n    sugar'),
         "classdiagram D { classes a, b; }", ["parse", "--minimal"], _EXPANSION),
        (bundled.CD_GRAMMAR_TEXT.replace('scl:IDENT ("," scl:IDENT)*', "scl:IDENT"),
         "classdiagram D { classes a, b; }", ["parse", "--minimal"], _EXPANSION),
        (bundled.CDSIMP_GRAMMAR_TEXT.replace(_CLASS, 'CDCClass = "class" (Name:IDENT)*'),
         "classdiagram D { class A; }", ["wf"], 'CDCClass field Name is "IDENT list", expected IDENT'),
        (bundled.CDSIMP_GRAMMAR_TEXT.replace(_CLASS, 'CDCClass = "class" Name:N')
         .replace("}\n", 'N = "n" X:IDENT; }\n'),
         "classdiagram D { class n A; }", ["sem"], "CDCClass field Name is N, expected IDENT"),
        (_SUP, "classdiagram D { class A extends s B; }", ["wf", "--cc", "CC-supers-declared"],
         'CDCClass field scl is "Sup option", expected "IDENT list" or "IDENT option"'),
        (bundled.CDSIMP_GRAMMAR_TEXT.replace(_CLASS, 'CDCClass = "class" (Name:IDENT)?'),
         "classdiagram D { class; class A; }", ["sem"],
         'CDCClass field Name is "IDENT option", expected IDENT'),
        (bundled.ASSERTION_GRAMMAR_TEXT.replace("left:IDENT", '(left:IDENT)* "<"'),
         "assertions S { sub A < B; }", ["sem"],
         'SubAssertion field left is "IDENT list", expected IDENT'),
        (bundled.CD_GRAMMAR_TEXT.replace('names:IDENT ("," names:IDENT)*', "(names:IDENT)?"),
         "classdiagram D { classes AB; }", ["sem"],
         'CDCClasses field names is "IDENT option", expected "IDENT list"'),
        (bundled.CDSIMP_GRAMMAR_TEXT.replace(_CLASS, _CLASS + ' ("is" stereotypes:IDENT)?'),
         "classdiagram D { class A is singleton; }", ["sem"],
         'CDCClass field stereotypes is "IDENT option", expected "IDENT set"'),
        (bundled.CDSIMP_GRAMMAR_TEXT.replace('("extends" scl:IDENT ("," scl:IDENT)*)?', '"extends" scl:IDENT'),
         "classdiagram D { class A extends B; }", ["wf"],
         'CDCClass field scl is IDENT, expected "IDENT list" or "IDENT option"'),
        # Statements that are IDENTs, not nodes with fields.
        (f"grammar CDSimp {{ {IDENTS} }}", "d X { a b }", ["wf"],
         'D field x is "IDENT list", expected a production list'),
        (f"grammar Mine {{ {IDENTS.replace('D =', 'CDDefinition =')} }}", "d X { a b }", ["sem"],
         'CDDefinition field x is "IDENT list", expected a production list'),
        (f"grammar Mine {{ {IDENTS.replace('D =', 'AssertionDoc =')} }}", "d X { a b }", ["sem"],
         'AssertionDoc field x is "IDENT list", expected a production list'),
    ],
    ids=["wf-conditions", "sem-class-diagram", "sem-assertions", "desugar-expander",
         "desugar-other-base", "desugar-no-stereotypes", "desugar-extra-field", "desugar-scl-option",
         "name-list", "name-node", "supers-node", "name-option", "left-list", "names-option",
         "stereotypes-ident", "scl-once", "wf-ident-statements", "sem-ident-classes",
         "sem-ident-assertions"],
)
def test_hooks_bound_to_a_reused_name_refuse_a_missing_field(
    workspace, capsys, grammar, model, argv, message
):
    # Hooks are bound by grammar or datatype name; a user grammar reusing the
    # name with other fields, or with a field of another type than the hook
    # reads, is refused once, against its schema, before the hook runs: not
    # crashed on or misread (`classes AB;` as classes A and B, `is
    # singleton` as the stereotypes s, i, n, ...).
    (workspace / "h.mclang").write_text(grammar)
    (workspace / "h.txt").write_text(model)
    args = [*argv, str(workspace / "h.mclang"), str(workspace / "h.txt")]
    if argv == ["sem"]:
        args += [str(workspace / n) for n in ("example.fd", "sm.conf", "cd.conf")]
    assert _run(capsys, *args) == (2, "", f"vlang: {message}\n")


def test_analyze_binds_a_grammars_expanders_once_at_its_first_model(workspace, capsys, monkeypatch):
    grammars = []
    bound_expanders = desugar.bound_expanders
    monkeypatch.setattr(desugar, "bound_expanders", lambda g: grammars.append(g.name) or bound_expanders(g))
    files = [str(workspace / n) for n in ("example.fd", "sm.conf", "cd.conf")]
    cd, sugar, plain, broken = (str(workspace / n) for n in ("cd.mclang", "sugar.cd", "abs.cd", "broken.cd"))
    code, out, _ = _run(capsys, "analyze", "refine", cd, sugar, plain, *files)
    assert (code, out.startswith("RESULT holds=true kind=refine "), grammars) == (0, True, ["CD"])
    # A grammar the expander cannot bind is refused after its first model
    # parses, and before the next one is read.
    (workspace / "h.mclang").write_text(bundled.CD_GRAMMAR_TEXT.replace("<<?>> ", ""))
    refine = ["analyze", "refine", str(workspace / "h.mclang")]
    code, out, err = _run(capsys, *refine, broken, plain, *files)
    assert (code, out, err.startswith(f"vlang: {broken}:")) == (2, "", True)
    assert _run(capsys, *refine, plain, broken, *files) == (2, "", f"vlang: {_EXPANSION}\n")


_SCL = 'CDCClass field scl is "Sup option", expected "IDENT list" or "IDENT option"'
_NAME = 'CDCClass field Name is "IDENT option", expected IDENT'


# The class fields are checked once against the schema, Name before scl,
# whichever conditions run: a field no active condition reads is refused
# too, and a diagram whose Name and scl both differ reports Name.
@pytest.mark.parametrize("grammar, model, cc, want", [
    (_SUP, "classdiagram D { class A extends s B; }", [], (2, "", f"vlang: {_SCL}\n")),
    (_SUP, "classdiagram D { class A extends s B; }",
     ["--cc", "CC-supers-declared,CC-single-inheritance-syntactic"], (2, "", f"vlang: {_SCL}\n")),
    (_SUP.replace(_CLASS, 'CDCClass = "class" (Name:IDENT)?'),
     "classdiagram D { class A extends s B; class; }", ["--cc", "CC-supers-declared"],
     (2, "", f"vlang: {_NAME}\n")),
    (_SUP.replace(_CLASS, 'CDCClass = "class" (Name:IDENT)?'),
     "classdiagram D { class A extends s B; class; }", ["--cc", "CC-single-inheritance-syntactic"],
     (2, "", f"vlang: {_NAME}\n")),
], ids=["scl-unread", "scl-read", "name-before-scl", "scl-before-name"])
def test_conditions_read_the_fields_they_check_in_a_fixed_order(workspace, capsys, grammar, model, cc, want):
    (workspace / "h.mclang").write_text(grammar)
    (workspace / "h.txt").write_text(model)
    assert _run(capsys, "wf", str(workspace / "h.mclang"), str(workspace / "h.txt"), *cc) == want


def test_an_optional_super_field_holds_one_super(workspace, capsys):
    # `scl` as an option field holds a single name, not a list of letters.
    (workspace / "opt.mclang").write_text(
        bundled.CDSIMP_GRAMMAR_TEXT.replace('scl:IDENT ("," scl:IDENT)*', "scl:IDENT")
    )
    (workspace / "opt.cd").write_text("classdiagram D { class A extends Base; class Base; }\n")
    model = [str(workspace / "opt.mclang"), str(workspace / "opt.cd")]
    code, out, _ = _run(capsys, "wf", *model, "--cc", "CC-supers-declared")
    assert (code, out) == (0, "OK 2 conditions, no violations\n")
    conf = [str(workspace / n) for n in ("example.fd", "sm.conf", "cd.conf")]
    code, out, _ = _run(capsys, "sem", *model, *conf, "--witnesses", "1")
    assert code == 0
    assert out.splitlines()[:3] == [
        "SEM count=6 bounds=extra={};maxObjects=1;attrs={}",
        "WITNESS 1",
        "CLASSES A Base",
    ]


def test_file_that_is_not_utf8_is_a_file_error(workspace, capsys):
    model, diagram = workspace / "latin1.cd", workspace / "latin1.fd"
    model.write_bytes(b"classdiagram D { class \xff; }")
    diagram.write_bytes(b"featurediagram \xff { }")
    reason = "'utf-8' codec can't decode byte 0xff in position"
    code, out, err = _run(capsys, "parse", str(workspace / "cdsimp.mclang"), str(model))
    assert (code, out) == (2, "")
    assert err.startswith(f"vlang: cannot read {model}: {reason} 23")
    code, out, err = _run(capsys, "fm-check", str(diagram), str(workspace / "sm.conf"))
    assert (code, out) == (2, "")
    assert err.startswith(f"vlang: cannot read {diagram}: {reason} 15")


# Byte runs an input file may hold: ASCII, every line end, multi-byte UTF-8,
# a byte order mark, and bytes that are not UTF-8 (0xc3 starts a two-byte
# sequence, 0x80 continues one).
_READ_PIECES = [
    b"a", b"Z", b" ", b"\t", b"\n", b"\r", b"\r\n", "\u00e9".encode(), "\u20ac".encode(),
    "\U0001d11e".encode(), b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\x80",
]


def _read_outcome(read, path):
    try:
        return read(path)
    except cli._Exit as exc:
        return str(exc), exc.exit_code


@settings(max_examples=5 * settings.default.max_examples, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_READ_PIECES), max_size=20).map(b"".join))
def test_read_equals_the_oracle(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "read.bin"
    path.write_bytes(data)
    assert _read_outcome(cli._read, str(path)) == _read_outcome(oracle_read, str(path))


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone cr"])
def test_crlf_and_lone_cr_files_read_as_their_lf_twin(workspace, capsys, newline):
    def twins(name, text):
        lf, other = workspace / f"lf-{name}", workspace / f"nl-{name}"
        lf.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", newline).encode())
        return str(lf), str(other)

    grammar, grammar_twin = twins("g.mclang", bundled.CDSIMP_GRAMMAR_TEXT)
    want = _run(capsys, "check-grammar", grammar)
    assert want[0] == 0
    assert _run(capsys, "check-grammar", grammar_twin) == want
    for name, text, code in (
        ("ok.cd", "classdiagram D {\n  class A extends B;\n\n  class B; // base\n}\n", 0),
        ("bad.cd", "classdiagram D {\n  class A;\n  class extends;\n}\n", 1),
    ):
        model, model_twin = twins(name, text)
        want = _run(capsys, "parse", grammar, model)
        got = _run(capsys, "parse", grammar_twin, model_twin)
        assert want[0] == code
        assert got == (code, want[1], want[2].replace(model, model_twin))
    assert "bad.cd: line 3, col 9: " in want[2]


@pytest.mark.parametrize("name, reason", [
    ("cdsimp.mclang/", "Not a directory"),
    ("cdsimp.mclang/x", "Not a directory"),
    (".", "Is a directory"),
    (None, "No such file or directory"),
], ids=["trailing slash", "through a file", "directory", "empty path"])
def test_a_path_that_names_no_file_is_a_file_error(workspace, capsys, name, reason):
    path = "" if name is None else f"{workspace}/{name}"
    assert _run(capsys, "check-grammar", path) == (2, "", f"vlang: cannot read {path}: {reason}\n")


def test_extra_classes_must_be_idents(workspace, capsys):
    conf = [str(workspace / n) for n in ("example.fd", "sm.conf", "cd.conf")]
    cd = [str(workspace / "cdsimp.mclang"), str(workspace / "d.cd")]
    for extra, bad in (("x y,1z", "x y"), ("C,1z", "1z")):
        message = f"vlang: extra class name '{bad}' is not an IDENT\n"
        assert _run(capsys, "sem", *cd, *conf, "--extra-classes", extra) == (2, "", message)
        refine = ["analyze", "refine", *cd, str(workspace / "d.cd"), *conf]
        assert _run(capsys, *refine, "--extra-classes", extra) == (2, "", message)
    code, out, _ = _run(capsys, "sem", *cd, *conf, "--extra-classes", "C_1,Z")
    assert (code, out.split(" ")[2]) == (0, "bounds=extra={C_1,Z};maxObjects=1;attrs={}\n")
