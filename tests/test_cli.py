from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import golden
from vlang import bundled, cli, features
from vlang.cli import build_parser, main


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
    assert code == 2
    assert "CC-nope" in err


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

    monkeypatch.setattr(cli, "make_semantics_config", counting("config", cli.make_semantics_config))
    validate = counting("validate", features.validate_configurations)
    monkeypatch.setattr(features, "validate_configurations", validate)
    conf = [str(workspace / "sm.conf"), str(workspace / "cd.conf")]
    code, out, err = _run(capsys, *_sem_args(workspace, *conf, "--max-objects", "0"))
    assert (code, out, err) == (0, "SEM count=2 bounds=extra={};maxObjects=0;attrs={}\n", "")
    assert calls == {"config": 1, "validate": 1}


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
    ],
    ids=["wf-conditions", "sem-class-diagram", "sem-assertions", "desugar-expander"],
)
def test_hooks_bound_to_a_reused_name_refuse_a_missing_field(
    workspace, capsys, grammar, model, argv, message
):
    # Hooks are bound by grammar or datatype name; a user grammar reusing the
    # name with other fields is refused, not crashed on.
    (workspace / "h.mclang").write_text(grammar)
    (workspace / "h.txt").write_text(model)
    args = [*argv, str(workspace / "h.mclang"), str(workspace / "h.txt")]
    if argv == ["sem"]:
        args += [str(workspace / n) for n in ("example.fd", "sm.conf", "cd.conf")]
    assert _run(capsys, *args) == (2, "", f"vlang: {message}\n")


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
