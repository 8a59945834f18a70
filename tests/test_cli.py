from __future__ import annotations

import argparse
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
    monkeypatch.setattr(cli, "validate_configurations", validate)
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
