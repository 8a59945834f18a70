from __future__ import annotations

import gc

import pytest

from oracles import conforms, oracle_parse_model, token_rows
from vlang import bundled, cli, modelparse
from vlang.desugar import desugar_to_minimal
from vlang.grammar import parse_grammar
from vlang.lexer import Tokens
from vlang.modelparse import ModelParseError, TokenizeError, parse_model, tokenize_model
from vlang.schema import SourcePos, dump_ast


def _class_names(node, field="CDCClass"):
    return [c.fields["Name"] for c in node.fields[field]]


def test_two_class_model(cdsimp):
    node = parse_model(cdsimp, "classdiagram D { class A extends B; class B; }")
    assert node.datatype == "CDDefinition"
    assert node.fields["Name"] == "D"
    assert _class_names(node) == ["A", "B"]
    a, b = node.fields["CDCClass"]
    assert a.fields["scl"] == ["B"]
    assert b.fields["scl"] == []


def test_empty_star_yields_empty_list(cdsimp):
    node = parse_model(cdsimp, "classdiagram D { }")
    assert node.fields["CDCClass"] == []


def test_multiple_supers_collect_in_order(cdsimp):
    node = parse_model(cdsimp, "classdiagram D { class A extends B, C, E; }")
    assert node.fields["CDCClass"][0].fields["scl"] == ["B", "C", "E"]


def test_synonym_yields_identical_ast(cd):
    with_extends = parse_model(cd, "classdiagram D { class A extends B; class B; }")
    with_ext = parse_model(cd, "classdiagram D { class A ext B; class B; }")
    assert with_extends == with_ext
    assert dump_ast(with_extends) == dump_ast(with_ext)


def test_stereotypes_collect_into_set(cd):
    node = parse_model(
        cd, "classdiagram D { <<singleton>> <<entity>> class A; class B; }"
    )
    a, b = node.fields["classes"]
    assert a.fields["stereotypes"] == frozenset({"singleton", "entity"})
    assert b.fields["stereotypes"] == frozenset()


def test_duplicate_stereotypes_collapse(cd):
    node = parse_model(cd, "classdiagram D { <<singleton>> <<singleton>> class A; }")
    assert node.fields["classes"][0].fields["stereotypes"] == frozenset({"singleton"})


def test_sugar_statement_parses_where_base_is_expected(cd):
    node = parse_model(cd, "classdiagram D { class X; classes A, B; }")
    kinds = [c.datatype for c in node.fields["classes"]]
    assert kinds == ["CDCClass", "CDCClasses"]
    assert node.fields["classes"][1].fields["names"] == ["A", "B"]


def test_keywords_are_reserved(cdsimp):
    with pytest.raises(ModelParseError, match="IDENT"):
        parse_model(cdsimp, "classdiagram class { }")


def test_tokenize_error_on_illegal_character(cdsimp):
    with pytest.raises(TokenizeError, match="illegal character"):
        parse_model(cdsimp, "classdiagram D { class A% ; }")


def test_parse_error_reports_expected_set_and_position(cdsimp):
    with pytest.raises(ModelParseError) as exc:
        parse_model(cdsimp, "classdiagram D { class A extends ; }")
    assert "IDENT" in str(exc.value)
    assert exc.value.line == 1
    assert exc.value.col == 34


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    g = parse_grammar('grammar N { A = "a" (A)?; }')
    # Well inside the limit a nested model parses (README: about 250 levels).
    assert parse_model(g, " ".join(["a"] * 150)).datatype == "A"
    with pytest.raises(ModelParseError, match="nested too deeply") as exc:
        parse_model(g, " ".join(["a"] * 3000))
    # The position is that of the `a` the parser had reached.
    assert exc.value.line == 1
    assert exc.value.col % 2 == 1 and exc.value.col < 2 * 3000


def _leaked_token_columns(grammar):
    """How many token records, and objects a record holds in its slots, a
    parse of a 1,000-class model leaves for the cycle collector.  The slots
    are read as they are: the offsets and the line table a record builds on
    first read are counted only if they were built."""
    text = "classdiagram D {\n" + "".join(
        f"<<s>> class C{i} ext A{i}, B{i};\nclasses A{i}, B{i}, E{i};\n" for i in range(500)
    ) + "}"
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(parse_model(grammar, text).fields["classes"]) == 1000
        gc.collect()
        records = [o for o in gc.garbage if isinstance(o, Tokens)]
        held = {id(getattr(r, slot)) for r in records for slot in Tokens.__slots__}
        leaked = len(records) + sum(id(o) in held for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return leaked


def test_a_parse_leaves_no_cycle_that_holds_its_tokens(cd):
    # The compiled matchers reach each other only through the parse's table
    # of productions, which parse_model empties; a cycle through them would
    # keep the token columns alive until the collector next runs.
    assert _leaked_token_columns(cd) == 0


def test_a_planted_cycle_holds_the_tokens(cd, monkeypatch):
    # The same count sees a cycle: with the table left full, the record and
    # its two lists (kinds and texts) wait for the collector; no node's
    # position was read, so no offsets were built.
    class KeptNodes(dict):
        def clear(self):
            pass

    class Parse(modelparse._Parse):
        def __init__(self, grammar, tokens):
            super().__init__(grammar, tokens)
            self.nodes = KeptNodes()

    monkeypatch.setattr(modelparse, "_Parse", Parse)
    assert _leaked_token_columns(cd) == 3


class _Located(Exception):
    """Raised by `Tokens.where` where a test forbids computing positions."""


def _refuse(tokens, offset):
    raise _Located(offset)


def test_parsing_desugaring_and_dumping_work_out_no_position(cd, monkeypatch):
    text = "// header\nclassdiagram D { // two\n  <<s>> class A ext B;\n  classes B, C; // end\n}\n// last"
    dump = dump_ast(desugar_to_minimal(parse_model(cd, text), cd))
    monkeypatch.setattr(Tokens, "where", _refuse)
    node = parse_model(cd, text)
    minimal = desugar_to_minimal(node, cd)
    assert dump_ast(minimal) == dump
    # A position is computed when it is first read, and kept.
    expanded = minimal.fields["classes"][1]
    with pytest.raises(_Located):
        expanded.pos
    monkeypatch.undo()
    assert (node.pos, expanded.pos) == (SourcePos(2, 1), SourcePos(4, 3))
    monkeypatch.setattr(Tokens, "where", _refuse)
    assert expanded.pos == SourcePos(4, 3)


@pytest.mark.parametrize("text, error, message, line, col", [
    ("classdiagram D { class A% ; }", TokenizeError, "illegal character '%'", 1, 25),
    ("classdiagram D { class A extends ; }", ModelParseError, "expected IDENT, got ';'", 1, 34),
    ("classdiagram D { }\n  class", ModelParseError, "trailing input starting at 'class'", 2, 3),
    ("classdiagram D {\n  class A;\n// end", ModelParseError,
     "expected 'class', 'classes', '}', got end of input", 3, 1),
    ("classdiagram D { class A; } // end\n}", ModelParseError, "trailing input starting at '}'", 2, 1),
])
def test_an_error_works_out_its_position(cd, monkeypatch, text, error, message, line, col):
    # Only the error reads a position, and it reads the one it reports.
    monkeypatch.setattr(Tokens, "where", _refuse)
    with pytest.raises(_Located):
        parse_model(cd, text)
    monkeypatch.undo()
    with pytest.raises(error) as exc:
        parse_model(cd, text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"line {line}, col {col}: {message}", line, col)


def test_too_deep_a_nesting_works_out_its_position(monkeypatch):
    # The message and position are those of the test above.
    g = parse_grammar('grammar N { A = "a" (A)?; }')
    monkeypatch.setattr(Tokens, "where", _refuse)
    with pytest.raises(_Located):
        parse_model(g, " ".join(["a"] * 3000))


def test_wf_works_out_one_position_per_violation(tmp_path, monkeypatch, capsys):
    grammar, model = tmp_path / "cd.mclang", tmp_path / "big.cd"
    grammar.write_text(bundled.CD_GRAMMAR_TEXT, encoding="utf-8")
    classes = "".join(f"  class C{i};\n" for i in range(200))
    model.write_text(f"classdiagram D {{\n{classes}  class A ext X, Y;\n  classes C7;\n}}\n", encoding="utf-8")
    calls = []
    where = Tokens.where
    monkeypatch.setattr(Tokens, "where", lambda tokens, offset: calls.append(offset) or where(tokens, offset))
    argv = ["wf", str(grammar), str(model), "--cc", "CC-supers-declared,CC-single-inheritance-syntactic"]
    assert cli.main(argv) == 1
    violations = capsys.readouterr().out.splitlines()
    assert violations == [
        "CC CC-single-inheritance-syntactic 202:3 class A has 2 super-classes",
        "CC CC-supers-declared 202:3 class A extends undeclared class X",
        "CC CC-supers-declared 202:3 class A extends undeclared class Y",
        "CC CC-unique-class-names 203:3 duplicate class name C7",
    ]
    assert 1 <= len(calls) <= len(violations) + 1


def test_trailing_input_is_an_error(cdsimp):
    with pytest.raises(ModelParseError, match="expected|trailing"):
        parse_model(cdsimp, "classdiagram D { } class")


def test_line_comments_are_skipped(cdsimp):
    node = parse_model(
        cdsimp, "// header\nclassdiagram D { // inline\n class A; }"
    )
    assert _class_names(node) == ["A"]
    # A comment takes no columns: the end of input sits where it starts.
    assert token_rows(tokenize_model(cdsimp, "class A // end"))[-1] == ("eof", "", 1, 9)
    assert token_rows(tokenize_model(cdsimp, "class A\n// end"))[-1] == ("eof", "", 2, 1)


def test_a_mark_holding_a_comment_opener_is_one_token():
    # "//" starts a comment only where a token can start.
    g = parse_grammar('grammar G { R = "go" "://" Name:IDENT ";"; }')
    assert dump_ast(parse_model(g, "go :// x; // trailing")) == "(R Name=x)"


def test_positions_recorded_for_diagnostics(cdsimp):
    node = parse_model(cdsimp, "classdiagram D {\n  class A;\n  class B;\n}")
    a, b = node.fields["CDCClass"]
    assert (a.pos.line, a.pos.col) == (2, 3)
    assert (b.pos.line, b.pos.col) == (3, 3)


def test_star_iteration_commits_only_full_matches():
    g = parse_grammar('grammar G { S = ("a" x:IDENT)* "a" "end"; }')
    node = parse_model(g, "a one a two a end")
    assert node.fields["x"] == ["one", "two"]
    # An iteration opened by a field keeps it only when the rest matches.
    g = parse_grammar('grammar G { S = (x:IDENT ";")* y:IDENT "end"; }')
    assert parse_model(g, "p ; q end").fields == {"x": ["p"], "y": "q"}
    # A terminal after a field that may have matched: the failed second
    # iteration wrote x = c, which must not stay.
    g = parse_grammar('grammar G { S = (x:IDENT (y:IDENT)? ";")* z:IDENT "end"; }')
    assert parse_model(g, "a b ; c end").fields == {"x": ["a"], "y": ["b"], "z": "c"}
    # Nothing can fail after a field is written: the iteration writes
    # straight into the node's fields.
    g = parse_grammar('grammar G { S = ("," x:IDENT (y:IDENT)?)* ";"; }')
    assert parse_model(g, ", a b , c ;").fields == {"x": ["a", "c"], "y": ["b"]}
    # A group that opens the iteration can fail after it wrote.
    g = parse_grammar('grammar G { S = ((x:IDENT ";"))* y:IDENT "end"; }')
    assert parse_model(g, "p ; q end").fields == {"x": ["p"], "y": "q"}
    # An iteration of nodes with a stereotype slot: the third fails after
    # "<< s", and neither it nor its stereotype stays.
    g = parse_grammar(
        'grammar G { S = (cs:C)* "<<" t:IDENT "!"; C = <<?>> "c" n:IDENT; }'
    )
    node = parse_model(g, "<<p>> c a c b << s !")
    assert dump_ast(node) == "(S cs=[(C n=a stereotypes={p}),(C n=b stereotypes={})] t=s)"


def test_optional_group_backtracks_cleanly():
    g = parse_grammar('grammar G { S = ("take" x:IDENT)? y:IDENT; }')
    assert parse_model(g, "take a b").fields == {"x": "a", "y": "b"}
    assert parse_model(g, "b").fields == {"x": None, "y": "b"}


def test_determinism_across_runs(cd):
    text = "classdiagram D { <<singleton>> class A ext B; class B; classes X, Y; }"
    assert dump_ast(parse_model(cd, text)) == dump_ast(parse_model(cd, text))


def test_every_parse_conforms_to_the_derived_schema(cd, cdsimp, cdassert):
    corpus = [
        (cdsimp, "classdiagram D { }"),
        (cdsimp, "classdiagram D { class A extends B; class B; }"),
        (cd, "classdiagram D { classes A, B; <<singleton>> class C ext A; }"),
        (cdassert, "assertions S { sub A B; no sub B A; }"),
    ]
    for grammar, text in corpus:
        node = parse_model(grammar, text)
        assert conforms(node, grammar.schema), text


def test_tokenizer_classifies_words_per_grammar(cd, cdsimp):
    # "classes" is a keyword of the full language only.
    assert tokenize_model(cd, "classes").kinds[:-1] == ["keyword"]
    assert tokenize_model(cdsimp, "classes").kinds[:-1] == ["ident"]
    # Punctuation is matched longest-first.
    arrows = parse_grammar('grammar G { S = x:IDENT ("->" y:IDENT)? ("-" z:IDENT)?; }')
    assert tokenize_model(arrows, "a->b-c").texts[:-1] == ["a", "->", "b", "-", "c"]


_SUGAR_FARTHER = """grammar H { S = (T)* "end"; T = "t" x:IDENT ";";
    sugar U for T = "t" ys:IDENT "," ys:IDENT ";"; }"""
_NESTED_STAR = 'grammar G { S = (("a" x:IDENT) "b")* "a" y:IDENT; }'


@pytest.mark.parametrize("grammar, text, want", [
    (bundled.CD_GRAMMAR_TEXT, "classdiagram D { class A B; }",
     (26, "expected ';', 'ext', 'extends', got 'B'", {"';'", "'ext'", "'extends'"})),
    (bundled.CD_GRAMMAR_TEXT, "classdiagram D { <<s class A; }",
     (22, "expected '>>', got 'class'", {"'>>'"})),
    # The sugar alternative U fails farther than its base T.
    (_SUGAR_FARTHER, "t a , ; end", (7, "expected IDENT, got ';'", {"IDENT"})),
    (_SUGAR_FARTHER, "t a ; t b , c ; end", "(S T=[(T x=a),(U ys=[b,c])])"),
    (bundled.CD_GRAMMAR_TEXT, "classdiagram D { } x",
     (20, "trailing input starting at 'x'", set())),
    # The failed second iteration keeps nothing its inner group matched.
    (_NESTED_STAR, "a p b a q", "(S x=[p] y=q)"),
])
def test_exact_ast_or_diagnostic(grammar, text, want):
    g = parse_grammar(grammar)
    if isinstance(want, str):
        assert dump_ast(parse_model(g, text)) == want
        return
    col, message, expected = want
    with pytest.raises(ModelParseError) as exc:
        parse_model(g, text)
    assert str(exc.value) == f"line 1, col {col}: {message}"
    assert (exc.value.line, exc.value.col, exc.value.expected) == (1, col, expected)


_SYNONYM_STAR = 'grammar G { D = "d" (("+" | "plus") x:IDENT)* ";"; }'


@pytest.mark.parametrize("grammar, text, want", [
    (_SYNONYM_STAR, "d + a plus b c ;", (14, "expected '+', ';', 'plus', got 'c'", {"'+'", "';'", "'plus'"})),
    (bundled.CD_GRAMMAR_TEXT, "classdiagram D { class A extends ; }",
     (34, "expected IDENT, got ';'", {"IDENT"})),
    (bundled.CD_GRAMMAR_TEXT, "classdiagram D { class A ext B C; }",
     (32, "expected ',', ';', got 'C'", {"','", "';'"})),
], ids=["after a starred group opened by synonyms", "inside an optional group",
        "after a starred group opened by a terminal"])
def test_a_repetition_that_cannot_start_fails_as_the_interpreter_does(grammar, text, want):
    # A repetition that tests its opening terminal before trying its body
    # records the failure the try would have recorded.
    g = parse_grammar(grammar)
    col, message, expected = want
    for parse in (parse_model, oracle_parse_model):
        with pytest.raises(ModelParseError) as exc:
            parse(g, text)
        assert str(exc.value) == f"line 1, col {col}: {message}"
        assert (exc.value.line, exc.value.col, exc.value.expected) == (1, col, expected)
