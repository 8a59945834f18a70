"""Judges of arbitrary systems and ASTs, and the oracles the package is
checked against: brute-force enumeration and refinement, `_preorders` as
it was before relations were ints, the configuration validator as it was
first written, the model vocabulary as the model scanner
derived it before grammars carried it, and the hook-field reader, scanner,
model parser, desugarer and input reader as they were before they were made
faster (a match for each token, blank run and newline and a record for
each token, a parser that interprets the grammar element by element, a
desugarer that copies every node, and a read through pathlib's text mode).

The package builds only systems that are base-valid and hold a query's
`Demands`, and its parser builds only conforming ASTs, so it needs none of
these judges.  Tests use them to check what the package builds, and read a
semantics set through `count` and `first`.
"""

from __future__ import annotations

import re
from itertools import chain, combinations, islice, product
from pathlib import Path
from typing import Callable, Container, Iterable, NamedTuple

from vlang.cli import _FileFailure
from vlang.desugar import EXPANDERS, DesugarError
from vlang.features import (
    Configuration,
    FeatureDiagram,
    FeatureModelError,
    FeatureRef,
    ResolutionError,
    Violation,
)
from vlang.grammar import (
    IDENT_TOKEN,
    Element,
    GrammarDef,
    Group,
    NonterminalRef,
    Production,
    StereotypeSlot,
    Terminal,
    TerminalSynonyms,
    walk,
)
from vlang.lexer import IDENT, SourceError, Tokens
from vlang.modelparse import ModelParseError, TokenizeError
from vlang.schema import (
    _SHAPES,
    STEREOTYPE_FIELD,
    AstNode,
    AstSchema,
    SchemaField,
    SourcePos,
    derive_schema,
)
from vlang.semantics import SemanticsConfig, SemanticsSet, bound_domain_features, query
from vlang.sysmodel import (
    Attr,
    Bounds,
    Demands,
    Pair,
    SystemModelLite,
    _supers,
    enumerate_systems,
    variants_valid,
)

# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def make_system(
    classes: Iterable[str] = (),
    sub: Iterable[Pair] = (),
    attrs: Iterable[Attr] = (),
    objects: Iterable[str] = (),
    class_of: Iterable[Pair] = (),
) -> SystemModelLite:
    """A system from components in any order, each sorted canonically."""
    return SystemModelLite(
        tuple(sorted(set(classes))),
        tuple(sorted(set(sub))),
        tuple(sorted(set(attrs))),
        tuple(sorted(set(objects))),
        tuple(sorted(set(class_of))),
    )


def structurally_valid(sm: SystemModelLite) -> bool:
    classes = set(sm.classes)
    for a, b in sm.sub:
        if a not in classes or b not in classes:
            return False
    owned_names: set[Pair] = set()
    for owner, name, target in sm.attrs:
        if owner not in classes or target not in classes or (owner, name) in owned_names:
            return False
        owned_names.add((owner, name))
    objects = set(sm.objects)
    if {o for o, _ in sm.class_of} != objects or len(sm.class_of) != len(objects):
        return False
    for _, c in sm.class_of:
        if c not in classes:
            return False
    return True


def eval_valid_base(sm: SystemModelLite) -> bool:
    """Base validity: structural invariants plus a reflexive and transitive
    subclassing relation."""
    if not structurally_valid(sm):
        return False
    pairs = set(sm.sub)
    if any((c, c) not in pairs for c in sm.classes):
        return False
    supers = _supers(sm)
    for a, bs in supers.items():
        for b in bs:
            for c in supers.get(b, ()):
                if (a, c) not in pairs:
                    return False
    return True


def composed_valid(selected: Iterable[str]) -> Callable[[SystemModelLite], bool]:
    """Conjunction of base validity and the predicates of the selected
    domain features, in sorted feature order: validity of any system."""
    variants = variants_valid(selected)
    return lambda sm: eval_valid_base(sm) and variants(sm)


def holds(demands: Demands, sm: SystemModelLite) -> bool:
    """Does `sm` hold every atom of `demands`, the caps included?"""
    return demands.frame_holds(sm) and demands.caps_hold(sm.class_of)


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

def valid_predicate(config: SemanticsConfig) -> Callable[[SystemModelLite], bool]:
    """Composed validity for the configured semantic domain."""
    return composed_valid(bound_domain_features(config.domain_diagram, config.domain_config))


def contains(sem: SemanticsSet, sm: SystemModelLite) -> bool:
    """Membership by predicate, independent of enumeration."""
    return eval_valid_base(sm) and sem.variants(sm) and holds(sem.demands, sm)


def full_scan_refinement(
    refined: AstNode, abstract: AstNode, config: SemanticsConfig
) -> SystemModelLite | None:
    """The first system of `refined` outside `abstract` over both models'
    classes, found by judging every system of `refined` in turn."""
    (r, a), joint, variants = query([refined, abstract], config)
    systems = enumerate_systems(config.bounds, r | Demands(joint.classes), variants)
    return next((sm for sm in systems if not holds(a, sm)), None)


def count(sem: SemanticsSet) -> int:
    """The number of systems in `sem`."""
    return sum(1 for _ in sem)


def first(sem: SemanticsSet, k: int) -> list[SystemModelLite]:
    """The first `k` systems of `sem`, in enumeration order."""
    return list(islice(sem, k))


# ---------------------------------------------------------------------------
# Configuration validation: the validator with its reference and constraint
# rules written out per case.
# ---------------------------------------------------------------------------

def _oracle_resolve(
    ref: FeatureRef,
    declared_in: str,
    diagrams_by_name: dict[str, FeatureDiagram],
    feature_home: dict[str, str],
) -> tuple[str, str]:
    if ref.diagram is not None:
        diagram = diagrams_by_name.get(ref.diagram)
        if diagram is None:
            raise ResolutionError(
                f"constraint in {declared_in} references diagram {ref.diagram} "
                "which is not in scope"
            )
        if ref.feature not in diagram.features():
            raise ResolutionError(
                f"constraint in {declared_in} references unknown feature "
                f"{ref.diagram}.{ref.feature}"
            )
        return ref.diagram, ref.feature
    home = feature_home.get(ref.feature)
    if home is None:
        raise ResolutionError(
            f"constraint in {declared_in} references unknown feature {ref.feature}"
        )
    return home, ref.feature


def oracle_validate(
    diagrams: list[FeatureDiagram], merged: list[Configuration]
) -> list[Violation]:
    """`features.validate_configurations`, with each diagram's declared and
    present features, each variation point's members, and a union of
    (diagram, feature) selections built apart, and each reference resolved
    against its diagram's feature table."""
    diagrams_by_name = {d.name: d for d in diagrams}
    if len(diagrams_by_name) != len(diagrams):
        raise FeatureModelError("duplicate diagram names in scope")

    feature_home: dict[str, str] = {}
    for d in diagrams:
        for name in d.features():
            if name in feature_home:
                raise FeatureModelError(
                    f"feature {name} is declared in both {feature_home[name]} "
                    f"and {d.name}; feature names must be workspace-unique"
                )
            feature_home[name] = d.name

    selections: dict[str, frozenset[str]] = {d.name: frozenset() for d in diagrams}
    for c in merged:
        if c.diagram not in diagrams_by_name:
            raise ResolutionError(
                f"configuration {c.name} references diagram {c.diagram} "
                "which is not in scope"
            )
        selections[c.diagram] = c.selected

    violations: list[Violation] = []

    for d in diagrams:
        selected = selections[d.name]
        declared = d.features()
        for name in sorted(selected - set(declared)):
            violations.append(Violation(d.name, "unknown-feature", name))
        present = selected & set(declared)
        for vp in d.variation_points:
            member_names = {f.name for f in vp.features}
            chosen = sorted(member_names & present)
            if vp.is_xor and len(chosen) != 1:
                violations.append(
                    Violation(
                        d.name,
                        "xor-exactly-one",
                        f"{vp.name} selected={{{','.join(chosen)}}}",
                    )
                )
            for f in vp.features:
                if f.modality == "mandatory" and f.name not in present:
                    violations.append(Violation(d.name, "mandatory-missing", f.name))

    union = {
        (diagram, feature)
        for diagram, selected in selections.items()
        for feature in selected
    }

    for d in diagrams:
        for c in d.constraints:
            src = _oracle_resolve(c.source, d.name, diagrams_by_name, feature_home)
            tgt = _oracle_resolve(c.target, d.name, diagrams_by_name, feature_home)
            if c.relation == "requires" and src in union and tgt not in union:
                violations.append(
                    Violation(
                        d.name,
                        "requires",
                        f"{c.source.render()} without {c.target.render()}",
                    )
                )
            if c.relation == "excludes" and src in union and tgt in union:
                violations.append(
                    Violation(
                        d.name,
                        "excludes",
                        f"{c.source.render()} with {c.target.render()}",
                    )
                )

    return sorted(violations, key=Violation.render)


# ---------------------------------------------------------------------------
# Enumeration: powerset loops over every component, reflexivity and
# transitivity re-written from scratch.
# ---------------------------------------------------------------------------

def _powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def oracle_base_valid(classes, sub) -> bool:
    ok = all((c, c) in sub for c in classes)
    for (a, b) in sub:
        for (c, d) in sub:
            if b == c and (a, d) not in sub:
                ok = False
    return ok


def oracle_preorders(
    classes: tuple[str, ...], must: Iterable[Pair], must_not: Iterable[Pair]
) -> list[tuple[Pair, ...]]:
    """`sysmodel._preorders` as it was before relations were ints: every
    reflexive and transitive relation over `classes` that holds each pair of
    `must` and none of `must_not`, each as a sorted tuple of pairs, ordered
    by size and then lexicographically.

    A preorder on the classes placed so far grows by a new class x with an
    up-closed set U above x and a down-closed set D below it, where every
    (d, u) in D x U is already related.  `must` names only classes of
    `classes`, and its reflexive-transitive closure holds no `must_not` pair.
    """
    must, must_not = set(must), set(must_not)
    relations: list[tuple[Pair, ...]] = [()]
    placed: list[str] = []
    for x in classes:
        subsets = [frozenset(chosen) for chosen in _powerset(placed)]

        def fitting(need: set[str], ban: set[str]) -> list[frozenset[str]]:
            need &= set(placed)
            return [s for s in subsets if need <= s and ban.isdisjoint(s)]

        above = fitting({b for a, b in must if a == x}, {b for a, b in must_not if a == x})
        below = fitting({a for a, b in must if b == x}, {a for a, b in must_not if b == x})
        grown = []
        for rel in relations:
            related = set(rel)
            ups = [s for s in above if all(b in s for a, b in rel if a in s)]
            downs = [s for s in below if all(a in s for a, b in rel if b in s)]
            for up in ups:
                for down in downs:
                    if all((d, u) in related for d in down for u in up):
                        added = ((x, x), *((x, u) for u in up), *((d, x) for d in down))
                        grown.append(tuple(sorted(rel + added)))
        relations = grown
        placed.append(x)
    relations.sort(key=lambda sub: (len(sub), sub))
    return relations


def oracle_enumerate(bounds: Bounds, required, predicate, triples: frozenset[Attr] = frozenset()):
    """All systems within bounds satisfying `predicate`, as a set.  A
    system's attrs range over every subset of the `triples` whose owner and
    target it has."""
    out = set()
    extras = set(bounds.extra_class_names) - set(required)
    for extra_choice in _powerset(sorted(extras)):
        classes = tuple(sorted(set(required) | set(extra_choice)))
        for sub in _powerset(sorted(product(classes, classes))):
            candidates = sorted(
                a for a in triples
                if a[0] in classes and a[2] in classes
            )
            for attrs in _powerset(candidates):
                if len({(o, n) for o, n, _ in attrs}) != len(attrs):
                    continue
                for count in range(bounds.max_objects + 1):
                    objects = tuple(f"o{i}" for i in range(1, count + 1))
                    for assignment in product(classes, repeat=count):
                        sm = make_system(
                            classes, sub, attrs, objects, zip(objects, assignment)
                        )
                        if predicate(sm) and sm not in out:
                            out.add(sm)
    return out


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

def conformance_violations(node: AstNode, schema: AstSchema) -> list[str]:
    """All ways `node` fails to conform to `schema`; empty when conformant.

    A field whose target is a production T also accepts instances of sugar
    datatypes declared for T (they are eliminated by desugaring).
    """
    datatypes = {dt.name: dt for dt in schema.datatypes}
    sugar_bases = {dt.name: dt.sugar_for for dt in schema.datatypes if dt.sugar_for}
    problems: list[str] = []

    def check_item(path: str, v: object, target: str) -> None:
        if target == IDENT_TOKEN:
            if not isinstance(v, str):
                problems.append(f"{path}: expected identifier, got {type(v).__name__}")
        elif not isinstance(v, AstNode):
            problems.append(f"{path}: expected {target} node, got {type(v).__name__}")
        elif v.datatype != target and sugar_bases.get(v.datatype) != target:
            problems.append(f"{path}: expected {target} node, got {v.datatype}")
        else:
            check_node(path, v)

    def check_field(path: str, v: object, f: SchemaField) -> None:
        if f.card == "set":
            if not isinstance(v, (set, frozenset)) or not all(
                isinstance(s, str) for s in v
            ):
                problems.append(f"{path}: expected a set of stereotype names")
        elif f.card == "list":
            if not isinstance(v, list):
                problems.append(f"{path}: expected list, got {type(v).__name__}")
            else:
                for i, item in enumerate(v):
                    check_item(f"{path}[{i}]", item, f.target)
        elif f.card != "option" or v is not None:
            check_item(path, v, f.target)

    def check_node(path: str, n: AstNode) -> None:
        dt = datatypes.get(n.datatype)
        if dt is None:
            problems.append(f"{path}: unknown datatype {n.datatype}")
            return
        declared = {f.label for f in dt.fields}
        for extra in sorted(set(n.fields) - declared):
            problems.append(f"{path}: unexpected field {extra}")
        for f in dt.fields:
            if f.label not in n.fields:
                problems.append(f"{path}: missing field {f.label}")
            else:
                check_field(f"{path}.{f.label}", n.fields[f.label], f)

    check_node(node.datatype, node)
    return problems


def conforms(node: AstNode, schema: AstSchema) -> bool:
    return not conformance_violations(node, schema)


def oracle_hook_field(
    node: AstNode, label: str, *shapes: type, error: type[Exception], optional: bool = False
) -> object:
    """`vlang.schema.hook_field`, testing the shape before anything else."""
    value = node.fields.get(label)
    if optional and value is None:
        return None
    if label not in node.fields:
        raise error(f"{node.datatype} has no field {label}")
    shapes = shapes or (str,)
    idents = not isinstance(value, list) or all(isinstance(v, str) for v in value)
    if not (isinstance(value, shapes) and idents):
        raise error(f"{node.datatype} field {label} is not {' or '.join(_SHAPES[s] for s in shapes)}")
    return value


# ---------------------------------------------------------------------------
# Scanning: one match for every token, blank run and newline, and one
# record per token.
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # "ident" | "keyword" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


def token_rows(tokens: Tokens) -> list[Token]:
    """The columns `vlang.lexer.scan` returns, one record per token."""
    rows = zip(tokens.kinds, tokens.texts, map(tokens.where, tokens.starts))
    return [Token(kind, text, *where) for kind, text, where in rows]


def token_name(tok: Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


def oracle_scan(
    source: str,
    punct: Iterable[str],
    error: type[SourceError],
    *,
    word: str = IDENT.pattern,
    keywords: Container[str] = frozenset(),
    strings: bool = False,
) -> list[Token]:
    """`vlang.lexer.scan`, as it was first written."""
    ordered = sorted(filter(None, punct), key=lambda p: (-len(p), p))
    longest_first = "|".join(map(re.escape, ordered))
    pattern = re.compile(
        r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>//[^\n]*)"
        + (r'|(?P<string>"[^"\n]*")' if strings else "")
        + f"|(?P<ident>{word})"
        + (f"|(?P<punct>{longest_first})" if longest_first else "")
        + r"|(?P<illegal>.)",
        re.DOTALL,
    )
    tokens: list[Token] = []
    line, line_start, end = 1, 0, len(source)
    for m in pattern.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "comment":
            if m.end() == len(source):
                end = m.start()
        elif kind != "space":
            text, col = m.group(), m.start() - line_start + 1
            if kind == "illegal":
                if strings and text == '"':
                    raise error("unterminated terminal string", line, col)
                raise error(f"illegal character {text!r}", line, col)
            if kind == "string":
                text = text[1:-1]
            elif kind == "ident" and text in keywords:
                kind = "keyword"
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Model vocabulary: collected by a walk of its own, and its pattern built at
# each scan.
# ---------------------------------------------------------------------------

def oracle_model_vocabulary(grammar: GrammarDef) -> tuple[frozenset[str], frozenset[str]]:
    """The keywords and punctuation of `grammar`'s models, as
    `tokenize_model` derived them before `parse_grammar` did: the terminal
    spellings, with ``<<`` and ``>>`` for a stereotype slot."""
    elements = [el for p in grammar.productions for el in walk(p.elements)]
    terminals = {s for el in elements if isinstance(el, (Terminal, TerminalSynonyms))
                 for s in el.all_spellings()}
    if any(isinstance(el, StereotypeSlot) for el in elements):
        terminals |= {"<<", ">>"}
    keywords = frozenset(t for t in terminals if IDENT.fullmatch(t))
    return keywords, frozenset(terminals - keywords)


def oracle_tokenize_model(grammar: GrammarDef, source: str) -> list[Token]:
    """`vlang.modelparse.tokenize_model`, with `oracle_model_vocabulary` and
    `oracle_scan`."""
    keywords, punct = oracle_model_vocabulary(grammar)
    return oracle_scan(source, punct, TokenizeError, keywords=keywords)


# ---------------------------------------------------------------------------
# Model parsing: the grammar interpreted element by element.
# ---------------------------------------------------------------------------

class _Backtrack(Exception):
    pass


_Fields = dict[str, list[object]]


class _ModelParser:
    def __init__(self, grammar: GrammarDef, source: str):
        self.alternatives = {
            p.name: (p, *(s for s in grammar.productions if s.sugar_for == p.name))
            for p in grammar.productions
        }
        self.fields = {dt.name: dt.fields for dt in derive_schema(grammar).datatypes}
        self.start = self.alternatives[grammar.start_production][0]
        self.toks = oracle_tokenize_model(grammar, source)
        self.pos = 0
        self.farthest = 0
        self.expected_at_farthest: set[str] = set()

    def _fail(self, *expected: str) -> None:
        if self.pos > self.farthest:
            self.farthest = self.pos
            self.expected_at_farthest = set(expected)
        elif self.pos == self.farthest:
            self.expected_at_farthest.update(expected)
        raise _Backtrack()

    def _peek(self) -> Token:
        return self.toks[self.pos]

    def _take_terminal(self, *spellings: str) -> None:
        tok = self._peek()
        if tok.kind in ("keyword", "punct") and tok.text in spellings:
            self.pos += 1
        else:
            self._fail(*map(repr, spellings))

    def _take_ident(self) -> str:
        tok = self._peek()
        if tok.kind != "ident":
            self._fail(IDENT_TOKEN)
        self.pos += 1
        return tok.text

    def parse(self) -> AstNode:
        try:
            node = self._node(self.start)
        except _Backtrack:
            node = None
        if node is not None and self.farthest <= self.pos:
            tok = self._peek()
            if tok.kind == "eof":
                return node
            raise ModelParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
        tok = self.toks[self.farthest]
        expected = frozenset(self.expected_at_farthest)
        message = f"expected {', '.join(sorted(expected))}, got {token_name(tok)}"
        raise ModelParseError(message, tok.line, tok.col, expected)

    def _node(self, prod: Production) -> AstNode:
        start = self._peek()
        acc: _Fields = {}
        self._sequence(prod.elements, acc)
        fields: dict[str, object] = {}
        for f in self.fields[prod.name]:
            values = acc.get(f.label, [])
            if f.card == "set":
                fields[f.label] = frozenset(values)
            elif f.card == "list":
                fields[f.label] = values
            elif f.card == "option":
                fields[f.label] = values[0] if values else None
            else:
                fields[f.label] = values[0]
        return AstNode(prod.name, fields, pos=SourcePos(start.line, start.col))

    def _sequence(self, elements: tuple[Element, ...], acc: _Fields) -> None:
        for el in elements:
            if isinstance(el, Terminal):
                self._take_terminal(el.text)
            elif isinstance(el, TerminalSynonyms):
                self._take_terminal(*el.all_spellings())
            elif isinstance(el, NonterminalRef):
                acc.setdefault(el.field_label, []).append(self._reference(el))
            elif isinstance(el, StereotypeSlot):
                self._stereotypes(acc)
            elif isinstance(el, Group):
                self._group(el, acc)

    def _reference(self, ref: NonterminalRef) -> object:
        if ref.target == IDENT_TOKEN:
            return self._take_ident()
        alternatives = self.alternatives[ref.target]
        for prod in alternatives[:-1]:
            mark = self.pos
            try:
                return self._node(prod)
            except _Backtrack:
                self.pos = mark
        return self._node(alternatives[-1])

    def _stereotypes(self, acc: _Fields) -> None:
        names = acc.setdefault(STEREOTYPE_FIELD, [])
        while self._peek().kind == "punct" and self._peek().text == "<<":
            self.pos += 1
            names.append(self._take_ident())
            self._take_terminal(">>")

    def _group(self, group: Group, acc: _Fields) -> None:
        if group.cardinality == "once":
            self._sequence(group.elements, acc)
            return
        while True:
            mark = self.pos
            matched: _Fields = {}
            try:
                self._sequence(group.elements, matched)
            except _Backtrack:
                self.pos = mark
                return
            for label, values in matched.items():
                acc.setdefault(label, []).extend(values)
            if group.cardinality == "optional" or self.pos == mark:
                return


def oracle_parse_model(grammar: GrammarDef, source: str) -> AstNode:
    """`vlang.modelparse.parse_model`, interpreting the grammar directly."""
    parser = _ModelParser(grammar, source)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser._peek()
        raise ModelParseError("model nested too deeply to parse", tok.line, tok.col) from None


# ---------------------------------------------------------------------------
# Desugaring: every node copied.
# ---------------------------------------------------------------------------

def oracle_desugar(node: AstNode, grammar: GrammarDef) -> AstNode:
    """`vlang.desugar.desugar_to_minimal`, rebuilding every node."""
    sugar = grammar.sugar_bases()

    def rewrite(n: AstNode) -> list[AstNode]:
        fields: dict[str, object] = {}
        for label, value in n.fields.items():
            fields[label] = rewrite_value(label, value, n)
        result = AstNode(n.datatype, fields, pos=n.pos)
        if n.datatype in sugar:
            expander = EXPANDERS.get((grammar.name, n.datatype))
            if expander is None:
                raise DesugarError(
                    f"no expander registered for sugar production "
                    f"{n.datatype} of language {grammar.name}"
                )
            expanded = expander(result)
            out: list[AstNode] = []
            for item in expanded:
                out.extend(rewrite(item))
            return out
        return [result]

    def rewrite_value(label: str, value: object, parent: AstNode) -> object:
        if isinstance(value, AstNode):
            nodes = rewrite(value)
            if len(nodes) != 1:
                raise DesugarError(
                    f"sugar node in field {label} of {parent.datatype} expands "
                    f"to {len(nodes)} nodes but the field holds exactly one"
                )
            return nodes[0]
        if isinstance(value, list):
            out: list[object] = []
            for item in value:
                if isinstance(item, AstNode):
                    out.extend(rewrite(item))
                else:
                    out.append(item)
            return out
        return value

    nodes = rewrite(node)
    if len(nodes) != 1:
        raise DesugarError("the root node may not be an abbreviation")
    return nodes[0]


# ---------------------------------------------------------------------------
# Reading an input file: through pathlib and a text-mode wrapper.
# ---------------------------------------------------------------------------

def oracle_read(path: str) -> str:
    """`vlang.cli._read`, as it was before it read the bytes itself."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _FileFailure(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from exc
