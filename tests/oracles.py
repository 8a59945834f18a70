"""Judges of arbitrary systems and ASTs, and the oracles the package is
checked against: brute-force enumeration and refinement, the domain
variants as predicates on whole frames, `_preorders` as it was before
relations were ints, the configuration validator as it was
first written, the model vocabulary as the model scanner
derived it before grammars carried it, and the AST dump, scanner, model
parser, desugarer, input reader, grammar, .fd and .conf readers and
grammar validation as they were before they were made faster (a string
joined per node and per value, a match for each token, blank run and
newline and a record for each token, a parser that interprets the grammar
element by element, a desugarer that copies every node, a read through
pathlib's text mode, a cursor with a method call per token, and a grammar
validated by walks of its own).

The package builds only systems that are base-valid, hold a query's
`Demands` and meet its domain variants, and its parser builds only conforming ASTs, so it needs none of
these judges.  Tests use them to check what the package builds, read a
query's systems through `walked`, and a semantics set through `members`,
`count` and `first`.
"""

from __future__ import annotations

import re
import sys
from itertools import chain, combinations, product, zip_longest
from pathlib import Path
from typing import Callable, Container, Iterable, NamedTuple

from vlang.cli import _Exit
from vlang.desugar import DesugarError, bound_expanders
from vlang.features import (
    FEATURE_KINDS,
    Configuration,
    CrossConstraint,
    Feature,
    FeatureDiagram,
    FeatureModelError,
    FeatureRef,
    FeatureSyntaxError,
    ResolutionError,
    VariationPoint,
    Violation,
    _check_diagram,
)
from vlang.features import _pattern as _feature_pattern
from vlang.grammar import (
    _PUNCT,
    IDENT_TOKEN,
    Element,
    GrammarDef,
    GrammarError,
    Group,
    NonterminalRef,
    Production,
    StereotypeSlot,
    Terminal,
    TerminalSynonyms,
)
from vlang.lexer import IDENT, SourceError, TokenPattern, Tokens, scan, token_pattern
from vlang.modelparse import ModelParseError, TokenizeError
from vlang.schema import (
    STEREOTYPE_FIELD,
    AstNode,
    AstSchema,
    SchemaDatatype,
    SchemaField,
    SourcePos,
)
from vlang.semantics import SemanticsConfig, SemanticsSet, bound_domain_features, query
from vlang.sysmodel import (
    DOMAIN_VARIANTS,
    Attr,
    Bounds,
    Demands,
    Pair,
    PlacementRule,
    SystemModelLite,
    domain_variant,
    tally,
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


def _supers(sm: SystemModelLite) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for a, b in sm.sub:
        out.setdefault(a, set()).add(b)
    return out


def valid_single_inheritance(sm: SystemModelLite) -> bool:
    """Any two superclasses of one class are themselves related."""
    pairs = set(sm.sub)
    for sups in _supers(sm).values():
        for c2, c3 in combinations(sorted(sups), 2):
            if (c2, c3) not in pairs and (c3, c2) not in pairs:
                return False
    return True


# Feature name F -> its predicate valid-F on a whole frame, which the
# placement rule `sysmodel.DOMAIN_VARIANTS[F]` judges a placement at a time.
FRAME_VARIANTS: dict[str, Callable[[SystemModelLite], bool]] = {
    "SingleInheritance": valid_single_inheritance,
}


def variants_valid(selected: Iterable[str]) -> Callable[[SystemModelLite], bool]:
    """Conjunction of the frame predicates of the selected domain features,
    in sorted feature order; a feature without a placement rule raises as
    `sysmodel.domain_variant` does."""
    predicates = []
    for f in sorted(set(selected)):
        domain_variant(f)  # refuses a feature that binds no rule
        predicates.append(FRAME_VARIANTS[f])
    return lambda sm: all(p(sm) for p in predicates)


def rules_valid(rules: Iterable[PlacementRule]) -> Callable[[SystemModelLite], bool]:
    """Conjunction of the frame predicates of the features whose placement
    rules are `rules`."""
    return variants_valid(f for f, rule in DOMAIN_VARIANTS.items() if rule in set(rules))


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
    return eval_valid_base(sm) and rules_valid(sem.variants)(sm) and holds(sem.demands, sm)


def full_scan_refinement(
    refined: AstNode, abstract: AstNode, config: SemanticsConfig
) -> SystemModelLite | None:
    """The first system of `refined` outside `abstract` over both models'
    classes, found by judging every system of `refined` in turn."""
    (r, a), joint, variants = query([refined, abstract], config)
    systems = walked(config.bounds, r | Demands(joint.classes), variants)
    return next((sm for sm in systems if not holds(a, sm)), None)


def walked(bounds: Bounds, demands: Demands, rules: tuple[PlacementRule, ...]) -> list[SystemModelLite]:
    """Every system of a query, in canonical order: the members
    `sysmodel.tally` forms when asked for all of them."""
    return tally(bounds, demands, rules, sys.maxsize)[1]


def members(sem: SemanticsSet) -> list[SystemModelLite]:
    """Every system of `sem`, in canonical order."""
    return walked(sem.bounds, sem.demands, sem.variants)


def count(sem: SemanticsSet) -> int:
    """The number of systems in `sem`, walked."""
    return len(members(sem))


def first(sem: SemanticsSet, k: int) -> list[SystemModelLite]:
    """The first `k` systems of `sem`, in canonical order."""
    return sem.tally(k)[1]


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


def oracle_populations(
    classes: tuple[str, ...], max_objects: int, demands: Demands
) -> list[tuple[tuple[str, ...], tuple[Pair, ...]]]:
    """`sysmodel._populations` as it was before it read the canonical order
    off the product: each object count's every assignment, sorted."""
    populations = []
    for count in range(1, max_objects + 1):
        objects = tuple(f"o{i}" for i in range(1, count + 1))
        populations += [
            (objects, class_of)
            for class_of in sorted(
                tuple(sorted(zip(objects, chosen))) for chosen in product(classes, repeat=count)
            )
            if demands.caps_hold(class_of)
        ]
    return populations


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


def _oracle_dump_value(v: object) -> str:
    if v is None:
        return "-"
    if isinstance(v, str):
        return v
    if isinstance(v, AstNode):
        return oracle_dump_ast(v)
    if isinstance(v, list):
        return "[" + ",".join(_oracle_dump_value(x) for x in v) + "]"
    if isinstance(v, (set, frozenset)):
        return "{" + ",".join(sorted(v)) + "}"
    raise TypeError(f"not an AST value: {v!r}")


def oracle_dump_ast(node: AstNode) -> str:
    """`vlang.schema.dump_ast`, joining a string per node and per value."""
    parts = [node.datatype]
    for label in sorted(node.fields):
        parts.append(f"{label}={_oracle_dump_value(node.fields[label])}")
    return "(" + " ".join(parts) + ")"


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
    rows = zip(tokens.kinds, tokens.texts, map(tokens.locate, range(len(tokens.kinds))))
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
        self.fields = {dt.name: dt.fields for dt in oracle_derive_schema(grammar).datatypes}
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
    expanders = bound_expanders(grammar)

    def rewrite(n: AstNode) -> list[AstNode]:
        fields: dict[str, object] = {}
        for label, value in n.fields.items():
            fields[label] = rewrite_value(label, value, n)
        result = AstNode(n.datatype, fields, pos=n.pos)
        if n.datatype in sugar:
            expander = expanders.get(n.datatype)
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
        raise _Exit(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from exc


# ---------------------------------------------------------------------------
# Grammar, .fd and .conf reading: a cursor with a method call per token,
# and a grammar validated by a walk of its own, a schema derived by another,
# and a whole scan of the spellings and fixpoint rounds over the element
# trees for the recursion checks.
# ---------------------------------------------------------------------------

def walk(elements: tuple[Element, ...]):
    """Each of `elements` in order, a group followed by its contents."""
    for el in elements:
        yield el
        if isinstance(el, Group):
            yield from walk(el.elements)


class _Cursor:
    """Token access of the grammar and feature readers; the position never
    moves past the "eof" token.  Errors are raised as `error`."""

    error: type[SourceError]

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.pos = 0

    def _advance(self) -> str:
        text = self.texts[self.pos]
        if self.kinds[self.pos] != "eof":
            self.pos += 1
        return text

    def _at(self, kind: str, text: str) -> bool:
        return self.kinds[self.pos] == kind and self.texts[self.pos] == text

    def _err(self, message: str, at: int | None = None) -> SourceError:
        return self.error(message, *self.tokens.locate(self.pos if at is None else at))

    def _got(self) -> str:
        return self.tokens.name(self.pos)

    def _take(self, kind: str, text: str | None = None) -> str:
        pos = self.pos
        if self.kinds[pos] != kind or text not in (None, self.texts[pos]):
            raise self._err(f"expected {kind if text is None else text!r}, got {self._got()}")
        if kind != "eof":
            self.pos = pos + 1
        return self.texts[pos]


class _GrammarParser(_Cursor):
    error = GrammarError

    def parse(self) -> GrammarDef:
        self._take("ident", "grammar")
        name = self._take("ident")
        self._take("punct", "{")
        productions: list[Production] = []
        while not self._at("punct", "}"):
            productions.append(self._production())
        self._take("punct", "}")
        if self.kinds[self.pos] != "eof":
            raise self._err(f"trailing input {self.texts[self.pos]!r}")
        if not productions:
            raise GrammarError(f"grammar {name} has no productions (start production undefined)")
        return GrammarDef(name, tuple(productions), productions[0].name)

    def _production(self) -> Production:
        sugar_for = None
        if self._at("ident", "sugar"):
            self._advance()
            name = self._take("ident")
            self._take("ident", "for")
            sugar_for = self._take("ident")
        else:
            name = self._take("ident")
        self._take("punct", "=")
        elements = self._elements(stop=";")
        self._take("punct", ";")
        return Production(name, tuple(elements), sugar_for)

    def _elements(self, stop: str) -> list[Element]:
        out: list[Element] = []
        while not self._at("punct", stop):
            if self.kinds[self.pos] == "eof":
                raise self._err(f"expected {stop!r}, got {self._got()}")
            out.append(self._element())
        return out

    def _element(self) -> Element:
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind == "string":
            self._advance()
            self._reject_cardinality("a terminal")
            return Terminal(text)
        if self._at("punct", "<<?>>"):
            self._advance()
            self._reject_cardinality("a stereotype slot")
            return StereotypeSlot()
        if self._at("punct", "("):
            return self._group_or_synonyms()
        if kind == "ident":
            ref = self._reference()
            card = self._cardinality()
            if card != "once":
                return Group((ref,), card)
            return ref
        if self._at("punct", "|"):
            raise self._err("alternation is only permitted among terminals")
        raise self._err(f"unexpected {text!r} in production body")

    def _reference(self) -> NonterminalRef:
        first = self._take("ident")
        if self._at("punct", ":"):
            self._advance()
            if self.kinds[self.pos] != "ident":
                raise self._err(f"expected nonterminal after ':', got {self._got()}")
            return NonterminalRef(first, self._advance())
        return NonterminalRef(None, first)

    def _group_or_synonyms(self) -> Element:
        opened = self.pos
        self._take("punct", "(")
        at = self.pos
        if (
            self.kinds[at] == "string"
            and self.kinds[at + 1] == "punct"
            and self.texts[at + 1] == "|"
        ):
            spellings = [self._take("string")]
            while self._at("punct", "|"):
                self._advance()
                spellings.append(self._take("string"))
            self._take("punct", ")")
            self._reject_cardinality("a synonym group")
            if any(not s for s in spellings):
                raise self._err("synonym alternatives must be nonempty", opened)
            if len(set(spellings)) != len(spellings):
                raise self._err("synonym alternatives must be pairwise distinct", opened)
            return TerminalSynonyms(spellings[0], tuple(spellings[1:]))
        elements = self._elements(stop=")")
        self._take("punct", ")")
        if not elements:
            raise self._err("empty group", opened)
        return Group(tuple(elements), self._cardinality())

    def _cardinality(self) -> str:
        if self._at("punct", "*"):
            self._advance()
            return "star"
        if self._at("punct", "?"):
            self._advance()
            return "optional"
        return "once"

    def _reject_cardinality(self, what: str) -> None:
        text = self.texts[self.pos]
        if self.kinds[self.pos] == "punct" and text in ("*", "?"):
            raise self._err(f"cardinality {text!r} not permitted on {what}")


_SLOT = "<<?>>"


def _oracle_fields(prod: Production) -> tuple[SchemaField, ...]:
    order: list[str] = []
    bases: dict[str, str] = {}
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}

    def add(label: str, base: str, mult_lo: float, mult_hi: float) -> None:
        if label in bases:
            if bases[label] != base:
                raise GrammarError(f"field {label} of {prod.name} is used with conflicting types")
            lo[label] += mult_lo
            hi[label] += mult_hi
        else:
            order.append(label)
            bases[label] = base
            lo[label] = mult_lo
            hi[label] = mult_hi

    def visit(elements: tuple[Element, ...], mult_lo: float, mult_hi: float) -> None:
        for el in elements:
            if isinstance(el, (Terminal, TerminalSynonyms)):
                continue
            if isinstance(el, StereotypeSlot):
                if (mult_lo, mult_hi) != (1, 1) or STEREOTYPE_FIELD in bases:
                    raise GrammarError(
                        f"production {prod.name}: a stereotype slot must appear "
                        "exactly once, outside groups"
                    )
                add(STEREOTYPE_FIELD, _SLOT, 1, 1)
            elif isinstance(el, NonterminalRef):
                add(el.field_label, el.target, mult_lo, mult_hi)
            elif isinstance(el, Group):
                if el.cardinality == "optional":
                    visit(el.elements, 0, mult_hi)
                elif el.cardinality == "star":
                    visit(el.elements, 0, float("inf"))
                else:
                    visit(el.elements, mult_lo, mult_hi)

    visit(prod.elements, 1, 1)
    fields: list[SchemaField] = []
    for label in order:
        base = bases[label]
        if base == _SLOT:
            fields.append(SchemaField(label, IDENT_TOKEN, "set"))
        elif hi[label] > 1:
            fields.append(SchemaField(label, base, "list"))
        elif lo[label] == 0:
            fields.append(SchemaField(label, base, "option"))
        else:
            fields.append(SchemaField(label, base))
    return tuple(fields)


def oracle_derive_schema(g: GrammarDef) -> AstSchema:
    """The schema of `g` by a walk of its own: one datatype per production,
    in declaration order."""
    return AstSchema(g.name, tuple(
        SchemaDatatype(p.name, _oracle_fields(p), p.sugar_for) for p in g.productions
    ))


def _oracle_reject_unscannable(spellings: set[str], pattern: TokenPattern) -> None:
    ordered = sorted(spellings)
    try:
        texts = scan("\n".join(ordered), pattern, GrammarError).texts[:-1]
    except GrammarError as exc:
        bad = ordered[exc.line - 1]
    else:
        bad = next((s for s, text in zip_longest(ordered, texts) if s != text), None)
    if bad is not None:
        raise GrammarError(f"terminal {bad!r} does not scan as one model token")


def _oracle_reject_bad_recursion(g: GrammarDef, alternatives: dict[str, tuple[str, ...]]) -> None:
    nullable: set[str] = set()

    def first(elements: tuple[Element, ...]) -> tuple[list[str], bool]:
        reached: list[str] = []
        for el in elements:
            if isinstance(el, Group):
                inner, empty = first(el.elements)
                reached += inner
                empty = empty or el.cardinality != "once"
            elif isinstance(el, NonterminalRef) and el.target != IDENT_TOKEN:
                reached += alternatives[el.target]
                empty = not nullable.isdisjoint(alternatives[el.target])
            else:
                empty = isinstance(el, StereotypeSlot)
            if not empty:
                return reached, False
        return reached, True

    while (grown := {p.name for p in g.productions if first(p.elements)[1]}) != nullable:
        nullable = grown
    edges = {p.name: first(p.elements)[0] for p in g.productions}
    finished: set[str] = set()
    for root in edges:
        path, pending = [root], [iter(edges[root])]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                finished.add(path.pop())
                pending.pop()
            elif nxt in path:
                cycle = " -> ".join(path[path.index(nxt):] + [nxt])
                raise GrammarError(f"left recursion: {cycle}")
            elif nxt not in finished:
                path.append(nxt)
                pending.append(iter(edges[nxt]))

    productive: set[str] = set()

    def finite(el: Element) -> bool:
        if isinstance(el, Group):
            return el.cardinality != "once" or all(finite(e) for e in el.elements)
        if isinstance(el, NonterminalRef) and el.target != IDENT_TOKEN:
            return not productive.isdisjoint(alternatives[el.target])
        return True

    while (grown := {p.name for p in g.productions if all(map(finite, p.elements))}) != productive:
        productive = grown
    if barren := [p.name for p in g.productions if p.name not in productive]:
        raise GrammarError(f"no finite model derives from {', '.join(barren)}")


def _oracle_validate(g: GrammarDef) -> GrammarDef:
    defined: dict[str, list[str]] = {}
    for p in g.productions:
        if p.name in defined:
            raise GrammarError(f"duplicate production name {p.name}")
        if p.name == IDENT_TOKEN:
            raise GrammarError(f"production may not be named {IDENT_TOKEN}")
        defined[p.name] = [p.name]

    spellings: set[str] = set()
    marks: set[str] = set()
    for p in g.productions:
        for el in walk(p.elements):
            if isinstance(el, NonterminalRef) and el.target == IDENT_TOKEN:
                if el.label is None:
                    raise GrammarError(f"reference to {IDENT_TOKEN} must carry a label")
            elif isinstance(el, NonterminalRef) and el.target not in defined:
                raise GrammarError(f"unresolved nonterminal {el.target}")
            elif isinstance(el, (Terminal, TerminalSynonyms)):
                spellings.update(el.all_spellings())
            elif isinstance(el, StereotypeSlot):
                marks = {"<<", ">>"}
        if p.sugar_for is not None:
            if p.sugar_for not in defined:
                raise GrammarError(
                    f"sugar production {p.name} expands an undefined production {p.sugar_for}"
                )
            if g.production(p.sugar_for).sugar_for is not None:
                raise GrammarError(
                    f"sugar production {p.name} may not expand another sugar production"
                )
            defined[p.sugar_for].append(p.name)

    keywords = frozenset(filter(IDENT.fullmatch, spellings))
    pattern = token_pattern(spellings - keywords | marks)
    _oracle_reject_unscannable(spellings, pattern)
    alternatives = {name: tuple(names) for name, names in defined.items()}
    _oracle_reject_bad_recursion(g, alternatives)
    return g._replace(
        schema=oracle_derive_schema(g), model_pattern=pattern, keywords=keywords,
        alternatives=alternatives,
    )


def oracle_parse_grammar(source: str) -> GrammarDef:
    """`vlang.grammar.parse_grammar`, read by a cursor and validated by
    walks of their own."""
    tokens = scan(source, token_pattern(_PUNCT, strings=True), GrammarError)
    return _oracle_validate(_GrammarParser(tokens).parse())


class _FeatureParser(_Cursor):
    """A file of one or more items, each opened by the word `keyword` and
    read by `_item`."""

    error = FeatureSyntaxError
    keyword: str

    def __init__(self, source: str):
        super().__init__(scan(source, _feature_pattern(), self.error))

    def parse_all(self) -> list:
        items = [self._item()]
        while self._at("ident", self.keyword):
            items.append(self._item())
        if self.kinds[self.pos] != "eof":
            raise self._err(f"trailing input {self.texts[self.pos]!r}")
        return items

    def _name(self, what: str) -> str:
        text = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or not IDENT.fullmatch(text):
            raise self._err(f"expected {what} name, got {self._got()}")
        self.pos += 1
        return text


class _DiagramParser(_FeatureParser):
    keyword = "featurediagram"

    def _item(self) -> FeatureDiagram:
        self._take("ident", "featurediagram")
        name = self._name("diagram")
        self._take("punct", "{")
        vps: list[VariationPoint] = []
        constraints: list[CrossConstraint] = []
        while not self._at("punct", "}"):
            if self._at("ident", "vp"):
                vps.append(self._variation_point())
            elif self._at("ident", "constraint"):
                constraints.append(self._constraint())
            else:
                raise self._err(f"expected 'vp' or 'constraint', got {self._got()}")
        self._take("punct", "}")
        diagram = FeatureDiagram(name, tuple(vps), tuple(constraints))
        _check_diagram(diagram)
        return diagram

    def _variation_point(self) -> VariationPoint:
        self._take("ident", "vp")
        name = self._name("variation point")
        self._take("ident", "for")
        self._take("ident", "theory")
        theory = self._name("theory")
        self._take("punct", "{")
        features: list[Feature] = []
        is_xor = False
        while not self._at("punct", "}"):
            if self._at("ident", "xor"):
                if features or is_xor:
                    raise self._err(
                        "a variation point holds either optional/mandatory "
                        "features or one xor-group"
                    )
                is_xor = True
                features.extend(self._xor_group())
            elif self._at("ident", "optional") or self._at("ident", "mandatory"):
                if is_xor:
                    raise self._err("xor-group may not be mixed with other members")
                modality = self._advance()
                features.append(self._feature(modality))
            else:
                raise self._err(f"expected 'optional', 'mandatory' or 'xor', got {self._got()}")
        self._take("punct", "}")
        return VariationPoint(name, theory, tuple(features), is_xor)

    def _xor_group(self) -> list[Feature]:
        opened = self.pos
        self._take("ident", "xor")
        self._take("punct", "{")
        members: list[Feature] = []
        while not self._at("punct", "}"):
            members.append(self._feature("xor-member"))
        self._take("punct", "}")
        if len(members) < 2:
            raise self._err("xor-group needs at least 2 members", opened)
        return members

    def _feature(self, modality: str) -> Feature:
        self._take("ident", "feature")
        name = self._name("feature")
        self._take("ident", "kind")
        kind = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or kind not in FEATURE_KINDS:
            raise self._err(f"expected one of {', '.join(FEATURE_KINDS)}, got {self._got()}")
        self._advance()
        self._take("punct", ";")
        return Feature(name, modality, kind)

    def _constraint(self) -> CrossConstraint:
        self._take("ident", "constraint")
        source = self._feature_ref()
        relation = self.texts[self.pos]
        if self.kinds[self.pos] != "ident" or relation not in ("requires", "excludes"):
            raise self._err(f"expected 'requires' or 'excludes', got {self._got()}")
        self._advance()
        target = self._feature_ref()
        self._take("punct", ";")
        return CrossConstraint(source, relation, target)

    def _feature_ref(self) -> FeatureRef:
        first = self._name("feature")
        if self._at("punct", "."):
            self._advance()
            return FeatureRef(first, self._name("feature"))
        return FeatureRef(None, first)


class _ConfigParser(_FeatureParser):
    keyword = "configuration"

    def _item(self) -> Configuration:
        self._take("ident", "configuration")
        name = self._name("configuration")
        self._take("ident", "for")
        diagram = self._name("diagram")
        self._take("punct", "{")
        selected: set[str] = set()
        while not self._at("punct", "}"):
            self._take("ident", "select")
            selected.add(self._name("feature"))
            self._take("punct", ";")
        self._take("punct", "}")
        return Configuration(name, diagram, frozenset(selected))


def oracle_parse_feature_diagrams(source: str) -> list[FeatureDiagram]:
    """`vlang.features.parse_feature_diagrams`, read by a cursor."""
    return _DiagramParser(source).parse_all()


def oracle_parse_configurations(source: str) -> list[Configuration]:
    """`vlang.features.parse_configurations`, read by a cursor."""
    return _ConfigParser(source).parse_all()
