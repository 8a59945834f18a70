"""Bundled language definitions and the running-example fixtures, as text.

Three grammars ship with the workbench (parse them with
`grammar.parse_grammar`):

  CDSimp    the minimal class-diagram language: named diagram, classes with
            optional super-class lists, ';' terminated.
  CD        the full class-diagram language: adds stereotype annotations,
            the "ext" synonym for "extends", and the "classes A, B;"
            abbreviation.
  CDAssert  subclass assertion documents with statements "sub A B;" and
            "no sub A B;", used to exercise multi-language composition.

The hooks these languages use are bound by root datatype where they are
read: the class-list expander in `desugar.EXPANDERS`, the class-diagram
context conditions in `conditions.CONDITIONS`.

The fixture texts mirror the running example: a semantic-domain diagram with
the optional SingleInheritance feature, a mapping diagram with the xor pair
MapSuperCDirect/MapSuperCDelegate where the direct variant excludes
SingleInheritance, and configurations selecting SingleInheritance plus the
delegate variant.
"""

CDSIMP_GRAMMAR_TEXT = """\
grammar CDSimp {
    CDDefinition = "classdiagram" Name:IDENT "{" (CDCClass)* "}";
    CDCClass = "class" Name:IDENT ("extends" scl:IDENT ("," scl:IDENT)*)? ";";
}
"""

CD_GRAMMAR_TEXT = """\
grammar CD {
    CDDefinition = "classdiagram" Name:IDENT "{" (classes:CDCClass)* "}";
    CDCClass = <<?>> "class" Name:IDENT
               (("extends" | "ext") scl:IDENT ("," scl:IDENT)*)? ";";
    sugar CDCClasses for CDCClass = "classes" names:IDENT ("," names:IDENT)* ";";
}
"""

ASSERTION_GRAMMAR_TEXT = """\
grammar CDAssert {
    AssertionDoc = "assertions" Name:IDENT "{" (assertions:SubAssertion)* "}";
    SubAssertion = (neg:Negation)? "sub" left:IDENT right:IDENT ";";
    Negation = "no";
}
"""

DOMAIN_FD_TEXT = """\
featurediagram SystemModelVar {
    vp vObject for theory Object {
        optional feature SingleInheritance kind semantic-domain;
    }
    vp vType for theory Type {
    }
}
"""

MAPPING_FD_TEXT = """\
featurediagram CDSimpSemVar {
    vp vMapSuperClasses for theory CDSimpSem {
        xor {
            feature MapSuperCDirect kind semantic-mapping;
            feature MapSuperCDelegate kind semantic-mapping;
        }
    }
    constraint MapSuperCDirect excludes SystemModelVar.SingleInheritance;
}
"""

EXAMPLE_FD_TEXT = DOMAIN_FD_TEXT + MAPPING_FD_TEXT

DOMAIN_CONF_TEXT = """\
configuration SMConf for SystemModelVar {
    select SingleInheritance;
}
"""

MAPPING_CONF_TEXT = """\
configuration CDSemConf for CDSimpSemVar {
    select MapSuperCDelegate;
}
"""

DIRECT_CONF_TEXT = """\
configuration CDSemDirectConf for CDSimpSemVar {
    select MapSuperCDirect;
}
"""
