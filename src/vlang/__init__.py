"""vlang: a workbench for textual modeling languages with variability.

Define a language's concrete syntax as a grammar, derive its abstract-syntax
schema, parse and desugar models, configure semantic-domain and
semantic-mapping variants through feature diagrams, generate the composed
theory documents, and decide refinement, consistency, and equivalence by
bounded enumeration over a set-valued semantics.
"""

from .analysis import AnalysisVerdict, check_consistency, check_equivalence, check_refinement
from .conditions import CCViolation, ContextCondition, check_context_conditions
from .desugar import desugar_to_minimal
from .features import (
    Configuration,
    CrossConstraint,
    Feature,
    FeatureDiagram,
    VariationPoint,
    Violation,
    merge_configurations,
    parse_configurations,
    parse_feature_diagrams,
    validate_configurations,
)
from .grammar import GrammarDef, GrammarError, parse_grammar
from .modelparse import ModelParseError, TokenizeError, parse_model
from .schema import AstNode, AstSchema, derive_schema, dump_ast, dump_schema
from .semantics import (
    SemanticsConfig,
    SemanticsSet,
    compute_sem,
    demands_of,
    make_semantics_config,
    map_assertions,
    map_class,
    map_diagram,
    map_super_delegate,
    map_super_direct,
)
from .sysmodel import (
    Bounds,
    Demands,
    SystemModelLite,
    dump_system,
    enumerate_systems,
)
from .theorygen import TheoryDoc, generate_domain_theory, generate_mapping_theory

__version__ = "0.1.0"
