"""vlang: a workbench for textual modeling languages with variability.

Define a language's concrete syntax as a grammar, derive its abstract-syntax
schema, parse and desugar models, configure semantic-domain and
semantic-mapping variants through feature diagrams, generate the composed
theory documents, and decide refinement, consistency, and equivalence by
bounded enumeration over a set-valued semantics.
"""

__version__ = "0.1.0"
