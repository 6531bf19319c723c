"""matchain: map matrix product chains onto cost-optimal kernel calls.

The pipeline: parse a chain of factors with transpose/inverse/index
annotations (:mod:`matchain.expr`), infer symbolic operand properties
(:mod:`matchain.properties`), search kernel sequences per combination
(:mod:`matchain.sequence`) over a kernel database
(:mod:`matchain.kernels`), run the generalized matrix-chain dynamic
program (:mod:`matchain.solver`), and emit the resulting program
(:mod:`matchain.codegen`). :mod:`matchain.oracle` holds brute-force
references for certifying results on small chains.
"""

from . import errors
from .codegen import emit_records, emit_text, parse_records
from .expr import (
    Chain,
    ComputeStatement,
    Diagnostic,
    DiagnosticKind,
    Factor,
    IndexDecl,
    Operand,
    Problem,
    UnaryTag,
    load_problem,
    matrix,
    parse,
    unparse,
    validate,
    vector,
)
from .kernels import (
    FLOPS,
    MEMORY,
    Kernel,
    KernelCall,
    TaggedOperand,
    default_db,
    load_kernel_config,
    match,
    metric_by_name,
)
from .oracle import best_pair_cost, brute_force_min, random_instance, structural_residual
from .properties import (
    Property,
    close,
    infer_properties,
    inverse_props,
    transpose_props,
)
from .sequence import SequenceResult, find_sequence, materialize
from .solver import DPStats, DPTables, Plan, build_tables, index_range, naive_cost, solve

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "ComputeStatement",
    "DPStats",
    "DPTables",
    "Diagnostic",
    "DiagnosticKind",
    "FLOPS",
    "Factor",
    "IndexDecl",
    "Kernel",
    "KernelCall",
    "MEMORY",
    "Operand",
    "Plan",
    "Problem",
    "Property",
    "SequenceResult",
    "TaggedOperand",
    "UnaryTag",
    "best_pair_cost",
    "brute_force_min",
    "build_tables",
    "close",
    "default_db",
    "emit_records",
    "emit_text",
    "errors",
    "find_sequence",
    "index_range",
    "infer_properties",
    "inverse_props",
    "load_kernel_config",
    "load_problem",
    "match",
    "materialize",
    "matrix",
    "metric_by_name",
    "naive_cost",
    "parse",
    "parse_records",
    "random_instance",
    "solve",
    "structural_residual",
    "transpose_props",
    "unparse",
    "validate",
    "vector",
]
