"""matchain: map matrix product chains onto cost-optimal kernel calls.

The pipeline: parse a chain of factors with transpose/inverse/index
annotations (:mod:`matchain.expr`), infer symbolic operand properties
(:mod:`matchain.properties`), search kernel sequences per combination
(:mod:`matchain.sequence`) over a kernel database
(:mod:`matchain.kernels`), run the generalized matrix-chain dynamic
program (:mod:`matchain.solver`), and emit the resulting program
(:mod:`matchain.codegen`). :mod:`matchain.oracle` holds independent
exact references for certifying results on chains of any length.

Names load on first use (PEP 562): ``import matchain`` imports no
submodule, and ``matchain.solve`` imports :mod:`matchain.solver` (and
what it needs) the first time it is read.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, by the submodule that defines it.
_HOME = {
    name: home
    for home, names in {
        "codegen": "emit_records emit_text parse_records",
        "errors": "errors",
        "expr": "Chain ComputeStatement Diagnostic DiagnosticKind Factor IndexDecl "
        "Operand Problem UnaryTag load_problem matrix parse unparse validate vector",
        "kernels": "FLOPS MEMORY Kernel KernelCall TaggedOperand default_db "
        "load_kernel_config match metric_by_name",
        "oracle": "best_pair_cost brute_force_min random_instance structural_residual",
        "properties": "Property close infer_properties inverse_props transpose_props",
        "sequence": "SequenceResult find_sequence materialize",
        "solver": "DPStats DPTables Plan build_tables index_range naive_cost solve",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import ``name``'s home submodule and keep the value as a global, so
    later reads never come here. A submodule's name gives the submodule."""
    home = _HOME.get(name, name)
    if home not in _HOME.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
