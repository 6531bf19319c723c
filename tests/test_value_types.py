"""The model's value types: immutable named tuples that keep their checks."""

import dataclasses
import inspect

import pytest

import matchain
from matchain import (
    IndexDecl,
    Operand,
    Property,
    build_tables,
    default_db,
    find_sequence,
    load_problem,
    matrix,
    solve,
    validate,
)
from matchain import codegen, expr, kernels, oracle, sequence, solver
from matchain.kernels import TaggedOperand

PROBLEM = load_problem(
    "index i 3\n"
    "matrix A 4 4 indices=i\n"
    "matrix B 4 4\n"
    "compute X[i] = A[i] * B^-1 * A[i]\n"
)
CHAIN = PROBLEM.computes[0].chain
SQUARE = TaggedOperand(4, 4, frozenset({Property.SQUARE}))
SEQ = find_sequence(SQUARE, SQUARE)

#: One instance of every value type, by type name.
INSTANCES = {
    "IndexDecl": PROBLEM.indices[0],
    "Operand": PROBLEM.operands[0],
    "Factor": CHAIN.factors[0],
    "Chain": CHAIN,
    "Diagnostic": validate(CHAIN._replace(target_indices=()))[0],
    "ComputeStatement": PROBLEM.computes[0],
    "Problem": PROBLEM,
    "TaggedOperand": SEQ.output,
    "InputPattern": default_db()[0].variants[0][0],
    "Kernel": default_db()[0],
    "KernelCall": solve(CHAIN).calls[0],
    "SeqStep": SEQ.steps[0],
    "SequenceResult": SEQ,
    "DPStats": build_tables(CHAIN).stats,
    "DPTables": build_tables(CHAIN),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_value_type_is_immutable_and_slotted(name):
    inst = INSTANCES[name]
    assert type(inst).__name__ == name
    field = type(inst)._fields[0]
    with pytest.raises(AttributeError):
        setattr(inst, field, getattr(inst, field))
    with pytest.raises(AttributeError):
        inst.extra = 1
    assert not hasattr(inst, "__dict__")


def test_plan_is_the_only_dataclass():
    found = {
        name
        for module in (matchain, codegen, expr, kernels, oracle, sequence, solver)
        for name, obj in vars(module).items()
        if inspect.isclass(obj)
        and obj.__module__.startswith("matchain")
        and dataclasses.is_dataclass(obj)
    }
    assert found == {"Plan"}


class TestReplaceChecks:
    """``_replace`` builds through the constructor, so it checks alike."""

    def test_operand_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="positive dims"):
            matrix("A", 3, 3)._replace(rows=0)

    def test_index_rejects_zero_range(self):
        with pytest.raises(ValueError, match="range >= 1"):
            IndexDecl("i", 3)._replace(range=0)

    def test_chain_rejects_no_factors(self):
        with pytest.raises(ValueError, match="at least one factor"):
            CHAIN._replace(factors=())

    def test_operand_closes_replaced_properties(self):
        op = matrix("A", 3, 3)._replace(properties=frozenset({Property.SPD}))
        assert op.properties == matrix("A", 3, 3, [Property.SPD]).properties
        assert Property.SQUARE in op.properties


def test_operand_checks_in_order():
    # Dims come first, then the property closure, then repeated indices.
    i = IndexDecl("i", 2)
    with pytest.raises(ValueError, match="positive dims"):
        Operand("A", 0, 3, frozenset({Property.SPD}), (i, i))
    with pytest.raises(matchain.errors.DimensionPropertyMismatchError):
        Operand("A", 2, 3, frozenset({Property.SPD}), (i, i))
    with pytest.raises(ValueError, match="repeats an index"):
        Operand("A", 2, 3, frozenset(), (i, i))
