"""Operation inversion: semantic knowledge for backward execution (§4).

The paper observes: "If each operation (except READ or WRITE) performed by
a transaction has a well-defined inverse, it may be possible for the
system to actually 'run a portion of the transaction backwards' ...  Such
methods require a system knowledge of transaction semantics" (citing
Schlageter).  The declarative expression language of
:mod:`repro.core.operations` provides exactly that knowledge for a useful
fragment: writes of the form ``x <- x + c``, ``x <- x - c``, and
``x <- c + x`` are statically invertible — the old value can be recomputed
from the new one without storing a before-image.

:func:`invert_expression` returns the inverse as a plain callable
(new value -> old value), or ``None`` when the write is not invertible
(constant stores, multiplications by zero-able values, opaque callables),
in which case the caller must fall back to a before-image.
"""

from __future__ import annotations

from typing import Any, Callable

from .operations import BinOp, Const, EntityRef, Expression, Var

Value = Any
Inverse = Callable[[Value], Value]


def _const_value(expr: Expression) -> Value | None:
    """The literal value of a constant expression, else None."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        return expr
    return None


def _is_self_reference(expr: Expression, entity_name: str | None,
                       var_name: str | None) -> bool:
    """Does *expr* denote the current value of the written variable?"""
    if entity_name is not None and isinstance(expr, EntityRef):
        return expr.name == entity_name
    if var_name is not None and isinstance(expr, Var):
        return expr.name == var_name
    return False


def invert_expression(
    expr: Expression,
    entity_name: str | None = None,
    var_name: str | None = None,
) -> Inverse | None:
    """Inverse of ``target <- expr`` as a function of the new value.

    Handles the self-referential additive forms:

    * ``target + c``  ->  ``new - c``
    * ``target - c``  ->  ``new + c``
    * ``c + target``  ->  ``new - c``

    Everything else (constant stores destroy information; multiplication
    may not be invertible; opaque callables carry no semantics) returns
    ``None``.
    """
    if not isinstance(expr, BinOp):
        return None
    symbol = expr.symbol
    left_self = _is_self_reference(expr.left, entity_name, var_name)
    right_self = _is_self_reference(expr.right, entity_name, var_name)
    if symbol == "+":
        if left_self:
            constant = _const_value(expr.right)
            if constant is not None:
                return lambda new: new - constant
        if right_self:
            constant = _const_value(expr.left)
            if constant is not None:
                return lambda new: new - constant
    elif symbol == "-":
        if left_self:
            constant = _const_value(expr.right)
            if constant is not None:
                return lambda new: new + constant
    return None

