"""Expression AST evaluated against rows (WHERE / SELECT / ORDER BY).

Expressions evaluate against a *row context*: a mapping from column
reference (possibly qualified, ``deals.deal_id``) to value.  NULL
handling follows SQL three-valued logic: comparisons with NULL yield
NULL (represented as None), AND/OR propagate it per the usual truth
tables, and the executor treats a non-True WHERE result as "row
filtered out".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.errors import ProgrammingError

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Parameter",
    "Comparison",
    "LogicalAnd",
    "LogicalOr",
    "LogicalNot",
    "IsNull",
    "InList",
    "Like",
    "Arithmetic",
    "FunctionCall",
    "RowContext",
    "compile_expression",
]

RowContext = Mapping[str, Any]

# A compiled evaluator: (row context or tuple, statement params) -> value.
CompiledExpr = Callable[[Any, Sequence[Any]], Any]

# Context key -> position in a stored row tuple (see compile_expression).
Layout = Mapping[str, int]


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, row: RowContext) -> Any:
        """Evaluate against ``row``; None encodes SQL NULL/UNKNOWN."""
        raise NotImplementedError

    def references(self) -> Iterator[str]:
        """Yield column references appearing in this subtree."""
        return iter(())

    def bind(self, params: Sequence[Any]) -> "Expression":
        """Return a copy with :class:`Parameter` placeholders substituted."""
        return self


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: RowContext) -> Any:
        return self.value


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional ``?`` placeholder, substituted at bind time."""

    position: int

    def evaluate(self, row: RowContext) -> Any:
        raise ProgrammingError(
            f"unbound parameter at position {self.position}; "
            "pass params to execute()"
        )

    def bind(self, params: Sequence[Any]) -> Expression:
        if self.position >= len(params):
            raise ProgrammingError(
                f"query expects at least {self.position + 1} parameter(s), "
                f"got {len(params)}"
            )
        return Literal(params[self.position])


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column, optionally qualified with a table alias."""

    name: str
    table: Optional[str] = None

    @property
    def key(self) -> str:
        """Lookup key in the row context."""
        if self.table:
            return f"{self.table.lower()}.{self.name.lower()}"
        return self.name.lower()

    def evaluate(self, row: RowContext) -> Any:
        key = self.key
        if key in row:
            return row[key]
        # Unqualified name: resolve against qualified keys if unambiguous.
        if self.table is None:
            suffix = "." + self.name.lower()
            matches = [k for k in row if k.endswith(suffix)]
            if len(matches) == 1:
                return row[matches[0]]
            if len(matches) > 1:
                raise ProgrammingError(f"ambiguous column {self.name!r}")
        raise ProgrammingError(f"unknown column {self.key!r}")

    def references(self) -> Iterator[str]:
        yield self.key


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison with SQL NULL semantics."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ProgrammingError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: RowContext) -> Optional[bool]:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None
        try:
            return _COMPARATORS[self.op](left, right)
        except TypeError as exc:
            raise ProgrammingError(
                f"cannot compare {type(left).__name__} with "
                f"{type(right).__name__}"
            ) from exc

    def references(self) -> Iterator[str]:
        yield from self.left.references()
        yield from self.right.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return Comparison(self.op, self.left.bind(params), self.right.bind(params))


@dataclass(frozen=True)
class LogicalAnd(Expression):
    """Three-valued AND."""

    left: Expression
    right: Expression

    def evaluate(self, row: RowContext) -> Optional[bool]:
        left = _as_bool(self.left.evaluate(row))
        if left is False:
            return False
        right = _as_bool(self.right.evaluate(row))
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True

    def references(self) -> Iterator[str]:
        yield from self.left.references()
        yield from self.right.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return LogicalAnd(self.left.bind(params), self.right.bind(params))


@dataclass(frozen=True)
class LogicalOr(Expression):
    """Three-valued OR."""

    left: Expression
    right: Expression

    def evaluate(self, row: RowContext) -> Optional[bool]:
        left = _as_bool(self.left.evaluate(row))
        if left is True:
            return True
        right = _as_bool(self.right.evaluate(row))
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False

    def references(self) -> Iterator[str]:
        yield from self.left.references()
        yield from self.right.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return LogicalOr(self.left.bind(params), self.right.bind(params))


@dataclass(frozen=True)
class LogicalNot(Expression):
    """Three-valued NOT."""

    operand: Expression

    def evaluate(self, row: RowContext) -> Optional[bool]:
        value = _as_bool(self.operand.evaluate(row))
        if value is None:
            return None
        return not value

    def references(self) -> Iterator[str]:
        yield from self.operand.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return LogicalNot(self.operand.bind(params))


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL`` — the only NULL-safe predicate."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: RowContext) -> bool:
        is_null = self.operand.evaluate(row) is None
        return not is_null if self.negated else is_null

    def references(self) -> Iterator[str]:
        yield from self.operand.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return IsNull(self.operand.bind(params), self.negated)


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    choices: Tuple[Expression, ...]
    negated: bool = False

    def evaluate(self, row: RowContext) -> Optional[bool]:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        found = False
        saw_null = False
        for choice in self.choices:
            candidate = choice.evaluate(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                found = True
                break
        if found:
            return not self.negated
        if saw_null:
            return None
        return self.negated

    def references(self) -> Iterator[str]:
        yield from self.operand.references()
        for choice in self.choices:
            yield from choice.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return InList(
            self.operand.bind(params),
            tuple(c.bind(params) for c in self.choices),
            self.negated,
        )


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards, case-insensitive.

    Case-insensitivity matches DB2's typical configuration for the
    synopsis tables and is what the paper's form-based queries need
    ("End User Services" vs "end user services").
    """

    operand: Expression
    pattern: Expression
    negated: bool = False

    def evaluate(self, row: RowContext) -> Optional[bool]:
        value = self.operand.evaluate(row)
        pattern = self.pattern.evaluate(row)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise ProgrammingError("LIKE requires text operands")
        result = bool(_like_regex(pattern).match(value))
        return not result if self.negated else result

    def references(self) -> Iterator[str]:
        yield from self.operand.references()
        yield from self.pattern.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return Like(
            self.operand.bind(params), self.pattern.bind(params), self.negated
        )


_LIKE_CACHE: dict = {}


def _like_regex(pattern: str) -> "re.Pattern[str]":
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
        compiled = re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)
        if len(_LIKE_CACHE) < 4096:
            _LIKE_CACHE[pattern] = compiled
    return compiled


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic (+ also concatenates TEXT, like DB2's ||)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ProgrammingError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: RowContext) -> Any:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None
        if self.op == "/" and right == 0:
            return None
        try:
            return _ARITHMETIC[self.op](left, right)
        except TypeError as exc:
            raise ProgrammingError(
                f"invalid operands for {self.op!r}: "
                f"{type(left).__name__}, {type(right).__name__}"
            ) from exc

    def references(self) -> Iterator[str]:
        yield from self.left.references()
        yield from self.right.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return Arithmetic(self.op, self.left.bind(params), self.right.bind(params))


_FUNCTIONS = {
    "lower": lambda v: v.lower() if isinstance(v, str) else v,
    "upper": lambda v: v.upper() if isinstance(v, str) else v,
    "length": lambda v: len(v) if v is not None else None,
    "trim": lambda v: v.strip() if isinstance(v, str) else v,
    "abs": lambda v: abs(v) if v is not None else None,
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Scalar function call (LOWER, UPPER, LENGTH, TRIM, ABS)."""

    name: str
    args: Tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.name.lower() not in _FUNCTIONS:
            raise ProgrammingError(f"unknown function {self.name!r}")
        if len(self.args) != 1:
            raise ProgrammingError(
                f"function {self.name!r} takes exactly one argument"
            )

    def evaluate(self, row: RowContext) -> Any:
        value = self.args[0].evaluate(row)
        if value is None:
            return None
        return _FUNCTIONS[self.name.lower()](value)

    def references(self) -> Iterator[str]:
        for arg in self.args:
            yield from arg.references()

    def bind(self, params: Sequence[Any]) -> Expression:
        return FunctionCall(self.name, tuple(a.bind(params) for a in self.args))


def _as_bool(value: Any) -> Optional[bool]:
    if value is None:
        return None
    return bool(value)


# ---------------------------------------------------------------------------
# Compilation: lower an Expression tree to one Python closure
# ---------------------------------------------------------------------------


def compile_expression(
    expression: Expression, layout: Optional[Layout] = None
) -> CompiledExpr:
    """Lower ``expression`` to a closure ``(row, params) -> value``.

    The returned closure evaluates the same three-valued-logic semantics
    as :meth:`Expression.evaluate` but without per-row dataclass
    dispatch, and it reads ``?`` placeholders from ``params`` at call
    time — so one compiled tree serves every execution of a cached
    plan, whatever the bound parameters.

    Without ``layout`` the closure reads a dict row context.  Each call
    returns *fresh* closures: a :class:`ColumnRef` closure caches its
    resolved row-context key after the first row, which is only sound
    while the closure stays at one evaluation site (row contexts at a
    given pipeline position share their key set).  Compile an
    expression once per site, never share the result across sites.

    With ``layout`` — context key (qualified ``alias.col`` and bare
    ``col``) to tuple position — the closure reads a stored row tuple
    instead, every column position resolved here.  A column the layout
    lacks compiles to a closure that raises the same unknown-column
    error the dict path raises, at the first row it evaluates.

    Unknown :class:`Expression` subclasses (e.g. aggregate calls, which
    the executor handles in its grouping stage) fall back to
    :meth:`~Expression.evaluate`, preserving their error behavior.
    """
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row, params: value

    if isinstance(expression, Parameter):
        position = expression.position

        def _param(row: RowContext, params: Sequence[Any]) -> Any:
            if position >= len(params):
                raise ProgrammingError(
                    f"query expects at least {position + 1} parameter(s), "
                    f"got {len(params)}"
                )
            return params[position]

        return _param

    if isinstance(expression, ColumnRef):
        if layout is not None:
            return _compile_position(expression, layout)
        return _compile_column(expression)

    if isinstance(expression, Comparison):
        comparator = _COMPARATORS[expression.op]
        op = expression.op
        left = compile_expression(expression.left, layout)
        right = compile_expression(expression.right, layout)

        def _compare(row: RowContext, params: Sequence[Any]) -> Optional[bool]:
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return None
            try:
                return comparator(a, b)
            except TypeError as exc:
                raise ProgrammingError(
                    f"cannot compare {type(a).__name__} with "
                    f"{type(b).__name__}"
                ) from exc

        return _compare

    if isinstance(expression, LogicalAnd):
        left = compile_expression(expression.left, layout)
        right = compile_expression(expression.right, layout)

        def _and(row: RowContext, params: Sequence[Any]) -> Optional[bool]:
            a = _as_bool(left(row, params))
            if a is False:
                return False
            b = _as_bool(right(row, params))
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True

        return _and

    if isinstance(expression, LogicalOr):
        left = compile_expression(expression.left, layout)
        right = compile_expression(expression.right, layout)

        def _or(row: RowContext, params: Sequence[Any]) -> Optional[bool]:
            a = _as_bool(left(row, params))
            if a is True:
                return True
            b = _as_bool(right(row, params))
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return _or

    if isinstance(expression, LogicalNot):
        operand = compile_expression(expression.operand, layout)

        def _not(row: RowContext, params: Sequence[Any]) -> Optional[bool]:
            value = _as_bool(operand(row, params))
            if value is None:
                return None
            return not value

        return _not

    if isinstance(expression, IsNull):
        operand = compile_expression(expression.operand, layout)
        negated = expression.negated

        def _is_null(row: RowContext, params: Sequence[Any]) -> bool:
            is_null = operand(row, params) is None
            return not is_null if negated else is_null

        return _is_null

    if isinstance(expression, InList):
        operand = compile_expression(expression.operand, layout)
        choices = tuple(
            compile_expression(c, layout) for c in expression.choices
        )
        negated = expression.negated

        def _in(row: RowContext, params: Sequence[Any]) -> Optional[bool]:
            value = operand(row, params)
            if value is None:
                return None
            saw_null = False
            for choice in choices:
                candidate = choice(row, params)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return _in

    if isinstance(expression, Like):
        operand = compile_expression(expression.operand, layout)
        pattern = compile_expression(expression.pattern, layout)
        negated = expression.negated

        def _like(row: RowContext, params: Sequence[Any]) -> Optional[bool]:
            value = operand(row, params)
            pat = pattern(row, params)
            if value is None or pat is None:
                return None
            if not isinstance(value, str) or not isinstance(pat, str):
                raise ProgrammingError("LIKE requires text operands")
            result = bool(_like_regex(pat).match(value))
            return not result if negated else result

        return _like

    if isinstance(expression, Arithmetic):
        operator = _ARITHMETIC[expression.op]
        op = expression.op
        left = compile_expression(expression.left, layout)
        right = compile_expression(expression.right, layout)

        def _arith(row: RowContext, params: Sequence[Any]) -> Any:
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return None
            if op == "/" and b == 0:
                return None
            try:
                return operator(a, b)
            except TypeError as exc:
                raise ProgrammingError(
                    f"invalid operands for {op!r}: "
                    f"{type(a).__name__}, {type(b).__name__}"
                ) from exc

        return _arith

    if isinstance(expression, FunctionCall):
        fn = _FUNCTIONS[expression.name.lower()]
        arg = compile_expression(expression.args[0], layout)

        def _call(row: RowContext, params: Sequence[Any]) -> Any:
            value = arg(row, params)
            if value is None:
                return None
            return fn(value)

        return _call

    # Unknown subclass (AggregateCall and future nodes): interpret.
    if layout is not None:
        return lambda row, params: expression.evaluate(
            {key: row[position] for key, position in layout.items()}
        )
    return lambda row, params: expression.evaluate(row)


def _compile_position(ref: ColumnRef, layout: Layout) -> CompiledExpr:
    key = ref.key
    position = layout.get(key)
    if position is None:

        def _unknown(row: Sequence[Any], params: Sequence[Any]) -> Any:
            raise ProgrammingError(f"unknown column {key!r}")

        return _unknown
    return lambda row, params: row[position]


def _compile_column(ref: ColumnRef) -> CompiledExpr:
    key = ref.key
    unqualified = ref.table is None
    name = ref.name.lower()
    resolved = [key]  # single-site cache of the matching context key

    def _column(row: RowContext, params: Sequence[Any]) -> Any:
        try:
            return row[resolved[0]]
        except KeyError:
            pass
        if unqualified:
            suffix = "." + name
            matches = [k for k in row if k.endswith(suffix)]
            if len(matches) == 1:
                resolved[0] = matches[0]
                return row[matches[0]]
            if len(matches) > 1:
                raise ProgrammingError(f"ambiguous column {name!r}")
        raise ProgrammingError(f"unknown column {key!r}")

    return _column
