"""Arithmetic expression language for model coefficients.

Grammar (EBNF, also documented in the README):

    expression  = term { ("+" | "-") term } ;
    term        = unary { ("*" | "/") unary } ;
    unary       = "-" unary | power ;
    power       = atom [ "^" unary ] ;           (* right associative *)
    atom        = NUMBER | variable | call | "(" expression ")" ;
    variable    = "t" | "i" | "x" DIGITS ;
    call        = FUNC "(" expression ")"
                | ("min" | "max") "(" expression "," expression ")"
                | ("mu_m" | "nu_m") "(" INT "," INT ")" ;
    FUNC        = "exp" | "log" | "sin" | "cos" | "abs" | "sqrt" ;

Precedence: ^ (right-assoc) > unary minus > * / > + -, so "-x1^2" is -(x1^2)
and "2^3^2" is 2^(3^2) = 512.  "mu_m(p, c)" / "nu_m(p, c)" are the raw moments
of the two control measures (integer-literal exponent p >= 0 and coordinate c).

Evaluation is numpy-vectorized: environment entries may be scalars or arrays
and broadcast elementwise, which is what lets the simulator and solver run
whole path batches / node slabs through one evaluation.  Each model, rate and
control expression is compiled once, when its owner is built, into a
``Compiled`` chain of closures; there is no tree walk at evaluation time.
ASTs are immutable and evaluation is pure and reentrant.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ExprError, NumericalError, UsageError

_UNARY_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs, "log": np.log, "sqrt": np.sqrt}
_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}
_UFUNCS = {**_UNARY_FUNCS, **_BINARY_FUNCS, "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
# the operations with a domain: (test of the argument values and the result, error)
_DOMAIN = {
    "/": (lambda args, out: np.any(np.asarray(args[1]) == 0), "division by zero"),
    "log": (lambda args, out: np.any(np.asarray(args[0]) <= 0), "log of a nonpositive value"),
    "sqrt": (lambda args, out: np.any(np.asarray(args[0]) < 0), "sqrt of a negative value"),
    "^": (lambda args, out: np.any(np.isnan(out)) and not any(np.any(np.isnan(a)) for a in args), "undefined power"),
}
_VAR_RE = re.compile(r"x([1-9]\d*)$")
_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Num:
    value: float
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class MomentOf:
    which: str  # "mu" or "nu"
    exponent: int
    coordinate: int
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


Expr = Union[Num, Var, Unary, Binary, Call, MomentOf]


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            tokens.append(_Token("num", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ExprError(f"expected {kind!r}, got {got!r}", tok.line, tok.col)
        return self.advance()

    def expression(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            node = Binary(tok.kind, node, self.term(), pos=(tok.line, tok.col))
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            node = Binary(tok.kind, node, self.unary(), pos=(tok.line, tok.col))
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            tok = self.advance()
            return Unary("-", self.unary(), pos=(tok.line, tok.col))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            tok = self.advance()
            return Binary("^", base, self.unary(), pos=(tok.line, tok.col))
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), pos=(tok.line, tok.col))
        if tok.kind == "(":
            self.advance()
            node = self.expression()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "(":
                return self._call(name, tok)
            if name in ("t", "i") or _VAR_RE.match(name):
                return Var(name, pos=(tok.line, tok.col))
            raise ExprError(f"unknown identifier {name!r}", tok.line, tok.col)
        got = tok.text or "end of input"
        raise ExprError(f"expected a value, got {got!r}", tok.line, tok.col)

    def _call(self, name: str, tok: _Token) -> Expr:
        self.expect("(")
        args = [self.expression()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.expression())
        self.expect(")")
        pos = (tok.line, tok.col)
        if name in _UNARY_FUNCS or name in _BINARY_FUNCS:
            arity = 1 if name in _UNARY_FUNCS else 2
            if len(args) != arity:
                raise ExprError(f"{name} takes exactly {arity} argument{'s' * (arity > 1)}, got {len(args)}", *pos)
            return Call(name, tuple(args), pos=pos)
        if name in ("mu_m", "nu_m"):
            if len(args) != 2:
                raise ExprError(f"{name} takes exactly 2 arguments, got {len(args)}", *pos)
            vals = []
            for a in args:
                if not isinstance(a, Num) or a.value != int(a.value) or a.value < 0:
                    raise ExprError(
                        f"{name} expects nonnegative integer literal arguments", *pos
                    )
                vals.append(int(a.value))
            return MomentOf(name[:2], vals[0], vals[1], pos=pos)
        raise ExprError(f"unknown function {name!r}", *pos)


def parse(source: str) -> Expr:
    """Parse an expression string into an AST."""
    if len(source.encode("utf-8")) > 64 * 1024:
        raise ExprError("expression source exceeds 64 KiB")
    parser = _Parser(_tokenize(source))
    node = parser.expression()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ExprError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return node


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Expr) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"]
    return _PREC["atom"]


def to_source(node: Expr) -> str:
    """Canonical printing; print . parse is a fixed point up to positions."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, MomentOf):
        return f"{node.which}_m({node.exponent}, {node.coordinate})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    if isinstance(node, Unary):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Binary):
        lp, rp = _prec(node.left), _prec(node.right)
        mine = _PREC[node.op]
        left = to_source(node.left)
        right = to_source(node.right)
        if node.op == "^":
            if lp <= mine:  # bases that are themselves ^ / unary need parens
                left = f"({left})"
            if rp < mine:
                right = f"({right})"
            return f"{left}^{right}"
        if lp < mine:
            left = f"({left})"
        if rp <= mine:
            right = f"({right})"
        if node.op in ("+", "-"):
            return f"{left} {node.op} {right}"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def variables(node: Expr) -> frozenset[str]:
    """Names referenced by the expression; moments appear as 'mu' / 'nu'."""
    out: set[str] = set()

    def walk(n):
        if isinstance(n, Var):
            out.add(n.name)
        elif isinstance(n, Unary):
            walk(n.operand)
        elif isinstance(n, Binary):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Call):
            for a in n.args:
                walk(a)
        elif isinstance(n, MomentOf):
            out.add(n.which)

    walk(node)
    return frozenset(out)


def _loc(node: Expr) -> str:
    return f"line {node.pos[0]}, column {node.pos[1]}"


class Compiled:
    """An expression compiled once into one closure per AST node, each passing
    its children's values, left to right, through the ufunc its node names.
    A call evaluates under an environment with keys among t, x, i, mu, nu:
    ``env["x"]`` is a vector (d,) or a batch (n, d); t and i may be scalars or
    arrays; mu / nu must expose ``.moment(p, coord)``.  Unpickling recompiles."""

    __slots__ = ("node", "_fn")

    def __init__(self, node: Expr):
        self.node = node
        self._fn = _compile(node)

    def __call__(self, env: dict):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self._fn(env)

    def __reduce__(self):
        return Compiled, (self.node,)


def _require(env: dict, key: str, node: Expr):
    if key not in env or env[key] is None:
        raise UsageError(f"expression references {key!r} but the environment lacks it at {_loc(node)}")
    return env[key]


def _compile(node: Expr):
    if isinstance(node, Num):
        value = node.value
        return lambda env: value
    if isinstance(node, MomentOf):
        which, exponent, coord = node.which, node.exponent, node.coordinate
        return lambda env: _require(env, which, node).moment(exponent, coord)
    if isinstance(node, Var) and node.name in ("t", "i"):
        return lambda env: np.asarray(_require(env, node.name, node), dtype=float)
    if isinstance(node, Var):
        idx = int(node.name[1:]) - 1

        def coordinate(env):
            x = np.asarray(_require(env, "x", node), dtype=float)
            if idx >= x.shape[-1]:
                raise UsageError(f"variable {node.name} exceeds state dimension {x.shape[-1]} at {_loc(node)}")
            return x[..., idx]

        return coordinate
    if isinstance(node, Unary):
        operand = _compile(node.operand)
        return lambda env: -operand(env)
    if not isinstance(node, (Binary, Call)):
        raise TypeError(f"not an expression node: {node!r}")
    op, children = (node.op, (node.left, node.right)) if isinstance(node, Binary) else (node.func, node.args)
    func, args = _UFUNCS[op], [_compile(c) for c in children]
    # a nonzero literal divisor needs no zero check
    if op in _DOMAIN and not (op == "/" and isinstance(node.right, Num) and node.right.value != 0):
        test, error = _DOMAIN[op]

        def checked(env):
            values = [a(env) for a in args]
            out = func(*values)
            if test(values, out):
                raise NumericalError(f"{error} at {_loc(node)}")
            return out

        return checked
    if len(args) == 1:
        (only,) = args
        return lambda env: func(only(env))
    first, second = args
    return lambda env: func(first(env), second(env))


def eval_vector(expr: Compiled, env: dict, count: int) -> np.ndarray:
    """Evaluate a compiled expression and broadcast to a flat vector of length ``count``."""
    arr = np.asarray(expr(env), dtype=float)
    if arr.ndim == 0:
        return np.full(count, float(arr))
    return np.broadcast_to(arr, (count,)).astype(float, copy=True)
