"""A small arithmetic expression language for initial data and forcings.

Grammar (EBNF):

    expr    := term   (("+" | "-") term)*
    term    := unary  (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom   ["^" unary]            (right-associative)
    atom    := NUMBER | "x" | "t" | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Precedence: ^  >  unary -  >  * /  >  + -.  Known names: sin, cos, exp,
abs, sqrt (unary) and max, min (binary); the only variables are x and t.
NUMBER is ASCII digits only.  Parsing is total: any string either parses
or raises ParseError with the character offset and the expected-token
set; that includes nesting deeper than MAX_DEPTH.  ``evaluate`` works
elementwise on numpy arrays, so the CLI samples an expression on the
whole node array once per time step.
It follows IEEE float conventions (division by zero and domain
violations yield inf/nan, which propagate; rejecting them is the config
loader's job), except that x^k for integer |k| <= 64 is repeated
multiplication, so (-0)^-1 is +inf.  exp and other powers use numpy's
exp and log, which may differ from the C library's in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError",
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "evaluate",
    "FUNCTIONS",
    "MAX_DEPTH",
]

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "sqrt": 1, "max": 2, "min": 2}
VARIABLES = ("x", "t")
MAX_DEPTH = 100  # parentheses, call arguments and exponents; far below the recursion limit


class ParseError(ValueError):
    """Syntax error with character offset and the set of expected tokens."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class _Node:
    """Structural == and hash over one walk of the tree with an explicit stack.

    The generated ones (and repr) recurse, and a 5,000-term sum is 5,000
    nodes deep.  The walk lists each node's type, own field values and
    number of children, which fixes the tree.
    """

    def _walk(self) -> list:
        out, todo = [], [self]
        while todo:
            node = todo.pop()
            own, kids = [], []
            for v in vars(node).values():  # the fields, in order
                if isinstance(v, _Node):
                    kids.append(v)
                elif isinstance(v, tuple):  # Call.args
                    kids += v
                else:
                    own.append(v)
            out.append((type(node), *own, len(kids)))
            todo += kids
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._walk() == other._walk()

    def __hash__(self):
        return hash(tuple(self._walk()))


@dataclass(frozen=True, repr=False, eq=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, repr=False, eq=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, repr=False, eq=False)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True, repr=False, eq=False)
class BinOp(_Node):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, repr=False, eq=False)
class Call(_Node):
    name: str
    args: tuple


Expr = Num | Var | Neg | BinOp | Call


_OPS = "+-*/^(),"


def _tokenize(src: str):
    """Yield (kind, text, offset) triples; kinds: num, name, op, end."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9" or (ch == "." and i + 1 < n and "0" <= src[i + 1] <= "9"):
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and "0" <= src[j] <= "9":
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and "0" <= src[k] <= "9":
                    j = k
                    while j < n and "0" <= src[j] <= "9":
                        j += 1
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str):
        """Consume and return the next token if it is one of the operators in ops."""
        kind, text, _ = self.peek()
        return self.advance() if kind == "op" and text in ops else None

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ParseError(f"got {text!r}" if text else "unexpected end of input", off, (repr(op),))

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", off, ("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while tok := self.accept("+-"):
            e = BinOp(tok[1], e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while tok := self.accept("*/"):
            e = BinOp(tok[1], e, self.unary())
        return e

    def unary(self) -> Expr:
        negs = 0
        while self.accept("-"):  # a loop, so long chains of minus signs cost no recursion
            negs += 1
        e = self.power()
        for _ in range(negs):
            e = Neg(e)
        return e

    def power(self) -> Expr:
        base = self.atom()
        if tok := self.accept("^"):
            return BinOp("^", base, self.nested(self.unary, tok[2]))  # right-associative
        return base

    def nested(self, parse, off: int) -> Expr:
        """Parse one level deeper: inside parentheses, call arguments or an exponent."""
        if self.depth == MAX_DEPTH:
            raise ParseError("expression nested too deeply", off)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                arity = FUNCTIONS[text]
                paren = self.expect_op("(")[2]
                args = [self.nested(self.expr, paren)]
                while self.accept(","):
                    args.append(self.nested(self.expr, paren))
                self.expect_op(")")
                if len(args) != arity:
                    raise ParseError(
                        f"{text} takes {arity} argument(s), got {len(args)}", off
                    )
                return Call(text, tuple(args))
            raise ParseError(
                f"unknown identifier {text!r}", off, ("x", "t", *sorted(FUNCTIONS))
            )
        if kind == "op" and text == "(":
            e = self.nested(self.expr, off)
            self.expect_op(")")
            return e
        what = f"got {text!r}" if text else "unexpected end of input"
        raise ParseError(what, off, ("number", "name", "'('", "'-'"))


def parse(src: str) -> Expr:
    """Parse a source string into an Expr or raise a position-annotated ParseError."""
    return _Parser(src).parse()


def _pow(a, b):
    """Real power: repeated multiplication for integer |b| <= 64, exp(b log a) otherwise."""
    a, b = np.broadcast_arrays(a, b)
    whole = (b == np.trunc(b)) & (np.abs(b) <= 64)
    k = np.where(whole, np.abs(b), 0).astype(int)
    out = np.ones(a.shape)
    for i in range(k.max(initial=0)):
        out = np.where(i < k, out * a, out)
    zero = np.where((a >= 0.0) | (k % 2 == 0), np.inf, -np.inf)
    out = np.where(b < 0, np.where(out == 0.0, zero, 1.0 / out), out)
    real = np.where(a == 0.0, np.where(b > 0, 0.0, np.inf), np.exp(b * np.log(a)))
    return np.where(whole, out, np.where(a < 0.0, np.nan, real))


_FUNCS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": _pow,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "sqrt": np.sqrt,
    "max": lambda a, b: np.where(b > a, b, a),  # Python's order: a unless b is beyond it
    "min": lambda a, b: np.where(b < a, b, a),
}


def evaluate(e: Expr, x, t):
    """Evaluate elementwise over broadcast x and t with IEEE semantics: inf/nan propagate.

    Walks the tree with an explicit stack, so depth is bounded by memory,
    not by Python's recursion limit.  Returns a float for scalar x and t,
    else an array of their broadcast shape.
    """
    env = {"x": np.asarray(x, dtype=float), "t": np.asarray(t, dtype=float)}
    todo, vals = [e], []
    with np.errstate(all="ignore"):
        while todo:
            node = todo.pop()
            if isinstance(node, tuple):  # (function, arity): its operands are on vals
                fn, k = node
                vals[-k:] = [fn(*vals[-k:])]
            elif isinstance(node, Num):
                vals.append(node.value)
            elif isinstance(node, Var):
                vals.append(env[node.name])
            elif isinstance(node, Neg):
                todo += [(np.negative, 1), node.arg]
            elif isinstance(node, BinOp):
                todo += [(_FUNCS[node.op], 2), node.right, node.left]
            else:
                todo += [(_FUNCS[node.name], len(node.args)), *reversed(node.args)]
    out = np.array(np.broadcast_to(vals[0], np.broadcast_shapes(env["x"].shape, env["t"].shape)))
    return float(out) if out.ndim == 0 else out

