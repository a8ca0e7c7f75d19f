"""A small arithmetic expression language for initial data and forcings.

Grammar (EBNF):

    expr    := term   (("+" | "-") term)*
    term    := unary  (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom   ["^" unary]            (right-associative)
    atom    := NUMBER | "x" | "t" | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Precedence: ^  >  unary -  >  * /  >  + -.  Known names: sin, cos, exp,
abs, sqrt (unary) and max, min (binary); the only variables are x and t.
The tokens come from one pattern whose number is the NUMBER rule: ASCII
digits, an optional "." fraction, an e/E exponent only with digits.  The
binary levels, expr and term, are one loop over one table.  Parsing is
total: any string either parses or raises ParseError with the character
offset and the expected-token set; that includes nesting deeper than
MAX_DEPTH.

``parse`` compiles a string into a postfix program: a tuple whose items
are number literals (floats), "x", "t", the operators + - * / ^, "neg"
for unary minus and the function names, each after its operands, so
"1 - x^2" is (1.0, "x", 2.0, "^", "-").  ``evaluate`` runs the program
on a value stack, elementwise on numpy arrays, so the CLI samples an
expression on the whole node array once per time step.
It follows IEEE float conventions (division by zero and domain
violations yield inf/nan, which propagate; rejecting them is the config
loader's job), except that x^k for integer |k| <= 64 is repeated
multiplication, so (-0)^-1 is +inf.  exp and other powers use numpy's
exp and log, which may differ from the C library's in the last bits.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = [
    "ParseError",
    "Expr",
    "parse",
    "evaluate",
    "FUNCTIONS",
    "MAX_DEPTH",
]

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "sqrt": 1, "max": 2, "min": 2}
VARIABLES = ("x", "t")
# Parentheses, call arguments and exponents.  A level of parentheses or calls takes
# 5 frames, an exponent 3: MAX_DEPTH parentheses take 507, far below the recursion limit.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error with character offset and the set of expected tokens."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


Expr = tuple  # a postfix program; see the module docstring


# After optional whitespace: a NUMBER, a name, an operator, the end, or a bad
# character.  \w+ also matches "²x" and "٣": a name must start with a letter or "_".
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>\w+)|(?P<op>[-+*/^(),])|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)
# The binary operators' precedence levels; all are left-associative.
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def _tokenize(src: str) -> list:
    """The (kind, text, offset) triples of src; kinds: num, name, op, end."""
    tokens = []
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m[m.lastgroup]
        if kind == "bad" or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", m.start(kind))
        tokens.append((kind, text, m.start(kind)))
        if kind == "end":
            return tokens


class _Parser:
    """Recursive descent; each method appends its part's instructions to out, operands first."""

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.out = []

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops):
        """Consume and return the next token if it is one of the operators in ops."""
        kind, text, _ = self.peek()
        return self.advance() if kind == "op" and text in ops else None

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ParseError(f"got {text!r}" if text else "unexpected end of input", off, (repr(op),))

    def parse(self) -> Expr:
        self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", off, ("operator", "end of input"))
        return tuple(self.out)

    def expr(self) -> None:
        """Unaries joined by _LEVEL's operators; each waits until the next binds no tighter."""
        waiting = []
        self.unary()
        while tok := self.accept(_LEVEL):
            while waiting and _LEVEL[waiting[-1]] >= _LEVEL[tok[1]]:
                self.out.append(waiting.pop())
            waiting.append(tok[1])
            self.unary()
        self.out += reversed(waiting)

    def unary(self) -> None:
        negs = 0
        while self.accept("-"):  # a loop, so long chains of minus signs cost no recursion
            negs += 1
        self.power()
        self.out += ["neg"] * negs

    def power(self) -> None:
        self.atom()
        if tok := self.accept("^"):
            self.nested(self.unary, tok[2])  # right-associative
            self.out.append("^")

    def nested(self, parse, off: int) -> None:
        """Parse one level deeper: inside parentheses, call arguments or an exponent."""
        if self.depth == MAX_DEPTH:
            raise ParseError("expression nested too deeply", off)
        self.depth += 1
        parse()
        self.depth -= 1

    def atom(self) -> None:
        kind, text, off = self.advance()
        if kind == "num":
            self.out.append(float(text))
            return
        if kind == "name":
            if text in VARIABLES:
                self.out.append(text)
                return
            if text in FUNCTIONS:
                arity = FUNCTIONS[text]
                paren = self.expect_op("(")[2]
                self.nested(self.expr, paren)
                args = 1
                while self.accept(","):
                    self.nested(self.expr, paren)
                    args += 1
                self.expect_op(")")
                if args != arity:
                    raise ParseError(f"{text} takes {arity} argument(s), got {args}", off)
                self.out.append(text)
                return
            raise ParseError(
                f"unknown identifier {text!r}", off, ("x", "t", *sorted(FUNCTIONS))
            )
        if kind == "op" and text == "(":
            self.nested(self.expr, off)
            self.expect_op(")")
            return
        what = f"got {text!r}" if text else "unexpected end of input"
        raise ParseError(what, off, ("number", "name", "'('", "'-'"))


def parse(src: str) -> Expr:
    """Compile a source string into a postfix program or raise a position-annotated ParseError."""
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


_FUNCS = {  # instruction: (function, arity)
    "+": (np.add, 2), "-": (np.subtract, 2), "*": (np.multiply, 2), "/": (np.divide, 2),
    "^": (_pow, 2), "neg": (np.negative, 1),
    "sin": (np.sin, 1), "cos": (np.cos, 1), "exp": (np.exp, 1), "abs": (np.abs, 1),
    "sqrt": (np.sqrt, 1),
    "max": (lambda a, b: np.where(b > a, b, a), 2),  # Python's order: a unless b is beyond it
    "min": (lambda a, b: np.where(b < a, b, a), 2),
}


def evaluate(e: Expr, x, t):
    """Evaluate elementwise over broadcast x and t with IEEE semantics: inf/nan propagate.

    Runs the program on a value stack, each instruction on the values its
    operands left on top.  Returns a float for scalar x and t, else an
    array of their broadcast shape.
    """
    env = {"x": np.asarray(x, dtype=float), "t": np.asarray(t, dtype=float)}
    vals = []
    with np.errstate(all="ignore"):
        for op in e:
            if isinstance(op, float):
                vals.append(op)
            elif op in env:
                vals.append(env[op])
            else:
                fn, k = _FUNCS[op]
                vals[-k:] = [fn(*vals[-k:])]
    out = np.array(np.broadcast_to(vals[0], np.broadcast_shapes(env["x"].shape, env["t"].shape)))
    return float(out) if out.ndim == 0 else out
