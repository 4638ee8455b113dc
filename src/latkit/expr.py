"""Construction expressions: parse, render, evaluate.

Grammar (whitespace-insensitive; labels and paths are double-quoted):

    expr  := atom
           | "osum(" expr "," expr ")"
           | "hsum(" expr ("," expr)+ ")"
           | "ihsum(" expr "," label "," label "," expr ")"
           | "D(" expr ")"
    atom  := "chain(" int ")" | "B2" | "M3" | "N5" | "K"
           | "div(" int ")" | "file(" path ")"

Rendering is the canonical inverse of parsing: parse(render(e)) == e.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .core import Lattice, named
from .errors import ArityError, BadInput, ExprSyntaxError
from . import construct

_BARE_ATOMS = ("B2", "M3", "N5", "K")
_INT_ATOMS = ("chain", "div")
# Deepest nesting of constructions accepted; the parser, `render` and
# `evaluate` recurse once or twice per level.
MAX_DEPTH = 100


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class NamedAtom:
    kind: str
    arg: Optional[int] = None

    def render(self) -> str:
        if self.arg is None:
            return self.kind
        return f"{self.kind}({self.arg})"


@dataclass(frozen=True)
class FileAtom:
    path: str

    def render(self) -> str:
        return f"file({json.dumps(self.path)})"


@dataclass(frozen=True)
class OSum:
    lower: object
    upper: object

    def render(self) -> str:
        return f"osum({self.lower.render()},{self.upper.render()})"


@dataclass(frozen=True)
class HSum:
    args: Tuple[object, ...]

    def render(self) -> str:
        return f"hsum({','.join(a.render() for a in self.args)})"


@dataclass(frozen=True)
class IHSum:
    base: object
    low: str
    high: str
    insert: object

    def render(self) -> str:
        return (f"ihsum({self.base.render()},{json.dumps(self.low)},"
                f"{json.dumps(self.high)},{self.insert.render()})")


@dataclass(frozen=True)
class Dilation:
    arg: object

    def render(self) -> str:
        return f"D({self.arg.render()})"


def render(node) -> str:
    return node.render()


# -- tokenizer ----------------------------------------------------------------

class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos  # 1-based offset in the source text


def _tokenize(text: str):
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "(),":
            out.append(_Token(c, c, i + 1))
            i += 1
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ExprSyntaxError("unterminated string", i + 1)
            out.append(_Token("string", "".join(buf), i + 1))
            i = j + 1
            continue
        if c.isdecimal():  # exactly the digits int() reads; not "²"
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(_Token("int", int(text[i:j]), i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i + 1))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i + 1)
    out.append(_Token("eof", None, n + 1))
    return out


# -- parser --------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def take(self, kind) -> _Token:
        tok = self.tokens[self.k]
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.value!r}" if tok.kind != "eof"
                else f"expected {kind!r}, found end of input",
                tok.pos,
            )
        self.k += 1
        return tok

    def expr(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH}",
                                  self.peek().pos)
        node = self._node()
        self.depth -= 1
        return node

    def _node(self):
        tok = self.take("name")
        word = tok.value
        if word in _BARE_ATOMS:
            return NamedAtom(word)
        if word in _INT_ATOMS:
            self.take("(")
            arg = self.take("int").value
            self.take(")")
            return NamedAtom(word, arg)
        if word == "file":
            self.take("(")
            path = self.take("string").value
            self.take(")")
            return FileAtom(path)
        if word == "osum":
            args = self._expr_list()
            if len(args) != 2:
                raise ArityError(f"osum takes 2 arguments, got {len(args)}")
            return OSum(args[0], args[1])
        if word == "hsum":
            args = self._expr_list()
            if len(args) < 2:
                raise ArityError(f"hsum takes at least 2 arguments, got {len(args)}")
            return HSum(tuple(args))
        if word == "D":
            args = self._expr_list()
            if len(args) != 1:
                raise ArityError(f"D takes 1 argument, got {len(args)}")
            return Dilation(args[0])
        if word == "ihsum":
            self.take("(")
            base = self.expr()
            self.take(",")
            low = self.take("string").value
            self.take(",")
            high = self.take("string").value
            self.take(",")
            insert = self.expr()
            self.take(")")
            return IHSum(base, low, high, insert)
        raise ExprSyntaxError(f"unknown name {word!r}", tok.pos)

    def _expr_list(self):
        self.take("(")
        args = [self.expr()]
        while self.peek().kind == ",":
            self.take(",")
            args.append(self.expr())
        self.take(")")
        return args


def parse(text: str):
    p = _Parser(_tokenize(text))
    node = p.expr()
    p.take("eof")
    return node


# -- evaluation -----------------------------------------------------------------

def evaluate(node) -> Lattice:
    """Evaluate a parsed expression to a lattice."""
    def ev(nd):
        if isinstance(nd, NamedAtom):
            if nd.arg is None:
                return named(nd.kind)
            return named(nd.kind, nd.arg)
        if isinstance(nd, FileAtom):
            try:
                text = Path(nd.path).read_text()
            except UnicodeDecodeError as e:
                raise BadInput(f"{nd.path}: not UTF-8 text ({e.reason})") from None
            except ValueError as e:  # a NUL in the path
                raise BadInput(f"{nd.path!r}: {e}") from None
            return Lattice.from_json(text, name=f"file({json.dumps(nd.path)})")
        if isinstance(nd, OSum):
            return construct.ordinal_sum(ev(nd.lower), ev(nd.upper))[0]
        if isinstance(nd, HSum):
            return construct.horizontal_sum([ev(a) for a in nd.args])[0]
        if isinstance(nd, IHSum):
            base = ev(nd.base)
            return construct.interval_hsum(
                base, base.index(nd.low), base.index(nd.high), ev(nd.insert)
            )[0]
        if isinstance(nd, Dilation):
            return construct.dilate(ev(nd.arg))[0]
        raise TypeError(f"not an expression node: {nd!r}")

    return ev(node).renamed(render(node))
