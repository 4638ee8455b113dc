"""Construction expressions: parse, render, evaluate.

Grammar (whitespace-insensitive; labels and paths are double-quoted, and
in them a backslash makes the next character, such as a quote, literal):

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

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .core import Lattice, named
from .errors import ArityError, BadInput, ExprSyntaxError, SizeCapExceeded
from . import construct

_BARE_ATOMS = ("B2", "M3", "N5", "K")
_INT_ATOMS = ("chain", "div")
# Deepest nesting of constructions accepted; the parser, `render` and
# `evaluate` recurse once or twice per level.
MAX_DEPTH = 100
# Most bytes a file(...) atom reads. The JSON export of a 500-element
# osum(chain(250),chain(251)) is 28,328 bytes, of the 414-element dilation
# of seven stacked B2s 61,223 bytes.
MAX_FILE_BYTES = 1 << 20


def _quote(text: str) -> str:
    """`text` as a string token: only backslash and quote are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
        return f"file({_quote(self.path)})"


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
        return (f"ihsum({self.base.render()},{_quote(self.low)},"
                f"{_quote(self.high)},{self.insert.render()})")


@dataclass(frozen=True)
class Dilation:
    arg: object

    def render(self) -> str:
        return f"D({self.arg.render()})"


def render(node) -> str:
    return node.render()


# -- parser --------------------------------------------------------------------

# One token at the offset it is matched at, after any whitespace. \s, \d and
# \w hold where str.isspace(), str.isdecimal() (the digits int() reads) and
# str.isalnum() or "_" do; a name must also start where str.isalpha() or
# "_" holds, so "²" is no name. A quote that opens no string is a `char`.
_TOKEN = re.compile(r'''\s*(?:(?P<punct>[(),])|(?P<string>"(?:[^"\\]|\\.)*")
    |(?P<int>\d+)|(?P<name>\w+)|(?P<char>.))?''', re.S | re.X)
_ESCAPE = re.compile(r"\\(.)", re.S)


class _Parser:
    """Recursive descent over tokens scanned one at a time, so a fault is
    met in reading order and nothing past it is read."""

    def __init__(self, text):
        self.text = text
        self.end = 0
        self.depth = 0
        self.tok = self._scan()  # lookahead: (kind, value, 1-based offset)

    def _scan(self):
        m = _TOKEN.match(self.text, self.end)
        self.end = m.end()
        kind = m.lastgroup
        if kind is None:
            return ("eof", None, len(self.text) + 1)
        value, pos = m[kind], m.start(kind) + 1
        if kind == "punct":
            return (value, value, pos)
        if kind == "string":
            return (kind, _ESCAPE.sub(r"\1", value[1:-1]), pos)
        if kind == "int":
            try:
                return (kind, int(value), pos)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ExprSyntaxError("integer literal too long", pos) from None
        if kind == "name" and (value[0].isalpha() or value[0] == "_"):
            return (kind, value, pos)
        if value == '"':
            raise ExprSyntaxError("unterminated string", pos)
        raise ExprSyntaxError(f"unexpected character {value[0]!r}", pos)

    def take(self, kind):
        found, value, pos = self.tok
        if found != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {value!r}" if found != "eof"
                else f"expected {kind!r}, found end of input",
                pos,
            )
        self.tok = self._scan()
        return value

    def expr(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH}",
                                  self.tok[2])
        node = self._node()
        self.depth -= 1
        return node

    def _node(self):
        pos = self.tok[2]
        word = self.take("name")
        if word in _BARE_ATOMS:
            return NamedAtom(word)
        if word in _INT_ATOMS:
            self.take("(")
            arg = self.take("int")
            self.take(")")
            return NamedAtom(word, arg)
        if word == "file":
            self.take("(")
            path = self.take("string")
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
            low = self.take("string")
            self.take(",")
            high = self.take("string")
            self.take(",")
            insert = self.expr()
            self.take(")")
            return IHSum(base, low, high, insert)
        raise ExprSyntaxError(f"unknown name {word!r}", pos)

    def _expr_list(self):
        self.take("(")
        args = [self.expr()]
        while self.tok[0] == ",":
            self.take(",")
            args.append(self.expr())
        self.take(")")
        return args


def parse(text: str):
    p = _Parser(text)
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
                with Path(nd.path).open("rb") as fh:
                    data = fh.read(MAX_FILE_BYTES + 1)
                if len(data) > MAX_FILE_BYTES:
                    raise SizeCapExceeded(
                        f"{nd.path}: more than {MAX_FILE_BYTES} bytes")
                text = data.decode("utf-8")
            except UnicodeDecodeError as e:
                raise BadInput(f"{nd.path}: not UTF-8 text ({e.reason})") from None
            except ValueError as e:  # a NUL in the path
                raise BadInput(f"{nd.path!r}: {e}") from None
            return Lattice.from_json(text, name=nd.render())
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
