"""A small arithmetic expression language for coefficient fields.

A source is parsed once by Python's own ``ast`` parser (``^`` is read as
``**``); every node is checked against a whitelist and compiled into nested
callables that evaluate vectorized over numpy coordinate arrays, so no Python
eval is ever involved. The language: decimal numbers; variables n1..n9, the
lattice coordinates (n is n1); the constants pi, e and i (the imaginary
unit); unary + and -, binary + - * / ^ with Python's precedence; and
one-argument calls of the functions below.
"""

import ast
import operator
import re
import warnings

import numpy as np

from .errors import InvalidConfigError

_FUNCS = {name: getattr(np, name) for name in
          ("sin", "cos", "tan", "sqrt", "abs", "exp", "log", "sign", "floor", "ceil")}

# constants are numpy scalars, so constant subexpressions follow the same
# floating-point rules as coordinate ones (1/0 is inf, not an exception)
_CONSTS = {"pi": np.float64(np.pi), "e": np.float64(np.e), "i": np.complex128(1j)}

_BAD_CHAR = re.compile(r"[^\w\s.+\-*/^(),]")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=[0-9])")  # 010 reads as 10
_NUMBER = re.compile(r"[0-9.]+([eE][+-]?[0-9]+)?")  # not 1_0, 0x1 or 1j
_VARIABLE = re.compile(r"n\d*")
# a number starts with a digit or a dot; float() reads any decimal digit
# there, the parser only ASCII ones
_NUMERAL = re.compile(r"(?<!\w)[\d.][\w.]*")


def _divide(a, b):
    with np.errstate(invalid="ignore", divide="ignore"):
        return a / b


def _power(a, b):
    with np.errstate(invalid="ignore"):
        return a ** b


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: _divide, ast.Pow: _power}


class Expression:
    """Compiled expression; evaluate with coords of shape (n, dim)."""

    def __init__(self, source):
        self.source = source
        bad = _BAD_CHAR.search(source)
        if bad:
            raise InvalidConfigError(f"bad character {bad.group()!r} in expression {source!r}")
        src = " ".join(source.split()).replace("^", "**")
        if not src.isascii():
            src = _NUMERAL.sub(lambda m: "".join(str(int(c)) if c.isdecimal() else c
                                                 for c in m[0]), src)
        src = _LEADING_ZEROS.sub("", src)
        raw = src.encode()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "1or 2" warns of a bad literal
                tree = ast.parse(src, mode="eval")
            self._fn = _compile(tree.body, raw)
        except SyntaxError as exc:
            raise InvalidConfigError(f"bad expression {source!r}: {exc.msg}") from None
        except (RecursionError, MemoryError):
            raise InvalidConfigError(f"expression {source!r} is nested too deeply") from None
        names = [_text(node, raw) for node in ast.walk(tree) if type(node) is ast.Name]
        self.variables = sorted({"n1" if v == "n" else v for v in names if _VARIABLE.fullmatch(v)})
        self.is_complex = "i" in names
        self._arity = self.max_variable()

    def max_variable(self):
        return max((int(v[1:]) for v in self.variables), default=0)

    def eval(self, coords):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        if self._arity > coords.shape[1]:
            raise InvalidConfigError(
                f"expression {self.source!r} uses n{self._arity} but the space has "
                f"{coords.shape[1]} coordinates"
            )
        try:
            out = self._fn(coords)
        except RecursionError:
            raise InvalidConfigError(f"expression {self.source!r} is nested too deeply") from None
        if np.isscalar(out) or np.ndim(out) == 0:
            dt = np.complex128 if self.is_complex else np.float64
            out = np.full(coords.shape[0], out, dtype=dt)
        return out

    def __repr__(self):
        return f"Expression({self.source!r})"


def _text(node, raw):
    """A node's source as written in the one-line UTF-8 source ``raw`` (the
    parser's offsets count bytes). Names are read from it, not from the
    parser's ``id``, which folds, e.g., fullwidth letters to ASCII."""
    return raw[node.col_offset:node.end_col_offset].decode()


def _compile(node, raw):
    """The callable coords -> value of one whitelisted node."""
    text, kind = _text(node, raw), type(node)
    if kind is ast.Constant and type(node.value) in (int, float) and _NUMBER.fullmatch(text):
        value = np.float64(text)
        return lambda x: value
    if kind is ast.Name and text in _CONSTS:
        value = _CONSTS[text]
        return lambda x: value
    if kind is ast.Name and _VARIABLE.fullmatch(text):
        k = int(text[1:] or 1)
        if not 1 <= k <= 9:
            raise InvalidConfigError(f"variable {text!r} out of range n1..n9")
        return lambda x: x[:, k - 1]
    if kind is ast.UnaryOp and type(node.op) in (ast.UAdd, ast.USub):
        f = _compile(node.operand, raw)
        return f if type(node.op) is ast.UAdd else lambda x: -f(x)
    if kind is ast.BinOp and type(node.op) in _BINARY:
        op, f, g = _BINARY[type(node.op)], _compile(node.left, raw), _compile(node.right, raw)
        return lambda x: op(f(x), g(x))
    func = getattr(node, "func", None)
    if (kind is ast.Call and type(func) is ast.Name and _text(func, raw) in _FUNCS
            and func.col_offset == node.col_offset  # not (sin)(1)
            and len(node.args) == 1 and not node.keywords
            and "," not in text):  # not sin(1,)
        fn, f = _FUNCS[func.id], _compile(node.args[0], raw)

        def call(x):
            with np.errstate(invalid="ignore", divide="ignore"):
                return fn(f(x))
        return call
    raise InvalidConfigError(f"{text!r} is not allowed in an expression")
