"""Expression mini-language, point functions, and the box functions: the
interval functions (integrators and indefinite integrals) and the
superadditive controls.

Grammar (no implicit multiplication, '^' binds tightest):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' atom)?
    atom   := NUMBER | VAR | FUNC '(' args ')' | '(' expr ')'
            | 'ite' '(' VAR '<' NUMBER ',' expr ',' expr ')'

NUMBER is an unsigned decimal ("0.5") or rational ("p/q"); a digits/digits
run with no spaces lexes as one rational token, so write "x/2" or "1 / 2"
when division is meant next to an exponent.  VAR is x or x1..x9.

Evaluation is IEEE double.  An exact-rational evaluation path exists for
expressions built from rational literals and +,-,*,/,^int,abs,ite; it backs
the exact additivity checks for corner-generated interval functions.  The
builtin `heaviside_c` is the expression ite(x<c,0,1), so it has both paths.

`IntervalFunction` and `SuperadditiveFn` share one base: a table on the
dyadic cells of a box, its lookup, and `on_grid`, which reads a function
on the cells of a `DyadicGrid` by index.  Each class adds its own kinds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice, product, repeat
from typing import Callable, Optional

from .intervals import (Box, DyadicTable, Partition, as_point, as_rational, fsum,
                        point_floats)

UNARY_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
# deepest accepted nesting of brackets and of the expression tree; the parser
# and the evaluators recurse once per level
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"{message} (column {column})")


class EvalDomainError(ValueError):
    def __init__(self, message: str, subexpr: "Expr"):
        self.subexpr = subexpr
        super().__init__(f"{message} in '{subexpr}'")


# ---------------------------------------------------------------------------
# AST


class Expr:
    def eval(self, point) -> float:
        return _eval(self, point_floats(as_point(point)))

    def eval_exact(self, point) -> Optional[Fraction]:
        """Exact rational value, or None if a transcendental node blocks it."""
        return _eval_exact(self, as_point(point))

    def max_var(self) -> int:
        return _max_var(self)

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction
    # float(value) once; None on overflow, so evaluation raises as before
    fvalue: Optional[float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            fvalue = float(self.value)
        except OverflowError:
            fvalue = None
        object.__setattr__(self, "fvalue", fvalue)


@dataclass(frozen=True)
class Var(Expr):
    index: int


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Fun(Expr):
    name: str
    arg: Expr


@dataclass(frozen=True)
class Ite(Expr):
    var: int
    threshold: Fraction
    then: Expr
    other: Expr


def _height(e: Expr) -> int:
    """Levels of the tree, counted without recursion."""
    height, level = 0, [e]
    while level:
        height += 1
        level = [c for node in level for c in vars(node).values()
                 if isinstance(c, Expr)]
    return height


def _max_var(e: Expr) -> int:
    if isinstance(e, Var):
        return e.index + 1
    if isinstance(e, Bin):
        return max(_max_var(e.left), _max_var(e.right))
    if isinstance(e, Fun):
        return _max_var(e.arg)
    if isinstance(e, Ite):
        return max(e.var + 1, _max_var(e.then), _max_var(e.other))
    return 0


def _eval(e: Expr, xs: tuple) -> float:
    if isinstance(e, Num):
        v = e.fvalue
        return float(e.value) if v is None else v
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Bin):
        a = _eval(e.left, xs)
        if e.op == "^":
            b = _eval(e.right, xs)
            if a == 0.0 and b < 0.0:
                raise EvalDomainError("zero base with negative exponent", e)
            try:
                # math.pow rejects fractional powers of negative bases
                # (float ** would silently go complex)
                return math.pow(a, b)
            except (ValueError, OverflowError):
                raise EvalDomainError("invalid power", e) from None
        b = _eval(e.right, xs)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalDomainError("division by zero", e)
        return a / b
    if isinstance(e, Fun):
        v = _eval(e.arg, xs)
        if e.name == "sin":
            return math.sin(v)
        if e.name == "cos":
            return math.cos(v)
        if e.name == "exp":
            return math.exp(v)
        if e.name == "abs":
            return abs(v)
        if e.name == "log":
            if v <= 0.0:
                raise EvalDomainError(f"log of {v}", e)
            return math.log(v)
        if v < 0.0:
            raise EvalDomainError(f"sqrt of {v}", e)
        return math.sqrt(v)
    # Ite
    if Fraction(xs[e.var]) < e.threshold:
        return _eval(e.then, xs)
    return _eval(e.other, xs)


_BLOCK_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "^": math.pow, "sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs,
              "log": math.log, "sqrt": math.sqrt}


def _eval_block(e: Expr, cols: list):
    """`_eval` node by node over columns: cols[i] holds variable i's values,
    and a subtree without a variable is one float, repeated.  Raises where
    `_eval` does, though not always at the first such point."""
    if isinstance(e, Var):
        return cols[e.index]
    if not _max_var(e):
        return repeat(_eval(e, ()))
    if isinstance(e, Ite):  # each branch at the points that take it only
        take = [Fraction(x) < e.threshold for x in cols[e.var]]
        a, b = (iter(_eval_block(br, [list(compress(c, keep)) for c in cols])) if any(keep)
                else None for br, keep in ((e.then, take), (e.other, [not t for t in take])))
        return [next(a) if t else next(b) for t in take]
    if isinstance(e, Fun):
        return list(map(_BLOCK_OPS[e.name], _eval_block(e.arg, cols)))
    a, b = _eval_block(e.left, cols), _eval_block(e.right, cols)
    if e.op == "^" and any(x == 0.0 and y < 0.0 for x, y in zip(a, b)):  # pow(0, -inf) is inf
        raise EvalDomainError("zero base with negative exponent", e)
    return list(map(_BLOCK_OPS[e.op], a, b))


def _eval_exact(e: Expr, point: tuple) -> Optional[Fraction]:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return point[e.index]
    if isinstance(e, Bin):
        a = _eval_exact(e.left, point)
        b = _eval_exact(e.right, point)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise EvalDomainError("division by zero", e)
            return a / b
        if b.denominator != 1:
            return None
        n = b.numerator
        if a == 0 and n < 0:
            raise EvalDomainError("zero base with negative exponent", e)
        return a**n
    if isinstance(e, Fun):
        if e.name != "abs":
            return None
        v = _eval_exact(e.arg, point)
        return None if v is None else abs(v)
    if isinstance(e, Ite):
        branch = e.then if point[e.var] < e.threshold else e.other
        return _eval_exact(branch, point)
    return None


# ---------------------------------------------------------------------------
# Tokenizer / parser

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _tokenize(text: str):
    tokens = []  # (kind, value, column) with 1-based columns
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("num", Fraction(text[i:j]), col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], col))
            i = j
            continue
        if ch in "+-*/^(),<":
            tokens.append((ch, ch, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(("end", "", n + 1))
    return tokens


def _var_index(name: str) -> Optional[int]:
    if name == "x":
        return 0
    if len(name) == 2 and name[0] == "x" and name[1] in "123456789":
        return int(name[1]) - 1
    return None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        # a tree has no more levels than the text has tokens
        if len(self.tokens) > MAX_NESTING and _height(e) > MAX_NESTING:
            raise ParseError(f"expression tree deeper than {MAX_NESTING} levels", 1)
        return e

    def expr(self) -> Expr:
        # brackets, function arguments and ite branches all come through here
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels", self.peek()[2])
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            e = Bin(op, e, self.term())
        self.nesting -= 1
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, col = self.take()
            rhs = self.factor()
            # literal/literal division is the rational notation "p/q";
            # fold it so thresholds and endpoints stay exact
            if op == "/" and isinstance(e, Num) and isinstance(rhs, Num):
                if rhs.value == 0:
                    raise ParseError("rational with zero denominator", col)
                e = Num(e.value / rhs.value)
            else:
                e = Bin(op, e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.atom()
        if self.peek()[0] == "^":
            self.take()
            e = Bin("^", e, self.atom())
        return e

    def atom(self) -> Expr:
        kind, value, col = self.peek()
        if kind == "num":
            self.take()
            return Num(value)
        if kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if kind == "name":
            self.take()
            idx = _var_index(value)
            if idx is not None:
                return Var(idx)
            if value == "ite":
                return self.ite(col)
            if value in UNARY_FUNCTIONS:
                self.take("(")
                arg = self.expr()
                if self.peek()[0] == ",":
                    raise ParseError(f"{value} takes one argument", self.peek()[2])
                self.take(")")
                return Fun(value, arg)
            raise ParseError(f"unknown identifier {value!r}", col)
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end", col)

    def ite(self, col: int) -> Expr:
        self.take("(")
        kind, name, vcol = self.take("name")
        idx = _var_index(name)
        if idx is None:
            raise ParseError(f"ite condition needs a variable, got {name!r}", vcol)
        self.take("<")
        _, threshold, _ = self.take("num")
        if self.peek()[0] == "/":
            _, _, dcol = self.take()
            _, denom, _ = self.take("num")
            if denom == 0:
                raise ParseError("rational with zero denominator", dcol)
            threshold = threshold / denom
        self.take(",")
        then = self.expr()
        self.take(",")
        other = self.expr()
        self.take(")")
        return Ite(idx, threshold, then, other)


def parse(text: str) -> Expr:
    """Parse expression text into an AST; errors carry a 1-based column."""
    return _Parser(text).parse()


def to_text(e: Expr) -> str:
    """Canonical printer; parse(to_text(parse(s))) == parse(s)."""

    def render(node, parent_prec: int) -> str:
        if isinstance(node, Num):
            if node.value < 0:
                # the grammar has no unary minus; canonical form is 0-v
                s = f"0-{-node.value}"
                if 1 < parent_prec:
                    s = f"({s})"
                return s
            s = str(node.value)
            # a rational literal's slash would fuse with an enclosing
            # '*', '/' or '^' on reparse
            if node.value.denominator != 1 and parent_prec >= 2:
                s = f"({s})"
            return s
        elif isinstance(node, Var):
            s = "x" if node.index == 0 else f"x{node.index + 1}"
        elif isinstance(node, Fun):
            s = f"{node.name}({render(node.arg, 0)})"
        elif isinstance(node, Ite):
            var = "x" if node.var == 0 else f"x{node.var + 1}"
            s = (
                f"ite({var}<{node.threshold},"
                f"{render(node.then, 0)},{render(node.other, 0)})"
            )
        else:
            p = _PREC[node.op]
            if node.op == "^":
                left = render(node.left, 4)
                right = render(node.right, 4)
                s = f"{left}^{right}"
            else:
                left = render(node.left, p)
                right = render(node.right, p + 1)
                s = f"{left}{node.op}{right}"
            if p < parent_prec:
                s = f"({s})"
            return s
        return s

    return render(e, 0)


# ---------------------------------------------------------------------------
# Point functions


class PointFunction:
    """Evaluatable real function: expression-backed, builtin, or callable.

    `singular_points` lists points where a builtin's value is declared
    rather than computed; the integrator pins tags there.

    Every kind evaluates through one callable, `fast_eval`: a tuple of
    floats in, a float out; a call on a point converts it to those floats
    first.  `fn` names the same callable.  `eval_block` takes a list of
    tuples and gives the same floats.  An expression, which is pure,
    evaluates a block in one walk of its tree, column by column, and goes
    tag by tag only where that raises, so it raises the first failure in
    tag order.  Any other function maps `fast_eval` over the tags.
    """

    def __init__(
        self,
        fast_eval: Callable,
        name: str,
        dim: int = 1,
        expr: Optional[Expr] = None,
        singular_points: tuple = (),
    ):
        self.fast_eval = self.fn = fast_eval
        self.name = name
        self.dim = dim
        self.expr = expr
        self.singular_points = tuple(as_point(p) for p in singular_points)

    @classmethod
    def from_expr(cls, source, dim: Optional[int] = None) -> "PointFunction":
        expr = parse(source) if isinstance(source, str) else source
        need = expr.max_var()
        if dim is None:
            dim = max(1, need)
        elif need > dim:
            raise ValueError(f"expression uses x{need} but dim={dim}")
        return cls(lambda xs: _eval(expr, xs), to_text(expr), dim=dim, expr=expr)

    @classmethod
    def from_callable(
        cls, fn: Callable, name: str, dim: int = 1, singular_points: tuple = ()
    ) -> "PointFunction":
        fast_eval = (lambda xs: fn(xs[0])) if dim == 1 else fn
        return cls(fast_eval, name, dim=dim, singular_points=singular_points)

    @classmethod
    def builtin(cls, name: str) -> "PointFunction":
        if name in _BUILTINS:  # declared, not computed, at the singular point 0
            fn = _BUILTINS[name]
            return cls(lambda xs: fn(xs[0]), name, singular_points=(0,))
        if name.startswith("heaviside_"):  # ite(x<c,0,1)
            pf = cls.from_expr(Ite(0, Fraction(name[len("heaviside_") :]), Num(Fraction(0)),
                                   Num(Fraction(1))))
            pf.name = name
            return pf
        raise ValueError(f"unknown builtin {name!r}")

    @classmethod
    def resolve(cls, source, dim: Optional[int] = None) -> "PointFunction":
        """Builtin by name, else parsed expression."""
        if isinstance(source, PointFunction):
            return source
        if isinstance(source, str):
            if source in _BUILTINS or source.startswith("heaviside_"):
                return cls.builtin(source)
            return cls.from_expr(source, dim=dim)
        if isinstance(source, Expr):
            return cls.from_expr(source, dim=dim)
        if callable(source):
            return cls.from_callable(source, getattr(source, "__name__", "fn"))
        raise TypeError(f"cannot interpret {source!r} as a point function")

    def __call__(self, point) -> float:
        return float(self.fast_eval(point_floats(as_point(point))))

    def eval_block(self, tags, out=None) -> list:
        """fast_eval at each tag in order, appended to `out` (default: a new
        list), which after a failure holds the values before the failing tag."""
        out, vals = [] if out is None else out, None
        if self.expr is not None and tags:
            try:
                vals = _eval_block(self.expr, list(zip(*tags)))
            except (ValueError, ArithmeticError):
                pass  # mapping fast_eval raises the first failure in tag order
        out.extend(map(self.fast_eval, tags) if vals is None else islice(vals, len(tags)))
        return out

    def eval_exact(self, point) -> Optional[Fraction]:
        return None if self.expr is None else self.expr.eval_exact(point)

    def __repr__(self):
        return f"PointFunction({self.name})"


def as_scalar(fn) -> Callable[[float], float]:
    """float -> float view of expression text, a PointFunction or a callable."""
    if isinstance(fn, str):
        fn = PointFunction.resolve(fn)
    if isinstance(fn, PointFunction):
        fast = fn.fast_eval
        return lambda t: fast((t,))
    return fn


def _hk_primitive(x: float) -> float:
    # declared value 0 at the singular point; x*x underflow treated alike
    if x == 0.0 or x * x == 0.0:
        return 0.0
    return x * x * math.sin(1.0 / (x * x))


def _hk_derivative(x: float) -> float:
    if x == 0.0 or x * x == 0.0:
        return 0.0
    u = 1.0 / (x * x)
    return 2.0 * x * math.sin(u) - (2.0 / x) * math.cos(u)


def _inv_sqrt(x: float) -> float:
    if x == 0.0:
        return 0.0
    if x < 0.0:
        raise ValueError("inv_sqrt defined on [0, inf) only")
    return x**-0.5


_BUILTINS = {"hk_primitive": _hk_primitive, "hk_derivative": _hk_derivative,
             "inv_sqrt": _inv_sqrt}


# ---------------------------------------------------------------------------
# Interval functions


def _corner_signs(dim: int) -> list:
    """(-1)^(#lo coordinates) of each corner, in the (lo, hi) product order."""
    return [-1 if bits.count(0) % 2 else 1 for bits in product((0, 1), repeat=dim)]


class _BoxFunction:
    """What an interval function and a control share: a `kind` and its data,
    the table on dyadic cells, and the reader by cell index (`on_grid`).  A
    subclass gives the formulas of its other kinds (`_formula`,
    `value_exact`) and sets `positive` if its values must be > 0."""

    positive = False

    def __init__(self, kind: str, **data):
        self.kind = kind
        self.__dict__.update(data)

    @classmethod
    def table(cls, entries, parent: Box, depth: int, *, name: str = "table"):
        """A table of values on the dyadic cells of `parent` to `depth`:
        `entries` is an `intervals.DyadicTable` (one float list per depth,
        iterated by depth, then lexicographically), given as one or as a
        Box-keyed dict of such cells."""
        return cls("table", entries=DyadicTable.of(entries, parent, depth), parent=parent,
                   depth=depth, dim=parent.dim, name=name)

    def value(self, box: Box) -> float:
        if self.kind != "table":
            v = self._formula(box)
        else:
            try:
                v = self.entries[box]
            except KeyError:
                raise KeyError(f"{box} not in {self.name} (depth {self.depth})") from None
        if self.positive and not v > 0.0:
            raise ValueError(f"{self.name} is {v} on {box}; controls must be > 0")
        return v

    def on_grid(self, grid) -> Callable:
        """read(d, js) = self.value(Q) on the cell Q = (d, js) of `grid`, read
        by index where no Box is needed: a table on the grid's box, and the
        volume or c |Q|^p from the exact cell volume, one per depth.  Else,
        and where a table has no value or a control is not > 0, on the
        cell's Box, which raises the function's own error."""
        if self.kind == "volume":
            return lambda d, js: grid.cell_volume(d)
        if self.kind == "table" and self.entries.grid.box == grid.box:
            raw = self.entries.at
        elif self.kind == "volume_power":
            c, p = float(self.coeff), float(self.p)
            raw = lambda d, js: c * grid.cell_volume(d) ** p
        else:
            return lambda d, js: self.value(grid.cell(d, js))
        positive, cell = self.positive, grid.cell

        def read(d, js):
            v = raw(d, js)
            return v if v is not None and (v > 0.0 or not positive) else self.value(cell(d, js))

        return read

    def __call__(self, box: Box) -> float:
        return self.value(box)

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class IntervalFunction(_BoxFunction):
    """Box -> real map: the volume, corner-generated (exactly additive) or
    table-backed.

    A corner generator g induces G(Q) = sum over corners of Q of
    (-1)^(#lo-coordinates) * g(corner), the n-dimensional increment;
    in one dimension this is G([a,b]) = g(b) - g(a).
    """

    @classmethod
    def resolve(cls, G, dim: int) -> "IntervalFunction":
        """Volume for None/"length"/"volume", else G or its corner generator."""
        if G is None or (isinstance(G, str) and G in ("", "length", "volume")):
            return cls.volume(dim)
        if isinstance(G, IntervalFunction):
            return G
        return cls.from_generator(G)

    @classmethod
    def from_generator(cls, g) -> "IntervalFunction":
        g = PointFunction.resolve(g)
        return cls("corner", generator=g, dim=g.dim, name=f"corner({g.name})")

    @classmethod
    def length(cls) -> "IntervalFunction":
        return cls.volume(1)

    @classmethod
    def volume(cls, dim: int) -> "IntervalFunction":
        return cls("volume", dim=dim, name="volume")

    @classmethod
    def heaviside(cls, c) -> "IntervalFunction":
        return cls.from_generator(PointFunction.builtin(f"heaviside_{as_rational(c)}"))

    def _increment(self, axes, signs) -> float:
        """G of the box with these (lo, hi) ends per axis, each (exact, float),
        and corner `signs`: g exactly at a corner whose floats are not it, as
        they may lie across a jump of g (heaviside_c's at c), else on them."""
        gen, terms = self.generator, []
        for sign, corner in zip(signs, product(*axes)):
            exact, floats = zip(*corner)
            v = None
            if floats != exact:
                try:
                    v = gen.eval_exact(tuple(map(Fraction, exact)))
                except (ValueError, ArithmeticError):
                    pass
            terms.append(sign * (gen.fast_eval(floats) if v is None else float(v)))
        return fsum(terms)

    def on_grid(self, grid) -> Callable:
        """`_BoxFunction.on_grid`; a corner G is read exactly only at the grid
        box's ends, on the grid's floats inside (`value`: at its Box's ends)."""
        if self.kind != "corner":
            return super().on_grid(grid)
        signs, ends = _corner_signs(grid.dim), grid.box.intervals
        return lambda d, js: self._increment(
            [((lo if j == 0 else a, a), (hi if j + 1 == 1 << d else b, b))
             for (a, b), j, (lo, hi) in zip(grid.bounds((d, js)), js, ends)], signs)

    def _formula(self, box: Box) -> float:
        if self.kind == "volume":
            return float(box.volume)
        return self._increment([((lo, float(lo)), (hi, float(hi))) for lo, hi in box.intervals],
                               _corner_signs(box.dim))

    def value_exact(self, box: Box) -> Optional[Fraction]:
        if self.kind != "corner":
            return box.volume if self.kind == "volume" else None
        total = Fraction(0)
        for sign, corner in zip(_corner_signs(box.dim), box.corners()):
            v = self.generator.eval_exact(corner)
            if v is None:
                return None
            total += sign * v
        return total


class SuperadditiveFn(_BoxFunction):
    """Positive box function used as an n-dimensional control.

    Variants: c*|Q|^p, an expression of the side lengths (variables
    x1..xn), or an explicit table on dyadic cells.
    """

    positive = True

    @classmethod
    def volume_power(cls, p, coeff=1) -> "SuperadditiveFn":
        return cls(
            "volume_power",
            p=as_rational(p),
            coeff=as_rational(coeff),
            name=f"{coeff}*|Q|^{p}",
        )

    @classmethod
    def from_side_expr(cls, source) -> "SuperadditiveFn":
        expr = parse(source) if isinstance(source, str) else source
        return cls("sides", expr=expr, name=f"sides:{to_text(expr)}")

    def _formula(self, box: Box) -> float:
        if self.kind == "volume_power":
            return float(self.coeff) * float(box.volume) ** float(self.p)
        return self.expr.eval(tuple(hi - lo for lo, hi in box.intervals))

    def value_exact(self, box: Box) -> Optional[Fraction]:
        if self.kind == "volume_power" and self.p.denominator == 1:
            return self.coeff * box.volume ** self.p.numerator
        if self.kind == "sides":
            sides = tuple(hi - lo for lo, hi in box.intervals)
            return self.expr.eval_exact(sides)
        return None


def partition_defect(H, parent: Box, partition) -> float:
    """sum_Q H(Q) - H(parent): 0 for additive H, <= 0 for superadditive.

    Computed exactly (rational) whenever H admits exact evaluation on all
    cells, so additivity of corner-generated rational-polynomial functions
    tests to exactly zero.
    """
    cells = list(partition.cells if isinstance(partition, Partition) else partition)
    exact = [H.value_exact(parent)]
    for c in cells:
        if exact[-1] is None:
            break
        exact.append(H.value_exact(c))
    if exact[-1] is not None:
        return float(sum(exact[1:]) - exact[0])
    return fsum([H.value(c) for c in cells]) - H.value(parent)
