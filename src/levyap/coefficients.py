"""Quasi-periodic coefficient sets with certified bounds.

Time dependence enters the model only through *signals*: arithmetic
expressions over oscillators ``cos(w_i t)`` and ``sin(w_i t)`` with a
finite frequency basis.  Signals are parsed from a small expression
language (see ``docs/signals.md``), evaluated vectorized, and bounded by
interval arithmetic over the expression tree, which certifies in
particular that denominators stay away from zero, hence that every
coefficient is bounded uniformly in time.

A coefficient map (drift, diffusion, small-jump, large-jump) is a sum of
*terms*; each term is ``scale * outer(t) * kernel(y[coord], inner(t), x)``
with the state nonlinearity drawn from a fixed catalog of kernels with
known Lipschitz constants.  Mark dependence is restricted to an affine
factor ``w . x``, which keeps jump compensators in closed form through
the mark means of the noise spec.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import LevyapError, _lazy_import
from .noise import LevyProcessSpec

np = _lazy_import("numpy")

__all__ = [
    "SignalParseError",
    "UnboundedSignalError",
    "CoefficientError",
    "QuasiPeriodicSignal",
    "CoefficientTerm",
    "CoefficientSet",
    "KERNELS",
    "PreparedTerm",
    "drift_terms",
    "diffusion_terms",
    "compensator_terms",
    "term_value",
    "add_terms",
    "point_values",
    "jump_terms",
]

Number = Union[int, float, Fraction]


class SignalParseError(ValueError, LevyapError):
    """Raised on malformed signal expressions."""


class UnboundedSignalError(ValueError, LevyapError):
    """Raised when the interval certificate cannot bound a signal."""


class CoefficientError(ValueError, LevyapError):
    """Raised when a coefficient set is inconsistent."""


# ---------------------------------------------------------------------------
# signal expressions
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi
# how near a critical point of sin or cos may lie outside an interval and
# still count as inside (``_trig_interval``)
_ARC_SLACK = 1e-9
# deepest signal expression: brackets, functions, unary minus and each
# operator of a chain count one level.  It keeps the recursion of the
# parser (about six frames a level) and of the tree walks within
# Python's default limit
_MAX_DEPTH = 100


# expression nodes: ``fn`` is "cos" or "sin", ``slot`` a 0-based
# frequency index, ``op`` one of + - * /.  No two node types can hold
# equal items, so trees compare equal only when they are the same tree.
_Num = namedtuple("_Num", "value")
_Osc = namedtuple("_Osc", "fn slot")
_Neg = namedtuple("_Neg", "arg")
_Fun = namedtuple("_Fun", "fn arg")
_Bin = namedtuple("_Bin", "op lhs rhs")


def _eval_expr(node, t: np.ndarray, freqs: tuple[float, ...]) -> np.ndarray:
    if isinstance(node, _Num):
        return np.full_like(t, node.value, dtype=float)
    if isinstance(node, _Osc):
        f = np.cos if node.fn == "cos" else np.sin
        return f(freqs[node.slot] * t)
    if isinstance(node, _Neg):
        return -_eval_expr(node.arg, t, freqs)
    if isinstance(node, _Fun):
        f = np.cos if node.fn == "cos" else np.sin
        return f(_eval_expr(node.arg, t, freqs))
    if isinstance(node, _Bin):
        a = _eval_expr(node.lhs, t, freqs)
        b = _eval_expr(node.rhs, t, freqs)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    raise SignalParseError(f"unknown expression node {node!r}")


def _trig_interval(fn: str, lo: float, hi: float) -> tuple[float, float]:
    """Range of sin or cos over the finite interval [lo, hi].

    An interval of 2 pi or more takes the whole range [-1, 1].  On a
    shorter one the extremes are at the ends or at the critical points
    inside, where the value is exactly 1 or -1.  The phase of ``lo`` is
    read from its sine and cosine, which libm reduces exactly at any
    magnitude, so the interval covers the arc [phase, phase + hi - lo]
    within (-pi, 3 pi), and the same six critical points are tested
    whatever the size of the endpoints.  A critical point within
    ``_ARC_SLACK`` of the arc counts as inside, which can only widen the
    range."""
    if not hi - lo < _TWO_PI:
        return -1.0, 1.0
    f = math.cos if fn == "cos" else math.sin
    vals = [f(lo), f(hi)]
    phase = math.atan2(math.sin(lo), math.cos(lo))
    # fn' = 0 at k pi (cos) or pi/2 + k pi (sin), where fn = (-1)^k
    offset = 0.0 if fn == "cos" else math.pi / 2.0
    for k in range(-2, 4):
        if phase - _ARC_SLACK <= offset + k * math.pi <= phase + (hi - lo) + _ARC_SLACK:
            vals.append(1.0 if k % 2 == 0 else -1.0)
    return min(vals), max(vals)


def _interval(node) -> tuple[float, float]:
    """The certified interval of a node's values; a non-finite one,
    from a literal or an operation that overflows a double, raises."""
    lo, hi = _node_interval(node)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UnboundedSignalError(
            f"interval [{lo}, {hi}] of a subexpression is not finite: "
            "a number or an operation overflows a double"
        )
    return lo, hi


def _node_interval(node) -> tuple[float, float]:
    if isinstance(node, _Num):
        return node.value, node.value
    if isinstance(node, _Osc):
        return -1.0, 1.0
    if isinstance(node, _Neg):
        lo, hi = _interval(node.arg)
        return -hi, -lo
    if isinstance(node, _Fun):
        lo, hi = _interval(node.arg)
        return _trig_interval(node.fn, lo, hi)
    if isinstance(node, _Bin):
        a0, a1 = _interval(node.lhs)
        b0, b1 = _interval(node.rhs)
        if node.op == "+":
            return a0 + b0, a1 + b1
        if node.op == "-":
            return a0 - b1, a1 - b0
        if node.op == "*":
            prods = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
            return min(prods), max(prods)
        if b0 <= 0.0 <= b1:
            raise UnboundedSignalError(
                f"denominator interval [{b0}, {b1}] contains zero"
            )
        recips = (a0 / b0, a0 / b1, a1 / b0, a1 / b1)
        return min(recips), max(recips)
    raise SignalParseError(f"unknown expression node {node!r}")


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?|\.\d+)"
    r"|(?P<osc>[cs]\d+)"
    r"|(?P<fun>sin|cos)"
    r"|(?P<op>[-+*/()]))"
)


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SignalParseError(f"bad character at {text[pos:]!r}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over: expr := term ((+|-) term)*,
    term := unary ((*|/) unary)*, unary := - unary | atom,
    atom := NUM | c<k> | s<k> | (sin|cos) ( expr ) | ( expr ).

    Each rule takes the depth at which it parses and returns its node
    with the depth of the node's deepest leaf: brackets, functions and
    unary minus nest their operand one level deeper, and each operator of
    a chain sits one level above both its operands.  A depth above
    ``_MAX_DEPTH`` raises, checked as soon as it is reached."""

    def __init__(self, tokens: list[str], n_freqs: int):
        self.tokens = tokens
        self.pos = 0
        self.n_freqs = n_freqs

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SignalParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise SignalParseError(f"expected {tok!r}, got {got!r}")

    @staticmethod
    def deeper(depth: int) -> int:
        if depth > _MAX_DEPTH:
            raise SignalParseError(
                f"expression nests deeper than {_MAX_DEPTH} levels (brackets, "
                "functions, unary minus and each operator of a chain count one)"
            )
        return depth

    def parse(self):
        node, _ = self.expr(0)
        if self.peek() is not None:
            raise SignalParseError(f"trailing tokens from {self.peek()!r}")
        return node

    def chain(self, operand, ops: tuple, depth: int):
        """operand ((op) operand)* for the ``ops``, left-associative."""
        node, deepest = operand(depth)
        while self.peek() in ops:
            op = self.take()
            rhs, rhs_deepest = operand(depth)
            node, deepest = _Bin(op, node, rhs), self.deeper(max(deepest, rhs_deepest) + 1)
        return node, deepest

    def expr(self, depth: int):
        return self.chain(self.term, ("+", "-"), depth)

    def term(self, depth: int):
        return self.chain(self.unary, ("*", "/"), depth)

    def unary(self, depth: int):
        if self.peek() == "-":
            self.take()
            node, deepest = self.unary(self.deeper(depth + 1))
            return _Neg(node), deepest
        return self.atom(depth)

    def atom(self, depth: int):
        tok = self.take()
        if tok == "(":
            node = self.expr(self.deeper(depth + 1))
            self.expect(")")
            return node
        if tok in ("sin", "cos"):
            self.expect("(")
            node, deepest = self.expr(self.deeper(depth + 1))
            self.expect(")")
            return _Fun(tok, node), deepest
        if re.fullmatch(r"[cs]\d+", tok):
            slot = int(tok[1:]) - 1
            if not (0 <= slot < self.n_freqs):
                raise SignalParseError(
                    f"oscillator {tok!r} has no frequency (have {self.n_freqs})"
                )
            return _Osc("cos" if tok[0] == "c" else "sin", slot), depth
        try:
            return _Num(float(tok)), depth
        except ValueError:
            raise SignalParseError(f"unexpected token {tok!r}") from None


class QuasiPeriodicSignal(namedtuple("QuasiPeriodicSignal", "frequencies expr")):
    """A bounded quasi-periodic scalar signal of time.

    ``frequencies`` lists the base frequencies; the expression refers to
    them as ``c1``/``s1`` (cos/sin of the first frequency) and so on.
    Construction certifies boundedness by interval arithmetic and raises
    UnboundedSignalError otherwise.
    """

    __slots__ = ()

    @classmethod
    def parse(cls, text: str, frequencies: Sequence[float] = ()) -> "QuasiPeriodicSignal":
        freqs = tuple(float(w) for w in frequencies)
        for w in freqs:
            if not (math.isfinite(w) and w > 0):
                raise SignalParseError("frequencies must be finite and positive")
        node = _Parser(_tokenize(text), len(freqs)).parse()
        sig = cls(frequencies=freqs, expr=node)
        sig.bounds()  # certify now; raises UnboundedSignalError if not
        return sig

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return _eval_expr(self.expr, t, self.frequencies)

    def bounds(self) -> tuple[float, float]:
        return _interval(self.expr)


# ---------------------------------------------------------------------------
# kernels and terms
# ---------------------------------------------------------------------------


# Kernel values k(y, aux).  With ``out`` given, a kernel that computes
# writes its value there with in-place ufuncs; "linear" returns ``y``
# itself and "const" the scalar 1.0, so neither costs a pass over memory.


def _k_const(y, aux, out=None):
    return 1.0


def _k_linear(y, aux, out=None):
    return y


def _k_bounded_ratio(y, aux, out=None):
    den = np.multiply(y, y, out=out)
    den += 1.0
    return np.divide(y, den, out=out)


def _k_sin_shift(y, aux, out=None):
    return np.sin(np.add(y, aux, out=out), out=out)


# a kernel's function, its Lipschitz constant in y (uniform over aux),
# and whether it reads an inner signal
_Kernel = namedtuple("_Kernel", "func lipschitz needs_inner")


KERNELS: dict[str, _Kernel] = {
    "const": _Kernel(_k_const, 0.0, False),
    "linear": _Kernel(_k_linear, 1.0, False),
    "bounded_ratio": _Kernel(_k_bounded_ratio, 1.0, False),
    "sin_shift": _Kernel(_k_sin_shift, 1.0, True),
}


class CoefficientTerm(
    namedtuple(
        "CoefficientTerm",
        "scale kernel coord outer inner mark_weights",
        defaults=(0, None, None, None),
    )
):
    """One additive term of a coefficient map.

    Value at (t, y, x):
        scale * outer(t) * kernel(y[coord], inner(t)) * (w . x if given).
    ``outer`` and ``inner`` are QuasiPeriodicSignals or None,
    ``mark_weights`` a tuple of floats, only meaningful for jump maps.
    """

    __slots__ = ()


VectorTerms = tuple[tuple[CoefficientTerm, ...], ...]  # indexed by output coord
MatrixTerms = tuple[tuple[tuple[CoefficientTerm, ...], ...], ...]  # row, column


class CoefficientSet:
    """The four coefficient maps of the semilinear equation.

    ``drift``, ``jump_small`` and ``jump_large`` hold one term tuple per
    state coordinate, ``diffusion`` one per (state, noise) entry.
    ``lipschitz`` is the declared constant L entering the contraction
    conditions: an upper bound for the squared Lipschitz constants of the
    drift and diffusion and for the jump ones weighted by their intensity
    mass.  It may be a Fraction to keep condition checks exact.
    Construction checks that the maps fit the dimensions and that every
    term names a known kernel and a state coordinate.
    """

    def __init__(
        self,
        dim_state: int,
        dim_noise: int,
        drift: VectorTerms,
        diffusion: MatrixTerms,
        jump_small: VectorTerms,
        jump_large: VectorTerms,
        lipschitz: Number,
    ):
        self.dim_state = dim_state
        self.dim_noise = dim_noise
        self.drift = drift
        self.diffusion = diffusion
        self.jump_small = jump_small
        self.jump_large = jump_large
        self.lipschitz = lipschitz
        for name in ("drift", "jump_small", "jump_large"):
            if len(getattr(self, name)) != self.dim_state:
                raise CoefficientError(
                    f"{name} has {len(getattr(self, name))} entries, not one per "
                    f"state coordinate ({self.dim_state})"
                )
        if len(self.diffusion) != self.dim_state or any(
            len(row) != self.dim_noise for row in self.diffusion
        ):
            raise CoefficientError(
                f"diffusion has rows of lengths {[len(row) for row in self.diffusion]}, "
                f"not a {self.dim_state} x {self.dim_noise} grid (state x noise coordinates)"
            )
        for term in self._all_terms():
            if term.kernel not in KERNELS:
                raise CoefficientError(f"unknown kernel {term.kernel!r}")
            if not (0 <= term.coord < self.dim_state):
                raise CoefficientError(f"kernel coordinate {term.coord} out of range")
            if KERNELS[term.kernel].needs_inner and term.inner is None:
                raise CoefficientError(f"kernel {term.kernel!r} needs an inner signal")
            if term.mark_weights is not None and len(term.mark_weights) != self.dim_noise:
                raise CoefficientError("mark weights must have the noise dimension")
        if not (float(self.lipschitz) > 0 and math.isfinite(float(self.lipschitz))):
            raise CoefficientError("declared Lipschitz constant must be positive")

    def _all_terms(self):
        for terms in self.drift + self.jump_small + self.jump_large:
            yield from terms
        for row in self.diffusion:
            for terms in row:
                yield from terms


PreparedTerm = namedtuple(
    "PreparedTerm", "scale kernel coord inner outer mark", defaults=(None, None, None)
)
PreparedTerm.__doc__ = """A term made ready for one set of evaluation points.

``scale`` has any compensator weight folded in; ``inner`` and ``outer``
are the term's signals evaluated at the points' times and ``mark`` its
factor w . x at jump events, each an array shaped to broadcast against
the output.  Absent factors are None.
"""


def _prepare(term: CoefficientTerm, ts, x=None, scale=None) -> PreparedTerm:
    if term.mark_weights is not None and x is None:
        raise CoefficientError("mark-dependent term evaluated without marks")
    return PreparedTerm(
        scale=term.scale if scale is None else scale,
        kernel=term.kernel,
        coord=term.coord,
        inner=None if term.inner is None else term.inner(ts),
        outer=None if term.outer is None else term.outer(ts),
        mark=None if term.mark_weights is None else x @ np.asarray(term.mark_weights),
    )


def drift_terms(cs: CoefficientSet, ts) -> tuple[tuple[PreparedTerm, ...], ...]:
    """The drift terms of each state coordinate, prepared at times ``ts``."""
    return tuple(tuple(_prepare(t, ts) for t in terms) for terms in cs.drift)


def diffusion_terms(cs: CoefficientSet, ts):
    """The diffusion terms of each (state, noise) entry, prepared at ``ts``."""
    return tuple(
        tuple(tuple(_prepare(t, ts) for t in terms) for terms in row) for row in cs.diffusion
    )


def compensator_terms(
    cs: CoefficientSet, spec: LevyProcessSpec, ts
) -> tuple[tuple[PreparedTerm, ...], ...]:
    """The small-jump compensator of each state coordinate as drift terms
    prepared at ``ts``: the integral of F(t, y, x) against the small-jump
    intensity.

    Exact for the kernel catalog because mark dependence is affine: terms
    without mark weights get weight rate, mark-linear terms rate * (w .
    mean mark).  The weight is folded into the scale; terms of weight
    zero are left out.
    """
    smalls = [c for c in spec.jumps if c.region == "small"]
    if not smalls:
        return tuple(() for _ in cs.jump_small)
    total_rate = sum(c.rate for c in smalls)
    rows = []
    for terms in cs.jump_small:
        row = []
        for term in terms:
            if term.mark_weights is None:
                weight = total_rate
            else:
                w = np.asarray(term.mark_weights)
                weight = sum(c.rate * float(np.asarray(c.marks.mean()) @ w) for c in smalls)
            if weight != 0.0:
                plain = term._replace(mark_weights=None)
                row.append(_prepare(plain, ts, scale=term.scale * weight))
        rows.append(tuple(row))
    return tuple(rows)


def term_value(term: PreparedTerm, columns, out: np.ndarray) -> np.ndarray:
    """Write scale * outer * kernel(y, inner) * mark into ``out`` with
    in-place ufuncs, in that order of operations, and return it.  A scale
    of 1.0 is exact, so it is not multiplied once the value is in ``out``.

    ``y = columns[term.coord]`` is the state coordinate laid out like
    ``out``.  This is the one place where term values are computed:
    ``point_values`` and the solver's path-major kernel both use it.
    """
    y = None if term.kernel == "const" else columns[term.coord]
    val = KERNELS[term.kernel].func(y, 0.0 if term.inner is None else term.inner, out)
    for factor in (term.outer, term.mark):
        if factor is not None:
            val = np.multiply(val, factor, out=out)
    return out if val is out and term.scale == 1.0 else np.multiply(val, term.scale, out=out)


def add_terms(out: np.ndarray, terms, columns, buf: Optional[np.ndarray] = None) -> None:
    """Add the value of each prepared term in turn to ``out``; the values
    are computed in one scratch array laid out like ``out``, ``buf`` when
    given."""
    if not terms:
        return
    if buf is None:
        buf = np.empty_like(out)
    for term in terms:
        out += term_value(term, columns, buf)


def point_values(rows, y: np.ndarray) -> np.ndarray:
    """The values, shape (points, len(rows)), of a vector map at points
    with states ``y`` (points, dim_state): ``rows[i]`` are the terms of
    output coordinate i, prepared at the points' times, as
    ``drift_terms`` and ``compensator_terms`` give them.  A diffusion
    column ``[row[j] for row in diffusion_terms(...)]`` is one such map."""
    out = np.zeros((len(y), len(rows)))
    for i, terms in enumerate(rows):
        add_terms(out[:, i], terms, y.T)
    return out


def jump_terms(tmap: VectorTerms, ts, x) -> tuple[tuple[PreparedTerm, ...], ...]:
    """The terms of each state coordinate of a jump map (``cs.jump_small``
    or ``cs.jump_large``), prepared at events with times ``ts`` and marks
    ``x`` (events, dim_noise)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    x = np.asarray(x, dtype=float)
    return tuple(tuple(_prepare(t, ts, x) for t in terms) for terms in tmap)
