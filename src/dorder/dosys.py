"""Declarative model of a SISO distributed-order system.

A system is two lists of terms, one per side of

    sum_i a_i D^(rho_i) y(t) = sum_j b_j D^(rho_j) u(t),

where each term is either a single fractional order (point kind) or a
density rho(alpha) integrated over an order interval (distributed
kind).  Distributed terms are collapsed to multi-term form by
Gauss-Legendre quadrature in the order variable; the assembled system
operator is [sum LHS]^(-1) [sum RHS] on the Toeplitz ring.

Coefficients may be bound to named random parameters; assembly then
takes a name -> value map, which is how stochastic collocation visits
cubature nodes.
"""

from dataclasses import dataclass, field, asdict

import numpy as np

from .bpf import BpfBasis
from . import opmat

__all__ = [
    "DensityTerm", "RandomParameter", "DOSystem",
    "density_quadrature", "term_operator", "assemble_system_operator",
    "system_from_dict", "system_to_dict",
]

_SIDES = ("lhs", "rhs")
_SENSES = ("derivative", "integral")
_KINDS = ("point", "distributed")
_DISTRIBUTIONS = ("uniform", "gaussian")


@dataclass(frozen=True)
class DensityTerm:
    """One term of a distributed-order equation.

    Parameters
    ----------
    side : {'lhs', 'rhs'}
        Which side of the equation the term lives on ('lhs' acts on
        the output, 'rhs' on the input).
    sense : {'derivative', 'integral'}
        Whether the order is applied as s^alpha (derivative, operator
        B) or s^(-alpha) (integral, operator A).
    coeff : float or str
        Multiplier of the term; a string names a random parameter to
        be bound at assembly time.
    kind : {'point', 'distributed'}
    order : float
        Fractional order, point kind only.  Order 0 is the identity
        term.
    density : None, dict or callable
        Order density rho(alpha), distributed kind only.  None means
        the constant density 1; named forms are
        {'form': 'constant'} and {'form': 'poly', 'coeffs': [c0, c1, ...]}
        (ascending powers); a callable is accepted for library use but
        cannot be serialized to a config file.
    lower, upper : float
        Order interval [lower, upper], distributed kind only.
    quad_points : int
        Gauss-Legendre points in the order variable (distributed kind).
    """

    side: str
    sense: str
    coeff: object
    kind: str
    order: float | None = None
    density: object = None
    lower: float | None = None
    upper: float | None = None
    quad_points: int = 3

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {self.sense!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if isinstance(self.coeff, str):
            if not self.coeff:
                raise ValueError("parameter name must be a nonempty string")
        elif not np.isfinite(self.coeff):
            raise ValueError(f"coeff must be finite, got {self.coeff!r}")
        else:
            object.__setattr__(self, "coeff", float(self.coeff))
        if self.kind == "point":
            if self.order is None or not np.isfinite(self.order) or self.order < 0:
                raise ValueError(f"point term needs a nonnegative order, got {self.order!r}")
            object.__setattr__(self, "order", float(self.order))
        else:
            if self.lower is None or self.upper is None or not self.lower < self.upper:
                raise ValueError(
                    f"distributed term needs lower < upper, got [{self.lower!r}, {self.upper!r}]")
            if self.quad_points < 1:
                raise ValueError(f"quad_points must be >= 1, got {self.quad_points!r}")
            object.__setattr__(self, "lower", float(self.lower))
            object.__setattr__(self, "upper", float(self.upper))
            object.__setattr__(self, "quad_points", int(self.quad_points))


@dataclass(frozen=True)
class RandomParameter:
    """A named random coefficient with its collocation rule order.

    uniform takes (lo, hi); gaussian takes (mean, stddev).
    """

    name: str
    distribution: str
    lo: float | None = None
    hi: float | None = None
    mean: float | None = None
    stddev: float | None = None
    quad_order: int = 5

    def __post_init__(self):
        if not self.name:
            raise ValueError("random parameter needs a nonempty name")
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {_DISTRIBUTIONS}, got {self.distribution!r}")
        if self.distribution == "uniform":
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise ValueError(f"uniform parameter {self.name!r} needs lo < hi")
        else:
            if self.mean is None or self.stddev is None or not self.stddev > 0:
                raise ValueError(f"gaussian parameter {self.name!r} needs stddev > 0")
        if self.quad_order < 1:
            raise ValueError(f"quad_order must be >= 1, got {self.quad_order!r}")


@dataclass(frozen=True)
class DOSystem:
    """A distributed-order system: LHS terms, RHS terms, random bindings."""

    lhs_terms: tuple
    rhs_terms: tuple
    random_params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "lhs_terms", tuple(self.lhs_terms))
        object.__setattr__(self, "rhs_terms", tuple(self.rhs_terms))
        object.__setattr__(self, "random_params", tuple(self.random_params))
        if not self.lhs_terms:
            raise ValueError("system needs at least one LHS term")
        if not self.rhs_terms:
            raise ValueError("system needs at least one RHS term")
        for t in self.lhs_terms:
            if t.side != "lhs":
                raise ValueError(f"term {t} listed on LHS but tagged {t.side!r}")
        for t in self.rhs_terms:
            if t.side != "rhs":
                raise ValueError(f"term {t} listed on RHS but tagged {t.side!r}")
        names = [p.name for p in self.random_params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate random parameter names in {names}")

    def param_names(self):
        return tuple(p.name for p in self.random_params)


def _density_callable(density):
    if density is None:
        return lambda a: np.ones_like(a)
    if callable(density):
        return density
    form = density.get("form")
    if form == "constant":
        return lambda a: np.ones_like(a)
    if form == "poly":
        coeffs = np.asarray(density["coeffs"], dtype=float)
        return lambda a: np.polynomial.polynomial.polyval(a, coeffs)
    raise ValueError(f"unknown density form {form!r}")


def _resolve_coeff(term, param_values):
    if not isinstance(term.coeff, str):
        return term.coeff
    if param_values is None or term.coeff not in param_values:
        raise ValueError(
            f"term coefficient is bound to parameter {term.coeff!r} with no value; "
            "pass param_values or use the stochastic moment path")
    return float(param_values[term.coeff])


def density_quadrature(term, param_values=None):
    """Order nodes and weights collapsing a term to multi-term form.

    Distributed terms get Gauss-Legendre nodes on [lower, upper] with
    weights nu_l * rho(alpha_l) * (upper - lower)/2; the term
    coefficient is NOT folded in here (term_operator applies it).
    Point terms are the sifted limit: a single (order, coeff) pair.

    Returns
    -------
    list of (node, weight) float pairs
    """
    if term.kind == "point":
        return [(term.order, _resolve_coeff(term, param_values))]
    x, w = np.polynomial.legendre.leggauss(term.quad_points)
    half = 0.5 * (term.upper - term.lower)
    nodes = term.lower + (x + 1.0) * half
    rho = _density_callable(term.density)
    weights = w * half * np.asarray(rho(nodes), dtype=float)
    return list(zip(nodes.tolist(), weights.tolist()))


def _order_operator(alpha, sense, basis):
    """Single-order operator: A_alpha or B_alpha, identity at order 0."""
    if alpha == 0:
        return opmat.identity_matrix(basis)
    if sense == "integral":
        return opmat.integration_matrix(alpha, basis)
    # whole orders >= 2 are built by composing first-order derivative
    # blocks, keeping the ill-conditioned direct inverses above order 1
    # out of the construction
    if float(alpha).is_integer() and alpha >= 2:
        b1 = opmat.derivative_matrix(1.0, basis)
        m = b1
        for _ in range(int(alpha) - 1):
            m = opmat.compose(m, b1)
        return m
    return opmat.derivative_matrix(alpha, basis)


def term_operator(term, basis, param_values=None):
    """Operational matrix of one term, coefficient included.

    Point terms carry the coefficient inside the quadrature pair;
    distributed terms multiply the quadrature-weighted sum by the
    resolved coefficient.
    """
    pairs = density_quadrature(term, param_values)
    n = basis.n_funcs
    col = np.zeros(n)
    for alpha, w in pairs:
        col += w * _order_operator(alpha, term.sense, basis).first_col
    if term.kind == "distributed":
        col *= _resolve_coeff(term, param_values)
    return opmat.OpMatrix(basis, col)


def _term_columns(terms, basis):
    """(term, first column) per term, a random coefficient set to 1.

    Random parameters bind coefficients, never orders, so these columns
    are the same at every parameter value.  Setting the coefficient to 1
    is exact: 0 + 1*x and x*1 round to x, and c*(1*x) to c*x, so
    _bind_side reproduces term_operator's columns bit for bit.
    """
    return tuple(
        (t, term_operator(t, basis, {t.coeff: 1.0} if isinstance(t.coeff, str) else None)
         .first_col)
        for t in terms)


def _bind_side(columns, n, param_values):
    """Sum of one side's term columns at the given parameter values, in term order."""
    out = np.zeros(n)
    for t, col in columns:
        out += _resolve_coeff(t, param_values) * col if isinstance(t.coeff, str) else col
    return out


def _system_columns(sys, basis):
    """Coefficient-free term columns of both sides: build once, bind per node."""
    return _term_columns(sys.lhs_terms, basis), _term_columns(sys.rhs_terms, basis)


def _bind(columns, basis, param_values):
    """A_G = [sum LHS]^(-1) [sum RHS] from _system_columns: one inversion."""
    lhs_cols, rhs_cols = columns
    n = basis.n_funcs
    lhs = _bind_side(lhs_cols, n, param_values)
    if lhs[0] == 0.0:
        raise ValueError(
            f"singular LHS while assembling system with terms "
            f"{tuple(t for t, _ in lhs_cols)}: leading first-column entry is zero")
    rhs = _bind_side(rhs_cols, n, param_values)
    inv = opmat.invert_lower_toeplitz(opmat.OpMatrix(basis, lhs, label="LHS"))
    return opmat.OpMatrix(basis, np.convolve(inv.first_col, rhs)[:n], label="A_G")


def assemble_system_operator(sys, basis, param_values=None):
    """Assembled operator A_G = [sum LHS]^(-1) [sum RHS].

    Every random coefficient must be bound in param_values; fully
    deterministic systems may pass None.  Callers that assemble at many
    parameter values (stochsolve) build the term columns once and bind
    them per value, through the same two helpers.
    """
    return _bind(_system_columns(sys, basis), basis, param_values)


# ---------------------------------------------------------------------------
# config dictionaries (the JSON system description)

def _term_from_dict(d):
    d = dict(d)
    if ("coeff" in d) == ("param" in d):
        raise ValueError(f"term must carry exactly one of 'coeff' or 'param': {d}")
    coeff = d.pop("param") if "param" in d else d.pop("coeff")
    known = {"side", "sense", "kind", "order", "density", "lower", "upper", "quad_points"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown term fields {sorted(unknown)}")
    return DensityTerm(coeff=coeff, **d)


def _param_from_dict(d):
    known = {"name", "distribution", "lo", "hi", "mean", "stddev", "quad_order"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown random parameter fields {sorted(unknown)}")
    return RandomParameter(**d)


def system_from_dict(d):
    """Build a DOSystem from a config dictionary.

    Reads the 'terms' list (each entry a DensityTerm mapping, with
    'coeff' for numbers and 'param' for random-parameter names) and
    the optional 'random_params' list.  Other keys are ignored so a
    full run config can be passed through.
    """
    terms = d.get("terms")
    if not terms:
        raise ValueError("config has no 'terms' list")
    parsed = [_term_from_dict(t) for t in terms]
    params = tuple(_param_from_dict(p) for p in d.get("random_params", []))
    lhs = tuple(t for t in parsed if t.side == "lhs")
    rhs = tuple(t for t in parsed if t.side == "rhs")
    sysm = DOSystem(lhs, rhs, params)
    bound = {p.name for p in params}
    for t in parsed:
        if isinstance(t.coeff, str) and t.coeff not in bound:
            raise ValueError(f"term references unknown parameter {t.coeff!r}")
    return sysm


def _term_to_dict(t):
    d = {"side": t.side, "sense": t.sense, "kind": t.kind}
    if isinstance(t.coeff, str):
        d["param"] = t.coeff
    else:
        d["coeff"] = t.coeff
    if t.kind == "point":
        d["order"] = t.order
    else:
        if callable(t.density):
            raise ValueError("callable densities cannot be serialized; "
                             "use a named form ('constant' or 'poly')")
        if t.density is not None:
            d["density"] = t.density
        d["lower"] = t.lower
        d["upper"] = t.upper
        d["quad_points"] = t.quad_points
    return d


def system_to_dict(sys):
    """Serialize a DOSystem to the config dictionary form."""
    out = {"terms": [_term_to_dict(t) for t in sys.lhs_terms + sys.rhs_terms]}
    if sys.random_params:
        out["random_params"] = [
            {k: v for k, v in asdict(p).items() if v is not None}
            for p in sys.random_params
        ]
    return out
