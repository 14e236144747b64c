"""Declarative model of a SISO distributed-order system.

A system is two lists of terms, one per side of

    sum_i a_i D^(rho_i) y(t) = sum_j b_j D^(rho_j) u(t),

where each term is either a single fractional order (point kind) or a
density rho(alpha) integrated over an order interval (distributed
kind).  A term supplies orders and order weights (Gauss-Legendre
quadrature in the order variable, or the one pair (order, 1)); each
side sum multiplies each term by its coefficient once, and the system
operator is [sum LHS]^(-1) [sum RHS] on the Toeplitz ring.

Assembly works in integral form: both sides are multiplied by A_gamma,
gamma the largest derivative order on either side after the order
quadrature (0 if there is none).  A derivative term c D^alpha becomes
c A_(gamma - alpha) and an integral term c I^beta becomes
c A_(gamma + beta), each built directly as an integration matrix.  So
every order, whole or fractional, below or above 1, takes the same
path, the only inversion is that of the summed LHS column, and that
column stays O(1) where a derivative-form column B_alpha = A_alpha^(-1)
grows geometrically for alpha > 1.

Coefficients may be bound to named random parameters; assembly then
takes a name -> value map, which is how stochastic collocation visits
cubature nodes.
"""

from dataclasses import dataclass, asdict

import numpy as np

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
_QUAD_POINTS = 3  # default order-quadrature points of a distributed term


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
        Fractional order, point kind only (a distributed term rejects
        it).  Order 0 is the identity term.
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

    A point term rejects a density, lower or upper and a quad_points
    other than the default, since none of them would have an effect.
    """

    side: str
    sense: str
    coeff: object
    kind: str
    order: float | None = None
    density: object = None
    lower: float | None = None
    upper: float | None = None
    quad_points: int = _QUAD_POINTS

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
            # a distributed-only field has no effect on a point term, so it is an error
            extra = [k for k in ("density", "lower", "upper") if getattr(self, k) is not None]
            if self.quad_points != _QUAD_POINTS:
                extra.append("quad_points")
            if extra:
                raise ValueError(f"point term takes no {', '.join(extra)} "
                                 f"(distributed terms only)")
            if self.order is None or not np.isfinite(self.order) or self.order < 0:
                raise ValueError(f"point term needs a nonnegative order, got {self.order!r}")
            object.__setattr__(self, "order", float(self.order))
        else:
            if self.order is not None:
                raise ValueError(f"distributed term takes no order (point terms only), "
                                 f"got {self.order!r}")
            if not (np.isfinite(np.array([self.lower, self.upper], dtype=float)).all()
                    and self.lower < self.upper):
                raise ValueError(f"distributed term needs finite lower < upper, "
                                 f"got [{self.lower!r}, {self.upper!r}]")
            _density_callable(self.density)
            object.__setattr__(self, "lower", float(self.lower))
            object.__setattr__(self, "upper", float(self.upper))
            object.__setattr__(self, "quad_points", _count("quad_points", self.quad_points))


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
        given = [v for v in (self.lo, self.hi, self.mean, self.stddev) if v is not None]
        if not np.isfinite(np.array(given, dtype=float)).all():
            raise ValueError(f"parameter {self.name!r} needs finite lo, hi, mean, stddev")
        if self.distribution == "uniform":
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise ValueError(f"uniform parameter {self.name!r} needs lo < hi")
        else:
            if self.mean is None or self.stddev is None or not self.stddev > 0:
                raise ValueError(f"gaussian parameter {self.name!r} needs stddev > 0")
        object.__setattr__(self, "quad_order", _count("quad_order", self.quad_order))


@dataclass(frozen=True)
class DOSystem:
    """LHS terms, RHS terms, and the random parameters every named coefficient names."""

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
        for t in self.lhs_terms + self.rhs_terms:
            if isinstance(t.coeff, str) and t.coeff not in names:
                raise ValueError(f"term references unknown parameter {t.coeff!r}")


def _count(key, v):
    """v as an int >= 1; ValueError naming key for 0, 2.5 or True."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
        raise ValueError(f"{key} must be a positive integer, got {v!r}")
    return int(v)


def _density_callable(density):
    """rho(alpha) of a term's density; ValueError for a malformed named form."""
    if density is None:
        return lambda a: np.ones_like(a)
    if callable(density):
        return density
    form = density.get("form") if isinstance(density, dict) else None
    if form == "constant":
        return lambda a: np.ones_like(a)
    if form == "poly":
        coeffs = np.asarray(density.get("coeffs"), dtype=float)
        if coeffs.ndim != 1 or not coeffs.size or not np.isfinite(coeffs).all():
            raise ValueError(f"poly density needs a nonempty list of finite coeffs, "
                             f"got {density.get('coeffs')!r}")
        return lambda a: np.polynomial.polynomial.polyval(a, coeffs)
    raise ValueError(f"unknown density {density!r} (expected constant or poly form)")


def _resolve_coeff(term, param_values):
    if not isinstance(term.coeff, str):
        return term.coeff
    if param_values is None or term.coeff not in param_values:
        raise ValueError(
            f"term coefficient is bound to parameter {term.coeff!r} with no value; "
            "pass param_values or use the stochastic moment path")
    return float(param_values[term.coeff])


def density_quadrature(term):
    """Order nodes and weights collapsing a term to multi-term form.

    Distributed terms get Gauss-Legendre nodes on [lower, upper] with
    weights nu_l * rho(alpha_l) * (upper - lower)/2.  Point terms are
    the sifted limit: the single pair (order, 1).  The term coefficient
    is never folded in; each side sum multiplies it in once.

    Returns
    -------
    list of (node, weight) float pairs
    """
    if term.kind == "point":
        return [(term.order, 1.0)]
    x, w = np.polynomial.legendre.leggauss(term.quad_points)
    half = 0.5 * (term.upper - term.lower)
    nodes = term.lower + (x + 1.0) * half
    rho = _density_callable(term.density)
    weights = w * half * np.asarray(rho(nodes), dtype=float)
    return list(zip(nodes.tolist(), weights.tolist()))


def _order_column(term, basis, shift):
    """First column of sum w * A_(shift -+ alpha) over the term's order pairs, coefficient 1."""
    sign = -1.0 if term.sense == "derivative" else 1.0
    col = np.zeros(basis.n_funcs)
    for alpha, w in density_quadrature(term):
        col += w * opmat.integration_matrix(shift + sign * alpha, basis).first_col
    return col


def term_operator(term, basis, param_values=None, shift=0.0):
    """Operational matrix of one term in integral form, coefficient included.

    The system is multiplied through by A_shift, so each quadrature
    order alpha becomes the integration matrix A_(shift - alpha) for a
    derivative term and A_(shift + alpha) for an integral term; no
    column is ever inverted here.  shift must be at least every
    derivative order of the term, or integration_matrix rejects the
    negative order (the default 0 suits integral and order-0 terms).
    The resolved coefficient multiplies the order-weighted sum.
    """
    return opmat.OpMatrix(basis, _resolve_coeff(term, param_values)
                          * _order_column(term, basis, shift))


def _integral_shift(sys):
    """Largest derivative order after the order quadrature, both sides; 0 if none."""
    return max((alpha for t in sys.lhs_terms + sys.rhs_terms if t.sense == "derivative"
                for alpha, _ in density_quadrature(t)), default=0.0)


def _system_columns(sys, basis):
    """(term, order column) per term of both sides: build once, bind per node.

    Both sides are multiplied through by A_shift with the shift of
    _integral_shift, so every column is an integration matrix.  The
    columns carry no coefficient (random parameters bind coefficients,
    never orders), and _bind multiplies each by its coefficient exactly
    as term_operator does, so the two agree bit for bit.
    """
    shift = _integral_shift(sys)
    return tuple(tuple((t, _order_column(t, basis, shift)) for t in terms)
                 for terms in (sys.lhs_terms, sys.rhs_terms))


def _bind(columns, basis, nodes):
    """(J, N) stack of A_G = [sum LHS]^(-1) [sum RHS] first columns, one row per node.

    nodes is a sequence of J parameter value maps.  Each side is the
    sum, in term order, of its order columns times their coefficients,
    broadcast over the nodes, so every row has the bits of a sum built
    for its node alone.  The J LHS columns are inverted in one call,
    and each inverse multiplies its RHS column by truncated_product.  A
    failure at one node names its row and carries it as .row.
    """
    n = basis.n_funcs
    lhs, rhs = (sum((np.array([_resolve_coeff(t, v) for v in nodes])[:, None] * col
                     for t, col in side_columns), np.zeros((len(nodes), n)))
                for side_columns in columns)
    row = opmat._first_failing_row(lhs[:, 0] != 0.0)
    if row is not None:
        raise opmat._row_error(
            ValueError, row,
            f"singular LHS row {row} while assembling system with terms "
            f"{tuple(t for t, _ in columns[0])}: leading first-column entry is zero")
    inv = opmat.invert_lower_toeplitz(opmat.OpMatrix(basis, lhs, label="LHS")).first_col
    ag = [opmat.truncated_product(g, r) for g, r in zip(inv, rhs)]
    return opmat.OpMatrix(basis, np.array(ag).reshape(lhs.shape), label="A_G").first_col


def assemble_system_operator(sys, basis, param_values=None):
    """Assembled operator A_G = [sum LHS]^(-1) [sum RHS].

    Every random coefficient must be bound in param_values; fully
    deterministic systems may pass None.  Callers that assemble at many
    parameter values (stochsolve) build the term columns once and bind
    all of them in one stack, through the same two helpers; this is
    the one-node case.
    """
    return opmat.OpMatrix(basis, _bind(_system_columns(sys, basis), basis, (param_values,))[0],
                          label="A_G")


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
    return DOSystem(lhs, rhs, params)


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
