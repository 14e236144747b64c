"""System declaration, order quadrature, operator assembly, config I/O."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dorder.bpf import make_basis
from dorder.opmat import (OpMatrix, integration_matrix, derivative_matrix,
                          invert_lower_toeplitz, to_dense)
from dorder.dosys import (DensityTerm, RandomParameter, DOSystem,
                          density_quadrature, term_operator,
                          assemble_system_operator, system_from_dict,
                          system_to_dict, _bind, _integral_shift, _system_columns)
from dorder.stochsolve import tensor_cubature


def lhs_point(coeff, order, sense="derivative"):
    return DensityTerm("lhs", sense, coeff, "point", order=order)


def rhs_point(coeff, order, sense="derivative"):
    return DensityTerm("rhs", sense, coeff, "point", order=order)


# ---------------------------------------------------------------------------
# validation

def test_term_validation():
    with pytest.raises(ValueError, match="side"):
        DensityTerm("middle", "derivative", 1.0, "point", order=1.0)
    with pytest.raises(ValueError, match="sense"):
        DensityTerm("lhs", "antiderivative", 1.0, "point", order=1.0)
    with pytest.raises(ValueError, match="kind"):
        DensityTerm("lhs", "derivative", 1.0, "smeared", order=1.0)
    with pytest.raises(ValueError, match="order"):
        DensityTerm("lhs", "derivative", 1.0, "point")
    with pytest.raises(ValueError, match="order"):
        DensityTerm("lhs", "derivative", 1.0, "point", order=-0.5)
    with pytest.raises(ValueError, match="lower < upper"):
        DensityTerm("lhs", "derivative", 1.0, "distributed", lower=0.8, upper=0.5)
    with pytest.raises(ValueError, match="finite"):
        DensityTerm("lhs", "derivative", np.nan, "point", order=1.0)
    with pytest.raises(ValueError, match="nonempty"):
        DensityTerm("lhs", "derivative", "", "point", order=1.0)
    with pytest.raises(ValueError, match="quad_points"):
        DensityTerm("lhs", "derivative", 1.0, "distributed", lower=0.0, upper=1.0,
                    quad_points=0)
    for bad in ({"lower": -np.inf}, {"upper": np.nan}, {"quad_points": 2.5},
                {"density": {"form": "weird"}}, {"density": {"form": "poly", "coeffs": []}},
                {"density": {"form": "poly", "coeffs": [1.0, np.inf]}}, {"density": "poly"}):
        with pytest.raises(ValueError):
            DensityTerm("lhs", "derivative", 1.0, "distributed",
                        **dict({"lower": 0.0, "upper": 1.0}, **bad))
    # callable densities stay accepted for library use
    DensityTerm("lhs", "derivative", 1.0, "distributed", lower=0.0, upper=1.0,
                density=lambda a: 2.0 * a)


@pytest.mark.parametrize("field,value", [
    ("density", {"form": "constant"}), ("density", lambda a: a), ("lower", 0.0),
    ("upper", 1.0), ("quad_points", 5), ("quad_points", 2.5)])
def test_point_term_rejects_distributed_fields(field, value):
    # none of them has an effect on a point term, so each is an error
    with pytest.raises(ValueError, match=rf"^point term takes no {field} "):
        DensityTerm("lhs", "derivative", 1.0, "point", order=1.0, **{field: value})
    DensityTerm("lhs", "derivative", 1.0, "point", order=1.0, quad_points=3)


def test_distributed_term_rejects_order():
    with pytest.raises(ValueError, match="^distributed term takes no order"):
        DensityTerm("lhs", "derivative", 1.0, "distributed", order=0.5, lower=0.0, upper=1.0)


def test_random_parameter_validation():
    RandomParameter("a", "uniform", lo=0.0, hi=1.0)
    RandomParameter("g", "gaussian", mean=0.0, stddev=2.0)
    with pytest.raises(ValueError):
        RandomParameter("a", "uniform", lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        RandomParameter("g", "gaussian", mean=0.0, stddev=0.0)
    with pytest.raises(ValueError):
        RandomParameter("x", "lognormal", lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        RandomParameter("", "uniform", lo=0.0, hi=1.0)
    for bad in ({"mean": np.nan}, {"mean": np.inf}, {"stddev": np.inf}, {"lo": -np.inf},
                {"quad_order": 2.5}, {"quad_order": True}):
        with pytest.raises(ValueError):
            RandomParameter("g", "gaussian", **dict({"mean": 0.0, "stddev": 1.0}, **bad))


def test_system_validation():
    t = lhs_point(1.0, 1.0)
    u = rhs_point(1.0, 0.0)
    with pytest.raises(ValueError, match="LHS"):
        DOSystem((), (u,))
    with pytest.raises(ValueError, match="RHS"):
        DOSystem((t,), ())
    with pytest.raises(ValueError, match="tagged"):
        DOSystem((u,), (u,))
    p = RandomParameter("a", "uniform", lo=0.0, hi=1.0)
    with pytest.raises(ValueError, match="duplicate"):
        DOSystem((t,), (u,), (p, p))
    # a named coefficient needs a random parameter of that name
    with pytest.raises(ValueError, match="unknown parameter 'k'"):
        DOSystem((lhs_point("k", 1.0),), (u,), (p,))
    with pytest.raises(ValueError, match="unknown parameter 'a'"):
        DOSystem((t,), (rhs_point("a", 0.0),))


# ---------------------------------------------------------------------------
# order quadrature

def test_density_quadrature_point_is_sifted_pair():
    # the coefficient stays out of a point pair, as of a distributed one
    t = lhs_point(2.5, 0.75)
    assert density_quadrature(t) == [(0.75, 1.0)]


def test_density_quadrature_ignores_the_coefficient():
    # orders and weights do not depend on the coefficient, so a named
    # one needs no value
    for kw in ({"kind": "point", "order": 1.0},
               {"kind": "distributed", "lower": 0.2, "upper": 0.9, "quad_points": 3}):
        named = density_quadrature(DensityTerm("lhs", "derivative", "k", **kw))
        assert named == density_quadrature(DensityTerm("lhs", "derivative", -3.0, **kw))


def test_density_quadrature_constant_weights_sum_to_width():
    t = DensityTerm("lhs", "derivative", 7.0, "distributed",
                    lower=0.5, upper=0.8, quad_points=4)
    pairs = density_quadrature(t)
    assert len(pairs) == 4
    nodes = np.array([a for a, _ in pairs])
    assert np.all((nodes > 0.5) & (nodes < 0.8))
    # coefficient stays out; weights integrate the density
    assert np.isclose(sum(w for _, w in pairs), 0.3, rtol=1e-14)


def test_density_quadrature_poly_integrates_exactly():
    # rho(a) = 6a(1-a) integrates to 1 over [0,1]; 3-point rule is exact
    t = DensityTerm("lhs", "derivative", 1.0, "distributed", lower=0.0, upper=1.0,
                    density={"form": "poly", "coeffs": [0.0, 6.0, -6.0]},
                    quad_points=3)
    assert np.isclose(sum(w for _, w in density_quadrature(t)), 1.0, rtol=1e-14)


def test_density_callable_accepted():
    t = DensityTerm("lhs", "derivative", 1.0, "distributed", lower=0.0, upper=1.0,
                    density=lambda a: 6.0 * a * (1.0 - a), quad_points=3)
    assert np.isclose(sum(w for _, w in density_quadrature(t)), 1.0, rtol=1e-14)


def test_unknown_density_form():
    # rejected when the term is built, before any quadrature
    with pytest.raises(ValueError, match="spline"):
        DensityTerm("lhs", "derivative", 1.0, "distributed", lower=0.0, upper=1.0,
                    density={"form": "spline"})


# ---------------------------------------------------------------------------
# operators

def test_term_operator_point_scales_single_order():
    b = make_basis(16, 2.0)
    t = lhs_point(3.0, 0.5, sense="integral")
    assert np.allclose(term_operator(t, b).first_col,
                       3.0 * integration_matrix(0.5, b).first_col, atol=1e-15)


def test_term_operator_distributed_matches_manual_sum():
    b = make_basis(16, 2.0)
    t = DensityTerm("rhs", "integral", 2.0, "distributed",
                    lower=0.5, upper=0.8, quad_points=3)
    manual = np.zeros(16)
    for a, w in density_quadrature(t):
        manual += w * integration_matrix(a, b).first_col
    assert np.allclose(term_operator(t, b).first_col, 2.0 * manual, atol=1e-15)


def test_term_operator_shifts_to_integral_form():
    # under the shift gamma, D^alpha becomes A_(gamma - alpha) and I^beta
    # becomes A_(gamma + beta); a derivative order above the shift is a
    # negative integration order, which is refused
    b = make_basis(16, 2.0)
    d = lhs_point(3.0, 0.5)
    assert np.array_equal(term_operator(d, b, shift=0.5).first_col,
                          3.0 * integration_matrix(0.0, b).first_col)
    assert np.array_equal(term_operator(d, b, shift=1.25).first_col,
                          3.0 * integration_matrix(0.75, b).first_col)
    i = lhs_point(3.0, 0.5, sense="integral")
    assert np.array_equal(term_operator(i, b, shift=1.25).first_col,
                          3.0 * integration_matrix(1.75, b).first_col)
    with pytest.raises(ValueError, match="order must be >= 0"):
        term_operator(d, b)


def test_integral_shift_is_largest_derivative_order():
    dist = DensityTerm("lhs", "derivative", "a", "distributed", lower=0.0, upper=1.0)
    top = max(a for a, _ in density_quadrature(dist))
    a = RandomParameter("a", "uniform", lo=0.5, hi=2.0)
    assert _integral_shift(DOSystem((dist,), (rhs_point(1.0, 0.0),), (a,))) == top
    # both sides count; integral terms do not
    sysm = DOSystem((lhs_point(1.0, 0.3), lhs_point(1.0, 2.5, sense="integral")),
                    (rhs_point(1.0, 0.6),))
    assert _integral_shift(sysm) == 0.6
    only_integrals = DOSystem((lhs_point(1.0, 0.0),), (rhs_point(1.0, 1.5, "integral"),))
    assert _integral_shift(only_integrals) == 0.0


def test_improper_system_is_the_derivative_matrix():
    # y = D^0.5 u: the RHS order sets the shift, the LHS becomes A_0.5 and
    # its inverse is exactly the derivative-form B_0.5
    b = make_basis(64, 3.0)
    sysm = DOSystem((lhs_point(1.0, 0.0),), (rhs_point(1.0, 0.5),))
    assert np.array_equal(assemble_system_operator(sysm, b).first_col,
                          derivative_matrix(0.5, b).first_col)


# Measured worst case 3.0e-13 (N=64, alpha just below 1, where B_alpha's
# own roundoff grows); about 1e-16 at alpha <= 0.5 and exactly 0 at alpha = 1
@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 64), st.floats(0.1, 20.0))
def test_single_term_agrees_with_derivative_form(alpha, n, horizon):
    # D^alpha y = u: integral form gives A_G = A_alpha directly, the
    # derivative form inverts B_alpha = A_alpha^(-1)
    b = make_basis(n, horizon)
    sysm = DOSystem((lhs_point(1.0, alpha),), (rhs_point(1.0, 0.0),))
    got = assemble_system_operator(sysm, b).first_col
    ref = invert_lower_toeplitz(derivative_matrix(alpha, b)).first_col
    assert np.max(np.abs(got - ref)) <= 2e-12 * np.max(np.abs(ref))


def test_order_zero_is_identity():
    b = make_basis(8, 1.0)
    for sense in ("derivative", "integral"):
        t = DensityTerm("lhs", sense, 1.0, "point", order=0.0)
        assert np.array_equal(to_dense(term_operator(t, b)), np.eye(8))


def test_assemble_identity_system():
    b = make_basis(8, 1.0)
    sysm = DOSystem((lhs_point(2.0, 0.0),), (rhs_point(2.0, 0.0),))
    assert np.allclose(to_dense(assemble_system_operator(sysm, b)), np.eye(8), atol=1e-15)


def test_assemble_singular_lhs():
    b = make_basis(8, 1.0)
    sysm = DOSystem((lhs_point(1.0, 0.0), lhs_point(-1.0, 0.0)), (rhs_point(1.0, 0.0),))
    with pytest.raises(ValueError, match="singular"):
        assemble_system_operator(sysm, b)


def test_assemble_binds_parameters():
    b = make_basis(8, 1.0)
    sysm = DOSystem((lhs_point("k", 0.0),), (rhs_point(1.0, 0.0),),
                    (RandomParameter("k", "uniform", lo=1.0, hi=3.0),))
    ag = assemble_system_operator(sysm, b, {"k": 2.0})
    assert np.allclose(to_dense(ag), np.eye(8) / 2.0, atol=1e-16)
    with pytest.raises(ValueError, match="'k'"):
        assemble_system_operator(sysm, b)


def term_by_term(sysm, b, values):
    """A_G first column with every shifted term operator rebuilt at these values."""
    n = b.n_funcs
    shift = _integral_shift(sysm)
    lhs = np.zeros(n)
    for t in sysm.lhs_terms:
        lhs += term_operator(t, b, values, shift).first_col
    rhs = np.zeros(n)
    for t in sysm.rhs_terms:
        rhs += term_operator(t, b, values, shift).first_col
    inv = invert_lower_toeplitz(OpMatrix(b, lhs))
    return np.convolve(inv.first_col, rhs)[:n]


def outcome(fn):
    try:
        return fn()
    except (ValueError, RuntimeError) as e:
        return type(e)


@st.composite
def random_terms(draw, side):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        sense = draw(st.sampled_from(["derivative", "integral"]))
        coeff = draw(st.one_of(st.sampled_from(["a", "g"]),
                               st.floats(-3.0, 3.0).filter(lambda c: c != 0.0)))
        if draw(st.booleans()):
            order = draw(st.one_of(st.sampled_from([0.0, 2.0, 3.0]), st.floats(0.05, 1.95)))
            terms.append(DensityTerm(side, sense, coeff, "point", order=order))
        else:
            lo = draw(st.floats(0.0, 1.5))
            hi = lo + draw(st.floats(0.05, 0.5))
            density = draw(st.sampled_from([None, {"form": "poly", "coeffs": [0.5, 1.0]}]))
            terms.append(DensityTerm(side, sense, coeff, "distributed", lower=lo, upper=hi,
                                     density=density, quad_points=draw(st.integers(1, 4))))
    return tuple(terms)


@settings(max_examples=60, deadline=None)
@given(random_terms("lhs"), random_terms("rhs"), st.integers(1, 24),
       st.floats(0.5, 4.0), st.integers(1, 3), st.integers(1, 3))
def test_bound_columns_match_term_by_term_assembly(lhs, rhs, n, horizon, qa, qg):
    # term columns built once and bound at every cubature node must equal
    # the assembly that rebuilds each term operator at that node, bit for bit
    b = make_basis(n, horizon)
    sysm = DOSystem(lhs, rhs, (RandomParameter("a", "uniform", lo=0.5, hi=2.0, quad_order=qa),
                               RandomParameter("g", "gaussian", mean=1.0, stddev=0.4,
                                               quad_order=qg)))
    columns = outcome(lambda: _system_columns(sysm, b))
    for node in tensor_cubature(sysm.random_params).nodes:
        ref = outcome(lambda: term_by_term(sysm, b, node))
        if isinstance(columns, type):  # a term operator itself failed
            assert columns is ref
            continue
        got = outcome(lambda: _bind(columns, b, node).first_col)
        one_shot = outcome(lambda: assemble_system_operator(sysm, b, node).first_col)
        if isinstance(ref, type):
            assert got is ref and one_shot is ref
        else:
            assert np.array_equal(got, ref) and np.array_equal(one_shot, ref)


# ---------------------------------------------------------------------------
# config dictionaries

EX = {
    "terms": [
        {"side": "lhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 2.0},
        {"side": "lhs", "sense": "derivative", "param": "a", "kind": "distributed",
         "lower": 0.8, "upper": 0.9},
        {"side": "rhs", "sense": "derivative", "coeff": 1.0, "kind": "point", "order": 0.0},
    ],
    "random_params": [{"name": "a", "distribution": "uniform", "lo": 9.5, "hi": 10.5}],
}


def test_system_from_dict_roundtrip():
    sysm = system_from_dict(EX)
    assert len(sysm.lhs_terms) == 2 and len(sysm.rhs_terms) == 1
    assert sysm.lhs_terms[1].coeff == "a"
    assert sysm.param_names() == ("a",)
    again = system_from_dict(system_to_dict(sysm))
    assert again == sysm


def test_term_dict_coeff_xor_param():
    bad = {"side": "lhs", "sense": "derivative", "kind": "point", "order": 1.0}
    with pytest.raises(ValueError, match="exactly one"):
        system_from_dict({"terms": [bad, EX["terms"][2]]})
    bad2 = dict(bad, coeff=1.0, param="a")
    with pytest.raises(ValueError, match="exactly one"):
        system_from_dict({"terms": [bad2, EX["terms"][2]]})


def test_term_dict_unknown_field():
    bad = dict(EX["terms"][0], colour="red")
    with pytest.raises(ValueError, match="colour"):
        system_from_dict({"terms": [bad, EX["terms"][2]]})


def test_unbound_param_reference():
    cfg = {"terms": EX["terms"]}  # no random_params block
    with pytest.raises(ValueError, match="'a'"):
        system_from_dict(cfg)


def test_callable_density_not_serializable():
    t = DensityTerm("lhs", "derivative", 1.0, "distributed", lower=0.0, upper=1.0,
                    density=lambda a: a)
    sysm = DOSystem((t,), (rhs_point(1.0, 0.0),))
    with pytest.raises(ValueError, match="serial"):
        system_to_dict(sysm)
