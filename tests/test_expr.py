import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridopt import (
    ActionSet,
    ExprError,
    NumericalError,
    UsageError,
    dirac,
    mixture,
    parse,
    to_source,
    variables,
)
from hybridopt.expr import Binary, Call, Compiled, MomentOf, Num, Unary, Var


class TestGrammar:
    def test_moment_and_unary(self):
        node = parse("-x1 + 0.5*mu_m(1,0)")
        assert node == Binary(
            "+",
            Unary("-", Var("x1")),
            Binary("*", Num(0.5), MomentOf("mu", 1, 0)),
        )

    def test_power_right_associative(self):
        assert Compiled(parse("2^3^2"))({}) == 512.0

    def test_unary_binds_below_power(self):
        assert Compiled(parse("-2^2"))({}) == -4.0

    def test_syntax_error_position(self):
        with pytest.raises(ExprError) as err:
            parse("x1 +")
        assert err.value.column == 5

    def test_unknown_identifier(self):
        with pytest.raises(ExprError, match="unknown identifier"):
            parse("x1 + bogus")

    def test_unknown_function(self):
        with pytest.raises(ExprError, match="unknown function"):
            parse("tan(x1)")

    def test_arity_mismatch(self):
        with pytest.raises(ExprError, match="exactly 1 argument"):
            parse("exp(x1, x2)")
        with pytest.raises(ExprError, match="exactly 2 arguments"):
            parse("min(x1)")

    def test_moment_args_must_be_integer_literals(self):
        with pytest.raises(ExprError, match="integer literal"):
            parse("mu_m(x1, 0)")
        with pytest.raises(ExprError, match="integer literal"):
            parse("mu_m(1.5, 0)")

    def test_variables(self):
        node = parse("t + x2*i + nu_m(2,0)")
        assert variables(node) == {"t", "x2", "i", "nu"}


class TestEvaluate:
    def test_square(self):
        assert Compiled(parse("x1*x1"))({"x": np.array([3.0])}) == 9.0

    def test_moment(self, unit_interval):
        m = mixture([dirac(unit_interval, [0.0]), dirac(unit_interval, [1.0])], [0.5, 0.5])
        assert Compiled(parse("mu_m(1,0)"))({"mu": m}) == 0.5

    def test_exp(self):
        assert Compiled(parse("exp(-t)"))({"t": 1.0}) == 0.36787944117144233

    def test_min_max_abs_sqrt(self):
        env = {"x": np.array([-2.0, 3.0])}
        assert Compiled(parse("min(x1, x2)"))(env) == -2.0
        assert Compiled(parse("max(abs(x1), sqrt(x2 + 1))"))(env) == 2.0

    def test_vectorized(self):
        out = Compiled(parse("x1 + i"))({"x": np.array([[1.0], [2.0]]), "i": np.array([1.0, 2.0])})
        assert out.tolist() == [2.0, 4.0]

    def test_division_by_zero(self):
        with pytest.raises(NumericalError, match="division by zero"):
            Compiled(parse("1/(x1 - 1)"))({"x": np.array([1.0])})

    def test_literal_divisor(self):
        # a nonzero literal divisor skips the zero check; a zero literal keeps it
        assert Compiled(parse("x1/4"))({"x": np.array([2.0])}) == 0.5
        with pytest.raises(NumericalError, match="division by zero"):
            Compiled(parse("x1/0"))({"x": np.array([2.0])})

    def test_log_domain(self):
        with pytest.raises(NumericalError, match="log"):
            Compiled(parse("log(x1)"))({"x": np.array([-1.0])})

    def test_sqrt_domain(self):
        with pytest.raises(NumericalError, match="sqrt"):
            Compiled(parse("sqrt(x1)"))({"x": np.array([-1.0])})

    def test_missing_variable(self):
        with pytest.raises(UsageError, match="references 't'"):
            Compiled(parse("t + 1"))({})

    def test_moment_free_ignores_measures(self, unit_interval):
        node = parse("x1 + t")
        env = {"x": np.array([1.0]), "t": 2.0}
        with_measure = dict(env, mu=dirac(unit_interval, [0.3]))
        assert Compiled(node)(env) == Compiled(node)(with_measure) == 3.0


def _leaf():
    return st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
        st.sampled_from(["t", "i", "x1", "x2"]).map(Var),
        st.tuples(st.sampled_from(["mu", "nu"]), st.integers(0, 3), st.integers(0, 1)).map(
            lambda v: MomentOf(*v)
        ),
    )


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda v: Binary(*v)),
        children.map(lambda c: Unary("-", c)),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "abs"]), children).map(
            lambda v: Call(v[0], (v[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda v: Call(v[0], (v[1], v[2]))
        ),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.recursive(_leaf(), _node, max_leaves=20))
    def test_print_parse_fixed_point(self, node):
        printed = to_source(node)
        reparsed = parse(printed)
        assert reparsed == node
        assert to_source(reparsed) == printed

    def test_examples(self):
        for src in ["-x1 + 0.5*mu_m(1, 0)", "2.0^3.0^2.0", "min(x1, max(t, i))", "-(x1 + 1.0)"]:
            assert to_source(parse(src)) == src


def tree_walk(node, env):
    """The recursive evaluation of a tree, with the ufuncs the grammar names."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var) and node.name in ("t", "i"):
        return np.asarray(env[node.name], dtype=float)
    if isinstance(node, Var):
        return np.asarray(env["x"], dtype=float)[..., int(node.name[1:]) - 1]
    if isinstance(node, MomentOf):
        return env[node.which].moment(node.exponent, node.coordinate)
    if isinstance(node, Unary):
        return -tree_walk(node.operand, env)
    if isinstance(node, Call):
        funcs = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs, "min": np.minimum, "max": np.maximum}
        return funcs[node.func](*[tree_walk(a, env) for a in node.args])
    ufuncs = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
    return ufuncs[node.op](tree_walk(node.left, env), tree_walk(node.right, env))


class TestCompiled:
    @settings(max_examples=200, deadline=None)
    @given(st.recursive(_leaf(), _node, max_leaves=20), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_a_tree_walk(self, node, seed):
        gen = np.random.default_rng(seed)
        u = ActionSet([0.0, 0.0], [1.0, 1.0])
        env = {
            "x": gen.normal(size=(5, 2)) * 3,
            "t": float(gen.random()),
            "i": gen.integers(1, 4, 5).astype(float),
            "mu": mixture([dirac(u, gen.random(2)), dirac(u, gen.random(2))], [0.25, 0.75]),
            "nu": dirac(u, gen.random(2)),
        }
        try:
            got = Compiled(node)(env)
        except NumericalError:
            return  # a zero divisor or an undefined power, which the walk would not reject
        with np.errstate(all="ignore"):
            want = tree_walk(node, env)
        np.testing.assert_array_equal(got, want)

    def test_survives_pickle(self, unit_interval):
        compiled = Compiled(parse("x1*x1/4 - mu_m(2,0)"))
        again = pickle.loads(pickle.dumps(compiled))
        env = {"x": np.array([[1.0], [3.0]]), "mu": dirac(unit_interval, [0.5])}
        assert again.node == compiled.node
        assert np.array_equal(again(env), compiled(env))
