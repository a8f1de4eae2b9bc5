"""The one field rule, checked against a reference written from its statement,
and a guard that keeps the rule's code in one place.

The rule: a call raises ``FieldMismatchError`` iff its irrational inputs lie
in two fields, and otherwise every irrational value it returns lies in the
one field of its inputs.  The inputs of a map are the values that decide its
field: a translation's displacement, any other map's period and breakpoints.
``affine_conjugate`` scales a translation's period as well, so there the
period counts too.  The reference reads only public values (``is_rational``,
``d``, ``period``, ``breakpoints``, ``displacement``), never a stored field.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import leafspace
from leafspace.action import build_glued_action
from leafspace.cones import run_progress_ledger
from leafspace.errors import FieldMismatchError, PeriodMismatchError
from leafspace.plmap import PLMap
from leafspace.qfield import QNum

FIELDS = (None, 2, 3, 5)
MIXED = re.compile(r"^mixed fields: sqrt\((\d+)\) vs sqrt\((\d+)\)$")


def field(x):
    return None if x.is_rational() else x.d


def fields(values):
    """The fields of the irrational values."""
    return {field(v) for v in values} - {None}


def deciding_values(h):
    """The values that decide a map's field: a translation is x -> x + t at
    any period, so t alone; any other map, its period and breakpoints."""
    if h.is_translation():
        return [h.displacement]
    return [h.period, *(c for pt in h.breakpoints for c in pt)]


def all_values(h):
    return [h.period, *(c for pt in h.breakpoints for c in pt)]


def outcome(fn, *args):
    """fn's result, or the (type, message) of the error it raises."""
    try:
        return fn(*args)
    except (FieldMismatchError, PeriodMismatchError) as exc:
        return type(exc), str(exc)


def assert_rule(result, inputs, outputs=None, two_smallest=True):
    """``result`` of a call on inputs irrational in ``inputs`` (a set of d):
    the mixed-fields error iff there are two, naming two of them, smaller
    first (the two smallest where one decision covers every input), and
    otherwise ``outputs(result)`` irrational in at most the one field."""
    if len(inputs) > 1:
        assert isinstance(result, tuple) and result[0] is FieldMismatchError, result
        a, b = map(int, MIXED.match(result[1]).groups())
        assert a < b and {a, b} <= inputs
        if two_smallest:
            assert [a, b] == sorted(inputs)[:2]
        return
    if isinstance(result, tuple):
        assert result[0] is PeriodMismatchError, result
        return
    assert fields(outputs(result)) <= inputs


@st.composite
def numbers(draw, among=FIELDS):
    """(n + m*sqrt(e))/q with small ints for e drawn from ``among``, rational
    for e None; a rational value carries a random d, which must not matter."""
    e = draw(st.sampled_from(among))
    n, q = draw(st.integers(-60, 60)), draw(st.integers(1, 12))
    m = draw(st.integers(-9, 9).filter(bool)) if e else 0
    return QNum(Fraction(n, q), Fraction(m, q), e or draw(st.sampled_from(FIELDS[1:])))


def frac(x):
    return x - x.floor()


@st.composite
def positives(draw, among=FIELDS):
    return frac(draw(numbers(among))) + draw(st.integers(1, 3))


@st.composite
def plmap_inputs(draw):
    """(p, pts) of a valid map whose period, xs and ys are each rational or
    irrational in a field of their own: p = P*(1 + w), x_i = P*(u_i + a)/(k + 1)
    and y_i = P*v_i/(k + 1) + c, with P rational, 0 <= w, a < 1 and distinct
    u_i, v_i in [0, k), so the xs lie in [0, p) and the ys span less than p."""
    P = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    p = P * (1 + frac(draw(numbers())))
    k = draw(st.integers(1, 4))
    us = sorted(draw(st.sets(st.integers(0, k - 1), min_size=k, max_size=k)))
    vs = sorted(draw(st.sets(st.integers(0, k), min_size=k, max_size=k)))
    a, c = frac(draw(numbers())), draw(numbers())
    return p, [(P * (u + a) / (k + 1), P * Fraction(v, k + 1) + c) for u, v in zip(us, vs)]


def input_fields(p, pts):
    return fields([p, *(c for pt in pts for c in pt)])


@st.composite
def plmaps(draw):
    """A map of ``plmap_inputs`` in at most one field, or a translation, whose
    period lies in any field if its displacement is rational."""
    if draw(st.booleans()):
        t = draw(numbers())
        return PLMap.translation(t, draw(positives(FIELDS if t.is_rational() else (None, t.d))))
    p, pts = draw(plmap_inputs().filter(lambda i: len(input_fields(*i)) < 2))
    return PLMap(p, pts)


@settings(max_examples=300, deadline=None)
@given(plmap_inputs())
def test_plmap_construction(inputs):
    assert_rule(outcome(PLMap, *inputs), input_fields(*inputs), all_values)


@settings(max_examples=200, deadline=None)
@given(numbers(), positives())
def test_translation(t, period):
    assert_rule(outcome(PLMap.translation, t, period), fields([t, period]), all_values)


@settings(max_examples=300, deadline=None)
@given(plmaps(), plmaps())
def test_compose(f, g):
    inputs = fields(deciding_values(f)) | fields(deciding_values(g))
    assert_rule(outcome(f.compose, g), inputs, deciding_values)


@settings(max_examples=300, deadline=None)
@given(plmaps(), positives())
def test_affine_conjugate_counts_a_translations_period(f, scale):
    assert_rule(outcome(f.affine_conjugate, scale), fields([*all_values(f), scale]), all_values)


@st.composite
def betas(draw):
    """None (the standard beta), or a period-1 map fixing 0 with one more
    breakpoint (x, x + y), x in [1/4, 1/2) and y in [1/8, 1/4), in one field."""
    if draw(st.booleans()):
        return None
    among = (draw(st.sampled_from(FIELDS)),)
    x = (1 + frac(draw(numbers(among)))) / 4
    return PLMap(1, [(0, 0), (x, x + (1 + frac(draw(numbers(among)))) / 8)])


@settings(max_examples=150, deadline=None)
@given(positives(), positives(), betas(), betas())
def test_build_glued_action(t, s, beta_l, beta_r):
    """The lengths and both betas are the action's inputs, and one decision
    covers them all: a beta irrational in another field than the other
    side's length raises when the action is built, though it meets that
    length in no map."""
    sides = {side: fields([x, *(all_values(b) if b else [])])
             for side, x, b in (("l", t, beta_l), ("r", s, beta_r))}
    inputs = sides["l"] | sides["r"]
    result = outcome(build_glued_action, t, s, beta_l, beta_r)
    if len(inputs) > 1:
        assert_rule(result, inputs)
        return
    for name, h in result.generators.items():
        assert fields(all_values(h)) <= sides[name[-1]]
    if inputs:
        assert {result.d} == inputs


def ledger_values(run):
    return [v for row in run.rows for v in
            (row.progress, row.distortion, row.certified_lower_bound, row.simulated_d1)]


@settings(max_examples=200, deadline=None)
@given(positives(), numbers().map(abs), st.integers(1, 5),
       st.sampled_from(("adversarial", "random")))
def test_run_progress_ledger(T, r, n, policy):
    assert_rule(outcome(run_progress_ledger, T, r, n, policy), fields([T, r]), ledger_values)


# -- the rule's code lives in one place ---------------------------------------


def _calls(name):
    """(module, qualified function) of each call of ``name`` in the package."""
    found = set()
    for path in sorted(Path(leafspace.__file__).parent.glob("*.py")):

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Call):
                callee = node.func
                if getattr(callee, "id", None) == name or getattr(callee, "attr", None) == name:
                    found.add((path.stem, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_field_errors_are_built_only_in_qfield():
    assert _calls("FieldMismatchError") == {("qfield", "_mixed_fields")}


def test_mixed_fields_is_raised_only_by_one_field_and_the_per_operation_checks():
    # QNum operators, map calls and compose keep a two-line inline check for
    # speed, and QNum.parse checks text against its declared field; every
    # decision made once per construction goes through _one_field.
    assert _calls("_mixed_fields") == {
        ("qfield", "_one_field"),
        ("qfield", "QNum._operand"),
        ("qfield", "QNum.parse"),
        ("plmap", "PLMap.__call__"),
        ("plmap", "PLMap.compose"),
    }


@pytest.mark.parametrize("module", ["action", "cones"])
def test_searches_and_ledger_import_no_field_error(module):
    tree = ast.parse((Path(leafspace.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"_mixed_fields", "FieldMismatchError"}
