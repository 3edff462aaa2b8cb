from __future__ import annotations

import ast
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhx.fields import GF, QQ, FieldError, field_to_json, parse_field

from helpers import canonical

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


def test_rational_coercion():
    assert QQ(3) == Fraction(3)
    assert QQ("2/4") == Fraction(1, 2)
    assert QQ("-7") == Fraction(-7)
    assert QQ(Fraction(5, 3)) == Fraction(5, 3)
    # canonical form: integer values are ints, one representation per value
    for got, want in [
        (QQ(Fraction(4, 2)), 2), (QQ("6/3"), 2), (QQ("-7"), -7),
        (QQ.inv(1), 1), (QQ.inv(Fraction(1, 3)), 3), (QQ.inv(-2), Fraction(-1, 2)),
        (QQ.zero, 0), (QQ.one, 1), (QQ.parse(" 10/5 "), 2), (QQ("2/4"), Fraction(1, 2)),
    ]:
        assert got == want and type(got) is type(want)


def test_rational_rejects_floats():
    with pytest.raises(FieldError):
        QQ(0.5)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("value", [True, False])
def test_fields_refuse_booleans(field, value):
    # a JSON true or false is an int to Python, but not a scalar of a file
    with pytest.raises(FieldError, match="cannot coerce"):
        field(value)


def test_rational_show_roundtrip():
    for s in ["0", "5", "-3", "7/2", "-11/13"]:
        assert QQ.show(QQ(s)) == s
    # canonical form reduces
    assert QQ.show(QQ("4/8")) == "1/2"


@given(rationals)
def test_rational_parse_show(a):
    assert QQ.parse(QQ.show(a)) == a


@given(rationals.filter(lambda a: a != 0))
def test_rational_inverse(a):
    assert a * QQ.inv(a) == 1


def test_gf_validation():
    with pytest.raises(FieldError):
        GF(4)
    with pytest.raises(FieldError):
        GF(1)
    with pytest.raises(FieldError):
        GF(2**31 + 11)
    assert GF(2).char == 2
    assert GF(2147483647).char == 2147483647  # largest admissible prime


@pytest.mark.parametrize("p", [9, 15, 1_000_001])
def test_gf_refuses_composites(p):
    with pytest.raises(FieldError, match="is not prime"):
        GF(p)


def test_gf_accepts_a_seven_digit_prime():
    assert GF(1_000_003).char == 1_000_003


def test_gf_refuses_a_huge_prime_before_testing_it():
    # 2**61 - 1 is prime; trial division up to its root would take minutes
    start = time.perf_counter()
    with pytest.raises(FieldError, match=r"too large \(need a prime p < 2\*\*31\)"):
        GF(2**61 - 1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: QQ.inv(0), ZeroDivisionError, "inverse of 0 in Q"),
        (lambda: QQ.parse("1/0"), FieldError, "bad rational literal '1/0'"),
        (lambda: GF(5)(1.5), FieldError, "floats are not exact"),
    ],
    ids=["qq-inv-zero", "qq-parse-over-zero", "gf5-float"],
)
def test_scalar_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_gf_cached():
    assert GF(5) is GF(5)


def test_gf_arithmetic():
    F = GF(7)
    assert F(10) == 3
    assert F(-1) == 6
    assert F.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_gf_rational_reduction():
    F = GF(5)
    assert F(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert F.parse("1/2") == 3
    with pytest.raises(FieldError):
        F(Fraction(1, 5))


@given(st.integers(min_value=1, max_value=10**9))
def test_gf_fermat(n):
    F = GF(1009)
    a = n % 1009
    if a:
        assert pow(a, 1008, 1009) == 1
        assert F.inv(a) * a % 1009 == 1


def test_parse_field_specs():
    assert parse_field("Q") is QQ
    assert parse_field({"Fp": 3}) == GF(3)
    assert parse_field("Fp:11") == GF(11)
    with pytest.raises(FieldError):
        parse_field("R")
    with pytest.raises(FieldError):
        parse_field({"Fp": "three"})


def test_field_json_roundtrip():
    assert field_to_json(QQ) == "Q"
    assert field_to_json(GF(2)) == {"Fp": 2}
    assert parse_field(field_to_json(GF(13))) == GF(13)


# ------------------------------------------------------ accumulation


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(2**31 - 1)], ids=repr)
@settings(max_examples=80, deadline=None)
@given(
    stream=st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(-(2**40), 2**40), st.integers(1, 6)
        ),
        max_size=40,
    ),
    cancel=st.sets(st.integers(0, 7)),
)
@example(stream=[(0, 1, 1), (0, 1, 1)], cancel=set())
@example(stream=[(0, 4, 2), (1, 1, 2), (1, 1, 2)], cancel=set())
@example(stream=[(1, 3, 1), (1, -3, 1), (2, 0, 1)], cancel={0})
def test_add_into_matches_per_key_sum(field, stream, cancel):
    # callers pass a Fraction on Q and any int on F_p; the keys in cancel
    # then get minus their running sum, which must remove them
    acc: dict = {}
    sums: dict = {}
    for key, num, den in stream:
        c = Fraction(num, den) if field == QQ else num
        field.add_into(acc, key, c)
        sums[key] = sums.get(key, 0) + c
    for key in cancel:
        c = -sums.get(key, field.zero)
        field.add_into(acc, key, c)
        sums[key] = sums.get(key, 0) + c
    want = {k: field(v) for k, v in sums.items() if field(v) != field.zero}
    assert acc == want
    assert not cancel & set(acc)
    for v in acc.values():
        if field == QQ:
            # one representation per value: int when integral, else a
            # Fraction with denominator > 1
            assert canonical(v)
        else:
            assert type(v) is int and 0 < v < field.p


class _CharacteristicUse(ast.NodeVisitor):
    """Reads of .char or .p, and reductions mod ch or mod such a read.

    Reads inside the functions named in allowed are not reported.
    """

    def __init__(self, module: str, allowed=()):
        self.module = module
        self.allowed = set(allowed)
        self.function = None
        self.found: list = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Attribute(self, node):
        if node.attr in ("char", "p") and self.function not in self.allowed:
            self.found.append(f"{self.module}:{node.lineno} reads .{node.attr}")
        self.generic_visit(node)

    def _modulus(self, node, modulus):
        if isinstance(node.op, ast.Mod) and (
            isinstance(modulus, ast.Name) and modulus.id == "ch"
            or isinstance(modulus, ast.Attribute) and modulus.attr in ("char", "p")
        ):
            self.found.append(f"{self.module}:{node.lineno} reduces mod p")
        self.generic_visit(node)

    def visit_BinOp(self, node):
        self._modulus(node, node.right)

    def visit_AugAssign(self, node):
        self._modulus(node, node.value)


def test_characteristic_stays_behind_fields():
    """Only fields.py knows the characteristic.

    Elsewhere a sum goes through Field.add_into and a single value through
    field(x).  The one exception is the int / F_p dispatch to the
    elimination kernel in matrix.py; the F_p kernel itself takes the prime
    as an argument.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "hhx"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        dispatch = ("_kernel_rows", "rank", "rref") if path.name == "matrix.py" else ()
        visitor = _CharacteristicUse(path.name, dispatch)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    assert found == []


def test_only_chains_ranks_a_complex():
    """Only chains.py knows how a complex is ranked.

    No other module imports its reduction ``_pairs`` or calls SMat.rank
    with rows to skip or for pairs: a complex, cochains included, is ranked
    by ChainComplex.homology.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "hhx"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "chains.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                names = []
            found += [
                f"{path.name}:{node.lineno} uses {name}"
                for name in names if name == "_pairs"
            ]
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "rank"
                and (node.args or node.keywords)
            ):
                found.append(f"{path.name}:{node.lineno} calls .rank with skip or pairs")
    assert found == []
