"""Exact coefficient fields.

Two kinds of scalars are supported: arbitrary-precision rationals and prime
fields F_p with p < 2**31.  Field elements are plain Python objects so that
downstream sparse linear algebra can stay close to the machine
representation: an element of F_p is an int in [0, p), and a rational is in
canonical form, an int when its value is an integer and otherwise a Fraction
with denominator > 1, so each value has one representation and integer
arithmetic never builds a Fraction.  Every operation is exact; floats are
rejected everywhere.

The rule "reduce mod p, drop zeros" lives here and nowhere else: sparse
vectors accumulate through ``Field.add_into``, and a single value is
normalized by calling the field, ``field(x)``.  Callers never read the
characteristic.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Field", "QQ", "GF", "FieldError", "parse_field", "field_to_json"]

_MAX_PRIME = 2**31


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # deterministic Miller-Rabin, exact for n < 3,317,044,064,679,887,385,961,981
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface for the two scalar types.

    Concrete instances are the singleton ``QQ`` and ``GF(p)``.  Elements are
    not wrapped; the field object knows how to coerce, invert, parse and
    serialize them.  ``zero`` and ``one`` are constants of the instance, so
    the inner loops that compare against them pay no coercion.

    ``add_into`` is the one accumulate path for sparse {key: value} dicts:
    every sum of field elements into such a dict goes through it, so stored
    values are always normalized and never zero.
    """

    char: int
    zero: object
    one: object

    def __call__(self, value):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def show(self, a) -> str:
        raise NotImplementedError

    def add_into(self, acc: dict, key, c) -> None:
        """acc[key] += c in the field; a key whose sum is zero is dropped.

        c is a field element or a product of one with integers (a sign, a
        multiplicity), so on F_p it may be any int.
        """
        raise NotImplementedError


class _Rationals(Field):
    char = 0
    zero = 0
    one = 1

    def __call__(self, value):
        if isinstance(value, float):
            raise FieldError("floats are not exact; use Fraction or a string")
        if isinstance(value, int):
            return int(value)
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return self(1 / Fraction(a))

    def add_into(self, acc: dict, key, c) -> None:
        # a missing key takes c without a sum with zero; either way the kept
        # value is brought to canonical form (a sum or a product of field
        # elements, such as Fraction(1, 2) * 2, may carry denominator 1)
        if key in acc:
            c = acc[key] + c
            if not c:
                del acc[key]
                return
        elif not c:
            return
        acc[key] = c if type(c) is int or c.denominator != 1 else c.numerator

    def parse(self, text: str):
        text = text.strip()
        try:
            return self(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def show(self, a) -> str:
        # "n" for an int, "n/d" for a Fraction
        return str(self(a))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, _Rationals)

    def __hash__(self):
        return hash("QQ")


class _PrimeField(Field):
    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"{p!r} is not prime")
        if p >= _MAX_PRIME:
            raise FieldError(f"prime {p} too large (need p < 2**31)")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def __call__(self, value):
        if isinstance(value, float):
            raise FieldError("floats are not exact; use ints or strings")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise FieldError(
                    f"denominator {value.denominator} not invertible mod {self.p}"
                )
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError(f"cannot coerce {value!r} into F_{self.p}")

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def add_into(self, acc: dict, key, c) -> None:
        nv = (acc.get(key, 0) + c) % self.p
        if nv:
            acc[key] = nv
        else:
            acc.pop(key, None)

    def parse(self, text: str):
        # rational literals reduce mod p so shared input files work over any field
        try:
            return self(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad scalar literal {text!r} for F_{self.p}") from exc

    def show(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, _PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = _Rationals()

_gf_cache: dict[int, _PrimeField] = {}


def GF(p: int) -> _PrimeField:
    """The prime field F_p.  Instances are cached so GF(p) is GF(p)."""
    if p not in _gf_cache:
        _gf_cache[p] = _PrimeField(p)
    return _gf_cache[p]


def parse_field(spec) -> Field:
    """Decode a field from its JSON form: the string "Q" or {"Fp": p}.

    The command-line form "Fp:<p>" is accepted as well.
    """
    if spec == "Q":
        return QQ
    if isinstance(spec, str) and spec.startswith("Fp:"):
        try:
            return GF(int(spec[3:]))
        except ValueError as exc:
            raise FieldError(f"bad field spec {spec!r}") from exc
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
        if not isinstance(p, int):
            raise FieldError(f"bad prime {p!r} in field spec")
        return GF(p)
    raise FieldError(f"unrecognized field spec {spec!r}")


def field_to_json(field: Field):
    if field == QQ:
        return "Q"
    return {"Fp": field.p}
