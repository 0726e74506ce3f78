"""Document parsing is strict and emission round-trips bit for bit."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from supertrial.constructions import commutator_construct
from supertrial import serialize
from supertrial.core import SuperalgebraSpec, TrialgebraSpec
from supertrial.errors import InputError, ParityError
from supertrial.fixtures import FIXTURE_NAMES, builtin
from supertrial.linalg import Matrix
from supertrial.serialize import (
    emit_algebra,
    emit_map,
    parse_algebra,
    parse_map,
    parse_rational,
    parse_superalgebra,
    rational_str,
    to_json,
)

F = Fraction
ID2 = [[1, 0], [0, 1]]


class TestParseRational:
    def test_integer_and_ratio_strings(self):
        assert parse_rational("7", "x") == F(7)
        assert parse_rational("-3/4", "x") == F(-3, 4)
        assert parse_rational(" 2 ", "x") == F(2)

    def test_plain_json_integer(self):
        assert parse_rational(5, "x") == F(5)

    def test_bool_rejected(self):
        with pytest.raises(InputError, match="boolean"):
            parse_rational(True, "x")

    def test_float_rejected(self):
        with pytest.raises(InputError, match="x"):
            parse_rational(0.5, "x")

    def test_decimal_string_rejected(self):
        with pytest.raises(InputError):
            parse_rational("0.5", "x")

    def test_zero_denominator(self):
        with pytest.raises(InputError, match="denominator"):
            parse_rational("1/0", "x")

    def test_error_names_location(self):
        with pytest.raises(InputError, match="algebra.left"):
            parse_rational("oops", "algebra.left")

    def test_str_roundtrip(self):
        assert rational_str(F(-5, 3)) == "-5/3"
        assert parse_rational(rational_str(F(-5, 3)), "x") == F(-5, 3)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_algebra_roundtrip(name):
    spec = builtin(name)
    assert parse_algebra(emit_algebra(spec)) == spec


def test_emission_is_deterministic():
    spec = builtin("dual2-twisted")
    assert emit_algebra(spec) == emit_algebra(builtin("dual2-twisted"))


def test_xi_omitted_when_absent():
    text = emit_algebra(builtin("dual2"))
    doc = json.loads(text)
    doc.pop("xi")
    spec = parse_algebra(json.dumps(doc))
    assert spec.xi is None
    assert "xi" not in json.loads(emit_algebra(spec))


def test_map_roundtrip():
    m = Matrix.from_rows([["1/2", 0], [3, -1]])
    assert parse_map(emit_map(m)) == m


def test_rectangular_map_roundtrip():
    m = Matrix.from_rows([[1, 2, 3]])
    assert parse_map(emit_map(m)) == m


def test_superalgebra_roundtrip():
    alg = SuperalgebraSpec.build("s", [0, 1], {(0, 0, 0): 1, (1, 1, 0): "1/3"},
                                 [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert parse_superalgebra(emit_algebra(alg)) == alg


def test_bracket_pair_document_shape():
    pair = commutator_construct(builtin("grassmann2")).spec
    doc = json.loads(emit_algebra(pair))
    assert list(doc) == ["name", "dim", "parity", "star", "bracket", "gamma", "xi"]
    assert doc["name"] == "comm(grassmann2)"


# Both document kinds read their header through one reader; each header
# case runs on each kind, with the document's kind as the error's prefix.
HEADER_READERS = [(parse_algebra, "algebra"), (parse_superalgebra, "superalgebra")]


class TestParseErrors:
    def test_not_json(self):
        for parse, _ in HEADER_READERS:
            with pytest.raises(InputError, match="line 1"):
                parse("{oops")

    def test_not_an_object(self):
        for parse, where in HEADER_READERS:
            with pytest.raises(InputError, match=f"^{where} document must be a JSON object$"):
                parse("[1, 2]")

    def base(self):
        return json.loads(emit_algebra(builtin("dual2")))

    def reject(self, doc, fragment):
        with pytest.raises(InputError, match=fragment):
            parse_algebra(json.dumps(doc))

    def reject_header(self, edit, fragment):
        """Apply edit to a two-dimensional document of each kind; both readers
        reject it at the same field of their own prefix."""
        superalgebra = json.loads(emit_algebra(SuperalgebraSpec.build("s", [0, 0], {(0, 0, 0): 1}, ID2, ID2)))
        for (parse, where), doc in zip(HEADER_READERS, (self.base(), superalgebra)):
            edit(doc)
            with pytest.raises(InputError, match=f"^{where}\\.{fragment}"):
                parse(json.dumps(doc))

    def test_missing_name(self):
        self.reject_header(lambda doc: doc.pop("name"), "name")

    def test_dim_zero(self):
        self.reject_header(lambda doc: doc.update(dim=0), "dim")

    def test_parity_length_mismatch(self):
        self.reject_header(lambda doc: doc.update(parity=[0]), "parity")

    def test_parity_non_bit(self):
        self.reject_header(lambda doc: doc.update(parity=[0, 3]), r"parity\[1\]")

    def test_tensor_index_out_of_range(self):
        doc = self.base()
        doc["left"][0]["k"] = 9
        self.reject(doc, "out of range")

    def test_tensor_duplicate_triple(self):
        doc = self.base()
        doc["left"].append(dict(doc["left"][0]))
        self.reject(doc, "duplicate")

    def test_tensor_float_value(self):
        doc = self.base()
        doc["left"][0]["v"] = 1.5
        self.reject(doc, r"left\[0\].v")

    def test_tensor_missing_value(self):
        doc = self.base()
        del doc["left"][0]["v"]
        self.reject(doc, "missing value")

    def test_gamma_wrong_height(self):
        doc = self.base()
        doc["gamma"] = [["1", "0"]]
        self.reject(doc, "gamma")

    def test_gamma_ragged_row(self):
        doc = self.base()
        doc["gamma"][0] = ["1"]
        self.reject(doc, r"gamma\[0\]")

    def test_parity_evenness_enforced(self):
        doc = self.base()
        doc["parity"] = [1, 0]
        with pytest.raises(ParityError):
            parse_algebra(json.dumps(doc))

    def test_tensor_must_be_list(self):
        doc = self.base()
        doc["perp"] = {"i": 0}
        self.reject(doc, "perp")

    def test_map_entry_count(self):
        with pytest.raises(InputError, match="entries"):
            parse_map('{"rows": 2, "cols": 2, "entries": ["1"]}')

    def test_superalgebra_requires_xi(self):
        alg = SuperalgebraSpec.build("s", [0], {}, [[1]], [[1]])
        doc = json.loads(emit_algebra(alg))
        del doc["xi"]
        with pytest.raises(InputError, match="xi"):
            parse_superalgebra(json.dumps(doc))

    def test_superalgebra_missing_xi_reported_before_a_bad_star_entry(self):
        alg = SuperalgebraSpec.build("s", [0], {(0, 0, 0): 1}, [[1]], [[1]])
        doc = json.loads(emit_algebra(alg))
        del doc["xi"]
        doc["star"][0]["v"] = 1.5
        with pytest.raises(InputError) as info:
            parse_superalgebra(json.dumps(doc))
        assert str(info.value) == "superalgebra.xi: required for superalgebra documents"


def tiny(left, gamma=(("1", "0"), ("0", "1"))):
    """A two-dimensional even algebra document with the given left constants."""
    entries = [{"i": i, "j": j, "k": k, "v": v} for (i, j, k), v in left]
    return json.dumps({"name": "t", "dim": 2, "parity": [0, 0], "left": entries, "gamma": gamma})


class TestLiteralMemo:
    """Each distinct string literal of a document is converted once, and every
    rejection reads as it would without the memo, even where a bad value
    follows an accepted one that looks alike."""

    @pytest.mark.parametrize("first,second,message", [
        (1, True, "algebra.left[1].v: booleans are not rational literals"),
        ("2", "2.0", "algebra.left[1].v: '2.0' is not a rational literal (use 'p' or 'p/q')"),
        ("3/1", "3/0", "algebra.left[1].v: zero denominator in '3/0'"),
        ("5", "5", "algebra.left[1]: duplicate triple (0, 0, 0) in left"),
    ])
    def test_bad_value_after_a_similar_good_one(self, first, second, message):
        k = 0 if first == second else 1
        with pytest.raises(InputError) as info:
            parse_algebra(tiny([((0, 0, 0), first), ((0, 0, k), second)]))
        assert str(info.value) == message

    @pytest.mark.parametrize("value,entry,message", [
        (1, True, "algebra.gamma[1][0]: booleans are not rational literals"),
        ("1", "1.0", "algebra.gamma[1][0]: '1.0' is not a rational literal (use 'p' or 'p/q')"),
    ])
    def test_bad_gamma_entry_after_a_tensor_literal(self, value, entry, message):
        with pytest.raises(InputError) as info:
            parse_algebra(tiny([((0, 0, 0), value)], gamma=[["1", "0"], [entry, "1"]]))
        assert str(info.value) == message

    def test_bad_map_entry_after_a_similar_good_one(self):
        with pytest.raises(InputError) as info:
            parse_map('{"rows": 1, "cols": 2, "entries": [1, true]}')
        assert str(info.value) == "map.entries[1]: booleans are not rational literals"

    def test_each_literal_converted_once_per_call(self, monkeypatch):
        converted = []
        frac = serialize.frac
        monkeypatch.setattr(serialize, "frac", lambda text: converted.append(text) or frac(text))
        text = tiny([((0, 0, 0), "1/2"), ((0, 0, 1), "1/2"), ((1, 1, 1), "1/2")], gamma=[["1/2", "0"], ["0", "1/2"]])
        for calls in (1, 2):
            spec = parse_algebra(text)
            assert sorted(converted) == ["0"] * calls + ["1/2"] * calls
        assert spec.left.constants.get((1, 1, 1), 0) == F(1, 2)


def test_roundtrip_of_three_distinct_rational_products():
    parities = (0, 0, 0, 1, 1, 1)
    even = [(i, j, k) for i in range(6) for j in range(6) for k in range(6)
            if parities[k] == parities[i] ^ parities[j]]
    products = [{t: F((7 * n + s) % 11 - 5, 1 + (n + s) % 4) for n, t in enumerate(even)} for s in range(3)]
    assert any(0 in p.values() for p in products) and len({tuple(p.values()) for p in products}) == 3
    gamma = Matrix.diagonal(["1/2", 2, -1, "3/4", 1, "-5/3"])
    spec = TrialgebraSpec.build("six", parities, *products, gamma, gamma @ gamma)
    text = emit_algebra(spec)
    assert parse_algebra(text) == spec
    doc = json.loads(text)
    zero = next(t for t, v in products[0].items() if not v)
    doc["left"].append({"i": zero[0], "j": zero[1], "k": zero[2], "v": "0/3"})
    assert parse_algebra(json.dumps(doc)) == spec and emit_algebra(parse_algebra(json.dumps(doc))) == text


# Scalars of every kind, containers of one scalar kind (written by one join)
# and mixed containers, nested.
_SCALARS = hs.none() | hs.booleans() | hs.integers() | hs.text()
_UNIFORM = hs.one_of(*(hs.lists(s) | hs.dictionaries(hs.text(), s) for s in (hs.none(), hs.booleans(), hs.integers(), hs.text())))
_TREES = hs.recursive(
    _SCALARS | _UNIFORM,
    lambda inner: hs.lists(inner) | hs.lists(inner, max_size=4).map(tuple) | hs.dictionaries(hs.text(), inner),
    max_leaves=40,
)


# Lists and tuples of records with one shared key tuple, which the writer
# lays out with its key prefixes built once; a value is a scalar, a list of
# one scalar kind, an empty list, a tuple or a nested record list.
_KEYS = hs.lists(hs.text(max_size=3), min_size=1, max_size=4, unique=True)
_FIELD_LEAVES = (
    _SCALARS
    | hs.one_of(*(hs.lists(s, min_size=1, max_size=4) for s in (hs.none(), hs.booleans(), hs.integers(), hs.text())))
    | hs.just([])
    | hs.lists(_SCALARS, max_size=3).map(tuple)
)


def _records(values):
    rows = _KEYS.flatmap(lambda keys: hs.lists(hs.fixed_dictionaries({k: values for k in keys}), min_size=1, max_size=5))
    return rows | rows.map(tuple)


_RECORDS = _records(hs.recursive(_FIELD_LEAVES, _records, max_leaves=20))


def _near_misses(records):
    """Record lists that must take the general path: the keys of the first
    record in another order or with one more key, a ``True`` among ints, or
    a leading ``{}``."""
    records, first = list(records), records[0]
    keys = list(first)
    return hs.sampled_from([
        records + [dict(reversed(first.items()))],
        records + [{**first, "".join(keys) + "+": 0}],
        [{**r, keys[0]: [1, True, 2]} for r in records],
        [{}] + records,
    ])


class TestToJson:
    """``to_json`` writes exactly what the standard library writes with ``indent=2``."""

    @given(_TREES)
    def test_matches_the_standard_library(self, value):
        assert to_json(value) == json.dumps(value, indent=2)

    @given(_RECORDS | _RECORDS.flatmap(_near_misses))
    def test_record_lists_match_the_standard_library(self, value):
        assert to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            [],
            {},
            (),
            [[]],
            [{}],
            {"a": []},
            {"a": {}},
            {"a": [[], {}, ()]},
            [[[[[]]]], {"b": {"c": {}}}],
            ((1, 2), (), ["x"]),
            [True, 1, 0, False, None],
            [True, False],
            [None, None],
            {"t": True, "one": 1, "n": None},
            ["h\u00e9llo", "\u2603", "\U0001d11e", "\x00\x1f\x7f", "\"", "\\", "\u2028", "\ud800", "},\n{"],
            {"\"},\n{\"": "\ud800", "\u00e9": ["\\", "\t"]},
            [-1, -10**20, 0, 10**20],
            10**3999,
            [-(10**3999), 10**3999],
            [
                {"claim_id": "gd", "s": 0, "r": 1, "s2": None, "r2": None, "passed": True, "witness": None},
                {"claim_id": "gd", "s": 1, "r": 1, "s2": 0, "r2": 0, "passed": False, "witness": [["1", "0"], ["-1/2", "3"]]},
            ],
            ({"i": 0, "j": 1, "k": 1, "v": "-1/2"}, {"i": 1, "j": 0, "k": 1, "v": "3"}),
            [{"axiom_id": "ii-a", "indices": (0, 1, 2), "lhs": ["1", "0"], "rhs": ["0", "-1/2"]}] * 2,
            [{"a": 1}, {"a": 1, "b": 2}],
            [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
            [{}, {}],
            {"": {}},
            {"a": {"x": 1}, "b": {"x": 2}},
            "",
            0,
            None,
            False,
        ],
    )
    def test_explicit_cases(self, value):
        assert to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, F(1, 2), {1}, b"x", {1: "a"}, {True: "a"}, {None: 1}, [1, 2.0], ["a", {"b": {1, 2}}], {"a": F(1)}, (b"",),
         [{1: "a"}, {1: "b"}], [{"a": 1}, {"a": 1.5}], [{"a": [1, 2.0]}], [{"a": (F(1),)}]],
    )
    def test_other_values_and_keys_are_type_errors(self, value):
        with pytest.raises(TypeError):
            to_json(value)

    def test_emitted_documents_have_the_layout(self):
        for name in FIXTURE_NAMES:
            text = emit_algebra(builtin(name))
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
        text = emit_map(Matrix.from_rows([[1, "-1/2"], [0, 3]]))
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
