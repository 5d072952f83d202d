"""Certificate document round-trip and tamper-detection tests."""
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smyth.algebra import FieldParams, Poly, parse_poly
from smyth.bounds import construct_extremal_fqt, construct_extremal_int
from smyth.core import BalancedMultiset, CoeffTuple, balanced_multiset
from smyth.errors import ParseError
from smyth.numfield import numfield_pipeline
from smyth.quadratic import QuadField, format_quadint, parse_quadint
from smyth.serialize import (
    canonical_json,
    csv_table,
    extremal_doc,
    multiset_doc,
    numfield_doc,
    parse_json,
    verify_doc,
)

F2 = FieldParams(2)


def fqt_doc(N=2, kind="balanced"):
    a = CoeffTuple.make(F2, [parse_poly(F2, s) for s in ("1", "t", "t+1")])
    b = balanced_multiset(a, N)
    return multiset_doc(b, kind=kind, N=N)


_TRICKY = st.text(alphabet=st.sampled_from(["\x00", "]", "[", ",", "\n", '"', "\\", " ",
                                             "a", "1", "\u00e9", "\u6f22", "\U0001f642"]))
_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _TRICKY)
_ROWS = st.lists(st.lists(_SCALAR, min_size=1, max_size=4) | st.tuples(_SCALAR, _SCALAR),
                 min_size=1, max_size=5)
_JSON = st.recursive(
    _SCALAR | _ROWS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text() | _TRICKY, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=12)


class _Text(str):
    pass


class _Int(int):
    pass


# texts JSON writes unchanged between quotes, and entries that must leave the
# plain-text join path: each poison is inserted into one row as a run
_PLAIN = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                        blacklist_characters='"\\'), max_size=5)
_POISONS = (['"'], ["\\"], ["\x1f"], ["\u00e9"], [1, "1"], [True, 1], [_Text("a")],
            [["y"]], [{"z": "w"}], [float("nan")])
# exact ints of every sign and size, and entries that must leave the int
# join path
_INTS = st.integers() | st.sampled_from([0, -1, 2**64, 2**64 + 1, -(2**64), 10**30])
_INT_POISONS = ([True], [False, 0], [None], [1.5], [float("nan")], ["1"], [_Int(3)],
                [[1]], [{"z": 1}])


@st.composite
def _poisoned_rows(draw, entries, poisons):
    """A flat list, or a list of nonempty rows, of entries, sometimes with
    one poison run, nested one or two levels deep in a document."""
    flat = draw(st.booleans())
    if flat:
        value = draw(st.lists(entries, min_size=1, max_size=8))
        row = value
    else:
        value = draw(st.lists(st.lists(entries, min_size=1, max_size=4), min_size=1, max_size=5))
        row = draw(st.sampled_from(value))
    poison = draw(st.none() | st.sampled_from(poisons))
    if poison is not None:
        at = draw(st.integers(0, len(row)))
        row[at:at] = poison
    if not flat and draw(st.booleans()):
        value = [tuple(r) for r in value]
    return draw(st.sampled_from([{"a": value}, {"b": {"a": value}, "c": 1}]))


def _assert_same_bytes_as_json_dumps(doc):
    # NaN and infinities are not JSON, and Python refuses to write an int of
    # more than 4,300 digits: both encoders refuse either
    try:
        want = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError):
            canonical_json(doc)
    else:
        assert canonical_json(doc) == want


class TestCanonicalJson:
    @given(st.dictionaries(st.text() | _TRICKY, _JSON, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_as_pure_python_encoder(self, doc):
        _assert_same_bytes_as_json_dumps(doc)

    @given(_poisoned_rows(_PLAIN, _POISONS))
    @settings(max_examples=200, deadline=None)
    def test_plain_text_rows_same_bytes_as_pure_python_encoder(self, doc):
        _assert_same_bytes_as_json_dumps(doc)

    @given(_poisoned_rows(_INTS, _INT_POISONS))
    @settings(max_examples=200, deadline=None)
    def test_int_rows_same_bytes_as_pure_python_encoder(self, doc):
        _assert_same_bytes_as_json_dumps(doc)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int-string digit limit")
    @pytest.mark.parametrize("value", [10**4400, [1, -10**4400], [[1], [10**4400]]],
                             ids=["scalar", "flat", "rows"])
    def test_int_past_the_digit_limit_raises_as_json_dumps_does(self, value):
        with pytest.raises(ValueError):
            json.dumps({"a": value})
        with pytest.raises(ValueError):
            canonical_json({"a": value})

    def test_edge_layouts(self):
        class Text(str):
            pass

        for doc in ({}, {"a": []}, {"a": [[]]}, {"a": [1]}, {"a": [[1]]}, {"a": [["]\x00["]]},
                    {"a": [[1], []]}, {"a": [[1], 2]}, {"a": ({"b": ()},)}, {"": {"": "\x00"}},
                    {"a": ["1", 1]}, {"a": [["x"], [1]]}, {"a": [["x", ["y"]]]},
                    {"a": ["\x7f"]}, {"a": [True, 1]}, {"a": [[1], [True]]},
                    {"a": [[1, 2], [3.5]]}, {"a": [-(2**70), 0]}, {"a": [(1, 2), [3]]},
                    # unhashable entries in rows, which the set of texts refuses
                    {"a": [["x", {"y": 1}]]}, {"a": [["x"], ["y", ["z"]]]}, {"a": ["x", []]},
                    # str subclasses, plain or needing escapes, and True among ints
                    {"a": [["x", Text("y")]]}, {"a": [[Text('"'), "x"]]}, {"a": [Text("\n")]},
                    {"a": [["x", Text("x")]]}, {"a": [[1, True, 2]]}, {"a": [[True], [1]]},
                    {"a": [[]]}, {"a": [[], []]}, {"a": [[], ["x"]]},
                    # rows of mixed types
                    {"a": [["x", 1], [2, "y"]]}, {"a": [[1, "x"]]}, {"a": [["x"], [None]]},
                    {"a": [[1.5, "x"]]}, {"a": [["x", None], ["y", False]]}):
            assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_parse_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_json("{broken")
        assert "line" in str(exc.value)

    def test_byte_stability(self):
        doc = fqt_doc()
        assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


class TestFqtRoundTrip:
    def test_balanced_doc_verifies(self):
        assert verify_doc(fqt_doc()) is True

    def test_certificate_kind_verifies(self):
        assert verify_doc(fqt_doc(kind="certificate")) is True

    def test_full_json_cycle(self):
        doc = fqt_doc()
        again = parse_json(canonical_json(doc))
        assert verify_doc(again) is True

    def test_corrupt_kernel_fails(self):
        doc = fqt_doc()
        bad = json.loads(canonical_json(doc))
        bad["kernel_vector"][0] = "t^5+1"
        assert verify_doc(bad) is False

    def test_corrupt_permutation_fails(self):
        doc = fqt_doc()
        bad = json.loads(canonical_json(doc))
        row = bad["permutations"][0]
        if row[0] != row[1]:
            row[0], row[1] = row[1], row[0]
            assert verify_doc(bad) is False

    def test_corrupt_tuples_fail(self):
        doc = fqt_doc()
        bad = json.loads(canonical_json(doc))
        bad["tuples"][0][0] = "t^3"
        assert verify_doc(bad) is False

    def test_non_permutation_rejected(self):
        doc = fqt_doc()
        bad = json.loads(canonical_json(doc))
        bad["permutations"][0] = [1] * len(bad["permutations"][0])
        assert verify_doc(bad) is False

    def test_missing_field_raises(self):
        bad = json.loads(canonical_json(fqt_doc()))
        del bad["kernel_vector"]
        with pytest.raises(ParseError):
            verify_doc(bad)

    def test_unknown_kind_raises(self):
        bad = json.loads(canonical_json(fqt_doc()))
        bad["kind"] = "mystery"
        with pytest.raises(ParseError):
            verify_doc(bad)


class TestIndexedMultisets:
    """Emission and verification work on value indices, not on Poly values."""

    def test_emission_hashes_no_poly(self, monkeypatch):
        a = CoeffTuple.make(FieldParams(3), ["t+1", "2*t", "2"])
        calls = []

        def counting_hash(self):
            calls.append(self)
            return hash(self.coeffs)

        monkeypatch.setattr(Poly, "__hash__", counting_hash)
        doc = multiset_doc(balanced_multiset(a, 2), kind="certificate", N=2)
        assert doc["m"] == 26
        assert calls == []

    def test_each_distinct_entry_text_parsed_once(self, monkeypatch):
        import smyth.serialize as serialize

        doc = parse_json(canonical_json(fqt_doc(N=3)))
        texts = set(doc["coeffs"]) | set(doc["kernel_vector"])
        texts |= {v for row in doc["tuples"] for v in row}
        calls = []

        def counting_parse(field, text):
            calls.append(text)
            return parse_poly(field, text)

        monkeypatch.setattr(serialize, "parse_poly", counting_parse)
        assert verify_doc(doc) is True
        entries = len(doc["kernel_vector"]) + sum(map(len, doc["tuples"]))
        assert len(calls) <= len(texts) < entries

    def test_fqt_corpus_verifies_without_multiplying_polynomials(self, monkeypatch):
        # each product is one integer product of packed coefficients
        corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
        docs = [parse_json(p.read_text(encoding="utf-8")) for p in sorted(corpus.glob("fqt-*.json"))]
        calls = []
        multiply = Poly.__mul__

        def counting_mul(self, other):
            calls.append(self)
            return multiply(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        monkeypatch.setattr(Poly, "__rmul__", counting_mul)
        verdicts = [verify_doc(doc) for doc in docs]
        assert len(docs) == 33 and verdicts.count(True) == 11
        assert calls == []

    @pytest.mark.parametrize("tuples", ["", {}, "t", [], [[]]],
                             ids=["empty-string", "dict", "string", "no-rows", "empty-row"])
    def test_tuples_not_a_list_of_rows_fail(self, tuples):
        doc = parse_json(canonical_json(fqt_doc(N=2)))
        doc["tuples"] = tuples
        assert verify_doc(doc) is False

    def test_huge_m_fails_before_allocating(self):
        doc = parse_json(canonical_json(fqt_doc(N=2)))
        for m in (2**63, 10**400):
            doc["m"] = m
            assert verify_doc(doc) is False

    def test_large_prime_field_builds_no_table_per_element(self):
        # no table grows with q: over F_p, p = 2^61 - 1, the packed digits
        # are a few words wide, and the F_2 relations fail there
        doc = parse_json(canonical_json(fqt_doc(N=2)))
        doc["q"] = 2**61 - 1
        assert verify_doc(doc) is False

    def test_dense_kernel_entries_of_the_largest_degree_end_quickly(self):
        # each product is one integer multiplication, linear in the degree
        # here: three dense entries of degree 65,535 over F_p, p = 2^61 - 1
        rng = random.Random(5)
        q = 2**61 - 1
        doc = parse_json(canonical_json(fqt_doc(N=2)))
        doc["q"] = q
        for k in range(3):
            doc["kernel_vector"][k] = "+".join(f"{rng.randrange(1, q)}*t^{j}" for j in range(65536))
        start = time.perf_counter()
        assert verify_doc(doc) is False
        assert time.perf_counter() - start < 10

    def test_only_kernel_entries_count_against_the_product_budget(self):
        # 3f = 0 over F_3 for every f: a dense coefficient of degree 65,535
        # is multiplied by the kernel entry 1 only, not by itself
        rng = random.Random(6)
        f = "+".join(f"{rng.randrange(1, 3)}*t^{j}" for j in range(65536))
        doc = {"kind": "certificate", "ring": "fqt", "q": 3, "n": 3, "coeffs": [f] * 3,
               "m": 1, "permutations": [[1]] * 3, "kernel_vector": ["1"],
               "tuples": [["1"] * 3]}
        assert verify_doc(doc) is True

    def test_reordered_and_respelled_tuples_still_verify(self):
        doc = parse_json(canonical_json(fqt_doc(N=2)))
        doc["tuples"].reverse()
        doc["tuples"][0] = [" + ".join(reversed(v.split("+"))) for v in doc["tuples"][0]]
        assert verify_doc(doc) is True


class TestIntRoundTrip:
    def test_integer_multiset_verifies(self):
        b = BalancedMultiset.make((1, 1, -2), [(1, 1, 1), (2, 2, 2)])
        doc = multiset_doc(b, kind="balanced")
        assert doc["ring"] == "int"
        assert verify_doc(doc) is True

    def test_no_coefficients_fails(self):
        doc = {"kind": "balanced", "ring": "int", "n": 0, "coeffs": [], "m": 1,
               "permutations": [], "kernel_vector": [1]}
        assert verify_doc(doc) is False

    def test_corrupt_coeff_fails(self):
        b = BalancedMultiset.make((1, 1, -2), [(1, 1, 1), (2, 2, 2)])
        doc = json.loads(canonical_json(multiset_doc(b, kind="balanced")))
        doc["coeffs"][0] = 3
        assert verify_doc(doc) is False


class TestExtremalRoundTrip:
    def test_fqt_instance(self):
        doc = extremal_doc(construct_extremal_fqt(2, 2))
        assert verify_doc(doc) is True

    def test_int_instance(self):
        doc = extremal_doc(construct_extremal_int(2))
        assert verify_doc(doc) is True

    def test_corrupt_order_fails(self):
        doc = json.loads(canonical_json(extremal_doc(construct_extremal_int(2))))
        doc["order"] = doc["order"] + 1
        assert verify_doc(doc) is False

    def test_corrupt_triple_fails(self):
        doc = json.loads(canonical_json(extremal_doc(construct_extremal_int(3))))
        doc["triple"][0] = 11
        assert verify_doc(doc) is False


class TestNumfieldRoundTrip:
    def test_pipeline_doc_verifies(self):
        K = QuadField(-7)
        cert = numfield_pipeline(K, K.omega, n=3)
        doc = numfield_doc(cert)
        assert verify_doc(doc) is True

    def test_json_cycle(self):
        K = QuadField(-7)
        doc = numfield_doc(numfield_pipeline(K, K.omega, n=3))
        assert verify_doc(parse_json(canonical_json(doc))) is True

    def test_corrupt_matrix_fails(self):
        K = QuadField(-7)
        doc = json.loads(canonical_json(numfield_doc(numfield_pipeline(K, K.omega, n=3))))
        doc["matrix"][0][0] += 1
        assert verify_doc(doc) is False

    def test_corrupt_alpha_fails(self):
        K = QuadField(-7)
        doc = json.loads(canonical_json(numfield_doc(numfield_pipeline(K, K.omega, n=3))))
        doc["alpha"] = "1+w"
        assert verify_doc(doc) is False

    def test_no_permutations_fails(self):
        # a zero matrix fixes any vector with alpha = 0, but the split of a
        # certificate has n - 1 >= 1 permutations
        doc = {"kind": "numfield", "m": -1, "omega": "sqrt", "alpha": "0", "n": 1,
               "matrix": [[0, 0], [0, 0]], "permutations": [],
               "eigenvector": ["1", "0"]}
        assert verify_doc(doc) is False

    def test_wrong_omega_label_fails(self):
        K = QuadField(-7)
        doc = json.loads(canonical_json(numfield_doc(numfield_pipeline(K, K.omega, n=3))))
        doc["omega"] = "sqrt"
        assert verify_doc(doc) is False


def _witness_docs():
    F3 = FieldParams(3)
    int_b = BalancedMultiset.make((1, 1, -2), [(1, 1, 1), (2, 2, 2)])
    a3 = CoeffTuple.make(F3, [parse_poly(F3, s) for s in ("2", "t", "2*t+1")])
    return [
        pytest.param(fqt_doc(N=2, kind="balanced"), id="fqt-q2-balanced"),
        pytest.param(fqt_doc(N=2, kind="certificate"), id="fqt-q2-certificate"),
        pytest.param(multiset_doc(balanced_multiset(a3, 2), kind="certificate", N=2),
                     id="fqt-q3-certificate"),
        pytest.param(multiset_doc(int_b, kind="balanced"), id="int-balanced"),
        pytest.param(numfield_doc(numfield_pipeline(QuadField(-7), QuadField(-7).omega, n=3)),
                     id="numfield-m-7"),
        pytest.param(numfield_doc(numfield_pipeline(QuadField(-1), QuadField(-1).omega, n=4)),
                     id="numfield-m-1-n4"),
    ]


def _shifted(doc, value):
    """value plus one, in the ring of the document."""
    if doc["kind"] == "numfield":
        return format_quadint(parse_quadint(QuadField(doc["m"]), value) + 1)
    if doc["ring"] == "int":
        return value + 1
    field = FieldParams(doc["q"])
    return str(parse_poly(field, value) + field.one)


def _single_field_tampers(doc):
    """Every one-field edit of each kind the witness checks must catch."""
    if doc["kind"] == "numfield":
        bad = json.loads(canonical_json(doc))
        bad["alpha"] = _shifted(doc, doc["alpha"])
        yield "alpha", bad
        for k, value in enumerate(doc["eigenvector"]):
            bad = json.loads(canonical_json(doc))
            bad["eigenvector"][k] = _shifted(doc, value)
            yield f"eigenvector[{k}]", bad
    else:
        bad = json.loads(canonical_json(doc))
        bad["n"] = doc["n"] + 1
        yield "n", bad
        for k, value in enumerate(doc["kernel_vector"]):
            bad = json.loads(canonical_json(doc))
            bad["kernel_vector"][k] = _shifted(doc, value)
            yield f"kernel_vector[{k}]", bad
        for r, row in enumerate(doc["tuples"]):
            for i, value in enumerate(row):
                bad = json.loads(canonical_json(doc))
                bad["tuples"][r][i] = _shifted(doc, value)
                yield f"tuples[{r}][{i}]", bad
    for i, perm in enumerate(doc["permutations"]):
        for k in range(len(perm) - 1):
            bad = json.loads(canonical_json(doc))
            row = bad["permutations"][i]
            row[k], row[k + 1] = row[k + 1], row[k]
            yield f"permutations[{i}] swap {k}", bad


class TestWitnessTampers:
    @pytest.mark.parametrize("doc", _witness_docs())
    def test_every_single_field_tamper_fails(self, doc):
        assert verify_doc(parse_json(canonical_json(doc))) is True
        tampers = list(_single_field_tampers(doc))
        assert tampers
        for label, bad in tampers:
            assert verify_doc(bad) is False, label


class TestCsvTable:
    def test_layout(self):
        text = csv_table(["a", "b"], [[1, 2], ["x,y", "z"]])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"
        assert '"x,y"' in lines[2]


@pytest.mark.parametrize("collecting", [True, False])
def test_certify_path_pauses_the_cycle_collector(monkeypatch, collecting):
    # balanced_multiset, multiset_doc and canonical_json each run with the
    # collector paused, and leave it as they found it
    import gc

    from smyth import core, serialize

    seen = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: seen.append((name, gc.isenabled())) or real(*args))

    spy(core, "_balanced")
    spy(serialize, "certificate_from_balanced")
    spy(serialize, "_indented")
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        b = balanced_multiset(CoeffTuple.make(FieldParams(2), ["1", "t", "t+1"]), 2)
        canonical_json(multiset_doc(b, kind="certificate", N=2))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert {name for name, _ in seen} == {"_balanced", "certificate_from_balanced", "_indented"}
    assert not any(enabled for _, enabled in seen)
