import contextlib
import hashlib
import json
import math
from fractions import Fraction
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from euciso import catalog, io
from euciso.cli import main
from euciso.dual import enumerate_dual
from euciso.errors import EucisoError
from euciso.fourier import PeriodicFunction, transform

from conftest import (quotient, reference_json, save_spec, spec_to_dict, table_from_dict_oracle,
                      time_limit)
from test_cli import ENTRY_KEYS, NON_INTEGERS_OR_BAD_SHAPES, TABLE_DAMAGE, pg_file

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e300, -1e300, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
numpy_scalars = (st.builds(np.float64, floats) | st.builds(np.float32, st.floats(width=32))
                 | st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
                 | st.builds(np.bool_, st.booleans()))
scalars = (st.none() | st.booleans() | st.integers() | floats | st.text()
           | st.fractions() | numpy_scalars)
# rectangular float lists, empty sides included, and ints or bools mixed into them
blocks = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
                    elements=floats).map(lambda a: a.tolist())
mixed = st.lists(floats | st.integers() | st.booleans(), min_size=1)
# ndarrays as table entries reach the writer: float64 ones, 0-d and empty
# sides included, and others that json meets through their tolist()
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
arrays = (hnp.arrays(np.float64, shapes, elements=floats)
          | hnp.arrays(st.sampled_from([np.int64, np.bool_, np.float32, np.complex128]), shapes))
keys = st.text() | st.integers() | st.booleans() | floats | st.none() | st.fractions()


def payloads(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(keys, children, max_size=4)
            | st.dictionaries(st.text(), children, max_size=4))


def outcome(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(st.recursive(scalars | blocks | mixed | arrays, payloads, max_leaves=20))
@example([[[-0.0, 5e-324], [1e16, 1e300]], [[math.nan, math.inf], [-math.inf, 0.5]]])
@example({"é☃": [(1.0, 2.0), [3.0, 4.0]], "a": [[1.0, 2], [True, 3.0]], "b": [[1.0], [2.0, 3.0]]})
@example({1: [[]], True: [[], []], 2.5: (), False: {}})
@example([Fraction(-3, 4), np.float32(0.1), np.int64(-7), np.bool_(False), np.float64(-0.0)])
@example({"value": np.array([[[-0.0, 5e-324], [1e16, 1e300]]]), "n": [np.array(0.5)],
          "bad": [np.array([[math.nan, 1.0]]), np.array([math.inf, -math.inf]), np.array(-0.0)]})
@example([np.zeros((0, 3)), np.zeros((2, 0)), np.zeros(0), {"a": np.ones((1, 1, 1))}])
@example([np.arange(6).reshape(2, 3), np.array([1 + 2j]), np.array([], dtype=complex)])
# the document is formatted once, so every literal % must come out as itself
@example({"%": "%s", "%%": [np.array([[0.5, -0.0], [1e-05, 2.5]]), "%(x)s"],
          "%(x)s": np.array([1e16, math.nan]), "a%sb": ["100%", "%%s", 3]})
@example({"%s": "%%", "%(x)s": ["%", "%(x)s", 1.5, None], "%%": {"%": "%d%s%%"}})
@example([np.ones(2), "%s%s", {"%": np.zeros(1)}])
@example("%(x)s%%s%")
def test_canonical_json_is_json_dumps(obj):
    assert outcome(io.canonical_json, obj) == outcome(reference_json, obj)


# every catalog group at m0 and 2 m0, of orders up to 512: between them,
# irreducibles of dims 1, 2, 4 and 8
CATALOG_LEVELS = [(name, k * catalog.CATALOG[name].expected["m0"])
                  for name in catalog.names() for k in (1, 2)]


def test_canonical_json_of_files_is_json_dumps():
    q = quotient("twistE8", 2)
    u = PeriodicFunction.random(q, (2, 3), np.random.default_rng(4))
    for payload in [io.function_to_dict(u), io.table_to_dict(transform(u)),
                    spec_to_dict(q.spec)]:
        assert io.canonical_json(payload) == reference_json(payload)
    rng = np.random.default_rng(5)
    for name, N in CATALOG_LEVELS:
        table = transform(PeriodicFunction.random(quotient(name, N), (2, 3), rng))
        payload = io.table_to_dict(table)
        # each value is a row of its stack's one pair view, not a copy
        assert all(np.shares_memory(e["value"], table.stacks[e["dim"]])
                   for e in payload["entries"]), (name, N)
        assert io.canonical_json(payload) == reference_json(payload), (name, N)


def test_positional_and_exponent_bands_are_rewritten():
    # orjson writes 1.5e-05 as 0.000015 and 9.99e-06 as 9.99e-6, and 1e+16 as 1e16
    doc = np.array([1.5e-05, -1e-05, 3.827622265588717e-05, 9.99e-06, 1e16, -1.2345e16])
    assert io.canonical_json(doc) == reference_json(doc)
    assert io.canonical_json(doc.tolist()) == reference_json(doc.tolist())


# where orjson's text and repr's part ways, and the extremes of float64
BOUNDARY_FLOATS = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(1e-4, 0), 1e-4, -1e-4,
                   np.nextafter(1e16, 0), 1e16, -1e16, 1.7976931348623157e308,
                   -1.7976931348623157e308, 2.2250738585072014e-308, math.nan,
                   math.inf, -math.inf]


def test_float_text_at_scale():
    # 200k random bit patterns (subnormals, NaNs with payloads and huge and
    # tiny exponents among them) and 40k floats between 1e-4 and 1e16, where
    # orjson's own text is kept, in three parts, each led by the boundaries.
    # One part is a (k,) block and one an (a, b, 2) block at level 0; the
    # third is cut into blocks of both shapes at level 3
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
    mid = np.copysign(10.0 ** rng.uniform(-4, 16, 40_000), rng.uniform(-1, 1, 40_000))
    edges = np.array(BOUNDARY_FLOATS * 5)
    flat, pairs, rest = (np.concatenate([edges, part])
                         for part in np.split(np.concatenate([bits, mid]), 3))
    assert np.isnan(bits).sum() > 50 and (np.abs(bits) < 2.2250738585072014e-308).sum() > 50
    nested = [[[chunk.reshape(2, 5, 2) if i % 2 else chunk
                for i, chunk in enumerate(np.split(rest, len(rest) // 20))]]]
    for doc in [flat, pairs.reshape(-1, 5, 2), nested]:
        assert io.canonical_json(doc) == reference_json(doc)


@pytest.mark.parametrize("scale", [1e-7, 1e17])
def test_files_whose_floats_are_all_rewritten(scale):
    # a function file and a twistE8 N=4 table of 3x3 values, scaled so that
    # the largest float reads 1e-7 or the smallest nonzero one 1e17: json
    # writes every nonzero float in exponent form, so each is rewritten from
    # orjson's text, and both files still read back bit for bit
    q = quotient("twistE8", 4)
    u = PeriodicFunction.random(q, (3, 3), np.random.default_rng(22))
    table = transform(u)
    floats = np.abs(np.concatenate([u.values.view(float).ravel()]
                                   + [e.view(float).ravel() for e in table.entries.values()]))
    scale /= floats.max() if scale < 1 else floats[floats > 0].min()
    u.values *= scale
    for entry in table.entries.values():
        entry *= scale
    floats *= scale
    assert ((floats < 1e-4) | (floats >= 1e16) | (floats == 0)).all()
    data = io.function_to_dict(u)
    text = io.canonical_json(data)
    assert text == reference_json(data)
    assert io.function_from_dict(json.loads(text), q).values.tobytes() == u.values.tobytes()
    data = io.table_to_dict(table)
    text = io.canonical_json(data)
    assert text == reference_json(data)
    back = io.table_from_dict(json.loads(text), q)
    assert sorted(back.entries) == sorted(table.entries)
    assert all(back.entries[i].tobytes() == table.entries[i].tobytes() for i in table.entries)


def test_table_entries_in_any_file_order_read_back_bit_for_bit():
    q = quotient("twistE8", 2)
    table = transform(PeriodicFunction.random(q, (2, 3), np.random.default_rng(26)))
    data = json.loads(io.canonical_json(io.table_to_dict(table)))
    np.random.default_rng(0).shuffle(data["entries"])
    assert [e["irrep"] for e in data["entries"]] != list(range(len(table.atlas.dims)))
    back = io.table_from_dict(data, q)
    assert list(back.stacks) == list(table.stacks)
    assert all(back.stacks[d].tobytes() == table.stacks[d].tobytes() for d in table.stacks)
    assert io.canonical_json(io.table_to_dict(back)) == io.canonical_json(io.table_to_dict(table))


def test_the_catalog_levels_hold_dims_1_2_and_4():
    dims = {d for name, N in CATALOG_LEVELS
            for d in enumerate_dual(catalog.get(name), N).dims}
    assert {1, 2, 4} <= dims


def read_alike(data, q):
    """The table the stack reader and the per-entry oracle read from data,
    once its stacks are checked bit for bit against each other's."""
    got, want = io.table_from_dict(data, q), table_from_dict_oracle(data, q)
    assert list(got.stacks) == list(want.stacks)
    for d, stack in got.stacks.items():
        assert stack.dtype == want.stacks[d].dtype and stack.shape == want.stacks[d].shape
        assert stack.tobytes() == want.stacks[d].tobytes()
    return got


@pytest.mark.parametrize("name, N", CATALOG_LEVELS)
@pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
def test_the_table_reader_equals_the_per_entry_oracle(name, N, shape):
    # the file as json reads it, its entries shuffled, table_to_dict's own
    # dict (values are arrays) and that dict with np.int64 dims
    q = quotient(name, N)
    table = transform(PeriodicFunction.random(q, shape, np.random.default_rng(N)))
    own = io.table_to_dict(table)
    data = json.loads(io.canonical_json(own))
    order = np.random.default_rng(1).permutation(len(data["entries"]))
    shuffled = dict(data, entries=[data["entries"][k] for k in order])
    wide = dict(own, entries=[dict(e, dim=np.int64(e["dim"])) for e in own["entries"]])
    for doc in [data, shuffled, own, wide]:
        back = read_alike(doc, q)
        assert list(back.stacks) == list(table.stacks)
        assert all(back.stacks[d].tobytes() == table.stacks[d].tobytes() for d in table.stacks)


def first_dim_2(entries):
    return next(k for k, e in enumerate(entries) if e["dim"] == 2)


def set_field(key, value):
    """Set key of a table file, or of its first entry, to value."""
    return lambda data: (data["entries"][0] if key in ENTRY_KEYS else data).__setitem__(key, value)


# the damage the CLI tests refuse a pg N=3 table file for, a bool or float
# irrep, and each table row of its non-integer and bad-shape cases
NON_FINITE_DAMAGE = ["nan-number", "infinite-number", "int-past-float-range"]
FINITE_DAMAGE = [name for name in TABLE_DAMAGE if name not in NON_FINITE_DAMAGE]
TABLE_REFUSALS = {
    **{name: lambda data, change=TABLE_DAMAGE[name][0]: change(data["entries"],
                                                               first_dim_2(data["entries"]))
       for name in FINITE_DAMAGE},
    **{f"irrep-{value!r}": set_field("irrep", value) for value in (True, False, 0.7, 1.0)},
    **{f"{key}-{value!r}": set_field(key, value)
       for kind, key, value in NON_INTEGERS_OR_BAD_SHAPES if kind == "table"},
}


def refusal(read, data, q):
    """The type and message of the exception read(data, q) raises, or None."""
    try:
        read(data, q)
    except (KeyError, TypeError, ValueError, EucisoError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", list(TABLE_REFUSALS))
def test_both_table_readers_refuse_a_damaged_file_alike(case):
    q, data = quotient("pg", 3), pg_file("table")
    TABLE_REFUSALS[case](data)
    want = refusal(table_from_dict_oracle, data, q)
    assert want is not None
    assert refusal(io.table_from_dict, data, q) == want


@pytest.mark.parametrize("damage", NON_FINITE_DAMAGE)
def test_only_the_stack_reader_refuses_non_finite_numbers(damage):
    # the oracle reads a NaN or an infinity, and overflows on an int past
    # float's range
    q, data = quotient("pg", 3), pg_file("table")
    TABLE_DAMAGE[damage][0](data["entries"], first_dim_2(data["entries"]))
    try:
        read = table_from_dict_oracle(data, q)
        assert not all(np.isfinite(stack).all() for stack in read.stacks.values())
    except OverflowError:
        assert damage == "int-past-float-range"
    got = refusal(io.table_from_dict, data, q)
    assert got[0] is ValueError and "must hold finite numbers" in got[1]


# sha256 of canonical_json(spec_to_dict(s)) for each catalog group, recorded
# while spec dicts still held their q blocks and kernels as nested lists
PINNED_SPEC_DIGESTS = {
    "p1": "ed3fab521dd6b351393947ff25fb9d5c0d7636b0dc53e55d614fa881d1315d4c",
    "pm": "38494ea4d33c3df0523603bd10156d89b8e1355aa5d637fdf0b54ef86e44d16d",
    "pg": "4384d6b4338a952755bae9faeee975189fe8b18cf5b5a58c69d16478b03509f3",
    "screw-C4": "4895ec751a0e115291c33032cf9d3a4ef90a7d64bca8142577f83707fbd41649",
    "helix-C3": "2bb0c3bc53518d09544fcd4345a2dd5655b5f8af0852d8f74c1cadc13ff5af3a",
    "helix-C3-tf": "5632fc6456e1453d3b0724883b0503e84d16e7142a6ca430031c5dc0b317c2fb",
    "twistE8": "974fb0f9d1fc7d09dcaea3aa430f0f5cc63df486859e1de028c731510e6b58c3",
    "twistE8-m4": "9f4da87223f07c70bd36b532ead577d24acc2aa6de546738ff5e3c621764d4f3",
}


@pytest.mark.parametrize("name", list(PINNED_SPEC_DIGESTS))
def test_pinned_spec_bytes(name, tmp_path):
    text = io.canonical_json(spec_to_dict(catalog.CATALOG[name].build()))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SPEC_DIGESTS[name]
    path = tmp_path / "spec.json"
    path.write_text(text)
    again = tmp_path / "again.json"
    save_spec(io.load_spec(str(path)), str(again))
    assert again.read_text() == text


SPEC_DOCUMENTS = {name: io.canonical_json(spec_to_dict(catalog.get(name)))
                  for name in catalog.names()}
LEAF_VALUES = [True, False, None, "x", 1.5, -1, "1/0", 2 ** 70]


def mutation_paths(doc, path=()):
    """("set", path) for every leaf of a JSON document and ("del", path) for
    every key of its objects."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield "del", path + (key,)
            yield from mutation_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from mutation_paths(value, path + (i,))
    else:
        yield "set", path


def mutation_kinds():
    """Every catalog document's mutations by kind: (name, action, path with
    its list indices as "*") mapped to the concrete paths.  Drawing the kind
    first gives the few integer fields as much weight as the many floats."""
    kinds = {}
    for name, text in SPEC_DOCUMENTS.items():
        for action, path in mutation_paths(json.loads(text)):
            pattern = tuple("*" if isinstance(key, int) else key for key in path)
            kinds.setdefault((name, action, pattern), []).append(path)
    return kinds


MUTATION_KINDS = mutation_kinds()


# the examples once hung (a d2 past the file's lists) or crashed with an
# OverflowError (entries past int64)
@settings(max_examples=120)
@example(kind=("pg", "set", ("d2",)), at=0, value=2 ** 70)
@example(kind=("p1", "set", ("p_reps", "*", "tau", "*")), at=0, value=2 ** 70)
@example(kind=("pg", "set", ("p_reps", "*", "p", "*", "*")), at=5, value=2 ** 70)
@given(kind=st.sampled_from(sorted(MUTATION_KINDS)), at=st.integers(0, 999),
       value=st.sampled_from(LEAF_VALUES))
def test_a_mutated_spec_document_loads_as_itself_or_exits_2(tmp_path_factory, kind, at, value):
    name, action, _ = kind
    paths = MUTATION_KINDS[kind]
    path = paths[at % len(paths)]
    doc = json.loads(SPEC_DOCUMENTS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "del":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    file = tmp_path_factory.getbasetemp() / "mutated-spec.json"
    file.write_text(json.dumps(doc))
    with time_limit(5.0), contextlib.redirect_stdout(StringIO()), \
            contextlib.redirect_stderr(StringIO()):
        code = main(["analyze", str(file)])
    assert code in (0, 2), (name, path)
    if code == 0:
        text = io.canonical_json(spec_to_dict(io.spec_from_dict(doc)))
        assert io.canonical_json(spec_to_dict(io.spec_from_dict(json.loads(text)))) == text
