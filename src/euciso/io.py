"""JSON formats: group specs, function files, Fourier tables, reports.

Rationals travel as "p/q" strings, complexes as [re, im] pairs, matrices
as row-major nested lists.  Serialization is canonical, so equal inputs
and seeds give byte-identical output: the bytes are those of `json.dumps`
with `sort_keys` and `indent=1`.  `canonical_json` writes them itself,
because nearly all of a file's time would go to formatting floats one at a
time.  It also takes numpy arrays, as json.dumps does through `_coerce`
(their `tolist()`): every float block the writers produce (a spec's q
blocks, a function value, a table entry as [re, im] pairs) reaches it as a
float64 array, and any non-empty float64 array is a block.  The floats of
all of a document's blocks are formatted in one orjson (Ryu) pass, and only
those whose text orjson writes otherwise than json (0 < |x| < 1e-4, |x| from
1e16 up, NaN and infinities) are rewritten.  The mask that picks those is
computed before the orjson pass, which otherwise runs several times slower
right after a transform (see `canonical_json`).  The document is then
formatted in one step, its floats' text filling the fields its walk left.

A function file is written with one entry per element, in id order; a
reader takes any subset of the elements, each at most once, and sets the
others to zero.  An entry's exponents may be integers of any size: each is
reduced mod N as a Python int before the quotient encodes it.

A Fourier table records the seed and the fingerprint of the atlas basis it
was computed in and is read back only in that basis.  Its file holds one
entry per irreducible, in basis order, and a reader takes them in any
order.  Both sides handle a table as its dimension stacks: the writer's
entry values are rows of one [re, im] view per stack, and the reader fills
each dimension's stack with one pass over its values' numbers, so a table
file that misses an irreducible is refused (IncompleteTable).

The readers refuse a count, index, size, dimension or point part entry
that is not an integer; a tolerance, q block, F entry or number of a
function value that is not a finite number (a bool or a string is not
one); a number of a table value that is not finite (NaN, an infinity or an
int past float's range; bools and numeric strings are still read there as
numbers); a translation part that is neither an integer nor a "p/q"
string; a tolerance that is not positive; and a spec whose d2 is not the
number of its t_lifts and the size of every point part (or that has no
p_reps).
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import chain

import numpy as np
import orjson

from .dual import enumerate_dual
from .errors import CapExceeded, EucisoError, IncompatibleShapes, IncompleteTable
from .groups import DEFAULT_CAP, GroupSpec, QuotientGroup
from .isometry import DEFAULT_TOL, Isometry
from .fourier import FourierTable, PeriodicFunction

_encode_str = json.encoder.encode_basestring_ascii


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def json_int(value, what: str, least: int | None = None) -> int:
    """An integer field of a spec, function or table file; ValueError for a float,
    a bool, a string or anything else, or for a value below `least`."""
    if type(value) is int and (least is None or value >= least):     # the common case
        return value
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, not {value!r}")
    return int(value)


def json_float(value, what: str) -> float:
    """A float field of a spec file: a finite int or float; ValueError for a
    bool, a string, NaN, an infinity or anything else."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:   # an int past float's range
            pass
    raise ValueError(f"{what} must be a finite number, not {value!r}")


def json_fraction(value, what: str) -> Fraction:
    """A rational field of a spec file: an int or a "p/q" string; ValueError
    for a bool, a float or anything else."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f'{what} must be an integer or a "p/q" string, not {value!r}')


def json_float_block(value, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """Nested lists of finite numbers (each checked by `json_float`) as a
    float array of this shape."""
    leaves = np.array(value, dtype=object).ravel()
    return np.array([json_float(x, what) for x in leaves], dtype=float).reshape(shape)


def complex_pairs(m: np.ndarray) -> np.ndarray:
    """A complex matrix, or a stack of them, as a float array of [re, im] pairs."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2)


# -- group specs ---------------------------------------------------------------

def spec_to_dict(spec: GroupSpec) -> dict:
    return {
        "name": spec.name,
        "d1": spec.d1,
        "d2": spec.d2,
        "tol": spec.tol,
        "f_elements": list(spec.f_elements),
        "t_lifts": [{"q": g.q} for g in spec.t_lifts],
        "p_reps": [{
            "q": g.q,
            "p": [list(row) for row in g.p],
            "tau": [format_fraction(t) for t in g.tau],
        } for g in spec.p_reps],
    }


def spec_from_dict(data: dict) -> GroupSpec:
    try:
        d1, d2 = json_int(data["d1"], "d1", 0), json_int(data["d2"], "d2", 0)
        tol = json_float(data.get("tol", DEFAULT_TOL), "tol")
        if tol <= 0:
            raise ValueError(f"tol must be positive, not {tol!r}")
        f_elements = [json_float_block(f, "an F entry", (d1, d1)) for f in data["f_elements"]]
        # d2 is checked against the file's lists before the lifts' d2 x d2
        # identity is built, so its size is bounded by a point part's
        lifts, reps = data["t_lifts"], data["p_reps"]
        if len(lifts) != d2:
            raise ValueError(f"d2 is {d2}, but the file has {len(lifts)} t_lifts")
        if not reps or any(len(e["p"]) != d2 or any(len(row) != d2 for row in e["p"])
                           for e in reps):
            raise ValueError(f"p_reps must be a non-empty list of {d2} x {d2} point parts")
        ident_p = tuple(tuple(int(i == j) for j in range(d2)) for i in range(d2))
        t_lifts = []
        for i, entry in enumerate(lifts):
            tau = tuple(Fraction(int(i == j)) for j in range(d2))
            t_lifts.append(Isometry(json_float_block(entry["q"], "a q block entry", (d1, d1)),
                                    ident_p, tau))
        p_reps = []
        for entry in reps:
            p_reps.append(Isometry(
                json_float_block(entry["q"], "a q block entry", (d1, d1)),
                [[json_int(x, "a point part entry") for x in row] for row in entry["p"]],
                [json_fraction(t, "a translation part entry") for t in entry["tau"]]))
        return GroupSpec(str(data["name"]), d1, d2, f_elements, t_lifts, p_reps,
                         tol=tol)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise EucisoError(f"malformed group spec: {exc}") from exc


def load_spec(path: str) -> GroupSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def save_spec(spec: GroupSpec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(spec_to_dict(spec)))


# -- periodic functions ---------------------------------------------------------

def _header(data: dict, q: QuotientGroup, kind: str) -> tuple[int, int]:
    """The (m, n) shape of a function or table file, once its group and
    period are checked against q.  CapExceeded, before anything is allocated,
    for more values |G| m n than the largest table's DEFAULT_CAP^2 entries."""
    if data.get("group") not in (None, q.spec.name):
        raise IncompatibleShapes(
            f"{kind} file is for group {data.get('group')!r}, not {q.spec.name!r}")
    if json_int(data["N"], "N", 1) != q.N:
        raise IncompatibleShapes(f"{kind} period {data['N']} != quotient N {q.N}")
    shape = data["shape"]
    if not isinstance(shape, (list, tuple)) or len(shape) != 2:
        raise ValueError(f"shape must be two positive integers, not {shape!r}")
    m, n = json_int(shape[0], "shape", 1), json_int(shape[1], "shape", 1)
    if q.order * m * n > DEFAULT_CAP ** 2:
        raise CapExceeded(f"{kind} shape ({m}, {n}) on {q.order} elements > DEFAULT_CAP^2 values")
    return m, n


def function_to_dict(u: PeriodicFunction) -> dict:
    n, f, p = u.q.parts(u.q.elements)
    entries = [{"n": ni, "f": fi, "p": pi, "value": value} for ni, fi, pi, value
               in zip(n.tolist(), f.tolist(), p.tolist(), complex_pairs(u.values))]
    return {"group": u.q.spec.name, "N": u.q.N,
            "shape": [u.shape[0], u.shape[1]], "entries": entries}


def function_from_dict(data: dict, q: QuotientGroup) -> PeriodicFunction:
    """The function a file holds.  Each value must be a rectangular matrix of
    [re, im] pairs of the file's shape, each number finite and neither a bool
    nor a string (`json_float_block`); signed zeros are kept.  Every entry's
    element is checked before any value is read, by one `QuotientGroup.ids`
    call, so a file with several faults may report a later one first."""
    shape = _header(data, q, "function")
    u = PeriodicFunction(q, shape)
    entries = data["entries"]
    exponents = [[json_int(x, "n") % q.N for x in entry["n"]] for entry in entries]
    ids = q.ids(np.array(exponents, dtype=np.int64).reshape(len(entries), q.spec.d2),
                [json_int(entry["f"], "f") for entry in entries],
                [json_int(entry["p"], "p") for entry in entries])
    seen = np.zeros(q.order, dtype=bool)
    for i, entry in zip(ids.tolist(), entries):
        if seen[i]:
            n, f, p = q.parts(i)
            raise ValueError(f"two entries name element {i} (n, f, p = {n.tolist()}, {f}, {p})")
        seen[i] = True
        got = _pairs_shape(entry["value"])
        if got != shape:
            raise IncompatibleShapes(f"value shape {got} != {shape}")
        pairs = json_float_block(entry["value"], "a function value", (*shape, 2))
        u[i] = pairs.view(complex)[..., 0]
    return u


def table_to_dict(t: FourierTable) -> dict:
    """A table's file as a dict: its entries in basis order, each value a row
    of its dimension stack's one [re, im] pair view (`complex_pairs`), so the
    writer reads the stacks' own memory."""
    values = [value for d in t.atlas.stacks for value in complex_pairs(t.stacks[d])]
    entries = [{"irrep": i, "dim": d, "value": value}
               for i, (d, value) in enumerate(zip(t.atlas.dims, values))]
    return {
        "group": t.q.spec.name,
        "N": t.q.N,
        "shape": [t.shape[0], t.shape[1]],
        "seed": t.atlas.seed,
        "basis": t.atlas.basis,
        "entries": entries,
    }


def table_from_dict(data: dict, q: QuotientGroup) -> FourierTable:
    """The table a file holds.  One pass over the entries checks each irrep
    and dim.  Each dimension's values are then checked with one `len` pass
    per nesting level over the whole stack, filled into it with one
    `fromiter`, and refused (ValueError) unless every number is finite.
    Only when a check fails are entries walked one at a time (`_check_entry`),
    a stack's in basis order, to name the first bad one.  So a file with one
    fault gets the exception and message of a reader that checks each entry
    in turn; of several faults, another may be the one reported."""
    shape = _header(data, q, "table")
    atlas = enumerate_dual(q.spec, q.N, json_int(data.get("seed", 0), "seed", 0))
    if data.get("basis") != atlas.basis:
        raise IncompatibleShapes("table was computed in another irreducible basis "
                                 "(missing or different \"basis\" fingerprint)")
    m, n = shape
    dims = atlas.dims
    entries: list = [None] * len(dims)
    for entry in data["entries"]:
        i = json_int(entry["irrep"], "irrep")
        if not 0 <= i < len(dims):
            raise IncompatibleShapes(f"irrep {i} out of range: the quotient has {len(dims)}")
        if entries[i] is not None:
            raise IncompatibleShapes(f"irrep {i} has two entries")
        entries[i] = entry
        if type(dim := entry["dim"]) is not int or dim != dims[i]:
            _check_entry(i, entry, dims[i], shape)
    missing = [i for i, entry in enumerate(entries) if entry is None]
    if missing:
        raise IncompleteTable(f"table does not cover every irreducible: irrep "
                              f"{missing[0]} has no entry")
    stacks, start = {}, 0
    for d, stack in atlas.stacks.items():
        idx = range(start, start + stack.shape[1])
        start = idx.stop
        pairs = _nested_pairs([entries[i]["value"] for i in idx], (m * d, n * d))
        if pairs is None:
            for i in idx:       # raises at the first bad entry
                _check_entry(i, entries[i], d, shape)
        try:
            flat = np.fromiter(chain.from_iterable(pairs), float, len(idx) * m * d * n * d * 2)
        except OverflowError as exc:    # an int past float's range
            raise ValueError(f"a table value must hold finite numbers: {exc}") from exc
        finite = np.isfinite(flat)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"a table value must hold finite numbers: irrep "
                             f"{idx[k // (m * d * n * d * 2)]} holds {float(flat[k])!r}")
        stacks[d] = flat.view(complex).reshape(len(idx), m * d, n * d)
    return FourierTable(atlas, shape, stacks)


def _nested_pairs(values: list, widths: tuple[int, int]) -> list | None:
    """The [re, im] pairs of these values, which must be matrices of pairs
    with these many rows and columns, in order: one `len` pass per nesting
    level over all of them.  None if a length is wrong or a leaf has none."""
    level = values
    try:
        for width in widths:
            if set(map(len, level)) != {width}:
                return None
            level = list(chain.from_iterable(level))
        return level if set(map(len, level)) == {2} else None
    except TypeError:
        return None


def _check_entry(i: int, entry: dict, d: int, shape: tuple[int, int]) -> None:
    """Refuse a table entry whose value is not a (m d, n d) matrix of pairs
    or whose dim is not d: ValueError (TypeError for a leaf that has no
    length) for a value that is not a rectangular matrix of pairs, and
    IncompatibleShapes for a matrix of another shape or another dim."""
    got = _pairs_shape(entry["value"])
    if json_int(entry["dim"], "dim") != d or got != (shape[0] * d, shape[1] * d):
        raise IncompatibleShapes(f"irrep {i} has dim {d}, but its entry gives dim "
                                 f"{entry['dim']} and a {got} value")


def _pairs_shape(rows) -> tuple[int, int]:
    """The (rows, columns) of a non-empty rectangular matrix of pairs;
    ValueError (TypeError for a leaf that has no length) for anything else."""
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths or set(map(len, chain.from_iterable(rows))) != {2}:
        raise ValueError("a value must be a rectangular matrix of [re, im] pairs")
    return len(rows), widths.pop()


def _coerce(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def canonical_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=1,
    separators=(",", ": "), default=_coerce) plus a newline, written by
    json's own rules, except that each non-empty float64 array is written as
    one block.  The walk writes the document as one %-format string: each
    block is a template with a %s field for each of its floats, and every
    literal % of a string or key is written as %%.  The floats of all blocks
    are formatted in one orjson pass, whose shortest digits are repr's but
    not always its notation, and the document is then formatted with them in
    one step.  repr writes 0 < |x| < 1e-4 in exponent form, where orjson
    writes 1e-5 <= |x| < 1e-4 positionally (0.000015 for 1.5e-05) and
    smaller ones as 9.99e-6 for 9.99e-06; it writes 1e16 for 1e+16, and null
    for a non-finite float where json writes NaN or Infinity.  So the floats
    with 0 < |x| < 1e-4, |x| >= 1e16 or no finite value are rewritten by
    json's rules, and the rest keep orjson's text.

    The rewrite mask is computed before orjson formats the floats, not
    after.  A complex matrix product (an OpenBLAS zgemm, as in `transform`)
    can leave the CPU's upper vector registers dirty, and orjson's float
    formatter, which is legacy SSE code, then runs about 6x slower; the
    mask's comparisons clear that state, where `np.abs` and
    `np.concatenate` alone do not."""
    out: list[str] = []
    blocks: list[np.ndarray] = []
    _write(obj, 0, out, blocks)
    out.append("\n")
    if not blocks:
        return "".join(out) % ()
    flat = np.concatenate(blocks, axis=None)
    magnitude = np.abs(flat)
    keep = (flat == 0) | (magnitude >= 1e-4) & (magnitude < 1e16)   # False for NaN
    rewrite = np.flatnonzero(~keep)
    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for k, x in zip(rewrite.tolist(), flat[rewrite].tolist()):
        text[k] = _scalar(x)
    return "".join(out) % tuple(text)


def _string(text: str) -> str:
    """json's text for a string, each % doubled for the document's one format step."""
    return _encode_str(text).replace("%", "%%")


def _write(obj, level: int, out: list[str], blocks: list[np.ndarray]) -> None:
    """Append obj's text at this indent level to `out`; a float block leaves
    a template in `out` and itself in `blocks`.  Exact dicts, lists, tuples,
    arrays and strings are dispatched on their type; anything else,
    subclasses included, goes by isinstance."""
    kind = type(obj)
    if kind is dict:
        _write_dict(obj, level, out, blocks)
    elif kind is list or kind is tuple:
        _write_list(obj, level, out, blocks)
    elif kind is np.ndarray:
        _write_array(obj, level, out, blocks)
    elif kind is str:
        out.append(_string(obj))
    elif (text := _string(obj) if isinstance(obj, str) else _scalar(obj)) is not None:
        out.append(text)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, level, out, blocks)
    elif isinstance(obj, np.ndarray):
        _write_array(obj, level, out, blocks)
    elif isinstance(obj, dict):
        _write_dict(obj, level, out, blocks)
    else:
        _write(_coerce(obj), level, out, blocks)


def _write_list(obj, level: int, out: list[str], blocks: list[np.ndarray]) -> None:
    if not obj:
        out.append("[]")
        return
    inner = _pad(level + 1)
    out.append("[" + inner)
    for i, value in enumerate(obj):
        if i:
            out.append("," + inner)
        _write(value, level + 1, out, blocks)
    out.append(_pad(level) + "]")


def _write_array(obj: np.ndarray, level: int, out: list[str], blocks: list[np.ndarray]) -> None:
    if obj.dtype == np.float64 and obj.ndim and obj.size:
        blocks.append(obj)
        out.append(_block_template(obj.shape, level))
    else:
        _write(obj.tolist(), level, out, blocks)


def _write_dict(obj, level: int, out: list[str], blocks: list[np.ndarray]) -> None:
    """A dict's exact int and str values are written with their key and its
    arrays go straight to `_write_array`: a table writes hundreds of such
    entry dicts.  The text from the previous item to a key's value is cached
    per key and level (`_key_head`)."""
    if not obj:
        out.append("{}")
        return
    for i, (key, value) in enumerate(sorted(obj.items())):
        key_text = key if isinstance(key, str) else _scalar(key)
        if key_text is None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        head = _key_head(key_text, level, i == 0)
        kind = type(value)
        if kind is int:
            out.append(head + int.__repr__(value))
        elif kind is str:
            out.append(head + _string(value))
        elif kind is np.ndarray:
            out.append(head)
            _write_array(value, level + 1, out, blocks)
        else:
            out.append(head)
            _write(value, level + 1, out, blocks)
    out.append(_pad(level) + "}")


@functools.lru_cache(maxsize=64)
def _pad(level: int) -> str:
    return "\n" + " " * level


@functools.lru_cache(maxsize=1024)
def _key_head(key: str, level: int, first: bool) -> str:
    """The text of a dict at this level from the end of the previous item (or
    the dict's opening) to this key's value."""
    return ("{" if first else ",") + _pad(level + 1) + _string(key) + ": "


def _scalar(obj) -> str | None:
    """json's text for None, a bool, an int or a float; None for other types."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    return None


@functools.lru_cache(maxsize=256)
def _block_template(shape: tuple[int, ...], level: int) -> str:
    """The text of a block of this shape at this indent level, with a %s
    field for each float's text: between two leaves, the j innermost lists
    that end are closed and as many opened."""
    k = len(shape)
    pad = ["\n" + " " * (level + t) for t in range(k + 1)]
    close = [pad[t] + "]" for t in range(k)]
    open_ = [pad[t] + "[" for t in range(k)]
    parts = ["%s"] * math.prod(shape)
    for j, width in enumerate(reversed(shape)):
        sep = "".join(close[k - 1:k - 1 - j:-1]) + "," + "".join(open_[k - j:k]) + pad[k]
        parts = list(map(sep.join, zip(*[iter(parts)] * width)))
    return "[" + "".join(open_[1:k]) + pad[k] + parts[0] + "".join(close[::-1])
