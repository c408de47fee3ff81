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
1e16 up, NaN and infinities) are rewritten.  A function
file is written with one entry per element, in id order; a reader takes
any subset of the elements, each at most once, and sets the others to
zero.  A Fourier table records the seed and the fingerprint of the atlas
basis it was computed in and is read back only in that basis.  The
readers refuse a count, index, size, dimension or point part entry that is
not an integer.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import numpy as np
import orjson

from .dual import enumerate_dual
from .errors import EucisoError, IncompatibleShapes
from .groups import GroupSpec, NormalForm, QuotientGroup
from .isometry import DEFAULT_TOL, Isometry
from .fourier import FourierTable, PeriodicFunction

_encode_str = json.encoder.encode_basestring_ascii


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def json_int(value, what: str, least: int | None = None) -> int:
    """An integer field of a spec, function or table file; ValueError for a float,
    a bool, a string or anything else, or for a value below `least`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, not {value!r}")
    return int(value)


def complex_pairs(m: np.ndarray) -> np.ndarray:
    """A complex matrix, or a stack of them, as a float array of [re, im] pairs."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2)


def complex_matrix_from_lists(rows) -> np.ndarray:
    """Rows of [re, im] pairs as a complex matrix, bit for bit (signed zeros too)."""
    pairs = np.array(rows, dtype=float)
    if pairs.ndim != 3 or pairs.shape[-1] != 2:
        raise ValueError(f"expected a matrix of [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(complex)[..., 0]


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
        tol = float(data.get("tol", DEFAULT_TOL))
        f_elements = [np.array(f, dtype=float).reshape(d1, d1)
                      for f in data["f_elements"]]
        ident_p = tuple(tuple(int(i == j) for j in range(d2)) for i in range(d2))
        t_lifts = []
        for i, entry in enumerate(data["t_lifts"]):
            tau = tuple(Fraction(int(i == j)) for j in range(d2))
            t_lifts.append(Isometry(np.array(entry["q"], dtype=float).reshape(d1, d1),
                                    ident_p, tau))
        p_reps = []
        for entry in data["p_reps"]:
            p_reps.append(Isometry(
                np.array(entry["q"], dtype=float).reshape(d1, d1),
                [[json_int(x, "a point part entry") for x in row] for row in entry["p"]],
                [parse_fraction(t) for t in entry["tau"]]))
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
    period are checked against q."""
    if data.get("group") not in (None, q.spec.name):
        raise IncompatibleShapes(
            f"{kind} file is for group {data.get('group')!r}, not {q.spec.name!r}")
    if json_int(data["N"], "N", 1) != q.N:
        raise IncompatibleShapes(f"{kind} period {data['N']} != quotient N {q.N}")
    shape = data["shape"]
    if not isinstance(shape, (list, tuple)) or len(shape) != 2:
        raise ValueError(f"shape must be two positive integers, not {shape!r}")
    return json_int(shape[0], "shape", 1), json_int(shape[1], "shape", 1)


def function_to_dict(u: PeriodicFunction) -> dict:
    n, f, p = u.q.parts(u.q.elements)
    entries = [{"n": ni, "f": fi, "p": pi, "value": value} for ni, fi, pi, value
               in zip(n.tolist(), f.tolist(), p.tolist(), complex_pairs(u.values))]
    return {"group": u.q.spec.name, "N": u.q.N,
            "shape": [u.shape[0], u.shape[1]], "entries": entries}


def function_from_dict(data: dict, q: QuotientGroup) -> PeriodicFunction:
    u = PeriodicFunction(q, _header(data, q, "function"))
    seen = set()
    for entry in data["entries"]:
        i = q.reduce(NormalForm(tuple(json_int(x, "n") for x in entry["n"]),
                                json_int(entry["f"], "f"), json_int(entry["p"], "p")))
        if i in seen:
            raise ValueError(f"two entries name element {i} (n, f, p = {q.nf(i)})")
        seen.add(i)
        u[i] = complex_matrix_from_lists(entry["value"])
    return u


def table_to_dict(t: FourierTable) -> dict:
    return {
        "group": t.q.spec.name,
        "N": t.q.N,
        "shape": [t.shape[0], t.shape[1]],
        "seed": t.atlas.seed,
        "basis": t.atlas.basis,
        "entries": [{"irrep": i, "dim": t.atlas.dims[i],
                     "value": complex_pairs(t.entries[i])}
                    for i in sorted(t.entries)],
    }


def table_from_dict(data: dict, q: QuotientGroup) -> FourierTable:
    shape = _header(data, q, "table")
    atlas = enumerate_dual(q.spec, q.N, json_int(data.get("seed", 0), "seed", 0))
    if data.get("basis") != atlas.basis:
        raise IncompatibleShapes("table was computed in another irreducible basis "
                                 "(missing or different \"basis\" fingerprint)")
    t = FourierTable(atlas, shape)
    m, n = shape
    for entry in data["entries"]:
        i = json_int(entry["irrep"], "irrep")
        if not 0 <= i < len(atlas.dims):
            raise IncompatibleShapes(f"irrep {i} out of range: the quotient has {len(atlas.dims)}")
        if i in t.entries:
            raise IncompatibleShapes(f"irrep {i} has two entries")
        d, value = atlas.dims[i], complex_matrix_from_lists(entry["value"])
        if json_int(entry["dim"], "dim") != d or value.shape != (m * d, n * d):
            raise IncompatibleShapes(f"irrep {i} has dim {d}, but its entry gives dim "
                                     f"{entry['dim']} and a {value.shape} value")
        t.entries[i] = value
    return t


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
    one block.  The walk leaves a template in `out` for each block; the
    floats of all blocks are then formatted in one orjson pass, whose
    shortest digits are repr's but not always its notation.  repr writes
    0 < |x| < 1e-4 in exponent form, where orjson writes 1e-5 <= |x| < 1e-4
    positionally (0.000015 for 1.5e-05) and smaller ones as 9.99e-6 for
    9.99e-06; it writes 1e16 for 1e+16, and null for a non-finite float
    where json writes NaN or Infinity.  So the floats with 0 < |x| < 1e-4,
    |x| >= 1e16 or no finite value are rewritten by json's rules, and the
    rest keep orjson's text."""
    out: list[str] = []
    blocks: list[tuple[int, np.ndarray]] = []
    _write(obj, 0, out, blocks)
    if blocks:
        flat = np.concatenate([block.ravel() for _, block in blocks])
        text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        magnitude = np.abs(flat)
        keep = (flat == 0) | (magnitude >= 1e-4) & (magnitude < 1e16)   # False for NaN
        rewrite = np.flatnonzero(~keep)
        for k, x in zip(rewrite.tolist(), flat[rewrite].tolist()):
            text[k] = _scalar(x)
        start = 0
        for i, block in blocks:
            out[i] %= tuple(text[start:start + block.size])
            start += block.size
    out.append("\n")
    return "".join(out)


def _write(obj, level: int, out: list[str], blocks: list[tuple[int, np.ndarray]]) -> None:
    text = _encode_str(obj) if isinstance(obj, str) else _scalar(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        else:
            inner = "\n" + " " * (level + 1)
            out.append("[" + inner)
            for i, value in enumerate(obj):
                if i:
                    out.append("," + inner)
                _write(value, level + 1, out, blocks)
            out.append("\n" + " " * level + "]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size:
            blocks.append((len(out), obj))
            out.append(_block_template(obj.shape, level))
        else:
            _write(obj.tolist(), level, out, blocks)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
        else:
            inner = "\n" + " " * (level + 1)
            out.append("{" + inner)
            for i, (key, value) in enumerate(sorted(obj.items())):
                key_text = key if isinstance(key, str) else _scalar(key)
                if key_text is None:
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                out.append(("," + inner if i else "") + _encode_str(key_text) + ": ")
                _write(value, level + 1, out, blocks)
            out.append("\n" + " " * level + "}")
    else:
        _write(_coerce(obj), level, out, blocks)


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
