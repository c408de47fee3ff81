"""JSON formats: group specs, function files, Fourier tables, reports.

Rationals travel as "p/q" strings, complexes as [re, im] pairs, matrices
as row-major nested lists.  Serialization is canonical, so equal inputs
and seeds give byte-identical output: the bytes are those of `json.dumps`
with `sort_keys` and `indent=1`.  `canonical_json` writes them itself,
because json's indented encoder is pure Python, and writes each rectangular
block of floats in one piece.  It also takes numpy arrays, as json.dumps
does through `_coerce` (their `tolist()`); a table entry reaches it as a
float64 array of [re, im] pairs and is written from the array, with no
nested lists in between.  A function file is
written with one entry per element, in id order; a reader takes any
subset of the elements and sets the others to zero.  A Fourier table
records the fingerprint of the irreducible bases it was computed in and is
read back only in those bases.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from .errors import EucisoError, IncompatibleShapes
from .groups import GroupSpec, NormalForm, QuotientGroup
from .isometry import DEFAULT_TOL, Isometry
from .fourier import FourierTable, PeriodicFunction
from .reps import basis_fingerprint

_encode_str = json.encoder.encode_basestring_ascii
_ARRAYS = {list, tuple}


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def matrix_to_lists(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.atleast_2d(m)]


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
        "f_elements": [matrix_to_lists(f) for f in spec.f_elements],
        "t_lifts": [{"q": matrix_to_lists(g.q)} for g in spec.t_lifts],
        "p_reps": [{
            "q": matrix_to_lists(g.q),
            "p": [list(row) for row in g.p],
            "tau": [format_fraction(t) for t in g.tau],
        } for g in spec.p_reps],
    }


def spec_from_dict(data: dict) -> GroupSpec:
    try:
        d1, d2 = int(data["d1"]), int(data["d2"])
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
                entry["p"],
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

def function_to_dict(u: PeriodicFunction) -> dict:
    n, f, p = u.q.parts(u.q.elements)
    entries = [{"n": ni, "f": fi, "p": pi, "value": value} for ni, fi, pi, value
               in zip(n.tolist(), f.tolist(), p.tolist(), complex_pairs(u.values).tolist())]
    return {"group": u.q.spec.name, "N": u.q.N,
            "shape": [u.shape[0], u.shape[1]], "entries": entries}


def function_from_dict(data: dict, q: QuotientGroup) -> PeriodicFunction:
    if data.get("group") not in (None, q.spec.name):
        raise IncompatibleShapes(
            f"function file is for group {data.get('group')!r}, not {q.spec.name!r}")
    if int(data["N"]) != q.N:
        raise IncompatibleShapes(f"function period {data['N']} != quotient N {q.N}")
    u = PeriodicFunction(q, tuple(data["shape"]))
    for entry in data["entries"]:
        nf = NormalForm(tuple(int(x) for x in entry["n"]), int(entry["f"]), int(entry["p"]))
        u[q.reduce(nf)] = complex_matrix_from_lists(entry["value"])
    return u


def table_to_dict(t: FourierTable) -> dict:
    reps = t.irreps()
    return {
        "group": t.q.spec.name,
        "N": t.q.N,
        "shape": [t.shape[0], t.shape[1]],
        "seed": t.seed,
        "basis": basis_fingerprint(t.q, t.seed),
        "entries": [{"irrep": i, "dim": reps[i].dim,
                     "value": complex_pairs(t.entries[i])}
                    for i in sorted(t.entries)],
    }


def table_from_dict(data: dict, q: QuotientGroup) -> FourierTable:
    if data.get("group") not in (None, q.spec.name):
        raise IncompatibleShapes(
            f"table file is for group {data.get('group')!r}, not {q.spec.name!r}")
    if int(data["N"]) != q.N:
        raise IncompatibleShapes(f"table period {data['N']} != quotient N {q.N}")
    t = FourierTable(q, tuple(data["shape"]), int(data.get("seed", 0)))
    if data.get("basis") != basis_fingerprint(q, t.seed):
        raise IncompatibleShapes("table was computed in another irreducible basis "
                                 "(missing or different \"basis\" fingerprint)")
    m, n = t.shape
    reps = t.irreps()
    for entry in data["entries"]:
        i = int(entry["irrep"])
        if not 0 <= i < len(reps):
            raise IncompatibleShapes(f"irrep {i} out of range: the quotient has {len(reps)}")
        d, value = reps[i].dim, complex_matrix_from_lists(entry["value"])
        if int(entry["dim"]) != d or value.shape != (m * d, n * d):
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
    json's own rules, except that a rectangular nested list, or a float64
    array, of finite floats is written as one block."""
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write(obj, level: int, out: list[str]) -> None:
    text = _encode_str(obj) if isinstance(obj, str) else _scalar(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif not _write_block(obj, level, out):
            inner = "\n" + " " * (level + 1)
            out.append("[" + inner)
            for i, value in enumerate(obj):
                if i:
                    out.append("," + inner)
                _write(value, level + 1, out)
            out.append("\n" + " " * level + "]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size and np.isfinite(obj).all():
            out.append(_block_template(obj.shape, level) % tuple(obj.ravel().tolist()))
        else:
            _write(obj.tolist(), level, out)
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
                _write(value, level + 1, out)
            out.append("\n" + " " * level + "}")
    else:
        _write(_coerce(obj), level, out)


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


def _write_block(obj, level: int, out: list[str]) -> bool:
    """Write obj if it is a rectangular nested list (or tuple) of finite
    floats: one repr per float, through the template of its shape."""
    shape, rows = [], [obj]
    while type(rows[0]) in _ARRAYS:
        width = len(rows[0])
        if not width or not set(map(type, rows)) <= _ARRAYS or set(map(len, rows)) != {width}:
            return False
        shape.append(width)
        rows = list(itertools.chain.from_iterable(rows))
    if set(map(type, rows)) != {float} or not math.isfinite(sum(rows)):
        return False
    out.append(_block_template(tuple(shape), level) % tuple(rows))
    return True


@functools.lru_cache(maxsize=256)
def _block_template(shape: tuple[int, ...], level: int) -> str:
    """The text of a block of this shape at this indent level, with a %r
    field per float: between two leaves, the j innermost lists that end are
    closed and as many opened."""
    k = len(shape)
    pad = ["\n" + " " * (level + t) for t in range(k + 1)]
    close = [pad[t] + "]" for t in range(k)]
    open_ = [pad[t] + "[" for t in range(k)]
    parts = ["%r"] * math.prod(shape)
    for j, width in enumerate(reversed(shape)):
        sep = "".join(close[k - 1:k - 1 - j:-1]) + "," + "".join(open_[k - j:k]) + pad[k]
        parts = list(map(sep.join, zip(*[iter(parts)] * width)))
    return "[" + "".join(open_[1:k]) + pad[k] + parts[0] + "".join(close[::-1])
