"""Line-oriented model files: generator tables, Lie data and named expressions.

A model file has sections introduced by bracketed headers:

    [lie]          basis = h e f          (required for Lie models)
                   module = vh ve vf      (optional module coordinate names)
    [brackets]     [h,e] = 2*e            (one bracket per line, j < k)
    [rep]          h.ve = ve              (action of a basis vector on a
                                           module coordinate, linear)
    [generators]   x even field           (explicit superspace models)
                   xp odd antifield x
    [exprs]        S0 = vh^2 + 4*ve*vf    (parsed on the full BV context)

Exactly one of [lie] / [generators] must be present.  Every declared name
(generator, basis vector, module coordinate, expression) must match the
parser's identifier rule ``parser._NAME``, and the reserved words of
``parser._CONSTANTS`` ('i', 'hbar') name no generator, basis vector or module
coordinate.  Ghost coordinates of a Lie model are named c1..cm and every
field gets an antifield named by suffixing 'p', so a module coordinate may
take neither form.  Anything given twice (a section header, a [lie] basis or
module line, a bracket pair in either order, a rep entry, a generator name,
an expression name) is refused at its second line by ``_claim``, which names
the first.  All diagnostics but "a model needs exactly one of [lie] or
[generators]" carry the offending line number.  A pairing that BVSpace
refuses for [generators] names the line of the antifield it refuses, else of
the first field with no antifield; a refusal about a section with no
entries, or with no field, names the line of its header.  ``load_model``
reads UTF-8, with or without a leading byte-order mark.
"""

from __future__ import annotations

from .bv import BVSpace, PairingError
from .parser import _CONSTANTS, _NAME, ParseError, parse_expression
from .superalgebra import (ANTIFIELD, Context, EVEN, FIELD, Generator, ODD, PLAIN, Poly,
                           _Record)


class ModelError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"{message}" + (f" (line {line})" if line else ""))
        self.line = line


class Model(_Record):
    """A parsed model file; ``lie`` is the LieModel of a [lie] model, else None."""

    def __init__(self, path: str, bvs: BVSpace, lie, module_names: tuple, exprs: dict):
        vars(self).update(path=path, bvs=bvs, lie=lie, module_names=module_names, exprs=exprs)

    @property
    def ctx(self) -> Context:
        return self.bvs.ctx

    def expr(self, name: str) -> Poly:
        if name not in self.exprs:
            raise ModelError(f"model has no expression named {name!r}")
        return self.exprs[name]


_SECTIONS = ("lie", "brackets", "rep", "generators", "exprs")


def load_model(path: str) -> Model:
    with open(path, "rb") as fh:
        # a byte-order mark is dropped here, not by the utf-8-sig codec, whose
        # error offsets would skip it while the refusal below indexes data
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number the lines as parse_model does; the prefix decodes cleanly
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ModelError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line) from None
    return parse_model(text, path)


def parse_model(text: str, path: str = "<string>") -> Model:
    sections: dict[str, list] = {}
    headers: dict[str, tuple] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # entries keep their indentation so that diagnostics give file columns
        entry = raw.split("#", 1)[0].rstrip()
        line = entry.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]") and "," not in line:
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ModelError(f"unknown section [{name}]", lineno)
            _claim(headers, name, f"section [{name}]", lineno)
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ModelError("content before the first section header", lineno)
        current.append((lineno, entry))

    if ("lie" in sections) == ("generators" in sections):
        raise ModelError("a model needs exactly one of [lie] or [generators]")

    if "lie" in sections:
        model, bvs, module_names = _build_lie(sections, headers["lie"][0])
    else:
        for forbidden in ("brackets", "rep"):
            if forbidden in sections:
                entries = sections[forbidden]
                raise ModelError(f"[{forbidden}] requires a [lie] section",
                                 entries[0][0] if entries else headers[forbidden][0])
        model, module_names = None, ()
        bvs = _build_generators(sections["generators"], headers["generators"][0])

    exprs, seen = {}, {}
    for lineno, line in sections.get("exprs", []):
        name, _, src = line.partition("=")
        name, src = name.strip(), src.strip()
        if not name or not src:
            raise ModelError("expression lines look like 'name = expr'", lineno)
        if not _NAME.fullmatch(name):
            raise ModelError(f"bad expression name {name!r}", lineno)
        _claim(seen, name, f"expression {name!r}", lineno)
        exprs[name] = _parse_rhs(line, lineno, bvs.ctx, f"expression {name!r}")

    return Model(path, bvs, model, module_names, exprs)


def _parse_rhs(line: str, lineno: int, ctx: Context, what: str) -> Poly:
    """Parse the right-hand side of a 'lhs = expr' entry.

    The left-hand side and '=' are blanked to spaces, which the tokenizer
    skips, so a ParseError carries the column within the file line; its
    message already names the line.
    """
    lhs, _, rhs = line.partition("=")
    try:
        return parse_expression(" " * (len(lhs) + 1) + rhs, ctx, line=lineno)
    except ParseError as exc:
        raise ModelError(f"in {what}: {exc}") from exc


def _claim(seen: dict, key, what: str, lineno: int):
    """Record the entry ``what`` under ``key``; refuse a key given before."""
    first, first_what = seen.setdefault(key, (lineno, what))
    if first != lineno:
        as_first = "" if first_what == what else f" as {first_what}"
        raise ModelError(f"{what} is given twice, first{as_first} at line {first}", lineno)


def _rational(coeff, what: str, lineno: int):
    """A structure constant, which must be a plain rational."""
    try:
        return coeff.as_fraction()
    except ValueError as exc:
        raise ModelError(f"{what}: {exc}", lineno) from None


def _build_lie(sections, header: int):
    """(LieModel, BVSpace, module names) of the sections of a [lie] model;
    header is the line of the [lie] header."""
    from .lie import LieModel, rep_context
    lie_lines, entries, seen = sections["lie"], {}, {}
    for lineno, line in lie_lines:
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("basis", "module"):
            raise ModelError(f"unknown [lie] entry {key!r}", lineno)
        _claim(seen, key, f"[lie] entry {key!r}", lineno)
        entries[key] = (lineno, value.split())
    if "basis" not in entries:
        raise ModelError("[lie] needs a 'basis = name...' line",
                         lie_lines[0][0] if lie_lines else header)
    basis_line, basis = entries["basis"]
    if not basis:
        raise ModelError("[lie] basis names no vector", basis_line)
    module_line, module = entries.get("module", (None, []))
    m, n = len(basis), len(module)
    for what, names, lineno in (("basis", basis, basis_line),
                                ("module", module, module_line)):
        if len(set(names)) != len(names) or not all(map(_NAME.fullmatch, names)):
            raise ModelError(f"{what} names must be distinct identifiers", lineno)
        for name in names:
            if name in _CONSTANTS:
                raise ModelError(f"{name!r} is reserved in expressions", lineno)
    # the BV context adds ghosts c1..cm and an antifield <name>p per field
    generated = {f"c{k + 1}": f"ghost c{k + 1}" for k in range(m)}
    generated |= {f"{x}p": f"the antifield of {x}" for x in module + list(generated)}
    for name in module:
        if name in generated:
            raise ModelError(f"module coordinate {name} clashes with {generated[name]}",
                             module_line)

    basis_index = {b: i for i, b in enumerate(basis)}
    module_index = {v: i for i, v in enumerate(module)}
    basis_ctx = Context.plain((b, EVEN) for b in basis)
    module_ctx = Context.plain((v, EVEN) for v in module) if module else None

    brackets, seen = {}, {}
    for lineno, line in sections.get("brackets", []):
        lhs = line.partition("=")[0].strip()
        if not (lhs.startswith("[") and lhs.endswith("]") and "," in lhs):
            raise ModelError("bracket lines look like '[a,b] = expr'", lineno)
        a, _, b = lhs[1:-1].partition(",")
        a, b = a.strip(), b.strip()
        for name in (a, b):
            if name not in basis_index:
                raise ModelError(f"unknown basis vector {name!r}", lineno)
        _claim(seen, frozenset((a, b)), f"bracket [{a},{b}]", lineno)
        j, k = basis_index[a], basis_index[b]
        value = _parse_rhs(line, lineno, basis_ctx, f"bracket [{a},{b}]")
        if j == k and not value.is_zero:
            raise ModelError(f"bracket [{a},{a}] of a basis vector with itself "
                             "must be zero", lineno)
        for (exps, mask), coeff in value.terms.items():
            if mask or sum(exps) != 1:
                raise ModelError(f"bracket [{a},{b}] must be linear in the basis", lineno)
            i = exps.index(1)
            brackets[(i, j, k)] = _rational(coeff, f"bracket [{a},{b}]", lineno)

    rho, seen = {}, {}
    for lineno, line in sections.get("rep", []):
        lhs = line.partition("=")[0].strip()
        g, _, v = lhs.partition(".")
        g, v = g.strip(), v.strip()
        if g not in basis_index:
            raise ModelError(f"unknown basis vector {g!r}", lineno)
        if v not in module_index:
            raise ModelError(f"unknown module coordinate {v!r}", lineno)
        _claim(seen, (g, v), f"rep entry {g}.{v}", lineno)
        k, j = basis_index[g], module_index[v]
        value = _parse_rhs(line, lineno, module_ctx, f"rep entry {g}.{v}")
        for (exps, mask), coeff in value.terms.items():
            if mask or sum(exps) > 1:
                raise ModelError(f"rep entry {g}.{v} must be linear", lineno)
            if not any(exps):
                raise ModelError(f"rep entry {g}.{v} has a constant part", lineno)
            i = exps.index(1)
            rho[(i, j, k)] = _rational(coeff, f"rep entry {g}.{v}", lineno)

    try:
        lie = LieModel.build(m, brackets, n, rho)
    except ValueError as exc:
        raise ModelError(str(exc)) from exc

    try:
        fields = rep_context(lie, module).generators
        bvs = BVSpace.over_fields([(g.name, g.parity) for g in fields])
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    return lie, bvs, tuple(module)


def _build_generators(lines, header: int):
    gens, seen = [], {}
    for lineno, line in lines:
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ModelError("generator lines look like 'name parity role [field]'",
                             lineno)
        name, parity_text, role = parts[:3]
        if not _NAME.fullmatch(name) or name in _CONSTANTS:
            raise ModelError(f"bad generator name {name!r}", lineno)
        _claim(seen, name, f"generator {name}", lineno)
        if parity_text not in ("even", "odd"):
            raise ModelError(f"parity must be 'even' or 'odd', not {parity_text!r}",
                             lineno)
        if role not in (FIELD, ANTIFIELD, PLAIN):
            raise ModelError(f"role must be field, antifield or plain", lineno)
        partner = None
        if role == ANTIFIELD:
            if len(parts) != 4:
                raise ModelError("antifield lines name their field: "
                                 "'name parity antifield fieldname'", lineno)
            partner = parts[3]
        elif len(parts) == 4:
            raise ModelError(f"unexpected trailing word {parts[3]!r}", lineno)
        parity = EVEN if parity_text == "even" else ODD
        gens.append(Generator(name, parity, role, partner))
    try:
        return BVSpace(Context(gens))
    except PairingError as exc:
        raise ModelError(str(exc), seen[exc.generator][0] if exc.generator else header) from exc
