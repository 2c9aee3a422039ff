"""Command-line front end.

Subcommands
-----------

``conres table``    spectral table (homological or cohomological view)
``conres link``     reduced link homology polynomial
``conres gamma``    quotient collection-space homology (trivial or sign system)
``conres verify``   run the consistency checks and report them
``conres order``    order of a degree-2 class given as an integer sequence
``conres stab``     stabilization bound of a cell, or of one shape

A cell's stable rank comes from ``stab.stable_cell``, which reads it off one
plethystic product (``stab.stable_series``); ``stab --p --q`` also reads the cell in
the tables for its bound n* and n* + 1, n* + 2 (``stab.three_point_ranks``)
and requires all four ranks to agree.  Each subcommand returns its
arguments, payload and exit code; ``main`` wraps them in the one
``OutputDocument`` it renders.

``--max-n`` (default 10) bounds ``--n``, and may itself be at most
``stab.MAX_TABLE_N``, so that no request builds a table past n = 24.

Output goes to stdout as json, csv or markdown; diagnostics go to stderr.
json is ``json.dumps(doc, sort_keys=True, indent=2)`` to the byte; ``indent``
selects CPython's pure-Python encoder, so ``_dumps`` indents C-encoded output.
A table's cells (``_TableCells``) come out one column at a time: each
column is built (``resolution.build_column``, outside the column memo),
walked by degree (``resolution.by_degree``) already in output order, each
cell with its blocks' ranks in key order, written and dropped, so nothing
is sorted per cell and no whole table is held.  Every block is still built,
and so checked, by ``render``, before anything reaches stdout.  json writes
each cell with one f-string from the column's label prefixes, csv each row
with one f-string, quoting a label that holds a comma as the ``csv`` module
does, and markdown reads the same walk.  Every other json document, and a
parsed table, goes through the generic writer ``_write``, which the tests
hold the cell writer to as its oracle; every other csv document goes
through ``csv.writer``, which the tests hold the table's rows to.
Exit codes: 0 success, 1 usage error, 2 a consistency check failed, 3 any
other error (a bug), whose traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import cache
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from . import __version__
from .cohomring import h2_order
from .flagchar import CHARACTERS, gamma_poincare
from .qcombinat import ConsistencyError, GradedDims, MultiIndex, QPoly
from .resolution import ALL_CHECKS, SpectralTable, build_column, by_degree, link_poincare, verify
from .stab import MAX_TABLE_N, check_degree, check_stable_cell, stab_index, stable_cell, three_point_ranks

DEFAULT_MAX_N = 10


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route that to exit code 1 instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# --------------------------------------------------------------------------
# output documents
# --------------------------------------------------------------------------


def _poly_pairs(p: QPoly | GradedDims) -> list[list[int]]:
    return [[e, c] for e, c in p.items()]


@cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


def _dumps(value: Any, end: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + end``, joined from :func:`_write`'s pieces."""
    pieces: list[str] = []
    _write(value, 0, pieces)
    pieces.append(end)
    return "".join(pieces)


def _write(value: Any, depth: int, pieces: list[str]) -> None:
    """Append the text of plain str-keyed dicts, lists and scalars at ``depth``
    to ``pieces``; the C encoder writes each container that holds none, and a
    list of nonempty int-only lists (polynomial pairs) in one pass, and
    :func:`_write_cells` a table's :class:`_TableCells`."""
    if type(value) is _TableCells:
        _write_cells(value, depth, pieces)
        return
    if type(value) not in (dict, list, tuple) or not value:
        pieces.append(int.__repr__(value) if type(value) is int else _flat_encoder(depth).encode(value))
        return
    pad = "\n" + "  " * depth
    inner = pad + "  "
    is_dict = type(value) is dict
    kinds = {*map(type, value.values() if is_dict else value)}
    if kinds.isdisjoint((dict, list, tuple, _TableCells)):
        text = _flat_encoder(depth).encode(value)
        pieces += text[0], inner, text[1:-1], pad, text[-1]
    elif type(value) is list and kinds == {list} and all(value) and {*map(type, chain.from_iterable(value))} == {int}:
        # written with the rows' separator throughout; only digits, signs and
        # separators are left, so "],<sep>[" is a seam between two rows
        row = inner + "  "
        rows = _flat_encoder(depth + 1).encode(value)[2:-2].replace("]," + row + "[", f"{inner}],{inner}[{row}")
        pieces += "[", inner, "[", row, rows, inner, "]", pad, "]"
    else:
        sep = "," + inner
        pieces.append("{" if is_dict else "[")
        start = len(pieces)
        for i, key in enumerate(sorted(value) if is_dict else range(len(value))):
            pieces.append(sep if i else inner)
            if is_dict:
                pieces += encode_basestring_ascii(key), ": "
            _write(value[key], depth + 1, pieces)
            if len(pieces) - start > 1 << 14:  # one chunk, so few small strings live at once
                pieces[start:] = ["".join(pieces[start:])]
                start += 1
        pieces += pad, "}" if is_dict else "]"


class _TableCells:
    """The cells of a table, sorted by (p, q), column by column: each column
    is ``(p, labels, cells)``, with ``labels`` its nonzero blocks' labels in
    json key order and ``cells`` its cells ``(q, ranks)`` in output order,
    ``ranks`` lined up with ``labels`` with its zeros kept: the one form the
    json, csv and markdown writers read.  Each read builds the columns
    afresh (:func:`build_column`), one at a time, and drops each once it is
    read, so neither the blocks nor the cells of the whole table are held.
    In json they are the list of cell objects ``{"blocks", "p", "q",
    "rank"}`` that parsing gives back."""

    __slots__ = ("table", "view", "total_degree")

    def __init__(self, table: SpectralTable, view: str, total_degree: bool) -> None:
        self.table, self.view, self.total_degree = table, view, total_degree

    def __iter__(self) -> Iterator[tuple[int, tuple[str, ...], Iterable[tuple[int, tuple[int, ...]]]]]:
        # The homological cells come out in walk order.  The cohomological
        # relabelling (p, i) -> (-p, n^2 - (i - p) - 1) decreases in both p
        # and i, so those cells come out of the walk run backwards.
        table, cohom = self.table, self.view == "cohom"
        complexities = table.complexities()
        for p in reversed(complexities) if cohom else complexities:
            labels, walk = _column_walk(table.n, p)
            if cohom:
                yield -p, labels, ((table.cohomological_position(p, i)[1], ranks) for i, ranks in reversed([*walk]))
            else:
                shift = 0 if self.total_degree else p
                yield p, labels, ((i - shift, ranks) for i, ranks in walk)


def _column_walk(n: int, p: int) -> tuple[tuple[str, ...], Iterator[tuple[int, tuple[int, ...]]]]:
    """The labels of the nonzero blocks of column p of the table for n, in
    json key order, and the column's walk by degree with ranks in that
    order; the blocks live as long as the walk."""
    # sorted by label once per column, so that every cell lists its blocks in json key order
    labelled = sorted((",".join(map(str, A.parts)), poly) for A, poly in build_column(n, p) if poly)
    return tuple(label for label, _ in labelled), by_degree([poly for _, poly in labelled])


def _write_cells(cells: _TableCells, depth: int, pieces: list[str]) -> None:
    """Append the text :func:`_write` gives the cell objects of ``cells`` at
    ``depth``: one f-string per cell, its blocks from the column's label
    prefixes, joined into a chunk every 2^10 cells, about the bytes of
    :func:`_write`'s chunk of 2^14 pieces (some 20 a cell): a cold ``table
    --n 24`` peaks at 69 MB with it, at 76 MB with chunks of 2^14 cells."""
    pad = "\n" + "  " * depth
    key = pad + "    "  # a cell's keys, two levels in
    block = key + "  "  # its blocks' keys, one more
    block_sep, close = "," + block, pad + "  }"
    sep, cell_sep = pad + "  ", "," + pad + "  "
    pieces.append("[")
    start = len(pieces)
    for p, labels, walk in cells:
        prefixes = [f'"{label}": ' for label in labels]
        for q, ranks in walk:
            blocks = block_sep.join(map(add, compress(prefixes, ranks), map(str, filter(None, ranks))))
            pieces.append(f'{sep}{{{key}"blocks": {{{block}{blocks}{key}}},{key}"p": {p},{key}"q": {q},{key}"rank": {sum(ranks)}{close}')
            sep = cell_sep
            if len(pieces) - start > 1 << 10:
                pieces[start:] = ["".join(pieces[start:])]
                start += 1
    pieces += pad, "]"


class OutputDocument(NamedTuple):
    """One command's result: metadata plus a json-ready payload; a table's
    cells are a :class:`_TableCells`, which the writers here read.

    Polynomial values are serialized as [exponent, coefficient] pairs with
    ascending exponents, so serialization is deterministic and round-trips.
    """

    name: str
    version: str
    arguments: dict[str, Any]
    payload: dict[str, Any]
    format: str = "md"

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.name,
            "version": self.version,
            "arguments": self.arguments,
            "format": self.format,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return _dumps(self.to_dict(), "\n")

    @staticmethod
    def from_json(text: str) -> "OutputDocument":
        raw = json.loads(text)
        return OutputDocument(
            raw["command"], raw["version"], raw["arguments"], raw["payload"], raw["format"]
        )

    def render(self) -> str:
        if self.format == "json":
            return self.to_json()
        csv_text, markdown = _RENDERERS[self.name]
        if self.format == "md":
            return markdown(self.payload, self.arguments)
        if self.format == "csv":
            return csv_text(self.payload)
        raise UsageError(f"unknown format {self.format!r}")


def _csv_written(rows: Iterable[Sequence[Any]]) -> str:
    import csv  # loaded by the paths that write csv, not by every start

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


#: The characters of a block label (:func:`_column_walk`): none of them is a
#: quote or a line break, so ``csv.writer`` quotes a label iff it holds a comma.
_LABEL_CHARS = frozenset("0123456789,")


def _csv_table(payload: dict[str, Any]) -> str:
    """The rows ``p,q,block,rank`` of every nonzero block of every cell, one
    f-string each, with the bytes ``csv.writer`` writes: a label is quoted iff
    it holds a comma, and no other field needs quotes.  A label with any
    other character than :data:`_LABEL_CHARS` raises ``ValueError``."""
    pieces = ["p,q,block,rank\n"]
    for p, labels, walk in payload["cells"]:
        if not _LABEL_CHARS.issuperset("".join(labels)):
            raise ValueError(f"column {p} has a block label other than digits and commas: {labels}")
        fields = [f'"{label}"' if "," in label else label for label in labels]
        rows: list[str] = []
        for q, ranks in walk:
            cell = f"{p},{q},"
            rows += [f"{cell}{field},{rank}\n" for field, rank in zip(compress(fields, ranks), filter(None, ranks))]
        # one string per column, so that no table's worth of rows is held
        pieces.append("".join(rows))
    return "".join(pieces)


def _csv_polynomial(payload: dict[str, Any]) -> str:
    return _csv_written([["exponent", "coefficient"], *payload["polynomial"]])


def _csv_checks(payload: dict[str, Any]) -> str:
    rows: list[list[Any]] = [["check", "location", "passed", "detail"]]
    for check in payload["checks"]:
        rows.append([check["name"], check["location"], int(check["passed"]), check["detail"]])
    return _csv_written(rows)


def _csv_flat(payload: dict[str, Any]) -> str:
    keys = sorted(payload)
    return _csv_written([keys, [json.dumps(payload[k]) if isinstance(payload[k], (list, dict)) else payload[k] for k in keys]])


def _markdown_polynomial(payload: dict[str, Any], arguments: dict[str, Any]) -> str:
    return payload["pretty"] + "\n"


def _markdown_checks(payload: dict[str, Any], arguments: dict[str, Any]) -> str:
    lines = [
        f"{'ok' if c['passed'] else 'FAIL'} {c['name']} @ {c['location']}"
        + (f" ({c['detail']})" if c["detail"] else "")
        for c in payload["checks"]
    ]
    lines.append(f"result: {'all checks passed' if payload['passed'] else 'FAILURES'}")
    return "\n".join(lines) + "\n"


def _markdown_flat(payload: dict[str, Any], arguments: dict[str, Any]) -> str:
    return "\n".join(f"{k} = {payload[k]}" for k in sorted(payload)) + "\n"


def _markdown_table(payload: dict[str, Any], arguments: dict[str, Any]) -> str:
    # a cell's share of each block, and a column's blocks, in column order
    cells: dict[tuple[int, int], str] = {}
    column_blocks: dict[int, list[str]] = {}
    for p, labels, walk in payload["cells"]:
        if not labels:
            continue
        order = sorted(range(len(labels)), key=lambda j: _parts_sort_key(labels[j]))
        column_blocks[p] = [labels[j] for j in order]
        for q, ranks in walk:
            cells[p, q] = "+".join([str(ranks[j]) for j in order if ranks[j]])
    if not cells:
        return "(empty table)\n"
    columns = sorted(column_blocks)
    rows = sorted({q for _, q in cells}, reverse=True)
    row_label = "i" if arguments.get("total_degree") else "q"
    header = f"| {row_label} \\ p | " + " | ".join(str(p) for p in columns) + " |"
    rule = "|" + "---|" * (len(columns) + 1)
    lines = [f"spectral table, n = {payload['n']} ({payload['view']} view)", "", header, rule]
    for q in rows:
        lines.append(f"| {q} | " + " | ".join(cells.get((p, q), ".") for p in columns) + " |")
    lines.append("")
    for p in columns:
        lines.append(f"p={p} blocks: " + ", ".join(f"({b})" for b in column_blocks[p]))
    return "\n".join(lines) + "\n"


def _parts_sort_key(parts: str) -> tuple[int, ...]:
    return tuple(-int(x) for x in parts.split(","))


#: csv text and markdown text, by document kind (``OutputDocument.name``)
_RENDERERS = {
    "table": (_csv_table, _markdown_table),
    "link": (_csv_polynomial, _markdown_polynomial),
    "gamma": (_csv_polynomial, _markdown_polynomial),
    "verify": (_csv_checks, _markdown_checks),
    "order": (_csv_flat, _markdown_flat),
    "stab": (_csv_flat, _markdown_flat),
}


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------


def _parse_parts(text: str) -> MultiIndex:
    try:
        return MultiIndex(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad --parts value {text!r}: {exc}") from exc


def _parse_seq(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --seq value {text!r}: {exc}") from exc


def _check_n(n: int, max_n: int, minimum: int = 2) -> None:
    if max_n > MAX_TABLE_N:
        raise UsageError(f"--max-n must be at most {MAX_TABLE_N} (got {max_n})")
    if not minimum <= n <= max_n:
        raise UsageError(f"--n must be between {minimum} and {max_n} (got {n})")


def _poly_payload(poly: QPoly | GradedDims, **fields: Any) -> dict[str, Any]:
    return {**fields, "polynomial": _poly_pairs(poly), "pretty": str(poly)}


# --------------------------------------------------------------------------
# subcommands: each returns (arguments, payload, exit code)
# --------------------------------------------------------------------------

_Result = tuple[dict[str, Any], dict[str, Any], int]


def _cmd_table(args: argparse.Namespace) -> _Result:
    _check_n(args.n, args.max_n)
    if args.total_degree and args.view == "cohom":
        raise UsageError("--total-degree applies only to --view hom")
    cells = _TableCells(SpectralTable(args.n), args.view, args.total_degree)
    arguments = {"n": args.n, "view": args.view, "total_degree": args.total_degree}
    return arguments, {"n": args.n, "view": args.view, "cells": cells}, 0


def _cmd_link(args: argparse.Namespace) -> _Result:
    _check_n(args.n, args.max_n, minimum=3)
    return {"n": args.n}, _poly_payload(link_poincare(args.n), n=args.n), 0


def _cmd_gamma(args: argparse.Namespace) -> _Result:
    A = _parse_parts(args.parts)
    _check_n(args.n, args.max_n)
    if A.size > args.n:
        raise UsageError(f"parts {A} do not fit in ambient dimension {args.n}")
    poly = gamma_poincare(A, args.n, args.character)
    arguments = {"parts": list(A.parts), "n": args.n, "character": args.character}
    return arguments, _poly_payload(poly, **arguments), 0


def _cmd_verify(args: argparse.Namespace) -> _Result:
    _check_n(args.n, args.max_n)
    checks = tuple(args.checks.split(",")) if args.checks else None
    # validated up front: a ValueError out of a running check is a bug, not a bad request
    unknown = set(checks or ()) - set(ALL_CHECKS)
    if unknown:
        raise UsageError(f"unknown checks: {sorted(unknown)}; known: {ALL_CHECKS}")
    report = verify(args.n, checks=checks)
    payload = {
        "n": args.n,
        "passed": report.ok,
        "checks": [c._asdict() for c in report.checks],
    }
    return {"n": args.n, "checks": args.checks or "all"}, payload, 0 if report.ok else 2


def _cmd_order(args: argparse.Namespace) -> _Result:
    seq = _parse_seq(args.seq)
    return {"seq": list(seq)}, {"sequence": list(seq), "order": h2_order(seq)}, 0


def _cmd_stab(args: argparse.Namespace) -> _Result:
    given = [value is not None for value in (args.p, args.q, args.parts, args.degree)]
    if given not in ([True, True, False, False], [False, False, True, True]):
        raise UsageError("give either --p and --q, or --parts and --degree")
    if given[0]:
        # validated up front: a ValueError out of the cell's evaluation is a bug
        try:
            check_stable_cell(args.p, args.q)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        cell = stable_cell(args.p, args.q)
        ranks = three_point_ranks(args.p, args.q)
        if ranks[0] != cell.rank:
            detail = f"rank {ranks[0]} in the tables, {cell.rank} in the series"
            raise ConsistencyError(f"cell ({args.p}, {args.q}) has {detail}")
        payload = {
            "p": cell.p,
            "q": cell.q,
            "bound_n": cell.bound_n,
            "ranks": ranks,
            "stable_rank": cell.rank,
        }
        return {"p": args.p, "q": args.q}, payload, 0
    A = _parse_parts(args.parts)
    try:
        check_degree(A, args.degree)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = stab_index(A, args.degree)
    payload = {
        "parts": list(A.parts),
        "degree": args.degree,
        "stab_n": report.stab_n,
        "witness": _poly_pairs(report.witness),
    }
    return {"parts": list(A.parts), "degree": args.degree}, payload, 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="conres", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"conres {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, with_max_n: bool = True, with_view: bool = False
    ) -> None:
        p.add_argument("--format", choices=("json", "csv", "md"), default="md")
        if with_max_n:
            p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
        if with_view:
            p.add_argument("--view", choices=("hom", "cohom"), default="hom")
            p.add_argument(
                "--total-degree",
                action="store_true",
                help="label homological rows by the total degree i instead of q = i - p",
            )

    p_table = sub.add_parser("table", help="spectral table for one ambient dimension")
    p_table.add_argument("--n", type=int, required=True)
    common(p_table, with_view=True)
    p_table.set_defaults(func=_cmd_table)

    p_link = sub.add_parser("link", help="reduced link homology polynomial")
    p_link.add_argument("--n", type=int, required=True)
    common(p_link)
    p_link.set_defaults(func=_cmd_link)

    p_gamma = sub.add_parser("gamma", help="quotient collection-space homology")
    p_gamma.add_argument("--parts", required=True, help="comma-separated, e.g. 2,2")
    p_gamma.add_argument("--n", type=int, required=True)
    p_gamma.add_argument("--character", choices=CHARACTERS, default="trivial")
    common(p_gamma)
    p_gamma.set_defaults(func=_cmd_gamma)

    p_verify = sub.add_parser("verify", help="run the consistency checks")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument(
        "--checks", default="", help=f"comma-separated subset of {','.join(ALL_CHECKS)}"
    )
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_order = sub.add_parser("order", help="order of a degree-2 class")
    p_order.add_argument("--seq", required=True, help="comma-separated integers")
    common(p_order, with_max_n=False)
    p_order.set_defaults(func=_cmd_order)

    p_stab = sub.add_parser("stab", help="stabilization bound of a cell or of a shape")
    p_stab.add_argument("--p", type=int, default=None)
    p_stab.add_argument("--q", type=int, default=None)
    p_stab.add_argument("--parts", default=None, help="comma-separated, e.g. 2,2")
    p_stab.add_argument("--degree", type=int, default=None)
    common(p_stab, with_max_n=False)
    p_stab.set_defaults(func=_cmd_stab)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        arguments, payload, code = args.func(args)
        doc = OutputDocument(args.command, __version__, arguments, payload, args.format)
        sys.stdout.write(doc.render())
        if code == 2:
            sys.stderr.write("consistency failure; see the document payload\n")
        return code
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ConsistencyError as exc:
        sys.stderr.write(f"consistency failure: {exc}\n")
        return 2
    except Exception:
        import traceback  # loaded by the one path that prints it, not by every start

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
