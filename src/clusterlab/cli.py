"""Command-line driver.

Exit codes: 0 success, 1 usage error, 2 input/parse or file error, 3 analysis error.
Every run with identical arguments and input bytes writes byte-identical
outputs (seeds are explicit or resolved once and echoed in the report).
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import __version__, pipeline
from .dataset import (CsvFormat, RawTable, _arff_chunks, _export_table, format_table, parse_arff,
                      parse_csv, preprocess)
from .distances import Metric
from .exceptions import ClusterlabError, InputError
from .kmeans import INIT_KMEANS_PP, INIT_RANDOM
from .report import canonical_json, preprocessing_section


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this tool reserves 2 for input
    errors, so usage errors exit 1 instead."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_options(p):
    p.add_argument("input", help="input table (CSV or ARFF)")
    p.add_argument("--format", choices=["csv", "arff"],
                   help="input format (default: by file extension)")
    p.add_argument("--delimiter", default=",", help="CSV delimiter (default ,)")
    p.add_argument("--header", action="store_true",
                   help="first CSV line is a header")
    p.add_argument("--missing", default="?",
                   help="CSV missing-value marker (default ?)")
    p.add_argument("--id-column", default="0",
                   help="id column name or index, or 'none' (default: first column)")
    p.add_argument("--label-column", default="-1",
                   help="class column name or index, or 'none' (default: last column)")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip min-max normalization")
    p.add_argument("--json", action="store_true", help="print JSON to stdout")


#: the options of each stage; a subcommand takes those of the stages it runs
_STAGE_OPTIONS = {
    "k": (("--k", dict(type=int, default=2)),),
    "hopkins": (
        ("--m", dict(type=int, default=None, help="points per trial (default: 10%% of n)")),
        ("--trials", dict(type=int, default=30)),
        ("--hopkins-power", dict(type=int, default=1, help="distance exponent (pass "
                                 "the dimension for the d-power variant)")),
    ),
    "restarts": (("--restarts", dict(type=int, default=25)),),
    "lloyd": (
        ("--init", dict(choices=[INIT_KMEANS_PP, INIT_RANDOM], default=INIT_KMEANS_PP)),
        ("--max-iter", dict(type=int, default=100)),
        ("--tol", dict(type=float, default=1e-9)),
    ),
    "swap": (("--max-swap-iters", dict(type=int, default=200)),),
    "sweep": (("--k-min", dict(type=int, default=2)), ("--k-max", dict(type=int, default=10))),
}


#: subcommand -> (help, option groups, default --algorithm or None, the one
#: pipeline stage it runs or None for analyze)
_ANALYSES = {
    "tendency": ("Hopkins clustering-tendency statistic", ("hopkins",), None, pipeline.tendency),
    "kmeans": ("run kmeans at a fixed k", ("k", "restarts", "lloyd"), None, pipeline.kmeans),
    "pam": ("run pam at a fixed k", ("k", "swap"), None,
            lambda run: pipeline.pam(run, score=run.opts.k >= 2)),
    "silhouette": ("run silhouette at a fixed k", ("k", "restarts", "lloyd", "swap"), "pam",
                   pipeline.silhouette),
    "sweep": ("k sweep with silhouette and WSS curves", ("sweep", "restarts"), "kmeans",
              lambda run: pipeline.sweep(run, run.opts.algorithm)),
    "analyze": ("full pipeline with report and plots",
                ("k", "restarts", "lloyd", "swap", "hopkins", "sweep"), None, None),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="clusterlab", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"clusterlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a raw table")
    _add_io_options(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("preprocess", help="clean, normalize and export")
    _add_io_options(p)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--export", choices=["csv", "arff"], default="csv",
                   help="cleaned-table export format")
    p.set_defaults(func=cmd_preprocess)

    for name, (help_text, groups, algorithm, stage) in _ANALYSES.items():
        p = sub.add_parser(name, help=help_text)
        _add_io_options(p)
        p.add_argument("--metric", default="euclidean",
                       choices=[m.value for m in Metric], help="distance metric")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        for group in groups:
            for flag, settings in _STAGE_OPTIONS[group]:
                p.add_argument(flag, **settings)
        if algorithm:
            p.add_argument("--algorithm", choices=["kmeans", "pam"], default=algorithm)
        if name == "analyze":
            p.add_argument("--out", default="results", help="output directory")
            p.set_defaults(func=cmd_analyze)
        else:
            p.add_argument("--out", default=None,
                           help=f"directory to also write {name}.json into")
            p.set_defaults(func=cmd_stage, stage=stage)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser: built on the first call to :func:`main`,
    then read by every later call."""
    return build_parser()


# -- input and output -------------------------------------------------------------

def _input_format(args) -> str:
    return args.format or ("arff" if Path(args.input).suffix.lower() == ".arff" else "csv")


def _load_table(args) -> RawTable:
    """The input table. The parser reads the file, so that its bytes die
    once they are decoded."""
    path = Path(args.input)
    if _input_format(args) == "arff":
        return parse_arff(path)
    return parse_csv(path, CsvFormat(has_header=args.header,
                                     delimiter=args.delimiter,
                                     missing=args.missing))


def _resolve_column(spec: str, names) -> str | None:
    if spec is None or spec.lower() == "none":
        return None
    try:
        idx = int(spec)
    except ValueError:
        return spec  # a column name; existence checked downstream
    if not -len(names) <= idx < len(names):
        raise InputError(f"column index {idx} out of range for {len(names)} columns")
    return names[idx]


def _prepare(args):
    table = _load_table(args)
    id_col = _resolve_column(args.id_column, table.column_names)
    label_col = _resolve_column(args.label_column, table.column_names)
    if id_col is not None and id_col == label_col:
        raise InputError(
            f"id column and label column are both {id_col!r}; "
            "pass --id-column none or --label-column none"
        )
    data, prep = preprocess(table, id_column=id_col, label_column=label_col,
                            normalize=not args.no_normalize)
    return data, prep, id_col, label_col


def _write_files(out: str, files: dict) -> None:
    """Write every file into the output directory ``out``, all or none.

    ``out`` is made, with its missing parents, and the files are staged in a
    fresh temporary directory inside it. Once all of them are staged, and no
    target is a directory, each staged file replaces its namesake; files the
    run does not write are left alone. On any failure the stage is removed,
    and so is the topmost directory the run made, so an existing ``out``
    keeps its old files.

    ``files`` maps each name to its bytes or to a list of chunks of bytes,
    as :func:`.dataset.format_table` returns them. The chunks are written
    one after another into the staged file and never joined."""
    out_dir = Path(out)
    made = next((p for p in [*reversed(out_dir.parents), out_dir] if not p.exists()), None)
    stage = None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".clusterlab-", dir=out_dir))
        for name, data in files.items():
            with (stage / name).open("wb") as file:
                file.writelines([data] if isinstance(data, bytes) else data)
        for target in (out_dir / name for name in files):
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for name in files:
            (stage / name).replace(out_dir / name)
        stage.rmdir()
    except BaseException:
        for path in (stage, made):
            if path is not None:
                shutil.rmtree(path, ignore_errors=True)
        raise


# -- subcommands ----------------------------------------------------------------

def cmd_inspect(args) -> int:
    table = _load_table(args)
    missing = table.missing_mask()
    summary = {
        "rows": table.n_rows,
        "columns": table.n_cols,
        "column_names": list(table.column_names),
        "missing_cells": int(missing.sum()),
        "rows_with_missing": int(missing.any(axis=1).sum()),
        "missing_per_column": {
            name: int(count) for name, count in zip(table.column_names, missing.sum(axis=0))
            if count
        },
    }
    if args.json:
        sys.stdout.write(canonical_json(summary).decode("utf-8"))
    else:
        print(f"rows: {summary['rows']}  columns: {summary['columns']}")
        print(f"columns: {', '.join(summary['column_names'])}")
        print(f"missing cells: {summary['missing_cells']} "
              f"in {summary['rows_with_missing']} rows")
        for name, count in summary["missing_per_column"].items():
            print(f"  {name}: {count}")
    return 0


def cmd_preprocess(args) -> int:
    data, prep, _, _ = _prepare(args)
    payload = canonical_json(preprocessing_section(prep))
    if args.out:
        out_table = _export_table(data)
        del data  # its features, ids and labels die before the table is formatted
        if args.export == "arff":
            files = {"preprocessed.arff": _arff_chunks(out_table, "preprocessed")}
        else:
            header = io.StringIO()  # the \r\n end quotes a name holding \r or \n, cut off here
            csv.writer(header, lineterminator="\r\n").writerow(out_table.column_names)
            files = {"preprocessed.csv": format_table([header.getvalue()[:-2]], out_table.cells)}
        _write_files(args.out, {**files, "preprocess.json": payload})
    if args.json or not args.out:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


def cmd_stage(args) -> int:
    """Run one stage, print its section and mirror it into --out."""
    data, _, _, _ = _prepare(args)
    section = args.stage(pipeline.Run(data, args))[0]
    payload = canonical_json(section)
    if args.out:
        _write_files(args.out, {f"{args.command}.json": payload})
    sys.stdout.write(payload.decode("utf-8"))
    return 0


def cmd_analyze(args) -> int:
    """The full pipeline: compute and render everything, then write."""
    data, prep, id_col, label_col = _prepare(args)
    source = {
        "input": str(args.input),
        "format": _input_format(args),
        "delimiter": args.delimiter,
        "header": bool(args.header),
        "missing_marker": args.missing,
        "id_column": id_col,
        "label_column": label_col,
        "normalize": not args.no_normalize,
    }
    files, summary = pipeline.analyze(pipeline.Run(data, args), prep, source)
    _write_files(args.out, files)
    if args.json:
        sys.stdout.write(files["report.json"].decode("utf-8"))
    else:
        sys.stdout.write(summary)
        print(f"artifacts written to {Path(args.out)}")
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: cannot read input file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ClusterlabError, ValueError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a backstop: sizes are checked before the large allocations
        print(f"analysis error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
