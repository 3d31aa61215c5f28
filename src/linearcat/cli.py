"""Command-line front end.

Subcommands: ``word`` (parse, decompose, cancel units), ``check`` (full law
suite on a model file), ``central`` (central morphisms and their addition
table), ``coherence`` (coherence sweeps only).  Exit codes: 0 all good,
1 at least one law failed, 2 bad input, 3 unsupported word length.  A
reader that closes stdout early changes no exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys

from .centrality import central_hom, central_monoid, check_linearity_theorem
from .checks import (CheckReport, check_prelinear, check_structure,
                     check_transformer, is_lineariser)
from .errors import LinearcatError, ModelFileError, ParseError
from .matrices import identity_matrix_sweep
from .models import Model, load_model
from .sweeps import coherence_sweep, equal_length_pairs, unit_square_sweep
from .terms import PARTIALLY_LINEAR, PRELINEAR, render_term, unit_cancel
from .words import (attachment_sequence, core_split, is_unit_free, length,
                    parse_word, render_word)

SCHEMA_VERSION = 1

# Each extra layer of search depth costs a few times the last: the coherence
# subcommand on pointed_sets_3.json takes about 1.6 s at depth 6, 3 s at 7
# and 10.6 s at 8, with peak RSS 48, 82 and 243 MB (Python 3.11, 2 cores).
MAX_DEPTH = 8

# check and coherence build the length-2 word corpus, which grows about 18
# times per unit leaf: 17,920 words at 3 units, 322,560 at 4 and 5,677,056
# at 5.  check on pointed_sets_3.json takes 1.7 s and 49 MB at 3 units and
# 5.3 s and 121 MB at 4 (Python 3.11, 2 cores); at 5 the corpus alone takes
# about 30 s and 1.6 GB.
MAX_UNITS = 4


def _mode_arg(value: str) -> str:
    return {"prelinear": PRELINEAR, "partially-linear": PARTIALLY_LINEAR,
            "partially_linear": PARTIALLY_LINEAR}.get(value) or _bad_mode(value)


def _bad_mode(value: str):
    raise argparse.ArgumentTypeError(f"unknown mode {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linearcat",
        description="word calculus and model checking for categories with"
                    " linked sum and product structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_word = sub.add_parser("word", help="parse and decompose a word")
    p_word.add_argument("text", help='word text, e.g. "(_+0)"')
    _common_flags(p_word, model=False)

    p_check = sub.add_parser("check", help="run the full verification suite")
    _common_flags(p_check)

    p_central = sub.add_parser("central", help="central morphisms Z(X, Y)")
    p_central.add_argument("x", help="source object name")
    p_central.add_argument("y", help="target object name")
    _common_flags(p_central)

    p_coh = sub.add_parser("coherence", help="coherence sweeps only")
    _common_flags(p_coh)
    return parser


def _common_flags(p: argparse.ArgumentParser, model: bool = True) -> None:
    if model:
        p.add_argument("--model", required=True, help="path to a model file")
        p.add_argument("--mode", type=_mode_arg, default=PRELINEAR,
                       help="prelinear | partially-linear (default prelinear)")
        p.add_argument("--depth", type=int, default=6,
                       help="canonical term search depth, 1 to"
                            f" {MAX_DEPTH} (default 6)")
        p.add_argument("--max-size", type=int, default=3,
                       help="largest object size used in coherence sweeps,"
                            " capped at 2 (default 3)")
        p.add_argument("--max-units", type=int, default=3,
                       help="unit-leaf budget for word corpora, 0 to"
                            f" {MAX_UNITS} (default 3)")
        p.add_argument("--mixed-stride", type=int, default=8,
                       help="thinning stride for one-unit word pairs (default 8)")
        p.add_argument("--heavy-stride", type=int, default=16,
                       help="thinning stride for unit-heavy words (default 16)")
    p.add_argument("--format", choices=("text", "structured"), default="text",
                   help="output format (default text)")


def _report_dict(r: CheckReport) -> dict:
    out = {"law": r.law, "passed": r.passed}
    if r.counterexample:
        out["counterexample"] = r.counterexample
    if r.details:
        out["details"] = r.details
    return out


def _grid(rows) -> str:
    cells = [[",".join(str(v) for v in entry) for entry in row] for row in rows]
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join(
        "    [ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)


def _print_structured(doc: dict) -> None:
    print(json.dumps(dict(doc, schema_version=SCHEMA_VERSION), indent=2,
                     sort_keys=True))


def _emit(args, doc: dict, reports: list[CheckReport]) -> None:
    if args.format == "structured":
        _print_structured(dict(doc, reports=[_report_dict(r) for r in reports],
                               summary={"total": len(reports),
                                        "failed": sum(not r.passed for r in reports)}))
    else:
        for r in reports:
            print(str(r))
            if not r.passed and r.counterexample:
                for key in ("matrix", "got", "want"):
                    if key in r.counterexample:
                        print(f"  {key}:")
                        print(_grid(r.counterexample[key]))
        failed = sum(not r.passed for r in reports)
        print(f"{len(reports)} checks, {failed} failed")


def cmd_word(args) -> int:
    try:
        w = parse_word(args.text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    n = length(w)
    info = {
        "word": render_word(w),
        "length": n,
        "unit_free": is_unit_free(w),
    }
    if n > 2:
        if args.format == "structured":
            _print_structured(dict(
                info, error="unit cancellation is only defined for length <= 2"))
        else:
            print(f"word:      {info['word']}")
            print(f"length:    {n}")
            print("unit cancellation is only defined for length <= 2",
                  file=sys.stderr)
        return 3
    if n == 1:
        info["attachments"] = [
            {"op": a.op, "unit_word": render_word(a.unit_word), "side": a.side}
            for a in attachment_sequence(w)]
    elif n == 2:
        split = core_split(w)
        info["core"] = {
            "w1": render_word(split.w1), "op": split.op,
            "w2": render_word(split.w2),
            "attachments": [
                {"op": a.op, "unit_word": render_word(a.unit_word), "side": a.side}
                for a in split.attachments]}
    cancel = unit_cancel(w)
    info["cancellation"] = render_term(cancel)
    info["cancellation_target"] = render_word(cancel.target)
    if args.format == "structured":
        _print_structured(info)
    else:
        print(f"word:        {info['word']}")
        print(f"length:      {n}")
        print(f"unit free:   {str(info['unit_free']).lower()}")
        if "attachments" in info:
            for a in info["attachments"]:
                print(f"attachment:  ({a['op']}, {a['unit_word']}, {a['side']})")
        if "core" in info:
            c = info["core"]
            print(f"core:        {c['w1']} {c['op']} {c['w2']}")
            for a in c["attachments"]:
                print(f"attachment:  ({a['op']}, {a['unit_word']}, {a['side']})")
        print(f"cancel:      {info['cancellation']}")
        print(f"target:      {info['cancellation_target']}")
    return 0


def _coherence_max_size(args) -> int:
    """The largest object size the coherence sweeps use: at most 2, whatever
    ``--max-size`` asks, so that the sweeps stay at desk scale."""
    return min(args.max_size, 2)


def _coherence_reports(model: Model, args) -> list[CheckReport]:
    reports: list[CheckReport] = []
    max_size = _coherence_max_size(args)
    objs = [o for o in model.base_objects if o.size <= max_size]

    def objects_for(n: int):
        return list(itertools.product(objs, repeat=n))

    for n in (1, 2, 3):
        reports.append(identity_matrix_sweep(model, n, objects_for(n), args.depth))
    if args.mode == PARTIALLY_LINEAR:
        for n in (0, 1, 2):
            corpus = equal_length_pairs(n, args.max_units, args.mixed_stride,
                                        args.heavy_stride)
            law = f"coherence/partially-linear/n={n}"
            try:
                reports.append(coherence_sweep(
                    model, corpus, objects_for, args.depth, PARTIALLY_LINEAR,
                    law=law))
            except LinearcatError as exc:
                # e.g. a move through i's inverse where i is not invertible
                reports.append(CheckReport(law, False, {"error": str(exc)}))
    corpus = equal_length_pairs(2, args.max_units, args.mixed_stride,
                                args.heavy_stride)
    reports.append(unit_square_sweep(model, corpus, objects_for, min(args.depth, 4)))
    return reports


def _load(args) -> Model | None:
    """The model named by ``--model``, or None after reporting why not."""
    try:
        return load_model(args.model)
    except ModelFileError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return None


def cmd_check(args) -> int:
    model = _load(args)
    if model is None:
        return 2
    reports = []
    reports.extend(check_structure(model))
    transformer = check_transformer(model)
    reports.extend(transformer)
    reports.extend(check_prelinear(model, transformer))
    lin, lin_data = is_lineariser(model)
    reports.append(CheckReport("lineariser", True, None,
                               {"lineariser": lin,
                                **({} if lin else {"witness": lin_data})}))
    reports.extend(_coherence_reports(model, args))
    try:
        reports.append(check_linearity_theorem(model))
    except LinearcatError as exc:
        reports.append(CheckReport("linearity-theorem", False,
                                   {"error": str(exc)}))
    _emit(args, {"command": "check", "model": args.model,
                 "parameters": _params(args)}, reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_coherence(args) -> int:
    model = _load(args)
    if model is None:
        return 2
    reports = _coherence_reports(model, args)
    _emit(args, {"command": "coherence", "model": args.model,
                 "parameters": _params(args)}, reports)
    return 0 if all(r.passed for r in reports) else 1


def _params(args) -> dict:
    return {"mode": args.mode, "depth": args.depth, "max_size": args.max_size,
            "coherence_max_size": _coherence_max_size(args),
            "max_units": args.max_units, "mixed_stride": args.mixed_stride,
            "heavy_stride": args.heavy_stride}


def cmd_central(args) -> int:
    model = _load(args)
    if model is None:
        return 2
    try:
        x = model.object_by_name(args.x)
        y = model.object_by_name(args.y)
    except KeyError as exc:
        print(f"object error: {exc}", file=sys.stderr)
        return 2
    doc = {"command": "central", "model": args.model, "x": args.x, "y": args.y}
    try:
        elements = central_hom(model, x, y)
        lin, lin_data = is_lineariser(model)
        cm = central_monoid(model, x, y) if lin else None
    except LinearcatError as exc:
        if args.format == "structured":
            _print_structured(dict(doc, error=str(exc)))
        else:
            print(f"central error: {exc}", file=sys.stderr)
        return 1
    doc["central"] = [list(m.graph) for m in elements]
    lines = [f"Z({args.x}, {args.y}): {len(elements)} central morphism(s)"]
    for k, m in enumerate(elements):
        lines.append(f"  z{k}: {list(m.graph)}")
    doc["lineariser"] = lin
    if lin:
        doc["addition_table"] = [list(row) for row in cm.table]
        doc["unit_index"] = cm.unit_index
        doc["commutative_observed"] = cm.commutative
        lines.append(f"addition table (unit z{cm.unit_index}):")
        header = "      " + " ".join(f"z{k}".rjust(3) for k in range(len(cm.elements)))
        lines.append(header)
        for k, row in enumerate(cm.table):
            lines.append(f"  z{k}: " + " ".join(f"z{v}".rjust(3) for v in row))
        lines.append(f"commutative (observed): {str(cm.commutative).lower()}")
    else:
        doc["witness"] = lin_data
        lines.append(f"no lineariser: {lin_data['reason']}")
    if args.format == "structured":
        _print_structured(doc)
    else:
        print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for field, minimum in (("depth", 1), ("max_size", 1), ("max_units", 0),
                           ("mixed_stride", 1), ("heavy_stride", 1)):
        if getattr(args, field, minimum) < minimum:
            print(f"argument error: --{field.replace('_', '-')} must be"
                  f" at least {minimum}", file=sys.stderr)
            return 2
    for field, maximum in (("depth", MAX_DEPTH), ("max_units", MAX_UNITS)):
        if getattr(args, field, 0) > maximum:
            print(f"argument error: --{field.replace('_', '-')} must be"
                  f" at most {maximum}", file=sys.stderr)
            return 2
    handler = {"word": cmd_word, "check": cmd_check,
               "central": cmd_central, "coherence": cmd_coherence}[args.command]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        status = handler(args)
    try:
        print(out.getvalue(), end="", flush=True)
    except BrokenPipeError:
        # The reader closed stdout early: the verdict stands.  Point fd 1 at
        # os.devnull so that the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
