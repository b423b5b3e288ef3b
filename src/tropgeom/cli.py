"""Command line surface: deterministic JSON (and DOT) outputs, exit status
reflecting check outcomes.

Exit codes: 0 all checks in scope passed, 1 a verification failed (the
report is still written), 2 malformed input, an option the command does
not take, or an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .curves import Unstable, build_moduli_complex, check_stable_range, enumerate_stable_graphs
from .pipeline import (
    build_gamma_subdivision,
    contact_families,
    contact_types,
    dr_support,
    figure1_demo,
    run_contacts,
)


def _parse_contact(text: str):
    """A comma separated contact vector; the empty string is the n = 0 vector."""
    try:
        vec = tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError as exc:
        raise SystemExit2(f"bad contact vector {text!r}: {exc}")
    if sum(vec) != 0:
        raise SystemExit2(f"contact vector {text!r} does not sum to zero")
    return vec


class SystemExit2(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are malformed input: one line, exit 2."""

    def error(self, message):
        raise SystemExit2(message)


def _check_range(args):
    try:
        check_stable_range(args.g, args.n)
    except Unstable as exc:
        raise SystemExit2(str(exc))


def _check_options(args):
    if args.format not in args.formats:
        raise SystemExit2(f"{args.command} does not take --format {args.format}")
    if getattr(args, "max_edges", None) is not None and args.max_edges < 0:
        raise SystemExit2(f"--max-edges must be at least 0, not {args.max_edges}")
    if getattr(args, "timing", False) and args.format == "text":
        raise SystemExit2("--timing needs --format json")
    if args.out:
        _check_out(args.out)


def _check_out(path: str):
    """Refuse an --out path that cannot become a file before any work is done:
    a directory, or a path whose directory is missing.  Nothing is opened or
    created here; what only `open` can see (permissions) is left to the write.
    Raises the OSError that `open` would, so `main` prints the same line."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, separators=(",", ": "))


def _emit(text: str, args):
    """Write the output to --out or stdout.  A failed write names where it
    went: an OSError raised by a write, unlike one raised by `open`, carries
    no file name."""
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = args.out or "<stdout>"
        raise


def _report_out(report, args) -> int:
    if args.format == "text":
        _emit(report.to_text(), args)
    else:
        _emit(_dump(report.to_json(include_timing=args.timing)), args)
    return 0 if report.all_passed else 1


def cmd_enumerate_graphs(args) -> int:
    graphs = enumerate_stable_graphs(args.g, args.n)
    if args.format == "dot":
        _emit("\n".join(h.to_dot(f"g{k}") for k, h in enumerate(graphs)), args)
    else:
        _emit(_dump([h.to_json() for h in graphs]), args)
    return 0


def cmd_moduli_complex(args) -> int:
    built = build_moduli_complex(args.g, args.n)
    data = built.complex.to_json()
    data["graphs"] = {cid: built.graphs[cid].to_json() for cid in built.complex.ids()}
    _emit(_dump(data), args)
    return 0


def _no_unimodularize(args):
    if args.unimodularize:
        raise SystemExit2(f"{args.command} does not take --unimodularize")


def _vectors(args):
    return [_parse_contact(a) for a in args.contacts]


def _families(args):
    return contact_families(args.g, args.n, _vectors(args), args.max_edges)


def cmd_enumerate_maps(args) -> int:
    _no_unimodularize(args)
    _, types, _ = contact_types(args.g, args.n, _vectors(args), args.max_edges)
    types = types.get("Z", types["X"])
    if args.format == "dot":
        _emit("\n".join(t.to_dot(f"t{k}") for k, t in enumerate(types)), args)
    else:
        _emit(_dump([t.to_json() for t in types]), args)
    return 0


def cmd_image(args) -> int:
    if len(args.contacts) != 1:
        raise SystemExit2("image takes a single contact vector")
    _no_unimodularize(args)
    fam = _families(args).families["X"]
    _emit(_dump(fam.to_json()), args)
    return 0


def cmd_subdivide(args) -> int:
    cf = _families(args)
    sub = build_gamma_subdivision(cf.base, list(cf.families.values()), args.unimodularize)
    _emit(_dump(sub.to_json()), args)
    return 0


def cmd_verify(args) -> int:
    report = run_contacts(
        args.g, args.n, _vectors(args), args.unimodularize, args.seed,
        max_edges=args.max_edges,
    )
    return _report_out(report, args)


def cmd_dr_support(args) -> int:
    result = dr_support(
        args.g, args.n, _parse_contact(args.contacts[0]), args.unimodularize,
        max_edges=args.max_edges,
    )
    data = result.report.to_json(include_timing=args.timing)
    data["support"] = result.subset.to_json()
    data["strata"] = result.strata
    if args.format == "text":
        lines = [result.report.to_text()]
        for s in result.strata:
            lines.append(
                f"stratum @ {s['host']}: support dim {s['support_dim']} in "
                f"host dim {s['host_dim']} (codim {s['codim']})"
            )
        _emit("\n".join(lines), args)
    else:
        _emit(_dump(data), args)
    return 0 if result.report.all_passed else 1


def cmd_figure1(args) -> int:
    report = figure1_demo(args.seed)
    return _report_out(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropgeom",
        description="exact tropical moduli subdivisions and semistability checks",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text", "dot"], default="json")
    common.add_argument("--out", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats, **kwargs):
        # formats: the --format values the command renders
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(fn=fn, formats=formats)
        return p

    p = add("enumerate-graphs", cmd_enumerate_graphs, ("json", "dot"), help="stable dual graphs")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)

    p = add("moduli-complex", cmd_moduli_complex, ("json",), help="the curve moduli complex")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)

    for name, fn, formats, nargs, hint in [
        ("enumerate-maps", cmd_enumerate_maps, ("json", "dot"), "+", "rubber map types"),
        ("image", cmd_image, ("json",), "+", "forgetful image family"),
        ("subdivide", cmd_subdivide, ("json",), "+", "subdivision making images conical"),
        ("verify", cmd_verify, ("json", "text"), "+", "hypothesis checks for the given contacts"),
        ("product-check", cmd_verify, ("json", "text"), 2, "two factor hypothesis run"),
        ("dr-support", cmd_dr_support, ("json", "text"), 1, "ramification support and codims"),
    ]:
        p = add(name, fn, formats, help=hint)
        p.add_argument("g", type=int)
        p.add_argument("n", type=int)
        p.add_argument("contacts", nargs=nargs, help='contact vectors like 2,-2, or "" for n = 0')
        p.add_argument("--unimodularize", action="store_true")
        p.add_argument(
            "--max-edges", type=int, default=None,
            help="truncate to graphs with at most this many edges",
        )

    add("figure1", cmd_figure1, ("json", "text"), help="the worked genus 2 degree 3 example")
    for name in ("verify", "product-check", "figure1"):
        sub.choices[name].add_argument(
            "--seed", type=int, default=0, help="seed for sampled checks"
        )
    for name in ("verify", "product-check", "dr-support", "figure1"):
        sub.choices[name].add_argument(
            "--timing", action="store_true", help="include timing in JSON reports"
        )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        if hasattr(args, "g"):
            _check_range(args)
        return args.fn(args)
    except (SystemExit2, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
