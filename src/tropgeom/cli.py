"""Command line surface: deterministic JSON (and DOT) outputs, exit status
reflecting check outcomes.

Exit codes: 0 all checks in scope passed, 1 a verification failed (the
report is still written), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .curves import Unstable, build_moduli_complex, check_stable_range, enumerate_stable_graphs
from .pipeline import (
    dr_support,
    figure1_demo,
    product_run,
    single_factor_run,
    two_factor_types,
)
from .tropmaps import ContactData, enumerate_rubber_types


def _parse_contact(text: str):
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SystemExit2(f"bad contact vector {text!r}: {exc}")
    if sum(vec) != 0:
        raise SystemExit2(f"contact vector {text!r} does not sum to zero")
    return vec


class SystemExit2(Exception):
    pass


def _check_range(args):
    try:
        check_stable_range(args.g, args.n)
    except Unstable as exc:
        raise SystemExit2(str(exc))


def _dump(data, args) -> str:
    return json.dumps(data, sort_keys=True, indent=2, separators=(",", ": "))


def _emit(text: str, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_out(report, args) -> int:
    if args.format == "text":
        _emit(report.to_text(), args)
    else:
        _emit(_dump(report.to_json(include_timing=args.timing), args), args)
    return 0 if report.all_passed else 1


def cmd_enumerate_graphs(args) -> int:
    graphs = enumerate_stable_graphs(args.g, args.n)
    if args.format == "dot":
        _emit("\n".join(h.to_dot(f"g{k}") for k, h in enumerate(graphs)), args)
    else:
        _emit(_dump([h.to_json() for h in graphs], args), args)
    return 0


def cmd_moduli_complex(args) -> int:
    built = build_moduli_complex(args.g, args.n)
    data = built.complex.to_json()
    data["graphs"] = {cid: built.graphs[cid].to_json() for cid in built.complex.ids()}
    _emit(_dump(data, args), args)
    return 0


def _contact_from_args(args) -> ContactData:
    vecs = [_parse_contact(a) for a in args.contacts]
    if not vecs:
        raise SystemExit2("at least one contact vector is required")
    lengths = {len(v) for v in vecs}
    if len(lengths) != 1 or lengths != {args.n}:
        raise SystemExit2("contact vectors must all have length n")
    return ContactData(args.g, tuple(vecs))


def cmd_enumerate_maps(args) -> int:
    contact = _contact_from_args(args)
    if contact.num_factors == 1:
        types = enumerate_rubber_types(contact, 0, max_edges=args.max_edges)
    elif contact.num_factors == 2:
        types = [p.map_type for p in two_factor_types(contact, args.max_edges)]
    else:
        raise SystemExit2("at most two factors are supported")
    if args.format == "dot":
        _emit("\n".join(t.to_dot(f"t{k}") for k, t in enumerate(types)), args)
    else:
        _emit(_dump([t.to_json() for t in types], args), args)
    return 0


def cmd_image(args) -> int:
    contact = _contact_from_args(args)
    if contact.num_factors != 1:
        raise SystemExit2("image takes a single contact vector")
    from .tropmaps import build_map_complex
    from .pipeline import image_family

    base = build_moduli_complex(args.g, args.n, args.max_edges)
    mx = build_map_complex(
        enumerate_rubber_types(contact, 0, max_edges=args.max_edges), base
    )
    fam = image_family(mx)
    _emit(_dump(fam.to_json(), args), args)
    return 0


def cmd_subdivide(args) -> int:
    contact = _contact_from_args(args)
    from .tropmaps import build_map_complex
    from .pipeline import build_gamma_subdivision, image_family

    base = build_moduli_complex(args.g, args.n, args.max_edges)
    families = []
    for i in range(contact.num_factors):
        mx = build_map_complex(
            enumerate_rubber_types(contact, i, max_edges=args.max_edges), base
        )
        families.append(image_family(mx))
    sub = build_gamma_subdivision(base, families, args.unimodularize)
    _emit(_dump(sub.to_json(), args), args)
    return 0


def cmd_verify(args) -> int:
    contact = _contact_from_args(args)
    if contact.num_factors == 1:
        report = single_factor_run(
            args.g, args.n, contact.slopes[0], args.unimodularize, args.seed,
            max_edges=args.max_edges,
        )
    elif contact.num_factors == 2:
        report = product_run(
            args.g, args.n, contact.slopes[0], contact.slopes[1],
            args.unimodularize, args.seed, max_edges=args.max_edges,
        )
    else:
        raise SystemExit2("at most two factors are supported")
    return _report_out(report, args)


def cmd_product_check(args) -> int:
    report = product_run(
        args.g, args.n, _parse_contact(args.a1), _parse_contact(args.a2),
        args.unimodularize, args.seed,
    )
    return _report_out(report, args)


def cmd_dr_support(args) -> int:
    contact = _contact_from_args(args)
    if contact.num_factors != 1:
        raise SystemExit2("dr-support takes a single contact vector")
    result = dr_support(
        args.g, args.n, contact.slopes[0], args.unimodularize,
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
        _emit(_dump(data, args), args)
    return 0 if result.report.all_passed else 1


def cmd_figure1(args) -> int:
    report = figure1_demo(args.seed)
    return _report_out(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropgeom",
        description="exact tropical moduli subdivisions and semistability checks",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text", "dot"], default="json")
    common.add_argument("--out", help="write output to a file instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    common.add_argument(
        "--timing", action="store_true", help="include timing in JSON reports"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("enumerate-graphs", cmd_enumerate_graphs, help="stable dual graphs")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)

    p = add("moduli-complex", cmd_moduli_complex, help="the curve moduli complex")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)

    for name, fn, hint in [
        ("enumerate-maps", cmd_enumerate_maps, "rubber map types"),
        ("image", cmd_image, "forgetful image family"),
        ("subdivide", cmd_subdivide, "subdivision making images conical"),
        ("verify", cmd_verify, "hypothesis checks for the given contacts"),
    ]:
        p = add(name, fn, help=hint)
        p.add_argument("g", type=int)
        p.add_argument("n", type=int)
        p.add_argument("contacts", nargs="+", help="contact vectors like 2,-2")
        p.add_argument("--unimodularize", action="store_true")
        p.add_argument(
            "--max-edges", type=int, default=None,
            help="truncate to graphs with at most this many edges",
        )

    p = add("product-check", cmd_product_check, help="two factor hypothesis run")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.add_argument("a1")
    p.add_argument("a2")
    p.add_argument("--unimodularize", action="store_true")

    p = add("dr-support", cmd_dr_support, help="ramification support and codims")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.add_argument("contacts", nargs=1, help="one contact vector like 2,-2")
    p.add_argument("--unimodularize", action="store_true")
    p.add_argument(
        "--max-edges", type=int, default=None,
        help="truncate to graphs with at most this many edges",
    )

    add("figure1", cmd_figure1, help="the worked genus 2 degree 3 example")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "g"):
            _check_range(args)
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
