"""Command-line interface.

Subcommands:

    homology   -- homology of a diagram file (table or JSON)
    jones      -- unnormalized Jones polynomial (skein-resolved if singular)
    skein-check -- verify the crossing-change triangle for a triple of files
    invariance -- all-pairs signature comparison within corpus groups
    corpus     -- print the bundled corpus directory

Exit codes: 0 success, 1 parse/usage error or failed check, 2 internal
contract violation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from importlib import resources

from .diagram import parse
from .errors import ContractViolation, ParseError
from .exactlinalg import Ring
from .frobenius import FrobeniusAlgebra
from .genusone import skein_site, skein_triangle_report
from .invariants import homology_signature, jones_by_skein
from . import __version__

_RINGS = {
    "z": Ring.integers,
    "q": Ring.rationals,
    "f2": lambda: Ring.prime_field(2),
    "f3": lambda: Ring.prime_field(3),
    "f5": lambda: Ring.prime_field(5),
}


def corpus_dir() -> pathlib.Path:
    return pathlib.Path(resources.files("khsing") / "corpus")


def _read_json(path):
    """The JSON value in the UTF-8 file at ``path``.  ValueError covers bad
    bytes and bad JSON; RecursionError, nesting deeper than the
    interpreter's limit."""
    try:
        return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _load(path: str):
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ParseError("diagram JSON must be an object with a 'pd' field")
    if obj.get("name") is None:
        obj = {**obj, "name": pathlib.Path(path).stem}
    return parse(obj)


def _add_ring_args(p):
    p.add_argument("--ring", choices=sorted(_RINGS), default="z",
                   help="coefficient ring (default: z)")
    p.add_argument("--h", type=int, default=0, metavar="H",
                   help="deformation parameter h (default 0)")
    p.add_argument("--t", type=int, default=0, metavar="T",
                   help="deformation parameter t (default 0)")


def cmd_homology(args) -> int:
    d = _load(args.diagram)
    ring = _RINGS[args.ring]()
    summary = homology_signature(d, ring, args.h, args.t)
    if args.format == "json":
        out = {"diagram": d.name, "h": args.h, "t": args.t}
        out.update(summary.to_json_dict())
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"# {d.name}: homology over {ring} at (h, t) = "
              f"({args.h}, {args.t})")
        print(summary.format_table())
    return 0


def cmd_jones(args) -> int:
    d = _load(args.diagram)
    poly = jones_by_skein(d)
    print(json.dumps(poly.to_json_dict(), sort_keys=True))
    return 0


def cmd_skein_check(args) -> int:
    d_minus = _load(args.minus)
    d_plus = _load(args.plus)
    d_sing = _load(args.sing)
    try:
        b = skein_site(d_minus, d_plus, d_sing)
    except ContractViolation as e:
        raise ParseError(f"triple does not match at one site: {e}") from None
    if d_minus.crossing_sign(b) > 0:
        # equal diagrams may differ in the orientation of a component that
        # passes over everywhere, which a file records only in over_entry
        raise ParseError(f"{args.minus} is positive at the double point's "
                         f"crossing {b}; the first diagram must be negative")
    ring = _RINGS[args.ring]()
    if not ring.is_field:
        ring = Ring.rationals()
    report = skein_triangle_report(d_minus, d_plus, d_sing,
                                   FrobeniusAlgebra(ring, args.h, args.t))
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return 0 if report.ok else 1


def _load_groups(root: pathlib.Path) -> list:
    """The groups of ``root/groups.json``, each with a name and files."""
    path = root / "groups.json"
    spec = _read_json(path)
    groups = spec.get("groups") if isinstance(spec, dict) else None
    if not isinstance(groups, list) or not all(
            isinstance(g, dict) and isinstance(g.get("name"), str)
            and isinstance(g.get("files"), list) and g["files"]
            for g in groups):
        raise ParseError(f"{path}: \"groups\" must list objects, each with "
                         "a \"name\" and a nonempty list of \"files\"")
    return groups


def cmd_invariance(args) -> int:
    root = pathlib.Path(args.corpus) if args.corpus else corpus_dir()
    groups = _load_groups(root)
    ring = _RINGS[args.ring]()
    mismatches = 0
    for group in groups:
        sigs = []
        for name in group["files"]:
            d = _load(str(root / f"{name}.json"))
            sigs.append((name, homology_signature(d, ring, args.h, args.t)))
        base_name, base = sigs[0]
        bad = [name for name, s in sigs[1:] if s != base]
        status = "ok" if not bad else f"MISMATCH vs {base_name}: {bad}"
        print(f"{group['name']:>14}: {status}")
        mismatches += len(bad)
    return 0 if mismatches == 0 else 1


def cmd_corpus(args) -> int:
    print(corpus_dir())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="khsing",
        description="Khovanov-type homology of (singular) link diagrams")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("homology", help="homology of a diagram")
    ph.add_argument("diagram")
    _add_ring_args(ph)
    ph.add_argument("--format", choices=("table", "json"), default="table")
    ph.set_defaults(func=cmd_homology)

    pj = sub.add_parser("jones", help="unnormalized Jones polynomial")
    pj.add_argument("diagram")
    pj.set_defaults(func=cmd_jones)

    ps = sub.add_parser("skein-check",
                        help="verify a crossing-change triple")
    ps.add_argument("minus")
    ps.add_argument("plus")
    ps.add_argument("sing")
    _add_ring_args(ps)
    ps.set_defaults(func=cmd_skein_check)

    pi = sub.add_parser("invariance",
                        help="signature comparison across isotopy groups")
    pi.add_argument("--corpus", default=None,
                    help="corpus directory (default: bundled)")
    _add_ring_args(pi)
    pi.set_defaults(func=cmd_invariance)

    pc = sub.add_parser("corpus", help="print the bundled corpus path")
    pc.set_defaults(func=cmd_corpus)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ContractViolation as e:
        print(f"internal contract violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
