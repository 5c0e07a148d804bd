"""Command-line front end.

Subcommands cover construction, facet enumeration, f-vectors, verification,
the n = d+1 classification, the surgery counter-example, and the embedded
ambiguity witnesses.  Output is canonical JSON (sorted keys) unless a text
format is requested; identical invocations produce byte-identical output.
Exit status is 0 exactly when every requested check passes.

The argument parser, ``PARSER``, is the one object built at import: it
depends on no input, and each ``parse_args`` call returns a fresh namespace.
Every computation is still redone on each ``main`` call.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import classify as classify_mod
from . import gale, signvec, surgery
from .deformed import projected_cube, shadow_incidence
from .errors import NcpolyError
from .polytope import f_vector, is_cubical
from .skeleton import dehn_sommerville_check, verify_skeleton_equivalence


def _emit(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(args, obj):
    _emit(args, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fraction(text):
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    return f


def cmd_construct(args):
    pc = projected_cube(args.n, args.d, args.epsilon)
    _dump(
        args,
        {
            "n": pc.n,
            "d": pc.d,
            "epsilon": str(pc.epsilon),
            "hrep": pc.hrep.to_json_dict(),
            "cube_vertices": pc.cube.to_json_dict(),
            "shadow": pc.shadow.to_json_dict(),
        },
    )
    return 0


def cmd_facets(args):
    alphas = gale.facets_gale(args.n, args.d)
    if args.format == "signed":
        lines = [
            " ".join(f"{a:+d}" for a in sorted(alpha, key=abs)) for alpha in alphas
        ]
        _emit(args, "\n".join(lines) + "\n")
    elif args.format == "signvector":
        lines = [signvec.fmt(gale.to_sign_vector(a, args.n)) for a in alphas]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _dump(
            args,
            {
                "n": args.n,
                "d": args.d,
                "count": len(alphas),
                "formula": gale.f_formula(args.n, args.d),
                "facets": [
                    {
                        "alpha": sorted(a, key=abs),
                        "sign_vector": signvec.fmt(gale.to_sign_vector(a, args.n)),
                    }
                    for a in alphas
                ],
            },
        )
    return 0


def cmd_fvector(args):
    pc = projected_cube(args.n, args.d, args.epsilon)
    inc = shadow_incidence(pc)
    fv = f_vector(inc)
    _dump(
        args,
        {
            "n": args.n,
            "d": args.d,
            "epsilon": str(pc.epsilon),
            "f_vector": list(fv),
            "dehn_sommerville": dehn_sommerville_check(fv, args.d),
        },
    )
    return 0


def cmd_verify(args):
    n, d = args.n, args.d
    r = args.r if args.r is not None else d // 2 - 1
    pc = projected_cube(n, d, args.epsilon)
    inc = shadow_incidence(pc)
    fv = f_vector(inc)
    # shadow vertex i is cube vertex ids[i], bit j set where labels[i][j] is +1;
    # the labels are distinct, so each facet's sum of ID bits is their OR
    ids = [sum(1 << j for j, s in enumerate(lab) if s == 1) for lab in inc.labels]
    oracle_masks = {sum(1 << ids[i] for i in signvec.members(f)) for f in inc.facets}
    checks = {
        "facet_count_matches_formula": inc.facet_count == gale.f_formula(n, d),
        "facets_match_combinatorial": oracle_masks == gale.facet_vertex_masks(n, d),
        "cubical": is_cubical(inc),
        "dehn_sommerville": dehn_sommerville_check(fv, d),
        f"skeleton_equivalence_r{r}": verify_skeleton_equivalence(inc, n, r),
    }
    if n > d:
        checks[f"skeleton_breaks_r{d // 2}"] = not verify_skeleton_equivalence(
            inc, n, d // 2
        )
    report = {
        "n": n,
        "d": d,
        "epsilon": str(pc.epsilon),
        "r": r,
        "f_vector": list(fv),
        "checks": checks,
        "pass": all(checks.values()),
    }
    _dump(args, report)
    return 0 if report["pass"] else 1


def cmd_classify(args):
    d = args.d
    triples = classify_mod.valid_triples(d)
    report = classify_mod.ubc_polytope_case(d)
    _dump(
        args,
        {
            "d": d,
            "triples": [
                {"klm": list(t), "f_vector": list(classify_mod.pklm_fvector(d, t))}
                for t in triples
            ],
            "triple_count": len(triples),
            "neighborly": [list(t) for t in classify_mod.neighborly_triples(d)],
            "ubc_relations_checked": report.checked,
            "ubc_pass": report.ok,
        },
    )
    return 0 if report.ok else 1


def cmd_surgery(args):
    base = surgery.boundary_complex()
    psi = surgery.build_psi(base)
    report = surgery.verify_sphere_like(psi)
    degrees = surgery.chain_edge_facet_degrees()
    out = {
        "f_vector": list(psi.f_vector()),
        "base_f_vector": list(base.f_vector()),
        "facets": sorted(sorted(signvec.members(f)) for f in psi.facets()),
        "sphere_checks": {
            "ridges_in_two_facets": report.ridges_in_two_facets,
            "connected": report.connected,
            "euler_characteristic_zero": report.euler_zero,
            "vertex_links": report.links_ok,
        },
        "chain_edge_degrees": sorted(degrees.values()),
        "pass": report.ok,
    }
    _dump(args, out)
    return 0 if report.ok else 1


def cmd_examples(args):
    cub, noncub = classify_mod.verify_ambiguity_witnesses()
    ok = (
        cub.ok
        and cub.cubical
        and cub.cube_facet_at_base
        and noncub.ok
        and not noncub.cubical
        and noncub.large_facet_sizes == [12]
    )
    _dump(
        args,
        {
            "cubical_witness": {
                "all_32_points_are_vertices": cub.all_vertices,
                "graph_is_5_cube": cub.cube_graph,
                "cubical": cub.cubical,
                "base_facet_is_3_cube": cub.cube_facet_at_base,
            },
            "noncubical_witness": {
                "all_32_points_are_vertices": noncub.all_vertices,
                "graph_is_5_cube": noncub.cube_graph,
                "cubical": noncub.cubical,
                "facets_with_more_than_8_vertices": noncub.large_facet_sizes,
            },
            "pass": ok,
        },
    )
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ncpoly",
        description="Exact construction and verification of neighborly cubical polytopes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_nd(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--epsilon", type=_fraction, default=None, help="rational like 1/4")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("construct", help="deformed cube, certificate, projection")
    add_nd(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("facets", help="combinatorial facet enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("signed", "signvector", "json"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("fvector", help="f-vector of the projected polytope")
    add_nd(p)
    p.set_defaults(func=cmd_fvector)

    p = sub.add_parser("verify", help="skeleton / cubicality / oracle checks")
    add_nd(p)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="liftable family report for n = d+1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("surgery", help="build and certify the surgered sphere")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("examples", help="the two 32-vertex ambiguity witnesses")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_examples)

    return ap


PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (NcpolyError, ValueError, OSError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
            sort_keys=True,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
