"""Command line interface: machine-readable JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 verification failure, 2 bad input.
"""

import argparse
import json
import sys

from .chow import _default_retraction, _recipe_tail, build_setup, pp_from_weights, projectivize
from .divisors import fansy_equal
from .grassmann import MAX_N, fansy_closed_form, fansy_via_recipe, tail_fan
from .lattice import LatticeMap
from .polyhedra import RefinementGuardExceeded, induced_subdivision
from .verify import run_battery


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def max_chambers(text):
    """The value of --max-chambers: an integer >= 1 (argparse exits 2 on anything else)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def load_weights(path):
    """The weight matrix of a weight file; ValueError on anything but integer weights."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("weight file must be a JSON object with lattice_rank and weights")
    rank = data.get("lattice_rank")
    weights = data.get("weights")
    if not _is_int(rank) or rank < 1:
        raise ValueError(f"lattice_rank must be an integer >= 1, got {rank!r}")
    if not isinstance(weights, list) or not weights:
        raise ValueError("weights must be a nonempty list")
    for w in weights:
        if not isinstance(w, list) or len(w) != rank:
            raise ValueError(f"every weight must have lattice_rank entries, got {w!r}")
        if not all(_is_int(x) for x in w):
            raise ValueError(f"weight entries must be integers, got {w!r}")
    rows = tuple(tuple(w[r] for w in weights) for r in range(rank))
    return LatticeMap(rows, "E", "M")


def load_rays(path, rank):
    """The rays of a ray file: a nonempty list of lists of `rank` entries.

    ValueError naming the first ray of the wrong shape; `pp_from_weights`
    rejects the rays whose entries are not integers.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError("ray file must hold a nonempty list of rays")
    for r in data:
        if not isinstance(r, list) or len(r) != rank:
            raise ValueError(f"every ray must have {rank} entries, got {r!r}")
    return [tuple(r) for r in data]


def emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def parse_vector(text):
    return tuple(int(x) for x in text.replace(",", " ").split())


def cmd_tailfan(args):
    fan = tail_fan(args.k, args.n)
    emit(fan.to_json())
    return 0


def cmd_setup(args):
    setup = build_setup(load_weights(args.weights))
    emit({
        "pi": setup.pi.to_json(),
        "section": setup.section.to_json(),
        "dual_embedding": setup.dstar.to_json(),
        "tail_cone": _recipe_tail(_default_retraction(setup), setup.dstar).to_json(),
        "degree_element": list(setup.degree_element) if setup.degree_element else None,
        "image_saturated": setup.saturated,
    })
    return 0


def cmd_ppdivisor(args):
    setup = build_setup(load_weights(args.weights))
    rays = load_rays(args.rays, setup.pi.rows) if args.rays else None
    recipe = pp_from_weights(setup, rays=rays, max_chambers=args.max_chambers)
    out = recipe.divisor.to_json()
    out["rays"] = [{"label": l.to_json(), "ray": list(c)} for l, c in recipe.rays]
    emit(out)
    return 0


def cmd_projectivize(args):
    setup = build_setup(load_weights(args.weights))
    recipe = pp_from_weights(setup, max_chambers=args.max_chambers)
    fansy = projectivize(setup, recipe)
    emit(fansy.to_json())
    return 0


def cmd_fansy(args):
    if args.n > args.max_n:
        raise ValueError(f"n={args.n} beyond --max-n={args.max_n}")
    if args.method == "closed":
        emit(fansy_closed_form(args.n).to_json())
        return 0
    if args.method == "recipe":
        emit(fansy_via_recipe(args.n, max_n=args.max_n).to_json())
        return 0
    closed = fansy_closed_form(args.n)
    recipe = fansy_via_recipe(args.n, max_n=args.max_n)
    equal, matching = fansy_equal(closed, recipe)
    out = {
        "equal": equal,
        "closed": closed.to_json(),
        "recipe": recipe.to_json(),
    }
    if equal:
        out["cell_matching"] = [{"closed": list(k), "recipe": list(v)}
                                for k, v in sorted(matching.items())]
    else:
        out["mismatch"] = matching
    emit(out)
    return 0 if equal else 1


def cmd_verify(args):
    results = run_battery(args.n)
    for name, passed, detail in results:
        sys.stderr.write(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}\n")
    emit({"n": args.n,
          "pass": all(p for _, p, _ in results),
          "criteria": [{"name": n_, "pass": p, "detail": d} for n_, p, d in results]})
    return 0 if all(p for _, p, _ in results) else 1


def cmd_subdivision(args):
    setup = build_setup(load_weights(args.weights))
    c = parse_vector(args.c)
    heights = setup.section.apply(c)
    points = [setup.deg.column(j) for j in range(setup.deg.cols)]
    sub = induced_subdivision(setup.deg.codomain, points, heights)
    emit(sub.to_json())
    return 0


def cmd_localcheck(args):
    from .grassmann import local_chart_report
    rep = local_chart_report(args.n)
    emit(rep.to_json())
    return 0 if rep.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppfan",
        description="Exact polyhedral and fansy divisors of torus varieties from weight data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tailfan", help="sign-pattern tail fan of the (k,n) Grassmannian")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_tailfan)

    p = sub.add_parser("setup", help="derived exact-sequence data for a weight matrix")
    p.add_argument("--weights", required=True)
    p.set_defaults(fn=cmd_setup)

    p = sub.add_parser("ppdivisor", help="divisor of the affine cone from a weight matrix")
    p.add_argument("--weights", required=True)
    p.add_argument("--rays", help="JSON file with an explicit list of rays")
    p.add_argument("--max-chambers", type=max_chambers, default=10000,
                   help="guard on the number of chambers of the quotient fan")
    p.set_defaults(fn=cmd_ppdivisor)

    p = sub.add_parser("projectivize", help="fansy divisor of the projectivized variety")
    p.add_argument("--weights", required=True)
    p.add_argument("--max-chambers", type=max_chambers, default=10000)
    p.set_defaults(fn=cmd_projectivize)

    p = sub.add_parser("fansy", help="Gr(2,n) fansy divisor, closed form and/or recipe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["closed", "recipe", "both"], default="both")
    p.add_argument("--max-n", type=int, default=MAX_N)
    p.set_defaults(fn=cmd_fansy)

    p = sub.add_parser("verify", help="run the full verification battery for one n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("subdivision", help="regular subdivision induced by a ray")
    p.add_argument("--weights", required=True)
    p.add_argument("--c", required=True, help="ray coordinates, comma or space separated")
    p.set_defaults(fn=cmd_subdivision)

    p = sub.add_parser("localcheck", help="chart comparison diagram report")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_localcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RefinementGuardExceeded:
        # the library's message names its argument; here the flag is what to change
        sys.stderr.write(f"error: more than {args.max_chambers} chambers "
                         "(raise --max-chambers to force)\n")
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
