"""Reproducible experiment CLI.

One subcommand per experiment family. Every run writes a JSON report that
embeds the fully resolved config (defaults included) and, optionally, a
plot-ready CSV with fixed per-subcommand columns (documented in each
subcommand's --help). Rerunning with the same config and seed reproduces the
report byte-for-byte except for the "timing" block.

Exit codes: 0 success, 1 usage or invalid parameters, 2 verification failure
(e.g. a complete-bipartite witness where freeness was expected), 3 resource
or retry-cap errors.
"""

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .errors import ConstructionFailure, DomainError, ResourceLimitError
from .rng import Rng
from .gf import FieldCtx
from .mpoly import _check_enum_cap, domain_points, matmul_mod, parse_poly, sample_uniform
from . import bigraph
from .bigraph import BipartiteGraph, find_induced_pattern
from . import patterns as patmod
from . import geometry as geo
from . import constructions as cons

USAGE_EXIT, VERIFY_EXIT, RESOURCE_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def nonnegative_int(text: str) -> int:
    """argparse type of the size, count and degree flags: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx, my = sum(lx) / n, sum(ly) / n
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def _config_dict(args) -> dict:
    return {
        k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")
    }


def _write_outputs(args, body: dict, rows) -> None:
    report = {"bound": {}, "retries": {}, "flags": [], **body}  # defaults of every command
    report["config"] = _config_dict(args)
    report["timing"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_s": round(time.perf_counter() - args._t0, 6),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.csv and rows is not None:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(args._csv.split(","))  # the columns of the --help epilog
            w.writerows(rows)


def _read_input(path) -> str:
    """Text of an input file; a file that cannot be read as text is a usage error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None


def _load_json(path, counts, index_lists) -> dict:
    """JSON object whose `counts` keys hold nonnegative ints and whose
    `index_lists` keys hold lists of lists of nonnegative ints."""
    text = _read_input(path)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"{path} is not JSON: {exc}") from None

    def count(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    if not (
        isinstance(data, dict)
        and all(count(data.get(k)) for k in counts)
        and all(
            isinstance(data.get(k), list)
            and all(isinstance(row, list) and all(map(count, row)) for row in data[k])
            for k in index_lists
        )
    ):
        raise DomainError(
            f"{path} needs nonnegative integers {', '.join(counts)} and "
            f"lists of nonnegative integers {', '.join(index_lists)}"
        )
    return data


# -- subcommands -------------------------------------------------------------


def cmd_zarankiewicz(args, rng):
    inst = cons.random_algebraic_graph(args.p, args.d1, args.d2, args.m, args.n, args.s, rng)
    rep = inst.report
    return asdict(rep), [[args.p, args.d1, args.d2, args.m, args.n, args.s, args.seed,
                          rep.achieved["edges"], rep.bound["edges_min"],
                          rep.verification["outcome"]]]


def _check_draw_vars(nvars: int):
    if nvars < 1:
        raise DomainError(f"need --vars >= 1 for random polynomials, got --vars {nvars}")


def cmd_zero_patterns(args, rng):
    ctx = FieldCtx.prime(args.p)
    if args.fixture:
        lines = _read_input(args.fixture).splitlines()
        polys = [parse_poly(ln, ctx) for ln in lines if ln.strip()]
        if len(polys) != args.k:
            raise DomainError(f"fixture has {len(polys)} polynomials, --k is {args.k}")
        for f in polys:
            if f.nvars != args.vars:
                raise DomainError(f"fixture polynomial in {f.nvars} variables, --vars is {args.vars}")
            if f.total_degree > args.degree:
                raise DomainError(
                    f"fixture polynomial of degree {f.total_degree} exceeds --degree {args.degree}"
                )
    else:
        _check_draw_vars(args.vars)
        polys = [
            sample_uniform(ctx, args.vars, args.degree, rng.derive(i))
            for i in range(args.k)
        ]
    fam = patmod.zero_patterns(polys)
    report = patmod.family_report(fam, polys, kind="zero-patterns")
    body = {
        "achieved": {"pattern_count": fam.count},
        "bound": {"rbg": report["bound_rbg"], "tight_form": report["bound_paper"]},
        "verification": {"bound_rbg_ok": fam.count <= report["bound_rbg"]},
        "family": report,
    }
    rows = [[",".join(map(str, e["subset"])), ",".join(map(str, e["witness"]))]
            for e in report["patterns"]]
    return body, rows


def cmd_containment_patterns(args, rng):
    ctx = FieldCtx.prime(args.p)
    _check_draw_vars(args.vars)
    systems = [
        [
            sample_uniform(ctx, args.vars, args.degree, rng.derive(i * args.t + j))
            for j in range(args.t)
        ]
        for i in range(args.k)
    ]
    counts = []
    for kk in range(1, args.k + 1):
        fam = patmod.containment_patterns(systems[:kk])  # the last one is the whole family
        counts.append(fam.count)
    flat = [f for sy in systems for f in sy]
    zp = patmod.zero_patterns(flat).count  # no polynomials (--k 0) raise here
    slope = _loglog_slope(range(2, args.k + 1), counts[1:]) if args.k >= 3 else None
    body = {
        "achieved": {"counts_by_prefix": counts, "zero_pattern_count": zp,
                     "loglog_slope": slope},
        "bound": {"rbg_flat": patmod.bound_with_ambient(len(flat), args.degree, args.vars)},
        "verification": {"monotone": all(a <= b for a, b in zip(counts, counts[1:])),
                         "dominated_by_zero_patterns": counts[-1] <= zp},
        "family": patmod.family_report(fam, flat, kind="containment-patterns"),
    }
    return body, [[kk + 1, c] for kk, c in enumerate(counts)]


def cmd_shatter(args, rng):
    if args.input:
        data = _load_json(args.input, ("ground",), ("members",))
        system = patmod.SetSystem(data["ground"], data["members"])
    elif args.graph:
        g = bigraph.parse_graph(_read_input(args.graph))
        if args.side == "a":
            system = patmod.SetSystem(g.n, g.rows)
        else:
            system = patmod.SetSystem(g.m, g.cols)
    else:
        raise DomainError("shatter needs --input or --graph")
    counters = {"shatter_subsets": 0}
    value = patmod.shatter_function(system, args.k, counters=counters)
    body = {
        "achieved": {"shatter": value},
        "bound": {"trivial_max": min(2**args.k, len(system.members) + 1)},
        "verification": {},
        "counters": counters,
    }
    return body, [[args.k, value]]


def cmd_zero_count(args, rng):
    res = cons.zero_count_experiment(args.p, args.vars, args.degree, args.trials, rng)
    body = {
        "achieved": {"fraction": res.fraction, "mean_zeros": res.mean},
        "bound": {"zeros_min": res.threshold, "fraction_min": 0.70,
                  "fraction_expected": 0.75},
        "verification": {"fraction_ok": res.fraction >= 0.70},
        "flags": ["0.70 asserts the 3/4 guarantee with statistical slack"],
    }
    return body, [[t, c, int(2 * c >= args.p ** (args.vars - 1))]
                  for t, c in enumerate(res.counts)]


def cmd_point_variety(args, rng):
    inst = cons.point_variety_instance(args.m, args.alpha, args.dim, rng)
    return asdict(inst.report), [[qi, deg, zc] for qi, (deg, zc) in
                                 enumerate(zip(inst.section_degrees, inst.incident_points))]


def cmd_unit_distance(args, rng):
    inst = cons.unit_distance_instance(
        args.n, args.d, rng, p=args.p, s=args.s, strategy=args.strategy
    )
    rep = inst.report
    a = rep.achieved
    return asdict(rep), [[rep.params["p"], args.d, a["U_size"], a["P_size"], a["cross_pairs"],
                          a["unit_distances"], rep.bound["cross_pairs_min"],
                          rep.verification["outcome"]]]


def cmd_sphere_geometry(args, rng):
    if args.kmax < 2:
        raise DomainError("--kmax must be >= 2: each family intersects at least two spheres")
    ctx = FieldCtx.prime(args.p)
    p, d = args.p, args.d
    _check_enum_cap(p, d)  # the sphere tables' cap, before the form and any draw
    form = geo.BilinearForm.standard(ctx, d)
    families = []
    for fi in range(args.families):
        r = rng.derive(fi)
        # k centers, each a row of domain_points(p, d) drawn by its index and
        # decoded without the grid
        drawn = [r.randbelow(p**d) for _ in range(2 + r.randbelow(args.kmax - 1))]
        families.append([geo.Sphere(form, tuple(c)) for c in geo.lex_points(drawn, p, d).tolist()])
    verdicts = geo.sphere_family_check(families, geo.intersection_flats(families)) if families else []
    rows = [[fi, len(f), int(i_ok), int(o_ok)] for fi, (f, (i_ok, o_ok)) in enumerate(zip(families, verdicts))]
    failures = sum(not (i_ok and o_ok) for i_ok, o_ok in verdicts)
    counters = {"flat_pairs": 0}
    flats_report = geo.flats_in_sphere_check(geo.Sphere(form, (0,) * d), args.flat_dim_cap, counters=counters)
    pair_checked = d % 2 == 1
    pair = geo.isotropic_unit_pair_search(geo.BilinearForm.for_dim(ctx, d), counters) if pair_checked else None
    pair_expected_none = args.p % 4 == 3
    pair_ok = (pair is None) if (pair_checked and pair_expected_none) else True
    body = {
        "achieved": {
            "families": args.families,
            "identity_failures": failures,
            "flats_in_unit_sphere": sum(flats_report.counts),
            "flats_all_pass": flats_report.all_pass,
            "isotropic_unit_pair_found": pair is not None if pair_checked else None,
        },
        "verification": {
            "identities_ok": failures == 0,
            "flats_ok": flats_report.all_pass,
            "pair_absence_ok": pair_ok,
        },
        "flags": [] if pair_expected_none or not pair_checked
        else ["p = 1 (mod 4): pair search outcome is informational"],
        "counters": counters,
    }
    return body, rows


def cmd_pattern_scan(args, rng):
    ctx = FieldCtx.prime(args.p)
    p, d = args.p, args.d
    if args.pattern == "tree" and d < 3:
        raise DomainError(f"--pattern tree needs --d >= 3, got --d {d}")
    npoints = _check_enum_cap(p, d)
    # rows are the points of F_p^d in lex order; host_block builds the rows
    # `points` against the columns with the given indices, so a sub-host
    # never needs the whole host
    if args.pattern == "pi":
        form = geo.BilinearForm.standard(ctx, d)
        ncols = npoints

        def host_block(points, cols):  # unit spheres centered on grid points
            return geo.point_sphere_incidence(points, geo.lex_points(cols, p, d), form)

        pat = bigraph.staircase_pattern(d + 1)
    else:
        # column (normal, c) holds the points with <point, normal> = c; the
        # normals are the points whose first nonzero coordinate is 1, in lex
        # order: before[e] = (p^e - 1) / (p - 1) of them have fewer than e
        # free coordinates, and the i-th with e free ones has lex code p^e + i
        ncols = (npoints - 1) // (p - 1) * p
        before = np.array([(p**e - 1) // (p - 1) for e in range(d)], dtype=np.int64)

        def host_block(points, cols):
            cols = np.asarray(cols, dtype=np.int64)
            nidx, col_normal = np.unique(cols // p, return_inverse=True)
            free = np.searchsorted(before, nidx, side="right") - 1
            normals = geo.lex_points(nidx - before[free] + p**free, p, d)
            # one product per distinct normal, spread to its columns in the
            # smallest dtype that holds the residues
            dots = matmul_mod(points, normals.T, p).astype(np.min_scalar_type(p))
            return BipartiteGraph.from_bool_matrix(dots[:, col_normal] == cols % p)

        pat = bigraph.prefix_tree_pattern(d - 1, 1)
    rows = []
    found_any = False
    counters = {"pattern_nodes": 0, "rooted_searches": 0}
    if args.full_scan:
        host = host_block(domain_points(p, d), np.arange(ncols))
        # the translations of F_p^d permute the points and the grid-centered
        # spheres, and AGL(d, p) the points and the hyperplanes, one column
        # each, transitively: an embedding exists iff one maps the first
        # pattern vertex to vertex 0 of its class
        counters["rooted_searches"] += 1
        hit = find_induced_pattern(host, pat, counters=counters, rooted=True)
        found_any |= hit is not None
        rows.append(["full", int(hit is not None)])
    for hi in range(args.hosts):
        r = rng.derive(hi)
        ridx = r.sample_indices(npoints, min(args.host_size, npoints))
        cidx = r.sample_indices(ncols, min(args.host_size, ncols))
        hit = find_induced_pattern(host_block(geo.lex_points(ridx, p, d), cidx), pat,
                                   counters=counters)
        found_any |= hit is not None
        rows.append([hi, int(hit is not None)])
    body = {
        "achieved": {"pattern": args.pattern, "pattern_shape": [pat.a, pat.b],
                     "host_shape": [npoints, ncols], "found": found_any},
        "verification": {"pattern_absent": not found_any},
        "counters": counters,
    }
    return body, rows


def cmd_indep_set(args, rng):
    if args.hypergraph:
        data = _load_json(args.hypergraph, ("n", "k"), ("edges",))
        for flag, value in (("n", data["n"]), ("k", data["k"]), ("m", len(data["edges"]))):
            if value != getattr(args, flag):
                raise DomainError(
                    f"{args.hypergraph} has {flag} = {value}, --{flag} is {getattr(args, flag)}"
                )
        hg = bigraph.Hypergraph(data["n"], data["k"], data["edges"])
    else:
        if args.k > args.n:
            raise DomainError(f"--k {args.k} exceeds --n {args.n}: an edge has k distinct vertices")
        seen = set()
        guard = 0
        while len(seen) < args.m:
            edge = frozenset(rng.sample_indices(args.n, args.k))
            seen.add(edge)
            guard += 1
            if guard > 100 * args.m:
                raise DomainError("requested edge count too dense to sample distinct edges")
        hg = bigraph.Hypergraph(args.n, args.k, sorted(seen, key=sorted))
    out = bigraph.hypergraph_independent_set(hg, rng)
    target = bigraph.independent_set_bound(hg.n, hg.m, hg.k)
    body = {
        "achieved": {"size": len(out), "vertices": out},
        "bound": {"size_min": target},
        "verification": {"independent": not any(e <= set(out) for e in hg.edges),
                         "size_ok": len(out) >= target},
    }
    return body, [[hg.n, hg.m, hg.k, len(out), target]]


# -- parser ---------------------------------------------------------------


_COUNT = {"type": nonnegative_int}  # the add_argument keywords most flags share
_REQ_COUNT = {"type": nonnegative_int, "required": True}
_REQ_INT = {"type": int, "required": True}

# Each subcommand, keyed by name: its help, its CSV columns (the --help
# epilog and the CSV header row) and its own flags, as add_argument keywords
# by flag in --help order; --seed, --output and --csv follow in every
# subcommand. The handler of subcommand `a-b` is `cmd_a_b`.
_COMMANDS = {
    "zarankiewicz": (
        "random algebraic K_{s,s}-free graph", "p,d1,d2,m,n,s,seed,edges,edges_min,outcome",
        {"--p": _REQ_INT, "--d1": _REQ_COUNT, "--d2": _REQ_COUNT, "--m": _REQ_COUNT,
         "--n": _REQ_COUNT, "--s": _REQ_COUNT}),
    "zero-patterns": (
        "enumerate zero-patterns", "subset,witness",
        {"--p": _REQ_INT, "--vars": _REQ_COUNT, "--k": _REQ_COUNT, "--degree": _REQ_COUNT,
         "--fixture": {"help": "file of polynomial fixtures, one per line"}}),
    "containment-patterns": (
        "containment patterns of random systems", "k_prefix,pattern_count",
        {"--p": _REQ_INT, "--vars": _REQ_COUNT, "--k": _REQ_COUNT,
         "--degree": dict(_COUNT, default=2),
         "--t": dict(_COUNT, default=2, help="polynomials per system")}),
    "shatter": (
        "exact shatter function of a set system", "k,shatter",
        {"--k": _REQ_COUNT, "--input": {"help": "JSON {ground, members}"},
         "--graph": {"help": "graph fixture; use neighborhoods as members"},
         "--side": {"choices": ["a", "b"], "default": "a"}}),
    "zero-count": (
        "zero-count statistics of random polynomials", "trial,zeros,success",
        {"--p": _REQ_INT, "--vars": _REQ_COUNT, "--degree": _REQ_COUNT,
         "--trials": _REQ_COUNT}),
    "point-variety": (
        "point/hypersurface incidence instance", "variety,section_degree,incident_points",
        {"--m": _REQ_COUNT, "--alpha": {"type": float, "required": True}, "--dim": _REQ_COUNT}),
    "unit-distance": (
        "unit-distance point-set construction",
        "p,d,U_size,P_size,cross_pairs,unit_distances,cross_pairs_min,outcome",
        {"--d": _REQ_COUNT, "--n": _COUNT,
         "--p": {"type": int, "help": "drive the modulus directly"},
         "--s": dict(_COUNT, default=4),
         "--strategy": {"choices": ["map-image", "random"], "default": "map-image"}}),
    "sphere-geometry": (
        "sphere intersection/isotropy sweeps", "family,k,identity_ok,orthogonal_ok",
        {"--p": _REQ_INT, "--d": _REQ_COUNT, "--families": dict(_COUNT, default=50),
         "--kmax": dict(_COUNT, default=4), "--flat-dim-cap": dict(_COUNT, default=1)}),
    "pattern-scan": (
        "forbidden-pattern absence scan", "host,found",
        {"--p": _REQ_INT, "--d": _REQ_COUNT,
         "--pattern": {"choices": ["pi", "tree"], "default": "pi"},
         "--full-scan": {"action": "store_true"},
         "--hosts": dict(_COUNT, default=0, help="random sub-hosts to scan"),
         "--host-size": dict(_COUNT, default=25)}),
    "indep-set": (
        "hypergraph independent set procedure", "n,m,k,size,size_min",
        {"--n": _REQ_COUNT, "--m": _REQ_COUNT, "--k": _REQ_COUNT,
         "--hypergraph": {"help": "JSON {n, k, edges}; must agree with --n, --k and --m"}}),
}


def build_parser(command=None) -> _Parser:
    """The CLI parser. With `command` one of the subcommands it holds that
    subcommand's parser alone, which is all that parsing its arguments reads;
    otherwise it holds all of them, for the top-level usage and help."""
    top = _Parser(prog="ffil", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_, columns, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_, epilog=f"CSV: {columns}")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--seed", type=int, required=True, help="64-bit experiment seed")
        p.add_argument("--output", help="JSON report path (default: stdout)")
        p.add_argument("--csv", help="CSV series path")
        p.set_defaults(_csv=columns, func=globals()["cmd_" + name.replace("-", "_")])
    return top


def _run_command(args, rng):
    """args.func(args, rng), writing each warning it raises to stderr as one
    `warning: <message>` line, without the source location."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args, rng)
        finally:
            for w in caught:
                sys.stderr.write(f"warning: {w.message}\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return USAGE_EXIT
    for path in (args.output, args.csv):
        if path and (
            os.path.isdir(path) or not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK)
        ):
            sys.stderr.write(f"error: cannot write output file {path}\n")
            return USAGE_EXIT
    args._t0 = time.perf_counter()
    rng = Rng(args.seed)
    try:
        body, rows = _run_command(args, rng)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return RESOURCE_EXIT
    except ConstructionFailure as exc:
        sys.stderr.write(f"construction failure: {exc}\n")
        if exc.best is not None:
            _write_outputs(args, asdict(exc.best), None)
        return RESOURCE_EXIT
    _write_outputs(args, body, rows)
    ver = body["verification"]  # one rule for all: every boolean holds, any K_{s,s} outcome is free
    free = ver.get("outcome", "verified-free") == "verified-free"
    return 0 if free and all(v for v in ver.values() if isinstance(v, bool)) else VERIFY_EXIT


if __name__ == "__main__":
    sys.exit(main())
