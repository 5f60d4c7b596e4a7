"""Command-line interface.

Subcommands: gen (point-cloud generators), vr (simplex-count summary),
betti (Betti numbers at a scale), persist (barcode computation), compare
(Wasserstein distance between barcode files), plot (SVG rendering).

Exit codes: 0 success, 1 bad input or I/O, 2 resource or computation
failure. Diagnostics go to stderr; results go to stdout or --out. Given
identical inputs and flags, every subcommand writes byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys

from . import generators, geometry, persistence, svgplot, vr, wasserstein
from .errors import InputError, PhomError


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_distance(value: float) -> str:
    if value == 0.0:
        return "0.0000"
    return format(value, ".5g")


def _is_barcode_file(path) -> bool:
    with open(path, "r") as fh:
        return fh.readline().strip() == "dim,birth,death"


def _build(args, cloud: geometry.PointCloud, max_dim: int) -> vr.Filtration:
    dm = geometry.distance_matrix(cloud)
    rule = args.edge_rule or vr.PAPER_2EPS
    return vr.build_vr(dm, args.eps, max_dim, rule, args.max_simplices)


def _add_complex_flags(p, what: str):
    # betti takes the complex flags for point input only and refuses them
    # on a barcode, so their defaults are None
    p.add_argument("input", help=what)
    p.add_argument("--eps", type=float, required=True, help="scale at which to work")
    p.add_argument(
        "--edge-rule",
        choices=vr.EDGE_RULES,
        help="pair admission convention: d <= 2*eps (default) or d <= eps",
    )
    p.add_argument(
        "--max-simplices",
        type=int,
        help="override the simplex budget derived from the 8 GiB default",
    )


def _make_parser() -> _Parser:
    top = _Parser(prog="phom", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one of the built-in point clouds")
    gsub = gen.add_subparsers(dest="generator", required=True)

    sphere = gsub.add_parser("sphere", help="latitude/longitude unit sphere")
    sphere.add_argument("--nu", type=int, required=True, help="longitude count")
    sphere.add_argument("--nv", type=int, required=True, help="latitude count")
    sphere.add_argument(
        "--form",
        choices=("standard", "y-cos"),
        default="standard",
        help="y component: sin(u)sin(v) (on-sphere) or sin(u)cos(v)",
    )
    sphere.add_argument(
        "--u-endpoint",
        action="store_true",
        help="include u = 2*pi as an extra grid column",
    )
    sphere.add_argument(
        "--keep-duplicates",
        action="store_true",
        help="keep coincident grid points (pole copies) as separate vertices",
    )
    sphere.add_argument("--out", required=True)

    fib = gsub.add_parser("fibsphere", help="Fibonacci-spiral unit sphere")
    fib.add_argument("--n", type=int, required=True, help="number of points")
    fib.add_argument("--out", required=True)

    msd = gsub.add_parser("msd", help="4D mass-spring natural-frequency manifold")
    msd.add_argument("--config", default=None, help="key-value config file")
    msd.add_argument("--mode", type=int, choices=(1, 2, 3), default=None)
    msd.add_argument(
        "--embed",
        choices=("eigenvalue", "frequency"),
        default=None,
        help="fourth coordinate: eigenvalue of M^-1 K (the default), or its square root",
    )
    msd.add_argument(
        "--write-config",
        default=None,
        metavar="PATH",
        help="write the effective config to PATH and exit",
    )
    msd.add_argument("--out", required=False, default=None)

    vrp = sub.add_parser("vr", help="build a filtration and print simplex counts")
    _add_complex_flags(vrp, "point-cloud CSV")
    vrp.add_argument("--max-dim", type=int, required=True, help="largest simplex dimension")

    bet = sub.add_parser("betti", help="Betti numbers at a scale")
    _add_complex_flags(bet, "point-cloud CSV or barcode CSV")
    bet.add_argument(
        "--max-k",
        type=int,
        help="highest homology dimension (default: every one a barcode holds, 1 on points)",
    )

    per = sub.add_parser("persist", help="compute a persistence barcode")
    _add_complex_flags(per, "point-cloud CSV")
    per.add_argument("--max-dim", type=int, required=True, help="largest simplex dimension")
    per.add_argument(
        "--min-length", type=float, default=0.0, help="drop bars of length <= this"
    )
    per.add_argument(
        "--keep-zero", action="store_true", help="keep zero-length bars"
    )
    per.add_argument("--out", default=None, help="barcode CSV path (default stdout)")

    cmp_ = sub.add_parser("compare", help="Wasserstein distance between barcodes")
    cmp_.add_argument("left", help="barcode CSV")
    cmp_.add_argument("right", help="barcode CSV")
    cmp_.add_argument("--p", type=float, default=2.0)
    cmp_.add_argument(
        "--dims",
        default=None,
        help="comma-separated homology dimensions, e.g. 0,1,2 (default: all)",
    )

    plot = sub.add_parser("plot", help="render a barcode CSV as SVG")
    psub = plot.add_subparsers(dest="kind", required=True)
    for kind, helptext in (
        ("barcode", "horizontal-bar view"),
        ("diagram", "birth-death scatter"),
    ):
        pp = psub.add_parser(kind, help=helptext)
        pp.add_argument("input", help="barcode CSV")
        pp.add_argument("--out", required=True)
    return top


def _cmd_gen(args) -> int:
    if args.generator == "sphere":
        cloud = generators.gen_sphere_latlon(
            args.nu,
            args.nv,
            form=args.form,
            include_u_endpoint=args.u_endpoint,
            dedupe=not args.keep_duplicates,
        )
    elif args.generator == "fibsphere":
        cloud = generators.gen_fibonacci_sphere(args.n)
    else:
        if args.write_config is not None and (args.out is not None or args.embed is not None):
            raise InputError("--write-config writes only the config: it takes no --out or --embed")
        if args.write_config is None and args.out is None:
            raise InputError("gen msd needs --out (or --write-config)")
        cfg = (
            generators.read_msd_config(args.config)
            if args.config
            else generators.MsdConfig()
        )
        if args.mode is not None:
            cfg = cfg.with_mode(args.mode)
        if args.write_config is not None:
            generators.write_msd_config(cfg, args.write_config)
            return 0
        cloud = generators.gen_msd_manifold(cfg, embed=args.embed or "eigenvalue")
    geometry.write_point_csv(cloud, args.out)
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def _cmd_vr(args) -> int:
    filtration = _build(args, geometry.read_point_csv(args.input), args.max_dim)
    counts = filtration.counts_by_dim()
    for dim in sorted(counts):
        print(f"dim {dim}: {counts[dim]}")
    print(f"total: {len(filtration)}")
    return 0


def _cmd_betti(args) -> int:
    if _is_barcode_file(args.input):
        given = [
            "--" + name.replace("_", "-")
            for name in ("edge_rule", "max_simplices")
            if getattr(args, name) is not None
        ]
        if given:
            raise InputError(f"{', '.join(given)} apply only to point input, not a barcode")
        barcode = persistence.read_barcode_csv(args.input)
        counts = persistence.betti_curve(barcode, args.eps, max_k=args.max_k)
    else:
        # beta_k needs the (k + 1)-skeleton, which n points hold up to n - 1
        cloud = geometry.read_point_csv(args.input)
        n = len(cloud)
        max_k = 1 if args.max_k is None else args.max_k
        if not 0 <= max_k <= n - 2:
            raise InputError(f"--max-k must be in [0, {n - 2}] for a {n}-point cloud, got {max_k}")
        counts = persistence.betti_numbers(_build(args, cloud, max_k + 1), args.eps, max_k)
    print("[" + ",".join(str(c) for c in counts) + "]")
    return 0


def _cmd_persist(args) -> int:
    filtration = _build(args, geometry.read_point_csv(args.input), args.max_dim)
    barcode = persistence.intervals(
        filtration, min_length=args.min_length, keep_zero=args.keep_zero
    )
    persistence.write_barcode_csv(barcode, args.out or sys.stdout)
    if args.out:
        print(f"wrote {len(barcode)} intervals to {args.out}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    left = persistence.read_barcode_csv(args.left)
    right = persistence.read_barcode_csv(args.right)
    dims = None
    if args.dims is not None:
        try:
            dims = [int(part) for part in args.dims.split(",") if part != ""]
        except ValueError as exc:
            raise InputError(f"bad --dims value {args.dims!r}: {exc}") from exc
    value = wasserstein.wasserstein_p(left, right, p=args.p, dims=dims)
    print(f"d_Wp = {_fmt_distance(value)}")
    return 0


def _cmd_plot(args) -> int:
    barcode = persistence.read_barcode_csv(args.input)
    render = (
        svgplot.render_barcode_svg if args.kind == "barcode" else svgplot.render_diagram_svg
    )
    render(barcode, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "vr": _cmd_vr,
    "betti": _cmd_betti,
    "persist": _cmd_persist,
    "compare": _cmd_compare,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UnicodeDecodeError as exc:
        print(f"error: input is not text: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except PhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
