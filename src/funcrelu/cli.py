"""Command line interface.

Subcommands emit network JSON on stdout (or --out) plus a stats line on
stderr; `run` drives a sweep from a JSON config; `verify` runs the full
verification suite and exits nonzero on any failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import pipeline, verify
from .constructors import (
    DEFAULT_NODE_CAP,
    InterpolationSpec,
    build_interpolation_net,
    build_min_net,
    build_spike_net,
    timed,
)
from .discretize import InputFunction, discretize, make_operator
from .functions import CUBE_FUNCTIONS, get_function, get_node_function
from .legendre import default_rule_size, gauss_legendre_rule
from .relu_net import count_nonzero, depth, serialize
from .simplicial import ScaledGrid, spike


def _emit_network(net, seconds, out):
    raw = serialize(net)
    if out:
        Path(out).write_bytes(raw)
    else:
        sys.stdout.buffer.write(raw + b"\n")
    print(
        f"depth={depth(net)} nonzeros={count_nonzero(net)} "
        f"build_seconds={seconds:.4f}",
        file=sys.stderr,
    )


def _cmd_build_min(args):
    net, seconds = timed(build_min_net, args.d)
    _emit_network(net, seconds, args.out)


def _cmd_build_spike(args):
    net, seconds = timed(build_spike_net, args.t)
    _emit_network(net, seconds, args.out)


def _csv_pairs(path, key, header):
    """(where, key(first field), float(second field)) of each data row of
    a CSV file, ``where`` naming its line; blank lines and '#' comments
    are skipped.  A row that does not parse, or a non-finite float in it,
    exits naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            where = f"{path}: line {reader.line_num}"
            try:
                pair = key(row[0]), float(row[1])
            except (ValueError, IndexError):
                raise SystemExit(
                    f"{where}: expected '{header}', got {row}") from None
            for v in pair:
                if isinstance(v, float) and not math.isfinite(v):
                    raise SystemExit(f"{where}: value {v} is not finite")
            yield (where, *pair)


def _node_values(args, grid):
    path = Path(args.values)
    if path.exists():
        values = np.zeros(grid.node_count)
        seen = np.zeros(grid.node_count, dtype=bool)
        for where, i, v in _csv_pairs(path, int, "node_index,value"):
            if not 0 <= i < grid.node_count:
                raise SystemExit(
                    f"{where}: node index {i} outside [0, {grid.node_count})"
                )
            values[i] = v
            seen[i] = True
        if not seen.all():
            raise SystemExit(
                f"values file covers {int(seen.sum())} of {grid.node_count} nodes"
            )
        return values
    return get_node_function(args.values)(grid.node_array())


def _cmd_build_interp(args):
    grid = ScaledGrid(args.t, args.R, args.N)
    values = _node_values(args, grid)
    spec = InterpolationSpec(grid, values)
    net, seconds = timed(build_interpolation_net, spec, node_cap=args.node_cap)
    _emit_network(net, seconds, args.out)


def _input_function(spec: str, s: int) -> InputFunction:
    path = Path(spec)
    if path.exists():
        if s != 1:
            raise SystemExit("CSV sample input is supported for s = 1 only")
        rows = [(x, v) for _, x, v in _csv_pairs(path, float, "x,value")]
        if not rows:
            raise SystemExit(f"{path}: no 'x,value' samples")
        xs, vs = np.array(rows).T
        order = np.argsort(xs)
        xs, vs = xs[order], vs[order]
        return InputFunction(lambda x: np.interp(np.atleast_2d(x)[:, 0], xs, vs),
                             tag=f"csv:{path.name}")
    return get_function(spec)


def _cmd_discretize(args):
    op = make_operator(args.s, args.m, args.filter)
    f = _input_function(args.input, args.s)
    nu = discretize(op, f, self_check=args.self_check)
    json.dump(
        {"s": args.s, "m": args.m, "filter": args.filter,
         "input": f.tag, "t": op.t, "nu": [float(v) for v in nu]},
        sys.stdout, indent=2,
    )
    print()


def _cmd_spike_grid(args):
    axis = np.arange(-args.extent, args.extent + args.step / 2, args.step)
    mesh = np.meshgrid(*([axis] * args.t), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = spike(pts)
    out = sys.stdout if not args.out else open(args.out, "w", newline="")
    writer = csv.writer(out)
    writer.writerow([f"y{d + 1}" for d in range(args.t)] + ["psi"])
    for p, v in zip(pts, vals):
        writer.writerow([*(f"{c:.12g}" for c in p), f"{v:.17g}"])
    if args.out:
        out.close()
        print(f"wrote {pts.shape[0]} rows to {args.out}", file=sys.stderr)


def _cmd_quad_rule(args):
    rule = gauss_legendre_rule(args.q, args.s)
    out = sys.stdout if not args.out else open(args.out, "w", newline="")
    writer = csv.writer(out)
    writer.writerow([f"x{d + 1}" for d in range(args.s)] + ["weight"])
    for p, w in zip(rule.points, rule.weights):
        writer.writerow([*(f"{c:.17g}" for c in p), f"{w:.17g}"])
    if args.out:
        out.close()
        print(f"wrote {rule.points.shape[0]} nodes to {args.out}", file=sys.stderr)


def _functional_from_doc(doc, s, p, m_values):
    rule = gauss_legendre_rule(default_rule_size(max(m_values)), s)
    name = doc.get("name", "inner-product")
    if name == "constant":
        return pipeline.constant_functional(float(doc.get("value", 0.0)))
    g = get_function(doc.get("g", "gaussian"))
    if name == "inner-product":
        return pipeline.inner_product_functional(g, rule, p)
    if name == "sin-inner-product":
        return pipeline.sin_inner_product_functional(g, rule, p)
    raise SystemExit(f"unknown functional {name!r}")


def _cmd_run(args):
    doc = json.loads(Path(args.config).read_text())
    s = int(doc.get("s", 1))
    p = float(doc.get("p", 2.0))
    m_values = tuple(doc.get("m_values", (0, 1, 2)))
    cls_doc = doc.get("input_class", {})
    cls = pipeline.InputClass(
        kind=cls_doc.get("kind", "hoelder_ball"),
        beta=cls_doc.get("beta", 2.0),
        sample_count=cls_doc.get("sample_count", 64),
        seed=cls_doc.get("seed", 0),
        degree_cap=cls_doc.get("degree_cap", 32),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = pipeline.ExperimentConfig(
        s=s,
        p=p,
        functional=_functional_from_doc(doc.get("functional", {}), s, p, m_values),
        input_class=cls,
        m_values=m_values,
        N_values=tuple(doc.get("N_values", (4, 8, 16, 32))),
        filter_kind=doc.get("filter", "dlvp"),
        c1_surrogate=float(doc.get("c1_surrogate", 1.0)),
        C_K=doc.get("C_K"),
        node_cap=int(doc.get("node_cap", DEFAULT_NODE_CAP)),
        weight_cap=int(doc.get("weight_cap", 120_000_000)),
        dump_dir=str(out_dir / "networks") if doc.get("dump_networks") else None,
        ladder=bool(doc.get("budget_ladder", True)),
        ladder_m_values=tuple(doc.get("ladder_m_values", (1, 2))),
    )
    t0 = time.perf_counter()
    report = pipeline.run_rate_experiment(cfg)
    report.summary["wall_seconds"] = time.perf_counter() - t0
    report.to_csv(out_dir / "report.csv")
    report.summary_to_json(out_dir / "summary.json")
    print(f"wrote {out_dir / 'report.csv'} and {out_dir / 'summary.json'}",
          file=sys.stderr)
    for r in report.rows:
        print(f"m={r.m} N={r.N} status={r.status} M={r.M} "
              f"sup_error={r.sup_error:.4e}")


def _cmd_verify(args):
    results = verify.run_all(verbose=True)
    if all(res.passed for _, res in results):
        print("verify: all checks passed")
        return
    print("verify: FAILURES detected", file=sys.stderr)
    raise SystemExit(1)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="funcrelu",
        description="Construct and verify functional deep ReLU networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("build-min", help="network computing min(x_1..x_d)")
    p_min.add_argument("--d", type=int, required=True)
    p_min.add_argument("--out")
    p_min.set_defaults(func=_cmd_build_min)

    p_spike = sub.add_parser("build-spike", help="spike network on R^t")
    p_spike.add_argument("--t", type=int, required=True)
    p_spike.add_argument("--out")
    p_spike.set_defaults(func=_cmd_build_spike)

    p_interp = sub.add_parser("build-interp",
                              help="interpolation network over a grid")
    p_interp.add_argument("--t", type=int, required=True)
    p_interp.add_argument("--N", type=int, required=True)
    p_interp.add_argument("--R", type=float, required=True)
    p_interp.add_argument("--values", required=True,
                          help="CSV of node index,value or a built-in name")
    p_interp.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    p_interp.add_argument("--out")
    p_interp.set_defaults(func=_cmd_build_interp)

    p_disc = sub.add_parser("discretize",
                            help="discretize an input function to a vector")
    p_disc.add_argument("--s", type=int, required=True)
    p_disc.add_argument("--m", type=int, required=True)
    p_disc.add_argument("--filter", choices=("dlvp", "truncate"), default="dlvp")
    p_disc.add_argument("--input", required=True,
                        help=f"built-in name ({', '.join(sorted(CUBE_FUNCTIONS))}) "
                             "or CSV of x,value samples (s = 1)")
    p_disc.add_argument("--self-check", action="store_true",
                        help="recompute at doubled quadrature and warn on drift")
    p_disc.set_defaults(func=_cmd_discretize)

    p_sg = sub.add_parser("spike-grid", help="dump spike values on a lattice as CSV")
    p_sg.add_argument("--t", type=int, default=2)
    p_sg.add_argument("--extent", type=float, default=1.5)
    p_sg.add_argument("--step", type=float, default=0.05)
    p_sg.add_argument("--out")
    p_sg.set_defaults(func=_cmd_spike_grid)

    p_qr = sub.add_parser("quad-rule", help="dump a quadrature rule as CSV")
    p_qr.add_argument("--q", type=int, required=True)
    p_qr.add_argument("--s", type=int, default=1)
    p_qr.add_argument("--out")
    p_qr.set_defaults(func=_cmd_quad_rule)

    p_run = sub.add_parser("run", help="run a rate experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default="funcrelu-out")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
