"""Command line interface.

Subcommands emit network JSON on stdout (or --out) plus a stats line on
stderr; `run` drives a sweep from a JSON config; `verify` runs the full
verification suite and exits nonzero on any failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import resource
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import pipeline, verify
from .constructors import (
    InterpolationSpec,
    build_interpolation_net,
    build_min_net,
    build_spike_net,
    timed,
)
from .discretize import FILTER_KINDS, InputFunction, discretize, make_operator
from .functions import CUBE_FUNCTIONS, NODE_FUNCTIONS, get_function, get_node_function
from .legendre import default_rule_size, gauss_legendre_rule
from .relu_net import check_entry_count, count_nonzero, depth, serialize
from .simplicial import ScaledGrid, integer_size, spike


def _emit_network(net, seconds, out):
    raw = serialize(net)
    if out:
        Path(out).write_bytes(raw)
    else:
        sys.stdout.buffer.write(raw + b"\n")
    print(
        f"depth={depth(net)} nonzeros={count_nonzero(net)} "
        f"build_seconds={seconds:.4f} bytes={len(raw)}",
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


def _builtin(option, name, table):
    """Exit naming ``option`` and the names in ``table`` when ``name``,
    which is no file, is not one of them either."""
    if name not in table:
        raise SystemExit(f"{option}: {name!r} is neither a file nor a built-in "
                         f"name; choose from {sorted(table)}")


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
            if seen[i]:
                raise SystemExit(f"{where}: node index {i} is listed twice")
            values[i] = v
            seen[i] = True
        if not seen.all():
            raise SystemExit(
                f"values file covers {int(seen.sum())} of {grid.node_count} nodes"
            )
        return values
    _builtin("--values", args.values, NODE_FUNCTIONS)
    return get_node_function(args.values)(grid.node_array())


def _cmd_build_interp(args):
    grid = ScaledGrid(args.t, args.R, args.N)
    # the document holds the node values as one output row: refuse a row
    # the writer would refuse before the values or the net are made
    check_entry_count("output weights", (1, grid.node_count))
    values = _node_values(args, grid)
    spec = InterpolationSpec(grid, values)
    net, seconds = timed(build_interpolation_net, spec)
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
    _builtin("--input", spec, CUBE_FUNCTIONS)
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


def _csv_out(path):
    """The --out file to write a CSV to, or stdout without one."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _cmd_spike_grid(args):
    t = integer_size(args.t, "t")
    if not (math.isfinite(args.step) and args.step > 0):
        raise ValueError(f"step must be finite and > 0, got {args.step}")
    if not (math.isfinite(args.extent) and args.extent >= 0):
        raise ValueError(f"extent must be finite and >= 0, got {args.extent}")
    axis = np.arange(-args.extent, args.extent + args.step / 2, args.step)
    mesh = np.meshgrid(*([axis] * t), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = spike(pts)
    with _csv_out(args.out) as out:
        writer = csv.writer(out)
        writer.writerow([f"y{d + 1}" for d in range(t)] + ["psi"])
        for p, v in zip(pts, vals):
            writer.writerow([*(f"{c:.12g}" for c in p), f"{v:.17g}"])
    if args.out:
        print(f"wrote {pts.shape[0]} rows to {args.out}", file=sys.stderr)


def _cmd_quad_rule(args):
    rule = gauss_legendre_rule(args.q, args.s)
    with _csv_out(args.out) as out:
        writer = csv.writer(out)
        writer.writerow([f"x{d + 1}" for d in range(args.s)] + ["weight"])
        for p, w in zip(rule.points, rule.weights):
            writer.writerow([*(f"{c:.17g}" for c in p), f"{w:.17g}"])
    if args.out:
        print(f"wrote {rule.points.shape[0]} nodes to {args.out}", file=sys.stderr)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# (what a config value must be, test of its JSON value)
_ANY = ("", lambda v: True)  # checked where it is used
_INT = ("an integer", _is_int)
_NUMBER = ("a number", lambda v: _is_int(v) or isinstance(v, float))
_INTS = ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)))
_BOOL = ("true or false", lambda v: isinstance(v, bool))


def _one_of(names):
    """The kind of a config value that must be one of ``names``."""
    return f"one of {sorted(names)}", lambda v: isinstance(v, str) and v in names


# config key -> (ExperimentConfig field, kind of value); every default is
# the dataclasses'
_RUN_KEYS = {
    "s": ("s", _INT), "p": ("p", _NUMBER),
    "functional": ("functional", _ANY), "input_class": ("input_class", _ANY),
    "m_values": ("m_values", _INTS), "N_values": ("N_values", _INTS),
    "filter": ("filter_kind", _one_of(FILTER_KINDS)), "c1_surrogate": ("c1_surrogate", _NUMBER),
    "C_K": ("C_K", ("a number or null", lambda v: v is None or _NUMBER[1](v))),
    "node_cap": ("node_cap", _INT), "weight_cap": ("weight_cap", _INT),
    "dump_networks": ("dump_networks", _BOOL), "budget_ladder": ("ladder", _BOOL),
    "ladder_m_values": ("ladder_m_values", _INTS),
}
# the sampler names a bad input-class value
_CLASS_KEYS = {f.name: (f.name, _ANY) for f in fields(pipeline.InputClass)}
# functional name -> the keys beside "name" that it reads
_FUNCTIONAL_READS = {"inner-product": ("g",), "sin-inner-product": ("g",),
                     "constant": ("value",), "l1-norm": ()}
_FUNCTIONAL_KEYS = {"name": ("name", _one_of(_FUNCTIONAL_READS)),
                    "g": ("g", _one_of(CUBE_FUNCTIONS)), "value": ("value", _NUMBER)}


def _config_fields(doc, table, where):
    """The entries of a config object by field name; an unknown key or a
    value of the wrong JSON type raises ValueError naming the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    out = {}
    for key, value in doc.items():
        if key not in table:
            raise ValueError(f"{key} is not a {where} key; choose from {sorted(table)}")
        name, (what, ok) = table[key]
        if not ok(value):
            raise ValueError(f"{key} must be {what}, got {value!r}")
        out[name] = value
    return out


def _functional_from_doc(doc, cfg):
    doc = _config_fields(doc, _FUNCTIONAL_KEYS, "functional")
    name = doc.get("name", "inner-product")
    reads = ("name", *_FUNCTIONAL_READS[name])
    for key in doc:
        if key not in reads:
            raise ValueError(f"{key} is not read by the {name} functional, which "
                             f"reads {list(reads)}")
    # a ladder-only run sizes the rule by the ladder's degrees
    ladder_m_values = cfg.ladder_m_values if cfg.ladder else ()
    m_values = cfg.m_values or ladder_m_values
    if not m_values:
        raise ValueError("m_values is empty and no budget ladder runs: nothing to measure")
    if not cfg.N_values and not ladder_m_values:
        raise ValueError("N_values is empty and no budget ladder runs: nothing to measure")
    rule = gauss_legendre_rule(default_rule_size(max(m_values)), cfg.s)
    if name == "constant":
        return pipeline.constant_functional(float(doc.get("value", 0.0)))
    if name == "l1-norm":
        return pipeline.l1_norm_functional(cfg.s, cfg.p)
    g = get_function(doc.get("g", "gaussian"))
    if name == "inner-product":
        return pipeline.inner_product_functional(g, rule, cfg.p)
    return pipeline.sin_inner_product_functional(g, rule, cfg.p)


def _cmd_run(args):
    doc = _config_fields(json.loads(Path(args.config).read_text()), _RUN_KEYS, "config")
    functional = doc.pop("functional", {})
    cls = pipeline.InputClass(**_config_fields(doc.pop("input_class", {}),
                                               _CLASS_KEYS, "input_class"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if doc.pop("dump_networks", False):
        doc["dump_dir"] = str(out_dir / "networks")
    cfg = pipeline.ExperimentConfig(input_class=cls, **doc)
    cfg.functional = _functional_from_doc(functional, cfg)
    report, seconds = timed(pipeline.run_rate_experiment, cfg)
    report = replace(report, summary={
        **report.summary, "wall_seconds": seconds,
        # the process's peak resident set so far; ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    report.to_csv(out_dir / "report.csv")
    report.summary_to_json(out_dir / "summary.json")
    print(f"wrote {out_dir / 'report.csv'} and {out_dir / 'summary.json'}",
          file=sys.stderr)
    for r in report.rows:
        print(f"m={r.m} N={r.N} status={r.status} M={r.M} "
              f"sup_error={r.sup_error:.4e}")


def _cmd_verify(args):
    results = verify.run_all()
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
