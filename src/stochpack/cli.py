"""Command-line entry point.

Subcommands: validate, gen, run, sweep, witness, sparsify.  Exit codes group
failures by category: 2 for malformed input or parameters, 3 for size
refusals of exact methods, 1 for anything else.  Worker count for run/sweep
comes from --workers or the STOCHPACK_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .adapters import adapter_for, hypergraph_view
from .errors import SizeRefusalError, StochpackError, StructureError
from .generators import gen_objective, generate
from .harness import load_spec, run_experiment, sweep_T, write_csv
from .instances import load_instance, save_instance, validate_instance
from .sparsify import ColoringConfig, sparsify
from .witness import (
    enumerate_sparse_cover,
    enumerate_tdi_cover,
    tdi_cover_size_bound,
    verify_cover_property,
)


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise StructureError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _parse_range(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise StructureError(f"expected 'low,high', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _cmd_validate(args) -> int:
    inst, obj = load_instance(args.file)
    report = validate_instance(inst)
    print(report)
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    params = _parse_params(args.param)
    inst = generate(args.kind, params, args.seed)
    obj = gen_objective(
        inst.m,
        args.seed + 1,
        c_low=_parse_range(args.c_low),
        c_high=_parse_range(args.c_high),
        p=args.p,
    )
    save_instance(args.output, inst, obj)
    print(f"wrote {args.output} ({inst.n} rows, {inst.m} items, {inst.family})")
    return 0


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    rows, summary = run_experiment(spec, workers=args.workers)
    write_csv(rows, args.output)
    print(summary, end="")
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(summary)
    return 0


def _cmd_sweep(args) -> int:
    spec = load_spec(args.spec)
    rows, summary = sweep_T(spec, workers=args.workers)
    write_csv(rows, args.output)
    print(summary, end="")
    return 0


def _cmd_witness(args) -> int:
    inst, obj = load_instance(args.file)
    if args.mode == "tdi":
        cover = enumerate_tdi_cover(inst.b, args.mu, args.epsilon)
        bound = tdi_cover_size_bound(inst.n, args.mu)
        print(
            f"size {len(cover)} vs exp-bound {bound:.1f} "
            f"(cap {cover.cap}, kind {cover.kind})"
        )
    else:
        cover = enumerate_sparse_cover(inst.b, args.mu, args.epsilon, args.gamma)
        print(f"size {len(cover)} (cap {cover.cap}, kind {cover.kind})")
    report = verify_cover_property(cover, inst.A, obj.c_minus)
    print(f"property vs pessimistic floor: {report}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(cover.to_text() + "\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_sparsify(args) -> int:
    inst, obj = load_instance(args.file)
    n_vertices, k, edges = hypergraph_view(inst)
    s = args.s
    if s is None:
        adapter = adapter_for(inst)
        ones = np.ones(inst.m, dtype=np.int64)
        s = max(1, int(np.ceil(float(adapter.solve_relaxation(ones).value) - 1e-9)))
    config = ColoringConfig(
        k=k, epsilon=args.epsilon, delta=args.delta, s=s, seed=args.seed
    )
    result = sparsify(n_vertices, edges, config)
    print(result.report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochpack",
        description="Stochastic packing programs with queries: experiments and tools",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file's assumptions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument(
        "kind",
        choices=["bipartite", "graph", "hypergraph", "matroid", "generic", "cspip"],
    )
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--c-low", default="0,0")
    p.add_argument("--c-high", default="1,2")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run an experiment spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--summary")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="sweep the iteration count grid")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("witness", help="enumerate a witness cover for an instance")
    p.add_argument("file")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mode", choices=["tdi", "sparse"], default="tdi")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("sparsify", help="color-code an instance and report survival")
    p.add_argument("file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sparsify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeRefusalError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return 3
    except StochpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
