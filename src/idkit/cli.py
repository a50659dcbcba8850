"""The ``idkit`` command.

Every subcommand is a thin shell over exactly one library operation; anything
scriptable from here is equally scriptable from Python.  All randomness in a
subcommand flows from its single ``--seed`` flag.  Every input is one flag,
listed in the subcommand's ``--help``.

Exit codes: 0 on success, 2 for usage errors, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .engine import Engine, SimulatorBinding
from .problems import PROBLEM_NAMES, get_space
from .records import dump_records, load_records

__all__ = ["main", "build_parser"]


def _usage_error(message: str) -> SystemExit:
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


# -- subcommands ------------------------------------------------------------------


def _cmd_gen_data(ns) -> int:
    out = ns.out or f"{ns.problem}_n{ns.n}_s{ns.seed}.jsonl"
    binding = SimulatorBinding(ns.problem, workers=ns.workers, adapter_cmd=ns.adapter_cmd)
    records = harness.generate_dataset(ns.problem, ns.n, ns.seed, binding=binding, path=out)
    print(f"wrote {len(records)} records to {out}")
    return 0


def _cmd_split(ns) -> int:
    prefix = ns.out or (ns.data[: -len(".jsonl")] if ns.data.endswith(".jsonl") else ns.data)
    records = load_records(ns.data)
    splits = harness.split_dataset(records, ns.seed)
    for part in ("train", "val", "test"):
        path = f"{prefix}.{part}.jsonl"
        dump_records(path, getattr(splits, part))
        print(f"wrote {len(getattr(splits, part))} records to {path}")
    return 0


def _cmd_targets(ns) -> int:
    out = ns.out or f"{ns.problem}_targets.jsonl"
    binding = SimulatorBinding(ns.problem, adapter_cmd=ns.adapter_cmd)
    records = harness.iid_targets(ns.problem, ns.k, ns.seed, binding=binding)
    dump_records(out, records)
    print(f"wrote {len(records)} targets to {out}")
    return 0


def _cmd_train(ns) -> int:
    from . import surrogate

    if ns.model == "tandem" and not ns.forward_model:
        raise _usage_error("--model tandem requires --forward-model")
    space = get_space(ns.problem)
    records = [r for r in harness._load_dataset(ns.data, space) if not r.failed]
    x, y = surrogate.encode_dataset(space, records)
    cfg_kw = {"seed": ns.seed}
    if ns.epochs is not None:
        cfg_kw["epochs"] = ns.epochs
    if ns.lr is not None:
        cfg_kw["lr"] = ns.lr
    cfg = surrogate.TrainConfig(**cfg_kw)
    if ns.model == "forward":
        model, log = surrogate.train_forward(x, y, cfg)
    elif ns.model == "inverse":
        model, log = surrogate.train_inverse(x, y, cfg)
    else:
        fwd, _ = surrogate.load_model(ns.forward_model)
        model, log = surrogate.train_tandem(fwd, y, cfg)
    out = ns.out or f"{ns.problem}_{ns.model}.bin"
    surrogate.save_model(model, out, meta={"problem": ns.problem, "model": ns.model})
    if ns.log:
        surrogate.save_training_log(log, ns.log)
    print(f"saved {ns.model} model to {out} (final val loss {log[-1][2]:.6g})")
    return 0


def _cmd_run(ns) -> int:
    out = ns.out or f"run_{ns.problem}_{ns.algo}"
    spec = harness.ExperimentSpec(
        problem=ns.problem,
        algo=ns.algo,
        budget=ns.budget,
        seeds=tuple(range(ns.seed, ns.seed + ns.seeds)),
        target=ns.target,
        warm_start_k=ns.warm_start_k,
        dataset_path=ns.data,
        ask_batch=ns.ask_batch,
        workers=ns.workers,
        adapter_cmd=ns.adapter_cmd,
        out_dir=out,
    )
    report = harness.run_experiment(spec)
    final = report.mean_curve()
    tail = f"final mean loss {final[-1]:.6g}" if final.size else "baselines only"
    print(f"{report.algo} on {ns.problem}: {tail}")
    print(f"report {report.report_hash()} in {out}")
    if report.failed_seeds:
        print(f"warning: seeds failed: {list(report.failed_seeds)}", file=sys.stderr)
    return 0


def _cmd_eval(ns) -> int:
    space = get_space(ns.problem)
    with open(ns.point, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"point {ns.point} is not JSON: {exc}") from None
    if not isinstance(values, list):
        raise ValueError(f"point {ns.point} is not a JSON list of design values")
    point = space.point(values)
    target = None
    if ns.target == "builtin":
        target = harness.radiative_cooler_target()
    elif ns.target:
        target = harness.load_target(ns.target, space)
    with Engine(SimulatorBinding(ns.problem, adapter_cmd=ns.adapter_cmd)) as engine:
        record = engine.evaluate_batch([point], target=target)[0]
    if record.failed:
        print(f"error: evaluation failed: {record.error}", file=sys.stderr)
        return 1
    print(f"loss={record.loss:.12g}")
    return 0


def _cmd_plot(ns) -> int:
    reports = [harness.ExperimentReport.load(p) for p in ns.report]
    out = ns.out or os.path.join(os.path.dirname(ns.report[0]) or ".", "combined")
    csv_path, svg_path = harness.emit_report(reports, out)
    print(f"wrote {csv_path} and {svg_path}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idkit",
        description="Inverse-design benchmark toolkit: datasets, optimizers, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-data", help="sample and simulate a dataset of evaluation records")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--n", type=int, default=1000, help="number of records (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--workers", type=int, default=1, help="parallel simulator workers (default 1)")
    p.add_argument("--adapter-cmd", help="external simulator command")
    p.add_argument("--out", help="output .jsonl path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("split", help="split a dataset into train/val/test files")
    p.add_argument("--data", required=True, help="input .jsonl dataset")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed (default 0)")
    p.add_argument("--out", help="output prefix (default: input minus .jsonl)")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("targets", help="draw realizable targets with their generating designs")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--k", type=int, default=5, help="number of targets (default 5)")
    p.add_argument("--seed", type=int, default=harness.TARGET_SEED,
                   help="target draw seed")
    p.add_argument("--adapter-cmd", help="external simulator command")
    p.add_argument("--out", help="output .jsonl path")
    p.set_defaults(func=_cmd_targets)

    p = sub.add_parser("train", help="fit a surrogate network on a dataset")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--data", required=True, help="training .jsonl dataset")
    p.add_argument("--model", choices=("forward", "inverse", "tandem"),
                   default="forward", help="which net to fit (default forward)")
    p.add_argument("--forward-model", help="frozen forward checkpoint (tandem only)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int, default=0, help="init and shuffle seed (default 0)")
    p.add_argument("--out", help="checkpoint path")
    p.add_argument("--log", help="write per-epoch losses to this CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="run one optimizer against one problem and report")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--algo", required=True, help="rs, es, tpe, bo, or sracos")
    p.add_argument("--budget", type=int, help="simulator calls per seed")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds (default 5)")
    p.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--warm-start-k", type=int, default=0,
                   help="seed sessions with the k best dataset records")
    p.add_argument("--data", help="dataset .jsonl for warm starts and train-best")
    p.add_argument("--target", default="iid", help="'iid', 'builtin', or a target file")
    p.add_argument("--adapter-cmd", help="external simulator command")
    p.add_argument("--ask-batch", type=int, default=1, help="points per ask (default 1)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="evaluate one design point and print its loss")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--point", required=True, help="JSON file with the design values")
    p.add_argument("--target", help="'builtin' or a target file (default: zero response)")
    p.add_argument("--adapter-cmd", help="external simulator command")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plot", help="render saved reports to CSV and SVG")
    p.add_argument("--report", action="append", required=True,
                   help="report.json path (repeatable)")
    p.add_argument("--out", help="output prefix")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except SystemExit:
        raise
    except KeyboardInterrupt:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
