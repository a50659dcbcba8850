"""The ``idkit`` command.

Every subcommand is a thin shell over exactly one library operation; anything
scriptable from here is equally scriptable from Python.  All randomness in a
subcommand flows from its single ``--seed`` flag.  Values may also come from a
config file of ``key = value`` lines (``--config``) and inline overrides
(``--set key=value``, repeatable); explicit flags beat overrides, overrides
beat the file, later overrides beat earlier ones.

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

# never filled from config files
_NOT_CONFIG = {"command", "func", "config", "set", "report", "help"}


def _usage_error(message: str) -> SystemExit:
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_config_line(line: str, origin: str) -> tuple[str, str] | None:
    text = line.split("#", 1)[0].strip()
    if not text or text.startswith("["):
        return None
    if "=" not in text:
        raise _usage_error(f"malformed line in {origin}: {line.rstrip()!r}")
    key, value = text.split("=", 1)
    return key.strip().replace("-", "_"), value.strip()


def _read_config_value(action: argparse.Action, value: str):
    """A config string read as its flag reads it; a value the flag rejects is a usage error."""
    try:
        parsed = (action.type or str)(value)
    except ValueError as exc:
        raise _usage_error(f"invalid value for config key {action.dest!r}: {exc}") from exc
    if action.choices is not None and parsed not in action.choices:
        raise _usage_error(
            f"invalid value for config key {action.dest!r}: {value!r} is not one of "
            f"{', '.join(map(str, action.choices))}"
        )
    return parsed


def _apply_config(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill flags the command line left unset, file first, then --set, last wins."""
    pairs: list[tuple[str, str]] = []
    if getattr(ns, "config", None):
        with open(ns.config, "r", encoding="utf-8") as fh:
            for line in fh:
                parsed = _parse_config_line(line, ns.config)
                if parsed:
                    pairs.append(parsed)
    for item in getattr(ns, "set", None) or []:
        parsed = _parse_config_line(item, "--set")
        if parsed is None:
            raise _usage_error(f"malformed --set {item!r}")
        pairs.append(parsed)
    commands = _subcommands(parser)
    known_keys = {a.dest for p in commands.values() for a in p._actions}
    merged: dict[str, str] = {}
    for key, value in pairs:
        if key not in known_keys or key in _NOT_CONFIG:
            raise _usage_error(f"unknown config key {key!r}")
        merged[key] = value
    actions = {a.dest: a for a in commands[ns.command]._actions}
    for key, value in merged.items():
        if key not in actions or getattr(ns, key) is not None:
            continue  # not for this subcommand, or explicitly set on the command line
        setattr(ns, key, _read_config_value(actions[key], value))


def _fill(ns: argparse.Namespace, **defaults) -> None:
    for key, value in defaults.items():
        if getattr(ns, key, None) is None:
            setattr(ns, key, value)


# -- subcommands ------------------------------------------------------------------


def _cmd_gen_data(ns) -> int:
    _fill(ns, n=1000, seed=0, workers=1,
          out=f"{ns.problem}_n{ns.n or 1000}_s{ns.seed or 0}.jsonl")
    binding = SimulatorBinding(ns.problem, workers=ns.workers, adapter_cmd=ns.adapter_cmd)
    records = harness.generate_dataset(ns.problem, ns.n, ns.seed, binding=binding, path=ns.out)
    print(f"wrote {len(records)} records to {ns.out}")
    return 0


def _cmd_split(ns) -> int:
    _fill(ns, seed=0, out=ns.data[: -len(".jsonl")] if ns.data.endswith(".jsonl") else ns.data)
    records = load_records(ns.data)
    splits = harness.split_dataset(records, ns.seed)
    for part in ("train", "val", "test"):
        path = f"{ns.out}.{part}.jsonl"
        dump_records(path, getattr(splits, part))
        print(f"wrote {len(getattr(splits, part))} records to {path}")
    return 0


def _cmd_targets(ns) -> int:
    _fill(ns, k=5, seed=harness.TARGET_SEED,
          out=f"{ns.problem}_targets.jsonl")
    binding = SimulatorBinding(ns.problem, adapter_cmd=ns.adapter_cmd)
    records = harness.iid_targets(ns.problem, ns.k, ns.seed, binding=binding)
    dump_records(ns.out, records)
    print(f"wrote {len(records)} targets to {ns.out}")
    return 0


def _cmd_train(ns) -> int:
    from . import surrogate

    _fill(ns, model="forward", seed=0,
          out=f"{ns.problem}_{ns.model or 'forward'}.bin")
    if ns.model == "tandem" and not ns.forward_model:
        raise _usage_error("--model tandem requires --forward-model")
    space = get_space(ns.problem)
    records = [r for r in load_records(ns.data) if not r.failed]
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
    surrogate.save_model(model, ns.out, meta={"problem": ns.problem, "model": ns.model})
    if ns.log:
        surrogate.save_training_log(log, ns.log)
    print(f"saved {ns.model} model to {ns.out} (final val loss {log[-1][2]:.6g})")
    return 0


def _cmd_run(ns) -> int:
    _fill(ns, budget=None, seeds=5, seed=0, workers=1, warm_start_k=0,
          target="iid", ask_batch=1,
          out=f"run_{ns.problem}_{ns.algo}")
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
        out_dir=ns.out,
    )
    report = harness.run_experiment(spec)
    final = report.mean_curve()
    tail = f"final mean loss {final[-1]:.6g}" if final.size else "baselines only"
    print(f"{report.algo} on {ns.problem}: {tail}")
    print(f"report {report.report_hash()} in {ns.out}")
    if report.failed_seeds:
        print(f"warning: seeds failed: {list(report.failed_seeds)}", file=sys.stderr)
    return 0


def _cmd_eval(ns) -> int:
    space = get_space(ns.problem)
    with open(ns.point, "r", encoding="utf-8") as fh:
        point = space.point(json.load(fh))
    target = None
    if ns.target == "builtin":
        target = harness.radiative_cooler_target()
    elif ns.target:
        target = harness.load_target(ns.target, space)
    with Engine(SimulatorBinding(ns.problem, adapter_cmd=ns.adapter_cmd)) as engine:
        record = engine.evaluate_batch([point], target=target)[0]
    if record.failed:
        print(f"error: evaluation failed: {record.meta.get('error')}", file=sys.stderr)
        return 1
    print(f"loss={record.loss:.12g}")
    return 0


def _cmd_plot(ns) -> int:
    reports = [harness.ExperimentReport.load(p) for p in ns.report]
    _fill(ns, out=os.path.join(os.path.dirname(ns.report[0]) or ".", "combined"))
    csv_path, svg_path = harness.emit_report(reports, ns.out)
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_echo_adapter(ns) -> int:
    from .adapters import echo_loop

    return echo_loop()


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="key = value file supplying unset flags")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one key (repeatable, last wins)")

    parser = argparse.ArgumentParser(
        prog="idkit",
        description="Inverse-design benchmark toolkit: datasets, optimizers, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-data", parents=[common],
                       help="sample and simulate a dataset of evaluation records")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--n", type=int, help="number of records (default 1000)")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p.add_argument("--workers", type=int, help="parallel simulator workers (default 1)")
    p.add_argument("--adapter-cmd", help="external simulator command")
    p.add_argument("--out", help="output .jsonl path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("split", parents=[common],
                       help="split a dataset into train/val/test files")
    p.add_argument("--data", required=True, help="input .jsonl dataset")
    p.add_argument("--seed", type=int, help="shuffle seed (default 0)")
    p.add_argument("--out", help="output prefix (default: input minus .jsonl)")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("targets", parents=[common],
                       help="draw realizable targets with their generating designs")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--k", type=int, help="number of targets (default 5)")
    p.add_argument("--seed", type=int, help="target draw seed")
    p.add_argument("--adapter-cmd", help="external simulator command")
    p.add_argument("--out", help="output .jsonl path")
    p.set_defaults(func=_cmd_targets)

    p = sub.add_parser("train", parents=[common],
                       help="fit a surrogate network on a dataset")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--data", required=True, help="training .jsonl dataset")
    p.add_argument("--model", choices=("forward", "inverse", "tandem"),
                   help="which net to fit (default forward)")
    p.add_argument("--forward-model", help="frozen forward checkpoint (tandem only)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int, help="init and shuffle seed (default 0)")
    p.add_argument("--out", help="checkpoint path")
    p.add_argument("--log", help="write per-epoch losses to this CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", parents=[common],
                       help="run one optimizer against one problem and report")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--algo", required=True, help="rs, es, tpe, bo, or sracos")
    p.add_argument("--budget", type=int, help="simulator calls per seed")
    p.add_argument("--seeds", type=int, help="number of seeds (default 5)")
    p.add_argument("--seed", type=int, help="first seed (default 0)")
    p.add_argument("--workers", type=int)
    p.add_argument("--warm-start-k", type=int, help="seed sessions with the k best dataset records")
    p.add_argument("--data", help="dataset .jsonl for warm starts and train-best")
    p.add_argument("--target", help="'iid', 'builtin', or a target file")
    p.add_argument("--adapter-cmd", help="external simulator command")
    p.add_argument("--ask-batch", type=int, help="points per ask (default 1)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate one design point and print its loss")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--point", required=True, help="JSON file with the design values")
    p.add_argument("--target", help="'builtin' or a target file (default: zero response)")
    p.add_argument("--adapter-cmd", help="external simulator command")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plot", parents=[common],
                       help="render saved reports to CSV and SVG")
    p.add_argument("--report", action="append", required=True,
                   help="report.json path (repeatable)")
    p.add_argument("--out", help="output prefix")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("echo-adapter", parents=[common],
                       help="serve the line-delimited echo adapter on stdio")
    p.set_defaults(func=_cmd_echo_adapter)

    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return parser._subparsers._group_actions[0].choices  # type: ignore[union-attr]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _apply_config(ns, parser)
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
