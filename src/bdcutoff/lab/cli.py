"""Command line front end.

Subcommands: sample, analyze, ensemble, probe {marginal|tail|markov|
levy|contraction}, compare-metropolis. Each takes only the flags it
reads; a flat key=value config file (--config) supplies defaults for the
same ExperimentConfig fields, and explicit flags override it. Exit
codes: 0 success, 1 usage or configuration error, 2 runtime failure.
"""

import argparse
import dataclasses
import functools
import json
import sys

from ..compare import comparison_diagnostic
from ..dist import FAMILIES
from ..errors import ParameterError
from ..sampler import _check_scan_weight, run_gibbs
from .config import FORMATS, ExperimentConfig
from .ensemble import (RECORD_FIELDS, analyze_kernel, record_rows,
                       replicate_seed, run_ensemble, sampled_kernel)
from .probes import PROBES
from .tableio import atomic_write_text, jsonable, render_table, write_table

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {text!r}")


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma list of reals: {text!r}")


# every flag, by --help group; every default is None so the config file
# can fill anything the command line left unset
_FLAGS = {
    "distribution": {
        "--family": dict(choices=FAMILIES),
        "--n": dict(dest="n_list", type=_int_list, metavar="N[,N...]",
                    help="state counts (comma separated)"),
        "--a": dict(type=float, help="geometric / interior-flat ratio"),
        "--eps": dict(type=float, help="interior-flat width exponent"),
        "--mass": dict(type=_float_list, metavar="P[,P...]",
                       help="explicit stationary mass")},
    "sampler": {
        "--k": dict(type=int, help="block width"),
        "--w": dict(type=float,
                    help="boundary block-start weight; at --k 1 only "
                         "probe contraction reads it"),
        "--steps": dict(type=int,
                        help="updates to run after the exact draw"),
        "--thin": dict(type=int, help="updates per retained state"),
        "--reps": dict(type=int, help="replicates per state count"),
        "--seed": dict(type=int, help="master seed (64-bit)"),
        "--max-rejection-tries": dict(type=int,
                                      help="block-proposal stall threshold")},
    "analysis": {
        "--delta": dict(type=float, help="hitting-proxy quantile"),
        "--exact-tau": dict(action="store_const", const=True,
                            help="compute exact mixing times (small n)"),
        "--horizon": dict(type=int, help="mixing-time step cap"),
        "--exhaustive-starts": dict(
            action="store_const", const=True,
            help="worst-case TV over every start state"),
        "--raw-kernel": dict(
            action="store_const", const=True,
            help="analyze the sampled kernel without the half-lazy map"),
        "--alpha": dict(type=float,
                        help="comparison cut-selection level in (0, 1]")},
    "probes": {
        "--coord": dict(type=int, help="probed coordinate index"),
        "--probe-samples": dict(type=int, help="retained probe samples"),
        "--probe-thin": dict(type=int,
                             help="probe retention spacing (default "
                                  "(n-1)//4k; markov (n-1)//k)"),
        "--window": dict(type=int, help="sum-probe window length"),
        "--coupon-c": dict(type=float, help="coverage-check offset c"),
        "--coupon-runs": dict(type=int, help="coverage-check run count")},
    "output": {
        "--out": dict(help="output file (stdout when omitted)"),
        "--format": dict(choices=FORMATS, help="table format"),
        "--workers": dict(type=int, help="parallel worker processes"),
        "--timings": dict(action="store_const", const=True,
                          help="record wall-clock runtime_ms (voids "
                               "byte-identity)"),
        "--config": dict(dest="config_path", metavar="PATH",
                         help="flat key=value defaults file; flags "
                              "override it")},
}
_SHARED = "--family --n --a --eps --mass --seed --out --config"
# read only where a chain runs: a sampled kernel is an exact draw
_CHAIN = "--k --w --max-rejection-tries"
_ANALYSIS = "--delta --exact-tau --horizon --exhaustive-starts --raw-kernel"
_WINDOW = f"{_CHAIN} --format --workers --coord --probe-samples --probe-thin"
# the flags each command reads besides _SHARED
_READS = {
    "sample": f"{_CHAIN} --steps --thin --reps --format",
    "analyze": _ANALYSIS,
    "ensemble": f"--reps {_ANALYSIS} --format --workers --timings",
    "compare-metropolis": "--reps --alpha --format --workers",
    # no probe reads --workers; bench/run.py run_calls appends it to every call
    "probe marginal": _WINDOW,
    "probe tail": _WINDOW,
    "probe markov": _WINDOW,
    "probe levy": "--reps --window --format --workers",
    "probe contraction": f"{_CHAIN} --reps --coupon-c --coupon-runs --format "
                         "--workers",
}
# commands that run at one state count; the rest take a list
_ONE_SIZE = ("analyze", "compare-metropolis", "probe marginal", "probe tail",
             "probe markov", "probe levy")
# their --n: still parsed as a list, which make_config then refuses
_ONE_N = dict(_FLAGS["distribution"]["--n"], metavar="N", help="state count")


def _add_command(sub, name: str, run, **prose) -> None:
    """A parser for name with only the flags it reads; the config keys
    it reads are their dests, and tail_grid on probe tail. A flag must be
    spelled out, so that one a command does not read is never taken for
    a longer one it does (--w for --workers)."""
    parser = sub.add_parser(name.rpartition(" ")[2], allow_abbrev=False,
                            **prose)
    reads = f"{_SHARED} {_READS[name]}".split()
    keys = {"tail_grid"} if name == "probe tail" else set()
    for title, flags in _FLAGS.items():
        group = parser.add_argument_group(title)
        for flag, spec in flags.items():
            if flag in reads:
                if flag == "--n" and name in _ONE_SIZE:
                    spec = _ONE_N
                keys.add(group.add_argument(flag, **spec).dest)
    parser.set_defaults(command=name, run=run, parser=parser,
                        config_keys=keys & _CONFIG_FIELDS.keys())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first call and shared by every
    later call in the process; parsing leaves it unchanged. Building it
    costs about as much as a small ensemble run, which matters to
    callers that run cli_main many times in one process."""
    top = argparse.ArgumentParser(
        prog="bdcutoff",
        description="Sample random birth-death kernels with a prescribed "
                    "stationary distribution and measure their mixing.")
    sub = top.add_subparsers(required=True, metavar="command")
    _add_command(
        sub, "sample", _cmd_sample,
        help="emit sampled superdiagonal states",
        description="Draw each replicate's state exactly and emit it "
                    "in long form (n, family, rep_id, seed_sub, "
                    "sample_idx, coord, value). With --steps the later "
                    "trace is retained every --thin updates; otherwise one "
                    "final state per replicate.")
    _add_command(
        sub, "analyze", _cmd_analyze,
        help="sample one kernel and print its mixing report",
        description="One replicate: draw a state exactly, build the "
                    "kernel, run the full analysis, print a JSON report.")
    _add_command(
        sub, "ensemble", _cmd_ensemble,
        help="run replicates across state counts into a table",
        description="One record per (n, replicate): gap, regime bounds, "
                    "mixing time or proxy, cutoff product.")
    probe_help = "Summary JSON on stdout; per-row statistics to --out."
    probes = sub.add_parser(
        "probe", help="distributional checks of the sampled ensemble",
        description=probe_help).add_subparsers(
            required=True, metavar="{" + "|".join(sorted(PROBES)) + "}")
    for name in sorted(PROBES):
        _add_command(probes, f"probe {name}",
                     functools.partial(_cmd_probe, name),
                     description=probe_help)
    _add_command(
        sub, "compare-metropolis", _cmd_compare,
        help="mixing products of sampled kernels against Metropolis",
        description="Samples an ensemble, evaluates each kernel's proxy "
                    "mixing product, and reports ratios to the Metropolis "
                    "benchmark with the rare-event threshold.")
    return top


def _parse_config_value(name: str, raw: str):
    field = _CONFIG_FIELDS[name]
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        if field.default is not None:
            raise ParameterError(f"config key {name}: cannot be none")
        return None
    if name == "n_list":
        return tuple(int(v) for v in raw.split(","))
    if name in ("mass", "tail_grid"):
        return tuple(float(v) for v in raw.split(","))
    typ = str(field.type)
    if "bool" in typ or isinstance(field.default, bool):
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ParameterError(f"config key {name}: not a boolean: {raw!r}")
    if "int" in typ:
        return int(raw)
    if "float" in typ:
        return float(raw)
    return raw


def load_config_file(path: str, keys=_CONFIG_FIELDS) -> dict:
    """Flat key=value text; '#' comments; keys may use '-' or '_' and
    must be among keys."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        name = key.strip().replace("-", "_")
        if name == "n":
            name = "n_list"
        if name not in keys:
            raise ParameterError(f"{path}:{lineno}: unknown key {key.strip()!r}")
        out[name] = _parse_config_value(name, raw)
    return out


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = {}
    if args.config_path:
        merged.update(load_config_file(args.config_path, args.config_keys))
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    cfg = ExperimentConfig(**merged)
    if args.command in _ONE_SIZE and len(cfg.n_list) > 1:
        raise ParameterError(f"{args.command} runs at one state count, got "
                             f"n {','.join(map(str, cfg.n_list))}")
    return cfg


def _emit_json(payload, out: str | None) -> None:
    text = json.dumps(jsonable(payload), indent=2) + "\n"
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _emit_table(fieldnames, rows, cfg: ExperimentConfig) -> None:
    if cfg.out:
        write_table(cfg.out, fieldnames, rows, cfg.format)
    else:
        sys.stdout.write(render_table(fieldnames, rows, cfg.format))


def _cmd_sample(cfg: ExperimentConfig) -> int:
    _check_scan_weight(cfg.k, cfg.w)
    rows = []
    for n in sorted(cfg.n_list):
        dist = cfg.make_dist(n)
        for rep in range(cfg.reps):
            seed_sub = replicate_seed(cfg.seed, n, rep)
            trace = run_gibbs(cfg.sampler_config(
                dist, seed_sub, steps=cfg.steps, thin=cfg.thin))
            states = trace.samples if len(trace.samples) else [trace.final]
            for idx, state in enumerate(states):
                for coord, value in enumerate(state):
                    rows.append({"n": dist.n, "family": cfg.family,
                                 "rep_id": rep, "seed_sub": seed_sub,
                                 "sample_idx": idx, "coord": coord,
                                 "value": float(value)})
    _emit_table(("n", "family", "rep_id", "seed_sub", "sample_idx",
                 "coord", "value"), rows, cfg)
    return 0


def _cmd_analyze(cfg: ExperimentConfig) -> int:
    seed_sub, kern = sampled_kernel(cfg, cfg.n_list[0], 0)
    report = analyze_kernel(cfg, kern)
    payload = {
        "n": kern.n, "family": cfg.family, "seed_sub": seed_sub,
        "gap": report.gap,
        "miclo": dict(report.miclo._asdict()),
        "hit_up": report.hit_up, "hit_down": report.hit_down,
        "tau": report.tau, "tau_proxy": report.tau_proxy,
        "proxy_flag": report.proxy_flag,
        "cutoff_product": report.cutoff_product,
        "dlp_scale": report.dlp_scale,
        "max_recip_superdiag": kern.max_recip_superdiag,
        "lazy": not cfg.raw_kernel, "delta": cfg.delta}
    _emit_json(payload, cfg.out)
    return 0


def _cmd_ensemble(cfg: ExperimentConfig) -> int:
    records = run_ensemble(cfg)
    _emit_table(RECORD_FIELDS, record_rows(records), cfg)
    return 0


def _cmd_probe(name: str, cfg: ExperimentConfig) -> int:
    # looked up per call, not when the cached parser was built, so that a
    # later rebinding of PROBES[name] (a wrapper, a test double) is seen
    result = PROBES[name](cfg)
    _emit_json({"probe": result.probe, "summary": result.summary,
                "flags": list(result.flags)}, None)
    if cfg.out:
        write_table(cfg.out, result.fieldnames, result.rows, cfg.format)
    return 0


def _cmd_compare(cfg: ExperimentConfig) -> int:
    if cfg.reps < 1:
        raise ParameterError(
            f"compare-metropolis needs --reps >= 1, got {cfg.reps}")
    records = run_ensemble(cfg)
    for r in records:
        if r.error:
            print(f"bdcutoff: {r.error}", file=sys.stderr)
            return 2
    dist = cfg.make_dist(cfg.n_list[0])
    report = comparison_diagnostic(
        dist, [r.cutoff_product for r in records], alpha=cfg.alpha)
    _emit_json({
        "n": dist.n, "family": cfg.family, "replicates": len(records),
        "metropolis": dict(report.metropolis._asdict()),
        "x_n": report.x_n, "side": report.side, "alpha": report.alpha,
        "threshold": report.threshold,
        "ratio_quantiles": report.ratio_quantiles,
        "flagged": int(report.flagged.sum()), "proxy": True}, None)
    if cfg.out:
        rows = [{"rep_id": r.rep_id, "seed_sub": r.seed_sub,
                 "product": float(report.products[i]),
                 "ratio": float(report.ratios[i]),
                 "flagged": bool(report.flagged[i])}
                for i, r in enumerate(records)]
        write_table(cfg.out, ("rep_id", "seed_sub", "product", "ratio",
                              "flagged"), rows, cfg.format)
    return 0


def cli_main(argv) -> int:
    try:
        args, extra = build_parser().parse_known_args(list(argv))
        if extra:  # in the usage of the command that did not read them
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = make_config(args)
    except (ParameterError, OSError, ValueError) as exc:
        print(f"bdcutoff: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(cfg)
    except ParameterError as exc:
        print(f"bdcutoff: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"bdcutoff: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
