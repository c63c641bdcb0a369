"""Command line front end.

Subcommands: sample, analyze, ensemble, probe {marginal|tail|markov|
levy|contraction}, compare-metropolis. Flags mirror ExperimentConfig;
a flat key=value config file (--config) supplies defaults and explicit
flags override it. Exit codes: 0 success, 1 usage or configuration
error, 2 runtime failure.
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


def _common_flags() -> argparse.ArgumentParser:
    """Shared flag set; every default is None so the config file can
    fill anything the command line left unset."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("distribution")
    g.add_argument("--family", choices=FAMILIES)
    g.add_argument("--n", dest="n_list", type=_int_list, metavar="N[,N...]",
                   help="state counts (comma separated)")
    g.add_argument("--a", type=float, help="geometric / interior-flat ratio")
    g.add_argument("--eps", type=float, help="interior-flat width exponent")
    g.add_argument("--mass", type=_float_list, metavar="P[,P...]",
                   help="explicit stationary mass")
    g = p.add_argument_group("sampler")
    g.add_argument("--k", type=int, help="block width")
    g.add_argument("--w", type=float,
                   help="boundary block-start weight; at --k 1 only "
                        "probe contraction reads it")
    g.add_argument("--steps", type=int,
                   help="updates to run after equilibration")
    g.add_argument("--thin", type=int, help="updates per retained state")
    g.add_argument("--reps", type=int, help="replicates per state count")
    g.add_argument("--seed", type=int, help="master seed (64-bit)")
    g.add_argument("--equilibration", type=int,
                   help="updates before the first kept state (default "
                        "0 at --k 1, which starts exact; else 20 n ln n)")
    g.add_argument("--max-rejection-tries", type=int,
                   help="block-proposal stall threshold")
    g = p.add_argument_group("analysis")
    g.add_argument("--delta", type=float, help="hitting-proxy quantile")
    g.add_argument("--exact-tau", action="store_const", const=True,
                   help="compute exact mixing times (small n)")
    g.add_argument("--horizon", type=int, help="mixing-time step cap")
    g.add_argument("--exhaustive-starts", action="store_const", const=True,
                   help="worst-case TV over every start state")
    g.add_argument("--raw-kernel", action="store_const", const=True,
                   help="analyze the sampled kernel without the half-lazy map")
    g.add_argument("--alpha", type=float,
                   help="comparison cut-selection level in (0, 1]")
    g = p.add_argument_group("probes")
    g.add_argument("--coord", type=int, help="probed coordinate index")
    g.add_argument("--probe-samples", type=int, help="retained probe samples")
    g.add_argument("--probe-thin", type=int,
                   help="probe retention spacing (default (n-1)//4k; "
                        "markov (n-1)//k)")
    g.add_argument("--window", type=int, help="sum-probe window length")
    g.add_argument("--coupon-c", type=float, help="coverage-check offset c")
    g.add_argument("--coupon-runs", type=int, help="coverage-check run count")
    g = p.add_argument_group("output")
    g.add_argument("--out", help="output file (stdout when omitted)")
    g.add_argument("--format", choices=FORMATS, help="table format")
    g.add_argument("--workers", type=int, help="parallel worker processes")
    g.add_argument("--timings", action="store_const", const=True,
                   help="record wall-clock runtime_ms (voids byte-identity)")
    g.add_argument("--config", dest="config_path", metavar="PATH",
                   help="flat key=value defaults file; flags override it")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first call and shared by every
    later call in the process; parsing leaves it unchanged. Building it
    costs about as much as a small ensemble run, which matters to
    callers that run cli_main many times in one process."""
    common = _common_flags()
    top = argparse.ArgumentParser(
        prog="bdcutoff",
        description="Sample random birth-death kernels with a prescribed "
                    "stationary distribution and measure their mixing.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    sub.add_parser(
        "sample", parents=[common],
        help="emit equilibrated superdiagonal states",
        description="Equilibrate and emit sampled states in long form "
                    "(n, family, rep_id, seed_sub, sample_idx, coord, "
                    "value). With --steps the post-equilibration trace is "
                    "retained every --thin updates; otherwise one final "
                    "state per replicate.")
    sub.add_parser(
        "analyze", parents=[common],
        help="sample one kernel and print its mixing report",
        description="One replicate: equilibrate, build the kernel, run the "
                    "full analysis, print a JSON report.")
    sub.add_parser(
        "ensemble", parents=[common],
        help="run replicates across state counts into a table",
        description="One record per (n, replicate): gap, regime bounds, "
                    "mixing time or proxy, cutoff product.")
    pr = sub.add_parser(
        "probe", parents=[common],
        help="distributional checks of the sampled ensemble",
        description="Summary JSON on stdout; per-row statistics to --out.")
    pr.add_argument("probe_name", choices=sorted(PROBES),
                    metavar="{" + "|".join(sorted(PROBES)) + "}")
    sub.add_parser(
        "compare-metropolis", parents=[common],
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


def load_config_file(path: str) -> dict:
    """Flat key=value text; '#' comments; keys may use '-' or '_'."""
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
        if name not in _CONFIG_FIELDS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key.strip()!r}")
        out[name] = _parse_config_value(name, raw)
    return out


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = {}
    if getattr(args, "config_path", None):
        merged.update(load_config_file(args.config_path))
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return ExperimentConfig(**merged)


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


def _cmd_probe(cfg: ExperimentConfig, probe_name: str) -> int:
    result = PROBES[probe_name](cfg)
    _emit_json({"probe": result.probe, "summary": result.summary,
                "flags": list(result.flags)}, None)
    if cfg.out:
        write_table(cfg.out, result.fieldnames, result.rows, cfg.format)
    return 0


def _cmd_compare(cfg: ExperimentConfig) -> int:
    if cfg.reps < 1:
        raise ParameterError(
            f"compare-metropolis needs --reps >= 1, got {cfg.reps}")
    # the comparison is defined on the proxy product of the half-lazy kernel
    for name, flag in (("delta", "--delta"), ("raw_kernel", "--raw-kernel"),
                       ("exact_tau", "--exact-tau")):
        if getattr(cfg, name) != getattr(ExperimentConfig, name):
            raise ParameterError(
                f"compare-metropolis does not take {flag}: it always uses "
                f"the hitting-time proxy of the half-lazy kernel at delta "
                f"{ExperimentConfig.delta}")
    n = cfg.n_list[0]
    records = run_ensemble(dataclasses.replace(cfg, n_list=(n,)))
    for r in records:
        if r.error:
            print(f"bdcutoff: {r.error}", file=sys.stderr)
            return 2
    dist = cfg.make_dist(n)
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
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = make_config(args)
    except (ParameterError, OSError, ValueError) as exc:
        print(f"bdcutoff: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "sample":
            return _cmd_sample(cfg)
        if args.command == "analyze":
            return _cmd_analyze(cfg)
        if args.command == "ensemble":
            return _cmd_ensemble(cfg)
        if args.command == "probe":
            return _cmd_probe(cfg, args.probe_name)
        if args.command == "compare-metropolis":
            return _cmd_compare(cfg)
        print(f"bdcutoff: unknown command {args.command!r}", file=sys.stderr)
        return 1
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
