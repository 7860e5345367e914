"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 budget
refusal.  File outputs are built fully in memory and written last, each
through a temp file renamed over its target, so a bad flag, a failed
computation or a failed write never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from pathlib import Path
from typing import List, Tuple

from . import __version__
from .bch import bch_construct
from .qds import (
    bch_sm,
    identity_sm,
    overhead_table,
    qds_assemble,
    repetition_sm,
    verify_correction_guarantee,
)
from .sim import SimGrid, _recombine, build_grid, default_code_meta
from .stabilizer import (
    BudgetExceededError,
    StabilizerCode,
    _min_logical_weight,
    lookup_decoder_build,
    parse_stabilizer_code,
    steane_code,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_int_range(text: str, flag: str) -> List[int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"{flag} must be an integer or LO:HI range, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"{flag}: empty range {text!r}")
    return list(range(lo, hi + 1))


def _parse_prob_points(text: str, flag: str) -> List[float]:
    import numpy as np

    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, spec = float(parts[0]), float(parts[1]), parts[2]
            count = int(spec[3:])
            if count < 1:
                raise ValueError
            if spec.startswith("log"):
                if start <= 0 or stop <= 0:
                    raise ValueError
                return [float(v) for v in np.logspace(np.log10(start), np.log10(stop), count)]
            if spec.startswith("lin"):
                return [float(v) for v in np.linspace(start, stop, count)]
        raise ValueError
    except ValueError:
        raise UsageError(
            f"{flag} must be VALUE or START:STOP:logN / START:STOP:linN with N >= 1, got {text!r}"
        ) from None


def _load_base_code(args) -> StabilizerCode:
    if args.code_file:
        text = Path(args.code_file).read_text()
        return parse_stabilizer_code(text)
    if args.code == "steane":
        return steane_code()
    raise UsageError(f"unknown code {args.code!r} (use --code steane or --code-file)")


def _build_sm(args, ell: int):
    if args.sm == "bch":
        if args.t is None:
            raise UsageError("--sm bch requires --t")
        return bch_sm(ell, args.t)
    if args.sm == "repetition":
        if args.reps is None:
            raise UsageError("--sm repetition requires --reps")
        return repetition_sm(ell, args.reps)
    if args.sm == "identity":
        return identity_sm(ell)
    raise UsageError(f"unknown SM family {args.sm!r}")


def _sm_meta(args) -> dict:
    if args.sm == "bch":
        return {"sm": "bch", "t": args.t}
    if args.sm == "repetition":
        return {"sm": "repetition", "reps": args.reps}
    return {"sm": "identity"}


def _write_atomic(*outputs: Tuple[str, str]) -> None:
    """Write each (path, text): stage every text in a temp file beside its
    target, then rename the temps over the targets.  A failure while
    staging leaves every target untouched; a failed rename puts back the
    targets already renamed, removing those that did not exist before.
    Neither leaves a temp behind."""
    staged = []
    renamed = []  # (target, its prior bytes or None where it did not exist)
    try:
        for path, text in outputs:
            tmp = Path(f"{path}.{os.getpid()}.tmp")
            staged.append((tmp, path))
            tmp.write_text(text)
        for tmp, path in staged:
            try:
                prior = Path(path).read_bytes()
            except FileNotFoundError:
                prior = None
            os.replace(tmp, path)
            renamed.append((Path(path), prior))
    except OSError as exc:
        for target, prior in reversed(renamed):
            if prior is None:
                target.unlink()
            else:
                target.write_bytes(prior)
        # name the target, not the temp file the error was raised on
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                tmp.unlink()


def _decoder_for(base: StabilizerCode, budget: int = 10**7):
    if base.k == 0:
        raise UsageError("base code has k=0: no logical operator, so nothing to decode")
    d = _min_logical_weight(base)
    if d is None:
        raise UsageError("base code too large to build a lookup decoder for")
    return lookup_decoder_build(base, (d - 1) // 2, budget=budget)


def _meta_comment(command: str, params: dict) -> str:
    meta = {"version": __version__, "command": command}
    meta.update(params)
    return "# meta: " + json.dumps(meta, sort_keys=True)


# --- subcommand handlers ----------------------------------------------------


def _cmd_bch_info(args) -> int:
    code = bch_construct(args.m, args.t)
    if args.shorten:
        code = code.shortened(args.shorten)
    print(f"[{code.length},{code.dimension},{code.distance}] R={code.r}")
    print(f"generator={code.generator.to_hex()}")
    return 0


def _cmd_qds_assemble(args) -> int:
    base = _load_base_code(args)
    sm = _build_sm(args, base.ell)
    q = qds_assemble(base, sm)
    d = _min_logical_weight(base)
    params = {
        "n": base.n,
        "k": base.k,
        "d": d,
        "r": q.extra_measurements,
        "n_s": sm.n_s,
        "t_s": sm.t_s,
        "meta": {"version": __version__, "command": "qds assemble", **_sm_meta(args)},
    }
    matrix_text = q.h_q.to_text()
    params_text = json.dumps(params, sort_keys=True, indent=2) + "\n"
    if args.out:
        _write_atomic((args.out + ".txt", matrix_text), (args.out + ".json", params_text))
        print(f"wrote {args.out}.txt and {args.out}.json")
    else:
        sys.stdout.write(matrix_text)
        sys.stdout.write(params_text)
    return 0


def _cmd_qds_count(args) -> int:
    ells = _parse_int_range(args.ell_range, "--ell-range")
    ts = _parse_int_range(args.t_range, "--t-range")
    if ells[0] < 1:
        raise UsageError("--ell-range must start at 1 or above")
    if ts[0] < 1:
        raise UsageError("--t-range must start at 1 or above")
    rows = overhead_table(ells, ts)
    lines = [
        _meta_comment("qds count", {"ell_range": args.ell_range, "t_range": args.t_range}),
        "ell,t,bch,fujiwara,repetition",
    ]
    for row in rows:
        fuji = "" if row.fujiwara is None else str(row.fujiwara)
        lines.append(f"{row.ell},{row.t},{row.bch},{fuji},{row.repetition}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_atomic((args.out, text))
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sim_grid(args) -> int:
    limits = (("--seed", args.seed), ("--max-wq", args.max_wq), ("--max-ws", args.max_ws))
    for flag, value in limits:
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be nonnegative, got {value}")
    # sampling can take minutes: refuse an output with no directory first,
    # with the message a failed write would give
    if not Path(args.out).parent.is_dir():
        raise OSError(f"cannot write {args.out}: {os.strerror(errno.ENOENT)}")
    base = _load_base_code(args)
    sm = _build_sm(args, base.ell)
    q = qds_assemble(base, sm)
    decoder = _decoder_for(base)
    bulk = args.bulk_trials if args.bulk_trials is not None else max(1, args.trials // 10)
    cells = None
    if args.max_wq is not None or args.max_ws is not None:
        max_wq = args.max_wq if args.max_wq is not None else base.n
        max_ws = args.max_ws if args.max_ws is not None else sm.n_s
        cells = [(wq, ws) for wq in range(max_wq + 1) for ws in range(max_ws + 1)]
    meta = {
        **default_code_meta(q, decoder),
        "command": "sim grid",
        "code": "file" if args.code_file else args.code,
        **_sm_meta(args),
        "boundary_trials": args.trials,
        "bulk_trials": bulk,
    }
    grid = build_grid(
        q,
        decoder,
        seed=args.seed,
        boundary_trials=args.trials,
        bulk_trials=bulk,
        cells=cells,
        code_meta=meta,
    )
    _write_atomic((args.out, grid.to_json_text()))
    print(f"wrote {args.out} ({len(grid.cells)} cells)")
    return 0


def _cmd_sim_sweep(args) -> int:
    ps_values = _parse_prob_points(args.ps, "--ps")
    if args.ratio < 0:
        raise UsageError("--ratio must be nonnegative")
    grid = SimGrid.from_json_text(Path(args.grid).read_text())
    lines = [
        _meta_comment(
            "sim sweep",
            {
                "grid": args.grid,
                "ps": args.ps,
                "ratio": args.ratio,
                "truncation": args.truncation,
                "seed": grid.seed,
            },
        ),
        "p_s,p_q,p_err,truncation_mass",
    ]
    points = [(args.ratio * p_s, p_s) for p_s in ps_values]
    for pt in _recombine(grid, points, args.truncation):
        lines.append(f"{pt.p_s:.12g},{pt.p_q:.12g},{pt.p_err:.12g},{pt.truncation_mass:.12g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_atomic((args.out, text))
        print(f"wrote {args.out} ({len(ps_values)} points)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    base = _load_base_code(args)
    sm = _build_sm(args, base.ell)
    q = qds_assemble(base, sm)
    decoder = _decoder_for(base)
    cells = verify_correction_guarantee(q, decoder, budget=args.budget)
    bad = 0
    for cell in cells:
        status = "ok" if cell.failures == 0 else "FAIL"
        print(f"w_q={cell.w_q} w_s={cell.w_s} cases={cell.cases} failures={cell.failures} {status}")
        bad += cell.failures
    total = sum(c.cases for c in cells)
    if bad:
        print(f"FAIL: {bad} of {total} cases left a nontrivial residual")
        return 2
    print(f"PASS: all {total} cases corrected exactly")
    return 0


# --- parser wiring ----------------------------------------------------------


def _add_code_flags(p: _Parser):
    p.add_argument("--code", default="steane", help="built-in base code name (steane)")
    p.add_argument("--code-file", default=None, help="stabilizer code text file")
    p.add_argument("--sm", default="bch", choices=["bch", "repetition", "identity"])
    p.add_argument("--t", type=int, default=None, help="BCH SM correction radius")
    p.add_argument("--reps", type=int, default=None, help="repetition count (odd)")


def build_parser() -> _Parser:
    parser = _Parser(prog="qdsbch", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qdsbch {__version__}")
    sub = parser.add_subparsers(dest="group", required=True)

    p_bch = sub.add_parser("bch", help="classical BCH code tools")
    bch_sub = p_bch.add_subparsers(dest="cmd", required=True)
    p_info = bch_sub.add_parser("info", help="construct a code and print its parameters")
    p_info.add_argument("--m", type=int, required=True)
    p_info.add_argument("--t", type=int, required=True)
    p_info.add_argument("--shorten", type=int, default=0)
    p_info.set_defaults(func=_cmd_bch_info)

    p_qds = sub.add_parser("qds", help="data-syndrome code assembly and counting")
    qds_sub = p_qds.add_subparsers(dest="cmd", required=True)
    p_asm = qds_sub.add_parser("assemble", help="assemble H_Q and parameter block")
    _add_code_flags(p_asm)
    p_asm.add_argument("--out", default=None, help="output prefix (PREFIX.txt, PREFIX.json)")
    p_asm.set_defaults(func=_cmd_qds_assemble)
    p_count = qds_sub.add_parser("count", help="overhead comparison table (CSV)")
    p_count.add_argument("--ell-range", required=True, help="LO:HI syndrome bit counts")
    p_count.add_argument("--t-range", required=True, help="LO:HI correction radii")
    p_count.add_argument("--out", default=None)
    p_count.set_defaults(func=_cmd_qds_count)

    p_sim = sub.add_parser("sim", help="Monte Carlo estimation")
    sim_sub = p_sim.add_subparsers(dest="cmd", required=True)
    p_grid = sim_sub.add_parser("grid", help="sample a weight-stratified grid")
    _add_code_flags(p_grid)
    p_grid.add_argument("--trials", type=int, default=10_000, help="trials per boundary cell")
    p_grid.add_argument("--bulk-trials", type=int, default=None, help="trials per bulk cell")
    p_grid.add_argument("--seed", type=int, required=True)
    p_grid.add_argument("--max-wq", type=int, default=None, help="limit sampled data weights")
    p_grid.add_argument("--max-ws", type=int, default=None, help="limit sampled flip weights")
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(func=_cmd_sim_grid)
    p_sweep = sim_sub.add_parser("sweep", help="recombine a grid into an error-rate curve")
    p_sweep.add_argument("--grid", required=True)
    p_sweep.add_argument("--ps", required=True, help="p_s points, e.g. 1e-4:1e-1:log25")
    p_sweep.add_argument("--ratio", type=float, required=True, help="p_q = ratio * p_s")
    p_sweep.add_argument("--truncation", type=float, default=1e-12)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sim_sweep)

    p_verify = sub.add_parser("verify", help="exhaustively check the correction guarantee")
    _add_code_flags(p_verify)
    p_verify.add_argument("--budget", type=int, default=10**6, help="max case count")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc} (required budget: {exc.required})", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
