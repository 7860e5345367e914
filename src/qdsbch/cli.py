"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 budget
refusal.  Flags are checked before any work.  File outputs are built
fully in memory and written last, each through a temp file renamed over
its target, so a bad flag, a failed computation or a failed write never
leaves a partial file behind.

Each handler takes one route: `_load_qds` turns the code and SM flags
into the base code, its QDS code and the SM meta fields; `_meta` is the
one provenance stamp (version, command, parameters) behind the CSV meta
lines, the `qds assemble` meta block and the fields `sim grid` adds to
the grid's `code_meta`; `_emit` writes an output atomically to `--out`
or to stdout.  Only `qds assemble`, with its two files, calls
`_write_atomic` itself.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
from pathlib import Path
from math import inf
from typing import List, Optional, Tuple

from . import __version__
from .bch import bch_construct
from .linalg import _as_int
from .qds import (
    bch_sm,
    identity_sm,
    overhead_table,
    qds_assemble,
    repetition_sm,
    verify_correction_guarantee,
)
from .sim import SimGrid, _recombine, build_grid
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


def _load_qds(args):
    """The base code, its QDS code under the SM flags, and those flags as
    the meta fields that name the SM family."""
    base = _load_base_code(args)
    if args.sm == "bch":
        if args.t is None:
            raise UsageError("--sm bch requires --t")
        sm, sm_meta = bch_sm(base.ell, args.t), {"sm": "bch", "t": args.t}
    elif args.sm == "repetition":
        if args.reps is None:
            raise UsageError("--sm repetition requires --reps")
        sm, sm_meta = repetition_sm(base.ell, args.reps), {"sm": "repetition", "reps": args.reps}
    else:
        sm, sm_meta = identity_sm(base.ell), {"sm": "identity"}
    return base, qds_assemble(base, sm), sm_meta


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
            # a temp under a file, never made, raises NotADirectoryError
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):
                tmp.unlink()


def _emit(out: Optional[str], text: str, summary: str) -> None:
    """Write text atomically to out and say so, or to stdout without out."""
    if out:
        _write_atomic((out, text))
        print(f"wrote {out} ({summary})")
    else:
        sys.stdout.write(text)


def _decoder_for(base: StabilizerCode):
    if base.k == 0:
        raise UsageError("base code has k=0: no logical operator, so nothing to decode")
    d = _min_logical_weight(base)
    if d is None:
        raise UsageError("base code too large to build a lookup decoder for")
    return lookup_decoder_build(base, (d - 1) // 2)


def _meta(command: str, **params) -> dict:
    """The provenance every output carries: version, command, parameters."""
    return {"version": __version__, "command": command, **params}


def _meta_comment(command: str, **params) -> str:
    return "# meta: " + json.dumps(_meta(command, **params), sort_keys=True)


# --- subcommand handlers ----------------------------------------------------


def _cmd_bch_info(args) -> int:
    code = bch_construct(args.m, args.t)
    if args.shorten:
        code = code.shortened(args.shorten)
    print(f"[{code.length},{code.dimension},{code.distance}] R={code.r}")
    print(f"generator={code.generator.to_hex()}")
    return 0


def _cmd_qds_assemble(args) -> int:
    # a prefix like dir/ or dir/. would write hidden files such as dir/.txt
    if args.out and os.path.basename(args.out) in ("", ".", ".."):
        raise UsageError(f"--out {args.out} names a directory, not a file prefix")
    base, q, sm_meta = _load_qds(args)
    d = _min_logical_weight(base)
    params = {
        "n": base.n,
        "k": base.k,
        "d": d,
        "r": q.extra_measurements,
        "n_s": q.sm.n_s,
        "t_s": q.sm.t_s,
        "meta": _meta("qds assemble", **sm_meta),
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
        _meta_comment("qds count", ell_range=args.ell_range, t_range=args.t_range),
        "ell,t,bch,fujiwara,repetition",
    ]
    for row in rows:
        fuji = "" if row.fujiwara is None else str(row.fujiwara)
        lines.append(f"{row.ell},{row.t},{row.bch},{fuji},{row.repetition}")
    _emit(args.out, "\n".join(lines) + "\n", f"{len(rows)} rows")
    return 0


def _cmd_sim_grid(args) -> int:
    base, q, sm_meta = _load_qds(args)
    # (flag, value, lowest, highest): the weight limits stop at the domain
    limits = (
        ("--seed", args.seed, 0, None),
        ("--max-wq", args.max_wq, 0, base.n),
        ("--max-ws", args.max_ws, 0, q.sm.n_s),
        ("--trials", args.trials, 1, None),
        ("--bulk-trials", args.bulk_trials, 1, None),
    )
    for flag, value, lowest, highest in limits:
        if value is not None:
            _as_int(value, flag, lowest, highest)
    # sampling can take minutes: refuse an output that is a directory, or
    # whose directory part is missing or not a directory, first, with the
    # message a failed write would give
    if not args.out:
        raise UsageError("--out must name a file, got ''")
    why = errno.EISDIR if os.path.isdir(args.out) else None
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(args.out) or ".").st_mode):
            why = errno.ENOTDIR
    except OSError as exc:
        why = exc.errno
    if why:
        raise OSError(f"cannot write {args.out}: {os.strerror(why)}")
    decoder = _decoder_for(base)
    bulk = args.bulk_trials if args.bulk_trials is not None else max(1, args.trials // 10)
    cells = None
    if args.max_wq is not None or args.max_ws is not None:
        max_wq = args.max_wq if args.max_wq is not None else base.n
        max_ws = args.max_ws if args.max_ws is not None else q.sm.n_s
        cells = [(wq, ws) for wq in range(max_wq + 1) for ws in range(max_ws + 1)]
    grid = build_grid(
        q,
        decoder,
        seed=args.seed,
        boundary_trials=args.trials,
        bulk_trials=bulk,
        cells=cells,
    )
    grid.code_meta.update(
        _meta(
            "sim grid",
            code="file" if args.code_file else args.code,
            **sm_meta,
            boundary_trials=args.trials,
            bulk_trials=bulk,
        )
    )
    _emit(args.out, grid.to_json_text(), f"{len(grid.cells)} cells")
    return 0


def _cmd_sim_sweep(args) -> int:
    ps_values = _parse_prob_points(args.ps, "--ps")
    if not 0.0 <= args.ratio < inf:  # also true for NaN
        raise UsageError(f"--ratio must be finite and nonnegative, got {args.ratio}")
    points = [(args.ratio * p_s, p_s) for p_s in ps_values]
    for p_q, p_s in points:
        if not 0.0 <= p_s <= 1.0:  # also true for NaN
            raise UsageError(f"--ps point {p_s} is not a probability in [0, 1]")
        if p_q > 1.0:
            raise UsageError(f"--ratio {args.ratio} times --ps point {p_s} gives p_q = {p_q} > 1")
    try:
        grid = SimGrid.from_json_text(Path(args.grid).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"grid file {args.grid} is not JSON: {exc}") from None
    lines = [
        _meta_comment(
            "sim sweep",
            grid=args.grid,
            ps=args.ps,
            ratio=args.ratio,
            truncation=args.truncation,
            seed=grid.seed,
        ),
        "p_s,p_q,p_err,truncation_mass",
    ]
    for pt in _recombine(grid, points, args.truncation):
        lines.append(f"{pt.p_s:.12g},{pt.p_q:.12g},{pt.p_err:.12g},{pt.truncation_mass:.12g}")
    _emit(args.out, "\n".join(lines) + "\n", f"{len(ps_values)} points")
    return 0


def _cmd_verify(args) -> int:
    # no code meets a budget below 0, so it is a bad flag, not a refusal
    _as_int(args.budget, "--budget", 0)
    base, q, _ = _load_qds(args)
    decoder = _decoder_for(base)
    cells = verify_correction_guarantee(q, decoder, budget=args.budget)
    for cell in cells:
        status = "ok" if cell.failures == 0 else "FAIL"
        print(f"w_q={cell.w_q} w_s={cell.w_s} cases={cell.cases} failures={cell.failures} {status}")
    bad, total = sum(c.failures for c in cells), sum(c.cases for c in cells)
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
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
