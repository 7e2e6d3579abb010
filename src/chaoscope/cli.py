"""Command-line surface.

One subcommand per capability: build and inspect levels, validate cover
axioms, materialize and export graphs, run orbits, measure distances and
degrees, scan for Li-Yorke behavior, verify the mixing gap claims, check
cover documents, and run the acceptance battery.

Determinism contract: identical arguments (including --seed) produce
byte-identical artifacts.  Exit codes: 0 = pass, 1 = a checked property
failed, 2 = usage or budget error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

from . import analysis, bouquet, dsl, dynamics, graphs, verify
from .bouquet import DEFAULT_SCAN_BUDGET, VertexAddr, build_level_spec
from .dynamics import PointHandle
from .errors import ChaoscopeError, decimal_text

class UsageError(ChaoscopeError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's own errors (subparsers inherit the class) become a
    UsageError, so main reports them in one line with exit 2."""

    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """argparse type of counts, horizons and levels: a non-negative int."""
    # argparse passes UsageError through (not ValueError) to main's one-line report
    if not text.isdecimal():
        raise UsageError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """argparse type of sample sizes: an int >= 1, so no run checks nothing."""
    if not text.isdecimal() or not int(text):
        raise UsageError(f"expected a positive integer, got {text!r}")
    return int(text)


def _rate(text: str) -> float:
    """argparse type of --sep-rate: a fraction of pairs, in [0, 1]."""
    try:
        rate = float(text)
        if 0 <= rate <= 1:  # false for nan
            return rate
    except ValueError:
        pass
    raise UsageError(f"expected a rate in [0, 1], got {text!r}")


def parse_handle(spec: str) -> PointHandle:
    """Handle spec: SPINE:CYCLE:POS, optionally @OFFSET (cycle 0 = fixed point)."""
    try:
        body, _, off = spec.partition("@")
        spine_s, cycle_s, pos_s = body.split(":")
        spine, cycle, pos = int(spine_s), int(cycle_s), int(pos_s)
        offset = int(off) if off else 0
    except ValueError:
        raise UsageError(f"bad handle spec {spec!r}, expected SPINE:CYCLE:POS[@T]")
    return dynamics.new_handle(spine, cycle, pos, offset)


def _write_artifacts(args, artifacts: dict[str, str]) -> None:
    """Print the artifacts to stdout, or write each to its file under --out
    with a manifest.json of the command, every option and each file's hash."""
    out = getattr(args, "out", None)  # check has no --out
    if not out:
        for text in artifacts.values():
            sys.stdout.write(text)
        return
    out_dir = Path(out)
    records = []
    # ints as decimal strings, as in the artifacts; bools stay booleans
    config = {key: str(value) if type(value) is int else value
              for key, value in vars(args).items()
              if key not in ("func", "out", "command")}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            data = text.encode("utf-8")
            (out_dir / name).write_bytes(data)
            records.append({"path": name, "bytes": len(data),
                            "sha256": hashlib.sha256(data).hexdigest()})
        manifest = {"command": args.command, "config": config, "artifacts": records}
        (out_dir / "manifest.json").write_text(_json(manifest))
    except OSError as exc:
        raise UsageError(f"cannot write to {out_dir}: {exc}")
    print(f"wrote {len(records)} artifact(s) to {out_dir}")


def _json(record) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns the process exit code and its
# artifacts, {file name: text} in output order, for _write_artifacts.
# ---------------------------------------------------------------------------

def _read_cover(path: str, label: str) -> dsl.CoverDocument:
    """Parse a ``.cover`` file; a file that cannot be read or is not UTF-8
    is a usage error that names ``label``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {label}: {exc}")
    return dsl.parse(text)


def _spec_for(cover: str | None):
    """Level lookup for ``--cover``: the built-in tower, or the document's."""
    if cover is None:
        return build_level_spec
    try:
        document = _read_cover(cover, "cover file")
    except dsl.DslSyntaxError as exc:  # a usage error: no property of it is checked
        raise UsageError(f"cover file: syntax error: {exc}")
    return dsl.document_tower(document).__getitem__


def cmd_levels(args) -> tuple[int, dict[str, str]]:
    spec_for = _spec_for(args.cover)
    # the deepest level first, so a built-in level past the limit is
    # refused before any level is built
    spec_for(args.max)
    rows = []
    for n in range(0, args.max + 1):
        spec = spec_for(n)
        if args.formulas:
            rows.append(bouquet.level_spec_json(spec))
        else:
            rows.append({"level": n, "k": decimal_text(spec.k_value),
                         "cycle_lengths": [decimal_text(x) for x in spec.cycle_lengths]})
    if args.format == "json" or args.formulas:
        return 0, {"levels.json": _json(rows)}
    lines = [f"{'level':>5}  {'k':>12}  cycle lengths"]
    for row in rows:
        lines.append(f"{row['level']:>5}  {row['k']:>12}  "
                     + (", ".join(row["cycle_lengths"]) or "-"))
    return 0, {"levels.txt": "\n".join(lines) + "\n"}


def cmd_validate(args) -> tuple[int, dict[str, str]]:
    spec_for = _spec_for(args.cover)
    failures = 0
    lines = []
    for n in range(0, args.max_level + 1):
        level = bouquet.materialize_graph(n, args.vertex_budget, spec_for=spec_for)
        surj, hom, bd = verify.cover_violations(level)
        failures += len(surj) + len(hom) + len(bd)
        lines.append(f"level {n}: {level.graph.vertex_count} vertices, "
                     f"{level.graph.edge_count} edges, "
                     f"violations: surjectivity {len(surj)}, homomorphism "
                     f"{len(hom)}, bidirectionality {len(bd)}")
    return (0 if failures == 0 else 1), {"validate.txt": "\n".join(lines) + "\n"}


def cmd_materialize(args) -> tuple[int, dict[str, str]]:
    level = bouquet.materialize_graph(args.level, args.vertex_budget,
                                      spec_for=_spec_for(args.cover))
    stats = {"vertex_count": level.graph.vertex_count, "edge_count": level.graph.edge_count,
             "level": level.level, "cycle_lengths": [str(n) for n in level.cycle_lengths]}
    artifacts = {f"level{args.level}.stats.json": _json(stats)}
    if args.dot:
        buf = io.StringIO()
        graphs.write_dot(level.graph, buf, name=f"level_{args.level}")
        artifacts[f"level{args.level}.dot"] = buf.getvalue()
    return 0, artifacts


def cmd_orbit(args) -> tuple[int, dict[str, str]]:
    if args.base:
        handle = dynamics.fixed_point(args.spine)
    else:
        if args.cycle is None or args.pos is None:
            raise UsageError("orbit needs --cycle and --pos (or --base)")
        handle = dynamics.new_handle(args.spine, args.cycle, args.pos)
    depth = args.obs if args.obs is not None else args.spine
    if depth > args.spine:
        raise UsageError("--obs cannot exceed --spine")
    buf = io.StringIO()
    if args.format == "jsonl":
        dynamics.write_orbit_jsonl(buf, handle, depth, args.horizon)
    else:
        dynamics.write_orbit_csv(buf, handle, depth, args.horizon)
    return 0, {f"orbit.{args.format}": buf.getvalue()}


def cmd_distance(args) -> tuple[int, dict[str, str]]:
    a = parse_handle(args.a)
    b = parse_handle(args.b)
    d = dynamics.distance(a, b)
    if args.format == "json":
        record = {"a": a.to_json(), "b": b.to_json(),
                  "exact": d.exact, "level": d.level, "distance": str(d)}
        return 0, {"distance.json": _json(record)}
    return 0, {"distance.txt": f"d({args.a}, {args.b}) = {d}\n"}


def cmd_degree(args) -> tuple[int, dict[str, str]]:
    handle = parse_handle(args.handle)
    deg = analysis.degree_of_column(handle, args.obs)
    record = {"handle": handle.to_json(), "degree": str(deg)}
    if args.window is not None:
        if args.level is None:
            raise UsageError("--window needs --level")
        wmin = analysis.degree_window_min(handle, args.level, args.start,
                                          args.window)
        record["window_min"] = {"level": args.level, "start": str(args.start),
                                "window": str(args.window), "min": str(wmin)}
    return 0, {"degree.json": _json(record)}


def cmd_lift(args) -> tuple[int, dict[str, str]]:
    addr = VertexAddr(args.level, args.cycle, args.pos)
    report = bouquet.lift_choices(addr, args.max)
    record = {"address": str(addr), "total": decimal_text(report.total),
              "truncated": report.truncated,
              "choices": [str(c) for c in report.choices]}
    return 0, {"lift.json": _json(record)}


def cmd_proximal(args) -> tuple[int, dict[str, str]]:
    spans = [(w * args.window_stride, args.window_len) for w in range(args.windows)]
    reports = analysis.proximal_sample(args.spine, args.level, spans, args.handles, args.seed)
    all_ok = all(report.all_hit for report in reports)
    record = {"all_hit": all_ok, "reports": [report.to_json() for report in reports]}
    return (0 if all_ok else 1), {"proximal.json": _json(record)}


def cmd_liyorke(args) -> tuple[int, dict[str, str]]:
    reports = analysis.li_yorke_sample(args.spine, args.pairs, args.horizon,
                                       args.prox_depth, args.sep_depth, args.seed)
    prox = sum(report.proximal_witness is not None for report in reports)
    sep = sum(report.separation_witness is not None for report in reports)
    ok = prox == args.pairs and sep >= args.sep_rate * args.pairs
    summary = {"pairs": args.pairs, "proximal_found": prox,
               "separation_found": sep, "sep_rate_required": args.sep_rate,
               "passed": ok, "seed": args.seed, "horizon": args.horizon,
               "spine": args.spine, "reports": [report.to_json() for report in reports]}
    print(f"proximal {prox}/{args.pairs}, separated {sep}/{args.pairs}",
          file=sys.stderr)
    return (0 if ok else 1), {"liyorke.json": _json(summary)}


def cmd_mixing_gaps(args) -> tuple[int, dict[str, str]]:
    report = analysis.mixing_gap_report(args.m, args.j, args.budget)
    ok = report.prefix_matches and report.suffix_within_bound
    return (0 if ok else 1), {f"mixing_m{args.m}_j{args.j}.json":
                              _json(report.to_json())}


def cmd_dsl_check(args) -> tuple[int, dict[str, str]]:
    doc = _read_cover(args.file, args.file)
    tower, problems = dsl.resolve(doc)  # one walk for both checks
    record = {"document": doc.name, "mode": "bouquet",
              "levels": len(doc.levels),
              "violations": [str(v) for v in problems]}
    ok = not problems
    if args.equivalence is not None and ok:
        equivalent = dsl.equals_builtin(tower, args.equivalence)
        record["builtin_equivalent"] = equivalent
        ok &= equivalent
    if args.json:
        record["parsed"] = dsl.document_json(doc)
    artifacts = {"canonical.cover": dsl.serialize(doc)} if args.canonical else {}
    artifacts["dsl_check.json"] = _json(record)
    return (0 if ok else 1), artifacts


def cmd_check(args) -> tuple[int, dict[str, str]]:
    if args.list:
        return 0, {"checks.txt": "".join(f"{num:2d}  {token}\n" for num, (token, _, _)
                                         in sorted(verify.ALL_CHECKS.items()))}
    numbers = sorted(verify.ALL_CHECKS)
    if args.which:
        by_token = {token: num for num, (token, _, _) in verify.ALL_CHECKS.items()}
        numbers = []
        for token in args.which:
            if token.isdecimal() and int(token) in verify.ALL_CHECKS:
                numbers.append(int(token))
            elif token in by_token:
                numbers.append(by_token[token])
            else:
                raise UsageError(f"unknown check {token!r} (try --list)")
    # a criterion named twice runs once, in the order of its first mention
    results = [verify.run_check(n) for n in dict.fromkeys(numbers)]
    return (0 if all(r.passed for r in results) else 1), {
        "check.txt": "".join(r.line() + "\n" for r in results)}


# ---------------------------------------------------------------------------
# Argument wiring.
# ---------------------------------------------------------------------------

def _add_out(sub):
    sub.add_argument("--out", help="write artifacts (plus manifest.json) here")


_COVER_HELP = ".cover document instead of the built-in construction"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chaoscope",
        description="Exact orbits and chaos-property verification on the "
                    "bouquet-cover Cantor system.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("levels", help="cycle length / k table")
    p.add_argument("--max", type=_count, default=3,
                   help=f"deepest level, at most {bouquet.LEVEL_LIMIT}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--formulas", action="store_true",
                   help="emit full level specs (implies JSON)")
    _add_out(p)
    p.add_argument("--cover", help=_COVER_HELP)
    p.set_defaults(func=cmd_levels)

    p = subs.add_parser("validate", help="cover axioms on materializable levels")
    p.add_argument("--max-level", type=_count, default=3)
    p.add_argument("--vertex-budget", type=_count,
                   default=bouquet.DEFAULT_VERTEX_BUDGET)
    _add_out(p)
    p.add_argument("--cover", help=_COVER_HELP)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("materialize", help="explicit graph exports")
    p.add_argument("--level", type=_count, required=True)
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--vertex-budget", type=_count,
                   default=bouquet.DEFAULT_VERTEX_BUDGET)
    _add_out(p)
    p.add_argument("--cover", help=_COVER_HELP)
    p.set_defaults(func=cmd_materialize)

    p = subs.add_parser("orbit", help="orbit trace export")
    p.add_argument("--spine", type=_count, required=True)
    p.add_argument("--cycle", type=int)
    p.add_argument("--pos", type=int)
    p.add_argument("--base", action="store_true", help="use the fixed point")
    p.add_argument("--obs", type=_count, help="observation depth (default: spine)")
    p.add_argument("--horizon", type=_count, required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_out(p)
    p.set_defaults(func=cmd_orbit)

    p = subs.add_parser("distance", help="metric distance between two handles")
    p.add_argument("--a", required=True, metavar="SPINE:CYCLE:POS[@T]")
    p.add_argument("--b", required=True, metavar="SPINE:CYCLE:POS[@T]")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_out(p)
    p.set_defaults(func=cmd_distance)

    p = subs.add_parser("degree", help="degree of a handle's column")
    p.add_argument("--handle", required=True, metavar="SPINE:CYCLE:POS[@T]")
    p.add_argument("--obs", type=_count)
    p.add_argument("--level", type=_count, help="level for --window")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--window", type=_count,
                   help="also report the windowed degree minimum")
    _add_out(p)
    p.set_defaults(func=cmd_degree)

    p = subs.add_parser("lift", help="preimages of an address one level up")
    p.add_argument("--level", type=_count, required=True)
    p.add_argument("--cycle", type=int, required=True)
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--max", type=_count, default=64)
    _add_out(p)
    p.set_defaults(func=cmd_lift)

    p = subs.add_parser("proximal", help="base-hit certificates in windows")
    p.add_argument("--level", type=_count, default=2)
    p.add_argument("--handles", type=_positive, default=100)
    p.add_argument("--windows", type=_positive, default=10)
    p.add_argument("--window-len", type=_count, default=700)
    p.add_argument("--window-stride", type=_count, default=1000)
    p.add_argument("--spine", type=_count, default=dynamics.DEFAULT_SPINE_LEVEL)
    _add_out(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_proximal)

    p = subs.add_parser("liyorke", help="proximal + separation scan on pairs")
    p.add_argument("--pairs", type=_positive, default=100)
    p.add_argument("--spine", type=_count, default=dynamics.DEFAULT_SPINE_LEVEL)
    p.add_argument("--horizon", type=_count, default=analysis.DEFAULT_HORIZON)
    p.add_argument("--prox-depth", type=_count, default=analysis.DEFAULT_PROX_DEPTH)
    p.add_argument("--sep-depth", type=_count, default=analysis.DEFAULT_SEP_DEPTH)
    p.add_argument("--sep-rate", type=_rate, default=0.9)
    _add_out(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_liyorke)

    p = subs.add_parser("mixing-gaps", help="gap scan across cover levels")
    p.add_argument("--m", type=_count, required=True)
    p.add_argument("--j", type=_count, required=True)
    p.add_argument("--budget", type=_count, default=DEFAULT_SCAN_BUDGET)
    _add_out(p)
    p.set_defaults(func=cmd_mixing_gaps)

    p = subs.add_parser("dsl-check", help="parse and validate a .cover file")
    p.add_argument("file")
    p.add_argument("--equivalence", type=_count, metavar="LEVEL",
                   help="also compare against the built-in construction")
    p.add_argument("--canonical", action="store_true",
                   help="emit the canonical form")
    p.add_argument("--json", action="store_true",
                   help="include the parsed document as JSON")
    _add_out(p)
    p.set_defaults(func=cmd_dsl_check)

    p = subs.add_parser("check", help="run acceptance criteria")
    p.add_argument("which", nargs="*",
                   help="criterion numbers or names (default: all)")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:  # lifted for the command alone, then restored
        sys.set_int_max_str_digits(0)  # lengths past level 12 exceed 4300 digits
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, artifacts = args.func(args)
        _write_artifacts(args, artifacts)
        return code
    except dsl.DslSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    except ChaoscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
