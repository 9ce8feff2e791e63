"""Command-line front end.

Subcommands::

    norm     --young exp_m:2 --fn '{"kind":"indicator","a":1,"mass":1}'
             --kind both --out json
    embed    --young exp_m:2 --mass 1 --report report.json
    gseries  --alpha 0.5
    beta0    --tol 1e-10
    verify   --suite all --seed 20230814 --format json

Exit codes: 0 success, 1 input error, 2 a requested value is divergent or
infinite (the record is still emitted).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from typing import List, Optional

from .descriptors import parse_descriptor_json, FunctionDescriptor
from .embedding import _json_number, embedding_report
from .errors import OrliczError
from .expfamily import critical_alpha, gauge_quadrature, gauge_series
from .norms import lebesgue_norm, luxemburg_norm, weak_norm
from .verify import DEFAULT_SEED, run_suite
from .young import YoungFunction, make_young

__all__ = ["main", "build_parser"]


def _parse_young(spec: str) -> YoungFunction:
    try:
        family, _, raw = spec.partition(":")
        if not raw:
            raise ValueError("expected family:parameter")
        return make_young(family.strip(), float(raw))
    except (ValueError, OrliczError) as exc:
        raise SystemExit(_input_error(f"bad --young {spec!r}: {exc}"))


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_descriptor(arg: str) -> FunctionDescriptor:
    text = arg
    if not arg.lstrip().startswith("{"):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_descriptor_json(text)


def _parse_mass(raw: str) -> float:
    """A --mass value: a positive number or 'inf'; exits with status 1 otherwise."""
    mass = math.inf if raw == "inf" else float(raw)
    if not mass > 0.0:
        raise SystemExit(_input_error("--mass must be positive or 'inf'"))
    return mass


def _record(value: Optional[float], **extra) -> dict:
    """One quantity's record: its value ("divergent" where None, "inf" where +inf), the
    extra fields, and whether the value is finite."""
    finite = value is not None and math.isfinite(value)
    shown = "divergent" if value is None else _json_number(value)
    return {"value": shown, **extra, "finite": finite}


def _emit(payload: dict, fmt: str, rows: Optional[List[List[str]]] = None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())


def _cmd_norm(args) -> int:
    young = _parse_young(args.young)
    kind = args.kind
    if kind not in ("strong", "weak", "both") and not kind.startswith("lp:"):
        return _input_error(f"bad --kind {kind!r}: expected strong, weak, both or lp:<p>")
    try:
        desc = _load_descriptor(args.fn)
    except OSError as exc:
        return _input_error(f"cannot read descriptor: {exc}")
    except OrliczError as exc:
        return _input_error(str(exc))
    if args.mass is not None:
        desc = dataclasses.replace(desc, mass=_parse_mass(args.mass))
    try:
        f = desc.build(young)
    except OrliczError as exc:
        return _input_error(str(exc))

    results = {}
    if kind.startswith("lp:"):
        p = float(kind[3:])
        results[f"lp({p:g})"] = _record(lebesgue_norm(f, p).value)
    if kind in ("strong", "both"):
        r = luxemburg_norm(young, f)
        results["strong"] = _record(r.value, modular_at_value=r.modular_at_value)
    if kind in ("weak", "both"):
        results["weak"] = _record(weak_norm(young, f).value)

    payload = {
        "young": young.describe(),
        "function": desc.to_jsonable(),
        "kind": kind,
        "results": results,
    }
    rows = [["quantity", "value", "modular_at_value", "finite"]]
    for name, rec in results.items():
        at_value = rec.get("modular_at_value")
        rows.append([name, str(rec["value"]), "" if at_value is None else str(at_value),
                     str(rec["finite"]).lower()])
    _emit(payload, args.out, rows)
    return 0 if all(rec["finite"] for rec in results.values()) else 2


def _cmd_embed(args) -> int:
    young = _parse_young(args.young)
    mass = _parse_mass(args.mass)
    report = embedding_report(young, mass)
    payload = report.to_dict()
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    summary = {
        "young": young.describe(),
        "verdict": report.verdict,
        "embedding_constant": report.embedding_constant,
        "witness_constant": report.witness_constant,
        "classifier_agreement": report.classifier_agreement,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_gseries(args) -> int:
    alpha = float(args.alpha)
    if not alpha < 1.0:
        return _input_error("--alpha must be below 1")
    print(
        json.dumps(
            {
                "alpha": alpha,
                "series": gauge_series(alpha),
                "quadrature": gauge_quadrature(alpha),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_beta0(args) -> int:
    tol = float(args.tol)
    root = critical_alpha(tol)
    print(
        json.dumps(
            {"critical_alpha": root, "gauge_residual": gauge_series(root) - 2.0, "tol": tol},
            sort_keys=True,
        )
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed)
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        _emit({}, "csv", report.csv_rows())
    return 1 if report.n_fail else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz",
        description="Strong and weak Orlicz norms of tail-represented functions,"
        " coincidence verdicts, and exact embedding constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="compute norms of a described function")
    p.add_argument("--young", required=True, help="family:parameter, e.g. exp_m:2")
    p.add_argument("--fn", required=True, help="descriptor file path or inline JSON")
    p.add_argument(
        "--kind", default="both",
        help="strong | weak | both | lp:<p>",
    )
    p.add_argument("--mass", default=None, help="override the descriptor total mass (number or 'inf')")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.set_defaults(fn_impl=_cmd_norm)

    p = sub.add_parser("embed", help="coincidence verdict and embedding constant")
    p.add_argument("--young", required=True)
    p.add_argument("--mass", default="1", help="total mass (number or 'inf')")
    p.add_argument("--report", default=None, help="write the full JSON report here")
    p.set_defaults(fn_impl=_cmd_embed)

    p = sub.add_parser("gseries", help="evaluate the exponential-family gauge")
    p.add_argument("--alpha", required=True)
    p.set_defaults(fn_impl=_cmd_gseries)

    p = sub.add_parser("beta0", help="root of gauge(alpha) = 2")
    p.add_argument("--tol", default="1e-10")
    p.set_defaults(fn_impl=_cmd_beta0)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--suite", default="all", choices=("all", "expfamily", "norms", "embedding"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn_impl=_cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn_impl(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (OrliczError, ValueError) as exc:
        return _input_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
