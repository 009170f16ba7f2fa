"""Command-line front end.

One subcommand per pillar: factorization validation and construction,
homological and residue-side index computations, the canonical pairing, the
corpus comparison run, and the randomized operator-identity suites.  All
reports are deterministic for a fixed seed: keys are sorted, rationals are
rendered as canonical p/q strings, and wall-clock timings only appear when
--timings is passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .groebner import ENV_MAX_SPAIRS
from .hkrtrace import chern_form
from .homalg import ext_dims
from .mfcat import json_variables, koszul_mf, mf_from_json, mf_to_json
from .pairing import (
    calibrate_sign,
    canonical_pairing_u0,
    default_corpus,
    epsilon_formula,
    identity_suites,
    run_corpus,
)
from .polyring import _name_end, parse_poly
from .residue import ResidueProblem, groth_residue


def emit_report(results, fmt: str = "json") -> bytes:
    """Deterministic serialization of a report dict."""
    if fmt == "json":
        return (json.dumps(results, sort_keys=True, separators=(",", ":"))
                + "\n").encode()
    return ("\n".join(_text_lines(results)) + "\n").encode()


def _text_lines(results) -> list:
    if isinstance(results, dict) and "entries" in results:
        return _corpus_table(results)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", results)
    return lines


def _corpus_table(report) -> list:
    rows = [("entry", "chi_ext", "chi_res", "pass")]
    for e in report["entries"]:
        if "error" in e:
            rows.append((e["name"], "-", "-", f"FAIL ({e['error']})"))
            continue
        hrr = e.get("hrr", [])
        for r in hrr:
            label = e["name"] if len(hrr) == 1 else f"{e['name']} [{r['p']},{r['q']}]"
            rows.append((label, str(r["chi_ext"]), r["chi_residue"],
                         "pass" if r["pass"] else "FAIL"))
        if not hrr:
            rows.append((e["name"], "-", "-", "pass" if e["pass"] else "FAIL"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    for name in sorted(report.get("suites", {})):
        suite = report["suites"][name]
        lines.append(f"suite {name}: {'pass' if suite['pass'] else 'FAIL'}")
    summary = report.get("summary", {})
    verdict = "pass" if summary.get("pass") else "FAIL"
    tail = f"summary: {verdict}"
    if "seed" in summary:
        tail += f" (seed {summary['seed']})"
    lines.append(tail)
    return lines


def infer_vars(*strings) -> tuple:
    """Variable list from first appearance order across the inputs, each
    name read by the parser's own rule (polyring._name_end)."""
    seen = []
    for s in strings:
        pos = 0
        while pos < len(s):
            end = _name_end(s, pos)
            name = s[pos:end]
            if name and name not in seen:
                seen.append(name)
            pos = max(end, pos + 1)
    if not seen:
        raise ValueError("no variables found; pass --vars explicitly")
    return tuple(seen)


def _split_vars(spec: str) -> tuple:
    """--vars as distinct names, by the rule of a JSON "vars" field."""
    out = [v.strip() for v in spec.split(",") if v.strip()]
    if not out:
        raise ValueError("empty --vars")
    return json_variables(out)


def _split_polys(spec: str) -> list:
    return [s.strip() for s in spec.split(",") if s.strip()]


def _read_mf(path):
    with open(path, encoding="utf-8") as fh:
        return mf_from_json(json.load(fh))


def _read_corpus(path):
    if path is None:
        return default_corpus()
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ValueError("corpus file must hold a JSON array of entries")
    return entries


# -- subcommands -----------------------------------------------------------------


def _cmd_validate(args):
    P = _read_mf(args.mf)
    report = {"valid": True, "f": str(P.f), "vars": list(P.vars),
              "ranks": [P.rank0, P.rank1]}
    if args.format == "text":
        return 0, b"delta^2 = f*id verified\n"
    return 0, emit_report(report, "json")


def _cmd_koszul(args):
    a_strs = _split_polys(args.a)
    b_strs = _split_polys(args.b)
    variables = _split_vars(args.vars) if args.vars else infer_vars(*a_strs, *b_strs)
    a = [parse_poly(s, variables) for s in a_strs]
    b = [parse_poly(s, variables) for s in b_strs]
    P = koszul_mf(variables, a, b)
    return 0, emit_report(mf_to_json(P), args.format)


def _cmd_ext(args):
    P = _read_mf(args.p)
    Q = _read_mf(args.q) if args.q else P
    rep = ext_dims(P, Q)
    return 0, emit_report(rep.as_dict(), args.format)


def _cmd_chern(args):
    P = _read_mf(args.mf)
    form = chern_form(P)
    report = {"f": str(P.f), "vars": list(P.vars),
              "ranks": [P.rank0, P.rank1], "form": form.jsonable()}
    return 0, emit_report(report, args.format)


def _cmd_residue(args):
    num_str = args.numerator
    variables = _split_vars(args.vars) if args.vars else infer_vars(args.f, num_str)
    f = parse_poly(args.f, variables)
    numerator = parse_poly(num_str, variables)
    partials = [f.partial(i) for i in range(len(variables))]
    prob = ResidueProblem(numerator, partials)
    cover = prob.cover()
    value = groth_residue(prob, cover)
    report = {"value": str(value), "cover": cover.jsonable()}
    return 0, emit_report(report, args.format)


def _cmd_pair(args):
    P = _read_mf(args.p)
    Q = _read_mf(args.q) if args.q else P
    value = canonical_pairing_u0(P, Q)
    n = len(P.vars)
    report = {"value": str(value),
              "signs": {"n": n, "epsilon": calibrate_sign(n),
                        "formula": epsilon_formula(n)}}
    return 0, emit_report(report, args.format)


def _cmd_hrr(args):
    entries = _read_corpus(args.corpus)
    report = run_corpus(entries, suites=False, only_checks=("hrr",),
                        timings=args.timings)
    code = 0 if report["summary"]["pass"] else 1
    return code, emit_report(report, args.format)


def _cmd_corpus(args):
    entries = _read_corpus(args.corpus)
    report = run_corpus(entries, seed=args.seed, utrunc=args.utrunc,
                        suite_count=args.count, jmax=args.jmax,
                        timings=args.timings)
    code = 0 if report["summary"]["pass"] else 1
    return code, emit_report(report, args.format)


def _cmd_hoch_verify(args):
    rows = identity_suites(seed=args.seed, count=args.count, utrunc=args.utrunc,
                           jmax=args.jmax, timings=args.timings)
    ok = all(s["pass"] for s in rows.values())
    report = {"suites": rows, "summary": {"pass": ok, "seed": args.seed}}
    return (0 if ok else 1), emit_report(report, args.format)


# -- argument parsing --------------------------------------------------------------


def _positive(value):
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfhrr",
        description="Exact index checks for matrix factorizations of "
                    "isolated hypersurface singularities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="report format (default json)")
        p.add_argument("--max-spairs", type=_positive, default=None,
                       metavar="N",
                       help=f"cap on Groebner S-pair reductions "
                            f"(or set {ENV_MAX_SPAIRS})")
        return p

    p = add("validate", _cmd_validate, "check a factorization file")
    p.add_argument("--mf", required=True, help="matrix factorization JSON file")
    p.set_defaults(format="text")

    p = add("koszul", _cmd_koszul, "build a Koszul factorization")
    p.add_argument("--a", required=True, help="comma-separated polynomials")
    p.add_argument("--b", required=True, help="comma-separated polynomials")
    p.add_argument("--vars", default=None,
                   help="comma-separated variables (default: first appearance "
                        "order in --a/--b)")

    p = add("ext", _cmd_ext, "Ext dimensions and Euler characteristic")
    p.add_argument("--p", required=True, help="factorization JSON file")
    p.add_argument("--q", default=None, help="second file (default: --p)")

    p = add("chern", _cmd_chern, "Chern character form of a factorization")
    p.add_argument("--mf", required=True, help="factorization JSON file")

    p = add("residue", _cmd_residue, "Grothendieck residue over a Jacobian ideal")
    p.add_argument("--f", required=True, help="potential")
    p.add_argument("--numerator", required=True,
                   help="coefficient of dx_1...dx_n")
    p.add_argument("--vars", default=None,
                   help="comma-separated variables (default: first appearance "
                        "order in --f/--numerator)")

    p = add("pair", _cmd_pair, "canonical pairing value at u^0")
    p.add_argument("--p", required=True, help="factorization JSON file")
    p.add_argument("--q", default=None, help="second file (default: --p)")

    p = add("hrr", _cmd_hrr, "compare both index computations over a corpus")
    p.add_argument("--corpus", default=None,
                   help="corpus JSON file (default: built-in corpus)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock seconds (breaks byte determinism)")

    p = add("corpus", _cmd_corpus, "full corpus run including identity suites")
    p.add_argument("--corpus", default=None,
                   help="corpus JSON file (default: built-in corpus)")
    p.add_argument("--seed", type=int, default=0, help="suite seed (default 0)")
    p.add_argument("--utrunc", type=_positive, default=4, metavar="U",
                   help="u-series truncation order (default 4)")
    p.add_argument("--count", type=_positive, default=40, metavar="N",
                   help="chains per randomized suite (default 40)")
    p.add_argument("--jmax", type=_positive, default=2, metavar="J",
                   help="tower depth for the phi/eta suites (default 2)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock seconds (breaks byte determinism)")

    p = add("hoch-verify", _cmd_hoch_verify,
            "run the chain-level operator identity suites")
    p.add_argument("--seed", type=int, default=0, help="suite seed (default 0)")
    p.add_argument("--utrunc", type=_positive, default=4, metavar="U",
                   help="u-series truncation order (default 4)")
    p.add_argument("--count", type=_positive, default=100, metavar="N",
                   help="chains per randomized suite (default 100)")
    p.add_argument("--jmax", type=_positive, default=4, metavar="J",
                   help="tower depth for the phi/eta suites (default 4)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock seconds (breaks byte determinism)")

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = os.environ.get(ENV_MAX_SPAIRS)
    if args.max_spairs is not None:
        os.environ[ENV_MAX_SPAIRS] = str(args.max_spairs)
    try:
        code, payload = args.func(args)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        # the cap holds for this command only, not for later calls in-process
        if previous is None:
            os.environ.pop(ENV_MAX_SPAIRS, None)
        else:
            os.environ[ENV_MAX_SPAIRS] = previous
    sys.stdout.write(payload.decode())
    return code


def main(argv=None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    raise SystemExit(main())
