"""Batch experiment driver.

Every verb writes a JSON report (and a CSV trace where applicable) into
--out-dir, embedding the full parameter echo and the library version.
Outputs are deterministic: fixed enumerations, fixed tie-breaks, sorted
keys, no timestamps.  Numeric columns carry exact numerator/denominator
pairs; any *_display column is a convenience float only.

Exit codes: 0 success, 2 invalid configuration, 3 a semi-decidable
search exhausted its caps (a partial report is still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .asymptotics import (
    EscapeSearchError,
    NotEnoughLoopsError,
    SequenceGenerationError,
    classify_limit,
    cylinder_limit,
    escape_sequence,
    fixed_point_sequence,
    gurevich_entropy_estimate,
    non_f_witness_sequence,
    pair_loop_sequence,
)
from .exactval import _STR_SAFE_BITS, fraction_str
from .measures import (
    _metric_d_on,
    canonical_cylinders,
    combo_of_cylinder,
    combo_to_jsonable,
    invariance_check,
    parse_combo_text,
)
from .shifts import (
    SearchCaps,
    check_shift,
    connect,
    enumerate_loops,
    load_shift_text,
    parse_shift_arg,
    successors,
)
from .suspension import (
    ApproximationError,
    FlowEscapeError,
    approximate_by_single_orbit,
    class_R_check,
    flow_limit_analyze,
    flow_metric_rho,
    kac_lift,
    parse_roof_arg,
    parse_roof_text,
    roof_integral,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXHAUSTED = 3


def _rational(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        pass
    try:
        from decimal import Decimal

        return Fraction(Decimal(text))
    except Exception:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _read_input(flag: str, path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {flag} {path}: {exc.strerror or exc}") from None


def _load_shift(args) -> object:
    if getattr(args, "shift_file", None):
        return load_shift_text(_read_input("--shift-file", args.shift_file))
    return parse_shift_arg(args.shift)


def _load_roof(args) -> object:
    if getattr(args, "roof_file", None):
        return parse_roof_text(_read_input("--roof-file", args.roof_file))
    return parse_roof_arg(args.roof)


def _echo(args) -> dict:
    skip = {"func", "out_dir", "config"}
    return {
        k: (fraction_str(v) if isinstance(v, Fraction) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


def _at_least_one(args, *names: str) -> None:
    """Reject an option below 1 that no library call rejects, named as
    spelled on the command line: `shift info` reads its rows itself and
    `metric d` its cylinders, the rho and flow-limit kernels take any
    precision `eval_interval` takes, down to -1, `classify_limit` any
    defect horizon K and `cylinder_limit` any table cap."""
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"{name.replace('_', '-')} must be >= 1")


def _symbols_positive(args) -> None:
    """Reject a symbol option (`--a`, `--b`, `--i`) below 1: no symbol
    lies there, so no word through it is admissible."""
    if any(getattr(args, name, 1) < 1 for name in ("a", "b", "i")):
        raise ValueError("symbols must be positive")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    # as in json: a float, int, bool or None key is its JSON text, quoted
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = _json_text(key)
    return encode_basestring_ascii(key)


def _int_text(n: int) -> str:
    """`int.__repr__(n)`, also past the int-to-str digit limit, where
    `fraction_str` writes the same digits through `decimal`."""
    return int.__repr__(n) if n.bit_length() <= _STR_SAFE_BITS else fraction_str(n)


def _int_texts(values) -> Iterator[str]:
    """`map(_int_text, values)`, with one text per distinct value: a long
    orbit repeats few symbols."""
    text = {v: _int_text(v) for v in set(values)}
    return map(text.__getitem__, values)


def _json_text(o, newline: str = "\n") -> str:
    """`json.dumps(o, indent=2, sort_keys=True)`, byte for byte.

    Below Python 3.13 `json` encodes `indent` output in pure Python, one
    generator step per value; this walker joins whole containers, and a
    list of exact ints, such as a densusp cycle, in one `join`.
    `newline` is the line break plus the indentation of `o`.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int_text(o)
    if isinstance(o, float):
        return _float_text(o)
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if set(map(type, o)) == {int}:
            items = _int_texts(o)
        else:
            items = [_json_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_key_text(k) + ": " + _json_text(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


if sys.version_info >= (3, 13):
    # Python 3.13's json encodes indented output in C, faster than the walker
    def _report_text(payload: dict) -> str:
        try:
            return json.dumps(payload, indent=2, sort_keys=True)
        except ValueError:  # an integer past the int-to-str digit limit
            return _json_text(payload)

else:
    _report_text = _json_text


def _write_report(args, name: str, payload: dict) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"version": __version__, "config": _echo(args), **payload}
    path = out / f"{name}.json"
    path.write_text(_report_text(payload) + "\n")
    return path


def _write_csv(args, name: str, header: list[str], lines: Iterable[str]) -> Path:
    """Write `header` and then `lines`, each already a CSV line.

    Every report CSV is comma-separated with CRLF line ends, as
    `csv.writer` writes it, and no field ever needs quoting: fields are
    ints, floats (`str(float) == repr(float)`) and words written as
    digits and `-`.
    """
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    with path.open("w", newline="") as fh:
        fh.write(_csv_line(header))
        fh.writelines(lines)
    return path


def _csv_line(row: Iterable) -> str:
    return ",".join(map(str, row)) + "\r\n"


def _word_str(word) -> str:
    return "-".join(str(s) for s in word)


def _trace_rows(report) -> Iterator[str]:
    """The dense words x n trace, streamed as one text block per word.

    A sample missing from a sparse trace is the value 0.  So only the
    stored samples are formatted, and each run of missing ones between
    them is one join on the word's zero-row suffix.  The sample indices
    are distinct (`cylinder_limit` samples n = 1..n_max).
    """
    texts = [str(n) for n in report.sample_indices]
    at = {n: k for k, n in enumerate(report.sample_indices)}
    for word in sorted(report.traces):
        label = _word_str(word)
        zero = f",{label},0,1,0.0\r\n"
        stored = sorted((at[n], v) for n, v in report.traces[word].items())
        parts, start = [], 0
        for k, v in stored:
            # rows start..k-1 are zero: each index text, then the suffix
            parts.append(zero.join([*texts[start:k], ""]))
            parts.append(f"{texts[k]},{label},{v.numerator},{v.denominator},{float(v)!r}\r\n")
            start = k + 1
        parts.append(zero.join([*texts[start:], ""]))
        yield "".join(parts)


# ---------------------------------------------------------------------------
# verbs


def cmd_shift_info(args) -> int:
    _at_least_one(args, "horizon")
    spec = _load_shift(args)
    rows = {}
    for i in range(1, args.horizon + 1):
        row, more = successors(spec, i, args.symbol_cap)
        rows[str(i)] = {"row": row, "truncated": more is not False}
    _write_report(
        args,
        "shift_info",
        {
            "name": spec.name,
            "alphabet_size": spec.alphabet_size,
            "transitive_declared": spec.transitive_declared,
            "rows": rows,
        },
    )
    print(f"shift {spec.name}: rows up to {args.horizon} written")
    return EXIT_OK


def cmd_shift_check(args) -> int:
    spec = _load_shift(args)
    report = check_shift(spec, args.horizon, args.symbol_cap)
    _write_report(args, "shift_check", {"check": report.to_jsonable()})
    print(
        f"shift {spec.name}: ok-up-to-truncation={report.ok} "
        f"reachable={len(report.reachable_from_one)}/{report.horizon}"
    )
    return EXIT_OK


def cmd_orbit_enum(args) -> int:
    spec = _load_shift(args)
    loops, saturated = enumerate_loops(spec, args.a, args.n, args.cap, args.symbol_cap)
    _write_csv(
        args,
        "orbit_enum",
        ["index", "word"],
        (_csv_line((i, _word_str(w))) for i, w in enumerate(loops, 1)),
    )
    _write_report(args, "orbit_enum", {"count": len(loops), "saturated": saturated})
    print(f"{len(loops)} loops at {args.a} of length {args.n} (saturated={saturated})")
    return EXIT_OK


def cmd_orbit_connect(args) -> int:
    spec = _load_shift(args)
    word = connect(spec, args.a, args.b, args.max_len, args.symbol_cap)
    _write_report(
        args,
        "orbit_connect",
        {"found": word is not None, "word": None if word is None else list(word)},
    )
    if word is None:
        print(f"no word from {args.a} to {args.b} within length {args.max_len}")
        return EXIT_EXHAUSTED
    print(f"connected: {_word_str(word)}")
    return EXIT_OK


def cmd_measure_eval(args) -> int:
    spec = _load_shift(args)
    combo = parse_combo_text(spec, args.combo)
    word = tuple(int(t) for t in args.cylinder.split(","))
    if min(word) < 1:
        raise ValueError("symbols must be positive")
    value = combo_of_cylinder(combo, word)
    _write_report(
        args,
        "measure_eval",
        {
            "measure": combo_to_jsonable(combo),
            "cylinder": list(word),
            "numerator": value.numerator,
            "denominator": value.denominator,
            "value_display": float(value),
        },
    )
    print(f"measure of [{args.cylinder}] = {fraction_str(value)}")
    return EXIT_OK


def cmd_measure_invariance(args) -> int:
    spec = _load_shift(args)
    combo = parse_combo_text(spec, args.combo)
    report = invariance_check(combo, args.depth, args.symbol_cap)
    _write_report(
        args,
        "measure_invariance",
        {
            "max_defect": fraction_str(report.max_defect),
            "words_checked": report.words_checked,
            "nonzero_defects": [
                {"word": list(w), "defect": fraction_str(d)} for w, d in report.defects
            ],
        },
    )
    print(f"max invariance defect at depth {args.depth}: {report.max_defect}")
    return EXIT_OK


def cmd_metric_d(args) -> int:
    _at_least_one(args, "N")
    spec = _load_shift(args)
    a = parse_combo_text(spec, args.combo_a)
    b = parse_combo_text(spec, args.combo_b)
    words = canonical_cylinders(spec, args.N)
    lo, hi = _metric_d_on(a, b, words)
    _write_report(
        args,
        "metric_d",
        {
            "lower": fraction_str(lo),
            "upper": fraction_str(hi),
            "lower_display": float(lo),
            "upper_display": float(hi),
            "cylinders": [_word_str(w) for w in words],
        },
    )
    print(
        f"d bracket over first {args.N} cylinders: "
        f"[{fraction_str(lo)}, {fraction_str(hi)}]"
    )
    return EXIT_OK


def cmd_metric_rho(args) -> int:
    _at_least_one(args, "prec")
    spec = _load_shift(args)
    roof = _load_roof(args)
    a = kac_lift(parse_combo_text(spec, args.combo_a), roof)
    b = kac_lift(parse_combo_text(spec, args.combo_b), roof)
    lo, hi = flow_metric_rho(a, b, args.N, spec, prec=args.prec)
    _write_report(
        args,
        "metric_rho",
        {"lower": fraction_str(lo), "upper": fraction_str(hi), "upper_display": float(hi)},
    )
    print(f"rho bracket over first {args.N} cylinders: [{float(lo):.6g}, {float(hi):.6g}]")
    return EXIT_OK


_SEQUENCES = {
    "pair-loops": lambda spec, args: pair_loop_sequence(spec, a=args.i, start=2),
    "point-masses": lambda spec, args: fixed_point_sequence(spec),
}


def _build_sequence(spec, args):
    try:
        builder = _SEQUENCES[args.seq]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown sequence constructor {args.seq!r}; "
            f"choices: {sorted(_SEQUENCES)}"
        ) from None
    if args.seq == "point-masses" and args.i != 1:
        raise ValueError("--seq point-masses takes no --i")
    return builder(spec, args)


def cmd_converge_trace(args) -> int:
    spec = _load_shift(args)
    seq = _build_sequence(spec, args)
    report = cylinder_limit(seq, args.depth, args.symbol_cap, args.n_max, args.tol)
    _write_csv(
        args,
        "converge_trace",
        ["n", "cylinder", "numerator", "denominator", "value_display"],
        _trace_rows(report),
    )
    _write_report(
        args,
        "converge_trace",
        {
            "classification": report.classification.to_jsonable(),
            "limit_table": report.limit_table.to_jsonable(),
            "mass_lower": fraction_str(report.mass_bracket[0]),
        },
    )
    print(f"trace written; report classification: {report.classification.kind}")
    return EXIT_OK


def cmd_converge_classify(args) -> int:
    _at_least_one(args, "K")
    spec = _load_shift(args)
    seq = _build_sequence(spec, args)
    report = cylinder_limit(seq, args.depth, args.symbol_cap, args.n_max, args.tol)
    cls = classify_limit(report, args.K, args.tol)
    _write_report(
        args,
        "converge_classify",
        {
            "classification": cls.to_jsonable(),
            "limit_table": report.limit_table.to_jsonable(),
        },
    )
    print(f"classification at horizon K={args.K}: {cls.kind}")
    return EXIT_OK


def cmd_escape(args) -> int:
    spec = _load_shift(args)
    caps = SearchCaps(symbol_cap=args.symbol_cap, connect_max_len=args.connect_max_len)
    try:
        result = escape_sequence(spec, args.k, args.target_len, caps)
    except EscapeSearchError as exc:
        _write_report(args, "escape", {"error": str(exc), "found": False})
        print(f"escape search exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    _write_report(args, "escape", {"found": True, "result": result.to_jsonable()})
    print(
        f"escape word of length {len(result.word)}; "
        f"mass of low symbols {result.low_mass} <= {result.bound}"
    )
    return EXIT_OK


def cmd_nonf_demo(args) -> int:
    _at_least_one(args, "K")
    if args.table_cap is not None:
        _at_least_one(args, "table_cap")
    spec = _load_shift(args)
    try:
        seq = non_f_witness_sequence(spec, args.i, args.q, args.count, args.symbol_cap)
    except NotEnoughLoopsError as exc:
        _write_report(args, "nonf_demo", {"error": str(exc)})
        print(f"not enough loops: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    rows = []
    for n in range(1, args.count + 1):
        v = combo_of_cylinder(seq.term(n), (args.i,))
        rows.append(_csv_line((n, args.i, v.numerator, v.denominator, float(v))))
    # the table cap sits below the family's moving symbols so the final
    # values show the limit, not the last term's escaping block
    table_cap = max(args.i + 1, args.count // 2) if args.table_cap is None else args.table_cap
    report = cylinder_limit(seq, args.depth, table_cap, args.count, args.tol)
    cls = classify_limit(report, min(args.K, table_cap), args.tol)
    _write_csv(
        args,
        "nonf_demo",
        ["n", "cylinder", "numerator", "denominator", "value_display"],
        rows,
    )
    _write_report(
        args,
        "nonf_demo",
        {
            "classification": cls.to_jsonable(),
            "limit_table": report.limit_table.to_jsonable(),
        },
    )
    print(f"witness family classification: {cls.kind}")
    return EXIT_OK


def cmd_entropy(args) -> int:
    spec = _load_shift(args)
    lo, _, hi = args.n.partition("..")
    n_values = range(int(lo), int(hi or lo) + 1)
    report = gurevich_entropy_estimate(spec, args.a, n_values, args.symbol_cap)
    _write_csv(
        args,
        "entropy",
        ["n", "loop_count", "estimate_display"],
        (_csv_line((r.n, r.loop_count, r.estimate)) for r in report.rows),
    )
    _write_report(args, "entropy", {"entropy": report.to_jsonable()})
    print(
        f"loop counts at {args.a} for n={args.n}; "
        f"running max estimate {report.running_max:.6f}"
    )
    return EXIT_OK


def cmd_flow_integral(args) -> int:
    spec = _load_shift(args)
    roof = _load_roof(args)
    combo = parse_combo_text(spec, args.combo)
    value = roof_integral(roof, combo)
    _write_report(
        args,
        "flow_integral",
        {"integral": value.to_jsonable(), "roof": roof.name},
    )
    print(f"roof integral = {float(value):.12g}")
    return EXIT_OK


def cmd_flow_limit(args) -> int:
    _at_least_one(args, "prec")
    spec = _load_shift(args)
    roof = _load_roof(args)
    seq = _build_sequence(spec, args)
    report = flow_limit_analyze(
        seq, roof, args.n_max, args.depth, args.symbol_cap, args.tol, prec=args.prec
    )
    _write_csv(
        args,
        "flow_limit",
        ["n", "integral_display"],
        (_csv_line((n, float(v))) for n, v in enumerate(report.integral_trace, 1)),
    )
    _write_report(args, "flow_limit", {"flow_limit": report.to_jsonable()})
    print(f"flow limit verdict: {report.verdict}")
    return EXIT_OK


def cmd_flow_classr(args) -> int:
    spec = _load_shift(args) if args.shift else None
    roof = _load_roof(args)
    report = class_R_check(roof, args.horizon, spec)
    _write_report(args, "flow_classr", {"class_r": report.to_jsonable()})
    print(f"roof {roof.name}: tail verdict {report.tail_verdict}")
    return EXIT_OK


def cmd_densusp(args) -> int:
    spec = _load_shift(args)
    roof = _load_roof(args)
    target = parse_combo_text(spec, args.target)
    caps = SearchCaps(symbol_cap=args.symbol_cap, connect_max_len=args.connect_max_len)
    try:
        result = approximate_by_single_orbit(target, roof, args.eps, spec, caps)
    except ApproximationError as exc:
        payload = {"error": str(exc)}
        if exc.best is not None:
            payload["best"] = exc.best.to_jsonable()
        _write_report(args, "densusp", payload)
        print(f"approximation failed: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "densusp_orbit.txt").write_text(" ".join(_int_texts(result.word)) + "\n")
    _write_report(args, "densusp", {"result": result.to_jsonable()})
    print(
        f"orbit of period {result.measure.period}: metric upper bound "
        f"{float(result.metric_bracket[1]):.3g}, integral gap "
        f"{float(result.integral_gap):.3g}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p: argparse.ArgumentParser, *, shift=True, roof=False) -> None:
    p.add_argument("--out-dir", default=".", help="artifact directory")
    p.add_argument("--seed", type=int, default=0, help="echoed into reports")
    if shift:
        g = p.add_mutually_exclusive_group(required=False)
        g.add_argument("--shift", default="full", help="built-in shift reference")
        g.add_argument("--shift-file", help="row-list shift file")
    if roof:
        g = p.add_mutually_exclusive_group(required=False)
        g.add_argument("--roof", default="log1p", help="roof reference")
        g.add_argument("--roof-file", help="roof definition file")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cmshift",
        description="exact experiments with invariant measures on countable Markov shifts",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shift", help="inspect or sanity-check a shift")
    s2 = p.add_subparsers(dest="sub", required=True)
    q = s2.add_parser("info")
    _add_common(q)
    q.add_argument("--horizon", type=int, default=8)
    q.add_argument("--symbol-cap", type=int, default=32)
    q.set_defaults(func=cmd_shift_info)
    q = s2.add_parser("check")
    _add_common(q)
    q.add_argument("--horizon", type=int, default=8)
    q.add_argument("--symbol-cap", type=int, default=200)
    q.set_defaults(func=cmd_shift_check)

    p = sub.add_parser("orbit", help="enumerate loops or search connecting words")
    s2 = p.add_subparsers(dest="sub", required=True)
    q = s2.add_parser("enum")
    _add_common(q)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--cap", type=int, default=100)
    q.add_argument("--symbol-cap", type=int, default=100)
    q.set_defaults(func=cmd_orbit_enum)
    q = s2.add_parser("connect")
    _add_common(q)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--max-len", type=int, default=8)
    q.add_argument("--symbol-cap", type=int, default=1000)
    q.set_defaults(func=cmd_orbit_connect)

    p = sub.add_parser("measure", help="evaluate measures and check invariance")
    s2 = p.add_subparsers(dest="sub", required=True)
    q = s2.add_parser("eval")
    _add_common(q)
    q.add_argument("--combo", required=True, help="e.g. '1/2:(1);1/2:(1,2)'")
    q.add_argument("--cylinder", required=True, help="e.g. '1,2'")
    q.set_defaults(func=cmd_measure_eval)
    q = s2.add_parser("invariance")
    _add_common(q)
    q.add_argument("--combo", required=True)
    q.add_argument("--depth", type=int, default=3)
    q.add_argument("--symbol-cap", type=int, default=1000)
    q.set_defaults(func=cmd_measure_invariance)

    p = sub.add_parser("metric", help="cylinder metric brackets")
    s2 = p.add_subparsers(dest="sub", required=True)
    q = s2.add_parser("d")
    _add_common(q)
    q.add_argument("--combo-a", required=True)
    q.add_argument("--combo-b", required=True)
    q.add_argument("--N", type=int, default=16)
    q.set_defaults(func=cmd_metric_d)
    q = s2.add_parser("rho")
    _add_common(q, roof=True)
    q.add_argument("--combo-a", required=True)
    q.add_argument("--combo-b", required=True)
    q.add_argument("--N", type=int, default=16)
    q.add_argument("--prec", type=int, default=64)
    q.set_defaults(func=cmd_metric_rho)

    p = sub.add_parser("converge", help="cylinder-limit traces and classification")
    s2 = p.add_subparsers(dest="sub", required=True)
    for name, fn in (("trace", cmd_converge_trace), ("classify", cmd_converge_classify)):
        q = s2.add_parser(name)
        _add_common(q)
        q.add_argument("--seq", default="pair-loops", help=f"one of {sorted(_SEQUENCES)}")
        q.add_argument("--i", type=int, default=1)
        q.add_argument("--depth", type=int, default=2)
        q.add_argument("--symbol-cap", type=int, default=100)
        q.add_argument("--n-max", type=int, default=100)
        q.add_argument("--tol", type=_rational, default=Fraction(1, 1000))
        if name == "classify":
            q.add_argument("--K", type=int, default=100)
        q.set_defaults(func=fn)

    q = sub.add_parser("escape", help="periodic measure escaping the first k symbols")
    _add_common(q)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--target-len", type=int, required=True)
    q.add_argument("--symbol-cap", type=int, default=10_000)
    q.add_argument("--connect-max-len", type=int, default=32)
    q.set_defaults(func=cmd_escape)

    q = sub.add_parser("nonf-demo", help="first-return loop family and its limit")
    _add_common(q)
    q.add_argument("--i", type=int, default=1)
    q.add_argument("--q", type=int, default=2)
    q.add_argument("--count", type=int, default=50)
    q.add_argument("--depth", type=int, default=2)
    q.add_argument("--symbol-cap", type=int, default=200)
    q.add_argument("--table-cap", type=int, default=None,
                   help="limit-table symbol cap (default: count/2)")
    q.add_argument("--K", type=int, default=100)
    q.add_argument("--tol", type=_rational, default=Fraction(1, 1000))
    q.set_defaults(func=cmd_nonf_demo)

    q = sub.add_parser("entropy", help="loop counts and entropy estimates")
    _add_common(q)
    q.add_argument("--a", type=int, default=1)
    q.add_argument("--n", required=True, help="single n or range 'lo..hi'")
    q.add_argument("--symbol-cap", type=int, default=1000)
    q.set_defaults(func=cmd_entropy)

    p = sub.add_parser("flow", help="suspension-flow layer")
    s2 = p.add_subparsers(dest="sub", required=True)
    q = s2.add_parser("integral")
    _add_common(q, roof=True)
    q.add_argument("--combo", required=True)
    q.set_defaults(func=cmd_flow_integral)
    q = s2.add_parser("limit")
    _add_common(q, roof=True)
    q.add_argument("--seq", default="point-masses")
    q.add_argument("--i", type=int, default=1)
    q.add_argument("--n-max", type=int, default=40)
    q.add_argument("--depth", type=int, default=1)
    q.add_argument("--symbol-cap", type=int, default=50)
    q.add_argument("--tol", type=_rational, default=Fraction(1, 1000))
    q.add_argument("--prec", type=int, default=64)
    q.set_defaults(func=cmd_flow_limit)
    q = s2.add_parser("classr")
    _add_common(q, roof=True)
    q.add_argument("--horizon", type=int, default=16)
    q.set_defaults(func=cmd_flow_classr)

    q = sub.add_parser("densusp", help="single-orbit approximation with certificates")
    _add_common(q, roof=True)
    q.add_argument("--target", required=True, help="e.g. '1/2:(1);1/2:(2)'")
    q.add_argument("--eps", type=_rational, required=True)
    q.add_argument("--symbol-cap", type=int, default=10_000)
    q.add_argument("--connect-max-len", type=int, default=32)
    q.set_defaults(func=cmd_densusp)

    q = sub.add_parser("run", help="run one verb from a declarative JSON config")
    q.add_argument("config", help="JSON file: {\"argv\": [\"entropy\", ...]}")
    q.set_defaults(func=None)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one verb and return its exit code.

    The argument parser is built on the first call and reused by every
    later call in the same process; parsing leaves no state in it.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    if argv and argv[0] == "run":
        ns = parser.parse_args(argv)
        try:
            config = json.loads(Path(ns.config).read_text())
            argv = [str(a) for a in config["argv"]]
        except (OSError, KeyError, ValueError) as exc:
            print(f"bad config file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if argv and argv[0] == "run":
            print("config files cannot nest 'run'", file=sys.stderr)
            return EXIT_CONFIG
    args = parser.parse_args(argv)
    try:
        _symbols_positive(args)
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError, SequenceGenerationError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EscapeSearchError, NotEnoughLoopsError, FlowEscapeError, ApproximationError) as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    raise SystemExit(main())
