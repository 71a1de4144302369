"""Command-line surface: distance tables, verification, metrics, MDS
listing, and pair-error channel experiments.

table, verify and mds print library records (codes.DistanceRecord,
oracle.FamilyEntry) as rows: each command names its columns once, and
_rows reads those attributes, writing a word as c_0,...,c_{n-1}.

Exit codes: 0 success / all-match; 1 mismatch or guarantee violation;
2 usage or input error; 3 incomplete verification (budget skips) or a
simulate codebook over --max-enum words or 64 * --max-enum bits of n * q
planes, each max(64, words) bits.  Input errors are the library's
ValueErrors and budget overruns its BudgetExhausted: main alone catches
them and prints "error: <message>" or "incomplete: <message>" on stderr.
tsv and json outputs are byte-deterministic for identical arguments.

main(argv) may be called any number of times in one process.  The
parser is built once, on the first call rather than at import, and
later calls reuse it.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .channel import correctability_experiment
from .codes import CodeSpec, closed_form_pair_distance, distance_table
from .gf import Field, build_field
from .oracle import BudgetExhausted, EnumBudget, verify_family
from .pairmetrics import (
    hamming_distance,
    hamming_weight,
    pair_distance,
    pair_read,
    pair_weight,
    run_count,
)
from .polyring import RingElement

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3
VERDICT_EXIT = {
    "all-match": EXIT_OK, "mismatch": EXIT_MISMATCH, "incomplete": EXIT_INCOMPLETE,
}

TABLE_COLUMNS = ("i", "dimension", "d_hamming", "d_pair", "branch", "mds_pair")
VERIFY_COLUMNS = (
    "i", "dimension", "formula_d_hamming", "oracle_d_hamming",
    "formula_d_pair", "oracle_d_pair", "witness", "status",
)
MDS_COLUMNS = ("i", "dimension", "d_pair")


def _fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(records, indent=2))
        out.write("\n")
        return
    if not records:
        return
    columns = list(records[0].keys())
    rows = [[_fmt_cell(rec[c]) for c in columns] for rec in records]
    if fmt == "tsv":
        out.write("\t".join(columns) + "\n")
        for row in rows:
            out.write("\t".join(row) + "\n")
        return
    # pretty: aligned columns, header underline
    widths = [
        max(len(col), *(len(row[k]) for row in rows))
        for k, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    out.write(header.rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths).rstrip() + "\n")
    for row in rows:
        out.write(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        )


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse {what!r} as comma-separated integers") from exc


def _field_from_args(args) -> Field:
    if args.modulus is not None:
        return Field(args.p, args.m, _parse_int_list(args.modulus, "--modulus"))
    return build_field(args.p, args.m)


def _vector_from_args(field: Field, text: str, what: str) -> RingElement:
    return RingElement(field, tuple(_parse_int_list(text, what)))


def _word(value):
    """A RingElement as c_0,...,c_{n-1}; any other value as it is."""
    return ",".join(map(str, value.coeffs)) if isinstance(value, RingElement) else value


def _rows(records, columns: tuple[str, ...]) -> list[dict]:
    """One dict per record of its attributes named in columns."""
    return [{c: _word(getattr(rec, c)) for c in columns} for rec in records]


def cmd_table(args, out) -> int:
    records = distance_table(args.p, args.e, args.m)
    _emit(_rows(records, TABLE_COLUMNS), args.format, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    _field_from_args(args)  # refuses a bad --modulus; a valid one changes no row
    budget = EnumBudget(max_codewords=args.max_enum)
    report = verify_family(args.p, args.e, args.m, budget)
    _emit(_rows(report.entries, VERIFY_COLUMNS), args.format, out)
    if args.format == "pretty":
        out.write(f"verdict: {report.verdict}\n")
    return VERDICT_EXIT[report.verdict]


def cmd_weight(args, out) -> int:
    field = _field_from_args(args)
    vec = _vector_from_args(field, args.vector, "--vector")
    w_h = hamming_weight(vec)
    w_p = pair_weight(vec)
    pairs = pair_read(vec).pairs
    records = [
        {
            "n": vec.n,
            "hamming_weight": w_h,
            "pair_weight": w_p,
            "pair_read": ",".join(f"({a},{b})" for a, b in pairs),
        }
    ]
    _emit(records, args.format, out)
    return EXIT_OK


def cmd_pairdist(args, out) -> int:
    field = _field_from_args(args)
    x = _vector_from_args(field, args.x, "--x")
    y = _vector_from_args(field, args.y, "--y")
    d_h = hamming_distance(x, y)
    d_p = pair_distance(x, y)
    blocks = run_count(x, y)
    identity = "n/a"
    violated = False
    if 0 < d_h < x.n:
        violated = d_p != d_h + blocks
        identity = "violated" if violated else "ok"
    records = [
        {
            "n": x.n,
            "d_hamming": d_h,
            "block_count": blocks,
            "d_pair": d_p,
            "identity": identity,
        }
    ]
    _emit(records, args.format, out)
    return EXIT_MISMATCH if violated else EXIT_OK


def cmd_mds(args, out) -> int:
    records = [rec for rec in distance_table(args.p, args.e, args.m) if rec.mds_pair]
    _emit(_rows(records, MDS_COLUMNS), args.format, out)
    return EXIT_OK


def cmd_simulate(args, out) -> int:
    spec = CodeSpec(args.p, args.m, args.e, args.i)
    d_p = closed_form_pair_distance(spec)
    budget = EnumBudget(max_codewords=args.max_enum)
    rate, successes = correctability_experiment(
        spec, args.t, args.trials, args.seed, budget
    )
    guarantee_t = (d_p - 1) // 2
    record = {f: getattr(args, f) for f in ("p", "e", "m", "i", "t", "trials", "seed")}
    record.update(
        d_pair=d_p, max_guaranteed_t=guarantee_t, successes=successes, success_rate=rate
    )
    _emit([record], args.format, out)
    if args.t <= guarantee_t and successes < args.trials:
        return EXIT_MISMATCH
    return EXIT_OK


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The paircodes parser, built on the first call and shared after.

    parse_args leaves the parser as it was and returns a fresh Namespace,
    and each subcommand's func reads module globals when it runs, so one
    parser serves every main() call in a process.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("tsv", "json", "pretty"),
        default="pretty",
        help="output format (default: pretty)",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="accepted and validated (N >= 1) but ignored; "
        "verification runs in one process",
    )

    parser = argparse.ArgumentParser(
        prog="paircodes",
        description="Pair-distance tables, brute-force verification and "
        "channel experiments for the cyclic codes <(x-1)^i> of length p^e.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *ints):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        for flag in ints:
            p.add_argument(f"--{flag}", type=int, required=True)
        return p

    add("table", cmd_table, "closed-form distance table for all i", "p", "e", "m")

    p_verify = add(
        "verify", cmd_verify, "closed forms vs brute-force oracle", "p", "e", "m"
    )
    p_verify.add_argument("--max-enum", type=int, default=EnumBudget.max_codewords)
    p_verify.add_argument("--modulus", help="override modulus c_0,...,c_m")

    p_weight = add("weight", cmd_weight, "Hamming/pair weight and pair read", "p", "m")
    p_weight.add_argument("--vector", required=True)
    p_weight.add_argument("--modulus", help="override modulus c_0,...,c_m")

    p_pd = add("pairdist", cmd_pairdist, "distances between two words", "p", "m")
    p_pd.add_argument("--x", required=True)
    p_pd.add_argument("--y", required=True)
    p_pd.add_argument("--modulus", help="override modulus c_0,...,c_m")

    add("mds", cmd_mds, "generator exponents of MDS symbol-pair codes", "p", "e", "m")

    p_sim = add(
        "simulate", cmd_simulate, "seeded pair-error decoding trials",
        "p", "e", "m", "i", "t",
    )
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument(
        "--max-enum", type=int, default=EnumBudget.max_codewords,
        help="refuse (exit 3) a codebook over MAX_ENUM words or 64*MAX_ENUM plane bits",
    )

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        return args.func(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
