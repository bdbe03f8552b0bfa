"""Command-line interface: JSON job configs in, deterministic reports out.

Exit codes: 0 success; 2 configuration or validation error, or an input
too large to hold in memory (one-line diagnostic on stderr); 3 a count
failed its integrality guarantee; 4 a verify run found formula and oracle
in disagreement.  Identical configs produce byte-identical reports apart
from the timestamp field, which --no-timestamp suppresses.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from .autos import (
    DEFAULT_AUT_BUDGET,
    GroupEndomorphism,
    analyze_automorphisms,
    constant_identity_endo,
    endo_from_text,
    identity_endo,
    inner_automorphism,
    inversion_endo,
)
from .counting import CountReport, count
from .cyclo import Cyclotomic
from .errors import (
    BadParams,
    GaugeCountError,
    NonIntegralResult,
    ParseError,
)
from .groups import (
    FiniteGroup,
    builtin_group,
    conjugacy_classes,
    first_proper_subgroup,
    group_from_text,
)
from .lattice import (
    LatticeGraph,
    TwistSpec,
    emit_edge_list,
    lattice_hypercubic,
    make_twist,
    parse_edge_list,
    twist_on_wrap_edges,
)
from .matter import (
    FermionMatter,
    MatterSpec,
    PureGauge,
    ScalarMatter,
    ScalarMatterPerSite,
    action_coset,
    action_from_text,
    action_left_mult,
    dihedral_rotation_rep,
    one_dim_to_rep,
    rep_from_text,
    site_characters,
    su2_fundamental_rep,
    total_hilbert_dim,
    trivial_rep,
    zn_charge_rep,
)
from .oracle import DEFAULT_ORACLE_BUDGET, oracle_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONINTEGRAL = 3
EXIT_MISMATCH = 4


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise BadParams(f"file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not valid UTF-8 (byte {e.start})")


# ---------------------------------------------------------------------------
# config resolution

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_OBJ = (lambda v: isinstance(v, dict), "an object")
_LIST = (lambda v: isinstance(v, list), "a list")
_STR = (lambda v: isinstance(v, str), "a string")
_INT = (_is_int, "an integer")
_INTS = (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers")
_BOOLS = (lambda v: isinstance(v, bool) or (isinstance(v, list)
                                            and all(isinstance(p, bool) for p in v)),
          "a boolean or a list of booleans")
_NAMED = (lambda v: isinstance(v, (str, dict)), "a name or an object")

# dotted field path -> the JSON type it must have.  '*' walks list items, a
# trailing '?' admits null (read as absent), and a parent comes before its
# children, which are looked up only inside a parent of the right type.
CONFIG_TYPES = (
    ("group", _OBJ), ("group.family", _STR), ("group.params", _INTS), ("group.file", _STR),
    ("lattice", _OBJ), ("lattice.dims", _INTS), ("lattice.periodic", _BOOLS),
    ("lattice.file", _STR), ("matter?", _OBJ), ("matter.kind", _STR),
    ("matter.action", _NAMED), ("matter.action.file", _STR), ("matter.actions", _LIST),
    ("matter.actions.*", _NAMED), ("matter.actions.*.file", _STR),
    ("matter.flavours", _LIST), ("matter.flavours.*", _OBJ),
    ("matter.flavours.*.builtin", _STR), ("matter.flavours.*.charge", _INT),
    ("matter.flavours.*.dim", _INT), ("matter.flavours.*.file", _STR),
    ("matter.spinor_count", _INT), ("matter.vacuum", _STR), ("twist?", _OBJ),
    ("twist.endo", _NAMED), ("twist.endo.inner", _INT), ("twist.endo.file", _STR),
    ("twist.edges?", _INTS), ("twist.wrap_dim?", _INT), ("dangling_attach?", _INTS),
    ("output", _OBJ), ("output.format", _STR), ("output.path", _STR),
)


def _fields(node, keys: list[str], where: str = ""):
    """(location, value) of every field at the key path below node."""
    if not keys:
        yield where, node
    elif keys[0] == "*":
        for i, v in enumerate(node if isinstance(node, list) else ()):
            yield from _fields(v, keys[1:], f"{where}[{i}]")
    elif isinstance(node, dict) and keys[0] in node:
        yield from _fields(node[keys[0]], keys[1:],
                           f"{where}.{keys[0]}" if where else keys[0])


def check_config_types(cfg: dict) -> None:
    """Reject any config field of the wrong JSON type, before any is used."""
    for path, (ok, what) in CONFIG_TYPES:
        for where, value in _fields(cfg, path.rstrip("?").split(".")):
            if not (ok(value) or (value is None and path.endswith("?"))):
                raise BadParams(f"config field {where} must be {what}, "
                                f"got {json.dumps(value)}")


def build_group(spec: dict) -> FiniteGroup:
    if "file" in spec:
        return group_from_text(_read_text(spec["file"]))
    family = spec.get("family")
    if not family:
        raise BadParams("group spec needs 'family' or 'file'")
    params = tuple(spec.get("params", ()))
    return builtin_group(family, params)


def build_lattice(spec: dict) -> tuple[LatticeGraph, frozenset[int]]:
    if "file" in spec:
        return parse_edge_list(_read_text(spec["file"]))
    dims = spec.get("dims")
    if not dims:
        raise BadParams("lattice spec needs 'dims' or 'file'")
    return lattice_hypercubic(dims, spec.get("periodic", True)), frozenset()


def _build_flavour(spec: dict, G: FiniteGroup):
    if "file" in spec:
        return rep_from_text(_read_text(spec["file"]), G)
    builtin = spec.get("builtin")
    if builtin == "su2_fundamental":
        return su2_fundamental_rep(G)
    if builtin == "dihedral_rotation":
        if G.order % 2:
            raise BadParams("dihedral rotation rep needs an even-order group")
        return dihedral_rotation_rep(G, G.order // 2)
    if builtin == "zn_charge":
        return one_dim_to_rep(zn_charge_rep(G, spec.get("charge", 1)))
    if builtin == "trivial":
        return trivial_rep(G, spec.get("dim", 1))
    raise BadParams(f"unknown flavour spec {spec!r}")


def _build_action(spec, G: FiniteGroup):
    if spec == "left_mult":
        return action_left_mult(G)
    if spec == "coset_first_subgroup":
        return action_coset(G, first_proper_subgroup(G))
    if isinstance(spec, dict) and "file" in spec:
        return action_from_text(_read_text(spec["file"]), G)
    raise BadParams(f"unknown action spec {spec!r}")


def build_matter(spec: Optional[dict], G: FiniteGroup, L: LatticeGraph) -> MatterSpec:
    if spec is None:
        return PureGauge()
    kind = spec.get("kind", "none")
    if kind == "none":
        return PureGauge()
    if kind == "scalar":
        return ScalarMatter(_build_action(spec.get("action", "left_mult"), G))
    if kind == "scalar_per_site":
        actions = spec.get("actions")
        if not isinstance(actions, list) or len(actions) != L.site_count:
            raise BadParams(
                f"scalar_per_site needs one action per site ({L.site_count})")
        # one action per distinct spec, so each is built and checked once
        keys = [json.dumps(a, sort_keys=True) for a in actions]
        built = {k: _build_action(a, G) for k, a in dict(zip(keys, actions)).items()}
        return ScalarMatterPerSite(tuple(built[k] for k in keys))
    if kind == "fermion":
        flavours = spec.get("flavours")
        if not isinstance(flavours, list) or not flavours:
            raise BadParams("fermion matter needs a nonempty 'flavours' list")
        reps = tuple(_build_flavour(f, G) for f in flavours)
        vacuum = spec.get("vacuum", "trivial")
        return FermionMatter(reps, spec.get("spinor_count", 1), vacuum)
    raise BadParams(f"unknown matter kind {kind!r}")


def _build_endo(spec, G: FiniteGroup) -> GroupEndomorphism:
    if spec == "identity":
        return identity_endo(G)
    if spec == "inversion":
        return inversion_endo(G)
    if spec == "constant_identity":
        return constant_identity_endo(G)
    if isinstance(spec, dict) and "inner" in spec:
        return inner_automorphism(G, spec["inner"])
    if isinstance(spec, dict) and "file" in spec:
        return endo_from_text(_read_text(spec["file"]), G)
    raise BadParams(f"unknown endomorphism spec {spec!r}")


def build_twist(spec: Optional[dict], G: FiniteGroup, L: LatticeGraph,
                file_marked: frozenset[int]) -> Optional[TwistSpec]:
    if spec is None:
        if file_marked:
            raise BadParams(
                "lattice file marks twisted links but the config has no twist")
        return None
    endo = _build_endo(spec.get("endo", "identity"), G)
    edges = spec.get("edges")
    wrap = spec.get("wrap_dim")
    chosen = sum(x is not None for x in (edges, wrap)) + bool(file_marked)
    if chosen > 1:
        raise BadParams("give exactly one of twist edges, wrap_dim, or file marks")
    if wrap is not None:
        return twist_on_wrap_edges(L, endo, wrap)
    if edges is not None:
        return make_twist(L, endo, edges)
    if file_marked:
        return make_twist(L, endo, file_marked)
    raise BadParams("twist spec selects no links")


def _matter_label(matter: MatterSpec) -> str:
    if isinstance(matter, PureGauge):
        return "none"
    if isinstance(matter, ScalarMatter):
        return f"scalar[{matter.action.set_size}]"
    if isinstance(matter, ScalarMatterPerSite):
        return "scalar_per_site[" + ",".join(str(a.set_size) for a in matter.actions) + "]"
    vac = matter.vacuum if isinstance(matter.vacuum, str) else "explicit"
    dims = ",".join(str(f.dim) for f in matter.flavours)
    return f"fermion[dims={dims},spinors={matter.spinor_count},vacuum={vac}]"


# ---------------------------------------------------------------------------
# serialization

def _cyclo_json(v: Cyclotomic) -> dict:
    return {"ring": v.order, "coeffs": v.coeff_pairs()}


def report_payload(rep: CountReport, G: FiniteGroup, matter: MatterSpec,
                   total_dim: int, timestamp: bool) -> dict:
    payload = {
        "command": "count",
        "group": {"name": rep.group_name, "order": G.order},
        "lattice": {"name": rep.lattice_name, "sites": rep.site_count,
                    "links": rep.edge_count},
        "matter": _matter_label(matter),
        "twist_kind": rep.twist_kind,
        "result": {
            "total": str(rep.total),
            "total_hilbert_dim": str(total_dim),
            "bulk_sites": rep.bulk_site_count,
            "free_sites": list(rep.free_sites),
            "twisted_head_count": rep.twisted_head_count,
            "class_sizes": list(rep.class_sizes),
            "per_class": [_cyclo_json(v) for v in rep.per_class],
            "alpha": ([str(a) for a in rep.alpha] if rep.alpha is not None else None),
            "free_factor": _cyclo_json(rep.free_factor),
            "witness": {
                "ring_order": rep.witness.ring_order,
                "is_rational": rep.witness.is_rational,
                "denominator": rep.witness.denominator,
                "nonnegative": rep.witness.nonnegative,
            },
            "warnings": list(rep.warnings),
        },
    }
    if timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return payload


def _count_views(payload: dict) -> tuple[dict, list[str]]:
    """The one-row CSV table and the text lines of a count payload."""
    g, lat, res = payload["group"], payload["lattice"], payload["result"]
    row = {"command": "count", "group": g["name"], "order": g["order"],
           "lattice": lat["name"], "sites": lat["sites"], "links": lat["links"],
           "matter": payload["matter"], "twist_kind": payload["twist_kind"],
           "total": res["total"]}
    lines = [
        f"group: {g['name']} (order {g['order']})",
        f"lattice: {lat['name']} sites={lat['sites']} links={lat['links']}",
        f"matter: {payload['matter']}",
        f"twist: {payload['twist_kind']}",
        f"bulk sites: {res['bulk_sites']}  free sites: {res['free_sites']}",
        f"total: {res['total']}",
        f"total hilbert dim: {res['total_hilbert_dim']}",
        *(f"warning: {w}" for w in res["warnings"]),
    ]
    return row, lines


def render(fmt: str, payload: dict, row: dict, lines: list[str]) -> str:
    """A report as JSON (the payload, sorted keys, indent 2), as a one-row
    CSV table of the row, or as the text lines."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)
        return buf.getvalue()
    if fmt == "text":
        return "".join(f"{line}\n" for line in lines)
    raise BadParams(f"unknown format {fmt!r}")


def _write_out(text: str, path: Optional[str]) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def _load_config(path: str) -> dict:
    raw = _read_text(path)
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(f"config is not valid JSON: {e.msg}", e.lineno)
    except RecursionError:
        raise ParseError("config nests too deeply to parse")
    if not isinstance(cfg, dict):
        raise BadParams("config root must be a JSON object")
    check_config_types(cfg)
    return cfg


def _resolve_job(cfg: dict):
    G = build_group(cfg.get("group", {}))
    L, file_marked = build_lattice(cfg.get("lattice", {}))
    matter = build_matter(cfg.get("matter"), G, L)
    twist = build_twist(cfg.get("twist"), G, L, file_marked)
    return G, L, matter, twist, cfg.get("dangling_attach")


def cmd_count(args) -> int:
    cfg = _load_config(args.config)
    G, L, matter, twist, attach = _resolve_job(cfg)
    classes = conjugacy_classes(G)
    chars = site_characters(matter, classes, L.site_count)
    rep = count(G, L, matter, twist=twist, dangling_attach=attach, classes=classes,
                site_chars=chars)
    tot = total_hilbert_dim(G, L, matter, classes, site_chars=chars)
    output = cfg.get("output", {})
    payload = report_payload(rep, G, matter, tot, not args.no_timestamp)
    _write_out(render(args.format or output.get("format", "text"), payload,
                      *_count_views(payload)), output.get("path"))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    G, L, matter, twist, attach = _resolve_job(cfg)
    budget = DEFAULT_ORACLE_BUDGET if args.budget is None else args.budget
    formula = count(G, L, matter, twist=twist, dangling_attach=attach).total
    oracle = oracle_count(G, L, matter, twist=twist, dangling_attach=attach,
                          budget=budget)
    if formula != oracle:
        sys.stderr.write(f"MISMATCH: formula={formula} oracle={oracle}\n")
        return EXIT_MISMATCH
    sys.stdout.write(f"OK: formula={formula} oracle={oracle}\n")
    return EXIT_OK


def cmd_group_info(args) -> int:
    if args.config:
        cfg = _load_config(args.config)
        G = build_group(cfg.get("group", {}))
    elif args.family:
        G = builtin_group(args.family, tuple(args.params or ()))
    else:
        raise BadParams("give --family (with --params) or --config")
    classes = conjugacy_classes(G)
    budget = DEFAULT_AUT_BUDGET if args.budget is None else args.budget
    report = analyze_automorphisms(G, classes, budget=budget)
    quasi = {True: "yes", False: "no", None: "unknown"}[report.quasi_ambivalent]
    witness = (list(report.charge_conjugations[0].image)
               if report.charge_conjugations else None)
    payload = {
        "command": "group-info",
        "name": G.name,
        "order": G.order,
        "abelian": G.is_abelian(),
        "exponent": G.exponent(),
        "center_order": classes.sizes.count(1),
        "class_count": classes.n_classes,
        "class_sizes": list(classes.sizes),
        "class_representatives": list(classes.reps),
        "centralizer_sizes": list(classes.centralizer_sizes),
        "ambivalent": report.ambivalent,
        "quasi_ambivalent": quasi,
        "charge_conjugation_witness": witness,
        "charge_conjugation_count": len(report.charge_conjugations),
        "aut_order": report.aut_order if report.complete else None,
        "inner_order": report.inner_order,
        "outer_order": report.outer_order if report.complete else None,
        "enumeration_complete": report.complete,
    }
    row = {k: (json.dumps(v) if isinstance(v, list) else v) for k, v in payload.items()}
    lines = [f"{k}: {v}" for k, v in payload.items()]
    sys.stdout.write(render(args.format or "json", payload, row, lines))
    return EXIT_OK


def cmd_lattice_make(args) -> int:
    dims = tuple(args.dims)
    per = args.periodic
    if per is None:
        periodic: Sequence[bool] | bool = True
    elif len(per) == 1 and len(dims) != 1:
        periodic = per[0] == "p"
    else:
        if len(per) != len(dims) or any(c not in "po" for c in per):
            raise BadParams("--periodic must be p/o flags, one per dimension")
        periodic = tuple(c == "p" for c in per)
    L = lattice_hypercubic(dims, periodic)
    text = emit_edge_list(L)
    if args.out:
        p = Path(args.out)
        if p.exists() and not args.force:
            raise BadParams(f"output path exists (use --force): {args.out}")
        p.write_text(text)
        sys.stdout.write(f"wrote {L.site_count} sites, {L.edge_count} links to {args.out}\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gaugecount",
        description="Exact dimension counts of gauge-invariant Hilbert spaces "
                    "for finite gauge groups on lattice graphs.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_count = sub.add_parser("count", help="run the counting formula on a job config")
    p_count.add_argument("--config", required=True)
    p_count.add_argument("--format", choices=("json", "csv", "text"))
    p_count.add_argument("--no-timestamp", action="store_true")
    p_count.set_defaults(fn=cmd_count)

    p_verify = sub.add_parser("verify", help="compare the formula against the "
                                             "element-level oracle")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--budget", type=int)
    p_verify.set_defaults(fn=cmd_verify)

    p_info = sub.add_parser("group-info", help="class and automorphism structure "
                                               "of a group")
    p_info.add_argument("--family")
    p_info.add_argument("--params", type=int, nargs="*")
    p_info.add_argument("--config")
    p_info.add_argument("--budget", type=int)
    p_info.add_argument("--format", choices=("json", "csv", "text"))
    p_info.set_defaults(fn=cmd_group_info)

    p_lat = sub.add_parser("lattice-make", help="emit a hypercubic edge list")
    p_lat.add_argument("--dims", type=int, nargs="+", required=True)
    p_lat.add_argument("--periodic")
    p_lat.add_argument("--out")
    p_lat.add_argument("--force", action="store_true")
    p_lat.set_defaults(fn=cmd_lattice_make)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact totals may run to any length
    args = _parser().parse_args(argv)
    if getattr(args, "budget", None) is not None and args.budget < 1:
        sys.stderr.write("error: --budget must be at least 1\n")
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except (GaugeCountError, OSError) as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return EXIT_NONINTEGRAL if isinstance(e, NonIntegralResult) else EXIT_CONFIG
    except MemoryError:
        sys.stderr.write("error: MemoryError: the input is too large to hold in memory\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
