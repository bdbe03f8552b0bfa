"""The benchmark workloads: job lists, how each job runs, how it is checked.

A workload's setup() returns a list of Job objects.  Job.run() does the
work and returns a value that two runs of the same job must reproduce
exactly (a total, or an exit code and the bytes printed); Job.check(value)
returns None when the value is right, or a short failure reason.  Reasons
listed in KNOWN_DEFECTS are refusals the program makes today on inputs it
should handle; they count as failed jobs but not as wrong answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected"
OUT = BENCH / "out"

KNOWN_DEFECTS = {
    "BulkDisconnected": "count() refuses a lattice whose constrained sites span "
                        "several untwisted components",
    "int_str_limit": "the CLI exits 1 on a total over 4300 decimal digits",
}


def import_gaugecount():
    """Import gaugecount from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gaugecount
    if Path(gaugecount.__file__).resolve().parent != SRC / "gaugecount":
        raise SystemExit(f"error: gaugecount imported from {gaugecount.__file__}")
    return gaugecount


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def digest(total: int) -> dict:
    raw = total.to_bytes(max(1, (total.bit_length() + 7) // 8), "big")
    return {"bits": total.bit_length(), "sha256": hashlib.sha256(raw).hexdigest()}


class Job:
    def __init__(self, name: str, run: Callable, check: Callable[[object], Optional[str]]):
        self.name = name
        self.run = run
        self.check = check


def _exc_name(e: BaseException) -> str:
    return type(e).__name__


# ---------------------------------------------------------------------------
# lattice_ladder: large lattices, one count() per job, groups built in setup

LADDER_CASES = (
    "2I_fermion_8x8", "2I_fermion_32x32", "2I_fermion_64x64", "2I_fermion_12x12x12",
    "Z2_gauge_64x64", "Z2_gauge_128x128", "S5_coset_64x64",
    "2O_fermion_innertwist_32x32", "Z4_gauge_dangling_64x64", "Z6_fermion_ctwist_64x64",
)


def _noncentral(G) -> int:
    return next(g for g in range(G.order)
                if any(G.mul(g, x) != G.mul(x, g) for x in range(G.order)))


def ladder_setup(gc) -> list[Job]:
    """Groups, class tables, reps and matter specs are built here, once.

    The cases are fixed: the seed does not change this workload.
    """
    groups = {k: gc.builtin_group(fam, params) for k, (fam, params) in {
        "2I": ("binary_icosahedral", ()), "2O": ("binary_octahedral", ()),
        "S5": ("symmetric", (5,)), "Z2": ("cyclic", (2,)),
        "Z4": ("cyclic", (4,)), "Z6": ("cyclic", (6,))}.items()}
    cls = {k: gc.conjugacy_classes(G) for k, G in groups.items()}
    fermion = {k: gc.FermionMatter((gc.su2_fundamental_rep(groups[k]),), 2, "staggered")
               for k in ("2I", "2O")}
    s5_coset = gc.ScalarMatter(gc.action_coset(groups["S5"], gc.first_proper_subgroup(groups["S5"])))
    z6_fermion = gc.FermionMatter((gc.one_dim_to_rep(gc.zn_charge_rep(groups["Z6"], 1)),), 1, "trivial")
    h_2o = _noncentral(groups["2O"])
    expected = json.loads((EXPECTED / "ladder.json").read_text())

    def case(name):
        g = name.split("_")[0]
        dims = tuple(int(d) for d in name.split("_")[-1].split("x"))
        G, C = groups[g], cls[g]
        closed_form = None

        if name.startswith("2I_fermion"):
            def run():
                return gc.count(G, gc.lattice_hypercubic(dims), fermion["2I"], classes=C).total
        elif name.startswith("Z2_gauge"):
            def run():
                return gc.count(G, gc.lattice_hypercubic(dims), gc.PureGauge(), classes=C).total
            V = dims[0] * dims[1]
            closed_form = 2 ** (2 * V - V + 1)
        elif name == "S5_coset_64x64":
            def run():
                return gc.count(G, gc.lattice_hypercubic(dims), s5_coset, classes=C).total
        elif name == "2O_fermion_innertwist_32x32":
            def run():
                L = gc.lattice_hypercubic(dims)
                tw = gc.twist_on_wrap_edges(L, gc.inner_automorphism(G, h_2o), 0)
                return gc.count(G, L, fermion["2O"], twist=tw, classes=C).total
        elif name == "Z4_gauge_dangling_64x64":
            attach = tuple(range(dims[1]))  # row 0 in row-major order

            def run():
                L = gc.lattice_hypercubic(dims, periodic=False)
                return gc.count(G, L, gc.PureGauge(), dangling_attach=attach, classes=C).total
            # extended lattice: one virtual site, one sink link per attached site
            E = 2 * dims[0] * dims[1] - dims[0] - dims[1] + len(attach)
            V = dims[0] * dims[1] + 1
            closed_form = 4 ** (E - V + 1)
        elif name == "Z6_fermion_ctwist_64x64":
            def run():
                L = gc.lattice_hypercubic(dims)
                tw = gc.twist_on_wrap_edges(L, gc.inversion_endo(G), 0)
                return gc.count(G, L, z6_fermion, twist=tw, classes=C).total
        else:
            raise KeyError(name)

        def check(total):
            if isinstance(total, BaseException):
                return _exc_name(total)
            if closed_form is not None:
                return None if total == closed_form else "total != closed form"
            if name not in expected:
                return "no seed record"
            return None if digest(total) == expected[name] else "total != seed record"
        return Job(name, run, check)

    return [case(n) for n in LADDER_CASES]


# ---------------------------------------------------------------------------
# verify_grid: many tiny random jobs, formula against the element oracle

GRID_GROUPS = (("cyclic", (2,)), ("cyclic", (3,)), ("cyclic", (4,)), ("cyclic", (5,)),
               ("cyclic", (6,)), ("symmetric", (3,)), ("dihedral", (4,)),
               ("quaternion", ()), ("binary_tetrahedral", ()))
GRID_SITES = (1, 2, 3, 4)
GRID_MATTER = ("none", "left_mult", "coset", "fermion", "fermion")
GRID_TWISTS = ("none", "identity", "sink", "proper", "dangling")
MAX_LINKS = 8


def verify_specs(seed: int) -> list[dict]:
    """One job per (group, site count, matter slot, twist kind), drawn from seed.

    The site count n includes the dangling site, so no job sums over more
    than 4 sites in the oracle.  Every stratum appears once, so the mix of
    group orders and site counts (which set the oracle's cost) is the same
    for every seed; the seed draws the links, twisted links, spinors,
    vacuum and elements.
    """
    rng = random.Random(seed)
    specs = []
    for gi in range(len(GRID_GROUPS)):
        for n in GRID_SITES:
            for matter in GRID_MATTER:
                for twist in GRID_TWISTS:
                    on_links = twist in ("identity", "sink", "proper")
                    phys = max(1, n - 1) if twist == "dangling" else n
                    m = rng.randint(1 if on_links else 0, MAX_LINKS)
                    edges = tuple((rng.randrange(phys), rng.randrange(phys)) for _ in range(m))
                    spec = {"group": gi, "sites": phys, "edges": edges,
                            "matter": matter, "twist": twist}
                    if matter == "fermion":
                        spec["spinors"] = rng.randint(1, 2)
                        spec["vacuum"] = rng.choice(("trivial", "staggered")) if phys % 2 == 0 else "trivial"
                    if on_links:
                        spec["twisted"] = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
                    if twist == "proper":
                        spec["element"] = rng.randrange(1 << 16)
                    if twist == "dangling":
                        spec["attach"] = tuple(sorted(rng.sample(range(phys), rng.randint(1, phys))))
                    specs.append(spec)
    rng.shuffle(specs)
    return specs


def _faithful_rep(gc, G, family: str):
    if family == "cyclic":
        return gc.one_dim_to_rep(gc.zn_charge_rep(G, 1))
    if family == "dihedral":
        return gc.dihedral_rotation_rep(G, G.order // 2)
    if family == "symmetric":  # S3: a transposition and a 3-cycle
        w = gc.Cyclotomic.root_of_unity(3)
        z, o = gc.Cyclotomic.zero(), gc.Cyclotomic.one()
        return gc.rep_from_generator_images(G, (((z, o), (o, z)), ((w, z), (z, w * w))))
    return gc.su2_fundamental_rep(G)


def verify_setup(gc, seed: int, tracer=None) -> list[Job]:
    groups = [gc.builtin_group(fam, params) for fam, params in GRID_GROUPS]
    jobs = []
    for i, spec in enumerate(verify_specs(seed)):
        family = GRID_GROUPS[spec["group"]][0]
        G = groups[spec["group"]]
        name = (f"{i:03d}-{G.name}-{spec['sites']}s{len(spec['edges'])}l-"
                f"{spec['matter']}-{spec['twist']}")

        def run(spec=spec, G=G, family=family):
            def graph():
                return gc.LatticeGraph(spec["sites"], spec["edges"])
            L = tracer.call("lattice.build", graph) if tracer else graph()
            matter = spec["matter"]
            if matter == "none":
                m = gc.PureGauge()
            elif matter == "left_mult":
                m = gc.ScalarMatter(gc.action_left_mult(G))
            elif matter == "coset":
                m = gc.ScalarMatter(gc.action_coset(G, gc.first_proper_subgroup(G)))
            else:
                m = gc.FermionMatter((_faithful_rep(gc, G, family),), spec["spinors"], spec["vacuum"])
            twist, attach = None, None
            kind = spec["twist"]
            if kind == "dangling":
                attach = spec["attach"]
            elif kind != "none":
                if kind == "identity":
                    endo = gc.identity_endo(G)
                elif kind == "sink":
                    endo = gc.constant_identity_endo(G)
                elif G.is_abelian():
                    endo = gc.inversion_endo(G)
                else:
                    endo = gc.inner_automorphism(G, spec["element"] % G.order)
                twist = gc.make_twist(L, endo, spec["twisted"])
            try:
                formula = gc.count(G, L, m, twist=twist, dangling_attach=attach).total
            except Exception as e:  # matched by name: the class may go once the defect is fixed
                if _exc_name(e) != "BulkDisconnected":
                    raise
                formula = _exc_name(e)
            # the oracle runs on refused jobs too, so fixing a refusal keeps the work fixed
            oracle = gc.oracle_count(G, L, m, twist=twist, dangling_attach=attach)
            return formula, oracle

        def check(value):
            if isinstance(value, BaseException):
                return _exc_name(value)
            formula, oracle = value
            if isinstance(formula, str):
                return formula
            return None if formula == oracle else "formula != oracle"
        jobs.append(Job(name, run, check))
    return jobs


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m gaugecount.cli` process per job

def _hyper(dims, periodic=True):
    return {"dims": list(dims), "periodic": periodic}


CLI_JOBS = (
    ("count_2I_fermion_4x4_json", ["count", "--format", "json", "--no-timestamp"], {
        "group": {"family": "binary_icosahedral"}, "lattice": _hyper((4, 4)),
        "matter": {"kind": "fermion", "flavours": [{"builtin": "su2_fundamental"}],
                   "spinor_count": 2, "vacuum": "staggered"}}),
    ("count_S6_coset_4x4_json", ["count", "--format", "json", "--no-timestamp"], {
        "group": {"family": "symmetric", "params": [6]}, "lattice": _hyper((4, 4)),
        "matter": {"kind": "scalar", "action": "coset_first_subgroup"}}),
    ("count_D4_fermion_inner_6x6_text", ["count", "--format", "text", "--no-timestamp"], {
        "group": {"family": "dihedral", "params": [4]}, "lattice": _hyper((6, 6)),
        "matter": {"kind": "fermion", "flavours": [{"builtin": "dihedral_rotation"}]},
        "twist": {"endo": {"inner": 1}, "wrap_dim": 0}}),
    ("count_Z4_fermion_dangling_8x8_csv", ["count", "--format", "csv", "--no-timestamp"], {
        "group": {"family": "cyclic", "params": [4]}, "lattice": _hyper((8, 8), False),
        "matter": {"kind": "fermion", "flavours": [{"builtin": "zn_charge", "charge": 1}]},
        "dangling_attach": list(range(8))}),
    ("count_Z8_gauge_72x72_json", ["count", "--format", "json", "--no-timestamp"], {
        "group": {"family": "cyclic", "params": [8]}, "lattice": _hyper((72, 72))}),
    ("verify_2T_fermion_2x2", ["verify"], {
        "group": {"family": "binary_tetrahedral"}, "lattice": _hyper((2, 2)),
        "matter": {"kind": "fermion", "flavours": [{"builtin": "su2_fundamental"}]}}),
    ("group_info_2I", ["group-info", "--family", "binary_icosahedral"], None),
    ("group_info_S6", ["group-info", "--family", "symmetric", "--params", "6"], None),
)

# jobs checked by a closed form instead of a seed record: name -> (N, L, L)
CLI_CLOSED_FORM = {"count_Z8_gauge_72x72_json": (8, 72, 72)}


def cli_argv(name: str, args: list, cfg: Optional[dict], workdir: Path) -> list[str]:
    if cfg is None:
        return list(args)
    path = workdir / f"{name}.json"
    return list(args[:1]) + ["--config", str(path)] + list(args[1:])


def write_cli_configs(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, _, cfg in CLI_JOBS:
        if cfg is not None:
            (workdir / f"{name}.json").write_text(json.dumps(cfg, indent=1))


def run_process(argv: list[str], timeout: float = 120) -> tuple[int, bytes, bytes]:
    """Run argv from the checkout root to its end: (exit code, stdout, stderr).

    The wait is a blocking one and a timer kills a child that outlives
    `timeout`: subprocess's own timeout polls the child with sleeps of up to
    50 ms, which would round every time measured around it up to that step.
    """
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            out, err = p.communicate()
        finally:
            timer.cancel()
    return p.returncode, out, err


def _check_closed_form(rc: int, out: bytes, err: bytes, N: int, a: int, b: int) -> Optional[str]:
    if rc == 1 and b"Exceeds the limit" in err:
        return "int_str_limit"
    if rc != 0:
        return f"exit {rc}"
    V, E = a * b, 2 * a * b
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        result = json.loads(out)["result"]
        ok = (int(result["total"]) == N ** (E - V + 1)
              and int(result["total_hilbert_dim"]) == N ** E)
    finally:
        sys.set_int_max_str_digits(limit)
    return None if ok else "total != closed form"


def cli_setup(workdir: Path, tracer=None) -> list[Job]:
    """Write the job configs and import gaugecount.cli once in a fresh process,
    so the first timed job does not pay for byte-compiling the package.

    While `tracer` is installed a job runs under cli_child.py instead of
    `-m gaugecount.cli`, and the child's spans are adopted into the tracer.
    """
    write_cli_configs(workdir)
    rc, _, err = run_process([sys.executable, "-c", "import gaugecount.cli"])
    if rc != 0:
        raise SystemExit("error: cannot import gaugecount.cli\n" + err.decode(errors="replace"))
    recorded = json.loads((EXPECTED / "cli.json").read_text())
    jobs = []
    for name, args, cfg in CLI_JOBS:
        argv = cli_argv(name, args, cfg, workdir)

        def run(argv=argv, name=name):
            if tracer is None or not tracer.installed:
                return run_process([sys.executable, "-m", "gaugecount.cli"] + argv)
            spans_file = workdir / f"{name}.spans.json"
            t0 = time.perf_counter()
            value = run_process([sys.executable, str(BENCH / "cli_child.py"), str(spans_file)] + argv)
            wall = time.perf_counter() - t0
            child = json.loads(spans_file.read_text())
            spans_file.unlink()
            tracer.adopt(child["spans"], name, {"cli.import_s": child["import_s"],
                                                "cli.process_s": wall})
            return value

        def check(value, name=name):
            if isinstance(value, BaseException):
                return _exc_name(value)
            rc, out, err = value
            if name in CLI_CLOSED_FORM:
                return _check_closed_form(rc, out, err, *CLI_CLOSED_FORM[name])
            if rc != recorded[name]:
                return f"exit {rc}"
            if out != (EXPECTED / "cli" / f"{name}.out").read_bytes():
                return "stdout differs from seed record"
            return None
        jobs.append(Job(name, run, check))
    return jobs
