"""Command-line interface: configs, formats, exit codes, file inputs."""

import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

from gaugecount import (
    NonIntegralResult,
    action_left_mult,
    action_to_text,
    action_trivial,
    builtin_group,
    center,
    cyclic_group,
    dihedral_group,
    dihedral_rotation_rep,
    endo_to_text,
    group_from_table,
    group_to_text,
    inversion_endo,
    parse_edge_list,
    permutation_rep,
    rep_to_text,
    symmetric_group,
)
from gaugecount import cli, counting, matter
from gaugecount.cli import main


def write_config(tmp_path, cfg, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


STAGGERED_JOB = {
    "group": {"family": "dihedral", "params": [4]},
    "lattice": {"dims": [2], "periodic": True},
    "matter": {"kind": "fermion",
               "flavours": [{"builtin": "dihedral_rotation"}],
               "spinor_count": 1, "vacuum": "staggered"},
}


def test_count_text_format(tmp_path, capsys):
    cfg = write_config(tmp_path, STAGGERED_JOB)
    assert main(["count", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "total: 20" in out
    assert "group: D4 (order 8)" in out
    assert "total hilbert dim: 1024" in out


def test_count_json_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, STAGGERED_JOB)
    assert main(["count", "--config", cfg, "--format", "json",
                 "--no-timestamp"]) == 0
    first = capsys.readouterr().out
    assert main(["count", "--config", cfg, "--format", "json",
                 "--no-timestamp"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["result"]["total"] == "20"
    assert payload["result"]["witness"]["denominator"] == 1
    assert "timestamp" not in payload

    assert main(["count", "--config", cfg, "--format", "json"]) == 0
    stamped = json.loads(capsys.readouterr().out)
    assert "timestamp" in stamped


def test_count_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path, STAGGERED_JOB)
    assert main(["count", "--config", cfg, "--format", "csv"]) == 0
    import csv as csv_mod
    import io
    rows = list(csv_mod.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert rows[0]["total"] == "20"
    assert rows[0]["group"] == "D4"


def test_count_output_path_and_config_format(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    cfg = dict(STAGGERED_JOB)
    cfg["output"] = {"format": "json", "path": str(out_file)}
    path = write_config(tmp_path, cfg)
    assert main(["count", "--config", path, "--no-timestamp"]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out_file.read_text())
    assert payload["result"]["total"] == "20"


def test_verify_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path, STAGGERED_JOB)
    assert main(["verify", "--config", cfg]) == 0
    assert "OK: formula=20 oracle=20" in capsys.readouterr().out


def test_verify_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, STAGGERED_JOB)
    monkeypatch.setattr(cli, "oracle_count", lambda *a, **k: 999)
    assert main(["verify", "--config", cfg]) == 4
    assert "MISMATCH" in capsys.readouterr().err


def test_verify_past_the_oracle_fock_cap_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [2]},
        "lattice": {"dims": [2], "periodic": True},
        "matter": {"kind": "fermion", "flavours": [{"builtin": "trivial", "dim": 7}]},
    })
    assert main(["count", "--config", cfg]) == 0
    assert f"total: {2 * 128 ** 2}" in capsys.readouterr().out
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DimTooLarge: ") and err.count("\n") == 1


def test_nonintegral_exit_code(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, STAGGERED_JOB)

    def boom(*a, **k):
        raise NonIntegralResult("witness failed")

    monkeypatch.setattr(cli, "count", boom)
    assert main(["count", "--config", cfg]) == 3
    assert "NonIntegralResult" in capsys.readouterr().err


def test_config_error_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["count", "--config", missing]) == 2
    assert "BadParams" in capsys.readouterr().err
    assert main(["count", "--config", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["count", "--config", str(bad_json)]) == 2
    assert "ParseError" in capsys.readouterr().err

    root_list = tmp_path / "list.json"
    root_list.write_text("[1, 2]")
    assert main(["count", "--config", str(root_list)]) == 2

    unknown = write_config(tmp_path, {
        "group": {"family": "sporadic"},
        "lattice": {"dims": [2]},
    }, "unknown.json")
    assert main(["count", "--config", unknown]) == 2
    assert "UnknownFamily" in capsys.readouterr().err

    no_group = write_config(tmp_path, {
        "group": {}, "lattice": {"dims": [2]}}, "nogroup.json")
    assert main(["count", "--config", no_group]) == 2

    bad_fmt = dict(STAGGERED_JOB)
    bad_fmt["output"] = {"format": "yaml"}
    cfg = write_config(tmp_path, bad_fmt, "badfmt.json")
    assert main(["count", "--config", cfg]) == 2


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, STAGGERED_JOB)
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "count", "--config", cfg])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: gaugecount")


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_one_exits_2(tmp_path, capsys, budget):
    cfg = write_config(tmp_path, STAGGERED_JOB)
    for argv in (["verify", "--config", cfg, "--budget", budget],
                 ["group-info", "--family", "cyclic", "--params", "4",
                  "--budget", budget]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --budget must be at least 1\n"
    assert main(["group-info", "--family", "cyclic", "--params", "4",
                 "--budget", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["enumeration_complete"] is False


def test_cli_import_does_not_load_numpy(tmp_path):
    # importing the CLI, then running pure-gauge, scalar and fermion jobs
    # (built-in and file flavours, count and verify), in one process: numpy
    # and dataclasses (whose code generation a cold process would pay for)
    # stay unloaded after each step
    def fermion(family, params, flavour, name, dims=(2, 2)):
        return write_config(tmp_path, {
            "group": {"family": family, "params": params}, "lattice": {"dims": dims},
            "matter": {"kind": "fermion", "flavours": [flavour], "vacuum": "staggered"}},
            name)

    rep_file = tmp_path / "rot.rep"
    rep_file.write_text(rep_to_text(dihedral_rotation_rep(dihedral_group(3), 3)))
    count = ["count", "--no-timestamp", "--config"]
    jobs = [
        count + [write_config(tmp_path, {"group": {"family": "dihedral", "params": [4]},
                                         "lattice": {"dims": [2, 2]}}, "pure.json")],
        count + [write_config(tmp_path, {
            "group": {"family": "symmetric", "params": [3]}, "lattice": {"dims": [2, 2]},
            "matter": {"kind": "scalar", "action": "coset_first_subgroup"}}, "scalar.json")],
        count + [fermion("binary_tetrahedral", [], {"builtin": "su2_fundamental"}, "su2.json")],
        count + [fermion("dihedral", [4], {"builtin": "dihedral_rotation"}, "rot.json")],
        count + [fermion("cyclic", [4], {"builtin": "zn_charge", "charge": 1}, "zn.json")],
        ["verify", "--config",
         fermion("quaternion", [], {"builtin": "su2_fundamental"}, "verify.json", dims=[2])],
        count + [fermion("dihedral", [3], {"file": str(rep_file)}, "file.json")],
    ]
    code = ("import sys, gaugecount.cli as c\n"
            "def loaded(): print('loaded', 'numpy' in sys.modules, 'dataclasses' in sys.modules)\n"
            "loaded()\n"
            f"for argv in {jobs!r}:\n"
            "    assert c.main(argv) == 0, argv\n"
            "    loaded()\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                                                     "PYTHONPATH": os.pathsep.join(sys.path)})
    flags = [ln for ln in out.stdout.splitlines() if ln.startswith("loaded ")]
    assert flags == ["loaded False False"] * (1 + len(jobs))


def test_twist_config_variants(tmp_path, capsys):
    base = {
        "group": {"family": "cyclic", "params": [4]},
        "lattice": {"dims": [2], "periodic": True},
    }
    wrap = dict(base, twist={"endo": "inversion", "wrap_dim": 0})
    cfg = write_config(tmp_path, wrap, "wrap.json")
    assert main(["count", "--config", cfg]) == 0
    assert "total: 2" in capsys.readouterr().out
    assert main(["count", "--config", cfg, "--format", "json", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["alpha"] == ["1", "0", "1", "0"]

    edges = dict(base, twist={"endo": "inversion", "edges": [1]})
    cfg = write_config(tmp_path, edges, "edges.json")
    assert main(["count", "--config", cfg]) == 0
    assert "total: 2" in capsys.readouterr().out

    both = dict(base, twist={"endo": "inversion", "edges": [1], "wrap_dim": 0})
    cfg = write_config(tmp_path, both, "both.json")
    assert main(["count", "--config", cfg]) == 2
    assert "exactly one" in capsys.readouterr().err

    none = dict(base, twist={"endo": "inversion"})
    cfg = write_config(tmp_path, none, "none.json")
    assert main(["count", "--config", cfg]) == 2

    # an open dimension has no wraparound links: refused, not counted untwisted
    open_dim = {"group": {"family": "cyclic", "params": [4]},
                "lattice": {"dims": [3, 3], "periodic": [False, True]},
                "twist": {"endo": "inversion", "wrap_dim": 0}}
    capsys.readouterr()
    assert main(["count", "--config", write_config(tmp_path, open_dim, "open.json")]) == 2
    assert capsys.readouterr().err == (
        "error: BadParams: dimension 0 is open: it has no wraparound links to twist\n")

    inner = {
        "group": {"family": "dihedral", "params": [4]},
        "lattice": {"dims": [2], "periodic": True},
        "twist": {"endo": {"inner": 1}, "wrap_dim": 0},
    }
    cfg = write_config(tmp_path, inner, "inner.json")
    assert main(["count", "--config", cfg]) == 0
    # an inner automorphism preserves every class, so the count is untwisted
    assert "total: 5" in capsys.readouterr().out


def test_lattice_file_with_twist_marks(tmp_path, capsys):
    lat = tmp_path / "ring.lat"
    lat.write_text("lattice 2\n0 1\n1 0 twisted\n")
    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [4]},
        "lattice": {"file": str(lat)},
        "twist": {"endo": "inversion"},
    })
    assert main(["count", "--config", cfg]) == 0
    assert "total: 2" in capsys.readouterr().out

    orphan = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [4]},
        "lattice": {"file": str(lat)},
    }, "orphan.json")
    assert main(["count", "--config", orphan]) == 2
    assert "twist" in capsys.readouterr().err


def test_dangling_attach_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [3]},
        "lattice": {"dims": [2], "periodic": False},
        "dangling_attach": [1],
    })
    assert main(["count", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "total: 1" in out and "twist: sink" in out


def test_twist_combines_with_dangling_attach(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [4]},
        "lattice": {"dims": [3], "periodic": True},
        "matter": {"kind": "fermion", "flavours": [{"builtin": "zn_charge", "charge": 1}]},
        "twist": {"endo": "inversion", "wrap_dim": 0},
        "dangling_attach": [0, 2],
    })
    assert main(["count", "--config", cfg, "--format", "json", "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["twist_kind"] == "proper"
    assert payload["result"]["free_sites"] == [3]
    total = payload["result"]["total"]
    assert main(["verify", "--config", cfg]) == 0
    assert f"OK: formula={total} oracle={total}" in capsys.readouterr().out


@pytest.mark.parametrize("matter", ["none", "fermion"])
@pytest.mark.parametrize("group, endo, flavour", [
    ({"family": "cyclic", "params": [4]}, "inversion", {"builtin": "zn_charge", "charge": 1}),
    ({"family": "symmetric", "params": [3]}, {"inner": 1}, "left_mult"),
    ({"family": "binary_tetrahedral"}, {"inner": 1}, {"builtin": "su2_fundamental"}),
], ids=["Z4", "S3", "2T"])
def test_repeated_indices_are_taken_as_documented(tmp_path, capsysbinary, matter, group,
                                                  endo, flavour):
    """A twist link listed twice is twisted once; a site attached twice gets
    two sink links, and the second multiplies the total by |G|."""
    if flavour == "left_mult":
        rep = tmp_path / "perm.rep"
        rep.write_text(rep_to_text(permutation_rep(action_left_mult(symmetric_group(3)))))
        flavour = {"file": str(rep)}
    base = {"group": group, "lattice": {"dims": [3]}}
    if matter == "fermion":
        base["matter"] = {"kind": "fermion", "flavours": [flavour]}

    def report(**job):
        cfg = write_config(tmp_path, dict(base, **job))
        assert main(["count", "--config", cfg, "--format", "json", "--no-timestamp"]) == 0
        return capsysbinary.readouterr().out

    assert report(twist={"endo": endo, "edges": [0, 0]}) == \
        report(twist={"endo": endo, "edges": [0]})
    once = json.loads(report(dangling_attach=[0]))["result"]["total"]
    twice = json.loads(report(dangling_attach=[0, 0]))["result"]["total"]
    assert int(twice) == builtin_group(group["family"], group.get("params", ())).order * int(once)


def _hyper(dims, periodic=True):
    return {"dims": list(dims), "periodic": periodic}


# the jobs of the benchmark's cli_cold workload that have recorded outputs:
# (name, argv without the config path, config or None)
GOLDEN_JOBS = (
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
    ("verify_2T_fermion_2x2", ["verify"], {
        "group": {"family": "binary_tetrahedral"}, "lattice": _hyper((2, 2)),
        "matter": {"kind": "fermion", "flavours": [{"builtin": "su2_fundamental"}]}}),
    ("group_info_2I", ["group-info", "--family", "binary_icosahedral"], None),
    ("group_info_S6", ["group-info", "--family", "symmetric", "--params", "6"], None),
)
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected", "cli")


@pytest.mark.parametrize("name,args,job", GOLDEN_JOBS, ids=[j[0] for j in GOLDEN_JOBS])
def test_count_reports_match_recorded_bytes(tmp_path, capsysbinary, name, args, job):
    argv = list(args)
    if job is not None:
        argv[1:1] = ["--config", write_config(tmp_path, job)]
    assert main(argv) == 0
    with open(os.path.join(GOLDEN_DIR, f"{name}.out"), "rb") as f:
        assert capsysbinary.readouterr().out == f.read()


def test_per_site_actions_are_built_once_per_spec(tmp_path):
    S3 = symmetric_group(3)
    act = tmp_path / "act.txt"
    act.write_text(action_to_text(action_trivial(S3, 2)))
    file_spec = {"file": str(act)}
    matter = cli.build_matter(
        {"kind": "scalar_per_site",
         "actions": ["left_mult", file_spec, "left_mult", dict(file_spec)]},
        S3, cli.build_lattice({"dims": [4]})[0])
    a = matter.actions
    assert a[0] is a[2] and a[1] is a[3] and a[0] is not a[1]
    assert a[1].table == action_trivial(S3, 2).table


def test_matter_config_variants(tmp_path, capsys):
    scalar = write_config(tmp_path, {
        "group": {"family": "dihedral", "params": [4]},
        "lattice": {"dims": [2], "periodic": False},
        "matter": {"kind": "scalar", "action": "coset_first_subgroup"},
    }, "scalar.json")
    assert main(["count", "--config", scalar]) == 0
    assert "total: 2" in capsys.readouterr().out

    per_site = write_config(tmp_path, {
        "group": {"family": "symmetric", "params": [3]},
        "lattice": {"dims": [2], "periodic": False},
        "matter": {"kind": "scalar_per_site",
                   "actions": ["left_mult", "left_mult"]},
    }, "persite.json")
    assert main(["count", "--config", per_site]) == 0

    short = write_config(tmp_path, {
        "group": {"family": "symmetric", "params": [3]},
        "lattice": {"dims": [2], "periodic": False},
        "matter": {"kind": "scalar_per_site", "actions": ["left_mult"]},
    }, "short.json")
    assert main(["count", "--config", short]) == 2

    fermion = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [2]},
        "lattice": {"dims": [2], "periodic": True},
        "matter": {"kind": "fermion",
                   "flavours": [{"builtin": "zn_charge", "charge": 1},
                                {"builtin": "trivial", "dim": 2}],
                   "spinor_count": 1},
    }, "fermion.json")
    assert main(["count", "--config", fermion]) == 0

    su2 = write_config(tmp_path, {
        "group": {"family": "quaternion"},
        "lattice": {"dims": [2], "periodic": True},
        "matter": {"kind": "fermion",
                   "flavours": [{"builtin": "su2_fundamental"}]},
    }, "su2.json")
    assert main(["count", "--config", su2]) == 0
    assert "total: 28" in capsys.readouterr().out

    bad_flavour = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [2]},
        "lattice": {"dims": [2], "periodic": True},
        "matter": {"kind": "fermion", "flavours": [{"builtin": "spin7"}]},
    }, "badflavour.json")
    assert main(["count", "--config", bad_flavour]) == 2

    unknown_kind = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [2]},
        "lattice": {"dims": [2]},
        "matter": {"kind": "plasma"},
    }, "unknownkind.json")
    assert main(["count", "--config", unknown_kind]) == 2


def test_file_based_specs(tmp_path, capsys):
    S3 = symmetric_group(3)
    group_file = tmp_path / "s3.group"
    group_file.write_text(group_to_text(S3))
    action_file = tmp_path / "triv2.action"
    action_file.write_text(action_to_text(action_trivial(S3, 2)))
    endo_file = tmp_path / "ident.endo"
    endo_file.write_text(endo_to_text(inversion_endo(cyclic_group(4))))
    D4 = dihedral_group(4)
    rep_file = tmp_path / "rot.rep"
    rep_file.write_text(rep_to_text(dihedral_rotation_rep(D4, 4)))

    cfg = write_config(tmp_path, {
        "group": {"file": str(group_file)},
        "lattice": {"dims": [2], "periodic": True},
        "matter": {"kind": "scalar", "action": {"file": str(action_file)}},
    }, "filegroup.json")
    assert main(["count", "--config", cfg]) == 0
    # a trivial 2-point scalar doubles each site: 3 classes x 2 x 2
    assert "total: 12" in capsys.readouterr().out

    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [4]},
        "lattice": {"dims": [2], "periodic": True},
        "twist": {"endo": {"file": str(endo_file)}, "wrap_dim": 0},
    }, "fileendo.json")
    assert main(["count", "--config", cfg]) == 0
    assert "total: 2" in capsys.readouterr().out

    cfg = write_config(tmp_path, {
        "group": {"family": "dihedral", "params": [4]},
        "lattice": {"dims": [2], "periodic": True},
        "matter": {"kind": "fermion", "flavours": [{"file": str(rep_file)}]},
    }, "filerep.json")
    assert main(["count", "--config", cfg]) == 0
    assert "total: 20" in capsys.readouterr().out


def _count_calls(monkeypatch, name, modules):
    """Wrap `name` in every module that binds it; returns the call counter."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("family, params", [("cyclic", [4]), ("dihedral", [4]),
                                            ("symmetric", [3]), ("binary_tetrahedral", [])])
def test_group_info_center_order_is_the_count_of_one_element_classes(capsys, family, params):
    assert main(["group-info", "--family", family, "--params", *map(str, params)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["center_order"] == center(builtin_group(family, tuple(params))).order


def test_count_builds_site_characters_once(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "site_characters", (matter, counting, cli))
    cfg = write_config(tmp_path, dict(STAGGERED_JOB, dangling_attach=[0]))
    assert main(["count", "--config", cfg]) == 0
    assert "total hilbert dim: 1024" in capsys.readouterr().out
    assert len(calls) == 1


def test_file_action_is_validated_once(tmp_path, capsys, monkeypatch):
    S3 = symmetric_group(3)
    action_file = tmp_path / "s3.action"
    action_file.write_text(action_to_text(action_left_mult(S3)))
    job = {"group": {"family": "symmetric", "params": [3]},
           "lattice": {"dims": [2], "periodic": True},
           "matter": {"kind": "scalar", "action": {"file": str(action_file)}}}
    calls = _count_calls(monkeypatch, "validate_action", (matter,))
    assert main(["count", "--config", write_config(tmp_path, job)]) == 0
    assert len(calls) == 1
    # a table that is no action still fails in the reader, with its file's line
    action_file.write_text(action_to_text(action_left_mult(S3)).replace("0 1 2", "1 0 2", 1))
    assert main(["count", "--config", write_config(tmp_path, job)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_group_info_payload(capsys):
    assert main(["group-info", "--family", "binary_tetrahedral"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 24
    assert payload["ambivalent"] is False
    assert payload["quasi_ambivalent"] == "yes"
    assert payload["aut_order"] == 24
    assert payload["inner_order"] == 12
    assert payload["outer_order"] == 2
    assert payload["enumeration_complete"] is True
    assert payload["charge_conjugation_count"] == 6
    assert isinstance(payload["charge_conjugation_witness"], list)
    assert sum(payload["class_sizes"]) == 24


def test_group_info_budget_truncation(capsys):
    assert main(["group-info", "--family", "binary_tetrahedral",
                 "--budget", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["enumeration_complete"] is False
    assert payload["aut_order"] is None
    assert payload["outer_order"] is None
    assert payload["quasi_ambivalent"] == "unknown"


def test_group_info_text_and_errors(capsys):
    assert main(["group-info", "--family", "cyclic", "--params", "6",
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "order: 6" in out and "abelian: True" in out
    assert main(["group-info"]) == 2
    assert main(["group-info", "--family", "cyclic"]) == 2  # missing param


# group-info on 2T as CSV and as text, byte for byte: no benchmark job reads
# these two formats
GROUP_INFO_2T = {
    "csv": (
        "command,name,order,abelian,exponent,center_order,class_count,class_sizes,"
        "class_representatives,centralizer_sizes,ambivalent,quasi_ambivalent,"
        "charge_conjugation_witness,charge_conjugation_count,aut_order,inner_order,"
        "outer_order,enumeration_complete\n"
        'group-info,2T,24,False,12,2,7,"[1, 4, 6, 4, 4, 1, 4]","[0, 1, 2, 3, 4, 6, 14]",'
        '"[24, 6, 4, 6, 6, 24, 6]",False,yes,"[0, 14, 12, 9, 7, 10, 6, 4, 11, 3, 5, 8, '
        '2, 22, 1, 21, 20, 19, 23, 17, 16, 15, 13, 18]",6,24,12,2,True\n'),
    "text": (
        "command: group-info\nname: 2T\norder: 24\nabelian: False\nexponent: 12\n"
        "center_order: 2\nclass_count: 7\nclass_sizes: [1, 4, 6, 4, 4, 1, 4]\n"
        "class_representatives: [0, 1, 2, 3, 4, 6, 14]\n"
        "centralizer_sizes: [24, 6, 4, 6, 6, 24, 6]\nambivalent: False\n"
        "quasi_ambivalent: yes\ncharge_conjugation_witness: [0, 14, 12, 9, 7, 10, 6, 4, "
        "11, 3, 5, 8, 2, 22, 1, 21, 20, 19, 23, 17, 16, 15, 13, 18]\n"
        "charge_conjugation_count: 6\naut_order: 24\ninner_order: 12\nouter_order: 2\n"
        "enumeration_complete: True\n"),
}


@pytest.mark.parametrize("fmt", sorted(GROUP_INFO_2T))
def test_group_info_csv_and_text_bytes(capsysbinary, fmt):
    assert main(["group-info", "--family", "binary_tetrahedral", "--format", fmt]) == 0
    assert capsysbinary.readouterr().out == GROUP_INFO_2T[fmt].encode()


def test_count_views_agree_with_the_json_payload(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"family": "symmetric", "params": [3]},
        "lattice": {"dims": [3], "periodic": True},
        "matter": {"kind": "scalar_per_site",
                   "actions": ["left_mult", "coset_first_subgroup", "left_mult"]},
        "twist": {"endo": "identity", "wrap_dim": 0},
        "dangling_attach": [0, 2]})
    out = {}
    for fmt in ("json", "csv", "text"):
        assert main(["count", "--config", cfg, "--format", fmt, "--no-timestamp"]) == 0
        out[fmt] = capsys.readouterr().out
    payload = json.loads(out["json"])
    (row,) = csv.DictReader(io.StringIO(out["csv"]))
    text = dict(line.split(": ", 1) for line in out["text"].splitlines()
                if not line.startswith("bulk sites"))
    lat = payload["lattice"]
    assert row == {"command": "count", "group": "S3", "order": "6",
                   "lattice": lat["name"], "sites": str(lat["sites"]),
                   "links": str(lat["links"]), "matter": payload["matter"],
                   "twist_kind": payload["twist_kind"],
                   "total": payload["result"]["total"]}
    assert text["group"] == "S3 (order 6)"
    assert text["lattice"] == f"{lat['name']} sites={lat['sites']} links={lat['links']}"
    assert text["matter"] == payload["matter"] == "scalar_per_site[6,3,6]"
    assert text["twist"] == payload["twist_kind"]
    assert text["total"] == payload["result"]["total"]
    assert text["total hilbert dim"] == payload["result"]["total_hilbert_dim"]
    assert text["warning"] == payload["result"]["warnings"][0]


@pytest.mark.xfail(strict=True,
                   reason="the dihedral fermion job reports the computed "
                          "total 20; a three-term closed form suggesting 24 "
                          "counts a class whose Fock weight vanishes")
def test_dihedral_fermion_job_displayed_total(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"family": "dihedral", "params": [4]},
        "lattice": {"dims": [2], "periodic": True},
        "matter": {"kind": "fermion",
                   "flavours": [{"builtin": "dihedral_rotation"}],
                   "spinor_count": 1},
    })
    assert main(["count", "--config", cfg, "--format", "json",
                 "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["total"] == "24"


def test_malformed_lattice_file_reports_line(tmp_path, capsys):
    lat = tmp_path / "bad.lat"
    lat.write_text("lattice 2\n0 1\n0 zap\n")
    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [2]},
        "lattice": {"file": str(lat)},
    })
    assert main(["count", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "line 3" in err


@pytest.mark.parametrize("rows", ["nan 0\n1 0\n", "1 0\nnan 0\n", "1 0\ninf 0\n"],
                         ids=["nan_identity", "nan_generator", "inf_generator"])
def test_rep_file_with_non_finite_entries_exits_2(tmp_path, capsys, rows):
    rep_file = tmp_path / "bad.rep"
    rep_file.write_text("rep 2 1\n" + rows)
    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [2]},
        "lattice": {"dims": [2]},
        "matter": {"kind": "fermion", "flavours": [{"file": str(rep_file)}]},
    })
    assert main(["count", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NotAHomomorphism")


def test_disconnected_bulk_formula_matches_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [4]},
        "lattice": {"dims": [2], "periodic": False},
        "twist": {"endo": "inversion", "edges": [0]},
    })
    assert main(["count", "--config", cfg]) == 0
    assert "total: 1" in capsys.readouterr().out
    assert main(["verify", "--config", cfg]) == 0
    assert "OK: formula=1 oracle=1" in capsys.readouterr().out


@pytest.fixture
def restore_int_str_limit():
    if not hasattr(sys, "get_int_max_str_digits"):  # Python < 3.10.7: no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def test_totals_past_the_int_str_limit(tmp_path, capsys, restore_int_str_limit):
    # 15000 parallel Z2 links between two sites: 2^14999, 4516 digits
    lat = tmp_path / "bundle.lat"
    lat.write_text("lattice 2\n" + "0 1\n" * 15000)
    cfg = write_config(tmp_path, {
        "group": {"family": "cyclic", "params": [2]},
        "lattice": {"file": str(lat)},
    })
    assert main(["count", "--config", cfg, "--format", "json",
                 "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = str(2 ** 14999)
    assert len(expected) > 4300
    assert payload["result"]["total"] == expected
    assert main(["count", "--config", cfg, "--format", "text"]) == 0
    assert f"total: {expected}\n" in capsys.readouterr().out
    assert main(["count", "--config", cfg, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("," + expected)
    assert main(["verify", "--config", cfg]) == 0
    assert capsys.readouterr().out == f"OK: formula={expected} oracle={expected}\n"


@pytest.mark.parametrize("field", [
    {"group": {"family": "cyclic", "params": ["x"]}},
    {"lattice": {"dims": ["a"]}},
    {"matter": {"kind": "fermion",
                "flavours": [{"builtin": "zn_charge", "charge": "q"}]}},
    {"matter": "fermion"},
    {"dangling_attach": ["z"]},
    {"twist": {"endo": "inversion", "wrap_dim": "k"}},
    {"lattice": {"dims": [2, 3], "periodic": [True, 1]}},
])
def test_malformed_config_fields_exit_2(tmp_path, capsys, field):
    cfg = dict({"group": {"family": "cyclic", "params": [4]},
                "lattice": {"dims": [2]}}, **field)
    assert main(["count", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams: config field ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["config", "group", "lattice"])
def test_non_utf8_file_exits_2(tmp_path, capsys, where):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    cfg = {"group": {"family": "cyclic", "params": [2]}, "lattice": {"dims": [2]}}
    if where == "config":
        path = str(bad)
    else:
        cfg[where] = {"file": str(bad)}
        path = write_config(tmp_path, cfg)
    assert main(["count", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: ParseError: {bad} is not valid UTF-8 (byte 0)\n"


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["count", "--config", str(deep)]) == 2
    assert capsys.readouterr().err == "error: ParseError: config nests too deeply to parse\n"


# each size is past CPython's list-size limit, so it is refused before any allocation
@pytest.mark.parametrize("case", ["config_dims", "lattice_file", "lattice_make"])
def test_input_too_large_for_memory_exits_2(tmp_path, capsys, case):
    lattice = {"dims": [1_000_000_000, 1_000_000_000]}
    if case == "lattice_file":
        (tmp_path / "huge.lat").write_text("lattice 2000000000000000000\n")
        lattice = {"file": str(tmp_path / "huge.lat")}
    cfg = write_config(tmp_path, {"group": {"family": "cyclic", "params": [2]},
                                  "lattice": lattice})
    argv = (["lattice-make", "--dims", "1000000000", "1000000000"] if case == "lattice_make"
            else ["count", "--config", cfg])
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: MemoryError: the input is too large to hold in memory\n")


# a volume whose link slots pass sys.maxsize is refused before the list-size check
@pytest.mark.parametrize("case", ["config_dims", "lattice_make"])
def test_dims_too_large_to_index_exit_2(tmp_path, capsys, case):
    huge = 10 ** 30
    cfg = write_config(tmp_path, {"group": {"family": "cyclic", "params": [2]},
                                  "lattice": {"dims": [huge]}})
    argv = (["lattice-make", "--dims", str(huge)] if case == "lattice_make"
            else ["count", "--config", cfg])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadDims: ") and err.count("\n") == 1


def test_trivial_flavour_too_large_to_index_exits_2(tmp_path, capsys):
    flavour = {"builtin": "trivial", "dim": 10 ** 30}
    cfg = write_config(tmp_path, {"group": {"family": "cyclic", "params": [2]},
                                  "lattice": {"dims": [2]},
                                  "matter": {"kind": "fermion", "flavours": [flavour]}})
    assert main(["count", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams: ") and err.count("\n") == 1


@pytest.mark.parametrize("flavour, spinors", [({"builtin": "trivial", "dim": 99999}, 1),
                                             ({"builtin": "su2_fundamental"}, 10 ** 6)],
                         ids=["trivial_dim", "spinor_count"])
def test_mid_range_matter_sizes_exit_2_at_once(tmp_path, capsys, flavour, spinors):
    cfg = write_config(tmp_path, {"group": {"family": "binary_tetrahedral"},
                                  "lattice": {"dims": [2]},
                                  "matter": {"kind": "fermion", "flavours": [flavour],
                                             "spinor_count": spinors}})
    start = time.perf_counter()
    assert main(["count", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams: ") and err.count("\n") == 1


BASE_JOB = {"group": {"family": "cyclic", "params": [4]}, "lattice": {"dims": [2]}}


@pytest.mark.parametrize("field, message", [
    ({"lattice": {"periodic": True}}, "lattice spec needs 'dims' or 'file'"),
    ({"group": {"family": "cyclic", "params": [3]},
      "matter": {"kind": "fermion", "flavours": [{"builtin": "dihedral_rotation"}]}},
     "dihedral rotation rep needs an even-order group"),
    ({"matter": {"kind": "scalar", "action": "right_mult"}},
     "unknown action spec 'right_mult'"),
    ({"matter": {"kind": "scalar", "action": {"path": "a.txt"}}},
     "unknown action spec {'path': 'a.txt'}"),
    ({"matter": {"kind": "fermion", "flavours": []}},
     "fermion matter needs a nonempty 'flavours' list"),
    ({"twist": {"endo": "conjugation", "wrap_dim": 0}},
     "unknown endomorphism spec 'conjugation'"),
    ({"matter": {"kind": "fermion", "flavours": [{"builtin": "su2_fundamental"}]}},
     "group Z4 carries no SU(2) matrices"),
])
def test_unbuildable_config_specs_exit_2(tmp_path, capsys, field, message):
    cfg = dict(BASE_JOB, **field)
    assert main(["count", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: BadParams: {message}\n"


def test_group_info_reports_absent_charge_conjugation(tmp_path, capsys):
    # the Frobenius group Z7 x| Z3 with b a b^-1 = a^2: a^i b^j is element
    # 7j + i, and (a^i b^j)(a^k b^l) = a^(i + 2^j k) b^(j + l)
    table = [[(i + 2 ** j * k) % 7 + 7 * ((j + l) % 3) for l in range(3) for k in range(7)]
             for j in range(3) for i in range(7)]
    path = tmp_path / "f21.txt"
    path.write_text(group_to_text(group_from_table(table)))
    cfg = write_config(tmp_path, {"group": {"file": str(path)}})
    assert main(["group-info", "--config", cfg]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["enumeration_complete"] is True
    assert (info["aut_order"], info["inner_order"], info["outer_order"]) == (42, 21, 2)
    assert info["ambivalent"] is False and info["quasi_ambivalent"] == "no"
    assert info["charge_conjugation_count"] == 0
    assert info["charge_conjugation_witness"] is None


def test_periodic_flags_per_dimension_config(tmp_path, capsys):
    job = {"group": {"family": "cyclic", "params": [3]},
           "lattice": {"dims": [2, 3], "periodic": [True, False]}}
    assert main(["count", "--config", write_config(tmp_path, job), "--format", "json"]) == 0
    # 6 sites and 10 links (only the first dimension wraps): 3^(10 - 6 + 1)
    assert json.loads(capsys.readouterr().out)["result"]["total"] == "243"


def test_group_info_config_matches_family(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": {"family": "dihedral", "params": [4]}})
    assert main(["group-info", "--config", cfg]) == 0
    from_config = capsys.readouterr().out
    assert main(["group-info", "--family", "dihedral", "--params", "4"]) == 0
    assert from_config == capsys.readouterr().out


def test_lattice_make_one_periodic_flag_covers_every_dimension(capsys):
    assert main(["lattice-make", "--dims", "2", "3", "--periodic", "p"]) == 0
    one_flag = capsys.readouterr().out
    assert main(["lattice-make", "--dims", "2", "3"]) == 0
    assert one_flag == capsys.readouterr().out


def test_matter_kind_none_counts_as_no_matter(tmp_path, capsys):
    outs = []
    for extra in ({}, {"matter": {"kind": "none"}}):
        cfg = write_config(tmp_path, dict(BASE_JOB, **extra))
        assert main(["count", "--config", cfg, "--format", "json", "--no-timestamp"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["matter"] == "none"


def test_constant_identity_twist_counts(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(
        BASE_JOB, lattice={"dims": [3], "periodic": True},
        twist={"endo": "constant_identity", "wrap_dim": 0}))
    assert main(["count", "--config", cfg, "--format", "json", "--no-timestamp"]) == 0
    total = json.loads(capsys.readouterr().out)["result"]["total"]
    # the wraparound link becomes a sink, so Z4^3 acts freely on the three links
    assert total == "1"
    assert main(["verify", "--config", cfg]) == 0
    assert capsys.readouterr().out == f"OK: formula={total} oracle={total}\n"


def test_lattice_make_stdout(capsys):
    assert main(["lattice-make", "--dims", "2", "2"]) == 0
    L, marked = parse_edge_list(capsys.readouterr().out)
    assert (L.site_count, len(L.edges)) == (4, 8)
    assert marked == frozenset()

    assert main(["lattice-make", "--dims", "3", "--periodic", "o"]) == 0
    L, _ = parse_edge_list(capsys.readouterr().out)
    assert (L.site_count, len(L.edges)) == (3, 2)

    assert main(["lattice-make", "--dims", "2", "2", "--periodic", "px"]) == 2


def test_lattice_make_file_output(tmp_path, capsys):
    out = tmp_path / "l.lat"
    assert main(["lattice-make", "--dims", "2", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    L, _ = parse_edge_list(out.read_text())
    assert L.site_count == 4

    assert main(["lattice-make", "--dims", "2", "--out", str(out)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["lattice-make", "--dims", "2", "--out", str(out),
                 "--force"]) == 0
    L2, _ = parse_edge_list(out.read_text())
    assert L2.site_count == 2
