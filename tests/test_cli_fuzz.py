"""The CLI contract under mutated inputs: no input prints a traceback.

Seeded mutation fuzzes of the text files (lattice, group table, rep, action,
endomorphism) and of the config leaves that name lattice sizes and links
(`lattice.dims`, `dangling_attach`, `twist.edges`), the group, the matter
and the twist map (`group`, `matter`, `twist.endo`).  Every case must exit
0 or 2, and a refusal prints exactly one `error:` line.  Every size drawn is
below 10^5 or above sys.maxsize: sizes in between are not run, since one
could commit a great deal of memory before Python raises MemoryError.
"""

import contextlib
import copy
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaugecount import (  # noqa: E402
    action_coset,
    action_to_text,
    dihedral_group,
    dihedral_rotation_rep,
    endo_to_text,
    first_proper_subgroup,
    group_to_text,
    inner_automorphism,
    rep_to_text,
)
from gaugecount.cli import main  # noqa: E402

LATTICE_TEXT = "lattice 5\n0 1\n1 2 twisted\n2 3\n\n3 4\n4 0 twisted\n1 3\n"
TOKENS = ("-1", "1e999", "nan", "2/3", "")
HUGE = 10 ** 30
assert HUGE > sys.maxsize
LEAVES = (-1, 0, 1, 2, 4, 7, HUGE, "", 1.5, float("inf"), float("nan"), None, True,
          [], {}, [HUGE], [-1], ["2"], [2.0], [3, 2])
ITEMS = (-1, 0, 1, 2, 4, 7, HUGE, "", 1.5, None, True)
FILE_JOB = {"group": {"family": "cyclic", "params": [4]}, "lattice": {"file": None},
            "twist": {"endo": "inversion"}, "dangling_attach": [0, 4]}
DIMS_JOB = {"group": {"family": "cyclic", "params": [3]},
            "lattice": {"dims": [3, 2], "periodic": [True, False]},
            "twist": {"endo": "inversion", "edges": [0, 4]}, "dangling_attach": [0, 5]}
LEAF_PATHS = (("lattice", "dims"), ("dangling_attach",), ("twist", "edges"))
ARGVS = (["count"], ["count", "--format", "json"], ["verify", "--budget", "100000"])


@st.composite
def mutated_texts(draw, text, tokens=TOKENS):
    """text with up to three of its lines dropped, duplicated, truncated or
    given a bad token"""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("drop", "duplicate", "truncate", "token")))
        if how == "drop":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(tokens))
            lines[i] = " ".join(words)
        if not lines:
            break
    return "".join(f"{ln}\n" for ln in lines)


@st.composite
def configs(draw, jobs=(FILE_JOB, DIMS_JOB), paths=LEAF_PATHS, special=None):
    """a job with up to two leaves replaced, each by a value of any type or,
    half the time, by one of the `special` values for its path"""
    cfg = copy.deepcopy(draw(st.sampled_from(jobs)))
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(paths))
        node = cfg
        for p in parents:
            node = node.setdefault(p, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):  # a parent already mutated into a non-object
            continue
        leaf = node.get(key)
        if isinstance(leaf, list) and leaf and draw(st.booleans()):
            leaf[draw(st.integers(0, len(leaf) - 1))] = draw(st.sampled_from(ITEMS))
        else:
            pool = (special or {}).get((*parents, key))
            node[key] = copy.deepcopy(draw(st.sampled_from(
                pool if pool and draw(st.booleans()) else LEAVES)))
    return cfg


def _run(argv, cfg_path):
    """main's exit status, checked against the contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([*argv, "--config", str(cfg_path)])
    if status == 0:
        assert err.getvalue() == ""
    else:
        assert status == 2, (status, err.getvalue())
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(text=mutated_texts(LATTICE_TEXT), cfg=configs(), argv=st.sampled_from(ARGVS))
def test_mutated_lattice_inputs_exit_0_or_2_with_one_error_line(tmp_path_factory, text, cfg,
                                                                argv):
    where = tmp_path_factory.getbasetemp()
    (where / "fuzz.lat").write_text(text)
    if "file" in cfg["lattice"]:
        cfg["lattice"]["file"] = str(where / "fuzz.lat")
    (where / "fuzz.json").write_text(json.dumps(cfg))
    _run(argv, where / "fuzz.json")


# the dihedral group of order 6 as a table, a 2-dim rep, a coset action and
# an inner automorphism; the jobs below read them by file name
D3 = dihedral_group(3)
TEXTS = {"group.txt": group_to_text(D3), "rep.txt": rep_to_text(dihedral_rotation_rep(D3, 3)),
         "action.txt": action_to_text(action_coset(D3, first_proper_subgroup(D3))),
         "endo.txt": endo_to_text(inner_automorphism(D3, 1))}
FERMION_JOB = {"group": {"file": "group.txt"}, "lattice": {"dims": [3]},
               "matter": {"kind": "fermion", "spinor_count": 2, "vacuum": "trivial",
                          "flavours": [{"file": "rep.txt"}, {"builtin": "trivial", "dim": 2}]},
               "twist": {"endo": {"file": "endo.txt"}, "edges": [0]}}
SCALAR_JOB = {"group": {"family": "dihedral", "params": [3]},
              "lattice": {"dims": [2, 2], "periodic": [True, False]},
              "matter": {"kind": "scalar", "action": {"file": "action.txt"}},
              "twist": {"endo": {"inner": 1}, "wrap_dim": 0}}
SPEC_LEAVES = {  # path -> values of the right type, of which some are refused
    ("group",): ({"family": "symmetric", "params": [4]}, {"file": "group.txt"},
                 {"family": "cyclic"}),
    ("group", "family"): ("cyclic", "symmetric", "binary_tetrahedral", "direct_product"),
    ("group", "params"): ([4], [HUGE]),
    ("matter",): ({"kind": "scalar"}, {"kind": "scalar_per_site", "actions": ["left_mult"] * 3}),
    ("matter", "kind"): ("none", "fermion", "scalar", "scalar_per_site"),
    ("matter", "action"): ("left_mult", "coset_first_subgroup", {"file": "action.txt"},
                           {"file": "missing.txt"}),
    ("matter", "flavours"): ([{"builtin": "su2_fundamental"}], [{"builtin": "dihedral_rotation"}],
                             [{"builtin": "zn_charge", "charge": HUGE}],
                             [{"builtin": "trivial", "dim": HUGE}], [{"file": "rep.txt"}]),
    ("matter", "spinor_count"): (3, HUGE),
    ("matter", "vacuum"): ("trivial", "staggered"),
    ("twist", "endo"): ("identity", "inversion", "constant_identity", {"inner": 1},
                        {"inner": HUGE}, {"file": "endo.txt"}),
}


def _placed(node, where):
    """A copy of node with every file name in it pointed into the directory `where`."""
    if isinstance(node, dict):
        return {k: str(where / v) if k == "file" and isinstance(v, str) and v
                else _placed(v, where) for k, v in node.items()}
    return [_placed(v, where) for v in node] if isinstance(node, list) else node


@st.composite
def text_files(draw):
    """TEXTS with at most one of them mutated."""
    texts = dict(TEXTS)
    name = draw(st.sampled_from((None, *TEXTS)))
    if name is not None:
        texts[name] = draw(mutated_texts(texts[name], TOKENS + (str(HUGE),)))
    return texts


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@example(texts=TEXTS, argv=["count"], cfg=dict(FERMION_JOB, matter={  # hung unrefused
    "kind": "fermion", "flavours": [{"builtin": "trivial", "dim": HUGE}]}))
@given(texts=text_files(), argv=st.sampled_from(ARGVS),
       cfg=configs((FERMION_JOB, SCALAR_JOB), tuple(SPEC_LEAVES), SPEC_LEAVES))
def test_mutated_spec_inputs_exit_0_or_2_with_one_error_line(tmp_path_factory, texts, cfg,
                                                             argv):
    where = tmp_path_factory.getbasetemp()
    for name, text in texts.items():
        (where / name).write_text(text)
    (where / "fuzz.json").write_text(json.dumps(_placed(cfg, where)))
    _run(argv, where / "fuzz.json")
