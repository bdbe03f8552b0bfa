"""The CLI contract under mutated lattice inputs: no input prints a traceback.

A seeded mutation fuzz of the lattice text file and of the config leaves
that name lattice sizes and links (`lattice.dims`, `dangling_attach`,
`twist.edges`).  Every case must exit 0 or 2, and a refusal prints exactly
one `error:` line.  Every size drawn is below 10^5 or above sys.maxsize:
sizes in between are not run, since one could commit a great deal of
memory before Python raises MemoryError.
"""

import contextlib
import copy
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
def lattice_texts(draw):
    lines = LATTICE_TEXT.splitlines()
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
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return "".join(f"{ln}\n" for ln in lines)


@st.composite
def configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from((FILE_JOB, DIMS_JOB))))
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(LEAF_PATHS))
        node = cfg
        for p in parents:
            node = node.setdefault(p, {})
        leaf = node.get(key)
        if isinstance(leaf, list) and leaf and draw(st.booleans()):
            leaf[draw(st.integers(0, len(leaf) - 1))] = draw(st.sampled_from(ITEMS))
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(LEAVES)))
    return cfg


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(text=lattice_texts(), cfg=configs(), argv=st.sampled_from(ARGVS))
def test_mutated_lattice_inputs_exit_0_or_2_with_one_error_line(tmp_path_factory, text, cfg,
                                                                argv):
    where = tmp_path_factory.getbasetemp()
    (where / "fuzz.lat").write_text(text)
    if "file" in cfg["lattice"]:
        cfg["lattice"]["file"] = str(where / "fuzz.lat")
    (where / "fuzz.json").write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([*argv, "--config", str(where / "fuzz.json")])
    if status == 0:
        assert err.getvalue() == ""
    else:
        assert status == 2, (status, err.getvalue())
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
