"""The shared line grammar of the five text formats: the one writer, blank
lines and line numbers."""

import pytest

from gaugecount import (
    ParseError,
    action_coset,
    action_from_text,
    action_to_text,
    binary_tetrahedral_group,
    cyclic_group,
    dihedral_group,
    emit_edge_list,
    endo_from_text,
    endo_to_text,
    first_proper_subgroup,
    group_from_text,
    group_to_text,
    inner_automorphism,
    lattice_hypercubic,
    parse_edge_list,
    rep_from_text,
    rep_to_text,
    su2_fundamental_rep,
    symmetric_group,
)
from gaugecount.textio import read_records, write_records

Z3 = cyclic_group(3)

# (reader, text, 1-based file line of the malformed record)
MALFORMED = {
    "group": (group_from_text, "order 2\n\n0 1\n1 9\n", 4),
    "group_header": (group_from_text, "\n\norder x\n", 3),
    "action": (lambda t: action_from_text(t, Z3), "action 3 3\n\n0 1 2\n1 2 0\n2 0 x\n", 5),
    "rep": (lambda t: rep_from_text(t, Z3), "rep 3 1\n\n1 0\n\n1 0\nx 0\n", 6),
    "endo": (lambda t: endo_from_text(t, Z3), "endo 3\n0\n\n1 7\n", 4),
    "endo_range": (lambda t: endo_from_text(t, Z3), "endo 3\n0 1\n7\n", 3),
    "lattice": (parse_edge_list, "lattice 2\n\n0 1\n0 x\n", 4),
    "group_order": (group_from_text, "\norder 0\n", 2),
    "group_row_length": (group_from_text, "order 2\n0 1\n\n1 0 1\n", 4),
    "group_labels_keyword": (group_from_text, "order 2\n0 1\n1 0\n\nnames\ne\na\n", 5),
    "group_label_count": (group_from_text, "order 2\n0 1\n1 0\nlabels\n\ne\n", 4),
    "lattice_sites": (parse_edge_list, "\n\nlattice -1\n", 3),
    "action_size": (lambda t: action_from_text(t, Z3), "\naction 3 0\n", 2),
    "action_rows": (lambda t: action_from_text(t, Z3), "action 3 2\n0 1\n\n0 1\n", 4),
    "action_row_length": (lambda t: action_from_text(t, Z3), "action 3 2\n0 1\n0 1 0\n0 1\n", 3),
    "rep_dim": (lambda t: rep_from_text(t, Z3), "\n\nrep 3 0\n", 3),
    "rep_rows": (lambda t: rep_from_text(t, Z3), "rep 3 1\n1 0\n\n1 0\n", 4),
    "rep_numbers": (lambda t: rep_from_text(t, Z3), "rep 3 1\n1 0\n1 0 0\n1 0\n", 3),
    "endo_too_many": (lambda t: endo_from_text(t, Z3), "endo 3\n0 1\n\n2 0\n", 4),
    "endo_too_few": (lambda t: endo_from_text(t, Z3), "endo 3\n0\n1\n\n", 3),
}


@pytest.mark.parametrize("fmt", MALFORMED)
def test_parse_error_names_the_file_line(fmt):
    reader, text, line = MALFORMED[fmt]
    with pytest.raises(ParseError) as e:
        reader(text)
    assert e.value.line == line


def _spread(text):
    """The same file with a blank line between every pair of lines."""
    return "\n\n".join(text.splitlines()) + "\n"


def test_writers_read_back_through_blank_lines():
    S6 = symmetric_group(6)
    G = group_from_text(_spread(group_to_text(S6)))
    assert G.mul_table == S6.mul_table and G.labels == S6.labels

    D4 = dihedral_group(4)
    A = action_coset(D4, first_proper_subgroup(D4))
    assert action_from_text(_spread(action_to_text(A)), D4).table == A.table

    T = binary_tetrahedral_group()
    rep = su2_fundamental_rep(T)
    back = rep_from_text(_spread(rep_to_text(rep)), T)
    assert back.numeric == rep.numeric

    phi = inner_automorphism(S6, 1)
    assert endo_from_text(_spread(endo_to_text(phi)), S6).image == phi.image

    L = lattice_hypercubic((2, 3), periodic=True)
    back_L, marked = parse_edge_list(_spread(emit_edge_list(L, frozenset({1, 4}))))
    assert back_L.edges == L.edges and marked == frozenset({1, 4})


def test_write_records_is_header_records_and_one_final_newline():
    assert write_records("action", (3, 2), [(0, 1), (1, 0), ["x", 2.5]]) == \
        "action 3 2\n0 1\n1 0\nx 2.5\n"
    assert write_records("lattice", (0,), []) == "lattice 0\n"
    assert write_records("endo", (2,), iter([(0, 1)])) == "endo 2\n0 1\n"
    text = write_records("order", (1,), [(0,), ("labels",), ("e",)])
    head, fields, records = read_records(text, "order", 1)
    assert (head, fields, records) == (1, [1], [(2, "0"), (3, "labels"), (4, "e")])
