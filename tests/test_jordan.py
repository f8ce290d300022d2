import json

import pytest

from orbitq.cli import run
from orbitq.jordan import (JordanBlock, JordanCase, UnknownCaseError,
                           derived_vectors, lookup_case, sweep_case_ids)

# dim Y per complex algebra family (for the m+1 cross-check)
_DIM_Y = {"E6": 11, "E7": 17, "E8": 29, "F4": 8, "G2": 3}


def expected_dim_y(case: JordanCase) -> int:
    fam = case.labels["g"]
    if fam in _DIM_Y:
        return _DIM_Y[fam]
    if fam.startswith("so"):
        return int(fam[2:]) - 3
    if fam.startswith("sl"):
        return int(fam[2:]) - 1
    raise UnknownCaseError(f"no dimension rule for {fam!r}")


def validate_case(case: JordanCase) -> list:
    """Per-identity verdicts (name, passed, detail), read off the vectors
    that `ladder` reads."""
    v, delta = derived_vectors(case)
    q = case.q_total
    dy = expected_dim_y(case)
    return [
        ("degree-4 monomial", sum(v) == 4, f"sum v = {sum(v)}"),
        ("delta sum", sum(delta) == case.m - q,
         f"sum delta = {sum(delta)}, m-q = {case.m - q}"),
        ("cone dimension", dy == case.m + 1, f"dim Y = {dy}, m+1 = {case.m + 1}"),
    ]


def test_fixed_rows():
    c = lookup_case("E6:6")
    assert [(b.q, b.d, b.w) for b in c.blocks] == [(4, 1, 1)]
    assert c.m == 10
    g = lookup_case("G2:2")
    assert [(b.q, b.d, b.w) for b in g.blocks] == [(1, 0, 3), (1, 0, 1)]
    assert g.m == 2


def test_so_block_rules():
    c = lookup_case("SO:3,4")
    assert [(b.q, b.d, b.w) for b in c.blocks] == [(1, 0, 2), (1, 0, 1), (1, 0, 1)]
    assert c.m == 3
    c = lookup_case("SO:5,7")
    assert [(b.q, b.d, b.w) for b in c.blocks] == [(2, 1, 1), (2, 3, 1)]
    c = lookup_case("SO:4,4")
    assert [(b.q, b.d, b.w) for b in c.blocks] == [(1, 0, 1)] * 4


def test_so_norm_names_each_factor_once():
    # one norm factor per block, factor k with k primes, so a split side
    # (p = 4 or q = 4) names its two factors apart
    ids = [cid for cid in sweep_case_ids(12, 12) if cid.startswith("SO:")]
    assert "SO:12,12" in ids
    for cid in ids:
        case = lookup_case(cid)
        names = [x.split("^")[0] for x in case.labels["norm_monomial"].split()]
        assert len(set(names)) == len(names) == len(case.blocks), cid
        assert [x.count("'") for x in names] == list(range(len(names))), cid
    assert lookup_case("SO:4,4").labels["norm_monomial"] == "P_1 P'_1 P''_1 P'''_1"
    assert lookup_case("SO:4,7").labels["norm_monomial"] == "P_1 P'_1 P''_{2;7}"
    assert lookup_case("SO:3,4").labels["norm_monomial"] == "P_1^2 P'_1 P''_1"


def test_sl_block_rules():
    assert [(b.q, b.d, b.w) for b in lookup_case("SL:3").blocks] == [(1, 0, 4)]
    assert [(b.q, b.d, b.w) for b in lookup_case("SL:4").blocks] == [(1, 0, 2)] * 2
    assert [(b.q, b.d, b.w) for b in lookup_case("SL:8").blocks] == [(2, 4, 2)]


def test_bad_ids():
    for bad in ("SO:2,5", "SL:2", "X:1", "SO:5,4", "SO:a,b", "SL:x"):
        with pytest.raises(UnknownCaseError):
            lookup_case(bad)
    with pytest.raises(ValueError):
        JordanBlock(5, 0, 1)


def test_sweep_ids_resolve_to_themselves():
    for cid in sweep_case_ids(40, 40):
        assert lookup_case(cid).id == cid
    with pytest.raises(UnknownCaseError, match="need n >= 3 in 'SL:-3'"):
        lookup_case("SL:-3")


def test_derived_vectors():
    v, delta = derived_vectors(lookup_case("E6:6"))
    assert v == (1, 1, 1, 1)
    assert delta == (3, 2, 1, 0)
    assert sum(delta) == 10 - 4

    v, delta = derived_vectors(lookup_case("G2:2"))
    assert v == (3, 1) and delta == (0, 0)

    v, delta = derived_vectors(lookup_case("SL:8"))
    assert v == (2, 2) and delta == (4, 0)


def test_validate_sweep():
    for cid in sweep_case_ids(12, 12):
        case = lookup_case(cid)
        failed = [name for name, ok, _ in validate_case(case) if not ok]
        assert not failed, f"{cid}: {failed}"


def test_validate_specific():
    checks = dict((n, ok) for n, ok, _ in validate_case(lookup_case("E8:8")))
    assert all(checks.values())
    checks = dict((n, ok) for n, ok, _ in validate_case(lookup_case("SO:5,7")))
    assert all(checks.values())


def test_validate_negative_control():
    bad = JordanCase("bogus", (JordanBlock(2, 0, 2), JordanBlock(2, 0, 2)),
                     6, {"g": "so9"})
    results = dict((n, ok) for n, ok, _ in validate_case(bad))
    assert not results["degree-4 monomial"]


def test_lookup_pure():
    a, b = lookup_case("SO:6,8"), lookup_case("SO:6,8")
    assert a == b


def test_lookup_hands_out_its_own_labels():
    # an edit to one lookup's labels reaches no later lookup
    for cid in ("E6:6", "SO:3,5", "SL:4"):
        want = lookup_case(cid).labels["G"]
        lookup_case(cid).labels["G"] = "x"
        assert lookup_case(cid).labels["G"] == want


def test_sweep_order_deterministic():
    ids = sweep_case_ids(5, 5)
    assert ids[:8] == ["E6:6", "E7:7", "E8:8", "F4:4", "E6:2", "E7:-5",
                       "E8:-24", "G2:2"]
    assert ids[8:14] == ["SO:3,3", "SO:3,4", "SO:3,5", "SO:4,4", "SO:4,5",
                         "SO:5,5"]
    assert ids[14:] == ["SL:3", "SL:4", "SL:5"]


def test_asdict_roundtrip(capsys):
    d = lookup_case("F4:4")._asdict()
    assert d["blocks"] == ((3, 1, 1), (1, 0, 1))
    assert d["m"] == 7
    assert d["labels"]["G"] == "F4(4)"
    # `orbit cases --format json` writes each block as a [q, d, w] array
    assert run(["cases", "--pmax", "3", "--nmax", "3", "--format", "json"]) == 0
    entries = {e["id"]: e for e in json.loads(capsys.readouterr().out)}
    assert entries["F4:4"] == {"id": "F4:4", "blocks": [[3, 1, 1], [1, 0, 1]], "m": 7,
                               "labels": lookup_case("F4:4").labels}
    assert entries["SL:3"]["blocks"] == [[1, 0, 4]]


def test_records_are_frozen_with_their_reprs():
    case = lookup_case("F4:4")
    assert repr(case) == (
        "JordanCase(id='F4:4', blocks=(JordanBlock(q=3, d=1, w=1),"
        " JordanBlock(q=1, d=0, w=1)), m=7, labels={'k': 'sp6+sl2',"
        " 'p': 'Wedge_o^3 C^6 (x) C^2', 'g': 'F4', 'G': 'F4(4)',"
        " 'norm_monomial': \"P_{3,R} P'_1\"})")
    for record, field in ((case, "m"), (case.blocks[0], "q")):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
