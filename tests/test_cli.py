import csv
import io
import json

import pytest

from conres import cli
from conres.cli import OutputDocument, main
from conres.resolution import spectral_table
from conres.stab import MAX_TABLE_N


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert _run(capsys, "table", "--n", "99")[0] == 1
    assert _run(capsys, "table", "--n", "1")[0] == 1
    assert _run(capsys, "link", "--n", "2")[0] == 1
    assert _run(capsys, "gamma", "--parts", "2,3", "--n", "5")[0] == 1
    assert _run(capsys, "gamma", "--parts", "4,2", "--n", "5")[0] == 1
    # one mode rule: exactly one flag pair, given whole
    for argv in (
        (),
        ("--p", "-1"),
        ("--degree", "4"),
        ("--p", "-1", "--q", "3", "--parts", "2"),
        ("--p", "-1", "--q", "3", "--parts", "2", "--degree", "4"),
    ):
        code, out, err = _run(capsys, "stab", *argv)
        assert (code, out, err) == (1, "", "usage error: give either --p and --q, or --parts and --degree\n"), argv
    assert _run(capsys, "nonsense")[0] == 1
    assert _run(capsys, "table")[0] == 1
    assert _run(capsys, "table", "--n", "4", "--koszul")[0] == 1
    # _parse_seq rejects an empty or blank sequence before h2_order sees it
    assert _run(capsys, "order", "--seq", "")[0] == 1
    assert _run(capsys, "order", "--seq", ",")[0] == 1
    # rows of the cohomological view are always q; the flag is not ignored
    code, out, err = _run(capsys, "table", "--n", "4", "--view", "cohom", "--total-degree")
    assert (code, out) == (1, "")
    assert "--total-degree" in err
    # the witness would hold more coefficients than stab_index builds, or take
    # more running sums than it makes, or the cell would need tables past its
    # ceiling; each is refused at once
    for argv in (
        ("--parts", "2", "--degree", "100000000"),
        ("--parts", "2", "--degree", "1000000"),
        ("--parts", "2", "--degree", "131072"),
        ("--parts", "1024", "--degree", "1024"),
        ("--p", "-30", "--q", "60"),
        ("--p", "-1", "--q", "1000"),
    ):
        code, out, err = _run(capsys, "stab", *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    # an unknown check name is a bad request, not a failed check
    code, out, err = _run(capsys, "verify", "--n", "3", "--checks", "nonsense")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: unknown checks: ['nonsense']") and err.count("\n") == 1


def test_a_table_past_the_ceiling_is_refused_at_once(capsys, monkeypatch):
    # every subcommand with --max-n is refused before it computes anything
    def refuse(*args):
        raise AssertionError("computed a refused request")

    for name in ("build_column", "link_poincare", "gamma_poincare", "verify"):
        monkeypatch.setattr(cli, name, refuse)
    past = str(MAX_TABLE_N + 1)
    for argv in (
        ("table", "--n", "40", "--max-n", "40"),
        ("table", "--n", "4", "--max-n", past),
        ("table", "--n", past, "--max-n", str(MAX_TABLE_N)),
        ("link", "--n", past, "--max-n", past),
        ("gamma", "--parts", "2", "--n", past, "--max-n", past),
        ("verify", "--n", past, "--max-n", past),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage error: --") and err.count("\n") == 1, argv
    assert "--max-n must be at most 24 (got 40)" in _run(capsys, "table", "--n", "40", "--max-n", "40")[2]
    monkeypatch.undo()
    assert _run(capsys, "table", "--n", "4", "--max-n", str(MAX_TABLE_N))[0] == 0


def test_successful_commands_exit_zero(capsys):
    for argv in (
        ("table", "--n", "4"),
        ("link", "--n", "4"),
        ("gamma", "--parts", "2,2", "--n", "4", "--character", "sign"),
        ("verify", "--n", "3"),
        ("order", "--seq", "0,1,4,9,16"),
        ("stab", "--p", "-1", "--q", "3"),
        ("stab", "--parts", "2", "--degree", "2"),
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 0, argv
        assert out


def test_verify_failure_exits_two(monkeypatch, capsys):
    from conres.resolution import CheckResult, VerificationReport

    fake = VerificationReport(4, (CheckResult("miller", "n=4", False, "forced"),))
    monkeypatch.setattr("conres.cli.verify", lambda *args, **kwargs: fake)
    code, out, err = _run(capsys, "verify", "--n", "4")
    assert code == 2
    assert "FAIL" in out
    assert "consistency" in err


def test_a_value_error_inside_a_check_is_not_a_usage_error(monkeypatch, capsys):
    from conres import resolution

    def broken(n, budget):
        yield "n=3", True, ""
        raise ValueError("bug inside a check")

    monkeypatch.setitem(resolution._CHECKS, "miller", broken)
    code, out, err = _run(capsys, "verify", "--n", "3", "--checks", "miller")
    # a crash has its own exit code: neither a bad request (1) nor a failed check (2)
    assert (code, out) == (3, "")
    assert "Traceback" in err and "ValueError: bug inside a check" in err
    assert "usage error" not in err


def test_a_value_error_inside_stab_is_not_a_usage_error(monkeypatch, capsys):
    def broken(n, p, q):
        raise ValueError("boom inside a rank")

    monkeypatch.setattr("conres.stab.cohomological_rank", broken)
    code, out, err = _run(capsys, "stab", "--p", "-1", "--q", "3")
    assert (code, out) == (3, "")
    assert "Traceback" in err and "ValueError: boom inside a rank" in err
    assert "usage error" not in err
    # the arguments are still checked before the cell is read
    for argv in (("--p", "1", "--q", "3"), ("--p", "-1", "--q", "100000000")):
        code, out, err = _run(capsys, "stab", *argv)
        assert (code, out) == (1, "") and err.startswith("usage error: "), argv


def test_unstable_cell_exits_two(monkeypatch, capsys):
    monkeypatch.setattr("conres.stab.cohomological_rank", lambda n, p, q: n)
    code, out, err = _run(capsys, "stab", "--p", "-1", "--q", "3", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "consistency failure: cell (-1, 3) not stable at its bound 2: ranks [2, 3, 4]\n"
    # three tables that agree with each other but not with the series fail too
    monkeypatch.setattr("conres.stab.cohomological_rank", lambda n, p, q: 7)
    code, out, err = _run(capsys, "stab", "--p", "-1", "--q", "3", "--format", "json")
    assert (code, out) == (2, "")
    assert err == "consistency failure: cell (-1, 3) has rank 7 in the tables, 1 in the series\n"


# --------------------------------------------------------------------------
# document round trips and cross-format equality
# --------------------------------------------------------------------------


def test_json_round_trip(capsys):
    code, out, _ = _run(capsys, "table", "--n", "4", "--format", "json")
    assert code == 0
    doc = OutputDocument.from_json(out)
    assert doc.to_json() == out
    assert doc.payload["n"] == 4
    cell_keys = {tuple(sorted(c)) for c in doc.payload["cells"]}
    assert cell_keys == {("blocks", "p", "q", "rank")}


_TABLE_VIEWS = (("--view", "hom"), ("--view", "cohom"), ("--total-degree",))


@pytest.mark.parametrize("n", [*range(2, 13), 16])
def test_table_cell_writer_matches_the_stdlib(capsys, n):
    # a parsed table is plain dicts and lists, which json.dumps writes;
    # n = 16 has 1541 cells, past the cell writer's first chunk
    for view in _TABLE_VIEWS:
        _, out, _ = _run(capsys, "table", "--n", str(n), "--max-n", "16", *view, "--format", "json")
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out, view


@pytest.mark.parametrize("n", range(2, 17))
def test_table_csv_matches_the_csv_module(capsys, n):
    # the table's rows are f-strings that quote only a label holding a comma;
    # csv.writer, over the rows read back from the json document, decides
    for view in _TABLE_VIEWS:
        argv = ("table", "--n", str(n), "--max-n", "16", *view)
        _, out, _ = _run(capsys, *argv, "--format", "json")
        rows = [["p", "q", "block", "rank"]]
        for cell in json.loads(out)["payload"]["cells"]:
            rows += [[cell["p"], cell["q"], label, rank] for label, rank in cell["blocks"].items()]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        _, out, _ = _run(capsys, *argv, "--format", "csv")
        assert out == expected.getvalue(), view


@pytest.mark.parametrize("n", range(3, 7))
def test_a_parsed_table_renders_the_bytes_of_the_command(capsys, n):
    # a parsed table's cells are dicts; csv and markdown read them grouped by column
    for view in _TABLE_VIEWS:
        argv = ("table", "--n", str(n), *view)
        doc = OutputDocument.from_json(_run(capsys, *argv, "--format", "json")[1])
        for fmt in ("csv", "md"):
            assert doc._replace(format=fmt).render() == _run(capsys, *argv, "--format", fmt)[1], (view, fmt)


def test_a_table_label_csv_would_quote_otherwise_is_refused():
    # the f-string rows quote a label only for its commas; a quote or a line
    # break in a label would need csv.writer's escaping, so it raises instead
    for label in ('1"2', "1\n2", "a"):
        cells = [(0, (label,), iter([(0, (1,))]))]
        with pytest.raises(ValueError, match="block label"):
            cli._csv_table({"cells": cells})
    assert cli._csv_table({"cells": [(0, ("1,2", "3"), iter([(0, (1, 2))]))]}) == 'p,q,block,rank\n0,0,"1,2",1\n0,0,3,2\n'


def test_cohomological_cells_are_the_homological_walk_reversed(capsys):
    for n in range(2, 13):
        cells = {}
        for view in _TABLE_VIEWS[1:]:
            _, out, _ = _run(capsys, "table", "--n", str(n), "--max-n", "12", *view, "--format", "json")
            cells[view] = [(c["p"], c["q"], c["rank"], c["blocks"]) for c in json.loads(out)["payload"]["cells"]]
        walk = cells[("--total-degree",)]
        assert [(p, i) for p, i, _, _ in walk] == [(p, i) for p, i, _ in spectral_table(n).cell_blocks()]
        relabelled = [(-p, n * n - (i - p) - 1, rank, blocks) for p, i, rank, blocks in walk]
        cohom = cells[("--view", "cohom")]
        assert cohom == relabelled[::-1]
        assert [cell[:2] for cell in cohom] == sorted({cell[:2] for cell in cohom})


def test_polynomials_serialize_ascending(capsys):
    _, out, _ = _run(capsys, "link", "--n", "5", "--format", "json")
    pairs = OutputDocument.from_json(out).payload["polynomial"]
    exponents = [e for e, _ in pairs]
    assert exponents == sorted(exponents)
    assert pairs[0] == [4, 1]


def test_csv_and_json_encode_the_same_cells(capsys):
    _, json_out, _ = _run(capsys, "table", "--n", "5", "--format", "json")
    _, csv_out, _ = _run(capsys, "table", "--n", "5", "--format", "csv")
    cells = {}
    for cell in OutputDocument.from_json(json_out).payload["cells"]:
        cells[(cell["p"], cell["q"])] = dict(cell["blocks"])
    rebuilt: dict[tuple[int, int], dict[str, int]] = {}
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    for row in rows:
        key = (int(row["p"]), int(row["q"]))
        rebuilt.setdefault(key, {})[row["block"]] = int(row["rank"])
    assert rebuilt == cells


def test_output_is_deterministic(capsys):
    first = _run(capsys, "table", "--n", "5", "--format", "json")
    second = _run(capsys, "table", "--n", "5", "--format", "json")
    assert first == second
    first = _run(capsys, "verify", "--n", "4", "--format", "md")
    second = _run(capsys, "verify", "--n", "4", "--format", "md")
    assert first == second


# --------------------------------------------------------------------------
# payload contents
# --------------------------------------------------------------------------


def test_table_n2_single_cell(capsys):
    _, out, _ = _run(capsys, "table", "--n", "2", "--format", "json", "--total-degree")
    cells = OutputDocument.from_json(out).payload["cells"]
    assert cells == [{"p": 1, "q": 1, "rank": 1, "blocks": {"2": 1}}]


def test_table_cohomological_view(capsys):
    _, out, _ = _run(capsys, "table", "--n", "3", "--format", "json", "--view", "cohom")
    cells = OutputDocument.from_json(out).payload["cells"]
    for cell in cells:
        assert cell["p"] <= 0
        assert cell["p"] + cell["q"] >= 0


def test_link_markdown(capsys):
    _, out, _ = _run(capsys, "link", "--n", "4")
    assert out.strip() == "t^3 + t^5 + 2*t^7 + t^9 + t^11"


def test_gamma_markdown(capsys):
    _, out, _ = _run(capsys, "gamma", "--parts", "2,2", "--n", "4", "--character", "sign")
    assert out.strip() == "q + q^2 + q^3"


def test_order_value(capsys):
    _, out, _ = _run(capsys, "order", "--seq", "0,1,4,9,16", "--format", "json")
    assert OutputDocument.from_json(out).payload["order"] == 2


def test_stab_cell_payload(capsys):
    _, out, _ = _run(capsys, "stab", "--p", "-1", "--q", "3", "--format", "json")
    payload = OutputDocument.from_json(out).payload
    assert payload["bound_n"] == 2
    assert payload["ranks"] == [1, 1, 1]
    assert payload["stable_rank"] == 1


def test_markdown_table_shows_block_split(capsys):
    _, out, _ = _run(capsys, "table", "--n", "4")
    assert "p=2 blocks: (3), (2,2)" in out
    # the q = 5 row of the middle column holds ranks 2 (from (3)) and 1 (from (2,2))
    assert any("2+1" in line for line in out.splitlines())
