"""Command-line front end tests, run in process against main(argv).

Exit codes under test: 0 success/pass, 1 falsification, 2 usage error,
3 size guard.  Pipelines are simulated by feeding one verb's stdout to the
next verb's stdin.
"""

import io
import json
import os
import shlex
import subprocess
import sys

import pytest

from amoebagraph import LabeledGraph, family, from_json, to_json
from amoebagraph.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

C4 = LabeledGraph(
    ("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"))
)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        stream = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stream)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(to_json(g), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------- classify


def test_classify_reads_a_file_and_prints_text(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 4).unrooted())
    code, out, err = run_cli(capsys, ["classify", path])
    assert code == 0 and err == ""
    assert "fer order: 24" in out
    assert "local amoeba: yes" in out
    assert "global amoeba: yes" in out
    assert "root: -" in out
    assert "stem-symmetric" not in out  # root flags only appear for rooted input


def test_classify_emits_json_with_string_order(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 4, root="1"))
    code, out, _ = run_cli(capsys, ["classify", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["fer_order"] == "24"
    assert data["local_amoeba"] is True
    assert data["root"] == "1"
    assert data["hang_symmetric_at_root"] is True


def test_classify_root_flag_overrides_the_file(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 3))
    code, out, _ = run_cli(capsys, ["classify", path, "--root", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["root"] == "2"


def test_classify_missing_file_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, ["classify", "nonexistent.json"])
    assert code == 2 and out == ""
    assert "nonexistent.json" in err


def test_classify_duplicate_labels_is_a_usage_error_naming_the_path(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"labels": ["1", "1", "2"], "edges": []}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert str(path) in err and "duplicate labels" in err


def test_classify_label_the_text_outputs_cannot_show_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"labels": ["a b", "c", "d"], "edges": [["a b", "c"], ["c", "d"]]}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert str(path) in err and "labels" in err


def test_classify_malformed_json_names_the_path(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"labels": ["1", "2"], "edges": [["1"]]}', encoding="utf-8")
    code, _, err = run_cli(capsys, ["classify", str(path)])
    assert code == 2
    assert "broken.json" in err


def test_classify_non_utf8_file_is_a_usage_error_naming_the_path(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff")
    code, out, err = run_cli(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: not UTF-8 text\n"


def test_non_utf8_stdin_is_the_same_usage_error_as_a_file_under_the_c_locale():
    # The C locale decodes text-mode stdin with surrogateescape, which hid the
    # bad byte; POSIX printf writes the byte 0xff as the octal escape \377.
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=SRC)
    command = f"printf '\\377' | {shlex.quote(sys.executable)} -m amoebagraph.cli classify -"
    done = subprocess.run(
        ["sh", "-c", command],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr == b"error: cannot read -: not UTF-8 text\n"


def test_unwritable_output_is_a_usage_error_naming_the_path(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, ["family", "path", "3", "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")


def test_a_closed_pipe_on_stdout_is_a_usage_error_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        done = subprocess.run(
            [sys.executable, "-m", "amoebagraph.cli", "family", "path", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == b"error: cannot write to standard output: broken pipe\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Compared inside the child, so modules a site hook loads first do not count.
    probe = (
        "import sys; before = set(sys.modules); import amoebagraph.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
        check=True,
    )
    added = set(done.stdout.decode().split())
    assert "amoebagraph.cli" in added
    assert not added & {"dataclasses", "inspect"}


# ------------------------------------------------------------------ pipelines


def test_family_pipes_into_classify(capsys, tmp_path, monkeypatch):
    code, emitted, _ = run_cli(capsys, ["family", "path", "4"])
    assert code == 0
    code, out, _ = run_cli(
        capsys, ["classify", "-", "--format", "json"], stdin=emitted, monkeypatch=monkeypatch
    )
    assert code == 0
    data = json.loads(out)
    assert data["local_amoeba"] is True and data["fer_order"] == "24"


def test_counterexample_pipes_into_classify(capsys, monkeypatch):
    code, emitted, _ = run_cli(capsys, ["example", "counterexample_GH_labeled"])
    assert code == 0
    code, out, _ = run_cli(
        capsys, ["classify", "-", "--format", "json"], stdin=emitted, monkeypatch=monkeypatch
    )
    assert code == 0
    data = json.loads(out)
    assert data["local_amoeba"] is False and data["fer_order"] == "82944"


# ------------------------------------------------------------------ fer/orbits


def test_fer_prints_order_generators_and_orbits(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 3))
    code, out, _ = run_cli(capsys, ["fer", path])
    assert code == 0
    assert "fer group: order 6" in out
    assert "orbits: {1 2 3}" in out
    assert "generators (" in out


def test_fer_prints_generators_not_the_listed_group(capsys, tmp_path):
    """K8 has 8! automorphisms; the printed generators are few and generate the printed order."""
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup

    from amoebagraph import parse_cycles

    g = family("complete", 8)
    code, out, _ = run_cli(capsys, ["fer", write_graph(tmp_path, g)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fer group: order 40320"
    count = int(lines[2].removeprefix("generators (").removesuffix("):"))
    assert 1 <= count <= 28 and len(lines) == 3 + count
    index = {label: k for k, label in enumerate(g.labels)}
    gens = [parse_cycles(line.strip(), g.labels) for line in lines[3:]]
    sym = SymGroup([SymPerm([index[p(x)] for x in g.labels]) for p in gens])
    assert int(sym.order()) == 40320


def test_fer_json_includes_orbits(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 3))
    code, out, _ = run_cli(capsys, ["fer", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == "6"
    assert data["orbits"] == [["1", "2", "3"]]


def test_fer_fixed_and_hang_subgroups(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 3))
    code, out, _ = run_cli(capsys, ["fer", path, "--fixed", "2"])
    assert code == 0 and "fer group fixing 2: order 2" in out
    code, out, _ = run_cli(capsys, ["fer", path, "--hang", "1"])
    assert code == 0 and "hang group at 1: order" in out


def test_fer_fixed_and_hang_are_mutually_exclusive(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 3))
    code, _, err = run_cli(capsys, ["fer", path, "--fixed", "1", "--hang", "1"])
    assert code == 2 and "mutually exclusive" in err


def test_orbits_text_and_json(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 4))
    code, out, _ = run_cli(capsys, ["orbits", path])
    assert code == 0 and out == "{1 2 3 4}\n"
    code, out, _ = run_cli(capsys, ["orbits", path, "--format", "json"])
    assert code == 0 and json.loads(out) == [["1", "2", "3", "4"]]


# ------------------------------------------------------- generation and round trips


def test_family_output_reloads_to_an_equal_graph(capsys):
    code, out, _ = run_cli(capsys, ["family", "path", "4", "--root", "1"])
    assert code == 0
    g = from_json(out)
    assert g == family("path", 4, root="1")
    assert to_json(g) == out  # byte-stable canonical form


def test_family_cube_takes_no_size_parameter(capsys):
    code, out, _ = run_cli(capsys, ["family", "cube"])
    assert code == 0 and len(from_json(out).labels) == 8
    code, _, err = run_cli(capsys, ["family", "cube", "3"])
    assert code == 2 and "cube" in err


def test_family_writes_dot_when_asked(capsys):
    code, out, _ = run_cli(capsys, ["family", "path", "2", "--dot"])
    assert code == 0
    assert out.startswith("graph ") and '"1" -- "2"' in out


def test_family_writes_to_a_file(capsys, tmp_path):
    target = tmp_path / "p3.json"
    code, out, _ = run_cli(capsys, ["family", "path", "3", "--out", str(target)])
    assert code == 0 and out == ""
    assert from_json(target.read_text(encoding="utf-8")) == family("path", 3)


def test_comb_round_trips_through_a_file(capsys, tmp_path):
    g = write_graph(tmp_path, family("path", 2), "g.json")
    h = write_graph(tmp_path, family("path", 2, root="1"), "h.json")
    target = tmp_path / "comb.json"
    code, _, _ = run_cli(capsys, ["comb", g, h, "-o", str(target)])
    assert code == 0
    product = from_json(target.read_text(encoding="utf-8"))
    assert len(product.labels) == 4 and len(product.edges) == 3
    assert to_json(product) == target.read_text(encoding="utf-8")


def test_comb_guards_the_product_size(capsys, tmp_path):
    g = write_graph(tmp_path, family("path", 6), "g.json")
    h = write_graph(tmp_path, family("path", 6, root="1"), "h.json")
    code, _, err = run_cli(capsys, ["comb", g, h, "-o", "-"])
    assert code == 3 and "36" in err


@pytest.mark.parametrize("fmt", [[], ["--dot"]])
def test_comb_refuses_labels_that_flatten_alike(capsys, tmp_path, fmt):
    """("1", "1.1") and ("1.1", "1") both flatten to "1.1.1"; nothing is written."""
    g = LabeledGraph(("1", "1.1"), (("1", "1.1"),))
    gp = write_graph(tmp_path, g, "g.json")
    hp = write_graph(tmp_path, g.with_root("1"), "h.json")
    target = tmp_path / "comb.out"
    code, out, err = run_cli(capsys, ["comb", gp, hp, *fmt, "-o", str(target)])
    assert (code, out) == (2, "")
    assert err == "error: two labels flatten to '1.1.1'\n"
    assert not target.exists()
    code, out, err = run_cli(capsys, ["comb", gp, hp, *fmt])
    assert (code, out) == (2, "") and "'1.1.1'" in err


@pytest.mark.parametrize("checker", ["bigcor", "wreath", "fixedwreath"])
def test_pair_checkers_guard_the_product_size_like_comb(capsys, tmp_path, checker):
    g = write_graph(tmp_path, family("path", 3), "g.json")
    h = write_graph(tmp_path, family("path", 3, root="1"), "h.json")
    code, out, comb_err = run_cli(capsys, ["--max-n", "4", "comb", g, h])
    assert code == 3 and out == ""
    assert "product has 9 labels, exceeding the guard of 4" in comb_err
    code, out, err = run_cli(capsys, ["--max-n", "4", "check", checker, g, h])
    assert code == 3 and out == ""
    assert err == comb_err


def test_unknown_example_name_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["example", "no_such_example"])
    assert info.value.code == 2


def test_missing_verb_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# --------------------------------------------------------------------- oracle


def test_oracle_agrees_on_a_small_path(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 3))
    code, out, _ = run_cli(capsys, ["oracle", path])
    assert code == 0
    assert "reached: 3 of 3 labeled copies" in out
    assert "agreement: pass" in out


def test_oracle_json_reports_both_routes(capsys, tmp_path):
    path = write_graph(tmp_path, family("complete", 3))
    code, out, _ = run_cli(capsys, ["oracle", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data == {
        "reached": 1,
        "total_copies": 1,
        "fer_order": "6",
        "local_amoeba": True,
        "agrees_with_engine": True,
    }


def test_oracle_verb_is_capped_at_six_labels(capsys, tmp_path):
    """The verb's default guard and the oracle's own refusal name one limit."""
    from amoebagraph.cli import build_parser
    from amoebagraph.oracle import REACH_LIMIT

    path = write_graph(tmp_path, family("path", 7))
    code, _, err = run_cli(capsys, ["oracle", path])
    assert code == 3 and f"exceeds the guard of {REACH_LIMIT}" in err
    code, _, err = run_cli(capsys, ["--max-n", "7", "oracle", path])
    assert code == 3 and f"reachability capped at {REACH_LIMIT} labels" in err
    max_n = next(a for a in build_parser()._actions if a.dest == "max_n")
    assert f"{REACH_LIMIT} for the oracle verb" in max_n.help


# ---------------------------------------------------------------------- check


def test_check_thm3_passes_on_a_rooted_path(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 3, root="2"))
    code, out, _ = run_cli(capsys, ["check", "thm3", path])
    assert code == 0 and "-> pass" in out


def test_check_thm3_accepts_a_root_flag(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 3))
    code, out, _ = run_cli(capsys, ["check", "thm3", path, "--root", "1"])
    assert code == 0 and out.startswith("thm3:")


def test_check_hangcorr_passes_on_a_rooted_path(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 4, root="1"))
    code, out, _ = run_cli(capsys, ["check", "hangcorr", path])
    assert code == 0 and out == "hangcorr: pass\n"


def test_check_globaltrans_agrees_on_a_cycle(capsys, tmp_path):
    c4 = write_graph(tmp_path, C4)
    code, out, _ = run_cli(capsys, ["check", "globaltrans", c4])
    assert code == 0
    assert "global=no" in out and "transitive=no" in out and "-> pass" in out


def test_check_wreath_passes_on_paths(capsys, tmp_path):
    g = write_graph(tmp_path, family("path", 2), "g.json")
    h = write_graph(tmp_path, family("path", 2, root="1"), "h.json")
    code, out, _ = run_cli(capsys, ["check", "wreath", g, h])
    assert code == 0 and out == "wreath: pass\n"


def test_check_wreath_precondition_is_a_usage_error(capsys, tmp_path):
    g = write_graph(tmp_path, C4, "g.json")
    h = write_graph(tmp_path, family("path", 2, root="1"), "h.json")
    code, _, err = run_cli(capsys, ["check", "wreath", g, h])
    assert code == 2 and "global amoeba" in err


def test_check_fixedwreath_passes_on_triangles(capsys, tmp_path):
    g = write_graph(tmp_path, family("complete", 3, root="1"), "g.json")
    h = write_graph(tmp_path, family("complete", 3, root="1"), "h.json")
    code, out, _ = run_cli(capsys, ["check", "fixedwreath", g, h])
    assert code == 0 and out == "fixedwreath: pass\n"


def test_check_bigcor_reports_the_verdict(capsys, tmp_path):
    g = write_graph(tmp_path, family("path", 2), "g.json")
    h = write_graph(tmp_path, family("path", 3, root="1"), "h.json")
    code, out, _ = run_cli(capsys, ["check", "bigcor", g, h])
    assert code == 0 and out == "bigcor: full-symmetric -> pass\n"


@pytest.mark.parametrize(
    "checker, function, returned, line",
    [
        ("thm3", "check_theorem3", (True, False, True), "thm3: a=yes b=no c=yes -> falsified"),
        ("hangcorr", "check_hang_correspondence", False, "hangcorr: falsified"),
        (
            "globaltrans",
            "check_global_transitive",
            (True, False),
            "globaltrans: global=yes transitive=no -> falsified",
        ),
        ("wreath", "check_wreath_embedding", False, "wreath: falsified"),
        ("fixedwreath", "check_fixed_wreath_embedding", False, "fixedwreath: falsified"),
        ("bigcor", "check_big_corollary", "violated", "bigcor: violated -> falsified"),
    ],
)
def test_check_reports_a_disagreeing_checker_as_falsified(
    capsys, tmp_path, monkeypatch, checker, function, returned, line
):
    """A falsification is a result: one stdout line, nothing on stderr, exit 1."""
    monkeypatch.setattr(f"amoebagraph.cli.cls.{function}", lambda *args: returned)
    g = write_graph(tmp_path, family("path", 2, root="1"), "g.json")
    h = write_graph(tmp_path, family("path", 2, root="1"), "h.json")
    pair = checker in ("wreath", "fixedwreath", "bigcor")
    code, out, err = run_cli(capsys, ["check", checker, g, *([h] if pair else [])])
    assert (code, out, err) == (1, line + "\n", "")


def test_oracle_reports_a_disagreeing_engine_as_falsified(capsys, tmp_path, monkeypatch):
    from amoebagraph import PermutationGroup

    monkeypatch.setattr("amoebagraph.cli.fer_group", lambda g: PermutationGroup(g.labels, ()))
    path = write_graph(tmp_path, family("path", 3))
    code, out, err = run_cli(capsys, ["oracle", path])
    assert (code, err) == (1, "")
    assert out == (
        "reached: 3 of 3 labeled copies\n"
        "fer order: 1\n"
        "local amoeba: yes\n"
        "agreement: falsified\n"
    )
    code, out, err = run_cli(capsys, ["oracle", path, "--format", "json"])
    assert (code, err) == (1, "")
    assert json.loads(out)["agrees_with_engine"] is False


# ----------------------------------------------------------------- size guards


def test_max_n_flag_tightens_the_guard(capsys, tmp_path):
    path = write_graph(tmp_path, family("path", 4))
    code, _, err = run_cli(capsys, ["--max-n", "3", "classify", path])
    assert code == 3 and "exceeds the guard of 3" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["family", "complete", "31"], 3),
        (["--max-n", "40", "family", "complete", "31"], 0),
        (["family", "a_family", "6"], 3),  # 64 labels
        (["family", "b_family", "5"], 3),  # 33 labels
        (["family", "b_family", "4"], 0),  # 17 labels
        (["family", "a_family", "10000000000"], 3),  # refused before 2**n is formed
        (["--max-n", "7", "family", "cube"], 3),  # 8 labels
        (["--max-n", "8", "family", "cube"], 0),
    ],
)
def test_family_respects_the_size_guard(capsys, argv, code):
    got, out, err = run_cli(capsys, argv)
    assert got == code
    if code == 3:
        assert out == "" and "exceeding the guard" in err
    else:
        assert err == "" and from_json(out)


def test_env_override_tightens_the_guard(capsys, tmp_path, monkeypatch):
    path = write_graph(tmp_path, family("path", 4))
    monkeypatch.setenv("AMOEBA_MAX_N", "3")
    code, _, err = run_cli(capsys, ["classify", path])
    assert code == 3 and "exceeds the guard of 3" in err


def test_max_n_flag_beats_the_environment(capsys, tmp_path, monkeypatch):
    path = write_graph(tmp_path, family("path", 4))
    monkeypatch.setenv("AMOEBA_MAX_N", "3")
    code, out, _ = run_cli(capsys, ["--max-n", "10", "classify", path])
    assert code == 0 and "fer order: 24" in out


def test_non_integer_env_override_is_a_usage_error(capsys, tmp_path, monkeypatch):
    path = write_graph(tmp_path, family("path", 4))
    monkeypatch.setenv("AMOEBA_MAX_N", "soup")
    code, _, err = run_cli(capsys, ["classify", path])
    assert code == 2 and "AMOEBA_MAX_N" in err
