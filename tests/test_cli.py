import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fastchain.cli
import fastchain.derivatives
import fastchain.discrete_time
import fastchain.graph
from fastchain.cli import main
from fastchain.discrete_time import to_kernel
from fastchain.generator import Generator
from fastchain.graph import complete_graph, hypercube_graph, segment_graph


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def ham3_file(tmp_path):
    return write(tmp_path, "ham3.json",
                 {"n": 3, "rates": [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]})


@pytest.fixture
def pi3_file(tmp_path):
    return write(tmp_path, "pi3.json", [1 / 3, 1 / 3, 1 / 3])


def test_eval_hamiltonian(ham3_file, pi3_file, capsys):
    code, out, _ = run_cli(["eval", "--generator", ham3_file, "--pi", pi3_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["f"] - 1.0) <= 1e-10
    assert doc["checks"]["hitting_vs_spectral"] <= 1e-8
    assert doc["checks"]["kemeny_spread"] <= 1e-9
    assert len(doc["spectrum"]) == 2


def test_eval_derivatives_block(ham3_file, capsys):
    code, out, _ = run_cli(["eval", "--generator", ham3_file, "--derivatives"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "m_bound" in doc
    entries = {tuple(d["cycle"]): d for d in doc["derivatives"]}
    assert abs(entries[(0, 1, 2)]["first"]) <= 1e-10


def test_eval_rejects_non_invariant_pi(ham3_file, tmp_path, capsys):
    ppath = write(tmp_path, "pi.json", [0.5, 0.25, 0.25])
    code, out, err = run_cli(["eval", "--generator", ham3_file, "--pi", ppath], capsys)
    assert code == 2 and out == ""
    assert "residual" in err and "np.float64" not in err


@pytest.mark.parametrize("args, inputs, detail", [
    (["eval"], {"--generator": {"n": 3, "rates": [[-1, 1, 0], [0, -1, 1], [1, 0, 0]]}},
     "bad generator file {}: row sums must vanish, max residual 1.0"),
    (["eval"], {"--generator": {"n": 3, "rates": [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]},
                "--pi": [0.5, 0.5, 0.5]},
     "bad probability file {}: probabilities must sum to 1, got 1.5"),
    (["dp", "--mode", "continuous"], {"--graph": complete_graph(3).to_json(), "--budgets": [1, 1, 2]},
     "budgets must sum to n=3, got 4.0"),
], ids=["generator", "pi", "budgets"])
def test_error_messages_print_plain_floats(tmp_path, capsys, args, inputs, detail):
    """A numpy scalar in an error message prints as a plain float, not as
    ``np.float64(1.0)`` (numpy 2's repr).  The path named is the last input."""
    argv = write_inputs(tmp_path, args, inputs)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {detail.format(argv[-1])}\n")


def test_eval_rejects_non_finite_pi(ham3_file, tmp_path, capsys):
    """NaN weights used to pass every check and fail only in the writer."""
    ppath = write(tmp_path, "pi.json", [float("nan"), 0.5, 0.5])
    code, out, err = run_cli(["eval", "--generator", ham3_file, "--pi", ppath], capsys)
    detail = "probabilities must be finite and strictly positive"
    assert (code, out, err) == (2, "", f"error: bad probability file {ppath}: {detail}\n")


def test_eval_byte_determinism(ham3_file, pi3_file, capsys):
    _, out1, _ = run_cli(["eval", "--generator", ham3_file, "--pi", pi3_file], capsys)
    _, out2, _ = run_cli(["eval", "--generator", ham3_file, "--pi", pi3_file], capsys)
    assert out1 == out2


def test_optimize_command(tmp_path, pi3_file, capsys):
    """Seeds 0, 1, 4, 8 and 9 ended with a gap above tol (exit 3) while the
    line search compared values of F; seed 3 converged either way."""
    gpath = write(tmp_path, "s2.json", segment_graph(2).to_json())
    for seed in ("0", "1", "3", "4", "8", "9"):
        code, out, _ = run_cli(["optimize", "--graph", gpath, "--pi", pi3_file,
                                "--seed", seed], capsys)
        assert code == 0, seed
        doc = json.loads(out)
        assert abs(doc["f_min"] - 16 / 9) <= 1e-6
        assert doc["checks"]["stationarity_gap"] <= 1e-6
        assert doc["converged"] is True


def test_optimize_determinism(tmp_path, pi3_file, capsys):
    gpath = write(tmp_path, "k3.json", complete_graph(3).to_json())
    _, out1, _ = run_cli(["optimize", "--graph", gpath, "--pi", pi3_file, "--seed", "5"], capsys)
    _, out2, _ = run_cli(["optimize", "--graph", gpath, "--pi", pi3_file, "--seed", "5"], capsys)
    assert out1 == out2


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("graph, pi, seed, golden", [
    (segment_graph(2), [1 / 3, 1 / 3, 1 / 3], "3", "optimize_s2_uniform_seed3.json"),
    (complete_graph(4), [0.1, 0.2, 0.3, 0.4], "0", "optimize_k4_pi1234_seed0.json"),
])
def test_optimize_output_is_pinned(tmp_path, capsys, graph, pi, seed, golden):
    """The optimizer's report is pinned byte for byte.  Its evaluation
    shortcuts (one broadcast rates product per presample, memoized
    irreducibility, stacked presample inverses) give the bits of the plain
    per-point route, so they cannot move it; a change of the line search or
    of the iteration can.

    The golden bytes hold the last bits of LAPACK results, so they belong to
    one numpy/OpenBLAS build: after a change of that build, recapture them
    with this command and check that only last bits moved (the same f_min
    to about 1e-15, ``converged`` still true).  The K4 run lands on a
    Hamiltonian vertex, cycle (0, 1, 2, 3), with F exactly 1.4 and a gap of
    0; every Hamiltonian cycle has that F, and which one wins the tie
    between starts follows the line search's last bits.  The S2 run stops
    inside a segment at F = 16/9 within 1e-15 and a gap of 1.05e-11."""
    gpath = write(tmp_path, "g.json", graph.to_json())
    ppath = write(tmp_path, "pi.json", pi)
    code, out, _ = run_cli(["optimize", "--graph", gpath, "--pi", ppath, "--seed", seed], capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_eval_output_is_pinned(tmp_path, capsys):
    """``eval --derivatives --second`` is pinned byte for byte on a fixed
    5-state cycle mixture (input in eval_k5_input.json): the E, second
    moment and h matrices, the spectrum, pi and the per-cycle derivatives,
    including the 0.0 and -0.0 entries the whole-number rule writes.  Like
    the optimize goldens, the bytes hold the last bits of LAPACK results
    and belong to one numpy/OpenBLAS build."""
    inputs = json.loads((GOLDEN / "eval_k5_input.json").read_text())
    gpath = write(tmp_path, "g.json", inputs["generator"])
    ppath = write(tmp_path, "pi.json", inputs["pi"])
    code, out, _ = run_cli(["eval", "--generator", gpath, "--pi", ppath,
                            "--derivatives", "--second"], capsys)
    assert code == 0
    assert out == (GOLDEN / "eval_k5_derivatives_second.json").read_text()


UNIFORM3 = [1 / 3, 1 / 3, 1 / 3]
# a random Hamiltonian digraph on 8 vertices with cycles of every length
# 2-8; the generator mixes all 25 of its simple cycles
HAM8 = json.loads((GOLDEN / "eval_ham8_input.json").read_text())
# a 32-state mixture of six random cycles, the first Hamiltonian: its E,
# second-moment and h matrices have 1024 entries each, at least CUT, so the
# renderer writes them from exactly rounded 17-digit integers
CYC32 = json.loads((GOLDEN / "eval_cyc32_input.json").read_text())


REPORT_CASES = [
    (["s2"], {"--pi": [0.2, 0.3, 0.5]}, "s2_pi235.json"),
    (["counterexample"], {}, "counterexample_default.json"),
    (["discrete"], {"--kernel": {"n": 3, "rates": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
                    "--pi": UNIFORM3}, "discrete_kernel_perm3.json"),
    (["discrete"], {"--kernel": {"n": 3, "rates": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]},
                    "--pi": UNIFORM3}, "discrete_kernel_lazy3.json"),
    (["discrete", "--compare"], {"--graph": complete_graph(3).to_json(), "--pi": UNIFORM3},
     "discrete_compare_k3_uniform.json"),
    (["probe-theorem2", "--trials", "5", "--seed", "2"], {"--graph": complete_graph(3).to_json()},
     "probe_theorem2_k3_trials5_seed2.json"),
    (["eval", "--derivatives", "--second"],
     {"--generator": HAM8["generator"], "--pi": HAM8["pi"]}, "eval_ham8_derivatives_second.json"),
    (["eval"], {"--generator": CYC32["generator"], "--pi": CYC32["pi"]}, "eval_cyc32.json"),
]


def write_inputs(tmp_path, args, inputs):
    """The argv of a case: its arguments, then each input written to a file."""
    argv = list(args)
    for k, (flag, obj) in enumerate(inputs.items()):
        argv += [flag, write(tmp_path, f"in{k}.json", obj)]
    return argv


@pytest.mark.parametrize("args, inputs, golden", REPORT_CASES)
def test_report_output_is_pinned(tmp_path, capsys, args, inputs, golden):
    """The reports of ``s2``, ``counterexample``, ``discrete --kernel``,
    ``discrete --compare``, ``probe-theorem2``, ``eval --derivatives
    --second`` over all cycles of an 8-state mixture and ``eval`` of a
    32-state mixture are pinned byte for byte: the generator, kernel
    weights, measure, graph, cycles, derivatives and hitting matrices they
    carry, and their checks.  Like the optimize goldens, the bytes hold the
    last bits of LAPACK results and belong to one numpy/OpenBLAS build:
    after a change of that build, recapture them with this command and
    check that only last bits moved."""
    code, out, _ = run_cli(write_inputs(tmp_path, args, inputs), capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# one pinned case of every subcommand
OUTPUT_CASES = REPORT_CASES + [
    (["optimize", "--seed", "3"], {"--graph": segment_graph(2).to_json(), "--pi": UNIFORM3},
     "optimize_s2_uniform_seed3.json"),
    (["dp", "--mode", "continuous"], {"--graph": complete_graph(4).to_json()},
     "dp_k4_continuous.json"),
]


@pytest.mark.parametrize("args, inputs, golden", OUTPUT_CASES,
                         ids=[golden for *_, golden in OUTPUT_CASES])
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, args, inputs, golden):
    """``--output`` writes exactly the bytes the command prints without it,
    and prints nothing."""
    argv = write_inputs(tmp_path, args, inputs)
    target = tmp_path / "out.json"
    assert run_cli(argv + ["--output", str(target)], capsys) == (0, "", "")
    assert target.read_text() == (GOLDEN / golden).read_text()
    assert run_cli(argv, capsys) == (0, target.read_text(), "")


def test_output_into_a_missing_directory_exits_2(tmp_path, capsys):
    """An --output path that cannot be opened used to end in a
    FileNotFoundError traceback and exit 1."""
    ppath = write(tmp_path, "pi.json", [0.2, 0.3, 0.5])
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["s2", "--pi", ppath, "--output", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_unwritable_report_writes_no_output_file(tmp_path, capsys):
    """A report that the writer refuses (here a +inf value) exits 2 without
    creating the --output file."""
    gpath = write(tmp_path, "g1.json", {"n": 1, "edges": []})
    target = tmp_path / "out.json"
    code, out, err = run_cli(["dp", "--graph", gpath, "--mode", "continuous", "--full-set",
                              "--output", str(target)], capsys)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not target.exists()


def test_optimize_without_iterations_writes_its_report_and_exits_3(tmp_path, capsys):
    """With no iteration allowed the certificate gap stays open: the report
    is still written, with ``converged: false``, and the exit code is 3."""
    gpath = write(tmp_path, "k3.json", complete_graph(3).to_json())
    ppath = write(tmp_path, "pi.json", [0.1, 0.3, 0.6])
    target = tmp_path / "out.json"
    code, out, err = run_cli(["optimize", "--graph", gpath, "--pi", ppath, "--max-iters", "0",
                              "--output", str(target)], capsys)
    assert (code, out, err) == (3, "", "")
    doc = json.loads(target.read_text())
    assert doc["converged"] is False and doc["iterations"] == 0
    assert round(doc["certificate"]["gap"], 3) == 0.403


def test_optimize_over_the_cycle_budget_exits_4(tmp_path, capsys):
    """K9 has more simple cycles than the enumeration budget: exit 4, one
    error line, and neither stdout nor an --output file."""
    gpath = write(tmp_path, "k9.json", complete_graph(9).to_json())
    ppath = write(tmp_path, "pi.json", [1 / 9] * 9)
    target = tmp_path / "out.json"
    code, out, err = run_cli(["optimize", "--graph", gpath, "--pi", ppath,
                              "--output", str(target)], capsys)
    assert (code, out, err) == (4, "", "error: more than 100000 simple cycles\n")
    assert not target.exists()


K6 = complete_graph(6).to_json()
UNIFORM6 = [1 / 6] * 6
BUDGET_CASES = {
    "optimize": (["optimize"], {"--graph": K6, "--pi": UNIFORM6}),
    "discrete-compare": (["discrete", "--compare"], {"--graph": K6, "--pi": UNIFORM6}),
    "counterexample": (["counterexample"], {"--graph": K6}),
    "probe-theorem2": (["probe-theorem2", "--trials", "0"], {"--graph": K6}),
    "eval-derivatives": (["eval", "--derivatives"], {"--generator": {"n": 6, "rates": [
        [-1.0 if i == j else 0.2 for j in range(6)] for i in range(6)]}}),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_every_command_that_reads_cycles_stops_at_the_one_budget(tmp_path, capsys, monkeypatch,
                                                                  name):
    """K6 has 409 simple cycles, 120 of them Hamiltonian: with the budget at
    50 every subcommand that enumerates cycles exits 4 with the
    enumeration's one error line, and writes neither stdout nor --output.
    ``probe-theorem2 --trials 0`` lists the Hamiltonian cycles only; it used
    to list them by a search of its own, outside the budget, and exit 0."""
    monkeypatch.setattr(fastchain.graph, "CYCLE_BUDGET", 50)
    argv = write_inputs(tmp_path, *BUDGET_CASES[name])
    error = (4, "", "error: more than 50 simple cycles\n")
    assert run_cli(argv, capsys) == error
    target = tmp_path / "out.json"
    assert run_cli(argv + ["--output", str(target)], capsys) == error
    assert not target.exists()


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_dp_past_the_state_space_exits_4(tmp_path, capsys, mode):
    """A 21-vertex ring is past the DP's 20-bit subsets: exit 4, one error
    line, and neither stdout nor an --output file.  It used to end in a
    StateSpaceTooLarge traceback and exit 1.  The check comes before any
    table is allocated."""
    n = 21
    gpath = write(tmp_path, "ring.json", {"n": n, "edges": [[v, (v + 1) % n] for v in range(n)]})
    target = tmp_path / "out.json"
    code, out, err = run_cli(["dp", "--graph", gpath, "--mode", mode, "--output", str(target)],
                             capsys)
    assert (code, out, err) == (4, "", "error: n=21 exceeds 20-bit subsets\n")
    assert not target.exists()


def test_consecutive_calls_give_the_bytes_of_a_fresh_parser(tmp_path, capsys, monkeypatch):
    """``main`` keeps one parser for the process; no option of one call
    leaks into the next."""
    ham8 = ["eval", "--generator", write(tmp_path, "g8.json", HAM8["generator"]),
            "--pi", write(tmp_path, "pi8.json", HAM8["pi"])]
    s2 = ["optimize", "--graph", write(tmp_path, "s2.json", segment_graph(2).to_json()),
          "--pi", write(tmp_path, "pi3.json", UNIFORM3)]
    k4 = ["dp", "--graph", write(tmp_path, "k4.json", complete_graph(4).to_json())]
    argvs = [ham8 + ["--derivatives", "--second"], ham8,
             s2 + ["--seed", "3"], s2,
             k4 + ["--mode", "continuous", "--full-set"], k4]
    kept = [run_cli(argv, capsys) for argv in argvs]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(fastchain.cli, "_parser", None)
        fresh.append(run_cli(argv, capsys))
    assert kept == fresh
    assert all(code == 0 for code, _, _ in kept)
    assert len({out for _, out, _ in kept}) == len(argvs)
    assert kept[0][1] == (GOLDEN / "eval_ham8_derivatives_second.json").read_text()
    assert kept[2][1] == (GOLDEN / "optimize_s2_uniform_seed3.json").read_text()


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """The first ``main`` call builds the parser, not the import, and later
    calls reuse it."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c",
                           "import fastchain.cli as c; assert c._parser is None"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    built = []
    build = fastchain.cli.build_parser
    monkeypatch.setattr(fastchain.cli, "_parser", None)
    monkeypatch.setattr(fastchain.cli, "build_parser", lambda: built.append(1) or build())
    ppath = write(tmp_path, "pi.json", [0.2, 0.3, 0.5])
    for argv in (["s2", "--pi", ppath], ["counterexample"], ["s2", "--pi", ppath]):
        assert run_cli(argv, capsys)[0] == 0
    assert built == [1]


def run_eval_ham8(tmp_path, capsys):
    gpath = write(tmp_path, "g.json", HAM8["generator"])
    ppath = write(tmp_path, "pi.json", HAM8["pi"])
    return run_cli(["eval", "--generator", gpath, "--pi", ppath, "--derivatives", "--second"],
                   capsys)


def test_eval_derivatives_in_small_blocks_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    """The 25 cycles in blocks of 3 print the pinned bytes."""
    monkeypatch.setattr(fastchain.derivatives, "CYCLE_BLOCK", 3)
    code, out, _ = run_eval_ham8(tmp_path, capsys)
    assert code == 0
    assert out == (GOLDEN / "eval_ham8_derivatives_second.json").read_text()


def test_eval_derivatives_chained_term_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    """A relative error of 1e-6 planted in the stacked assembly of the
    chained terms exits 2 and writes no report."""
    assembled = fastchain.derivatives._self_cross
    monkeypatch.setattr(fastchain.derivatives, "_self_cross",
                        lambda *args: assembled(*args) * (1 + 1e-6))
    code, out, err = run_eval_ham8(tmp_path, capsys)
    assert code == 2
    assert out == ""
    assert "chained term mismatch" in err


def test_dp_command(tmp_path, capsys):
    gpath = write(tmp_path, "k4.json", complete_graph(4).to_json())
    code, out, _ = run_cli(["dp", "--graph", gpath, "--mode", "discrete"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 6.0
    assert sorted(doc["path"]) == [0, 1, 2, 3]
    code, out, _ = run_cli(["dp", "--graph", gpath, "--mode", "discrete", "--full-set"], capsys)
    assert json.loads(out)["value"] == 10.0
    code, out, _ = run_cli(["dp", "--graph", gpath, "--mode", "continuous"], capsys)
    doc = json.loads(out)
    assert doc["value"] == 6.0
    assert doc["checks"]["continuous_matches_discrete_at_unit_budgets"] == 0.0


@pytest.mark.parametrize("graph, args, golden", [
    (complete_graph(4), [], "dp_k4_discrete.json"),
    (complete_graph(4), ["--mode", "continuous"], "dp_k4_continuous.json"),
    (complete_graph(4), ["--full-set"], "dp_k4_discrete_full_set.json"),
    (complete_graph(4), ["--mode", "continuous", "--full-set"], "dp_k4_continuous_full_set.json"),
    (segment_graph(2), ["--start", "1"], "dp_s2_start1.json"),
    (hypercube_graph(3), [], "dp_q3_discrete.json"),
    (None, ["--mode", "continuous"], "dp_ham9_budgets.json"),
])
def test_dp_output_is_pinned(tmp_path, capsys, graph, args, golden):
    """``dp`` reports, paths included, are pinned byte for byte: the policy
    derived on demand from the values takes every move the stored argmin
    table took.  The last case is a random Hamiltonian digraph on 9
    vertices with random budgets (input in dp_ham9_input.json), whose
    optimal walk revisits a vertex."""
    if graph is None:
        inputs = json.loads((GOLDEN / "dp_ham9_input.json").read_text())
        gpath = write(tmp_path, "g.json", inputs["graph"])
        args = args + ["--budgets", write(tmp_path, "b.json", inputs["budgets"])]
    else:
        gpath = write(tmp_path, "g.json", graph.to_json())
    code, out, _ = run_cli(["dp", "--graph", gpath, *args], capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("args, value, path", [
    (["--mode", "discrete"], 0.0, [0]),
    (["--mode", "continuous"], 0.0, [0]),
    (["--mode", "discrete", "--full-set"], 1.0, [0, 0]),
])
def test_dp_single_vertex(tmp_path, capsys, args, value, path):
    """One vertex and no arcs: nothing is left to cover, so the walk stays
    put at cost 0; the discrete full-set query takes the lazy self-loop
    once, at cost |A| = 1."""
    gpath = write(tmp_path, "g1.json", {"n": 1, "edges": []})
    code, out, _ = run_cli(["dp", "--graph", gpath, *args], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["value"], doc["path"]) == (value, path)
    assert doc["checks"]["value_minus_hamiltonian_bound"] == 0.0


def test_dp_single_vertex_continuous_full_set_has_no_move(tmp_path, capsys):
    """A continuous chain has no self-transition, so it can never return to
    a lone vertex: the full-set value is +inf, which JSON cannot carry, and
    the command exits 2 naming the vertex."""
    gpath = write(tmp_path, "g1.json", {"n": 1, "edges": []})
    code, out, err = run_cli(["dp", "--graph", gpath, "--mode", "continuous", "--full-set"],
                             capsys)
    assert code == 2 and out == ""
    assert "vertex 0 has no move" in err


@pytest.mark.parametrize("start", ["-1", "99"])
def test_dp_start_out_of_range(tmp_path, capsys, start):
    gpath = write(tmp_path, "k4.json", complete_graph(4).to_json())
    code, out, err = run_cli(["dp", "--graph", gpath, "--start", start], capsys)
    assert code == 2 and out == ""
    assert f"start {start}" in err


def test_discrete_kernel_command(tmp_path, pi3_file, capsys):
    kpath = write(tmp_path, "perm.json",
                  {"n": 3, "rates": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]})
    code, out, _ = run_cli(["discrete", "--kernel", kpath, "--pi", pi3_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["frak_f"] - 1.0) <= 1e-10
    assert abs(doc["hunter_trace"] - 2.0) <= 1e-10
    assert doc["checks"]["hunter_vs_frak_f"] <= 1e-8
    assert doc["checks"]["roundtrip_if_k0"] <= 1e-12


@pytest.mark.parametrize("rates, k0, calls", [
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], True, 1),
    ([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], False, 0),
])
def test_discrete_kernel_roundtrips_only_a_k0_kernel(tmp_path, pi3_file, capsys, monkeypatch,
                                                    rates, k0, calls):
    """``roundtrip_if_k0`` is 0 unless K has a zero diagonal entry, so
    ``to_kernel`` (and its irreducibility closure) runs only then."""
    seen = []
    monkeypatch.setattr(fastchain.cli, "to_kernel", lambda L: seen.append(L) or to_kernel(L))
    kpath = write(tmp_path, "K.json", {"n": 3, "rates": rates})
    code, out, _ = run_cli(["discrete", "--kernel", kpath, "--pi", pi3_file], capsys)
    assert code == 0 and len(seen) == calls
    roundtrip = json.loads(out)["checks"]["roundtrip_if_k0"]
    assert roundtrip <= 1e-12 if k0 else roundtrip == 0.0


@pytest.mark.parametrize("args, inputs, golden", [c for c in REPORT_CASES if c[0] == ["discrete"]])
def test_discrete_kernel_builds_one_clock(tmp_path, capsys, monkeypatch, args, inputs, golden):
    """``discrete --kernel`` builds two generators, the clock K - I (read by
    the hitting kernel and by ``to_generator``) and the normalized L, and
    prints its golden bytes."""
    built = []
    monkeypatch.setattr(fastchain.discrete_time, "Generator",
                        lambda rates: built.append(rates) or Generator(rates))
    code, out, _ = run_cli(write_inputs(tmp_path, args, inputs), capsys)
    assert (code, out) == (0, (GOLDEN / golden).read_text())
    assert len(built) == 2


def test_s2_takes_one_inverse(tmp_path, capsys, monkeypatch):
    """``s2`` reads ``f_vs_hitting`` from the F of the stationarity check, so
    the run inverts Pi - L once, and prints its golden bytes."""
    inverses = []
    monkeypatch.setattr(np.linalg, "inv", lambda a, inv=np.linalg.inv: inverses.append(a) or inv(a))
    code, out, _ = run_cli(write_inputs(tmp_path, ["s2"], {"--pi": [0.2, 0.3, 0.5]}), capsys)
    assert (code, out) == (0, (GOLDEN / "s2_pi235.json").read_text())
    assert len(inverses) == 1


def test_discrete_kernel_command_rejects_reducible_kernel(tmp_path, capsys):
    kpath = write(tmp_path, "two_swaps.json",
                  {"n": 4, "rates": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]})
    ppath = write(tmp_path, "pi4.json", [0.25] * 4)
    code, out, err = run_cli(["discrete", "--kernel", kpath, "--pi", ppath], capsys)
    assert code == 2 and out == ""
    assert "not strongly connected" in err


def test_discrete_compare_command(tmp_path, pi3_file, capsys):
    gpath = write(tmp_path, "s2.json", segment_graph(2).to_json())
    code, out, _ = run_cli(["discrete", "--compare", "--graph", gpath,
                            "--pi", pi3_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"] >= -1e-8


def test_counterexample_command(capsys):
    code, out, _ = run_cli(["counterexample"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["margin"] > 0
    assert doc["r_multiplicity"] == 1


def test_s2_command(tmp_path, capsys):
    ppath = write(tmp_path, "pi.json", [0.2, 0.3, 0.5])
    code, out, _ = run_cli(["s2", "--pi", ppath], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["f_min"] - 1.62) <= 1e-12
    assert doc["checks"]["stationarity_gap"] <= 1e-8


def test_probe_command(tmp_path, capsys):
    gpath = write(tmp_path, "k3.json", complete_graph(3).to_json())
    code, out, _ = run_cli(["probe-theorem2", "--graph", gpath, "--size", "0.01",
                            "--trials", "3", "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["success_fraction"] == 1.0


def test_malformed_graph_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(["dp", "--graph", str(bad)], capsys)
    assert code == 2
    assert out == ""  # no partial output
    assert "error" in err


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(["eval", "--generator", "/nonexistent.json"], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("kind, command, obj, detail", [
    ("graph", ["dp", "--graph"], {"n": 3}, "'edges'"),
    ("probability", ["s2", "--pi"], [[0.5, 0.5]], "weights must be a vector"),
    ("generator", ["eval", "--generator"], {"n": 3}, "'rates'"),
    ("kernel", ["discrete", "--kernel"], {"n": 3, "entries": [[1]]}, "'rates'"),
])
def test_bad_input_file_message(tmp_path, pi3_file, capsys, kind, command, obj, detail):
    path = write(tmp_path, "in.json", obj)
    argv = command + [path] + (["--pi", pi3_file] if kind == "kernel" else [])
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: bad {kind} file {path}: {detail}\n")


def test_discrete_compare_without_graph_exits_2(pi3_file, capsys):
    """The missing --graph used to reach open(None) and end in a TypeError."""
    code, out, err = run_cli(["discrete", "--compare", "--pi", pi3_file], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_dp_budgets_file_holding_an_object_exits_2(tmp_path, capsys):
    """The JSON object used to reach np.asarray and end in a TypeError."""
    gpath = write(tmp_path, "k4.json", complete_graph(4).to_json())
    bpath = write(tmp_path, "b.json", {"budgets": [1, 1, 1, 1]})
    code, out, err = run_cli(["dp", "--graph", gpath, "--mode", "continuous",
                              "--budgets", bpath], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_dp_budgets_must_be_finite(tmp_path, capsys):
    """A NaN budget used to reach the DP and exit 2 with 'negative shift count'."""
    gpath = write(tmp_path, "k3.json", complete_graph(3).to_json())
    bpath = write(tmp_path, "b.json", [float("nan"), 1.5, 1.5])
    code, out, err = run_cli(["dp", "--graph", gpath, "--mode", "continuous",
                              "--budgets", bpath], capsys)
    assert (code, out) == (2, "")
    assert "finite" in err


def assert_rejected(argv, tmp_path, capsys) -> str:
    """The run exits 2 with one ``error:`` line, nothing on stdout and no
    --output file; returns the line."""
    target = tmp_path / "out.json"
    code, out, err = run_cli(argv + ["--output", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()
    return err


@pytest.mark.parametrize("command, graph, detail", [
    ("optimize", {"n": 3, "edges": [[0, True], [1, 2], [2, 0]]}, "True"),
    ("dp", {"n": 3.9, "edges": [[0, 1], [1, 2], [2, 0]]}, "3.9"),
    ("dp", {"n": 3, "edges": [[0, 1.0], [1, 2], [2, 0]]}, "1.0"),
])
def test_graph_ids_must_be_integers(tmp_path, pi3_file, capsys, command, graph, detail):
    """A bool or float vertex id or n used to be truncated by int(): the
    bool edges ran optimize to exit 0 and n = 3.9 ran dp on 3 vertices."""
    argv = [command, "--graph", write(tmp_path, "g.json", graph)]
    err = assert_rejected(argv + (["--pi", pi3_file] if command == "optimize" else []),
                          tmp_path, capsys)
    assert f"must be integers, got {detail}" in err


@pytest.mark.parametrize("argv, detail", [
    (["probe-theorem2", "--graph", "{k3}", "--trials", "-2"], "trials"),
    (["probe-theorem2", "--graph", "{k3}", "--size", "-0.01", "--trials", "1"], "-0.01"),
    (["optimize", "--graph", "{k3}", "--pi", "{pi3}", "--starts", "-3"], "extra_starts"),
    (["optimize", "--graph", "{k3}", "--pi", "{pi3}", "--max-iters", "-1"], "max_iters"),
    (["optimize", "--graph", "{k3}", "--pi", "{pi3}", "--tol=-1e-8", "--max-iters", "5"], "tol"),
    (["optimize", "--graph", "{k3}", "--pi", "{pi3}", "--tol", "nan"], "tol"),
    (["optimize", "--graph", "{k3}", "--pi", "{pi3}", "--tol", "inf"], "tol"),
])
def test_negative_counts_and_sizes_exit_2(tmp_path, pi3_file, capsys, argv, detail):
    """Negative trials, sizes, starts and iteration counts, and a tolerance
    that is negative or not finite, used to run: --trials -2 reported a
    success fraction of -0.0 and --starts -3 ran no extra start."""
    paths = {"k3": write(tmp_path, "k3.json", complete_graph(3).to_json()), "pi3": pi3_file}
    err = assert_rejected([a.format(**paths) for a in argv], tmp_path, capsys)
    assert detail in err


@pytest.mark.parametrize("command, matrix, rates", [
    ("eval", "--generator", [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]),
    ("discrete", "--kernel", [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
])
def test_pi_of_the_wrong_length_names_both_sizes(tmp_path, capsys, command, matrix, rates):
    """A 2-entry pi for 3 states used to end in numpy's gufunc message."""
    mpath = write(tmp_path, "m.json", {"n": 3, "rates": rates})
    ppath = write(tmp_path, "pi2.json", [0.5, 0.5])
    err = assert_rejected([command, matrix, mpath, "--pi", ppath], tmp_path, capsys)
    assert err == "error: pi has 2 entries for 3 states\n"


@pytest.mark.parametrize("command, matrix, rates", [
    ("eval", "--generator", [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]),
    ("discrete", "--kernel", [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
], ids=["eval", "discrete"])
@pytest.mark.parametrize("header, detail", [
    ({"n": 5}, '"n" is 5 but "rates" is 3x3'),
    ({"n": 3.0}, "must be integers, got 3.0"),
    ({}, "'n'"),
], ids=["n_mismatch", "n_float", "n_missing"])
def test_matrix_files_must_state_their_size(tmp_path, pi3_file, capsys, command, matrix,
                                            rates, header, detail):
    """A generator or kernel file's "n" used to be ignored: {"n": 5, "rates":
    <3x3>} ran as a 3-state chain and exited 0.  It is read as graph files
    read theirs: an integer, required, equal to the size of "rates"."""
    mpath = write(tmp_path, "m.json", {**header, "rates": rates})
    err = assert_rejected([command, matrix, mpath, "--pi", pi3_file], tmp_path, capsys)
    assert detail in err


@pytest.mark.parametrize("argv", [
    ["eval", "--second", "--generator", "{ham3}"],
    ["dp", "--mode", "discrete", "--budgets", "{budgets}", "--graph", "{k3}"],
    ["discrete", "--compare", "--kernel", "/nonexistent.json", "--graph", "{k3}", "--pi", "{pi3}"],
    ["discrete", "--kernel", "{perm3}", "--pi", "{pi3}", "--graph", "{k3}"],
    ["discrete", "--kernel", "{perm3}", "--pi", "{pi3}", "--seed", "0"],
])
def test_options_that_would_do_nothing_exit_2(tmp_path, ham3_file, pi3_file, capsys, argv):
    """--second without --derivatives, --budgets in discrete mode, --kernel
    with --compare, and --graph or --seed with --kernel (even --seed 0, the
    seed --compare takes when none is given) used to be ignored, and exit 0."""
    paths = {"ham3": ham3_file, "pi3": pi3_file,
             "k3": write(tmp_path, "k3.json", complete_graph(3).to_json()),
             "perm3": write(tmp_path, "perm3.json",
                            {"n": 3, "rates": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}),
             "budgets": write(tmp_path, "b.json", [1.0, 1.0, 1.0])}
    assert_rejected([a.format(**paths) for a in argv], tmp_path, capsys)


def test_selftest_runs():
    """Like the report goldens, the residuals hold the last bits of LAPACK
    results, so the pinned lines belong to one numpy/OpenBLAS build."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "fastchain.cli", "--selftest"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: PASS" in proc.stdout
    assert proc.stdout == (GOLDEN / "selftest.txt").read_text()


def test_float_serialization_roundtrip():
    from fastchain._serialize import dumps

    doc = {"x": 1.62, "y": [1 / 3, 2.0], "n": 4, "s": "ok", "b": True}
    text = dumps(doc)
    back = json.loads(text)
    assert back["x"] == 1.62 and back["y"][0] == 1 / 3 and back["y"][1] == 2.0
    assert dumps(doc) == text
