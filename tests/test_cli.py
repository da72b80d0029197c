import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import dls_reference
import sievelab
from sievelab import cli, counterexample, dls, farey, sweeps

SIEVELAB = [sys.executable, "-m", "sievelab.cli"]


def run(*args, env=None, timeout=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        SIEVELAB + list(args), capture_output=True, text=True, env=full_env, timeout=timeout
    )


class TestFareyCommand:
    def test_order_four(self):
        proc = run("farey", "--order", "4")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 7  # header + 6 rows
        assert lines[-1].startswith("5,3,4,0.75,")

    def test_order_one(self):
        proc = run("farey", "--order", "1")
        assert proc.stdout == "index,p,q,value,gap_to_next\n0,0,1,0.0,\n"
        proc = run("farey", "--order", "1", "--format", "json")
        assert json.loads(proc.stdout) == [
            {"index": 0, "p": 0, "q": 1, "value": 0.0, "gap_to_next": ""}
        ]

    def test_rows_match_fractions(self):
        proc = run("farey", "--order", "12")
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        xs = [Fraction(int(r["p"]), int(r["q"])) for r in rows]
        assert [float(r["value"]) for r in rows] == [float(x) for x in xs]
        assert [r["gap_to_next"] for r in rows] == [str(y - x) for x, y in zip(xs, xs[1:])] + [""]

    def test_order_zero_is_usage_error(self):
        proc = run("farey", "--order", "0")
        assert proc.returncode == 2
        assert "order" in proc.stderr.lower() or "farey" in proc.stderr.lower()
        assert proc.stdout == ""

    @pytest.mark.parametrize("order", ["0", "-3", str(farey.FAREY_ORDER_MAX + 1)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_order_leaves_out_file(self, order, fmt, tmp_path):
        out = tmp_path / "report"
        out.write_text("old report\n")
        proc = run("farey", "--order", order, "--format", fmt, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert out.read_text() == "old report\n"
        assert os.listdir(tmp_path) == ["report"]  # no temp file left behind

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_order_above_the_cap_is_refused_before_any_block(self, fmt, monkeypatch, capsys):
        # Never run at the cap: F(2^16) has about 1.3e9 rows.
        monkeypatch.setattr(farey, "np", None)  # any array built would raise AttributeError
        argv = ["farey", "--order", str(farey.FAREY_ORDER_MAX + 1), "--format", fmt]
        assert cli.main(argv) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith("sievelab farey: ") and "order" in stderr
        assert len(stderr.splitlines()) == 1

    def test_json_format(self):
        proc = run("farey", "--order", "3", "--format", "json")
        rows = json.loads(proc.stdout)
        assert [r["q"] for r in rows] == [1, 3, 2, 3]


class TestVerifyClassical:
    def test_small_run_passes(self):
        proc = run(
            "verify-classical", "--instances", "20", "--Q", "12", "--N", "64",
            "--seed", "5", "--out", os.devnull,
        )
        assert proc.returncode == 0

    def test_injected_violation_fails(self):
        proc = run(
            "verify-classical", "--instances", "20", "--Q", "12", "--N", "64",
            "--seed", "5", "--rhs-scale", "1e-3", "--out", os.devnull,
        )
        assert proc.returncode == 1
        assert proc.stderr == "verify-classical: bound violated on at least one instance\n"

    def test_zero_sequences(self):
        proc = run(
            "verify-classical", "--instances", "5", "--Q", "8", "--N", "16",
            "--dist", "sparse", "--density", "0",
        )
        assert proc.returncode == 0
        for line in proc.stdout.strip().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[8]) == 0.0  # Z column
            assert float(cells[10]) == 0.0  # lhs column
        # lhs == rhs == 0 gives an empty ratio, not a 0/0.
        proc = run(
            "theorem2-sweep", "--Q", "4", "--N", "8", "--eps", "0.1",
            "--dist", "sparse", "--density", "0",
        )
        assert proc.returncode == 0
        header, *lines = proc.stdout.strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            cells = dict(zip(header.split(","), line.split(",")))
            assert float(cells["lhs"]) == 0.0 and cells["status"] == "ok"
            rhs = [v for c, v in cells.items() if c.startswith("rhs_")]
            ratios = [v for c, v in cells.items() if c.startswith("ratio_")]
            assert len(rhs) == len(ratios) == 6
            assert all(float(v) == 0.0 for v in rhs)
            assert all(v == "" for v in ratios)

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["verify-classical", "--instances", "10", "--seed", "9"]
        run(*args, "--out", str(out1))
        run(*args, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestTheorem2Sweep:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run(
            "theorem2-sweep", "--Q", "4,8", "--N", "16", "--alpha", "1/2",
            "--ratio", "0,1/2", "--eps", "0.1", "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2*1*1*2*1 rows
        header = lines[0].split(",")
        assert "ratio_theorem2" in header and "status" in header

    def test_json_mirrors_csv(self, tmp_path):
        args = [
            "theorem2-sweep", "--Q", "4", "--N", "16", "--alpha", "1",
            "--ratio", "0", "--eps", "0.1", "--seed", "3",
        ]
        csv_proc = run(*args)
        json_proc = run(*args, "--format", "json")
        rows = json.loads(json_proc.stdout)
        header = csv_proc.stdout.splitlines()[0].split(",")
        assert list(rows[0].keys()) == header

    def test_negative_radicand_row_continues(self):
        proc = run(
            "theorem2-sweep", "--Q", "4", "--N", "4", "--alpha", "1",
            "--ratio=-20", "--eps", "0.1", "--seed", "1",
        )
        assert proc.returncode == 0
        header, row = proc.stdout.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["status"] == "domain_error"
        assert cells["rhs_theorem2"] == "" and cells["ratio_theorem2"] == ""
        # Every other bound keeps its value and its ratio lhs / rhs.
        for name in ("classical", "sharp", "additive", "trivial", "conjecture"):
            rhs = float(cells["rhs_" + name])
            assert rhs > 0
            assert float(cells["ratio_" + name]) == float(cells["lhs"]) / rhs

    def test_negative_rational_lists(self):
        args = ["theorem2-sweep", "--Q", "4", "--N", "8", "--eps", "0.1", "--seed", "2"]
        bare = run(*args, "--alpha", "1/2", "--ratio", "-1/2,1/2")
        attached = run(*args, "--alpha=1/2", "--ratio=-1/2,1/2")
        assert bare.returncode == 0, bare.stderr
        assert bare.stdout == attached.stdout
        # A negative alpha now parses and is refused as a domain error.
        proc = run(*args, "--alpha", "-1/2")
        assert proc.returncode == 2
        assert "alpha" in proc.stderr

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--eps", "0,-1,nan"),
            ("--eps", "inf"),
            ("--alpha", "0"),
            ("--Q", "4,0"),
            ("--N", "0"),
        ],
    )
    def test_bad_grid_exits_before_the_run(self, tmp_path, option, value):
        grid = {"--Q": "4", "--N": "16", "--alpha": "1", "--ratio": "0", "--eps": "0.1"}
        grid[option] = value
        out = tmp_path / "sweep.csv"
        proc = run("theorem2-sweep", *(t for kv in grid.items() for t in kv), "--out", str(out))
        assert proc.returncode == 2
        assert "every %s" % option[2:] in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--Q", "4,x"], ["--N", "16,"], ["--eps", "0.1,y"], ["--alpha", "1/3,1/0"], ["--ratio=1/0"],
    ])
    def test_bad_list_item_is_a_usage_error(self, argv, tmp_path, capsys):
        # Each item of a comma list is parsed by the option's item type: one bad item
        # refuses the whole option while parsing, before any driver runs.
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["theorem2-sweep", *argv, "--out", str(out)])
        assert exc.value.code == 2
        stdout, stderr = capsys.readouterr()
        option = argv[0].split("=")[0]
        errors = [line for line in stderr.splitlines() if "argument --" in line]
        assert stdout == "" and len(errors) == 1
        assert errors[0].startswith("sievelab theorem2-sweep: error: argument %s: " % option)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rerun_is_byte_identical(self, fmt, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        args = [
            "theorem2-sweep", "--Q", "4,8", "--N", "16,64", "--alpha", "1/3",
            "--ratio", "1/2", "--eps", "0.1,0.25", "--seed", "11", "--format", fmt,
        ]
        assert run(*args, "--out", str(out1)).returncode == 0
        assert run(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_bytes()) > 1000


@pytest.mark.parametrize(
    "argv, driver, expected",
    [
        (["lemma4", "--N", "8"], "lemma4_table", ((), {"N": 8})),
        (["verify-classical", "--seed", "7"], "verify_classical", ((), {"seed": 7})),
        (["dls-check", "--size-max", "9"], "dls_random_sweep", ((), {"size_max": 9})),
        (["theorem2-sweep"], "theorem2_sweep", ((), {})),
    ],
    ids=["lemma4", "verify-classical", "dls-check", "theorem2-sweep"],
)
def test_driver_gets_only_the_given_options(argv, driver, expected, monkeypatch, capsys):
    # main must reach the driver bound on sweeps at call time (a tracer rebinds
    # it), and an option left out must leave the driver's own default in force.
    calls = []
    returned = {
        "theorem2_sweep": (sweeps.THEOREM2_COLUMNS, []),
        "lemma4_table": sweeps.lemma4_table(1),  # a one-row table, for write_lemma4
    }.get(driver, ([], True))

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return returned

    monkeypatch.setattr(sweeps, driver, record)
    assert cli.main(argv) == 0
    assert calls == [expected]


@pytest.mark.parametrize(
    "command",
    [
        ("verify-classical", "--instances", "3", "--dist", "sparse", "--density", "nan"),
        ("verify-classical", "--instances", "3", "--dist", "sparse", "--density", "-1"),
        ("verify-classical", "--instances", "3", "--dist", "sparse", "--density", "2"),
        ("theorem2-sweep", "--Q", "4", "--N", "8", "--dist", "sparse", "--density", "nan"),
        ("theorem2-sweep", "--Q", "4", "--N", "8", "--dist", "sparse", "--density", "inf"),
        ("verify-classical", "--instances", "3", "--rhs-scale", "nan"),
        ("verify-classical", "--instances", "3", "--rhs-scale", "inf"),
        ("verify-classical", "--instances", "3", "--rhs-scale", "0"),
        ("verify-classical", "--instances", "3", "--rhs-scale", "-1"),
        ("verify-classical", "--instances", "0", "--dist", "sparse", "--density", "nan"),
    ],
)
def test_bad_density_or_rhs_scale_is_refused(command, tmp_path):
    assert_refused(command, tmp_path)


def assert_refused(command, tmp_path):
    # Exit 2 with one "sievelab <command>:" line, and nothing on stdout or in --out.
    out = tmp_path / "report"
    for extra in ([], ["--out", str(out)]):
        proc = run(*command, *extra)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("sievelab %s: " % command[0])
        assert len(proc.stderr.splitlines()) == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command",
    [
        ("dls-check", "--instances", "2", "--scale-min", "nan"),
        ("dls-check", "--instances", "2", "--scale-max", "nan"),
        ("dls-check", "--instances", "2", "--scale-max", "inf"),
        ("dls-check", "--instances", "2", "--scale-min", "inf", "--scale-max", "inf"),
        ("dls-check", "--instances", "2", "--scale-min", "0"),
        ("dls-check", "--instances", "2", "--scale-min", "-1"),
        ("dls-check", "--instances", "2", "--scale-min", "-2", "--scale-max", "-1"),
        ("dls-check", "--instances", "2", "--scale-min", "5", "--scale-max", "1"),
        ("dls-check", "--instances", "2", "--size-max", "0"),
        ("dls-check", "--instances", "2", "--size-max", "-4"),
        ("dls-check", "--instances", "-3"),
        ("verify-classical", "--instances", "-3"),
        ("verify-classical", "--Q", "1"),
        ("verify-classical", "--N", "0"),
        ("lemma4", "--N", "2", "--eps", "inf"),
        ("lemma4", "--N", "2", "--eps=-inf"),
        ("lemma4", "--N", "2", "--eps", "nan"),
        ("lemma4", "--N", "2", "--eps", "0"),
        ("lemma4", "--N", "2", "--alpha", "0"),
    ],
)
def test_bad_count_scale_or_eps_is_refused(command, tmp_path):
    assert_refused(command, tmp_path)


def test_refusals_come_before_any_row(monkeypatch):
    # The checks run in the drivers, before the first instance is drawn.
    dls_reference.forbid_rows(monkeypatch)
    for kwargs in ({"scale_min": float("nan")}, {"size_max": 0}, {"instances": -1}):
        with pytest.raises(ValueError):
            sweeps.dls_random_sweep(**kwargs)
    with pytest.raises(ValueError, match="instances"):
        sweeps.verify_classical(instances=-1)
    # N above 2^30 only here, where no row can be drawn: a run would first allocate its N.
    for name, value in (("q_max", 1), ("q_max", -5), ("n_max", 0), ("n_max", 2**30 + 1)):
        with pytest.raises(ValueError, match=name):
            sweeps.verify_classical(**{name: value})
    with pytest.raises(ValueError, match="every N"):
        sweeps.theorem2_sweep(n_values=(16, 2**30 + 1))


@pytest.mark.parametrize("command", [
    ["farey", "--order", "3"],
    ["verify-classical", "--instances", "2"],
    ["theorem2-sweep", "--Q", "4", "--N", "8"],
    ["counterexample", "--p", "3", "--N", "9"],
    ["dls-check", "--instances", "2"],
    ["lemma4", "--N", "4"],
])
def test_empty_out_is_refused_before_any_work(command, monkeypatch, capsys, tmp_path):
    # An empty path names no file: the run neither computes nor writes, and
    # no <cwd>.<pid>.tmp appears beside the working directory.
    monkeypatch.setitem(cli._HANDLERS, command[0], lambda args: pytest.fail("the command ran"))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert cli.main(command + ["--out", ""]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr == "sievelab %s: --out must not be empty\n" % command[0]
    assert os.listdir(tmp_path) == ["work"] and os.listdir(work) == []


def test_n_above_the_row_cap_is_refused_before_any_draw(monkeypatch, capsys, tmp_path):
    # In process, with drawing and summing a counterexample term made to fail: a
    # run above the cap would otherwise allocate its N-length arrays.
    dls_reference.forbid_rows(monkeypatch)
    monkeypatch.setattr(counterexample, "_modulus_terms", lambda *a: pytest.fail("a term was summed"))
    over = sweeps.N_MAX + 1
    with pytest.raises(ValueError, match="n_max"):
        sweeps.verify_classical(n_max=over)
    with pytest.raises(ValueError, match="every N"):
        sweeps.theorem2_sweep(n_values=(16, over))
    with pytest.raises(ValueError, match="cap"):
        counterexample.build(2, over + 1)
    assert sweeps.verify_classical(instances=0, n_max=sweeps.N_MAX) == ([], True)
    assert sweeps.theorem2_sweep(q_values=(), n_values=(sweeps.N_MAX,))[1] == []  # no row drawn
    for argv in (["verify-classical", "--N", str(over)], ["theorem2-sweep", "--N", str(over)],
                 ["counterexample", "--p", "2", "--N", str(over + 1)]):
        assert_refused_in_process(argv, capsys, tmp_path)


def assert_refused_in_process(argv, capsys, tmp_path):
    # As assert_refused, through cli.main: exit 2, one stderr line, no report.
    out = tmp_path / "report"
    for extra in ([], ["--out", str(out)]):
        assert cli.main(argv + extra) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith("sievelab %s: " % argv[0])
        assert len(stderr.splitlines()) == 1
    assert os.listdir(tmp_path) == []


BIG = str(sweeps.VALUE_MAX)


@pytest.mark.parametrize("option", [
    ["--M", BIG], ["--M=-" + BIG], ["--alpha", BIG], ["--alpha", "1/3," + BIG],
    ["--ratio", BIG], ["--ratio=-" + BIG], ["--ratio", str(10 ** 400)],
])
def test_grid_values_past_the_float_cap_are_refused(option, monkeypatch, capsys, tmp_path):
    dls_reference.forbid_rows(monkeypatch)
    assert_refused_in_process(["theorem2-sweep", "--Q", "4", "--N", "16", *option],
                              capsys, tmp_path)


@pytest.mark.parametrize("field", ["m_values", "alpha_values", "ratios"])
def test_grid_values_just_below_the_float_cap_give_rows(field):
    below = sweeps.VALUE_MAX - 1
    grid = {"m_values": (below,), "alpha_values": (Fraction(below),), "ratios": (Fraction(below),)}
    _, rows = sweeps.theorem2_sweep(q_values=(4,), n_values=(16,), eps_values=(0.1,),
                                    **{field: grid[field]})
    assert rows and all(r["status"] == "ok" for r in rows)
    assert all(0.0 < r["rhs_theorem2"] < float("inf") for r in rows)


@pytest.mark.parametrize("option", [
    ["--ratio", "0", "--eps", "700"],
    ["--ratio=-1/" + str(10 ** 400)],
    ["--alpha", "1/" + str(10 ** 400)],
])
def test_right_sides_past_the_float_range_read_inf(option, capsys):
    # Pi overflows (huge eps, huge b, tiny alpha): the row is written, with
    # rhs_theorem2 = inf and ratio 0, and the run exits 0.
    assert cli.main(["theorem2-sweep", "--Q", "4", "--N", "16", "--alpha", "1/3", *option]) == 0
    stdout, stderr = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(stdout)))
    assert rows and stderr == ""
    assert {(r["rhs_theorem2"], r["ratio_theorem2"], r["status"]) for r in rows} == {
        ("inf", "0.0", "ok")}


def test_q_above_the_cap_is_refused_before_any_farey_build(monkeypatch, capsys, tmp_path):
    assert sweeps.Q_MAX >= max(43 ** 2, 512)  # the counterexample's p <= 43, the Q = 512 scale run
    monkeypatch.setattr(sweeps, "farey_by_denominator", lambda Q: pytest.fail("F(Q) was built"))
    over = sweeps.Q_MAX + 1
    with pytest.raises(ValueError, match="q_max"):
        sweeps.verify_classical(q_max=over)
    with pytest.raises(ValueError, match="every Q"):
        sweeps.theorem2_sweep(q_values=(4, over))
    assert sweeps.theorem2_sweep(q_values=(sweeps.Q_MAX,), m_values=())[1] == []
    assert sweeps.verify_classical(instances=0, q_max=sweeps.Q_MAX) == ([], True)
    for argv in (["verify-classical", "--Q", str(over)], ["theorem2-sweep", "--Q", str(over)]):
        assert_refused_in_process(argv, capsys, tmp_path)


@pytest.mark.parametrize("p", [47, 2**61 - 1])
def test_counterexample_q_above_the_cap_is_refused_before_any_work(p, monkeypatch, capsys,
                                                                  tmp_path):
    # Q = p^2 is capped by sweeps.Q_MAX; 2^61 - 1 is prime, and checked against the cap first.
    for name in ("is_prime", "_modulus_terms"):
        monkeypatch.setattr(counterexample, name, lambda *a, _n=name, **k: pytest.fail(_n + " ran"))
    assert_refused_in_process(["counterexample", "--p", str(p), "--N", "47"], capsys, tmp_path)
    assert cli.main(["counterexample", "--p", str(p), "--N", "47"]) == 2
    assert capsys.readouterr().err == (
        "sievelab counterexample: p = %d exceeds the cap: Q = p^2 must not exceed %d\n"
        % (p, sweeps.Q_MAX))


@pytest.mark.parametrize("argv", [
    ["verify-classical", "--instances", "0"],
    ["verify-classical", "--Q", "2048", "--instances", "3"],
    ["theorem2-sweep", "--Q", "2048", "--N", "16"],
    ["dls-check", "--instances", "0"],
    ["dls-check", "--instances", "3"],
])
def test_negative_seed_is_refused_before_any_work(argv, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sweeps, "farey_by_denominator", lambda Q: pytest.fail("F(Q) was built"))
    dls_reference.forbid_rows(monkeypatch)
    assert_refused_in_process(argv + ["--seed", "-1"], capsys, tmp_path)
    assert cli.main(argv + ["--seed=-7"]) == 2
    assert capsys.readouterr().err == "sievelab %s: seed must be >= 0, got -7\n" % argv[0]


def test_dls_size_and_scale_caps_are_refused_before_any_row(monkeypatch, capsys, tmp_path):
    # Never run above the caps: an instance is dense in m x n.
    dls_reference.forbid_rows(monkeypatch)
    with pytest.raises(ValueError, match="size_max"):
        sweeps.dls_random_sweep(size_max=sweeps.DLS_SIZE_MAX + 1)
    with pytest.raises(ValueError, match="scale_max"):
        sweeps.dls_random_sweep(scale_min=1.0, scale_max=2e154)
    table, all_hold = sweeps.dls_random_sweep(instances=0, size_max=sweeps.DLS_SIZE_MAX)
    assert len(table) == 0 and all_hold
    for option in (["--size-max", str(sweeps.DLS_SIZE_MAX + 1)], ["--scale-max", "2e154"],
                   ["--scale-min", "1e200", "--scale-max", "1e200"]):
        assert_refused_in_process(["dls-check", "--instances", "3", *option], capsys, tmp_path)


def test_dls_largest_scale_below_the_cap_runs_without_warnings():
    # pyproject.toml turns a RuntimeWarning (numpy overflow) into an error here.
    # The right side overflows, so each row is an anomaly: it checks nothing.
    table, all_hold = sweeps.dls_random_sweep(instances=3, scale_min=1e154, scale_max=1e154)
    assert not all_hold and len(table) == 3
    assert all(lhs == lhs and rhs == float("inf") for lhs, rhs in zip(table.lhs, table.rhs))
    assert all(table.holds) and all(table.anomaly)


def test_zero_instances_write_a_header_only_report():
    # The density is read only for sparse, so a NaN one goes with the other distributions.
    for argv in (["dls-check"], ["verify-classical"],
                 ["verify-classical", "--dist", "gaussian", "--density", "nan"]):
        proc = run(*argv, "--instances", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 1


class TestCounterexampleCommand:
    def test_failure_demonstrated(self, tmp_path):
        out = tmp_path / "cx.json"
        proc = run("counterexample", "--p", "3", "--N", "810", "--out", str(out))
        assert proc.returncode == 0
        assert "failure demonstrated: 3936600 > 2165130" in proc.stdout
        payload = json.loads(out.read_text())
        assert os.listdir(tmp_path) == ["cx.json"]  # no temp file left behind
        assert payload["lower_bound_exceeds_naive"] is True
        assert payload["modulus_term_Q"] == 3936600.0

    def test_failure_demonstrated_by_the_full_sum(self, tmp_path):
        # Only the full sum exceeds the bound: 9702 > 8748; the q = 9 term is phi(9) 27^2 = 4374.
        out = tmp_path / "cx.json"
        proc = run("counterexample", "--p", "3", "--N", "27", "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == (
            "failure demonstrated by the full sum: 9702 > 8748\n"
            "p=3 Q=9 N=27 Z=81 lhs_full=9702 modulus_term_Q=4374 naive_rhs=8748\n")
        payload = json.loads(out.read_text())
        assert list(payload)[-1] == "full_exceeds_naive" and payload["full_exceeds_naive"] is True
        assert payload["lower_bound_exceeds_naive"] is False

    def test_no_failure_at_small_size(self):
        proc = run("counterexample", "--p", "3", "--N", "9")
        assert proc.returncode == 0
        assert "naive bound not violated" in proc.stdout

    def test_composite_p_rejected(self):
        proc = run("counterexample", "--p", "4", "--N", "8")
        assert proc.returncode == 2
        assert "not prime" in proc.stderr

    def test_p_above_cap_refused(self, tmp_path):
        out = tmp_path / "cx.json"
        proc = run("counterexample", "--p", "47", "--N", "47", "--out", str(out))
        assert 47 ** 2 > sweeps.Q_MAX
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "sievelab counterexample: p = 47 exceeds the cap: Q = p^2 must not exceed %d\n"
            % sweeps.Q_MAX)
        assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_dev_stdout_writes_to_stdout(fmt):
    plain = run("farey", "--order", "5", "--format", fmt)
    proc = run("farey", "--order", "5", "--format", fmt, "--out", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == plain.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("command", [("farey", "--order", "5"), ("dls-check", "--instances", "3")])
def test_out_dev_stdout_appends_to_a_redirect(command, tmp_path):
    # As `sievelab ... --out /dev/stdout >> log` runs it: the earlier lines stay.
    log = tmp_path / "log"
    log.write_text("earlier line\n")
    with open(log, "a") as fh:
        proc = subprocess.run(
            SIEVELAB + [*command, "--out", "/dev/stdout"], stdout=fh, stderr=subprocess.PIPE
        )
    assert proc.returncode == 0, proc.stderr
    assert log.read_text() == "earlier line\n" + run(*command).stdout
    assert os.listdir(tmp_path) == ["log"]


@pytest.mark.parametrize(
    "command",
    [("farey", "--order", "5"), ("counterexample", "--p", "3", "--N", "9")],
)
def test_unwritable_out_is_usage_error(command, tmp_path):
    out = tmp_path / "missing" / "report"
    proc = run(*command, "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("sievelab %s: " % command[0])
    assert len(proc.stderr.splitlines()) == 1
    assert os.listdir(tmp_path) == []  # no temp file left behind


def dls_checks_without_finiteness(instances, calls):
    # dls.dls_checks as it was before a non-finite side was flagged.
    calls.append(len(instances))
    return [dls_reference.dls_check(inst, finite_rule=False) for inst in instances]


class TestDlsCheckCommand:
    def test_defaults_hold(self):
        proc = run("dls-check", "--instances", "50", "--out", os.devnull)
        assert proc.returncode == 0

    def test_right_side_past_the_float_range_fails_the_run(self):
        proc = run("dls-check", "--instances", "3", "--scale-min", "1e154", "--scale-max", "1e154")
        assert proc.returncode == 1
        assert proc.stderr == "dls-check: inequality failed or anomaly flagged\n"
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 3
        assert all(float(r["lhs"]) < float("inf") and r["rhs"] == "inf" for r in rows)
        assert {(r["holds"], r["anomaly"]) for r in rows} == {("true", "true")}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_finite_runs_keep_their_bytes(self, fmt, monkeypatch, capsys):
        argv = ["dls-check", "--instances", "200", "--seed", "3", "--format", fmt]
        assert cli.main(argv) == 0
        got = capsys.readouterr().out
        calls = []
        monkeypatch.setattr(dls, "dls_checks", lambda insts: dls_checks_without_finiteness(insts, calls))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == got
        assert sum(calls) == 200  # the sweep's path ran the old rule on every row


class TestLemma4Command:
    def test_table(self):
        proc = run("lemma4", "--N", "8", "--alpha", "1/12")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 1 + 64
        header = lines[0].split(",")
        assert "T_bruteforce" in header and "bound_proof_form" in header

    def test_readme_negative_ratio(self):
        # The README's command: a bare "-3/4" must parse as the ratio.
        proc = run("lemma4", "--N", "30", "--alpha", "1/12", "--ratio", "-3/4")
        assert proc.returncode == 0, proc.stderr
        attached = run("lemma4", "--N", "30", "--alpha", "1/12", "--ratio=-3/4")
        assert attached.returncode == 0
        assert proc.stdout == attached.stdout
        row = proc.stdout.splitlines()[1].split(",")
        assert row[8:10] == ["-3", "4"]  # the a and b columns

    def test_disagreeing_counters_exit_1(self, monkeypatch, capsys):
        real = sweeps.dls.lemma4_count_divisor

        def off_by_one(*args):
            counts = real(*args)
            counts[0, 1] += 1
            return counts

        monkeypatch.setattr(sweeps.dls, "lemma4_count_divisor", off_by_one)
        assert cli.main(["lemma4", "--N", "3"]) == 1
        out, err = capsys.readouterr()
        assert err == "lemma4: counters disagree\n"
        assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["true", "false"] + ["true"] * 7

    def test_cap_refusal(self):
        proc = run("lemma4", "--N", "501")
        assert proc.returncode == 2
        assert "cap" in proc.stderr

    def test_int64_overflow_refusal(self):
        proc = run("lemma4", "--M", str(2 ** 62), "--N", "2", "--ratio", "1/4")
        assert proc.returncode == 2
        assert "int64" in proc.stderr and proc.stdout == ""

    def test_tiny_alpha(self):
        # A window wider than 2 max|b g| holds every nonzero b*g: 6 of 9 pairs.
        proc = run("lemma4", "--N", "3", "--alpha", "1/%d" % 10 ** 30, timeout=30)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 9
        assert all(r["T_bruteforce"] == r["T_divisor"] == "6" for r in rows)


def test_version_flag():
    proc = run("--version")
    assert proc.returncode == 0
    assert "sievelab" in proc.stdout


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from sievelab import *", namespace)  # AttributeError on a stale name
    assert set(sievelab.__all__) <= set(namespace)


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        # A parser built at import would call the poisoned constructor.
        code = ("import argparse; argparse.ArgumentParser = None; import sievelab.cli as c; "
                "print(c.build_parser.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_parser_leaves_numpy_random_unloaded(self):
        # numpy.random loads at a sweep's first row, not in a run's set-up.
        code = ("import sys, sievelab.cli as c; c.build_parser(); print('numpy.random' in sys.modules); "
                "next(c.sweeps._row_streams(0, [0])); print('numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\nTrue\n"

    @staticmethod
    def lemma4_rows(capsys, *argv):
        assert cli.main(["lemma4", *argv]) == 0
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_options_do_not_leak_between_calls(self, capsys):
        assert {r["M"] for r in self.lemma4_rows(capsys, "--N", "4", "--M", "3")} == {"3"}
        rows = self.lemma4_rows(capsys, "--N", "4")
        assert {r["M"] for r in rows} == {"0"} and rows[0]["m"] == "1"

    @pytest.mark.parametrize("argv", [["lemma4"], ["lemma4", "--N", "x"], ["no-such-command"],
                                      ["--version"], ["lemma4", "--help"]])
    def test_calls_after_an_exit_still_parse(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli.main(argv)
        capsys.readouterr()
        assert len(self.lemma4_rows(capsys, "--N", "3", "--alpha", "1/12")) == 9

    def test_negative_ratio_on_a_reused_parser(self, capsys):
        for _ in range(2):
            rows = self.lemma4_rows(capsys, "--N", "5", "--ratio", "-3/4")
            assert {(r["a"], r["b"]) for r in rows} == {("-3", "4")}
