import json

import numpy as np
import pytest

import qincompat as q
from conftest import count_row_spaces
from qincompat import sdpcore
from qincompat.cli import EXIT_FEASIBLE, EXIT_INFEASIBLE, EXIT_UNDECIDED, _boundary_lam2, _code, _region_rows, main
from qincompat.sdpcore import SolveResult, Verdict, bisect_threshold


@pytest.fixture
def files(tmp_path):
    def save(name, dev):
        path = tmp_path / name
        q.save_device(dev, path)
        return str(path)
    return save


@pytest.fixture
def xz_paths(files, sharp_x, sharp_z):
    return [files("x.json", sharp_x), files("z.json", sharp_z)]


@pytest.fixture
def noisy_xz_paths(files, sharp_x, sharp_z):
    return [files("nx.json", q.mix_with_trivial(sharp_x, 0.5)),
            files("nz.json", q.mix_with_trivial(sharp_z, 0.5))]


def test_check_joint_exit_codes(xz_paths, noisy_xz_paths, capsys):
    assert main(["check-joint", *xz_paths]) == 1
    assert "INFEASIBLE" in capsys.readouterr().out
    assert main(["check-joint", *noisy_xz_paths]) == 0
    assert "FEASIBLE" in capsys.readouterr().out


@pytest.mark.parametrize("verdict,code", [
    (Verdict.FEASIBLE, EXIT_FEASIBLE),
    (Verdict.INFEASIBLE_CERTIFIED, EXIT_INFEASIBLE),
    (Verdict.UNDECIDED, EXIT_UNDECIDED),
])
def test_exit_code_needs_evidence(verdict, code):
    # only a certificate makes an infeasible exit; an iteration-cap tail is undecided
    assert _code(SolveResult(verdict, None, 50_000, 1e-3)) == code


def test_check_joint_json_and_witness(noisy_xz_paths, tmp_path, capsys):
    out = tmp_path / "joint.json"
    code = main(["check-joint", *noisy_xz_paths, "--json",
                 "--witness", "--out", str(out)])
    assert code == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    payload = json.loads(first_line)
    assert payload["verdict"].startswith("FEASIBLE")
    witness = q.load_device(out)
    assert isinstance(witness, q.Observable)
    assert isinstance(witness.outcomes[0], tuple)


def test_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["check-joint", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["check-joint", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()
    # a dimension that is not an integer, outcomes that are not a list, and fewer
    # outcome labels than effects are malformed (3), not a certified infeasible
    # verdict (1) from a TypeError
    tester = json.loads(q.serialize(q.prepare_measure_tester(np.eye(2) / 2, q.sharp_observable(np.eye(2)))))
    obs = json.loads(q.serialize(q.sharp_observable(np.eye(2))))
    for name, command, edit in (("tester.json", "process", {"in_dim": 2.0}),
                                ("outcomes.json", "check-joint", {"outcomes": 5}),
                                ("labels.json", "process", {"outcomes": [0]})):
        path = tmp_path / name
        path.write_text(json.dumps({**(tester if command == "process" else obs), **edit}))
        assert main([command, str(path), str(path)]) == 3
        assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_malformed(xz_paths, capsys):
    # a usage error is malformed input (3), not undecided (2); flags are
    # registered only on the subcommands that read them
    assert main(["check-joint", *xz_paths, "--bogus"]) == 3
    assert main(["degree", *xz_paths, "--witness"]) == 3
    assert main(["obs-channel", *xz_paths, "--witness"]) == 3
    assert main(["reproduce", "process-q", "--json"]) == 3
    assert main([]) == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--tol", "inf"], ["--tol", "nan"], ["--tol", "0"],
                                   ["--max-iter", "0"]])
def test_bad_tolerances_exit_malformed(xz_paths, flags, capsys):
    # an infinite tolerance would accept the sharp pair's failed solve as a witness
    assert main(["check-joint", *xz_paths, *flags]) == 3
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["check-joint", "--help"]) == 0
    assert "--witness" in capsys.readouterr().out
    assert main(["degree", "--help"]) == 0
    assert "--witness" not in capsys.readouterr().out


def test_wrong_kind_rejected(files, capsys):
    chan = files("chan.json", q.identity_channel(2))
    assert main(["check-joint", chan]) == 3
    assert "error:" in capsys.readouterr().err


def test_degree_command(xz_paths, capsys):
    assert main(["degree", *xz_paths, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == pytest.approx(1 / np.sqrt(2), abs=5e-3)
    assert payload["noise_mode"] == "optimized"


def test_region_command(xz_paths, tmp_path, capsys):
    out = tmp_path / "region.csv"
    code = main(["region", *xz_paths, "--grid", "0:1:3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "weights,verdict"
    assert len(lines) == 10
    rows = dict(tuple(line.rsplit(",", 1)) for line in lines[1:])
    assert rows["0.000000,0.000000"].startswith("FEASIBLE")
    assert rows["1.000000,1.000000"].startswith("INFEASIBLE")


def test_region_grid_is_factorized_once(mub3, monkeypatch):
    # every point of a region grid has one layout, so its problem is factorized once for
    # the 441 points; the 41 points with a weight 1 have sharp margins, whose kernels
    # expose a face, a problem of its own.  Feasible up to the disc, as at the parent:
    # row i (the first weight) holds FEASIBLE[i] feasible points, then certified ones
    counts = count_row_spaces(monkeypatch)
    x, _, z = mub3
    rows = _region_rows([x, z], np.linspace(0, 1, 21), q.NoiseClass.UNIFORM_NOISE, q.DEFAULT_TOLS)
    assert counts == {"face": 41, "problem": 1}
    assert sdpcore._joint_layout.cache_info().misses == 1
    feasible = [21, 20, 20, 20, 20, 20, 20, 19, 19, 18, 18, 17, 17, 16, 15, 14, 13, 11, 9, 7, 1]
    want = [v for k in feasible for v in ["FEASIBLE"] * k + ["INFEASIBLE_CERTIFIED"] * (21 - k)]
    assert [verdict for _, verdict in rows] == want


def test_region_json_has_one_object_per_point(xz_paths, capsys):
    assert main(["region", *xz_paths, "--grid", "0:1:3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["weights"] for r in rows] == [[a, b] for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]
    assert all(set(r) == {"weights", "verdict"} for r in rows)
    assert rows[0]["verdict"] == "FEASIBLE" and rows[-1]["verdict"] == "INFEASIBLE_CERTIFIED"


def _refuse(*args, **kwargs):
    raise AssertionError("the grid was allocated before its size was checked")


@pytest.mark.parametrize("n_files,count", [(2, 10_000_000_000_000), (5, 200)])
def test_region_checks_its_size_before_allocating(files, sharp_x, n_files, count, monkeypatch, capsys):
    # 1e26 and 3.2e11 points: numpy would fail to allocate them, as an exit 1
    monkeypatch.setattr(np, "linspace", _refuse)
    monkeypatch.setattr(np, "meshgrid", _refuse)
    paths = [files(f"o{k}.json", sharp_x) for k in range(n_files)]
    assert main(["region", *paths, "--grid", f"0:1:{count}"]) == 3
    assert "exceed the supported 10000" in capsys.readouterr().err


def test_criteria_command(xz_paths, capsys):
    code = main(["criteria", *xz_paths, "--weights", "0.7,0.7", "--json"])
    assert code == 1  # sharp pair, decisive joint check fails
    payload = json.loads(capsys.readouterr().out)
    assert payload["joint"]["verdict"].startswith("INFEASIBLE")
    assert payload["jordan"]["certified"] is False
    assert payload["commutator"][0]["certified"] is True
    assert payload["mur"]["rhs"] == pytest.approx(0.5)
    # 0.49 + 0.49 <= 1: the squared-weight test cannot certify these weights
    assert payload["squared_weight"]["certified"] is False


def test_channel_compat_command(files, capsys):
    dz = files("dz.json", q.diag_channel(dim=2))
    ident = files("id.json", q.identity_channel(2))
    assert main(["channel-compat", dz, dz]) == 0
    capsys.readouterr()
    assert main(["channel-compat", ident, ident]) == 1
    capsys.readouterr()
    assert main(["channel-compat", dz, dz, "--noise-mode", "arbitrary", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["robustness"] == pytest.approx(1.0, abs=1e-9)


def test_obs_channel_command(files, capsys):
    obs = files("m.json", q.mix_with_trivial(
        q.Observable(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])), 0.5))
    sink = files("sink.json", q.constant_channel(q.State(np.eye(2) / 2), 2))
    ident = files("id.json", q.identity_channel(2))
    sharp = files("sharp.json",
                  q.Observable(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])))
    assert main(["obs-channel", obs, sink]) == 0
    capsys.readouterr()
    assert main(["obs-channel", sharp, ident]) == 1
    capsys.readouterr()


def test_obs_channel_over_the_outcome_cap_exits_malformed(files, rng, capsys):
    obs = files("m65.json", q.random_povm(2, 65, rng))
    ident = files("id.json", q.identity_channel(2))
    assert main(["obs-channel", obs, ident]) == 3
    assert "65 outcomes" in capsys.readouterr().err


def test_steering_command(files, xz_paths, capsys):
    asm = q.max_entangled_assemblage(
        [q.mix_with_trivial(o, 0.6) for o in q.fourier_pair(2)])
    path = files("asm.json", asm)
    assert main(["steering", path]) == 0
    out = capsys.readouterr().out
    assert "FEASIBLE" in out
    assert main(["steering", *xz_paths, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True


def test_process_command(files, sharp_z, capsys):
    t0 = files("t0.json", q.prepare_measure_tester(np.diag([1.0, 0.0]).astype(complex), sharp_z))
    t1 = files("t1.json", q.prepare_measure_tester(np.diag([0.0, 1.0]).astype(complex), sharp_z))
    assert main(["process", t0, t1, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_commutator"] < 1e-12
    assert payload["pair"]["verdict"].startswith("INFEASIBLE")
    assert payload["degree"] == pytest.approx(0.5, abs=5e-3)


def test_order_command(files, sharp_z, capsys):
    noisy = files("noisy.json", q.mix_with_trivial(sharp_z, 0.5))
    sharp = files("sharp.json", sharp_z)
    assert main(["order", noisy, sharp]) == 0
    capsys.readouterr()
    assert main(["order", sharp, noisy]) == 1
    capsys.readouterr()


def test_order_undecided_exits_2(files, rng, capsys):
    # a coarse-graining is below its fine observable; a solve stopped before
    # it can tell is undecided, not infeasible
    fine = q.random_povm(2, 3, rng)
    fine_path = files("fine.json", fine)
    coarse_path = files("coarse.json", q.binarize(fine, [0, 1]))
    assert main(["order", coarse_path, fine_path, "--tol", "1e-18", "--max-iter", "20",
                 "--json"]) == EXIT_UNDECIDED
    payload = json.loads(capsys.readouterr().out)
    assert payload["below"] is False
    assert payload["solve"]["verdict"] == "UNDECIDED"
    assert main(["order", coarse_path, fine_path]) == EXIT_FEASIBLE
    capsys.readouterr()


def test_reproduce_process_q(tmp_path, capsys):
    out = tmp_path / "tables"
    assert main(["reproduce", "process-q", "--out", str(out)]) == 0
    capsys.readouterr()
    files = list(out.glob("*.csv"))
    assert files
    # the degree is certified feasible within the bisection tolerance of 1/2,
    # and 1/2 (certified feasible) lies below the search's certified upper end
    degree = float(files[0].read_text().splitlines()[-1].split(",")[-1])
    assert abs(degree - 0.5) <= q.DEFAULT_TOLS.bisect_tol
    basis = q.sharp_observable(np.eye(2))
    testers = [q.prepare_measure_tester(np.diag(p).astype(complex), basis) for p in ([1.0, 0.0], [0.0, 1.0])]
    assert 0.5 <= q.tester_degree(*testers).upper.at


def test_reproduce_fig4_grid_matches_the_closed_form(tmp_path, capsys):
    assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "fig4_grid.csv").read_text().splitlines()
    assert lines[:2] == ["# seed=0", "lam1,lam2,verdict"]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 36
    for lam1, lam2, verdict in rows:
        inside = q.fourier_region_formula(3, float(lam1), float(lam2))
        assert verdict == ("FEASIBLE" if inside else "INFEASIBLE_CERTIFIED"), (lam1, lam2)


def test_reproduce_mub_thresholds(tmp_path, capsys):
    assert main(["reproduce", "mub-thresholds", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "mub_thresholds.csv").read_text().splitlines()
    assert lines[:2] == ["# seed=0", "family,joint_threshold,steering_threshold"]
    ref = {"xz": 1 / np.sqrt(2), "xyz": 1 / np.sqrt(3)}
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["xz", "xyz"]
    for name, joint, steer in rows:
        for value in (float(joint), float(steer)):
            # printed to 6 places, so allow its rounding above the reference
            assert ref[name] - q.DEFAULT_TOLS.bisect_tol <= value <= ref[name] + 5e-7


def test_reproduce_bc_bound(tmp_path, capsys):
    out = tmp_path / "tables"
    assert main(["reproduce", "bc-bound-table", "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "bc_bound_table.csv").read_text()
    assert "0.666666667" in text
    assert "0.625000000" in text
    assert "0.555555556" in text


def _csv_values(path):
    """The last column of a reproduced table's data rows, as floats."""
    return [float(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[2:]]


def _certified_below(value, ref):
    # within the bisection tolerance below the reference, allowing the CSV's rounding to 6 places
    return ref - q.DEFAULT_TOLS.bisect_tol - 5e-7 <= value <= ref + 5e-7


def test_reproduce_robustness(tmp_path, capsys):
    assert main(["reproduce", "robustness", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # id,id: 3/4; dephasing,id: (2 + sqrt 2) / 4
    values = _csv_values(tmp_path / "robustness.csv")
    assert len(values) == 2
    assert all(map(_certified_below, values, (0.75, (2 + np.sqrt(2)) / 4)))


def test_reproduce_pos_mom_table(tmp_path, capsys):
    assert main(["reproduce", "pos-mom-table", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    values = _csv_values(tmp_path / "pos_mom_table.csv")
    refs = [(d - 2 + np.sqrt(d)) / (2 * (d - 1)) for d in (2, 3, 4, 5)]
    assert len(values) == 4 and all(map(_certified_below, values, refs))


@pytest.mark.parametrize("d", [3, 100])
def test_boundary_root_equals_bisected_formula(d):
    # the closed-form root against bisection of the region formula, on the
    # 200 points per d that `reproduce fig4` writes
    for lam1 in np.linspace(0.0, 1.0, 200):
        lam1 = float(lam1)
        want = bisect_threshold(lambda lam2: q.fourier_region_formula(d, lam1, lam2), 2.0 ** -40).value
        assert abs(_boundary_lam2(d, lam1) - want) <= 1e-9
    # the formula's slack keeps the corner d=3, lam1=1 just inside
    assert f"{_boundary_lam2(3, 1.0):.6f}" == "0.000001"
