import json

import numpy as np
import pytest

import qincompat as q
from qincompat.cli import EXIT_FEASIBLE, EXIT_INFEASIBLE, EXIT_UNDECIDED, _boundary_lam2, _code, main
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


def test_usage_errors_exit_malformed(xz_paths, capsys):
    # a usage error is malformed input (3), not undecided (2); flags are
    # registered only on the subcommands that read them
    assert main(["check-joint", *xz_paths, "--bogus"]) == 3
    assert main(["degree", *xz_paths, "--witness"]) == 3
    assert main(["obs-channel", *xz_paths, "--parallel", "2"]) == 3
    assert main(["reproduce", "process-q", "--json"]) == 3
    assert main([]) == 3
    assert "usage:" in capsys.readouterr().err


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


def test_reproduce_bc_bound(tmp_path, capsys):
    out = tmp_path / "tables"
    assert main(["reproduce", "bc-bound-table", "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "bc_bound_table.csv").read_text()
    assert "0.666666667" in text
    assert "0.625000000" in text
    assert "0.555555556" in text


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
