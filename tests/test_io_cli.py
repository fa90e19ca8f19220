import json
import os
import stat
import tempfile

import numpy as np
import pytest

import ssalab as sl
from ssalab import io as sio
from ssalab.cli import main, parse_group


def write_cosine_csv(path, n_points=100, header=False):
    f = np.cos(2 * np.pi * np.arange(n_points) / 10)
    lines = (["value"] if header else []) + [repr(float(v)) for v in f]
    path.write_text("\n".join(lines) + "\n")
    return f


# -- series CSV -------------------------------------------------------------------


def test_read_series_plain_and_header(tmp_path):
    p = tmp_path / "a.csv"
    f = write_cosine_csv(p, header=False)
    np.testing.assert_array_equal(sio.read_series(p), f)
    f2 = write_cosine_csv(p, header=True)
    np.testing.assert_array_equal(sio.read_series(p), f2)


def test_read_series_rejects_nan_and_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\nnan\n2.0\n")
    with pytest.raises(ValueError, match="NaN"):
        sio.read_series(p)
    p.write_text("1.0\ntwo\n")
    with pytest.raises(ValueError, match="not a number"):
        sio.read_series(p)
    p.write_text("")
    with pytest.raises(ValueError):
        sio.read_series(p)


def test_series_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    f = rng.standard_normal(50)
    p = tmp_path / "x.csv"
    sio.write_series(p, f)
    np.testing.assert_array_equal(sio.read_series(p), f)


def test_eigentriples_round_trip_exact(tmp_path):
    f = np.cos(2 * np.pi * np.arange(60) / 10) + 0.05 * np.random.default_rng(1).standard_normal(60)
    ets = sl.decompose(sl.embed(f, 20))
    p = tmp_path / "ets.json"
    sio.write_eigentriples(p, ets, mean=None)
    back, mean = sio.read_eigentriples(p)
    assert mean == 0.0
    assert back.method == ets.method and back.L == ets.L and back.K == ets.K
    np.testing.assert_array_equal(back.sigmas, ets.sigmas)
    np.testing.assert_array_equal(back.u, ets.u)
    np.testing.assert_array_equal(back.v, ets.v)


def test_eigentriples_from_dict_rejects_nonfinite_and_unknown_method():
    f = np.cos(2 * np.pi * np.arange(40) / 10)
    good = sio.eigentriples_to_dict(sl.decompose(sl.embed(f, 10)), mean=0.5)
    sio.eigentriples_from_dict(good)
    for key, bad in (("sigmas", np.nan), ("u", np.inf), ("v", -np.inf), ("mean", np.nan)):
        doc = json.loads(json.dumps(good))
        if key == "mean":
            doc["mean"] = bad
        elif key == "sigmas":
            doc["sigmas"][1] = bad
        else:
            doc[key][0][3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            sio.eigentriples_from_dict(doc)
    for method in ("svd", None, "Basic"):
        with pytest.raises(ValueError, match="method"):
            sio.eigentriples_from_dict({**good, "method": method})
    for key, bad in (("L", 10.9), ("L", 10.0), ("L", "10"), ("L", True), ("K", 31.5), ("K", 0)):
        with pytest.raises(ValueError, match=f"eigentriple {key} must be an integer"):
            sio.eigentriples_from_dict({**good, key: bad})
    sigmas = good["sigmas"]
    for bad in ([-sigmas[0], *sigmas[1:]], [sigmas[1], sigmas[0], *sigmas[2:]],
                [*sigmas[:-1], -0.5 * sigmas[-1]]):
        with pytest.raises(ValueError, match="nonnegative and nonincreasing"):
            sio.eigentriples_from_dict({**good, "sigmas": bad})
    # a nested list loaded as a (1, d) array and then failed in a bare matmul
    for bad in ([sigmas], [[s] for s in sigmas], sigmas[0]):
        with pytest.raises(ValueError, match=r"dimensions disagree: .* sigmas\("):
            sio.eigentriples_from_dict({**good, "sigmas": bad})


def test_decompose_export_matches_reference_format(tmp_path):
    # the JSON layout written by per-element float() conversion, byte for byte
    src = tmp_path / "cos.csv"
    write_cosine_csv(src, n_points=80)
    out = tmp_path / "ets.json"
    assert main(["decompose", "-i", str(src), "-L", "30", "--center", "-o", str(out)]) == 0
    f, mean = sl.center(sio.read_series(src))
    ets = sl.decompose(sl.embed(f, 30))
    doc = {
        "method": ets.method,
        "L": int(ets.L),
        "K": int(ets.K),
        "sigmas": [float(s) for s in ets.sigmas],
        "u": [[float(x) for x in ets.u[:, i]] for i in range(ets.count)],
        "v": [[float(x) for x in ets.v[:, i]] for i in range(ets.count)],
        "mean": float(mean),
    }
    assert out.read_text(encoding="utf-8") == json.dumps(doc) + "\n"


def test_parse_group():
    assert parse_group("1,2,5-8") == [1, 2, 5, 6, 7, 8]
    assert parse_group("3") == [3]
    with pytest.raises(ValueError):
        parse_group("0,1")
    with pytest.raises(ValueError):
        parse_group("a-b")
    with pytest.raises(ValueError):
        parse_group(",")


# -- CLI subcommands ----------------------------------------------------------------


def test_cli_reconstruct_noise_free_cosine(tmp_path):
    src = tmp_path / "cos.csv"
    f = write_cosine_csv(src)
    out = tmp_path / "rec.csv"
    rc = main(
        ["reconstruct", "--input", str(src), "--window", "50", "--group", "1,2",
         "--output", str(out)]
    )
    assert rc == 0
    rec = sio.read_series(out)
    assert np.max(np.abs(rec - f)) <= 1e-8


def test_cli_decompose_reconstruct_round_trip_bitwise(tmp_path):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    ets_path = tmp_path / "ets.json"
    direct = tmp_path / "direct.csv"
    via = tmp_path / "via.csv"
    assert main(["decompose", "-i", str(src), "-L", "50", "-o", str(ets_path)]) == 0
    assert main(
        ["reconstruct", "-i", str(src), "-L", "50", "--group", "1,2", "-o", str(direct)]
    ) == 0
    assert main(
        ["reconstruct", "--from-decomposition", str(ets_path), "--group", "1,2", "-o", str(via)]
    ) == 0
    assert direct.read_bytes() == via.read_bytes()


def test_cli_reconstruct_rejects_nonfinite_decomposition(tmp_path, capsys):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    ets_path = tmp_path / "ets.json"
    assert main(["decompose", "-i", str(src), "-L", "20", "-o", str(ets_path)]) == 0
    good = json.loads(ets_path.read_text())
    out = tmp_path / "rec.csv"
    sigmas = good["sigmas"]
    for field, value in (("sigmas", [float("nan")] + sigmas[1:]),
                         ("method", "ssa"),
                         ("L", good["L"] + 0.9),
                         ("sigmas", [-sigmas[0]] + sigmas[1:]),
                         ("sigmas", [sigmas[1], sigmas[0]] + sigmas[2:]),
                         ("sigmas", [sigmas])):
        bad = tmp_path / f"bad_{field}.json"
        bad.write_text(json.dumps({**good, field: value}))
        capsys.readouterr()
        assert main(["reconstruct", "--from-decomposition", str(bad), "-o", str(out)]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()


def test_cli_estimate_esprit(tmp_path):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    out = tmp_path / "est.csv"
    rc = main(
        ["estimate", "-i", str(src), "-L", "50", "--rank", "2", "--method", "esprit-ls",
         "-o", str(out)]
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "frequency,damping,modulus"
    freqs = [float(r.split(",")[0]) for r in rows[1:]]
    assert any(abs(fr - 0.1) <= 1e-6 for fr in freqs)


@pytest.mark.parametrize("method", ["esprit-tls", "root-music", "root-minnorm", "music", "minnorm"])
def test_cli_estimate_all_methods(tmp_path, method):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    out = tmp_path / "est.csv"
    rc = main(
        ["estimate", "-i", str(src), "-L", "20", "--rank", "2", "--method", method,
         "-o", str(out)]
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    freqs = [float(r.split(",")[0]) for r in rows]
    assert any(abs(fr - 0.1) <= 1e-4 for fr in freqs), (method, freqs)


def test_cli_estimate_ev_needs_noise_triples(tmp_path):
    # noise-free input retains no noise eigentriples, so EV weighting must refuse
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    out = tmp_path / "est.csv"
    rc = main(
        ["estimate", "-i", str(src), "-L", "20", "--rank", "2", "--method", "ev",
         "-o", str(out)]
    )
    assert rc == 3

    noisy = tmp_path / "noisy.csv"
    f = np.cos(2 * np.pi * np.arange(200) / 10)
    f = f + 0.1 * np.random.default_rng(0).standard_normal(200)
    noisy.write_text("\n".join(repr(float(v)) for v in f) + "\n")
    rc = main(
        ["estimate", "-i", str(noisy), "-L", "60", "--rank", "2", "--method", "ev",
         "-o", str(out)]
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    freqs = [float(r.split(",")[0]) for r in rows]
    assert any(abs(fr - 0.1) <= 1e-3 for fr in freqs)


def test_cli_forecast_exponential(tmp_path):
    src = tmp_path / "exp.csv"
    f = 2.0 ** np.arange(20)
    src.write_text("\n".join(repr(float(v)) for v in f) + "\n")
    out = tmp_path / "fc.csv"
    rc = main(
        ["forecast", "-i", str(src), "--window", "10", "--rank", "1", "--steps", "3",
         "-o", str(out)]
    )
    assert rc == 0
    got = sio.read_series(out)
    want = np.array([2.0**20, 2.0**21, 2.0**22])
    assert np.max(np.abs(got - want) / want) <= 1e-6


def test_cli_pseudospectrum(tmp_path):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    out = tmp_path / "ps.csv"
    rc = main(
        ["pseudospectrum", "-i", str(src), "-L", "20", "--rank", "2", "--method", "music",
         "--gridsize", "512", "-o", str(out)]
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "omega,value"
    assert len(rows) == 513


PSEUDOSPECTRUM_64 = ["pseudospectrum", "-L", "20", "-r", "2", "--gridsize", "64", "--method"]


@pytest.mark.parametrize(
    "argv, rows",
    [
        pytest.param(["reconstruct", "-L", "20", "--group", "1,2"], 100, id="reconstruct"),
        pytest.param(["forecast", "-L", "20", "-r", "2", "--steps", "3"], 3, id="forecast"),
        pytest.param(["estimate", "-L", "20", "-r", "2", "--method", "esprit-tls"], 2,
                     id="estimate"),
        pytest.param(["estimate", "-L", "20", "-r", "2", "--method", "music"], 1,
                     id="estimate-music"),
        pytest.param([*PSEUDOSPECTRUM_64, "music"], 64, id="pseudospectrum"),
        pytest.param([*PSEUDOSPECTRUM_64, "minnorm"], 64, id="pseudospectrum-minnorm"),
        pytest.param([*PSEUDOSPECTRUM_64, "ev"], 64, id="pseudospectrum-ev"),
    ],
)
def test_cli_json_numbers_equal_csv_numbers(tmp_path, argv, rows):
    src = tmp_path / "noisy.csv"
    noise = 0.1 * np.random.default_rng(0).standard_normal(100)
    f = np.cos(2 * np.pi * np.arange(100) / 10) + noise
    src.write_text("\n".join(repr(float(v)) for v in f) + "\n")
    csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
    assert main([*argv, "-i", str(src), "-o", str(csv_out)]) == 0
    assert main([*argv, "-i", str(src), "--format", "json", "-o", str(json_out)]) == 0
    header, *lines = csv_out.read_text().splitlines()
    columns = [list(col) for col in zip(*([float(x) for x in ln.split(",")] for ln in lines))]
    doc = json.loads(json_out.read_text())
    if argv[0] in ("reconstruct", "forecast"):
        assert doc == columns[0]
    elif argv[0] == "estimate":
        assert doc == [dict(zip(header.split(","), row)) for row in zip(*columns)]
    else:
        # the JSON names the method the CLI was given; the CSV does not
        assert doc == {"method": argv[argv.index("--method") + 1], "omega": columns[0],
                       "value": columns[1]}
    assert len(columns[0]) == rows


def test_error_surface_csv_exact_bytes(tmp_path):
    surf = sl.ErrorSurface(
        spec=sl.SignalSpec("damped_cos_wn", n=100), functional="projector", windows=(20, 30),
        msd=np.array([0.1, 1 / 3]), rmse=np.array([np.nan, 2.5e-17]), failures=np.array([0, 5]),
        reps=5, master_seed=0, experiment_id="x",
    )
    p = tmp_path / "s.csv"
    sio.write_error_surface_csv(p, surf)
    assert p.read_bytes() == (
        b"L,functional,MSD,RMSE,reps\n"
        b"20,projector,0.1,nan,5\n"
        b"30,projector,0.3333333333333333,2.5e-17,5\n"
    )


# -- overwriting outputs ------------------------------------------------------------


def _two_series():
    rng = np.random.default_rng(3)
    return rng.standard_normal(40), rng.standard_normal(60)


def _two_decompositions():
    a, b = _two_series()
    return sl.decompose(sl.embed(a, 10)), sl.decompose(sl.embed(b, 20))


WRITERS = {
    "write_series": (sio.write_series, _two_series),
    "write_eigentriples": (sio.write_eigentriples, _two_decompositions),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_rewrite_replaces_a_regular_output(tmp_path, writer):
    write, make = WRITERS[writer]
    old, new = make()
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    write(out, old)
    old_bytes = out.read_bytes()
    os.chmod(out, 0o640)
    write(fresh, new)
    with open(out, "rb") as held:
        write(out, new)
        # a new file, not the old one truncated: the open handle keeps the old bytes
        assert held.read() == old_bytes
    assert out.read_bytes() == fresh.read_bytes() != old_bytes
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]


@pytest.mark.skipif(os.geteuid() != 0, reason="giving a file another group needs root")
def test_rewrite_keeps_the_group(tmp_path):
    old, new = _two_series()
    out = tmp_path / "out.csv"
    sio.write_series(out, old)
    gid = os.getegid() + 1
    os.chown(out, -1, gid)
    with open(out, "rb") as held:
        sio.write_series(out, new)
        assert held.read() != out.read_bytes()
    assert out.stat().st_gid == gid


def test_rewrite_through_a_symlink_writes_its_target(tmp_path):
    old, new = _two_series()
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "fresh.csv"
    sio.write_series(target, old)
    link.symlink_to(target)
    sio.write_series(link, new)
    sio.write_series(fresh, new)
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


def test_rewrite_of_a_hard_linked_output_is_seen_by_both_names(tmp_path):
    old, new = _two_series()
    out, other, fresh = tmp_path / "out.csv", tmp_path / "other.csv", tmp_path / "fresh.csv"
    sio.write_series(out, old)
    os.link(out, other)
    sio.write_series(out, new)
    sio.write_series(fresh, new)
    assert out.read_bytes() == other.read_bytes() == fresh.read_bytes()
    assert os.path.samefile(out, other)


def _refuse(*args, **kwargs):
    raise PermissionError(13, "refused")


# running as root bypasses file modes and ownership, so each case is set up by a patch
IN_PLACE = {
    "another-owner": (os, "geteuid", lambda euid=os.geteuid(): euid + 1),
    "no-write-access": (os, "access", lambda path, mode: False),
    "extended-attributes": (os, "listxattr", lambda path, follow_symlinks: ["user.tag"]),
    "no-temp-file": (tempfile, "mkstemp", _refuse),
    "group-not-joinable": (os, "fchown", _refuse),
    "rename-fails": (os, "replace", _refuse),
}


@pytest.mark.parametrize("case", list(IN_PLACE))
def test_rewrite_falls_back_to_writing_in_place(tmp_path, monkeypatch, case):
    old, new = _two_series()
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    sio.write_series(out, old)
    sio.write_series(fresh, new)
    monkeypatch.setattr(*IN_PLACE[case])
    with open(out, "rb") as held:
        sio.write_series(out, new)
        # written in place: the open handle sees the new bytes
        assert held.read() == fresh.read_bytes()
    assert out.read_bytes() == fresh.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "out.csv"]


def test_rewrite_that_cannot_open_keeps_the_old_output(tmp_path, monkeypatch):
    old, new = _two_series()
    out = tmp_path / "out.csv"
    sio.write_series(out, old)
    old_bytes = out.read_bytes()

    def no_descriptors(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(tempfile, "mkstemp", no_descriptors)
    monkeypatch.setattr(sio, "open", no_descriptors, raising=False)
    with pytest.raises(OSError):
        sio.write_series(out, new)
    assert out.read_bytes() == old_bytes


def test_cli_output_to_dev_null(tmp_path, monkeypatch):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)

    def refuse(path):
        raise AssertionError(f"unlink({path!r}) of a non-regular output")

    monkeypatch.setattr(os, "unlink", refuse)
    assert main(["reconstruct", "-i", str(src), "-L", "20", "--group", "1,2",
                 "-o", os.devnull]) == 0


def test_cli_simulate_reproducible(tmp_path):
    cfg = {
        "signal": {"kind": "damped_cos_wn", "n": 60, "b": 1.0, "sigma": 0.1},
        "windows": [20, 30],
        "reps": 5,
        "functional": "reconstruction",
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg_path), "-o", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "-o", str(out2)]) == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    report = json.loads((tmp_path / "r1.json").read_text())
    assert report["windows"] == [20, 30]
    assert len(report["rmse"]) == 2
    header = (tmp_path / "r1.csv").read_text().splitlines()[0]
    assert header == "L,functional,MSD,RMSE,reps"


@pytest.mark.parametrize(
    "change, env, flags",
    [
        ({"signal": {"kind": "damped_cos_wn", "n": "abc"}}, None, []),
        ({"signal": {"kind": "damped_cos_wn", "n": 100.5}}, None, []),
        ({"reps": 0}, None, []),
        ({"reps": "many"}, None, []),
        ({}, None, ["--reps", "0"]),
        ({"windows": [404]}, None, []),
        ({"windows": ["ten"]}, None, []),
        ({"eigentriples": 500}, None, []),
        ({}, "abc", []),
        ({}, "0", []),
        ({"windows": [2]}, None, []),
        ({"signal": {"kind": "two_cos", "n": 100}, "windows": [3]}, None, []),
        ({"signal": {"kind": "two_cos", "n": 100}, "windows": [98]}, None, []),
        ({"signal": {"kind": "chirp_am", "n": 100}}, None, []),
        ({"windows": [3], "eigentriples": 3, "functional": "forecast-1-step"}, None, []),
        ({"signal": {"kind": "damped_cos_wn", "n": 60, "sigma": float("nan")}}, None, []),
        ({"signal": {"kind": "damped_cos_wn", "n": 60, "b": float("inf")}}, None, []),
        ({"noise": {"kind": "white", "sigma": 0.1}}, None, []),
        ({"functional": "damping"}, None, []),
    ],
    ids=["n-text", "n-fraction", "reps-0", "reps-text", "flag-reps-0", "window-404",
         "window-text", "eigentriples-500", "threads-text", "threads-0", "window-2-rank-2",
         "two-cos-window-3", "two-cos-window-98", "chirp-no-finite-rank",
         "forecast-eigentriples-L", "sigma-nan", "b-infinite", "noise-block",
         "functional-damping"],
)
def test_cli_simulate_config_errors_exit_2(tmp_path, monkeypatch, capsys, change, env, flags):
    cfg = {
        "signal": {"kind": "damped_cos_wn", "n": 399, "sigma": 0.1},
        "windows": [20],
        "reps": 2,
        "functional": "reconstruction",
        **change,
    }
    if env is not None:
        monkeypatch.setenv("SSA_LAB_THREADS", env)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert main(["simulate", "--config", str(cfg_path), "-o", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ssalab: parse error:") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def test_cli_center_flag_round_trip(tmp_path):
    src = tmp_path / "shifted.csv"
    base = np.cos(2 * np.pi * np.arange(100) / 10) + 5.0
    src.write_text("\n".join(repr(float(v)) for v in base) + "\n")
    out = tmp_path / "rec.csv"
    rc = main(
        ["reconstruct", "-i", str(src), "-L", "40", "--group", "1,2", "--center",
         "-o", str(out)]
    )
    assert rc == 0
    rec = sio.read_series(out)
    assert np.max(np.abs(rec - base)) <= 1e-8


def test_cli_decompose_rejects_format(tmp_path):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    out = tmp_path / "d.csv"
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "-i", str(src), "-L", "20", "--format", "csv", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("1.0\nnan\n")
    out = str(tmp_path / "o.csv")
    # io error: missing input
    assert main(["decompose", "-i", str(tmp_path / "missing.csv"), "-o", out]) == 4
    # parse error: NaN input
    assert main(["decompose", "-i", str(nan_csv), "-o", out]) == 2
    # domain error: window out of range; a given 0 is out of range too, not the default
    for argv in (["decompose", "-L", "1000"], ["reconstruct", "-L", "0"],
                 ["forecast", "-r", "2", "--lrf-window", "0"]):
        capsys.readouterr()
        assert main([*argv, "-i", str(src), "-o", out]) == 3
        assert "WindowOutOfRange" in capsys.readouterr().err
    # parse error: reconstruct with neither --input nor --from-decomposition
    capsys.readouterr()
    assert main(["reconstruct", "-o", out]) == 2
    assert "--from-decomposition" in capsys.readouterr().err
    # parse error: bad group syntax
    assert main(
        ["reconstruct", "-i", str(src), "-L", "20", "--group", "x", "-o", out]
    ) == 2
    # domain error: rank too large for the retained triples
    assert main(
        ["estimate", "-i", str(src), "-L", "20", "--rank", "19", "--method", "esprit-ls",
         "-o", out]
    ) == 3
    # parse error: flag values below their floor are rejected before any computation
    for argv in (["forecast", "-r", "2", "--steps", "0"], ["forecast", "-r", "2", "--steps", "-1"],
                 ["forecast", "-r", "0"],
                 ["estimate", "-r", "2", "--method", "music", "--gridsize", "1"],
                 ["pseudospectrum", "-r", "2", "--method", "music", "--gridsize", "1"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-i", str(src), "-L", "20", "-o", out])
        assert exc.value.code == 2
        assert "must be an integer >=" in capsys.readouterr().err
    # the remaining exits before any output, each with its one-line message
    noisy = tmp_path / "noisy.csv"
    f = np.cos(np.arange(60) / 1.6) + 0.1 * np.random.default_rng(0).standard_normal(60)
    noisy.write_text("\n".join(repr(float(v)) for v in f) + "\n")
    not_json = tmp_path / "not.json"
    not_json.write_text('{"signal": ')
    no_output = tmp_path / "no-output.json"
    no_output.write_text(json.dumps({"signal": {"kind": "damped_cos_wn", "n": 60},
                                     "windows": [20], "reps": 2}))
    for argv, code, message in (
        (["decompose", "-o", out], 2, "--input is required"),
        (["simulate", "--config", str(not_json), "-o", out], 2, "invalid JSON"),
        (["simulate", "--config", str(no_output)], 2, "needs an output base path"),
        (["reconstruct", "-i", str(src), "-L", "20", "--group", "3-1", "-o", out], 2,
         "empty group range"),
        # r = L spans the whole space: basis_matrix's ValueError, not a domain error
        (["estimate", "-i", str(noisy), "-L", "5", "-r", "5", "--method", "esprit-ls",
          "-o", out], 3, "invalid value"),
    ):
        capsys.readouterr()
        assert main(argv) == code
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cos.csv", "nan.csv", "no-output.json", "noisy.csv", "not.json"]


def test_cli_verbose_window_default(tmp_path, capsys):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    out = tmp_path / "rec.csv"
    assert main(["reconstruct", "-i", str(src), "--group", "1,2", "-o", str(out),
                 "--verbose"]) == 0
    err = capsys.readouterr().err
    assert "defaulted" in err and "50" in err


def test_cli_toeplitz_forecast_warns(tmp_path, capsys):
    src = tmp_path / "cos.csv"
    write_cosine_csv(src)
    out = tmp_path / "fc.csv"
    rc = main(
        ["forecast", "-i", str(src), "-L", "20", "--rank", "2", "--steps", "2",
         "--toeplitz", "-o", str(out)]
    )
    assert rc == 0
    assert "warning" in capsys.readouterr().err.lower()
