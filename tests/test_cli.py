import pytest

from secureftl.cli import main


def _write_cfg(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "kind = taylor-vs-exact\n"
        "n = 30\nn_overlap = 12\nn_labeled = 8\nn_eval = 6\n"
        "d_source_features = 4\nd_target_features = 3\nhidden = 3\n"
        "noise = 0.05\nmargin = 0.4\nlearning_rate = 0.5\n"
        "max_iterations = 3\nseeds = 1\n" + extra)
    return path


def test_main_runs_and_writes(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "results.csv").exists()
    printed = capsys.readouterr().out
    assert "taylor-vs-exact" in printed
    assert "f1_gap" in printed


def test_main_seed_override_changes_results(tmp_path):
    cfg = _write_cfg(tmp_path)
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    main(["--config", str(cfg), "--out", str(out_a), "--seed", "0"])
    main(["--config", str(cfg), "--out", str(out_b), "--seed", "1"])
    main(["--config", str(cfg), "--out", str(out_c), "--seed", "0"])
    results_a = (out_a / "results.csv").read_bytes()
    assert results_a != (out_b / "results.csv").read_bytes()
    assert results_a == (out_c / "results.csv").read_bytes()


def test_main_tcp_transport(tmp_path):
    cfg = _write_cfg(tmp_path, "kind = overlap-sweep\nsweep = 6\n"
                               "engine = encrypted\nmax_iterations = 1\n"
                               "n = 16\nn_overlap = 6\nn_labeled = 4\nn_eval = 4\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out),
               "--transport", "tcp", "--port", "0"])
    assert rc == 0
    summary = (out / "transcript_summary.csv").read_text()
    assert "COMPONENTS_A" in summary


def test_main_requires_config():
    with pytest.raises(SystemExit):
        main([])


def test_main_rejects_unknown_transport():
    with pytest.raises(SystemExit):
        main(["--config", "x.cfg", "--transport", "telepathy"])
