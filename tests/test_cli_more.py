"""Additional CLI coverage: kernels, output files, fast variants."""

import pytest

from repro.cli import main


class TestCliKernels:
    @pytest.mark.parametrize("experiment", ["fig8", "fig9"])
    def test_single_kernel_fast(self, experiment, capsys):
        assert main([experiment, "--kernel", "lu", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "lu" in out
        assert "[CPU]" in out and "[GPU]" in out

    def test_fig1_ignores_kernel_flag(self, capsys):
        assert main(["fig1", "--kernel", "qr"]) == 0
        assert "HeteroPrio schedule" in capsys.readouterr().out


class TestCliOutput:
    def test_out_writes_files(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        content = (tmp_path / "table1.txt").read_text()
        assert "28.800" in content

    def test_out_multi_kernel_concatenates(self, tmp_path, capsys):
        assert main(["fig6", "--fast", "--out", str(tmp_path)]) == 0
        content = (tmp_path / "fig6.txt").read_text()
        assert content.count("== fig6:") == 3  # cholesky + qr + lu

    def test_out_creates_directory(self, tmp_path, capsys):
        target = tmp_path / "nested" / "dir"
        assert main(["fig4", "--out", str(target)]) == 0
        assert (target / "fig4.txt").exists()


class TestCliFastVariants:
    def test_table2_fast(self, capsys):
        assert main(["table2", "--fast"]) == 0
        assert "measured on tight instance" in capsys.readouterr().out

    def test_fig5_fast(self, capsys):
        assert main(["fig5", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "ratio (-> 3.155)" in out

    def test_comm_fast(self, capsys):
        assert main(["comm", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "transfer scale" in out

    def test_robustness_fast(self, capsys):
        assert main(["robustness", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "best mean ratio" in out


class TestCliLint:
    """The `repro lint` subcommand (tentpole: repro.analysis)."""

    ROOT = __import__("pathlib").Path(__file__).resolve().parent.parent

    def test_lint_repo_clean(self, capsys):
        assert main(["lint", "--root", str(self.ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_lint_cache_gate_passes_on_committed_manifest(self, capsys):
        assert main(["lint", "--root", str(self.ROOT), "--cache-gate"]) == 0
        out = capsys.readouterr().out
        assert "[cache-gate] OK" in out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("unseeded-random", "wall-clock", "unordered-iteration",
                        "float-equality", "mutable-default"):
            assert rule_id in out
        assert "disable=<rule-id> -- <reason>" in out

    def test_lint_explicit_paths_and_violation_exit(self, tmp_path, capsys):
        bad = tmp_path / "src"
        bad.mkdir()
        (bad / "app.py").write_text("import random\nx = random.random()\n")
        assert main(["lint", "--root", str(tmp_path), "--paths", "src"]) == 1
        out = capsys.readouterr().out
        assert "unseeded-random" in out

    def test_lint_write_fingerprints_round_trip(self, tmp_path, capsys):
        from repro.analysis.fingerprint import SALTED_PACKAGES

        # Every salted package needs a module, or the gate flags it.
        for package in SALTED_PACKAGES:
            (tmp_path / "src" / "repro" / package).mkdir(parents=True)
            (tmp_path / "src" / "repro" / package / "mod.py").write_text("X = 1\n")
        pkg = tmp_path / "src" / "repro" / "core"
        assert main(["lint", "--root", str(tmp_path), "--write-fingerprints"]) == 0
        assert main(["lint", "--root", str(tmp_path), "--paths", "",
                     "--cache-gate"]) == 0
        # A semantic edit without a bump must now fail the gate.
        (pkg / "mod.py").write_text("X = 2\n")
        capsys.readouterr()
        assert main(["lint", "--root", str(tmp_path), "--paths", "",
                     "--cache-gate"]) == 1

    def test_lint_show_suppressed_lists_reasons(self, capsys):
        assert main(["lint", "--root", str(self.ROOT), "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "suppressed [unordered-iteration]" in out
