"""The flags of the one verification CLI, ``python -m repro.verify``."""

from __future__ import annotations

import pytest

from repro import verify as cli


class TestVerifierParser:
    def test_unknown_plane_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["no-such-plane"])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_defaults_match_the_ci_matrix(self, fake_plane):
        assert cli.main(["fake"]) == 0
        assert fake_plane.calls == [([5, 23, 101], ["a", "b"], False)]

    def test_all_flags_parse(self, fake_plane, tmp_path):
        output = tmp_path / "record.json"
        argv = ["fake", "--seeds", "1,2", "--sites", "b", "--smoke",
                "--output", str(output)]
        assert cli.main(argv) == 0
        assert fake_plane.calls == [([1, 2], ["b"], True)]
        assert output.exists()

    def test_undeclared_site_exits_2_before_running(self, fake_plane, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fake", "--sites", "a,z"])
        assert exit_info.value.code == 2
        assert fake_plane.calls == []
        assert "'z'" in capsys.readouterr().err

    def test_siteless_harness_omits_the_sites_flag(self, fake_plane, capsys):
        """A plane that declares no ``SITES`` refuses ``--sites``."""
        del fake_plane.SITES
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fake", "--sites", "a"])
        assert exit_info.value.code == 2
        assert fake_plane.calls == []
        capsys.readouterr()

    def test_malformed_seeds_exit_2(self, fake_plane, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fake", "--seeds", "5,x"])
        assert exit_info.value.code == 2
        capsys.readouterr()


class TestParsers:
    def test_parse_csv_strips_and_drops_empties(self, fake_plane):
        argv = ["fake", "--seeds", " 1, 2 ,,", "--sites", "b , a,"]
        assert cli.main(argv) == 0
        assert fake_plane.calls == [([1, 2], ["b", "a"], False)]

    def test_parse_seeds_decodes_integers(self, fake_plane):
        assert cli.main(["fake", "--seeds", "7,011"]) == 0
        assert fake_plane.calls[0][0] == [7, 11]
